//! `repro` — regenerate every table and figure of Bolot, SIGCOMM '93.
//!
//! ```text
//! repro [--artifact all|table1|table2|table3|fig1|fig2|fig4|fig5|fig6|fig8|fig9|model|campaign]
//!       [--span-secs N] [--seed N] [--json] [--serial]
//! ```
//!
//! Each artifact prints a terminal rendering of the figure or table, then
//! one line per claim: what the paper reports, what this run measured, the
//! band the measurement must lie in, and whether it does
//! (`probenet_bench::Claim`). `--json` additionally emits the artifact's
//! data and its claims as JSON on stdout.
//!
//! Artifacts are independent, so they render into per-artifact string
//! buffers on the bounded pool (`probenet_core::sched`) and
//! are printed in the fixed paper order afterwards — output is identical
//! whatever the thread count. `--serial` forces everything onto one
//! thread. Speed is measured by `benchmark/run.sh`, not here.
//!
//! Figures 3 and 7 of the paper are schematics (the queueing model and the
//! Lindley proof), realized as code in `probenet_queueing::{BolotModel,
//! lindley}` and covered by that crate's tests.

use std::fmt::Write as _;
use std::io::StdoutLock;
use std::num::{NonZeroU64, NonZeroUsize};

use probenet_bench::*;
use probenet_core::impairment_scenarios;

/// The tool's locked stdout, which every mode writes its output to.
type Out = StdoutLock<'static>;

/// What a golden-producing mode does with the bytes it rendered.
#[derive(Clone, Copy, PartialEq, Eq)]
enum GoldenMode {
    /// Print them.
    Print,
    /// `--check`: diff them against the checked-in file.
    Check,
    /// `--bless`: rewrite the checked-in file.
    Bless,
}

struct Args {
    artifact: String,
    span_secs: u64,
    seed: u64,
    json: bool,
    serial: bool,
    impair: Option<String>,
    stream: bool,
    golden: GoldenMode,
    emit_frames: Option<String>,
    mesh: bool,
    live: bool,
    live_sessions: usize,
    live_delta_ms: u64,
    live_duration_secs: u64,
}

impl Args {
    /// Pool width: one thread under `--serial`, else the pool's maximum.
    fn threads(&self) -> usize {
        if self.serial {
            1
        } else {
            probenet_core::sched::max_threads()
        }
    }
}

fn parse_args(stdout: &mut Out) -> Args {
    let mut args = Args {
        artifact: "all".to_string(),
        span_secs: DEFAULT_SPAN_SECS,
        seed: DEFAULT_SEED,
        json: false,
        serial: false,
        impair: None,
        stream: false,
        golden: GoldenMode::Print,
        emit_frames: None,
        mesh: false,
        live: false,
        live_sessions: 64,
        live_delta_ms: 20,
        live_duration_secs: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            // `repro mesh [--check|--bless]` — the mesh campaign; takes no
            // positional operands.
            "mesh" => args.mesh = true,
            // `repro live [--sessions N] [--delta MS] [--duration S]` —
            // the live reactor loopback engine.
            "live" => args.live = true,
            "--sessions" => {
                args.live_sessions =
                    flag_value::<NonZeroUsize>(&mut it, &a, "a positive integer").get()
            }
            "--delta" => {
                args.live_delta_ms =
                    flag_value::<NonZeroU64>(&mut it, &a, "a positive integer (ms)").get()
            }
            "--duration" => {
                args.live_duration_secs = flag_value(&mut it, &a, "an integer (seconds)")
            }
            "--artifact" => args.artifact = flag_value(&mut it, &a, "an artifact name"),
            "--span-secs" => args.span_secs = flag_value(&mut it, &a, "an integer (seconds)"),
            "--seed" => args.seed = flag_value(&mut it, &a, "an integer"),
            "--json" => args.json = true,
            "--serial" => args.serial = true,
            "--impair" => args.impair = Some(flag_value(&mut it, &a, "a scenario name")),
            "--stream" => args.stream = true,
            "--check" | "--bless" => {
                let mode = if a == "--check" {
                    GoldenMode::Check
                } else {
                    GoldenMode::Bless
                };
                if args.golden != GoldenMode::Print && args.golden != mode {
                    eprintln!("--check and --bless are mutually exclusive");
                    std::process::exit(2);
                }
                args.golden = mode;
            }
            "--emit-frames" => args.emit_frames = Some(flag_value(&mut it, &a, "a path prefix")),
            "--help" | "-h" => {
                outln!(
                    stdout,
                    "repro [--artifact all|table1|table2|table3|fig1|fig2|fig4|fig5|fig6|fig8|fig9|model|campaign] \
                     [--span-secs N] [--seed N] [--json] [--serial]\n\
                     repro --impair <scenario|list> [--span-secs N] [--seed N] [--json] [--serial]\n\
                     repro --stream [--check | --bless] [--serial] [--emit-frames <prefix>]   (streaming-collector snapshots)\n\
                     repro mesh [--check | --bless] [--serial]   (mesh campaign + per-link loss decomposition)\n\
                     repro live [--sessions N] [--delta MS] [--duration S] [--stream] [--json]   (live reactor loopback engine)\n\
                     repro --check | --bless   (verify / regenerate the golden traces in tests/golden/)"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// `repro live` — drive concurrent loopback probe sessions from the
/// single-threaded reactor against an in-process echo server and report
/// the sustained rate, timer-wheel lateness and the stream-collector
/// drop-accounting identity. Exits 1 if `produced != records + dropped`,
/// 2 when the platform lacks the reactor (no epoll) or a session would
/// send more probes than its shared lane can number.
fn live_cmd(a: &Args, stdout: &mut Out) -> i32 {
    let limit = probenet_live::TAGGED_LANE_MAX_PROBES;
    let probes = a
        .live_duration_secs
        .checked_mul(1000)
        .map(|ms| ms / a.live_delta_ms)
        .and_then(|n| usize::try_from(n).ok())
        .filter(|&n| n <= limit);
    let Some(count) = probes else {
        eprintln!(
            "--duration needs at most {limit} probes per session (duration · 1000 / delta), \
             the reactor's shared-lane limit"
        );
        return 2;
    };
    let count = count.max(1);
    let (run, report) = match live_engine_run(a.live_sessions, a.live_delta_ms, count) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("live: reactor unavailable: {e}");
            return 2;
        }
    };
    let balanced = run.accounting_balanced();
    if a.json {
        outln!(
            stdout,
            "{}",
            serde_json::to_string_pretty(&run).expect("serializable live report")
        );
    } else {
        outln!(
            stdout,
            "=== live reactor: {} sessions, δ = {} ms, {} probes/session ===",
            run.sessions,
            run.delta_ms,
            run.probes_per_session
        );
        outln!(
            stdout,
            "lanes {} | wall {:.0} ms | {:.0} probes/s aggregate | {} sessions/core",
            run.lanes,
            run.wall_ms,
            run.aggregate_pps,
            run.sessions_per_core
        );
        outln!(
            stdout,
            "timer lateness µs: p50 {} | p90 {} | p99 {} | max {} ({} fires)",
            run.lateness_p50_us,
            run.lateness_p90_us,
            run.lateness_p99_us,
            run.lateness_max_us,
            run.timers_fired
        );
        outln!(
            stdout,
            "io: {} probes sent, {} replies, batched syscalls {}, {} epoll waits",
            run.probes_sent,
            run.replies_received,
            if run.used_batching {
                "yes"
            } else {
                "no (fallback ladder)"
            },
            run.poll_waits
        );
        outln!(
            stdout,
            "stream accounting: produced {} = records {} + dropped {} [{}]",
            run.produced,
            run.records,
            run.dropped,
            if balanced { "ok" } else { "FAIL" }
        );
    }
    if a.stream {
        outln!(stdout, "{}", report.to_json());
    }
    if !balanced {
        eprintln!(
            "live: drop accounting violated: produced {} != records {} + dropped {}",
            run.produced, run.records, run.dropped
        );
        return 1;
    }
    0
}

/// `--impair <scenario>`: run a named fault-injection scenario at the two
/// paper regimes and print its loss/ordering signature. `--impair list`
/// enumerates the scenarios. Exit code doubles as the process status.
fn impair(a: &Args, name: &str, stdout: &mut Out) -> i32 {
    if name == "list" {
        outln!(stdout, "named impairment scenarios:");
        for sc in impairment_scenarios() {
            outln!(stdout, "  {:<22} {}", sc.name, sc.summary);
        }
        return 0;
    }
    // Slices scale with --span-secs; the default span renders exactly the
    // golden (8 ms, 60 s) and (500 ms, 300 s) slices.
    let base = a.span_secs.min(60);
    let slices = [(8u64, base), (500u64, base * 5)];
    let Some(report) = impair_report(name, a.seed, &slices, a.threads()) else {
        eprintln!("unknown impairment scenario: {name} (try --impair list)");
        return 2;
    };
    if a.json {
        outln!(
            stdout,
            "{}",
            serde_json::to_string_pretty(&report).expect("serializable impair report")
        );
        return 0;
    }
    let summary = impairment_scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .map(|s| s.summary)
        .unwrap_or("");
    outln!(stdout, "=== impairment scenario: {name} ===");
    outln!(stdout, "{summary}");
    outln!(stdout, "seed {}", report.seed);
    for s in &report.slices {
        outln!(
            stdout,
            "delta {:>4} ms over {:>4} s: sent {}, delivered {}, ulp {:.4}, clp {}, plg {}",
            s.delta_ms,
            s.span_secs,
            s.sent,
            s.received,
            s.ulp,
            s.clp
                .map(|c| format!("{c:.4}"))
                .unwrap_or_else(|| "-".into()),
            s.plg_palm
                .map(|g| format!("{g:.2}"))
                .unwrap_or_else(|| "-".into()),
        );
        outln!(
            stdout,
            "  losses look random? {} | loss runs {:?} | reordering {} | impair drops {} | records fnv1a {}",
            s.losses_look_random, s.run_lengths, s.reordering, s.probe_impair_drops, s.records_fnv1a
        );
    }
    0
}

/// Apply `mode` to one rendered golden artifact: print `bytes`, diff them
/// against the file at `path` (`--check`), or rewrite it (`--bless`).
/// `false` on a mismatch or an unreadable golden.
fn golden(label: &str, path: &str, bytes: &[u8], mode: GoldenMode, stdout: &mut Out) -> bool {
    match mode {
        GoldenMode::Print => {
            write_out(stdout, bytes);
            true
        }
        GoldenMode::Bless => {
            std::fs::write(path, bytes).expect("write golden");
            outln!(stdout, "{label}: blessed {path} ({} bytes)", bytes.len());
            true
        }
        GoldenMode::Check => match std::fs::read(path) {
            Ok(on_disk) if on_disk == bytes => {
                outln!(stdout, "{label}: OK ({path})");
                true
            }
            Ok(_) => {
                outln!(
                    stdout,
                    "{label}: MISMATCH against {path} — behavior drifted; \
                     rerun with --bless if the change is intended"
                );
                false
            }
            Err(e) => {
                outln!(stdout, "{label}: cannot read {path}: {e}");
                false
            }
        },
    }
}

/// `--stream`: regenerate the streaming-collector golden snapshots —
/// serially and on the pool — verify both renderings are byte-identical,
/// then print them, diff them against `tests/golden/stream-snapshots.json`
/// (`--check`), or rewrite that artifact (`--bless`).
///
/// The same report also backs the fleet artifacts: its sessions are split
/// round-robin across [`GOLDEN_FRAME_SHARDS`] simulated collectors and
/// encoded as snapshot-frame streams. `--bless` writes those shards next
/// to the JSON golden; `--check` re-encodes and diffs them, then folds the
/// *on-disk* shards through `probenet-merged` and requires the folded
/// report to be byte-identical to the single-process rendering;
/// `--emit-frames <prefix>` writes the shards to `<prefix>-c<i>.bin`.
fn stream_cmd(a: &Args, stdout: &mut Out) -> i32 {
    let threads = a.threads();
    let report = stream_collector_report(1);
    let mut serial = report.to_json();
    serial.push('\n');
    let pooled = stream_report_threads(threads);
    if serial != pooled {
        outln!(
            stdout,
            "stream: FAIL — pool({threads}) report differs from serial"
        );
        return 1;
    }
    let shards = frame_shards(&report, GOLDEN_FRAME_SHARDS);
    if let Some(prefix) = &a.emit_frames {
        for (i, shard) in shards.iter().enumerate() {
            let path = format!("{prefix}-c{i}.bin");
            std::fs::write(&path, shard).expect("write frame shard");
            outln!(stdout, "stream: wrote {path} ({} bytes)", shard.len());
        }
    }
    let mut ok = golden(
        "stream",
        &stream_golden_path(),
        serial.as_bytes(),
        a.golden,
        stdout,
    );
    if a.golden == GoldenMode::Print {
        return 0;
    }
    let shard_paths: Vec<String> = (0..GOLDEN_FRAME_SHARDS).map(stream_frames_path).collect();
    for (shard, shard_path) in shards.iter().zip(&shard_paths) {
        ok &= golden("stream", shard_path, shard, a.golden, stdout);
    }
    if !ok {
        return 1;
    }
    if a.golden == GoldenMode::Check {
        // The fleet-merge determinism contract: folding the checked-in
        // shards must reproduce the single-process report byte-for-byte.
        let merged = match probenet_merged::merge_files(&shard_paths) {
            Ok(r) => r,
            Err(e) => {
                outln!(stdout, "stream: FAIL — merging golden frame shards: {e}");
                return 1;
            }
        };
        let mut merged_json = merged.to_json();
        merged_json.push('\n');
        if merged_json != serial {
            outln!(
                stdout,
                "stream: FAIL — report merged from golden frame shards differs \
                 from the single-process report"
            );
            return 1;
        }
        outln!(
            stdout,
            "stream: OK (merged {} frame shards byte-identical to single-process report)",
            shard_paths.len()
        );
    }
    0
}

/// `repro mesh`: run the golden mesh campaign — serially and on the
/// pool, requiring byte-identical reports — and print the artifact,
/// diff it against `tests/golden/mesh-report.json` (`--check`), or
/// rewrite that golden (`--bless`).
fn mesh_cmd(a: &Args, stdout: &mut Out) -> i32 {
    use probenet_mesh::{MeshReport, MeshSpec};

    let threads = a.threads();
    let spec = MeshSpec::golden();
    let serial = match MeshReport::generate(&spec, 1) {
        Ok(r) => r.to_json(),
        Err(e) => {
            outln!(stdout, "mesh: FAIL — serial campaign: {e}");
            return 1;
        }
    };
    let pooled = match MeshReport::generate(&spec, threads) {
        Ok(r) => r.to_json(),
        Err(e) => {
            outln!(stdout, "mesh: FAIL — pooled campaign: {e}");
            return 1;
        }
    };
    if serial != pooled {
        outln!(
            stdout,
            "mesh: FAIL — pool({threads}) report differs from serial"
        );
        return 1;
    }
    let ok = golden(
        "mesh",
        &mesh_golden_path(),
        serial.as_bytes(),
        a.golden,
        stdout,
    );
    i32::from(!ok)
}

/// `--check` / `--bless`: regenerate the golden reports for the pinned
/// seeds — serially and on the pool — and diff them byte-for-byte against
/// `tests/golden/` (or, under `--bless`, rewrite the checked-in files).
fn check_goldens(mode: GoldenMode, stdout: &mut Out) -> i32 {
    let threads = probenet_core::sched::max_threads();
    let mut failed = false;
    for (scenario, seed) in golden_reports() {
        let label = format!("{scenario} seed {seed}");
        let serial = golden_report(scenario, seed);
        if serial != golden_report_threads(scenario, seed, threads) {
            outln!(
                stdout,
                "{label}: FAIL — pool({threads}) rendering differs from serial"
            );
            failed = true;
            continue;
        }
        failed |= !golden(
            &label,
            &golden_path(scenario, seed),
            serial.as_bytes(),
            mode,
            stdout,
        );
    }
    i32::from(failed)
}

fn main() {
    let mut stdout = std::io::stdout().lock();
    let stdout = &mut stdout;
    let args = parse_args(stdout);
    if args.mesh {
        std::process::exit(mesh_cmd(&args, stdout));
    }
    if args.live {
        std::process::exit(live_cmd(&args, stdout));
    }
    if args.stream {
        std::process::exit(stream_cmd(&args, stdout));
    }
    if args.golden != GoldenMode::Print {
        std::process::exit(check_goldens(args.golden, stdout));
    }
    if let Some(name) = &args.impair {
        std::process::exit(impair(&args, name, stdout));
    }
    let run_all = args.artifact == "all";
    let selected: Vec<Generator> = ARTIFACTS
        .iter()
        .filter(|(name, ..)| run_all || args.artifact == *name)
        .map(|&(_, generate, _)| generate)
        .collect();
    if selected.is_empty() {
        eprintln!("unknown artifact: {}", args.artifact);
        std::process::exit(2);
    }

    outln!(
        stdout,
        "probenet repro harness | span {} s per experiment | seed {}",
        args.span_secs,
        args.seed
    );
    // Results come back in `selected` order whatever the scheduling, so the
    // printed report is deterministic.
    let texts = probenet_core::sched::par_map_threads(args.threads(), selected, |generate| {
        let Artifact { mut text, claims } = generate(args.span_secs, args.seed, args.json);
        for c in &claims {
            let _ = writeln!(text, "{c}");
        }
        if args.json {
            let json = serde_json::to_string(&claims).expect("serializable claims");
            let _ = writeln!(text, "{json}");
        }
        text
    });
    for text in texts {
        write_out(stdout, text);
    }
}
