//! `repro` — regenerate every table and figure of Bolot, SIGCOMM '93.
//!
//! ```text
//! repro [--artifact all|table1|table2|table3|fig1|fig2|fig4|fig5|fig6|fig8|fig9|model|campaign]
//!       [--span-secs N] [--seed N] [--json] [--serial]
//! ```
//!
//! Each artifact prints the paper's reported values next to the measured
//! ones, plus a terminal rendering of the figure. `--json` additionally
//! emits machine-readable results on stdout.
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
use std::io::Write as _;
use std::num::{NonZeroU64, NonZeroUsize};

use probenet_bench::*;
use probenet_core::{
    analyze_losses, impairment_scenarios, render_histogram, render_phase_plot, render_table3,
    render_time_series, PeakLabel,
};

/// `writeln!` into a `String` buffer (infallible, so the result is dropped).
macro_rules! o {
    ($out:expr $(, $($arg:tt)*)?) => {
        let _ = writeln!($out $(, $($arg)*)?);
    };
}

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

fn parse_args() -> Args {
    let mut args = Args {
        artifact: "all".to_string(),
        span_secs: DEFAULT_SPAN_SECS,
        seed: 1993,
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
                println!(
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

/// The operand after `flag`, parsed as `T`. A missing or malformed operand
/// is a usage error (`<flag> needs <what>`, exit 2), not a panic.
fn flag_value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> T {
    match it.next().map(|v| v.parse()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("{flag} needs {what}");
            std::process::exit(2);
        }
    }
}

fn heading(out: &mut String, s: &str) {
    o!(out, "\n=== {s} ===");
}

fn table1(_a: &Args) -> String {
    let mut out = String::new();
    heading(&mut out, "Table 1: route INRIA -> UMd (July 1992)");
    o!(
        out,
        "paper: 10 hops, transatlantic bottleneck between nodes 4 and 5"
    );
    for (i, n) in table1_route().iter().enumerate() {
        o!(out, "{:>3}  {n}", i + 1);
    }
    out
}

fn table2(_a: &Args) -> String {
    let mut out = String::new();
    heading(&mut out, "Table 2: route UMd -> Pittsburgh (May 1993)");
    o!(out, "paper: 13 hops over the T3 ANSnet backbone");
    for (i, n) in table2_route().iter().enumerate() {
        o!(out, "{:>3}  {n}", i + 1);
    }
    out
}

fn fig1(a: &Args) -> String {
    let mut out = String::new();
    heading(&mut out, "Figure 1: rtt_n vs n, delta = 50 ms");
    let series = figure1_series(a.span_secs, a.seed);
    if a.json {
        o!(
            out,
            "{}",
            serde_json::to_string(&series).expect("serializable series")
        );
    }
    let strip: Vec<f64> = series.rtt_or_zero_ms().into_iter().take(800).collect();
    let _ = write!(out, "{}", render_time_series(&strip, 100, 18));
    o!(
        out,
        "paper: loss probability 9% for this experiment | measured: {:.1}% over {} probes",
        series.loss_probability() * 100.0,
        series.len()
    );
    out
}

fn fig2(a: &Args) -> String {
    let mut out = String::new();
    heading(&mut out, "Figure 2: phase plot, delta = 50 ms (INRIA-UMd)");
    let (plot, loss) = figure2_phase(a.span_secs, a.seed);
    if a.json {
        o!(
            out,
            "{}",
            serde_json::to_string(&plot).expect("serializable plot")
        );
    }
    let _ = write!(out, "{}", render_phase_plot(&plot, 72, 24));
    o!(
        out,
        "paper: D ~ 140 ms | measured min rtt (D + P/mu): {:.1} ms",
        plot.min_rtt_ms().unwrap_or(f64::NAN)
    );
    match plot.bottleneck_estimate(10) {
        Some(est) => {
            o!(
                out,
                "paper: compression-line x-intercept ~48 ms => mu ~ 130 kb/s (with P = 32 B)"
            );
            o!(
                out,
                "measured: intercept {:.1} ms, mu = {:.1} kb/s (P = 72 B wire), {} points on the line",
                est.intercept_ms,
                est.mu_bps / 1e3,
                est.compression_points
            );
            o!(
                out,
                "clock-resolution bounds: [{:.0}, {:.0}] kb/s (3.906 ms DECstation clock); \
                 configured truth: 128.0 kb/s",
                est.mu_lo_bps / 1e3,
                est.mu_hi_bps / 1e3
            );
        }
        None => {
            o!(out, "measured: no compression line detected");
        }
    }
    o!(out, "losses in this run: ulp {:.2}", loss.ulp);
    out
}

fn fig4(a: &Args) -> String {
    let mut out = String::new();
    heading(&mut out, "Figure 4: phase plot, delta = 500 ms (INRIA-UMd)");
    let plot = figure4_phase(a.span_secs.max(240), a.seed);
    if a.json {
        o!(
            out,
            "{}",
            serde_json::to_string(&plot).expect("serializable plot")
        );
    }
    let _ = write!(out, "{}", render_phase_plot(&plot, 72, 24));
    let offset = -(500.0 - 72.0 * 8.0 / 128.0); // P/mu - delta, ms
    let on_line = plot.near_line(offset, 2.0);
    o!(
        out,
        "paper: only 2 points on the compression line; scatter around the diagonal"
    );
    o!(
        out,
        "measured: {} points near the line y = x {:.0} ms, {} of {} near the diagonal (+-10 ms)",
        on_line,
        offset,
        plot.near_diagonal(10.0),
        plot.points.len()
    );
    o!(
        out,
        "compression-line detector: {:?}",
        plot.bottleneck_estimate(10).map(|e| e.mu_bps)
    );
    out
}

fn fig5(a: &Args) -> String {
    let mut out = String::new();
    heading(
        &mut out,
        "Figure 5: phase plot, delta = 8 ms (UMd-Pitt, 3 ms clock)",
    );
    let plot = figure5_phase(a.span_secs, a.seed);
    if a.json {
        o!(
            out,
            "{}",
            serde_json::to_string(&plot).expect("serializable plot")
        );
    }
    let _ = write!(out, "{}", render_phase_plot(&plot, 72, 24));
    o!(
        out,
        "paper: lines y = x and y = x - 8 visible; clock-resolution banding"
    );
    o!(
        out,
        "measured: {} points near diagonal (+-1.5 ms), {} near y = x - 8 (+-1.5 ms), {} total",
        plot.near_diagonal(1.5),
        plot.near_line(-8.0, 1.5),
        plot.points.len()
    );
    out
}

fn fig6(a: &Args) -> String {
    let mut out = String::new();
    heading(
        &mut out,
        "Figure 6: phase plot, delta = 50 ms (UMd-Pitt, 3 ms clock)",
    );
    let plot = figure6_phase(a.span_secs, a.seed);
    if a.json {
        o!(
            out,
            "{}",
            serde_json::to_string(&plot).expect("serializable plot")
        );
    }
    let _ = write!(out, "{}", render_phase_plot(&plot, 72, 24));
    o!(
        out,
        "paper: scatter around the diagonal (no compression at 50 ms)"
    );
    o!(
        out,
        "measured: {} of {} points near the diagonal (+-6 ms); detector: {:?}",
        plot.near_diagonal(6.0),
        plot.points.len(),
        plot.bottleneck_estimate(10).map(|e| e.mu_bps / 1e3)
    );
    out
}

fn fig8(a: &Args) -> String {
    let mut out = String::new();
    heading(
        &mut out,
        "Figure 8: distribution of w_{n+1} - w_n + delta, delta = 20 ms",
    );
    let analysis = figure8_workload(a.span_secs, a.seed);
    if a.json {
        o!(
            out,
            "{}",
            serde_json::to_string(&analysis).expect("serializable analysis")
        );
    }
    let _ = write!(out, "{}", render_histogram(&analysis.histogram, 60));
    o!(
        out,
        "paper: peaks at P/mu (4.5 ms), delta (20 ms), then delta-independent\n\
         bulk positions; third peak => b_n = 488 bytes ~ one FTP packet"
    );
    for p in &analysis.peaks {
        o!(
            out,
            "measured peak at {:>6.1} ms  (height {:.3})  label {:?}  implied workload {:.0} B",
            p.position_ms,
            p.height,
            p.label,
            p.implied_workload_bytes
        );
    }
    if let Some(b) = analysis.inferred_bulk_bytes() {
        o!(
            out,
            "inferred bulk packet size: {b:.0} bytes (configured FTP size: 512)"
        );
    }
    out
}

fn fig9(a: &Args) -> String {
    let mut out = String::new();
    heading(&mut out, "Figure 9: same distribution at delta = 100 ms");
    let a8 = figure8_workload(a.span_secs, a.seed);
    let a9 = figure9_workload(a.span_secs, a.seed);
    let _ = write!(out, "{}", render_histogram(&a9.histogram, 60));
    // Long runs detect many micro-modes; print the structurally labeled
    // ones plus anything substantial.
    let max_h = a9.peaks.iter().map(|p| p.height).fold(0.0f64, f64::max);
    let mut shown = std::collections::HashSet::new();
    for p in &a9.peaks {
        let structural = p.label != PeakLabel::Other && shown.insert(format!("{:?}", p.label));
        if structural || p.height >= 0.1 * max_h {
            o!(
                out,
                "measured peak at {:>6.1} ms  (height {:.3})  label {:?}",
                p.position_ms,
                p.height,
                p.label
            );
        }
    }
    let h8 = a8.compressed_peak().map(|p| p.height).unwrap_or(0.0);
    let h9 = a9.compressed_peak().map(|p| p.height).unwrap_or(0.0);
    o!(
        out,
        "paper: the P/mu peak shrinks relative to Fig 8 (compression rarer as delta grows)"
    );
    o!(
        out,
        "measured: compressed-peak height {h8:.4} at delta=20 ms vs {h9:.4} at delta=100 ms"
    );
    let labels: Vec<PeakLabel> = a9.peaks.iter().map(|p| p.label).collect();
    o!(out, "labels at delta=100 ms: {labels:?}");
    out
}

fn table3(a: &Args) -> String {
    let mut out = String::new();
    heading(&mut out, "Table 3: ulp / clp / plg vs delta");
    let rows = table3_rows(a.span_secs, a.seed);
    o!(
        out,
        "paper (note: its '0.97' at delta=500 is an evident typo for ~0.07-0.10):"
    );
    o!(
        out,
        "| delta(ms) |      8 |     20 |     50 |    100 |    200 |    500 |"
    );
    o!(
        out,
        "| ulp       |   0.23 |   0.16 |   0.12 |   0.10 |   0.11 |  ~0.10 |"
    );
    o!(
        out,
        "| clp       |   0.60 |   0.42 |   0.27 |   0.18 |   0.18 |   0.09 |"
    );
    o!(
        out,
        "| plg       |    2.5 |    1.7 |    1.3 |    1.2 |    1.2 |    1.1 |"
    );
    o!(out, "measured:");
    let _ = write!(out, "{}", render_table3(&rows));
    if a.json {
        o!(
            out,
            "{}",
            serde_json::to_string_pretty(&rows).expect("serializable rows")
        );
    }
    // Shape notes.
    let first = &rows[0];
    let last = &rows[rows.len() - 1];
    o!(
        out,
        "shape: ulp falls from {:.2} (probe util {:.0}%) to {:.2} (probe util {:.1}%); \
         clp >= ulp at small delta; plg -> ~1",
        first.ulp,
        first.probe_utilization * 100.0,
        last.ulp,
        last.probe_utilization * 100.0
    );
    // Randomness check at large delta (the paper's headline loss finding).
    let series = run_inria_umd(500, a.span_secs.max(240), a.seed);
    let loss = analyze_losses(&series);
    o!(
        out,
        "losses at delta=500 ms look random? {} (lag-1 chi^2 p = {:?})",
        loss.losses_look_random(0.01),
        loss.lag1_test.map(|t| t.p_value)
    );
    out
}

/// §6 cross-validation: the analytic batch-deterministic model vs. the
/// full multi-hop simulation, compared on the interarrival masses of
/// Figure 8 (the paper: the analytic results "show good correlation with
/// our experimental data" and "bring out the probe compression
/// phenomenon").
fn model(a: &Args) -> String {
    use probenet_queueing::{BatchModelSolver, BatchSizeDist, BolotModel};
    let mut out = String::new();
    heading(
        &mut out,
        "Section 6 model: analytic batch-deterministic queue vs simulation",
    );
    let sim = figure8_workload(a.span_secs, a.seed);
    // Fit a batch distribution to the simulated per-interval workloads:
    // probability of k FTP packets per 20 ms interval.
    let ftp_bits = 4096.0;
    let mut counts = [0usize; 6];
    for &b in &sim.workload_bytes {
        let k = ((b * 8.0 / ftp_bits).round() as usize).min(5);
        counts[k] += 1;
    }
    let total: usize = counts.iter().sum();
    let probs: Vec<f64> = counts.iter().map(|&c| c as f64 / total as f64).collect();
    o!(
        out,
        "batch-size pmf measured from the simulation (k FTP packets/interval): {:?}",
        probs.iter().map(|p| format!("{p:.3}")).collect::<Vec<_>>()
    );
    let solver = BatchModelSolver::new(
        BolotModel::new(128_000.0, 576.0, 0.020, 0.140),
        0.010,
        BatchSizeDist::ftp_batches(ftp_bits, &probs),
    );
    let sol = solver.solve(5000);
    o!(
        out,
        "analytic solver: {} iterations to stationarity",
        sol.iterations
    );
    o!(
        out,
        "{:>26} | {:>10} | {:>10}",
        "interarrival mass near",
        "analytic",
        "simulated"
    );
    let sim_hist = &sim.histogram;
    let sim_total: u64 = sim_hist.total();
    let sim_mass = |x_ms: f64, tol_ms: f64| {
        let mut acc = 0u64;
        for (i, &c) in sim_hist.counts().iter().enumerate() {
            if (sim_hist.center(i) - x_ms).abs() <= tol_ms {
                acc += c;
            }
        }
        acc as f64 / sim_total as f64
    };
    for (label, x_ms) in [
        ("P/mu (4.5 ms, compression)", 4.5),
        ("delta (20 ms, undisturbed)", 20.0),
        ("1 FTP pkt (36.5 ms)", 36.5),
        ("2 FTP pkts (68.5 ms)", 68.5),
    ] {
        o!(
            out,
            "{label:>26} | {:>10.4} | {:>10.4}",
            sol.g_mass_near(x_ms / 1e3, 0.002),
            sim_mass(x_ms, 2.0)
        );
    }
    o!(
        out,
        "reading: the single-queue model concentrates mass on the exact\n\
         peak positions; the multi-hop simulation spreads each peak with\n\
         telnet-sized perturbations and return-path queueing, as the real\n\
         measurements did."
    );
    out
}

/// Multi-seed campaign: Table 3's headline metrics with the error bars the
/// paper's single runs could not provide.
fn campaign(a: &Args) -> String {
    use probenet_core::{campaign_matrix, PaperScenario};
    use probenet_sim::SimDuration;
    let mut out = String::new();
    heading(
        &mut out,
        "campaign: Table 3 metrics with across-seed spread (8 seeds)",
    );
    let seeds: Vec<u64> = (0..8).map(|i| a.seed.wrapping_add(i * 7919)).collect();
    o!(
        out,
        "{:>10} | {:>17} | {:>17} | {:>17}",
        "delta(ms)",
        "ulp (mean±std)",
        "clp (mean±std)",
        "min rtt (ms)"
    );
    // One flat δ × seed task list on the pool. As six sequential
    // `inria_umd_campaign` calls inside this one artifact, `campaign` was
    // the longest artifact of the harness by far (~640 of ~1470 serial ms)
    // and artifact-level scheduling could never split it, capping the
    // pooled/serial ratio near 1 on any machine.
    let deltas: Vec<SimDuration> = [8u64, 20, 50, 100, 200, 500]
        .iter()
        .map(|&d| SimDuration::from_millis(d))
        .collect();
    let rows = campaign_matrix(
        PaperScenario::inria_umd,
        &deltas,
        SimDuration::from_secs(a.span_secs.min(120)),
        &seeds,
    );
    for r in rows {
        let clp = r
            .clp
            .map(|c| format!("{:.3} ± {:.3}", c.mean, c.std))
            .unwrap_or_else(|| "-".into());
        o!(
            out,
            "{:>10} | {:>9.3} ± {:.3} | {:>17} | {:>8.1} ± {:.2}",
            r.delta_ms as u64,
            r.ulp.mean,
            r.ulp.std,
            clp,
            r.min_rtt_ms.mean,
            r.min_rtt_ms.std
        );
    }
    o!(
        out,
        "reading: the fixed component D is seed-stable to a fraction of a\n\
         millisecond; loss metrics carry sampling noise that single\n\
         10-minute runs (the paper's) cannot expose."
    );
    out
}

/// A named artifact renderer: figure/table name plus the function
/// producing its text report.
type Artifact = (&'static str, fn(&Args) -> String);

/// Every artifact, in the paper's presentation order.
const ARTIFACTS: &[Artifact] = &[
    ("table1", table1),
    ("table2", table2),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig8", fig8),
    ("fig9", fig9),
    ("table3", table3),
    ("model", model),
    ("campaign", campaign),
];

/// `repro live` — drive concurrent loopback probe sessions from the
/// single-threaded reactor against an in-process echo server and report
/// the sustained rate, timer-wheel lateness and the stream-collector
/// drop-accounting identity. Exits 1 if `produced != records + dropped`,
/// 2 when the platform lacks the reactor (no epoll).
fn live_cmd(a: &Args) -> i32 {
    let count = usize::try_from((a.live_duration_secs * 1000) / a.live_delta_ms)
        .expect("probe count fits usize")
        .max(1);
    let (run, report) = match live_engine_run(a.live_sessions, a.live_delta_ms, count) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("live: reactor unavailable: {e}");
            return 2;
        }
    };
    let balanced = run.accounting_balanced();
    if a.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&run).expect("serializable live report")
        );
    } else {
        println!(
            "=== live reactor: {} sessions, δ = {} ms, {} probes/session ===",
            run.sessions, run.delta_ms, run.probes_per_session
        );
        println!(
            "lanes {} | wall {:.0} ms | {:.0} probes/s aggregate | {} sessions/core",
            run.lanes, run.wall_ms, run.aggregate_pps, run.sessions_per_core
        );
        println!(
            "timer lateness µs: p50 {} | p90 {} | p99 {} | max {} ({} fires)",
            run.lateness_p50_us,
            run.lateness_p90_us,
            run.lateness_p99_us,
            run.lateness_max_us,
            run.timers_fired
        );
        println!(
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
        println!(
            "stream accounting: produced {} = records {} + dropped {} [{}]",
            run.produced,
            run.records,
            run.dropped,
            if balanced { "ok" } else { "FAIL" }
        );
    }
    if a.stream {
        println!("{}", report.to_json());
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
fn impair(a: &Args, name: &str) -> i32 {
    if name == "list" {
        println!("named impairment scenarios:");
        for sc in impairment_scenarios() {
            println!("  {:<22} {}", sc.name, sc.summary);
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
        println!(
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
    println!("=== impairment scenario: {name} ===");
    println!("{summary}");
    println!("seed {}", report.seed);
    for s in &report.slices {
        println!(
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
        println!(
            "  losses look random? {} | loss runs {:?} | reordering {} | impair drops {} | records fnv1a {}",
            s.losses_look_random, s.run_lengths, s.reordering, s.probe_impair_drops, s.records_fnv1a
        );
    }
    0
}

/// Apply `mode` to one rendered golden artifact: print `bytes`, diff them
/// against the file at `path` (`--check`), or rewrite it (`--bless`).
/// `false` on a mismatch or an unreadable golden.
fn golden(label: &str, path: &str, bytes: &[u8], mode: GoldenMode) -> bool {
    match mode {
        GoldenMode::Print => {
            std::io::stdout().write_all(bytes).expect("write stdout");
            true
        }
        GoldenMode::Bless => {
            std::fs::write(path, bytes).expect("write golden");
            println!("{label}: blessed {path} ({} bytes)", bytes.len());
            true
        }
        GoldenMode::Check => match std::fs::read(path) {
            Ok(on_disk) if on_disk == bytes => {
                println!("{label}: OK ({path})");
                true
            }
            Ok(_) => {
                println!(
                    "{label}: MISMATCH against {path} — behavior drifted; \
                     rerun with --bless if the change is intended"
                );
                false
            }
            Err(e) => {
                println!("{label}: cannot read {path}: {e}");
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
fn stream_cmd(a: &Args) -> i32 {
    let threads = a.threads();
    let report = stream_collector_report(1);
    let mut serial = report.to_json();
    serial.push('\n');
    let pooled = stream_report_threads(threads);
    if serial != pooled {
        println!("stream: FAIL — pool({threads}) report differs from serial");
        return 1;
    }
    let shards = frame_shards(&report, GOLDEN_FRAME_SHARDS);
    if let Some(prefix) = &a.emit_frames {
        for (i, shard) in shards.iter().enumerate() {
            let path = format!("{prefix}-c{i}.bin");
            std::fs::write(&path, shard).expect("write frame shard");
            println!("stream: wrote {path} ({} bytes)", shard.len());
        }
    }
    let mut ok = golden("stream", &stream_golden_path(), serial.as_bytes(), a.golden);
    if a.golden == GoldenMode::Print {
        return 0;
    }
    let shard_paths: Vec<String> = (0..GOLDEN_FRAME_SHARDS).map(stream_frames_path).collect();
    for (shard, shard_path) in shards.iter().zip(&shard_paths) {
        ok &= golden("stream", shard_path, shard, a.golden);
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
                println!("stream: FAIL — merging golden frame shards: {e}");
                return 1;
            }
        };
        let mut merged_json = merged.to_json();
        merged_json.push('\n');
        if merged_json != serial {
            println!(
                "stream: FAIL — report merged from golden frame shards differs \
                 from the single-process report"
            );
            return 1;
        }
        println!(
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
fn mesh_cmd(a: &Args) -> i32 {
    use probenet_mesh::{MeshReport, MeshSpec};

    let threads = a.threads();
    let spec = MeshSpec::golden();
    let serial = match MeshReport::generate(&spec, 1) {
        Ok(r) => r.to_json(),
        Err(e) => {
            println!("mesh: FAIL — serial campaign: {e}");
            return 1;
        }
    };
    let pooled = match MeshReport::generate(&spec, threads) {
        Ok(r) => r.to_json(),
        Err(e) => {
            println!("mesh: FAIL — pooled campaign: {e}");
            return 1;
        }
    };
    if serial != pooled {
        println!("mesh: FAIL — pool({threads}) report differs from serial");
        return 1;
    }
    let ok = golden("mesh", &mesh_golden_path(), serial.as_bytes(), a.golden);
    i32::from(!ok)
}

/// `--check` / `--bless`: regenerate the golden reports for the pinned
/// seeds — serially and on the pool — and diff them byte-for-byte against
/// `tests/golden/` (or, under `--bless`, rewrite the checked-in files).
fn check_goldens(mode: GoldenMode) -> i32 {
    let threads = probenet_core::sched::max_threads();
    let mut failed = false;
    for seed in GOLDEN_SEEDS {
        let serial = golden_report(seed);
        if serial != golden_report_threads(seed, threads) {
            println!("seed {seed}: FAIL — pool({threads}) rendering differs from serial");
            failed = true;
            continue;
        }
        failed |= !golden(
            &format!("seed {seed}"),
            &golden_path(seed),
            serial.as_bytes(),
            mode,
        );
    }
    i32::from(failed)
}

fn main() {
    let args = parse_args();
    if args.mesh {
        std::process::exit(mesh_cmd(&args));
    }
    if args.live {
        std::process::exit(live_cmd(&args));
    }
    if args.stream {
        std::process::exit(stream_cmd(&args));
    }
    if args.golden != GoldenMode::Print {
        std::process::exit(check_goldens(args.golden));
    }
    if let Some(name) = &args.impair {
        std::process::exit(impair(&args, name));
    }
    let run_all = args.artifact == "all";
    let selected: Vec<Artifact> = ARTIFACTS
        .iter()
        .filter(|(name, _)| run_all || args.artifact == *name)
        .copied()
        .collect();
    if selected.is_empty() {
        eprintln!("unknown artifact: {}", args.artifact);
        std::process::exit(2);
    }

    println!(
        "probenet repro harness | span {} s per experiment | seed {}",
        args.span_secs, args.seed
    );
    // Results come back in `selected` order whatever the scheduling, so the
    // printed report is deterministic.
    let texts = probenet_core::sched::par_map_threads(args.threads(), selected, |(_, f)| f(&args));
    for text in texts {
        print!("{text}");
    }
}
