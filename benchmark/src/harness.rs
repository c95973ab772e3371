//! One run of one workload: set-up, the measured iterations (or the traced
//! ones plus the layer ledger), the correctness verdict, the metrics.

use crate::ledger;
use crate::object;
use crate::stats::{first_decile, Spread};
use crate::sys;
use crate::trace::{Tracer, ROOT};
use crate::workloads::{build, Iteration, Size, Workload, NAMES};
use serde::Value;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics: `(name, unit)`, printed by every untraced run of
/// every workload. Directions and bounds live in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("items_per_s", "1/s"),
    ("cpu_us_per_item", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`, printed by every traced run of every
/// workload. Shares and the three workload counts come from the workload's
/// own trace (0 where the layer is not on its path); every other row comes
/// from the layer ledger.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("sim.engine_share", "share"),
    ("traffic.share", "share"),
    ("netdyn.share", "share"),
    ("core.share", "share"),
    ("stream.collector_share", "share"),
    ("wire.share", "share"),
    ("merged.share", "share"),
    ("mesh.residual_share", "share"),
    ("live.share", "share"),
    ("residual_share", "share"),
    ("trace.overhead_share", "share"),
    ("sim.events_per_probe", "count"),
    ("sim.peak_queue_depth", "count"),
    ("stream.dropped", "count"),
    ("sim.engine_events_per_s", "1/s"),
    ("sim.engine_ns_per_event", "ns"),
    ("sim.impaired_events_per_s", "1/s"),
    ("sim.queue_ops_per_s", "1/s"),
    ("sim.cmb_wall_ratio", "ratio"),
    ("sim.cmb_sys_share", "share"),
    ("sim.cmb_slow_mode_share", "share"),
    ("traffic.arrivals_per_s", "1/s"),
    ("netdyn.driver_self_ns_per_probe", "ns"),
    ("netdyn.echo_echoed", "count"),
    ("netdyn.echo_dropped", "count"),
    ("core.analysis_ns_per_probe", "ns"),
    ("stream.bank_ns_per_record", "ns"),
    ("stream.loss_ns_per_record", "ns"),
    ("stream.lindley_ns_per_record", "ns"),
    ("stream.phase_ns_per_record", "ns"),
    ("stream.sketch_ns_per_record", "ns"),
    ("stream.acf_ns_per_record", "ns"),
    ("stream.moments_ns_per_record", "ns"),
    ("stream.ring_ns_per_record", "ns"),
    ("stream.session_setup_us", "us"),
    ("stream.report_json_ms", "ms"),
    ("wire.encode_mb_per_s", "MB/s"),
    ("wire.decode_mb_per_s", "MB/s"),
    ("wire.encode_us_per_frame", "us"),
    ("wire.frame_bytes_mean", "count"),
    ("merged.fold_mb_per_s", "MB/s"),
    ("merged.fold_sessions_per_s", "1/s"),
    ("merged.into_report_ms", "ms"),
    ("merged.peak_buffer_bytes", "count"),
    ("mesh.pairs_per_s", "1/s"),
    ("mesh.nnls_us", "us"),
    ("mesh.fold_ms", "ms"),
    ("mesh.links_outside_tolerance", "count"),
    ("live.delivered_pps", "1/s"),
    ("live.cpu_us_per_probe", "us"),
    ("live.cpu_sys_share", "share"),
    ("live.syscalls_per_probe", "count"),
    ("live.lateness_p50_us", "us"),
    ("live.lateness_p90_us", "us"),
    ("live.lateness_p99_us", "us"),
    ("live.lateness_max_us", "us"),
    ("live.rtt_p50_us", "us"),
    ("live.rtt_hi_us", "us"),
    ("live.backpressure_deferrals", "count"),
    ("live.stray_datagrams", "count"),
    ("live.used_batching", "count"),
    ("workload.iterations", "count"),
    ("workload.iter_wall_p25_ms", "ms"),
    ("workload.iter_wall_p50_ms", "ms"),
    ("workload.iter_wall_iqr_share", "share"),
    ("workload.cpu_sys_share", "share"),
    ("workload.failed_share", "share"),
];

/// Layers whose trace self time is reported as a share, with the metric
/// each is reported under.
const SHARES: [(&str, &str); 10] = [
    ("sim", "sim.engine_share"),
    ("traffic", "traffic.share"),
    ("netdyn", "netdyn.share"),
    ("core", "core.share"),
    ("stream", "stream.collector_share"),
    ("wire", "wire.share"),
    ("merged", "merged.share"),
    ("mesh", "mesh.residual_share"),
    ("live", "live.share"),
    (ROOT, "residual_share"),
];

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed of the input generators.
    pub seed: u64,
    /// How long to measure, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// One small iteration, no repeated set-up.
    pub quick: bool,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
}

/// The result of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth keeping: dispersion, counts, failures, host.
    pub detail: Value,
}

/// Sums over the iterations of one run.
#[derive(Default)]
struct Totals {
    walls: Vec<f64>,
    /// Per iteration, the wall of each stage, seconds.
    stages: Vec<Vec<f64>>,
    /// Process CPU per item of each iteration, µs.
    cpu_us_per_item: Vec<f64>,
    items: u64,
    attempted: u64,
    failed: u64,
    cpu_s: f64,
    sys_s: f64,
    failures: Vec<String>,
    counts: Vec<(&'static str, u64)>,
}

impl Totals {
    fn add(&mut self, it: Iteration) {
        if self.walls.is_empty() {
            // Iteration 0's inputs depend on the seed alone, so its counts
            // repeat exactly whatever the iteration count.
            self.counts = it.counts;
        }
        self.walls.push(it.wall.as_secs_f64());
        self.stages
            .push(it.stages.iter().map(|d| d.as_secs_f64()).collect());
        self.cpu_us_per_item
            .push(it.cpu.cpu().as_secs_f64() * 1e6 / it.items.max(1) as f64);
        self.items += it.items;
        self.attempted += it.attempted;
        self.failed += it.failed;
        self.cpu_s += it.cpu.cpu().as_secs_f64();
        self.sys_s += it.cpu.sys.as_secs_f64();
        self.failures.extend(it.failures);
    }

    /// The undisturbed wall of one iteration: the first decile of each
    /// stage's walls across the iterations, summed. A stage is much likelier
    /// than a whole iteration to get through untouched.
    fn undisturbed_wall(&self) -> f64 {
        let stages = self.stages.first().map_or(0, Vec::len);
        assert!(
            self.stages.iter().all(|s| s.len() == stages),
            "every iteration runs the same stages"
        );
        (0..stages)
            .map(|k| first_decile(&self.stages.iter().map(|s| s[k]).collect::<Vec<_>>()))
            .sum()
    }

    fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }
}

fn set_up(args: &RunArgs, size: Size, seconds: f64) -> Box<dyn Workload> {
    // Warm-up: one small iteration on its own inputs lets lazy set-up
    // (first engine, first page faults) finish before anything is timed. Its
    // verdict is not the run's: a 0.2 s live run that loses probes to a busy
    // host says nothing about the measured one.
    let mut warm = build(&args.workload, args.seed, Size::Quick, seconds).expect("known workload");
    warm.iterate(0, &mut Tracer::new(false));
    drop(warm);
    build(&args.workload, args.seed, size, seconds).expect("known workload")
}

/// Run `args.workload` once. `Err` for an unknown workload.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    let size = if args.quick { Size::Quick } else { Size::Full };
    if args.trace {
        Ok(run_traced(args, size))
    } else {
        Ok(run_end_to_end(args, size))
    }
}

/// Set-ups timed per end-to-end run: at least, and at most.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 40;

fn run_end_to_end(args: &RunArgs, size: Size) -> RunResult {
    let mut totals = Totals::default();

    // One set-up and the measured iterations come first, so the iterations
    // and `peak_rss_mb` see the process as a user who runs the pipeline once
    // leaves it. (Seven set-ups in front of a `live_loopback` run moved its
    // peak from 370 to 589 MB and its rate from 30.6 k to 27.9 k replies/s,
    // or did not, depending on whether one 64-byte reallocation fell between
    // two of them.)
    let mut setups = Vec::with_capacity(MAX_SETUPS);
    let time_set_up = || {
        let started = Instant::now();
        let workload = set_up(args, size, args.seconds);
        (workload, started.elapsed().as_secs_f64())
    };
    let (mut workload, first) = time_set_up();
    setups.push(first);

    let off = &mut Tracer::new(false);
    let started = Instant::now();
    let mut iteration = 0u64;
    loop {
        totals.add(workload.iterate(iteration, off));
        iteration += 1;
        if args.quick || workload.single_shot() || started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    drop(workload);
    let peak_rss_mb = sys::usage().peak_rss_bytes as f64 / 1e6;

    // Set-up again, over and over for about a second; their first decile is
    // the reported set-up time. Most set-ups take 15–60 ms, and seven samples
    // of one still moved by 16 % between runs where 25 or more moved by 6–8 %.
    let repeating = Instant::now();
    while !args.quick
        && setups.len() < MAX_SETUPS
        && (setups.len() < MIN_SETUPS || repeating.elapsed().as_secs_f64() < 1.0)
    {
        // The workload it built is dropped before the next is timed.
        setups.push(time_set_up().1);
    }

    let walls = Spread::of(&totals.walls);
    let items_per_iteration = totals.items as f64 / walls.n as f64;
    let undisturbed_wall = totals.undisturbed_wall();
    let metrics = vec![
        ("items_per_s", items_per_iteration / undisturbed_wall, "1/s"),
        (
            "cpu_us_per_item",
            first_decile(&totals.cpu_us_per_item),
            "us",
        ),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("setup_s", first_decile(&setups), "s"),
    ];
    let detail = detail(
        args,
        &totals,
        &walls,
        vec![
            ("setup_s_samples", floats(&setups)),
            (
                "stage_walls_s",
                Value::Array(totals.stages.iter().map(|s| floats(s)).collect()),
            ),
            ("iter_cpu_us_per_item", floats(&totals.cpu_us_per_item)),
            ("undisturbed_wall_s", Value::F64(undisturbed_wall)),
        ],
    );
    finish(totals, metrics, detail)
}

fn run_traced(args: &RunArgs, size: Size) -> RunResult {
    let mut plain = Totals::default();
    let mut traced = Totals::default();
    // Half the time goes to the workload's own iterations, untraced and
    // traced in turn on the same inputs; the single-shot workload gets one
    // run of each, a quarter of the time apiece.
    let mut workload = set_up(args, size, args.seconds / 4.0);
    let mut tr = Tracer::new(false);
    let started = Instant::now();
    let mut pair = 0u64;
    loop {
        // Untraced first on even pairs, traced first on odd ones.
        let traced_first = pair % 2 == 1;
        for on in [traced_first, !traced_first] {
            tr.set_enabled(on);
            let it = workload.iterate(pair, &mut tr);
            if on {
                traced.add(it);
            } else {
                plain.add(it);
            }
        }
        pair += 1;
        if args.quick
            || workload.single_shot()
            || started.elapsed().as_secs_f64() >= args.seconds / 2.0
        {
            break;
        }
    }
    drop(workload);

    let shares = tr.layer_shares();
    let share_sum: f64 = shares.values().sum();
    if (share_sum - 1.0).abs() > 0.05 {
        traced.failed += 1;
        traced
            .failures
            .push(format!("layer shares sum to {share_sum}, not 1 ± 0.05"));
    }
    traced.attempted += 1;

    let mut rows: Vec<(&'static str, f64)> = SHARES
        .iter()
        .map(|(layer, metric)| (*metric, shares.get(layer).copied().unwrap_or(0.0)))
        .collect();
    let plain_wall: f64 = plain.walls.iter().sum();
    let traced_wall: f64 = traced.walls.iter().sum();
    rows.push((
        "trace.overhead_share",
        (traced_wall - plain_wall) / plain_wall,
    ));
    let probes = traced.count("probes").max(1) as f64;
    rows.push((
        "sim.events_per_probe",
        traced.count("events") as f64 / probes,
    ));
    rows.push((
        "sim.peak_queue_depth",
        traced.count("peak_queue_depth") as f64,
    ));
    rows.push(("stream.dropped", traced.count("dropped") as f64));

    rows.extend(ledger::run(args.seed, size));

    let walls = Spread::of(&traced.walls);
    let attempted = (plain.attempted + traced.attempted).max(1) as f64;
    rows.extend([
        ("workload.iterations", walls.n as f64),
        ("workload.iter_wall_p25_ms", walls.p25 * 1e3),
        ("workload.iter_wall_p50_ms", walls.p50 * 1e3),
        ("workload.iter_wall_iqr_share", walls.iqr_share()),
        (
            "workload.cpu_sys_share",
            if traced.cpu_s > 0.0 {
                traced.sys_s / traced.cpu_s
            } else {
                0.0
            },
        ),
        (
            "workload.failed_share",
            (plain.failed + traced.failed) as f64 / attempted,
        ),
    ]);

    let trace_path = args.out_dir.join(format!("trace-{}.json", args.workload));
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&trace_path, tr.to_json(&args.workload, args.seed)));
    if let Err(e) = written {
        traced.failed += 1;
        traced
            .failures
            .push(format!("cannot write {}: {e}", trace_path.display()));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = rows.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            (
                name,
                value.unwrap_or_else(|| panic!("no row for {name}")),
                unit,
            )
        })
        .collect();
    let detail = detail(
        args,
        &traced,
        &walls,
        vec![
            ("spans", Value::U64(tr.len() as u64)),
            ("trace_file", Value::Str(trace_path.display().to_string())),
            ("layer_share_sum", Value::F64(share_sum)),
        ],
    );
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.failures.extend(plain.failures);
    finish(traced, metrics, detail)
}

fn floats(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::F64(x)).collect())
}

fn detail(args: &RunArgs, totals: &Totals, walls: &Spread, extra: Vec<(&str, Value)>) -> Value {
    let mut fields = vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::F64(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("quick", Value::Bool(args.quick)),
        ("host_cpus", Value::U64(sys::allowed_cpus() as u64)),
        ("iterations", Value::U64(walls.n as u64)),
        (
            "iter_wall_s",
            object(vec![
                ("min", Value::F64(walls.min)),
                ("p25", Value::F64(walls.p25)),
                ("p50", Value::F64(walls.p50)),
                ("p75", Value::F64(walls.p75)),
                ("max", Value::F64(walls.max)),
                ("iqr_share", Value::F64(walls.iqr_share())),
            ]),
        ),
        (
            "cpu_sys_share",
            Value::F64(if totals.cpu_s > 0.0 {
                totals.sys_s / totals.cpu_s
            } else {
                0.0
            }),
        ),
        (
            "counts",
            Value::Object(
                totals
                    .counts
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::U64(*v)))
                    .collect(),
            ),
        ),
    ];
    fields.extend(extra);
    object(fields)
}

fn finish(
    totals: Totals,
    metrics: Vec<(&'static str, f64, &'static str)>,
    detail: Value,
) -> RunResult {
    let mut failures = totals.failures;
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            failures.push(format!("metric {name} is not a finite number"));
        }
    }
    let Value::Object(mut fields) = detail else {
        unreachable!("detail is built as an object")
    };
    fields.push((
        "failures".to_string(),
        Value::Array(failures.iter().cloned().map(Value::Str).collect()),
    ));
    RunResult {
        correct: failures.is_empty(),
        attempted: totals.attempted.max(1),
        failed: totals.failed,
        metrics,
        detail: Value::Object(fields),
    }
}
