//! The layer ledger: one timed call into each crate's public functions, on
//! fixed-shape inputs generated from the seed.
//!
//! It runs at the end of every traced run, whatever the workload, so each
//! rate and time below is measured — never a placeholder — on all seven.
//! The workload's own trace says what share of *its* iteration each layer
//! takes; the ledger says how fast the layer is on its own. README.md maps
//! every ledger row to the end-to-end metric it should move.

use crate::stats::{lower_quartile, SplitMix, Spread};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::fleet::{collect, decode_wall, encode_shards};
use crate::workloads::ingest::synthetic_records;
use crate::workloads::live::{LiveLoopback, Shape};
use crate::workloads::sweep::{run_one, RunOutcome, RunSpec};
use crate::workloads::{mesh, Size, Workload};
use probenet_merged::MergeService;
use probenet_mesh::{MeshReport, MeshSpec};
use probenet_sim::{EventQueue, SimDuration, SimTime};
use probenet_stats::Moments;
use probenet_stream::{
    spsc, BankConfig, Collector, CollectorConfig, EstimatorBank, LogQuantileSketch, PhaseDensity,
    SessionKey, StreamRecord, StreamingLoss, StreamingWorkload, WindowedAcf,
};
use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

/// Named layer metrics, in ledger order.
pub type Rows = Vec<(&'static str, f64)>;

/// Lower-quartile wall of `reps` calls of `f`, seconds.
fn p25_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    lower_quartile(&walls)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run every section. `size` shrinks the inputs for `--quick`.
pub fn run(seed: u64, size: Size) -> Rows {
    let quick = size == Size::Quick;
    let mut rows = Rows::new();
    simulator(seed, quick, &mut rows);
    event_queue(seed, quick, &mut rows);
    partitioned(seed, quick, &mut rows);
    estimators(seed, quick, &mut rows);
    fleet(seed, quick, &mut rows);
    mesh_layer(seed, quick, &mut rows);
    live(seed, quick, &mut rows);
    rows
}

/// sim / traffic / netdyn / core: the δ = 50 ms INRIA–UMd run, stage by
/// stage, and the four impairment scenarios for the impaired engine rate.
fn simulator(seed: u64, quick: bool, rows: &mut Rows) {
    let (span, reps) = if quick { (30, 2) } else { (300, 5) };
    let off = &mut Tracer::new(false);
    let spec = RunSpec::inria_umd(50, span);
    let runs: Vec<RunOutcome> = (0..reps).map(|_| run_one(&spec, seed, 1, off)).collect();
    let p25 = |f: fn(&RunOutcome) -> Duration| {
        lower_quartile(&runs.iter().map(|r| secs(f(r))).collect::<Vec<_>>())
    };
    let one = &runs[0];
    let engine = p25(|r| r.engine);
    rows.push(("sim.engine_events_per_s", one.events as f64 / engine));
    rows.push(("sim.engine_ns_per_event", engine * 1e9 / one.events as f64));
    rows.push((
        "traffic.arrivals_per_s",
        one.arrivals as f64 / p25(|r| r.traffic),
    ));
    rows.push((
        "netdyn.driver_self_ns_per_probe",
        p25(|r| r.run.saturating_sub(r.engine)) * 1e9 / one.probes as f64,
    ));
    rows.push((
        "core.analysis_ns_per_probe",
        p25(|r| r.analysis) * 1e9 / one.probes as f64,
    ));

    let impaired_span = if quick { 20 } else { 120 };
    let specs = RunSpec::impaired(50, impaired_span);
    let mut events = 0u64;
    let walls: Vec<f64> = (0..reps.min(3))
        .map(|_| {
            let mut total = RunOutcome::zero();
            for spec in &specs {
                total.add(&run_one(spec, seed, 1, off));
            }
            events = total.events;
            secs(total.engine)
        })
        .collect();
    rows.push((
        "sim.impaired_events_per_s",
        events as f64 / lower_quartile(&walls),
    ));
}

/// sim: one million mixed `EventQueue::schedule` / `pop` on a queue held at
/// a thousand pending events (the classic hold model).
fn event_queue(seed: u64, quick: bool, rows: &mut Rows) {
    let pairs: u64 = if quick { 50_000 } else { 500_000 };
    let wall = p25_secs(3, || {
        let mut rng = SplitMix(seed);
        let mut queue: EventQueue<u64> = EventQueue::new();
        for i in 0..1024 {
            queue.schedule(SimTime::from_nanos(rng.next_u64() % 10_000_000), i);
        }
        for _ in 0..pairs {
            let (at, payload) = queue.pop().expect("queue holds 1024 events");
            let ahead = SimDuration::from_nanos(1 + rng.next_u64() % 10_000_000);
            queue.schedule(at + ahead, payload);
        }
        black_box(queue.len());
    });
    rows.push(("sim.queue_ops_per_s", (2 * pairs) as f64 / wall));
}

/// sim: the CMB-partitioned engine against the serial one on equal input,
/// with the scheduler free to place the two partition threads (the
/// `sweep_cmb` workload pins them; this section does not).
fn partitioned(seed: u64, quick: bool, rows: &mut Rows) {
    let reps = if quick { 3 } else { 8 };
    let spec = RunSpec::inria_umd(50, 30);
    let off = &mut Tracer::new(false);
    let serial = p25_secs(3, || {
        black_box(run_one(&spec, seed, 1, off));
    });
    let before = sys::usage();
    let walls: Vec<f64> = (0..reps)
        .map(|_| secs(run_one(&spec, seed, 2, off).run))
        .collect();
    let usage = sys::usage().since(&before);
    let spread = Spread::of(&walls);
    let serial_run = serial.max(f64::MIN_POSITIVE);
    let slow = walls.iter().filter(|&&w| w > 3.0 * spread.p25).count();
    rows.push(("sim.cmb_wall_ratio", spread.p25 / serial_run));
    rows.push(("sim.cmb_sys_share", usage.sys_share()));
    rows.push(("sim.cmb_slow_mode_share", slow as f64 / reps as f64));
}

/// stream: each estimator's public `push`, the whole bank, and the SPSC
/// ring without a bank — all on one thread.
fn estimators(seed: u64, quick: bool, rows: &mut Rows) {
    let n = if quick { 20_000 } else { 250_000 };
    let records = synthetic_records(&mut SplitMix(seed), n);
    let config = BankConfig::bolot(20.0, 72, 0);
    let per_record = |wall: f64| wall * 1e9 / n as f64;

    let bank = p25_secs(3, || {
        let mut bank = EstimatorBank::new(config.clone());
        for r in &records {
            bank.push(r);
        }
        black_box(bank.sent());
    });
    rows.push(("stream.bank_ns_per_record", per_record(bank)));

    let loss = p25_secs(3, || {
        let mut e = StreamingLoss::new();
        for r in &records {
            e.push(r.rtt_ns.is_none());
        }
        black_box(e.sent());
    });
    rows.push(("stream.loss_ns_per_record", per_record(loss)));

    let lindley = p25_secs(3, || {
        let mut e = StreamingWorkload::new(
            config.delta_ms,
            config.wire_bytes,
            config.clock_resolution_ns,
            config.mu_bps,
            config.workload_max_ms,
        );
        for r in &records {
            e.push(r.rtt_ns);
        }
        black_box(e.pairs());
    });
    rows.push(("stream.lindley_ns_per_record", per_record(lindley)));

    let phase = p25_secs(3, || {
        let mut e = PhaseDensity::new(config.phase_lo_ms, config.phase_hi_ms, config.phase_bins);
        for r in &records {
            e.push(r.rtt_ns);
        }
        black_box(e.pairs());
    });
    rows.push(("stream.phase_ns_per_record", per_record(phase)));

    let sketch = p25_secs(3, || {
        let mut e = LogQuantileSketch::new();
        for r in &records {
            if let Some(ns) = r.rtt_ns {
                e.push(ns);
            }
        }
        black_box(e.total());
    });
    rows.push(("stream.sketch_ns_per_record", per_record(sketch)));

    let acf = p25_secs(3, || {
        let mut e = WindowedAcf::new(config.acf_window);
        for r in &records {
            if let Some(ns) = r.rtt_ns {
                e.push(ns as f64 / 1e6);
            }
        }
        black_box(e.len());
    });
    rows.push(("stream.acf_ns_per_record", per_record(acf)));

    let moments = p25_secs(3, || {
        let mut e = Moments::new();
        for r in &records {
            if let Some(ns) = r.rtt_ns {
                e.push(ns as f64 / 1e6);
            }
        }
        black_box(e.count());
    });
    rows.push(("stream.moments_ns_per_record", per_record(moments)));

    let ring = p25_secs(3, || {
        let (tx, rx) = spsc::channel::<StreamRecord>(1024);
        let mut out = Vec::with_capacity(1024);
        for block in records.chunks(1024) {
            for r in block {
                assert!(tx.send(*r).is_ok(), "consumer is alive");
            }
            out.clear();
            rx.drain(&mut out, 1024);
            black_box(out.len());
        }
    });
    rows.push(("stream.ring_ns_per_record", per_record(ring)));
}

/// stream / wire / merged: per-session costs on a 64-session fleet.
fn fleet(seed: u64, quick: bool, rows: &mut Rows) {
    let (sessions, records) = if quick { (16, 200) } else { (64, 500) };
    let mut rng = SplitMix(seed);
    let inputs: Vec<Vec<StreamRecord>> = (0..sessions)
        .map(|_| synthetic_records(&mut rng, records))
        .collect();

    let setup = p25_secs(3, || {
        let mut collector = Collector::new(CollectorConfig::default());
        for s in 0..sessions as u64 {
            black_box(collector.add_session(
                SessionKey::new("ledger", 20, s),
                BankConfig::bolot(20.0, 72, 0),
            ));
        }
    });
    rows.push(("stream.session_setup_us", setup * 1e6 / sessions as f64));

    let report = collect("ledger", &inputs, &mut Tracer::new(false));
    let json = p25_secs(5, || {
        black_box(report.to_json());
    });
    rows.push(("stream.report_json_ms", json * 1e3));

    let shards = encode_shards(&report);
    let bytes: usize = shards.iter().map(Vec::len).sum();
    let mb = bytes as f64 / 1e6;
    let encode = p25_secs(5, || {
        black_box(encode_shards(&report));
    });
    let decode = p25_secs(5, || {
        black_box(decode_wall(&shards));
    });
    rows.push(("wire.encode_mb_per_s", mb / encode));
    rows.push(("wire.decode_mb_per_s", mb / decode));
    rows.push(("wire.encode_us_per_frame", encode * 1e6 / sessions as f64));
    rows.push(("wire.frame_bytes_mean", bytes as f64 / sessions as f64));

    let mut peak = 0usize;
    let mut into_report = Vec::new();
    let fold = p25_secs(5, || {
        let mut service = MergeService::new();
        for shard in &shards {
            service
                .ingest_reader(&mut Cursor::new(shard))
                .expect("own frames ingest");
        }
        peak = service.peak_buffer_bytes();
        let started = Instant::now();
        black_box(service.into_report().expect("disjoint sessions fold"));
        into_report.push(secs(started.elapsed()));
    });
    rows.push(("merged.fold_mb_per_s", mb / fold));
    rows.push(("merged.fold_sessions_per_s", sessions as f64 / fold));
    rows.push(("merged.into_report_ms", lower_quartile(&into_report) * 1e3));
    rows.push(("merged.peak_buffer_bytes", peak as f64));
}

/// mesh: a small campaign end to end, and its fold and solver re-timed.
fn mesh_layer(seed: u64, quick: bool, rows: &mut Rows) {
    let spec = MeshSpec {
        hosts: 6,
        seed,
        delta_ms: 20,
        span_secs: 10,
    };
    let mut outside = 0;
    let wall = p25_secs(if quick { 1 } else { 3 }, || {
        let report = MeshReport::generate(&spec, 1).expect("campaign folds");
        outside = report.links.iter().filter(|l| !l.within_tolerance).count();
    });
    let children = mesh::retime(&spec);
    rows.push(("mesh.pairs_per_s", spec.pairs().len() as f64 / wall));
    rows.push(("mesh.nnls_us", secs(children.nnls) * 1e6));
    rows.push(("mesh.fold_ms", secs(children.merged_fold) * 1e3));
    rows.push(("mesh.links_outside_tolerance", outside as f64));
}

/// live: one second at the headline size (4 000 sessions, 32 k probes/s
/// offered) against the loopback echo host.
fn live(seed: u64, quick: bool, rows: &mut Rows) {
    let shape = if quick {
        Shape::of(Size::Quick, 0.0)
    } else {
        Shape::headline(8)
    };
    let mut run = LiveLoopback::new(seed, shape);
    let it = run.iterate(0, &mut Tracer::new(false));
    rows.extend(it.layer);
}
