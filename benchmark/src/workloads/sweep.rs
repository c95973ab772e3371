//! `sweep_serial`, `sweep_impaired`, `sweep_cmb`: the simulator side.
//!
//! One *run* is what `PaperScenario::run` does — generate both directions of
//! cross traffic, simulate the probe stream, analyse the series — spelled
//! out over the public functions so each stage gets its own span. The three
//! workloads are the same engine used three ways: the clean path, the
//! impairment pipeline, and the CMB-partitioned engine.

use super::{timed, Iteration, Size, Workload};
use crate::stats::Fnv;
use crate::sys::OneCpu;
use crate::trace::Tracer;
use probenet_core::{
    analyze_losses, analyze_workload, impairment_scenarios, PaperScenario, PhasePlot,
};
use probenet_netdyn::{recycle_run, ExperimentConfig, RttSeries, SimExperiment};
use probenet_sim::{Direction, SimDuration};
use probenet_traffic::{InternetMix, FTP_PACKET_BYTES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One simulated experiment of a sweep: a scenario (its seed is replaced
/// per iteration) probed under one configuration.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Path, cross-traffic calibration and impairments.
    pub scenario: PaperScenario,
    /// Probe interval, count and measuring clock.
    pub config: ExperimentConfig,
}

impl RunSpec {
    /// The unimpaired INRIA–UMd scenario at `delta_ms` for `span_secs`.
    pub fn inria_umd(delta_ms: u64, span_secs: u64) -> RunSpec {
        let delta = SimDuration::from_millis(delta_ms);
        RunSpec {
            scenario: PaperScenario::inria_umd(0),
            config: ExperimentConfig::paper(delta).with_count(probes(delta_ms, span_secs)),
        }
    }

    /// The four named impairment scenarios at `delta_ms` for `span_secs`.
    pub fn impaired(delta_ms: u64, span_secs: u64) -> Vec<RunSpec> {
        impairment_scenarios()
            .into_iter()
            .map(|sc| RunSpec {
                config: sc.config(
                    SimDuration::from_millis(delta_ms),
                    SimDuration::from_secs(span_secs),
                ),
                scenario: sc.scenario,
            })
            .collect()
    }
}

fn probes(delta_ms: u64, span_secs: u64) -> usize {
    (span_secs * 1000 / delta_ms) as usize
}

/// What one run produced, and how long each stage took.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOutcome {
    /// Probe records in the series.
    pub probes: u64,
    /// Whether the series holds exactly the configured number of records.
    pub complete: bool,
    /// Cross-traffic arrivals generated (both directions).
    pub arrivals: u64,
    /// Simulator events handled.
    pub events: u64,
    /// High-water mark of the event queue.
    pub peak_queue_depth: u64,
    /// FNV-1a over every record of the series.
    pub digest: u64,
    /// `InternetMix::generate`, both directions.
    pub traffic: Duration,
    /// `SimExperiment::run`, engine included.
    pub run: Duration,
    /// `EngineStats.wall`: the part of `run` spent inside the engine.
    pub engine: Duration,
    /// Phase plot plus loss and workload analysis.
    pub analysis: Duration,
}

impl RunOutcome {
    /// Fold another run's counts and times into this one.
    pub fn add(&mut self, o: &RunOutcome) {
        self.probes += o.probes;
        self.complete &= o.complete;
        self.arrivals += o.arrivals;
        self.events += o.events;
        self.peak_queue_depth = self.peak_queue_depth.max(o.peak_queue_depth);
        let mut h = Fnv::default();
        h.word(self.digest);
        h.word(o.digest);
        self.digest = h.finish();
        self.traffic += o.traffic;
        self.run += o.run;
        self.engine += o.engine;
        self.analysis += o.analysis;
    }

    /// An empty sum to [`RunOutcome::add`] onto.
    pub fn zero() -> RunOutcome {
        RunOutcome {
            complete: true,
            ..RunOutcome::default()
        }
    }
}

fn digest(series: &RttSeries) -> u64 {
    let mut h = Fnv::default();
    for r in &series.records {
        h.word(r.seq);
        h.word(r.sent_at);
        h.word(r.echoed_at.map_or(u64::MAX, |t| t));
        h.word(r.rtt.map_or(u64::MAX, |t| t));
    }
    h.finish()
}

/// Run `spec` under `seed` on `partitions` engine partitions.
pub fn run_one(spec: &RunSpec, seed: u64, partitions: usize, tr: &mut Tracer) -> RunOutcome {
    let mut sc = spec.scenario.clone();
    sc.seed = seed;
    let (bidx, mu) = sc.bottleneck();
    // As in `PaperScenario::run`: cross traffic outlives the probes a little.
    let horizon = spec.config.span() + SimDuration::from_secs(5);

    let started = Instant::now();
    let span = tr.open("traffic.generate");
    let mut rng = StdRng::seed_from_u64(sc.seed);
    let mut generate = |utilization: f64| {
        InternetMix::calibrated(mu, utilization, sc.telnet_share, sc.mean_batch)
            .generate(&mut rng, horizon)
    };
    let outbound = generate(sc.outbound_utilization);
    let inbound = generate(sc.inbound_utilization);
    tr.close(span);
    let traffic = started.elapsed();
    let arrivals = (outbound.len() + inbound.len()) as u64;

    let started = Instant::now();
    let span = tr.open("netdyn.run");
    let (series, run) = SimExperiment::new(
        spec.config.clone(),
        sc.path.clone(),
        sc.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    )
    .with_cross_traffic(bidx, Direction::Outbound, outbound)
    .with_cross_traffic(bidx, Direction::Inbound, inbound)
    .with_partitions(partitions)
    .run();
    tr.impute("sim.engine", run.stats.wall);
    tr.close(span);
    let run_wall = started.elapsed();
    let stats = run.stats;
    recycle_run(run);

    let started = Instant::now();
    let delta_ms = series.interval().as_millis_f64();
    tr.time("core.phase_plot", || {
        black_box(PhasePlot::from_series(&series));
    });
    tr.time("core.analyze_losses", || {
        black_box(analyze_losses(&series));
    });
    tr.time("core.analyze_workload", || {
        black_box(analyze_workload(
            &series,
            mu as f64,
            f64::from(FTP_PACKET_BYTES) * 8.0,
            (4.0 * delta_ms).max(100.0),
        ));
    });
    let analysis = started.elapsed();

    RunOutcome {
        probes: series.len() as u64,
        complete: series.records.len() == spec.config.count,
        arrivals,
        events: stats.events_processed,
        peak_queue_depth: stats.peak_queue_depth as u64,
        digest: digest(&series),
        traffic,
        run: run_wall,
        engine: stats.wall,
        analysis,
    }
}

/// A sweep workload: every run of `runs`, one after another.
pub struct Sweep {
    seed: u64,
    runs: Vec<RunSpec>,
    partitions: usize,
    /// `sweep_cmb` holds its threads on one CPU while it exists (see
    /// README.md, "Thread placement").
    _pin: Option<OneCpu>,
}

impl Sweep {
    /// Paper Table-3 sweep, serial engine.
    pub fn serial(seed: u64, size: Size) -> Sweep {
        let (deltas, span): (&[u64], u64) = match size {
            Size::Full => (&[8, 20, 50, 100, 200, 500], 600),
            Size::Quick => (&[20, 100, 500], 120),
        };
        Sweep {
            seed,
            runs: deltas
                .iter()
                .map(|&d| RunSpec::inria_umd(d, span))
                .collect(),
            partitions: 1,
            _pin: None,
        }
    }

    /// The four impairment scenarios at a bursty and a sparse δ, serial.
    pub fn impaired(seed: u64, size: Size) -> Sweep {
        let (deltas, span): (&[u64], u64) = match size {
            Size::Full => (&[8, 50], 600),
            Size::Quick => (&[50], 120),
        };
        Sweep {
            seed,
            runs: deltas
                .iter()
                .flat_map(|&d| RunSpec::impaired(d, span))
                .collect(),
            partitions: 1,
            _pin: None,
        }
    }

    /// One δ = 50 ms run on two CMB partitions, pinned to one CPU.
    pub fn cmb(seed: u64, size: Size) -> Sweep {
        let span = match size {
            Size::Full => 300,
            Size::Quick => 60,
        };
        Sweep {
            seed,
            runs: vec![RunSpec::inria_umd(50, span)],
            partitions: 2,
            _pin: OneCpu::pin(),
        }
    }
}

impl Workload for Sweep {
    fn iterate(&mut self, iteration: u64, tr: &mut Tracer) -> Iteration {
        let seed = self.seed.wrapping_add(iteration);
        let (total, timing) = timed(tr, iteration, |tr, laps| {
            let mut total = RunOutcome::zero();
            for spec in &self.runs {
                total.add(&run_one(spec, seed, self.partitions, tr));
                laps.mark();
            }
            total
        });

        let mut it = timing.iteration(total.probes, total.probes);
        it.check(total.complete, || {
            "a series does not hold one record per probe".to_string()
        });
        if self.partitions > 1 {
            // The partitioned engine must reproduce the serial one bit for
            // bit; the serial twin runs outside the timed region.
            let mut serial = RunOutcome::zero();
            for spec in &self.runs {
                serial.add(&run_one(spec, seed, 1, &mut Tracer::new(false)));
            }
            it.check(serial.digest == total.digest, || {
                format!(
                    "partitioned digest {:016x} != serial {:016x}",
                    total.digest, serial.digest
                )
            });
        }
        it.counts = vec![
            ("probes", total.probes),
            ("events", total.events),
            ("arrivals", total.arrivals),
            ("peak_queue_depth", total.peak_queue_depth),
            ("records_digest", total.digest),
        ];
        it
    }
}
