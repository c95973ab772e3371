//! The seven workloads. Each is one *unit pipeline* over the crates' public
//! functions, repeated on inputs generated from the seed; `README.md` says
//! why each exists.

pub mod fleet;
pub mod ingest;
pub mod live;
pub mod mesh;
pub mod sweep;

use crate::sys::{self, Usage};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 7] = [
    "sweep_serial",
    "sweep_impaired",
    "sweep_cmb",
    "ingest_fat",
    "fleet_fold",
    "mesh_campaign",
    "live_loopback",
];

/// How much work one iteration does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// One small iteration: the warm-up in set-up, and `--quick`.
    Quick,
}

/// What one iteration of a unit pipeline did.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Wall time of the pipeline (input to complete result), without the
    /// correctness checks that follow it.
    pub wall: Duration,
    /// Process CPU time (all threads) spent over the same region.
    pub cpu: Usage,
    /// Work items completed: probe records simulated and analysed, records
    /// ingested, or echo replies folded.
    pub items: u64,
    /// Operations attempted: items offered plus correctness checks made.
    pub attempted: u64,
    /// Operations that failed: lost probes, dropped records, failed checks.
    pub failed: u64,
    /// One line per failed correctness check.
    pub failures: Vec<String>,
    /// Wall time of each stage of the pipeline, in order; they add up to
    /// `wall`. A pipeline that marks no stage boundary is one stage.
    pub stages: Vec<Duration>,
    /// Counts that repeat exactly for a fixed seed.
    pub counts: Vec<(&'static str, u64)>,
    /// Layer metrics the iteration measured on the side (name, value).
    pub layer: Vec<(&'static str, f64)>,
}

impl Iteration {
    /// Record one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// A unit pipeline with its generated inputs.
pub trait Workload {
    /// Run the pipeline once on iteration `iteration`'s inputs. Pipelines
    /// whose only input is a seed use `seed + iteration`; generated record
    /// sets are reused by every iteration.
    fn iterate(&mut self, iteration: u64, tr: &mut Tracer) -> Iteration;

    /// Whether the workload is one long open-loop run sized from
    /// `--seconds` instead of a repeated pipeline.
    fn single_shot(&self) -> bool {
        false
    }
}

/// Generate `name`'s inputs from `seed`. `seconds` sizes the single-shot
/// workload. `None` for an unknown name.
pub fn build(name: &str, seed: u64, size: Size, seconds: f64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sweep_serial" => Box::new(sweep::Sweep::serial(seed, size)),
        "sweep_impaired" => Box::new(sweep::Sweep::impaired(seed, size)),
        "sweep_cmb" => Box::new(sweep::Sweep::cmb(seed, size)),
        "ingest_fat" => Box::new(ingest::IngestFat::new(seed, size)),
        "fleet_fold" => Box::new(fleet::FleetFold::new(seed, size)),
        "mesh_campaign" => Box::new(mesh::MeshCampaign::new(seed, size)),
        "live_loopback" => Box::new(live::LiveLoopback::new(
            seed,
            live::Shape::of(size, seconds),
        )),
        _ => return None,
    })
}

/// Wall and CPU time of one timed region.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Wall time.
    pub wall: Duration,
    /// Wall time per stage; adds up to `wall`.
    pub stages: Vec<Duration>,
    /// Process CPU time, all threads.
    pub cpu: Usage,
}

impl Timing {
    /// An [`Iteration`] that took this long and completed `items` of the
    /// `attempted` operations offered.
    pub fn iteration(self, items: u64, attempted: u64) -> Iteration {
        Iteration {
            wall: self.wall,
            stages: self.stages,
            cpu: self.cpu,
            items,
            attempted,
            ..Iteration::default()
        }
    }
}

/// Stage boundaries inside a timed region. A pipeline made of sequential
/// stages marks the end of each; the harness can then take each stage's
/// undisturbed time across iterations, so one disturbed stage does not spoil
/// a whole iteration (see README.md, "Throughput estimator").
pub struct Laps {
    last: Instant,
    walls: Vec<Duration>,
}

impl Laps {
    /// End the current stage here and start the next.
    pub fn mark(&mut self) {
        self.mark_at(Instant::now());
    }

    fn mark_at(&mut self, now: Instant) {
        self.walls.push(now - self.last);
        self.last = now;
    }
}

/// Time `pipeline` as iteration `iteration`: the root span, the wall clock
/// and the CPU clock cover the same region.
pub fn timed<R>(
    tr: &mut Tracer,
    iteration: u64,
    pipeline: impl FnOnce(&mut Tracer, &mut Laps) -> R,
) -> (R, Timing) {
    let root = tr.begin_iteration(iteration);
    let cpu_before = sys::usage();
    let started = Instant::now();
    let mut laps = Laps {
        last: started,
        walls: Vec::new(),
    };
    let out = pipeline(tr, &mut laps);
    let ended = Instant::now();
    let cpu = sys::usage().since(&cpu_before);
    tr.close(root);
    if laps.last != ended {
        laps.mark_at(ended);
    }
    let timing = Timing {
        wall: ended - started,
        stages: laps.walls,
        cpu,
    };
    (out, timing)
}
