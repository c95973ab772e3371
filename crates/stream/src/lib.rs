//! # probenet-stream
//!
//! Bounded-memory **online** analysis of probe delay/loss streams, and a
//! multi-session collector that feeds it.
//!
//! The batch pipeline in `probenet-core` answers Bolot's questions — loss
//! burstiness (`ulp`/`clp`/`plg`), delay distributions, interarrival
//! workload peaks, phase-plot structure — from a fully materialized
//! [`RttSeries`](../probenet_netdyn/struct.RttSeries.html). This crate
//! answers the same questions from a *stream*: each estimator consumes one
//! [`StreamRecord`] at a time in O(1) memory and exposes the same triple of
//! operations:
//!
//! * `push(record)` — fold the next observation in sequence order;
//! * `snapshot()` — the current summary, cheap enough to call mid-stream;
//! * `merge(other)` — combine the summary of an adjacent segment.
//!
//! ## Exactness policy
//!
//! Every estimator documents which of two guarantees it gives relative to
//! the batch pipeline (the differential suite in `tests/streaming.rs`
//! enforces both):
//!
//! * **Byte-exact** — integer state only; serial folds *and* arbitrary
//!   merge groupings reproduce the batch result bit-for-bit. This covers
//!   [`StreamingLoss`] (all loss metrics incl. the runs/χ² tests — the
//!   batch analyzer `probenet_core::analyze_loss_flags` *is* its serial
//!   fold), all histogram and grid counts, and the quantile sketch's
//!   buckets.
//! * **ε-bounded** — float accumulators. A serial `push` fold performs the
//!   batch's additions in the batch's order (bit-identical); `merge`
//!   reassociates sums, so merged results carry reassociation error
//!   (≤ 1e-9 relative in this suite's regimes). Sketch quantiles are within
//!   relative `2⁻⁷` of the exact nearest-rank value by construction, and
//!   the windowed ACF equals the batch ACF exactly while nothing has been
//!   evicted from its ring.
//!
//! ## The collector
//!
//! [`Collector`] multiplexes N concurrent sessions keyed by
//! `(path, δ, seed)`: producers push into bounded SPSC channels — blocking
//! [`SessionProducer::push`] or drop-counting [`SessionProducer::offer`],
//! never silent loss — and one folding thread maintains a per-session
//! [`EstimatorBank`], emitting deterministic JSON reports whose content is
//! independent of thread interleaving.

pub mod acf;
pub mod bank;
pub mod collector;
mod fnv;
pub mod lindley;
pub mod loss;
pub mod phase;
pub mod quantile;
pub mod record;
mod span;
pub mod spsc;

pub use acf::WindowedAcf;
pub use bank::{BankConfig, BankSnapshot, BankWireState, EstimatorBank, RttSummary};
pub use collector::{
    Collector, CollectorConfig, CollectorReport, InterimSnapshot, RunningCollector,
    SessionProducer, SessionReport,
};
pub use fnv::{fnv1a_hex, fnv1a_u64s};
pub use lindley::{
    interarrival_ms, workload_bytes, workload_layout, StreamingWorkload, WorkloadSnapshot,
    WorkloadWireState,
};
pub use loss::{Chi2Snapshot, LossSnapshot, LossWireState, RunsTestSnapshot, StreamingLoss};
pub use phase::{PhaseDensity, PhaseSnapshot, PhaseWireState};
pub use quantile::LogQuantileSketch;
pub use record::{SessionKey, StreamRecord};
