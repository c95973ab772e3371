//! # probenet-queueing
//!
//! Queueing theory for probe-delay analysis:
//!
//! * [`lindley`] — Lindley's recurrence (`w_{n+1} = (w_n + y_n − x_n)⁺`),
//!   the exact waiting-time engine behind the paper's §4 analysis, plus a
//!   finite-buffer variant.
//! * [`bolot`] — the paper's Figure-3 model: a fixed delay plus one FIFO
//!   bottleneck fed by periodic probes and batch-deterministic Internet
//!   traffic, the truth the equation-(6) workload estimator is checked
//!   against.
//! * [`analytic`] — closed-form M/M/1, M/G/1 (Pollaczek–Khinchine) and
//!   M/M/1/K results used as oracles in tests across the workspace.
//!
//! ```
//! use probenet_queueing::{BolotModel, Batch};
//!
//! // 128 kb/s bottleneck, 72-byte probes every 20 ms, D = 140 ms.
//! let model = BolotModel::new(128_000.0, 72.0 * 8.0, 0.020, 0.140);
//! // One 512-byte FTP packet arrives 5 ms into each interval.
//! let batches = vec![Batch { bits: 4096.0, offset: 0.005 }; 10];
//! let waits = model.waiting_times(&batches);
//! // 32 ms of work arrive per 20 ms interval: the queue builds up.
//! assert!(waits.last().unwrap() > waits.first().unwrap());
//! ```

pub mod analytic;
pub mod batch_model;
pub mod bolot;
pub mod lindley;

pub use analytic::{
    md1_mean_wait, mg1_mean_wait, mm1_mean_in_system, mm1_mean_wait, mm1k_blocking,
    mm1k_utilization,
};
pub use batch_model::{BatchModelSolution, BatchModelSolver, BatchSizeDist};
pub use bolot::{Batch, BolotModel};
pub use lindley::{
    finite_queue, lindley_step, plus, waiting_times, waiting_times_from_arrivals, Outcome,
};
