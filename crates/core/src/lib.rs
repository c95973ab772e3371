//! # probenet-core
//!
//! The analysis pipeline of the probenet workspace — the primary
//! contribution of Bolot's SIGCOMM '93 paper *"End-to-End Packet Delay and
//! Loss Behavior in the Internet"*, as a library:
//!
//! * [`phase`] — phase plots `(rtt_n, rtt_{n+1})`, probe-compression-line
//!   detection, and bottleneck-bandwidth estimation from the line's
//!   intercept (§4, Figures 2, 4–6).
//! * [`workload`] — the equation-(6) workload estimator
//!   `b_n = μ(w_{n+1} − w_n + δ) − P` and the multimodal interarrival
//!   distribution with automatic peak labeling (§4, Figures 8–9).
//! * [`loss`] — `ulp`, `clp`, the packet loss gap, loss-run statistics and
//!   randomness tests (§5, Table 3).
//! * [`experiment`] — calibrated INRIA–UMd and UMd–Pitt scenarios and the
//!   parallel δ sweep behind Table 3.
//! * [`campaign`], [`impair`], [`sched`] — multi-seed campaigns, named
//!   impairment scenarios, and the bounded pool they run on.
//! * [`report`] — terminal renderings of every table and figure.
//! * [`summary`] — the three readings above for one series in one
//!   structure: what the `analyze` binary prints.
//!
//! ## End-to-end example
//!
//! ```
//! use probenet_core::{PaperScenario, PhasePlot};
//! use probenet_netdyn::ExperimentConfig;
//! use probenet_sim::SimDuration;
//!
//! // Probe the calibrated INRIA -> UMd path at δ = 50 ms for 30 s.
//! let scenario = PaperScenario::inria_umd(42);
//! let config = ExperimentConfig::paper(SimDuration::from_millis(50))
//!     .with_count(600);
//! let out = scenario.run(&config);
//!
//! // The phase plot exposes the fixed delay near (D, D).
//! let plot = PhasePlot::from_series(&out.series);
//! assert!(plot.min_rtt_ms().unwrap() > 100.0);
//! ```

pub mod campaign;
pub mod experiment;
pub mod impair;
pub mod loss;
pub mod phase;
pub mod report;
pub mod sched;
pub mod summary;
pub mod workload;

pub use campaign::{
    campaign_matrix, impaired_campaign, inria_umd_campaign, run_campaign, run_campaign_serial,
    CampaignResult, MetricSpread,
};
pub use experiment::{delta_sweep, delta_sweep_serial, ExperimentOutput, PaperScenario, SweepRow};
pub use impair::{impairment_scenario, impairment_scenarios, ImpairedScenario};
pub use loss::{analyze_loss_flags, analyze_losses, Chi2Summary, LossAnalysis, RunsTestSummary};
pub use phase::{BottleneckEstimate, PhasePlot, PhasePoint};
pub use report::{render_histogram, render_phase_plot, render_table3, render_time_series};
pub use summary::{full_report, render_report, FullReport, MeasurementSummary};
pub use workload::{
    analyze_workload, interarrival_series, workload_estimates, LabeledPeak, PeakLabel,
    WorkloadAnalysis,
};
