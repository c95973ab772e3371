//! # probenet-netdyn
//!
//! The measurement tool of Bolot's SIGCOMM '93 study, reimplemented: send
//! small UDP probe packets at a fixed interval δ, echo them back, and record
//! the round-trip series `rtt_n` (with `rtt_n` undefined — here `None` —
//! for lost probes).
//!
//! Two interchangeable drivers produce the same [`RttSeries`]:
//!
//! * [`sim_driver`] — runs the experiment inside the `probenet-sim`
//!   discrete-event simulator against calibrated paths and cross traffic
//!   (how the paper's figures are regenerated);
//! * [`udp`] — a real UDP echo server and probing client over `std::net`
//!   sockets, usable on actual networks, with Bernoulli fault injection for
//!   testing.
//!
//! [`config`] holds the experiment parameters (the paper's §2: 32-byte
//! probes, δ ∈ {8, 20, 50, 100, 200, 500} ms, 10-minute runs, DECstation
//! clock resolution of 3.906 ms), and [`series`] the measurement record.
//!
//! ```
//! use probenet_netdyn::{ExperimentConfig, SimExperiment};
//! use probenet_sim::{Path, SimDuration};
//!
//! let cfg = ExperimentConfig::quick(SimDuration::from_millis(50), 100);
//! let (series, _engine) =
//!     SimExperiment::new(cfg, Path::inria_umd_1992(), 42).run();
//! assert_eq!(series.len(), 100);
//! ```

pub mod config;
pub mod csv;
pub mod series;
pub mod sim_driver;
pub mod udp;

pub use config::{
    paper_intervals, ExperimentConfig, DECSTATION_CLOCK, PROBE_PAYLOAD_BYTES, UMD_CLOCK,
    WIRE_OVERHEAD_BYTES,
};
pub use csv::{from_csv, to_csv, CsvError};
pub use series::{
    collect_sessions, measured_rtt, quantize, quantized_rtt, skew, RttRecord, RttSeries,
};
pub use sim_driver::{recycle_engine, recycle_run, CrossTrafficBinding, SimExperiment, SimRun};
pub use udp::{run_probes, EchoServer, EchoServerStats, ProbeRunStats};
