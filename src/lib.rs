//! # probenet
//!
//! Facade crate re-exporting the whole `probenet` workspace: a
//! production-quality reproduction of Jean-Chrysostome Bolot's SIGCOMM '93
//! paper *"End-to-End Packet Delay and Loss Behavior in the Internet"*.
//!
//! Sub-crates:
//!
//! * [`sim`] — deterministic discrete-event path simulator (the Internet
//!   substrate the probes traverse).
//! * [`traffic`] — cross-traffic models (the "Internet stream").
//! * [`wire`] — packet wire formats (NetDyn probe packets, IPv4/UDP/ICMP).
//! * [`stats`] — statistics substrate (histograms, ACF, peaks, independence
//!   tests).
//! * [`queueing`] — queueing theory (Lindley recurrence, M/D/1, the paper's
//!   two-stream batch model).
//! * [`netdyn`] — the probe tool itself (simulation driver + real UDP echo).
//! * [`core`] — the analysis pipeline: phase plots, workload estimation,
//!   loss metrics, experiment orchestration.
//! * [`stream`] — streaming collector: bounded SPSC rings feeding
//!   constant-memory estimator banks.
//! * [`live`] — single-threaded epoll reactor driving thousands of
//!   concurrent live probe sessions per core.

pub use probenet_core as core;
pub use probenet_live as live;
pub use probenet_netdyn as netdyn;
pub use probenet_queueing as queueing;
pub use probenet_sim as sim;
pub use probenet_stats as stats;
pub use probenet_stream as stream;
pub use probenet_traffic as traffic;
pub use probenet_wire as wire;
