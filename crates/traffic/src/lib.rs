//! # probenet-traffic
//!
//! Cross-traffic models for probing experiments: the "Internet stream" of
//! Bolot's SIGCOMM '93 measurement model. A stream is a finite, time-sorted
//! vector of [`Arrival`]s generated from a seeded RNG, so every experiment
//! is reproducible.
//!
//! * [`process`] — arrival processes: Poisson, periodic, compound/batch
//!   Poisson, Markov on/off.
//! * [`stream`] — the [`Arrival`] type, packet-size distributions, and
//!   stream combinators (merge, thinning, delay).
//! * [`mix`] — the paper's hypothesized Internet workload: small interactive
//!   (Telnet) packets plus batched bulk (FTP) packets, with calibration to a
//!   target bottleneck utilization.
//!
//! ```
//! use probenet_traffic::{InternetMix, offered_bps};
//! use probenet_sim::SimDuration;
//! use rand::{SeedableRng, rngs::StdRng};
//!
//! // 60% utilization of the paper's 128 kb/s transatlantic bottleneck,
//! // 20% interactive / 80% bulk.
//! let mix = InternetMix::calibrated(128_000, 0.6, 0.2, 3.0);
//! let arrivals = mix.generate(&mut StdRng::seed_from_u64(7),
//!                             SimDuration::from_secs(600));
//! let load = offered_bps(&arrivals, SimDuration::from_secs(600));
//! assert!((load / 128_000.0 - 0.6).abs() < 0.1);
//! ```

pub mod mix;
pub mod process;
pub mod stream;

pub use mix::{ftp_batches, ftp_transfers, telnet, telnet_sizes, InternetMix, FTP_PACKET_BYTES};
pub use process::{
    exponential, geometric, pareto, BatchPoissonStream, OnOffStream, ParetoOnOffStream,
    PeriodicStream, PoissonStream,
};
pub use stream::{delay, merge, offered_bps, thin, to_pairs, total_bytes, Arrival, PacketSize};
