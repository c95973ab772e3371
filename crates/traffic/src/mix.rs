//! Composite Internet workloads.
//!
//! The paper's central traffic hypothesis (§1, §4) is that the Internet
//! stream sharing the bottleneck with the probes is "a mix of bulk traffic
//! with larger packet size, and interactive traffic with smaller packet
//! size". This module builds exactly that mix: Poisson **Telnet**-like
//! interactive traffic plus batched **FTP**-like bulk traffic, with a
//! calibration helper that hits a target utilization of a given bottleneck.

use probenet_sim::SimDuration;
use rand::Rng;

use crate::process::{BatchPoissonStream, OnOffStream, PoissonStream};
use crate::stream::{merge, Arrival, PacketSize};

/// Wire size of a bulk (FTP) data packet: 512 bytes, the classic wide-area
/// MSS of the early 1990s. At the paper's 128 kb/s bottleneck one such
/// packet takes 32 ms to serve — the step size of the probe-compression
/// staircase.
pub const FTP_PACKET_BYTES: u32 = 512;

/// Interactive (Telnet) packets: a keystroke or small line plus TCP/IP
/// headers — tens of bytes on the wire.
pub fn telnet_sizes() -> PacketSize {
    PacketSize::Mixture(vec![(0.6, 41), (0.3, 64), (0.1, 120)])
}

/// A Poisson stream of interactive Telnet-like packets at `rate_hz`.
pub fn telnet(rate_hz: f64) -> PoissonStream {
    PoissonStream {
        rate_hz,
        sizes: telnet_sizes(),
    }
}

/// Batched FTP-like bulk arrivals: batches of 512-byte packets arriving
/// together, batch sizes geometric with mean `mean_batch`.
///
/// This matches the paper's observation that probes accumulate behind "one
/// or more FTP packets" received between consecutive probe arrivals, and its
/// §6 batch-deterministic model.
pub fn ftp_batches(batch_rate_hz: f64, mean_batch: f64) -> BatchPoissonStream {
    BatchPoissonStream {
        batch_rate_hz,
        mean_batch,
        sizes: PacketSize::Constant(FTP_PACKET_BYTES),
    }
}

/// An on/off bulk transfer emitting 512-byte packets every `spacing` while
/// ON — an alternative FTP model with longer-range burst structure.
pub fn ftp_transfers(
    mean_on: SimDuration,
    mean_off: SimDuration,
    spacing: SimDuration,
) -> OnOffStream {
    OnOffStream {
        mean_on,
        mean_off,
        spacing,
        sizes: PacketSize::Constant(FTP_PACKET_BYTES),
    }
}

/// The paper's hypothesized Internet workload: interactive + bulk.
#[derive(Debug, Clone)]
pub struct InternetMix {
    /// Interactive packet rate (packets/s).
    pub telnet_rate_hz: f64,
    /// Bulk batch-epoch rate (batches/s).
    pub ftp_batch_rate_hz: f64,
    /// Mean packets per bulk batch.
    pub ftp_mean_batch: f64,
}

impl InternetMix {
    /// Calibrate a mix to offer `utilization × mu_bps` bits per second at a
    /// bottleneck of rate `mu_bps`, splitting `telnet_share` of the load to
    /// interactive traffic and the rest to bulk batches with mean size
    /// `mean_batch`.
    ///
    /// # Panics
    /// Panics if `utilization` is not in `(0, 1)`, `telnet_share` not in
    /// `[0, 1]`, or `mean_batch < 1`.
    pub fn calibrated(mu_bps: u64, utilization: f64, telnet_share: f64, mean_batch: f64) -> Self {
        assert!(
            utilization > 0.0 && utilization < 1.0,
            "utilization must be in (0,1)"
        );
        assert!(
            (0.0..=1.0).contains(&telnet_share),
            "telnet share must be in [0,1]"
        );
        assert!(mean_batch >= 1.0, "mean batch must be >= 1");
        let load_bps = utilization * mu_bps as f64;
        let telnet_bits_per_pkt = telnet_sizes().mean() * 8.0;
        let ftp_bits_per_pkt = FTP_PACKET_BYTES as f64 * 8.0;
        InternetMix {
            telnet_rate_hz: load_bps * telnet_share / telnet_bits_per_pkt,
            ftp_batch_rate_hz: load_bps * (1.0 - telnet_share) / (mean_batch * ftp_bits_per_pkt),
            ftp_mean_batch: mean_batch,
        }
    }

    /// Long-run offered load in bits per second.
    pub fn mean_bps(&self) -> f64 {
        self.telnet_rate_hz * telnet_sizes().mean() * 8.0
            + self.ftp_batch_rate_hz * self.ftp_mean_batch * FTP_PACKET_BYTES as f64 * 8.0
    }

    /// Generate the merged arrival stream over `[0, horizon)`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, horizon: SimDuration) -> Vec<Arrival> {
        let mut streams = Vec::new();
        if self.telnet_rate_hz > 0.0 {
            streams.push(telnet(self.telnet_rate_hz).generate(rng, horizon));
        }
        if self.ftp_batch_rate_hz > 0.0 {
            streams.push(
                ftp_batches(self.ftp_batch_rate_hz, self.ftp_mean_batch).generate(rng, horizon),
            );
        }
        merge(streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::offered_bps;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn calibrated_mix_hits_target_load() {
        let mu = 128_000;
        let mix = InternetMix::calibrated(mu, 0.6, 0.2, 3.0);
        let horizon = SimDuration::from_secs(300);
        let arr = mix.generate(&mut rng(1), horizon);
        let measured = offered_bps(&arr, horizon);
        let target = 0.6 * mu as f64;
        assert!(
            (measured - target).abs() / target < 0.08,
            "measured {measured} target {target}"
        );
        assert!((mix.mean_bps() - target).abs() / target < 1e-9);
    }

    #[test]
    fn mix_contains_both_classes() {
        let mix = InternetMix::calibrated(128_000, 0.5, 0.3, 2.0);
        let arr = mix.generate(&mut rng(2), SimDuration::from_secs(60));
        assert!(arr.iter().any(|a| a.size == FTP_PACKET_BYTES));
        assert!(arr.iter().any(|a| a.size < 128));
        assert!(arr.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn pure_bulk_mix_generates_only_ftp() {
        let mix = InternetMix::calibrated(128_000, 0.5, 0.0, 2.0);
        let arr = mix.generate(&mut rng(3), SimDuration::from_secs(30));
        assert!(!arr.is_empty());
        assert!(arr.iter().all(|a| a.size == FTP_PACKET_BYTES));
    }

    #[test]
    fn ftp_transfer_model_is_bursty() {
        let s = ftp_transfers(
            SimDuration::from_millis(400),
            SimDuration::from_secs(2),
            SimDuration::from_millis(40),
        );
        let arr = s.generate(&mut rng(6), SimDuration::from_secs(60));
        assert!(!arr.is_empty());
        // Gaps much longer than the ON spacing must exist (the OFF periods).
        let long_gaps = arr
            .windows(2)
            .filter(|w| w[1].at - w[0].at > SimDuration::from_millis(500))
            .count();
        assert!(long_gaps > 3, "expected silences, got {long_gaps}");
    }

    #[test]
    #[should_panic(expected = "utilization must be in (0,1)")]
    fn overload_calibration_panics() {
        InternetMix::calibrated(128_000, 1.2, 0.2, 3.0);
    }
}
