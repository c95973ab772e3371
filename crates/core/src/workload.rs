//! Workload estimation from probe interarrival times (the paper's §4,
//! Figures 8–9).
//!
//! The quantity `g_n = w_{n+1} − w_n + δ = rtt_{n+1} − rtt_n + δ` is both
//! the interarrival time of returning probes and — by equation (6) —
//! `(b_n + P)/μ`, the service time of everything the bottleneck received
//! during the interval. Its distribution is multimodal:
//!
//! * a peak at `P/μ` — compressed probes draining back-to-back;
//! * a peak at `δ` — undisturbed probes (`w_{n+1} = w_n`);
//! * peaks at `(k·B + P)/μ` — probes that queued behind `k` bulk (FTP)
//!   packets of `B` bits each; the paper reads `B ≈ 488 bytes ≈ one FTP
//!   packet` off the third peak.

use probenet_netdyn::RttSeries;
use probenet_stats::{find_relative_peaks, Histogram};
use probenet_stream::{workload_bytes, workload_layout, StreamingWorkload};
use serde::{Deserialize, Serialize};

/// What a peak of the interarrival distribution means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeakLabel {
    /// `g ≈ P/μ`: probes compressed behind a large workload (eq. 3).
    Compressed,
    /// `g ≈ δ`: probes that saw an unchanged queue (eq. 1).
    Undisturbed,
    /// `g ≈ (k·B + P)/μ`: first probe behind `k` bulk packets.
    BulkPackets(u32),
    /// No expected position matched.
    Other,
}

/// One labeled peak.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LabeledPeak {
    /// Peak position in ms.
    pub position_ms: f64,
    /// Peak height as a fraction of samples per bin.
    pub height: f64,
    /// Interpretation.
    pub label: PeakLabel,
    /// The workload `b = μ·g − P` this position implies, in bytes
    /// (clamped at zero).
    pub implied_workload_bytes: f64,
}

/// The full workload analysis of one experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadAnalysis {
    /// Probe interval δ in ms.
    pub delta_ms: f64,
    /// Assumed bottleneck rate μ in bits/s.
    pub mu_bps: f64,
    /// The interarrival histogram (ms).
    pub histogram: Histogram,
    /// Detected, labeled peaks in position order.
    pub peaks: Vec<LabeledPeak>,
    /// Per-interval workload estimates `b̂_n` (bytes) via eq. (6), one per
    /// consecutive delivered pair, clamped at zero.
    pub workload_bytes: Vec<f64>,
}

/// The return interarrival series `g_n = rtt_{n+1} − rtt_n + δ` in ms, for
/// consecutive delivered probe pairs.
pub fn interarrival_series(series: &RttSeries) -> Vec<f64> {
    let delta = series.interval().as_millis_f64();
    series
        .records
        .windows(2)
        .filter_map(|w| match (w[0].rtt, w[1].rtt) {
            (Some(a), Some(b)) => Some((b as f64 - a as f64) / 1e6 + delta),
            _ => None,
        })
        .collect()
}

/// Equation (6) per interval ([`workload_bytes`]): `b̂_n = μ·g_n − P`, in
/// **bytes**, clamped at zero (negative estimates mean the buffer emptied).
pub fn workload_estimates(series: &RttSeries, mu_bps: f64) -> Vec<f64> {
    let p_bits = series.wire_bytes as f64 * 8.0;
    interarrival_series(series)
        .into_iter()
        .map(|g_ms| workload_bytes(mu_bps, g_ms, p_bits))
        .collect()
}

/// Run the full Figure-8/9 analysis.
///
/// * `mu_bps` — bottleneck rate (measured via the phase plot or known);
/// * `bulk_bits` — hypothesized bulk packet size `B` for labeling
///   (512 bytes in the calibrated scenarios);
/// * `max_ms` — histogram upper edge (e.g. `4·δ`).
///
/// # Panics
/// Panics if parameters are non-positive.
pub fn analyze_workload(
    series: &RttSeries,
    mu_bps: f64,
    bulk_bits: f64,
    max_ms: f64,
) -> WorkloadAnalysis {
    assert!(
        mu_bps > 0.0 && bulk_bits > 0.0 && max_ms > 0.0,
        "positive parameters"
    );
    let delta_ms = series.interval().as_millis_f64();
    let p_bits = series.wire_bytes as f64 * 8.0;
    let service_ms = p_bits / mu_bps * 1e3;

    // The histogram is the streaming estimator's, folded over the series.
    let mut fold = StreamingWorkload::new(
        delta_ms,
        series.wire_bytes,
        series.clock_resolution_ns,
        mu_bps,
        max_ms,
    );
    for r in &series.records {
        fold.push(r.rtt);
    }
    let histogram = fold.histogram().clone();
    let (bin, _) = workload_layout(max_ms, series.clock_resolution_ns);
    let freqs = histogram.frequencies();
    let raw_peaks = find_relative_peaks(&freqs, 0.02, 2, 1);

    // Expected positions: P/μ, δ, and (k·B + P)/μ for k = 1..=8.
    let mut expected: Vec<(f64, PeakLabel)> = vec![
        (service_ms, PeakLabel::Compressed),
        (delta_ms, PeakLabel::Undisturbed),
    ];
    for k in 1..=8u32 {
        expected.push((
            (k as f64 * bulk_bits + p_bits) / mu_bps * 1e3,
            PeakLabel::BulkPackets(k),
        ));
    }
    let tol = (2.0 * bin).max(0.05 * delta_ms);

    let peaks = raw_peaks
        .into_iter()
        .map(|p| {
            let position_ms = histogram.center(p.index);
            let label = expected
                .iter()
                .filter(|(pos, _)| (pos - position_ms).abs() <= tol)
                .min_by(|a, b| {
                    (a.0 - position_ms)
                        .abs()
                        .partial_cmp(&(b.0 - position_ms).abs())
                        .expect("finite")
                })
                .map(|&(_, l)| l)
                .unwrap_or(PeakLabel::Other);
            LabeledPeak {
                position_ms,
                height: p.height,
                label,
                implied_workload_bytes: workload_bytes(mu_bps, position_ms, p_bits),
            }
        })
        .collect();

    WorkloadAnalysis {
        delta_ms,
        mu_bps,
        histogram,
        peaks,
        workload_bytes: workload_estimates(series, mu_bps),
    }
}

impl WorkloadAnalysis {
    /// The peak labeled [`PeakLabel::Compressed`], if detected.
    pub fn compressed_peak(&self) -> Option<&LabeledPeak> {
        self.peaks.iter().find(|p| p.label == PeakLabel::Compressed)
    }

    /// The peak labeled [`PeakLabel::Undisturbed`], if detected.
    pub fn undisturbed_peak(&self) -> Option<&LabeledPeak> {
        self.peaks
            .iter()
            .find(|p| p.label == PeakLabel::Undisturbed)
    }

    /// The peak for `k` bulk packets, if detected.
    pub fn bulk_peak(&self, k: u32) -> Option<&LabeledPeak> {
        self.peaks
            .iter()
            .find(|p| p.label == PeakLabel::BulkPackets(k))
    }

    /// The paper's bulk-packet-size inference: the workload implied by the
    /// first bulk peak (its `b_n = μ(w_{n+1} − w_n + δ) − P` evaluates to
    /// ≈488 bytes on the INRIA–UMd path).
    pub fn inferred_bulk_bytes(&self) -> Option<f64> {
        self.bulk_peak(1).map(|p| p.implied_workload_bytes)
    }

    /// Mean estimated per-interval workload in bytes.
    pub fn mean_workload_bytes(&self) -> f64 {
        if self.workload_bytes.is_empty() {
            return 0.0;
        }
        self.workload_bytes.iter().sum::<f64>() / self.workload_bytes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probenet_netdyn::{RttRecord, RttSeries};
    use probenet_sim::SimDuration;

    fn series_from_ms(delta_ms: u64, rtts: &[Option<f64>]) -> RttSeries {
        let records = rtts
            .iter()
            .enumerate()
            .map(|(n, r)| RttRecord {
                seq: n as u64,
                sent_at: n as u64 * delta_ms * 1_000_000,
                echoed_at: None,
                rtt: r.map(|ms| (ms * 1e6) as u64),
            })
            .collect();
        RttSeries::new(
            SimDuration::from_millis(delta_ms),
            72,
            SimDuration::ZERO,
            records,
        )
    }

    #[test]
    fn interarrival_is_delta_when_rtts_constant() {
        let s = series_from_ms(20, &[Some(140.0); 50]);
        let g = interarrival_series(&s);
        assert_eq!(g.len(), 49);
        assert!(g.iter().all(|&x| (x - 20.0).abs() < 1e-9));
    }

    #[test]
    fn losses_break_pairs() {
        let s = series_from_ms(20, &[Some(140.0), None, Some(140.0), Some(141.0)]);
        let g = interarrival_series(&s);
        assert_eq!(g, vec![21.0]);
    }

    #[test]
    fn workload_estimates_invert_equation6() {
        // g = 35 ms at μ = 128 kb/s, P = 576 bits: b = 128·35 − 576 bits
        // = 3904 bits = 488 bytes — the paper's own arithmetic.
        let s = series_from_ms(20, &[Some(140.0), Some(155.0)]); // diff 15, g = 35
        let w = workload_estimates(&s, 128_000.0);
        assert_eq!(w.len(), 1);
        assert!((w[0] - 488.0).abs() < 1e-6, "workload {}", w[0]);
    }

    #[test]
    fn negative_estimates_clamp_to_zero() {
        // Deep drain: diff −19 ms, g = 1 ms -> b̂ < 0 -> 0.
        let s = series_from_ms(20, &[Some(159.0), Some(140.0)]);
        let w = workload_estimates(&s, 128_000.0);
        assert_eq!(w, vec![0.0]);
    }

    /// Build a synthetic experiment with the three peak families of Fig. 8.
    fn synthetic_fig8_series() -> RttSeries {
        let delta = 20.0;
        let service = 4.5; // P/μ ms
        let ftp = 32.0; // 512 B at 128 kb/s, ms
        let mut rtts = Vec::new();
        let mut rtt: f64 = 140.0;
        // A repeating pattern: an FTP packet ahead (g = δ + ftp − δ ... i.e.
        // diff = ftp + service − δ), then compression drains, then quiet.
        for _ in 0..120 {
            rtts.push(Some(rtt));
            // One FTP packet arrives: next probe waits extra.
            rtt += ftp + service - delta; // g = ftp + service = 36.5
            rtts.push(Some(rtt));
            // Two compressed probes drain behind it.
            rtt += service - delta; // g = 4.5
            rtts.push(Some(rtt));
            rtt += service - delta;
            rtts.push(Some(rtt));
            // Queue empties; several quiet probes at base delay.
            rtt = 140.0;
            for _ in 0..3 {
                rtts.push(Some(rtt)); // g = 20
            }
        }
        series_from_ms(20, &rtts)
    }

    #[test]
    fn fig8_peaks_are_found_and_labeled() {
        let s = synthetic_fig8_series();
        let a = analyze_workload(&s, 128_000.0, 4096.0, 80.0);
        let compressed = a.compressed_peak().expect("compressed peak");
        assert!(
            (compressed.position_ms - 4.5).abs() < 1.0,
            "compressed at {}",
            compressed.position_ms
        );
        let undisturbed = a.undisturbed_peak().expect("undisturbed peak");
        assert!(
            (undisturbed.position_ms - 20.0).abs() < 1.0,
            "undisturbed at {}",
            undisturbed.position_ms
        );
        let bulk = a.bulk_peak(1).expect("bulk peak");
        assert!(
            (bulk.position_ms - 36.5).abs() < 1.5,
            "bulk at {}",
            bulk.position_ms
        );
        // The inferred bulk size is ≈512 bytes (the paper reads 488 from
        // its coarser bins).
        let b = a.inferred_bulk_bytes().expect("bulk size");
        assert!((b - 512.0).abs() < 30.0, "inferred {b} bytes");
    }

    #[test]
    fn quiet_path_has_single_undisturbed_peak() {
        let s = series_from_ms(20, &vec![Some(140.0); 300]);
        let a = analyze_workload(&s, 128_000.0, 4096.0, 80.0);
        assert_eq!(a.peaks.len(), 1);
        assert_eq!(a.peaks[0].label, PeakLabel::Undisturbed);
        // All estimates equal μδ − P (the buffer-empty upper bound).
        let expect = (128_000.0 * 0.020 - 576.0) / 8.0;
        assert!(a.workload_bytes.iter().all(|&b| (b - expect).abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "positive parameters")]
    fn bad_mu_panics() {
        let s = series_from_ms(20, &[Some(1.0)]);
        analyze_workload(&s, 0.0, 1.0, 1.0);
    }
}
