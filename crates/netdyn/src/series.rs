//! The measurement record: a round-trip-time series.
//!
//! One [`RttSeries`] is the output of one probing experiment — the paper's
//! `rtt_n` sequence, with `rtt_n = 0` standing for a lost probe (§3).

use probenet_sim::{SimDuration, SimTime};
use probenet_stream::{BankConfig, Collector, CollectorConfig, CollectorReport, SessionKey};
use serde::{Deserialize, Serialize};

/// One probe's fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RttRecord {
    /// Probe sequence number `n`.
    pub seq: u64,
    /// Nominal send instant (`n · δ`).
    pub sent_at: SimTimeRepr,
    /// Instant the echo host stamped the packet, on the **echo host's
    /// clock** (ns). In simulation all clocks are one, so one-way delays
    /// are directly meaningful; on real paths this is only comparable to
    /// `sent_at` when the hosts are synchronized — the very caveat that
    /// made the paper restrict itself to round trips (§2).
    pub echoed_at: Option<SimTimeRepr>,
    /// Measured round trip, `None` if the probe never returned.
    pub rtt: Option<SimDurationRepr>,
}

impl RttRecord {
    /// The streaming-ingest projection of this record — what the online
    /// estimators in `probenet-stream` consume.
    pub fn to_stream(&self) -> probenet_stream::StreamRecord {
        probenet_stream::StreamRecord {
            seq: self.seq,
            sent_at_ns: self.sent_at,
            rtt_ns: self.rtt,
        }
    }
}

/// Fold whole series through one [`Collector`], one session per entry, and
/// return its report. Each session's bank is
/// [`BankConfig::bolot`] at the series' own δ, wire size and clock
/// resolution; records are pushed from the calling thread with the
/// blocking [`probenet_stream::SessionProducer::push`], so none is dropped.
///
/// # Panics
/// Panics on a duplicate session key.
pub fn collect_sessions(
    config: CollectorConfig,
    sessions: &[(SessionKey, &RttSeries)],
) -> CollectorReport {
    let mut collector = Collector::new(config);
    let producers: Vec<_> = sessions
        .iter()
        .map(|(key, series)| {
            let bank = BankConfig::bolot(
                series.interval_ns as f64 / 1e6,
                series.wire_bytes,
                series.clock_resolution_ns,
            );
            collector.add_session(key.clone(), bank)
        })
        .collect();
    let running = collector.start();
    for (producer, (_, series)) in producers.into_iter().zip(sessions) {
        for r in &series.records {
            assert!(producer.push(r.to_stream()), "collector exited early");
        }
    }
    running.join()
}

/// Serializable nanosecond instant (mirror of `SimTime` for serde).
pub type SimTimeRepr = u64;
/// Serializable nanosecond duration (mirror of `SimDuration` for serde).
pub type SimDurationRepr = u64;

/// The result of one probing experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RttSeries {
    /// Probe interval δ in nanoseconds.
    pub interval_ns: u64,
    /// Probe wire size in bytes.
    pub wire_bytes: u32,
    /// Clock resolution applied to the measurements (ns; 0 = perfect).
    pub clock_resolution_ns: u64,
    /// Per-probe records, ordered by sequence number, one per probe sent.
    pub records: Vec<RttRecord>,
}

impl RttSeries {
    /// Assemble a series; records are sorted by sequence number.
    pub fn new(
        interval: SimDuration,
        wire_bytes: u32,
        clock_resolution: SimDuration,
        mut records: Vec<RttRecord>,
    ) -> Self {
        records.sort_by_key(|r| r.seq);
        RttSeries {
            interval_ns: interval.as_nanos(),
            wire_bytes,
            clock_resolution_ns: clock_resolution.as_nanos(),
            records,
        }
    }

    /// Probe interval δ.
    pub fn interval(&self) -> SimDuration {
        SimDuration::from_nanos(self.interval_ns)
    }

    /// Number of probes sent.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no probes were sent.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of probes that returned.
    pub fn received(&self) -> usize {
        self.records.iter().filter(|r| r.rtt.is_some()).count()
    }

    /// Number of probes lost.
    pub fn lost(&self) -> usize {
        self.len() - self.received()
    }

    /// The paper's `rtt_n` convention: round-trip in **milliseconds**, with
    /// `0.0` for lost probes.
    pub fn rtt_or_zero_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| match r.rtt {
                Some(ns) => ns as f64 / 1e6,
                None => 0.0,
            })
            .collect()
    }

    /// Round-trip times of delivered probes only, in milliseconds.
    pub fn delivered_rtts_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| r.rtt.map(|ns| ns as f64 / 1e6))
            .collect()
    }

    /// Loss indicator per probe (`true` = lost), the paper's
    /// `rtt_n = 0` events.
    pub fn loss_flags(&self) -> Vec<bool> {
        self.records.iter().map(|r| r.rtt.is_none()).collect()
    }

    /// Unconditional loss probability `ulp = P(rtt_n = 0)`.
    pub fn loss_probability(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.lost() as f64 / self.len() as f64
    }

    /// Smallest delivered RTT in ms — the estimator for the fixed component
    /// `D + P/μ` (`None` if everything was lost).
    pub fn min_rtt_ms(&self) -> Option<f64> {
        self.delivered_rtts_ms()
            .into_iter()
            .min_by(|a, b| a.partial_cmp(b).expect("finite RTTs"))
    }

    /// Nominal send instant of probe `n`.
    pub fn sent_at(&self, n: usize) -> SimTime {
        SimTime::from_nanos(self.records[n].sent_at)
    }

    /// Count of reordered probe pairs: inversions in arrival order among
    /// delivered probes (probe `j > i` arriving before probe `i`). The
    /// NetDyn packet number exists precisely "to detect packet losses" and
    /// reorderings (§2; the paper's ref \[19\] correlates reorderings with
    /// delay). FIFO paths yield zero; route changes can overtake in-flight
    /// packets and produce inversions. Exact count via merge-sort, O(n log n).
    pub fn reordering_count(&self) -> u64 {
        let mut arrivals: Vec<u64> = self
            .records
            .iter()
            .filter_map(|r| r.rtt.map(|rtt| r.sent_at + rtt))
            .collect();
        count_inversions(&mut arrivals)
    }
}

/// Exact inversion count of a sequence by bottom-up merge sort (the slice
/// is sorted in place as a side effect).
fn count_inversions(xs: &mut [u64]) -> u64 {
    let n = xs.len();
    if n < 2 {
        return 0;
    }
    let mut buf = xs.to_vec();
    let mut inversions = 0u64;
    let mut width = 1;
    while width < n {
        let mut lo = 0;
        while lo < n {
            let mid = (lo + width).min(n);
            let hi = (lo + 2 * width).min(n);
            if mid < hi {
                // Merge xs[lo..mid] and xs[mid..hi] into buf[lo..hi].
                let (mut i, mut j, mut k) = (lo, mid, lo);
                while i < mid && j < hi {
                    if xs[i] <= xs[j] {
                        buf[k] = xs[i];
                        i += 1;
                    } else {
                        // xs[j] jumps ahead of everything left in [i, mid).
                        inversions += (mid - i) as u64;
                        buf[k] = xs[j];
                        j += 1;
                    }
                    k += 1;
                }
                buf[k..hi].copy_from_slice(if i < mid { &xs[i..mid] } else { &xs[j..hi] });
                xs[lo..hi].copy_from_slice(&buf[lo..hi]);
            }
            lo += 2 * width;
        }
        width *= 2;
    }
    inversions
}

/// Quantize an instant to a clock of the given resolution (floor), the way
/// a host reads a coarse hardware clock. Zero resolution = identity.
pub fn quantize(t: SimTime, resolution: SimDuration) -> SimTime {
    if resolution.is_zero() {
        return t;
    }
    let r = resolution.as_nanos();
    SimTime::from_nanos(t.as_nanos() / r * r)
}

/// The RTT a host with quantized clocks measures: the difference of the two
/// clock readings (which can differ from the true RTT by up to one tick in
/// either direction).
pub fn quantized_rtt(sent: SimTime, received: SimTime, resolution: SimDuration) -> SimDuration {
    quantize(received, resolution).saturating_since(quantize(sent, resolution))
}

/// What a clock with a frequency error of `ppb` parts per billion reads at
/// true instant `t`: `t + t·ppb/10⁹`, in exact integer arithmetic. Positive
/// `ppb` is a fast clock, negative a slow one (clamped at zero).
pub fn skew(t: SimTime, ppb: i64) -> SimTime {
    if ppb == 0 {
        return t;
    }
    let nanos = t.as_nanos() as i128;
    let skewed = nanos + nanos * ppb as i128 / 1_000_000_000;
    SimTime::from_nanos(skewed.clamp(0, u64::MAX as i128) as u64)
}

/// The RTT measured by a host whose clock both drifts (`ppb`) and ticks at
/// `resolution`: the difference of the two quantized, drifted clock reads.
pub fn measured_rtt(
    sent: SimTime,
    received: SimTime,
    resolution: SimDuration,
    ppb: i64,
) -> SimDuration {
    quantize(skew(received, ppb), resolution)
        .saturating_since(quantize(skew(sent, ppb), resolution))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> RttSeries {
        RttSeries::new(
            SimDuration::from_millis(50),
            72,
            SimDuration::ZERO,
            vec![
                RttRecord {
                    seq: 2,
                    sent_at: 100_000_000,
                    echoed_at: None,
                    rtt: None,
                },
                RttRecord {
                    seq: 0,
                    sent_at: 0,
                    echoed_at: Some(70_000_000),
                    rtt: Some(142_000_000),
                },
                RttRecord {
                    seq: 1,
                    sent_at: 50_000_000,
                    echoed_at: None,
                    rtt: Some(150_500_000),
                },
            ],
        )
    }

    #[test]
    fn records_are_sorted_and_counted() {
        let s = series();
        assert_eq!(s.len(), 3);
        assert_eq!(s.received(), 2);
        assert_eq!(s.lost(), 1);
        assert_eq!(s.records[0].seq, 0);
        assert_eq!(s.records[2].seq, 2);
    }

    #[test]
    fn paper_zero_convention() {
        let s = series();
        assert_eq!(s.rtt_or_zero_ms(), vec![142.0, 150.5, 0.0]);
        assert_eq!(s.loss_flags(), vec![false, false, true]);
        assert!((s.loss_probability() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min_rtt_ms(), Some(142.0));
    }

    #[test]
    fn delivered_only_view() {
        let s = series();
        assert_eq!(s.delivered_rtts_ms(), vec![142.0, 150.5]);
    }

    #[test]
    fn empty_series_is_safe() {
        let s = RttSeries::new(SimDuration::from_millis(10), 72, SimDuration::ZERO, vec![]);
        assert!(s.is_empty());
        assert_eq!(s.loss_probability(), 0.0);
        assert_eq!(s.min_rtt_ms(), None);
    }

    #[test]
    fn quantization_floors_to_ticks() {
        let res = SimDuration::from_millis(3);
        assert_eq!(
            quantize(SimTime::from_micros(7_400), res),
            SimTime::from_millis(6)
        );
        assert_eq!(
            quantize(SimTime::from_millis(6), res),
            SimTime::from_millis(6)
        );
        // Perfect clock: identity.
        assert_eq!(
            quantize(SimTime::from_micros(7_400), SimDuration::ZERO),
            SimTime::from_micros(7_400)
        );
    }

    #[test]
    fn quantized_rtt_is_multiple_of_resolution() {
        let res = SimDuration::from_nanos(3_906_250); // DECstation
        for (s, r) in [(0u64, 142_300_000u64), (7_000_000, 151_111_111)] {
            let q = quantized_rtt(SimTime::from_nanos(s), SimTime::from_nanos(s + r), res);
            assert_eq!(q.as_nanos() % res.as_nanos(), 0);
            // Error bounded by one tick.
            let err = q.as_nanos() as i128 - r as i128;
            assert!(err.unsigned_abs() <= res.as_nanos() as u128);
        }
    }

    #[test]
    fn reordering_count_on_fifo_series_is_zero() {
        let s = series();
        assert_eq!(s.reordering_count(), 0);
    }

    #[test]
    fn reordering_count_detects_inversions() {
        // Probe 0 sent at 0 arrives at 100; probe 1 sent at 50 arrives at
        // 90 (overtook); probe 2 sent at 100 arrives at 150.
        let mk = |seq: u64, sent: u64, arrive: u64| RttRecord {
            seq,
            sent_at: sent,
            echoed_at: None,
            rtt: Some(arrive - sent),
        };
        let s = RttSeries::new(
            SimDuration::from_millis(50),
            72,
            SimDuration::ZERO,
            vec![mk(0, 0, 100), mk(1, 50, 90), mk(2, 100, 150)],
        );
        assert_eq!(s.reordering_count(), 1);
        // Fully reversed arrivals: 3 inversions of 3 elements.
        let s = RttSeries::new(
            SimDuration::from_millis(50),
            72,
            SimDuration::ZERO,
            vec![mk(0, 0, 300), mk(1, 50, 250), mk(2, 100, 200)],
        );
        assert_eq!(s.reordering_count(), 3);
    }

    #[test]
    fn serde_round_trip() {
        let s = series();
        let json = serde_json::to_string(&s).unwrap();
        let back: RttSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records, s.records);
        assert_eq!(back.interval_ns, s.interval_ns);
    }
}
