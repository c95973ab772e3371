//! Online workload estimation via the paper's Lindley recurrence (eq. 6).
//!
//! The estimator consumes one record at a time, retaining only the previous
//! record's RTT: each consecutive delivered pair contributes one
//! interarrival `g_n = rtt_{n+1} − rtt_n + δ` to a fixed-layout histogram
//! and one clamped workload estimate `b̂_n = (μ·g_n − P)/8` to a running
//! sum. The batch analyzer (`probenet_core::analyze_workload`) is a fold of
//! this type over a whole series, so the layout, `g_n` and eq. (6) are
//! written once, here.
//!
//! Exactness: all histogram counts are integers, so they are identical
//! under any merge grouping. The workload **sum** is a float accumulator —
//! a serial `push` fold adds in sequence order; `merge` regroups the
//! additions, so merged results agree only to floating-point reassociation
//! error (documented as ≤ 1e-9 relative in DESIGN.md §11).

use crate::fnv::fnv1a_u64s;
use probenet_stats::Histogram;
use serde::{Deserialize, Serialize};

/// Streaming interarrival/workload estimator for one probe session.
#[derive(Debug, Clone)]
pub struct StreamingWorkload {
    delta_ms: f64,
    mu_bps: f64,
    p_bits: f64,
    hist: Histogram,
    b_sum: f64,
    pairs: u64,
    /// RTT of the first record of this segment (`None` until one arrives).
    first: Option<Option<u64>>,
    /// RTT of the last record of this segment.
    last: Option<Option<u64>>,
}

/// JSON-facing summary of a [`StreamingWorkload`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadSnapshot {
    /// Probe interval δ in ms.
    pub delta_ms: f64,
    /// Assumed bottleneck rate μ in bits/s.
    pub mu_bps: f64,
    /// Consecutive delivered pairs observed (= interarrival samples).
    pub pairs: u64,
    /// Mean estimated per-interval workload in bytes (0.0 with no pairs,
    /// matching the batch `mean_workload_bytes` convention).
    pub mean_workload_bytes: f64,
    /// Interarrival samples offered to the histogram, gutters included.
    pub hist_total: u64,
    /// Samples below the histogram range.
    pub hist_underflow: u64,
    /// Samples above the histogram range.
    pub hist_overflow: u64,
    /// FNV-1a digest of the bin counts — pins the full distribution without
    /// serializing every bin.
    pub hist_fnv1a: String,
}

/// The raw [`StreamingWorkload`] state: parameters, histogram parts and
/// pairing state, exposed so the wire layer can round-trip an estimator
/// bit-for-bit. The histogram's lower edge is always `0.0` by construction
/// and is not carried.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadWireState {
    /// Probe interval δ in ms.
    pub delta_ms: f64,
    /// Assumed bottleneck rate μ in bits/s.
    pub mu_bps: f64,
    /// Probe wire size in bits.
    pub p_bits: f64,
    /// Histogram upper edge (`max_ms`).
    pub hist_hi: f64,
    /// Histogram bin counts.
    pub hist_counts: Vec<u64>,
    /// Histogram underflow gutter.
    pub hist_underflow: u64,
    /// Histogram overflow gutter.
    pub hist_overflow: u64,
    /// Running clamped workload sum in bytes.
    pub b_sum: f64,
    /// Consecutive delivered pairs observed.
    pub pairs: u64,
    /// RTT of the segment's first record (`None` until one arrives).
    pub first: Option<Option<u64>>,
    /// RTT of the segment's last record.
    pub last: Option<Option<u64>>,
}

/// The workload histogram's layout rule, the workspace's one definition:
/// `[0, max_ms)` in bins as wide as the measurement clock's resolution but
/// no finer than 0.5 ms, and never fewer than 10 of them. Returns the
/// nominal bin width in ms and the bin count.
pub fn workload_layout(max_ms: f64, clock_resolution_ns: u64) -> (f64, usize) {
    let bin_ms = (clock_resolution_ns as f64 / 1e6).max(0.5);
    (bin_ms, ((max_ms / bin_ms).ceil() as usize).max(10))
}

/// The return interarrival `g_n = rtt_{n+1} − rtt_n + δ` in ms of two
/// consecutive delivered probes whose RTTs are `prev_ns` and `cur_ns`, at
/// probe interval `delta_ms`: the workspace's one definition.
#[inline]
pub fn interarrival_ms(prev_ns: u64, cur_ns: u64, delta_ms: f64) -> f64 {
    (cur_ns as f64 - prev_ns as f64) / 1e6 + delta_ms
}

/// The paper's equation (6), the workspace's one definition: the workload
/// `b̂ = μ·g − P` in bytes that a return interarrival of `g_ms` implies at a
/// bottleneck of `mu_bps` for probes of `p_bits`, clamped at zero (a
/// negative estimate means the buffer emptied during the interval).
#[inline]
pub fn workload_bytes(mu_bps: f64, g_ms: f64, p_bits: f64) -> f64 {
    ((mu_bps * g_ms / 1e3 - p_bits) / 8.0).max(0.0)
}

impl StreamingWorkload {
    /// A new estimator over the [`workload_layout`] histogram.
    ///
    /// # Panics
    /// Panics if `mu_bps` or `max_ms` is not positive.
    pub fn new(
        delta_ms: f64,
        wire_bytes: u32,
        clock_resolution_ns: u64,
        mu_bps: f64,
        max_ms: f64,
    ) -> Self {
        assert!(mu_bps > 0.0 && max_ms > 0.0, "positive parameters");
        let (_, bins) = workload_layout(max_ms, clock_resolution_ns);
        StreamingWorkload {
            delta_ms,
            mu_bps,
            p_bits: wire_bytes as f64 * 8.0,
            hist: Histogram::new(0.0, max_ms, bins),
            b_sum: 0.0,
            pairs: 0,
            first: None,
            last: None,
        }
    }

    /// Record the next probe's RTT (`None` = lost), in sequence order.
    pub fn push(&mut self, rtt_ns: Option<u64>) {
        if let Some(prev) = self.last {
            self.fold_pair(prev, rtt_ns);
        }
        if self.first.is_none() {
            self.first = Some(rtt_ns);
        }
        self.last = Some(rtt_ns);
    }

    fn fold_pair(&mut self, prev: Option<u64>, cur: Option<u64>) {
        if let (Some(a), Some(b)) = (prev, cur) {
            let g_ms = interarrival_ms(a, b, self.delta_ms);
            self.hist.add(g_ms);
            self.b_sum += workload_bytes(self.mu_bps, g_ms, self.p_bits);
            self.pairs += 1;
        }
    }

    /// Fold `other` (the records immediately following this segment) into
    /// `self`. Histogram counts and pair counts merge exactly; the workload
    /// sum reassociates (ε-exact).
    ///
    /// # Panics
    /// Panics if the two estimators were built with different parameters.
    pub fn merge(&mut self, other: &StreamingWorkload) {
        assert!(
            self.delta_ms == other.delta_ms
                && self.mu_bps == other.mu_bps
                && self.p_bits == other.p_bits
                && self.hist.same_layout(&other.hist),
            "workload estimator parameters differ"
        );
        let Some(b_first) = other.first else {
            return; // other is empty
        };
        if let Some(a_last) = self.last {
            self.fold_pair(a_last, b_first);
        } else {
            self.first = other.first;
        }
        self.hist.merge(&other.hist);
        self.b_sum += other.b_sum;
        self.pairs += other.pairs;
        self.last = other.last;
    }

    /// Interarrival samples observed so far.
    pub fn pairs(&self) -> u64 {
        self.pairs
    }

    /// The interarrival histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Mean estimated per-interval workload in bytes (0.0 with no pairs).
    pub fn mean_workload_bytes(&self) -> f64 {
        if self.pairs == 0 {
            return 0.0;
        }
        self.b_sum / self.pairs as f64
    }

    /// The raw estimator state, for serialization. Field-for-field with the
    /// internal representation, so `from_wire_state(wire_state())` is exact.
    pub fn wire_state(&self) -> WorkloadWireState {
        WorkloadWireState {
            delta_ms: self.delta_ms,
            mu_bps: self.mu_bps,
            p_bits: self.p_bits,
            hist_hi: self.hist.hi(),
            hist_counts: self.hist.counts().to_vec(),
            hist_underflow: self.hist.underflow(),
            hist_overflow: self.hist.overflow(),
            b_sum: self.b_sum,
            pairs: self.pairs,
            first: self.first,
            last: self.last,
        }
    }

    /// Rebuild from a previously captured [`WorkloadWireState`].
    ///
    /// Total: parameter sanity, histogram layout, pair accounting and the
    /// workload sum's invariants are all checked (overflow-checked where
    /// counts are summed), so a hostile state cannot produce an estimator
    /// whose `snapshot()` or `merge()` would panic or emit NaN.
    pub fn from_wire_state(s: WorkloadWireState) -> Result<Self, &'static str> {
        if !(s.mu_bps.is_finite() && s.mu_bps > 0.0) {
            return Err("workload: bad mu");
        }
        if !s.delta_ms.is_finite() {
            return Err("workload: bad delta");
        }
        if !(s.p_bits.is_finite() && s.p_bits >= 0.0) {
            return Err("workload: bad packet size");
        }
        if !(s.b_sum.is_finite() && s.b_sum >= 0.0) {
            return Err("workload: bad workload sum");
        }
        let hist = Histogram::from_parts(
            0.0,
            s.hist_hi,
            s.hist_counts,
            s.hist_underflow,
            s.hist_overflow,
        )?;
        let mut offered = hist.underflow().checked_add(hist.overflow());
        for &c in hist.counts() {
            offered = offered.and_then(|t| t.checked_add(c));
        }
        if offered.ok_or("workload: histogram count overflow")? != s.pairs {
            return Err("workload: pair accounting mismatch");
        }
        match (s.first, s.last) {
            (Some(_), Some(_)) => {}
            (None, None) => {
                if s.pairs != 0 {
                    return Err("workload: pairs without records");
                }
            }
            _ => return Err("workload: inconsistent boundary records"),
        }
        if s.pairs == 0 && s.b_sum != 0.0 {
            return Err("workload: workload sum without pairs");
        }
        Ok(StreamingWorkload {
            delta_ms: s.delta_ms,
            mu_bps: s.mu_bps,
            p_bits: s.p_bits,
            hist,
            b_sum: s.b_sum,
            pairs: s.pairs,
            first: s.first,
            last: s.last,
        })
    }

    /// Current summary.
    pub fn snapshot(&self) -> WorkloadSnapshot {
        WorkloadSnapshot {
            delta_ms: self.delta_ms,
            mu_bps: self.mu_bps,
            pairs: self.pairs,
            mean_workload_bytes: self.mean_workload_bytes(),
            hist_total: self.hist.total(),
            hist_underflow: self.hist.underflow(),
            hist_overflow: self.hist.overflow(),
            hist_fnv1a: fnv1a_u64s(self.hist.counts().iter().copied()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_all(w: &mut StreamingWorkload, rtts: &[Option<u64>]) {
        for &r in rtts {
            w.push(r);
        }
    }

    fn ms(x: f64) -> Option<u64> {
        Some((x * 1e6) as u64)
    }

    #[test]
    fn matches_batch_interarrival_and_mean() {
        // Same arithmetic as the batch test: diff 15 ms at δ=20 → g=35 ms,
        // b = (128000·0.035 − 576)/8 = 488 bytes.
        let mut w = StreamingWorkload::new(20.0, 72, 0, 128_000.0, 100.0);
        push_all(&mut w, &[ms(140.0), ms(155.0)]);
        assert_eq!(w.pairs(), 1);
        assert!((w.mean_workload_bytes() - 488.0).abs() < 1e-6);
    }

    #[test]
    fn losses_break_pairs() {
        let mut w = StreamingWorkload::new(20.0, 72, 0, 128_000.0, 100.0);
        push_all(&mut w, &[ms(140.0), None, ms(140.0), ms(141.0)]);
        assert_eq!(w.pairs(), 1);
    }

    #[test]
    fn negative_estimates_clamp() {
        let mut w = StreamingWorkload::new(20.0, 72, 0, 128_000.0, 100.0);
        push_all(&mut w, &[ms(159.0), ms(140.0)]);
        assert_eq!(w.mean_workload_bytes(), 0.0);
        assert_eq!(w.pairs(), 1);
    }

    #[test]
    fn merge_matches_sequential() {
        let rtts: Vec<Option<u64>> = (0..100)
            .map(|i| {
                if i % 7 == 3 {
                    None
                } else {
                    ms(140.0 + (i as f64 * 1.3).sin() * 5.0)
                }
            })
            .collect();
        let mut whole = StreamingWorkload::new(20.0, 72, 1_000_000, 128_000.0, 100.0);
        push_all(&mut whole, &rtts);
        for split in [0, 1, 3, 50, 99, 100] {
            let mut a = StreamingWorkload::new(20.0, 72, 1_000_000, 128_000.0, 100.0);
            let mut b = StreamingWorkload::new(20.0, 72, 1_000_000, 128_000.0, 100.0);
            push_all(&mut a, &rtts[..split]);
            push_all(&mut b, &rtts[split..]);
            a.merge(&b);
            assert_eq!(a.pairs(), whole.pairs(), "split {split}");
            assert_eq!(a.hist.counts(), whole.hist.counts(), "split {split}");
            assert!(
                (a.mean_workload_bytes() - whole.mean_workload_bytes()).abs() < 1e-9,
                "split {split}"
            );
        }
    }
}
