//! Windowed autocorrelation over a bounded ring of recent samples.
//!
//! A true streaming ACF to arbitrary lag needs the full series; Bolot's
//! analysis only ever reads the first few tens of lags, and the
//! decorrelation structure of interest lives at short range. So the
//! streaming estimator keeps a bounded ring of the most recent `W`
//! delivered RTTs and computes the exact batch ACF over that window on
//! `snapshot()`. When the session is shorter than `W` the result is
//! bit-identical to the batch pipeline's ACF over the whole series — the
//! regime the differential harness pins. Longer sessions get the ACF of
//! the trailing window, with the truncation recorded via [`WindowedAcf::evicted`].
//!
//! The ring grows to `W` as samples arrive instead of reserving it up
//! front: a collector holds thousands of sessions, most far shorter than
//! the window.

use std::collections::VecDeque;

/// Bounded ring of the last `window` samples with exact batch ACF on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedAcf {
    window: usize,
    buf: VecDeque<f64>,
    evicted: u64,
}

impl WindowedAcf {
    /// An empty window of capacity `window` (must be ≥ 2). Nothing is
    /// allocated until the first sample arrives.
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "ACF window must hold at least two samples");
        WindowedAcf {
            window,
            buf: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Record one delivered sample.
    pub fn push(&mut self, v: f64) {
        if self.buf.len() == self.window {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(v);
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no samples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Window capacity.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Samples pushed out of the window so far. Zero means the snapshot ACF
    /// is exactly the batch ACF of the full per-session series.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The held samples in ring order (oldest first), for serialization.
    pub fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        self.buf.iter().copied()
    }

    /// Rebuild a window from its capacity, eviction count and held samples.
    ///
    /// Total: the constructor's `window >= 2` contract and the ring
    /// invariants (`len ≤ window`, evictions only start once the ring is
    /// full, finite samples) are checked instead of asserted, and the
    /// buffer is allocated from the samples actually present — a hostile
    /// `window` cannot force a huge reservation.
    pub fn from_samples(
        window: usize,
        evicted: u64,
        samples: Vec<f64>,
    ) -> Result<Self, &'static str> {
        if window < 2 {
            return Err("acf: window below two samples");
        }
        if samples.len() > window {
            return Err("acf: more samples than the window holds");
        }
        if evicted > 0 && samples.len() != window {
            return Err("acf: evictions from a non-full window");
        }
        if samples.iter().any(|v| !v.is_finite()) {
            return Err("acf: non-finite sample");
        }
        Ok(WindowedAcf {
            window,
            buf: samples.into(),
            evicted,
        })
    }

    /// Fold `other` (a later segment of the same series) into `self`:
    /// keep the last `window` samples of the concatenation. Associative,
    /// because "last `W` of a concatenation" only depends on the trailing
    /// `W` samples regardless of how the stream was split.
    pub fn merge(&mut self, other: &WindowedAcf) {
        assert_eq!(self.window, other.window, "ACF window sizes differ");
        // Samples of `other` that its own ring already evicted are gone for
        // good; they also evict everything older in `self`.
        if other.evicted > 0 {
            self.evicted += self.buf.len() as u64 + other.evicted;
            self.buf.clear();
        }
        for &v in &other.buf {
            self.push(v);
        }
    }

    /// Exact ACF of the held window up to `max_lag` (clamped to the window
    /// length), via the same [`probenet_stats::autocorrelation`] the batch
    /// pipeline uses. Empty window → empty vec.
    pub fn snapshot(&self, max_lag: usize) -> Vec<f64> {
        if self.buf.is_empty() {
            return Vec::new();
        }
        let series: Vec<f64> = self.buf.iter().copied().collect();
        let lag = max_lag.min(series.len() - 1);
        probenet_stats::autocorrelation(&series, lag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_capacity_matches_batch() {
        let series: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut w = WindowedAcf::new(1024);
        for &v in &series {
            w.push(v);
        }
        assert_eq!(w.snapshot(20), probenet_stats::autocorrelation(&series, 20));
        assert_eq!(w.evicted(), 0);
    }

    #[test]
    fn over_capacity_keeps_tail() {
        let series: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut w = WindowedAcf::new(8);
        for &v in &series {
            w.push(v);
        }
        assert_eq!(w.len(), 8);
        assert_eq!(w.evicted(), 42);
        let tail: Vec<f64> = series[42..].to_vec();
        assert_eq!(w.snapshot(4), probenet_stats::autocorrelation(&tail, 4));
    }

    #[test]
    fn merge_equals_concatenation() {
        let series: Vec<f64> = (0..60).map(|i| (i as f64 * 1.7).cos()).collect();
        for split in [0, 5, 30, 59, 60] {
            let mut whole = WindowedAcf::new(16);
            for &v in &series {
                whole.push(v);
            }
            let mut a = WindowedAcf::new(16);
            let mut b = WindowedAcf::new(16);
            for &v in &series[..split] {
                a.push(v);
            }
            for &v in &series[split..] {
                b.push(v);
            }
            a.merge(&b);
            assert_eq!(a, whole, "split at {split}");
        }
    }
}
