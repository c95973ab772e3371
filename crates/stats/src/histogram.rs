//! Fixed-bin histograms and empirical CDFs.
//!
//! The paper's Figures 8 and 9 are histograms of the probe interarrival
//! quantity `w_{n+1} - w_n + δ`; [`Histogram`] provides the binning, density
//! normalization and mode queries their reproduction needs.

use serde::{Deserialize, Serialize};

/// A histogram over `[lo, hi)` with equal-width bins. Out-of-range samples
/// are counted in underflow/overflow side gutters so that total mass is
/// conserved.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// A histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    /// Panics unless `lo < hi`, both finite, and `bins > 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
        assert!(bins > 0, "need at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Build from data with the given binning.
    pub fn from_data(data: &[f64], lo: f64, hi: f64, bins: usize) -> Self {
        let mut h = Histogram::new(lo, hi, bins);
        for &x in data {
            h.add(x);
        }
        h
    }

    /// Rebuild a histogram from raw parts, for deserialization.
    ///
    /// Total counterpart to [`Histogram::new`]: hostile inputs come back as
    /// `Err` instead of a panic, so wire decoders stay panic-free.
    pub fn from_parts(
        lo: f64,
        hi: f64,
        counts: Vec<u64>,
        underflow: u64,
        overflow: u64,
    ) -> Result<Self, &'static str> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err("histogram: bad range");
        }
        if counts.is_empty() {
            return Err("histogram: zero bins");
        }
        Ok(Histogram {
            lo,
            hi,
            counts,
            underflow,
            overflow,
        })
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Number of regular bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Range lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Range upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Add one sample. NaN is counted as underflow (mass conservation, but
    /// never binned).
    pub fn add(&mut self, x: f64) {
        match self.bin_of(x) {
            Some(i) => self.counts[i] += 1,
            None if x.is_nan() || x < self.lo => self.underflow += 1,
            None => self.overflow += 1,
        }
    }

    /// The bin a sample falls in: `Some(index)` for in-range samples, `None`
    /// for gutter samples (NaN, below `lo`, at or above `hi`). This is the
    /// exact binning [`Histogram::add`] applies, exposed so streaming
    /// estimators can reproduce it on other shapes (e.g. the 2-D phase-plot
    /// density grid) and stay bin-compatible with batch histograms.
    pub fn bin_of(&self, x: f64) -> Option<usize> {
        if x.is_nan() || x < self.lo || x >= self.hi {
            return None;
        }
        let i = ((x - self.lo) / self.bin_width()) as usize;
        // Float edge: x just below hi can index == bins.
        Some(i.min(self.counts.len() - 1))
    }

    /// True if `other` covers the same range with the same bin count, so the
    /// two histograms can be merged bin-for-bin.
    pub fn same_layout(&self, other: &Histogram) -> bool {
        self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len()
    }

    /// Fold `other` into `self`, bin-for-bin and gutter-for-gutter. Counts
    /// are integer sums, so merging is exact and associative — the property
    /// the streaming layer's `merge()` contract rests on.
    ///
    /// # Panics
    /// Panics if the layouts differ (see [`Histogram::same_layout`]).
    pub fn merge(&mut self, other: &Histogram) {
        assert!(self.same_layout(other), "histogram layouts differ");
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples below `lo` (plus NaNs).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples offered, including gutters.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Center of bin `i`.
    pub fn center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Probability-density estimate per bin: `count / (total * width)`.
    /// Empty histograms yield all zeros.
    pub fn density(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        let norm = 1.0 / (total as f64 * self.bin_width());
        self.counts.iter().map(|&c| c as f64 * norm).collect()
    }

    /// Fraction of in-range samples per bin (sums to 1 minus gutter share).
    pub fn frequencies(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Index and count of the fullest bin (`None` if all bins are empty).
    pub fn mode(&self) -> Option<(usize, u64)> {
        let (i, &c) = self.counts.iter().enumerate().max_by_key(|&(_, &c)| c)?;
        if c == 0 {
            None
        } else {
            Some((i, c))
        }
    }
}

/// Empirical CDF over a sample (sorted copy kept internally).
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from data; NaNs are dropped.
    pub fn new(data: &[f64]) -> Self {
        let mut sorted: Vec<f64> = data.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after filter"));
        Ecdf { sorted }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// F(x): fraction of samples ≤ x.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let k = self.sorted.partition_point(|&v| v <= x);
        k as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank method.
    ///
    /// # Panics
    /// Panics if empty or `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty sample");
        assert!((0.0..=1.0).contains(&q), "quantile level out of range");
        if q == 0.0 {
            return self.sorted[0];
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Median (0.5 quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_is_conserved() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.0, 2.5, 5.0, 9.999, 10.0, 42.0, f64::NAN] {
            h.add(x);
        }
        assert_eq!(h.total(), 8);
        assert_eq!(h.underflow(), 2); // -1 and NaN
        assert_eq!(h.overflow(), 2); // 10 and 42
        assert_eq!(h.counts().iter().sum::<u64>(), 4);
    }

    #[test]
    fn binning_is_exact() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.add(0.0);
        h.add(0.999);
        h.add(1.0);
        h.add(3.999);
        assert_eq!(h.counts(), &[2, 1, 0, 1]);
        assert!((h.center(0) - 0.5).abs() < 1e-12);
        assert!((h.center(3) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn density_integrates_to_in_range_fraction() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64 / 100.0).collect(); // [0,10)
        let h = Histogram::from_data(&data, 0.0, 10.0, 20);
        let integral: f64 = h.density().iter().map(|d| d * h.bin_width()).sum();
        assert!((integral - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mode_finds_fullest_bin() {
        let mut h = Histogram::new(0.0, 3.0, 3);
        for _ in 0..5 {
            h.add(1.5);
        }
        h.add(0.5);
        assert_eq!(h.mode(), Some((1, 5)));
        let empty = Histogram::new(0.0, 1.0, 2);
        assert_eq!(empty.mode(), None);
    }

    #[test]
    fn float_edge_near_hi_stays_in_last_bin() {
        let mut h = Histogram::new(0.0, 0.3, 3);
        h.add(0.3 - 1e-16); // rounds to exactly 0.3 / width in float
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.counts()[2], 1);
    }

    #[test]
    fn ecdf_eval_and_quantiles() {
        let e = Ecdf::new(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert!((e.eval(0.5) - 0.0).abs() < 1e-12);
        assert!((e.eval(1.0) - 0.25).abs() < 1e-12);
        assert!((e.eval(2.5) - 0.5).abs() < 1e-12);
        assert!((e.eval(99.0) - 1.0).abs() < 1e-12);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.median(), 2.0);
        assert_eq!(e.quantile(1.0), 4.0);
    }

    #[test]
    fn ecdf_drops_nan() {
        let e = Ecdf::new(&[1.0, f64::NAN, 2.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn inverted_range_panics() {
        Histogram::new(1.0, 0.0, 4);
    }
}
