//! Streaming summary statistics (Welford's algorithm).

/// Numerically stable streaming mean/variance/extremes.
#[derive(Debug, Clone, Default)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Moments {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Build from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut m = Moments::new();
        for &x in xs {
            m.push(x);
        }
        m
    }

    /// Add one observation (Welford update).
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population variance (divides by n).
    pub fn variance_population(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Coefficient of variation (std/mean); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean() == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean().abs()
        }
    }

    /// The raw accumulator state, for serialization. Field-for-field with
    /// the internal representation, so `from_state(state())` is bit-exact.
    pub fn state(&self) -> MomentsState {
        MomentsState {
            n: self.n,
            mean: self.mean,
            m2: self.m2,
            min: self.min,
            max: self.max,
        }
    }

    /// Rebuild from a previously captured [`MomentsState`].
    ///
    /// Total: hostile states are rejected instead of producing an
    /// accumulator whose accessors could emit NaN into serialized reports.
    /// An empty state must be canonical (the exact [`Moments::new`] values);
    /// a non-empty state must be finite with `m2 ≥ 0` and `min ≤ max`.
    pub fn from_state(s: MomentsState) -> Result<Self, &'static str> {
        if s.n == 0 {
            let canonical = s.mean == 0.0
                && s.mean.is_sign_positive()
                && s.m2 == 0.0
                && s.m2.is_sign_positive()
                && s.min == f64::INFINITY
                && s.max == f64::NEG_INFINITY;
            if !canonical {
                return Err("moments: non-canonical empty state");
            }
        } else {
            if !(s.mean.is_finite() && s.m2.is_finite() && s.min.is_finite() && s.max.is_finite()) {
                return Err("moments: non-finite accumulator");
            }
            if s.m2 < 0.0 {
                return Err("moments: negative m2");
            }
            if s.min > s.max {
                return Err("moments: min above max");
            }
        }
        Ok(Moments {
            n: s.n,
            mean: s.mean,
            m2: s.m2,
            min: s.min,
            max: s.max,
        })
    }

    /// Merge another accumulator (parallel Welford combination).
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The raw [`Moments`] accumulator state: exactly the internal fields, in
/// declaration order, so codecs can round-trip an accumulator bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MomentsState {
    /// Number of observations.
    pub n: u64,
    /// Running mean (Welford).
    pub mean: f64,
    /// Sum of squared deviations from the running mean.
    pub m2: f64,
    /// Smallest observation (`+inf` when `n == 0`).
    pub min: f64,
    /// Largest observation (`-inf` when `n == 0`).
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_small_sample() {
        let m = Moments::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        // Population variance of this classic sample is 4.
        assert!((m.variance_population() - 4.0).abs() < 1e-12);
        assert!((m.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(m.min(), 2.0);
        assert_eq!(m.max(), 9.0);
    }

    #[test]
    fn empty_is_safe() {
        let m = Moments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.cv(), 0.0);
    }

    #[test]
    fn merge_equals_concatenation() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let (a, b) = xs.split_at(37);
        let mut m1 = Moments::from_slice(a);
        let m2 = Moments::from_slice(b);
        m1.merge(&m2);
        let all = Moments::from_slice(&xs);
        assert_eq!(m1.count(), all.count());
        assert!((m1.mean() - all.mean()).abs() < 1e-10);
        assert!((m1.variance() - all.variance()).abs() < 1e-10);
        assert_eq!(m1.min(), all.min());
        assert_eq!(m1.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = [1.0, 2.0, 3.0];
        let mut m = Moments::from_slice(&xs);
        m.merge(&Moments::new());
        assert_eq!(m.count(), 3);
        let mut e = Moments::new();
        e.merge(&Moments::from_slice(&xs));
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stability_with_large_offset() {
        // Welford must not lose precision with a large common offset.
        let base = 1e12;
        let m = Moments::from_slice(&[base + 1.0, base + 2.0, base + 3.0]);
        assert!((m.variance() - 1.0).abs() < 1e-6, "var {}", m.variance());
    }
}
