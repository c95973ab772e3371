//! Order statistics over the benchmark's own samples (iteration walls,
//! per-probe latencies). Kept apart from `probenet-stats`, which is code
//! under measurement.

/// Quantile `q ∈ [0, 1]` of an ascending-sorted sample, linearly
/// interpolated between the two nearest ranks.
///
/// # Panics
/// Panics on an empty sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// An ascending copy of `xs`.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The first decile of a non-empty sample: the undisturbed time of a repeated
/// piece of work. Interference on a shared host only ever adds time, so the
/// fast end of the sample is the code's own; the decile, unlike the minimum,
/// does not rest on one lucky run (see README.md, "Noise study").
pub fn first_decile(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.1)
}

/// The lower quartile of a non-empty sample: what the layer ledger reduces
/// its few repetitions of one call with.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.25)
}

/// The sample's quartiles and extremes, the dispersion reported beside
/// every throughput.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    /// Sample count.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// Lower quartile: the throughput estimator's denominator (see
    /// README.md, "Noise study").
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Upper quartile.
    pub p75: f64,
    /// Maximum.
    pub max: f64,
}

impl Spread {
    /// Summarize a non-empty sample.
    pub fn of(xs: &[f64]) -> Spread {
        let s = sorted(xs);
        Spread {
            n: s.len(),
            min: s[0],
            p25: quantile(&s, 0.25),
            p50: quantile(&s, 0.5),
            p75: quantile(&s, 0.75),
            max: s[s.len() - 1],
        }
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        if self.p50 > 0.0 {
            (self.p75 - self.p25) / self.p50
        } else {
            0.0
        }
    }
}

/// The highest of p50 / p90 / p99 / p99.9 / p99.99 that still has at least
/// ten of `n` samples beyond it: the tail percentile a sample of this size
/// supports.
pub fn highest_supported_percentile(n: u64) -> f64 {
    [0.9999, 0.999, 0.99, 0.9]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p) >= 10.0)
        .unwrap_or(0.5)
}

/// FNV-1a 64 over a stream of words: the digest the correctness checks
/// compare outputs by.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word, byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A small deterministic generator for synthetic inputs (splitmix64), so
/// input generation does not depend on code under measurement.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
