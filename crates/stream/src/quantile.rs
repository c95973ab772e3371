//! A mergeable log-linear quantile sketch over integer nanoseconds.
//!
//! The batch pipeline takes quantiles from a sorted copy of the sample
//! ([`probenet_stats::Ecdf`]); the streaming layer cannot afford the O(n)
//! memory, and the classic streaming quantile estimators (P², GK) do not
//! merge associatively — merging marker states is neither exact nor
//! order-independent, which would break the collector's determinism
//! contract. This sketch trades a documented, bounded relative error for an
//! exactly associative merge: values are binned into HDR-histogram-style
//! log-linear buckets whose counts are plain `u64`s, so `merge` is integer
//! addition in any grouping or order.
//!
//! Layout (`SUB_BITS = 7`): values below 128 get one bucket each (exact);
//! larger values share a bucket with all values having the same
//! most-significant bit and the same next 7 bits. Every bucket's width is
//! at most `lower_bound / 128`, so any reported quantile is within a
//! relative `2⁻⁷ ≈ 0.8 %` of the true nearest-rank sample. No floating
//! point and no `log` calls are involved, so bucket indices are identical
//! on every host — the cross-host golden-snapshot stability the rest of the
//! repo pins for simulator output extends to sketches.
//!
//! Storage follows the data, not the layout: a sketch keeps only its
//! occupied span, the counts from its lowest non-empty bucket to its
//! highest. RTTs of a few hundred milliseconds sit near bucket 2 700 of
//! 7 424, and one session's spread covers a few dozen buckets, so the span
//! is what every push, merge, quantile walk and frame copy touches.

use crate::span::{Span, SpanError};

/// Sub-bucket resolution: buckets per octave, as a power of two.
const SUB_BITS: u32 = 7;
/// Values below this are their own bucket (exact).
const LINEAR_MAX: u64 = 1 << SUB_BITS; // 128
/// The densest possible sketch: the linear range plus one group of
/// `2^SUB_BITS` sub-buckets per remaining octave of the `u64` range.
const MAX_BUCKETS: usize = LINEAR_MAX as usize + (64 - SUB_BITS as usize) * LINEAR_MAX as usize;

/// Mergeable log-linear quantile sketch over `u64` samples (nanoseconds in
/// this workspace). Memory is O(1): at most 7 424 buckets (≈58 KiB) cover
/// the full `u64` range, and only the occupied span of them is stored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogQuantileSketch {
    /// Bucket counts over the occupied span.
    buckets: Span,
    total: u64,
}

/// The bucket a value falls into.
fn bucket_of(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let g = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (LINEAR_MAX - 1)) as usize;
    LINEAR_MAX as usize + (g << SUB_BITS) + sub
}

/// The smallest value mapping to bucket `idx` — the sketch's reported
/// quantile value. For `idx < 256` this is `idx` itself (the linear range
/// and the first octave are exact).
fn bucket_lower(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        return idx as u64;
    }
    let off = idx - LINEAR_MAX as usize;
    let g = off >> SUB_BITS;
    let sub = (off & (LINEAR_MAX as usize - 1)) as u64;
    (LINEAR_MAX + sub) << g
}

impl LogQuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn push(&mut self, v: u64) {
        self.buckets.bump(bucket_of(v));
        self.total += 1;
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bucket index of the first entry of [`LogQuantileSketch::counts`]:
    /// the lowest non-empty bucket, or 0 for an empty sketch.
    pub fn first_bucket(&self) -> usize {
        self.buckets.first()
    }

    /// The occupied span's bucket counts, from bucket
    /// [`LogQuantileSketch::first_bucket`] on, for serialization. The total
    /// is always the sum of the counts, so offset and counts alone
    /// round-trip a sketch exactly.
    pub fn counts(&self) -> &[u64] {
        self.buckets.counts()
    }

    /// Rebuild a sketch from its occupied span: the counts of buckets
    /// `first..first + counts.len()`.
    ///
    /// Total: rejects (with overflow-checked summation) any span no
    /// sequence of `push`/`merge` calls could have produced — one reaching
    /// past the layout's last bucket, or one starting or ending with an
    /// empty bucket (an empty span must start at 0), which both operations
    /// trim by construction.
    pub fn from_span(first: usize, counts: Vec<u64>) -> Result<Self, &'static str> {
        let (buckets, total) =
            Span::from_parts(first, counts, MAX_BUCKETS).map_err(|e| match e {
                SpanError::PastLayout => "sketch: more buckets than the layout has",
                SpanError::Untrimmed => "sketch: span starts or ends with an empty bucket",
                SpanError::Overflow => "sketch: count overflow",
            })?;
        Ok(LogQuantileSketch { buckets, total })
    }

    /// Fold `other` into `self`. Exact and associative: bucket counts are
    /// integer sums, so any merge tree over the same pushes yields the same
    /// sketch.
    pub fn merge(&mut self, other: &LogQuantileSketch) {
        self.buckets.merge(&other.buckets);
        self.total += other.total;
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank method, or `None`
    /// for an empty sketch. The returned value is the lower bound of the
    /// bucket holding the nearest-rank sample, hence within a relative
    /// `2⁻⁷` below the exact batch quantile (and never above it).
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile level out of range");
        if self.total == 0 {
            return None;
        }
        // Nearest rank, exactly as Ecdf::quantile: ceil(q·n) clamped to
        // [1, n], with q = 0 meaning the minimum.
        let rank = if q == 0.0 {
            1
        } else {
            ((q * self.total as f64).ceil() as u64).clamp(1, self.total)
        };
        let mut seen = 0u64;
        for (i, &c) in self.buckets.counts().iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_lower(self.buckets.first() + i));
            }
        }
        unreachable!("total is the sum of bucket counts");
    }

    /// Upper bound on the relative error of [`LogQuantileSketch::quantile`].
    pub const RELATIVE_ERROR: f64 = 1.0 / LINEAR_MAX as f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut s = LogQuantileSketch::new();
        for v in [0u64, 1, 5, 127, 200, 255] {
            s.push(v);
        }
        assert_eq!(s.quantile(0.0), Some(0));
        // Values < 256 round-trip exactly (linear range + first octave).
        assert_eq!(s.quantile(1.0), Some(255));
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut s = LogQuantileSketch::new();
        let data: Vec<u64> = (0..10_000).map(|i| 1_000_000 + i * 137).collect();
        for &v in &data {
            s.push(v);
        }
        let mut sorted = data.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = if q == 0.0 {
                1
            } else {
                ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len())
            };
            let exact = sorted[rank - 1] as f64;
            let approx = s.quantile(q).unwrap() as f64;
            assert!(
                approx <= exact + 0.5,
                "q {q}: approx {approx} > exact {exact}"
            );
            assert!(
                (exact - approx) / exact <= LogQuantileSketch::RELATIVE_ERROR + 1e-12,
                "q {q}: approx {approx} exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_sequential() {
        let mut all = LogQuantileSketch::new();
        let mut a = LogQuantileSketch::new();
        let mut b = LogQuantileSketch::new();
        for i in 0..5_000u64 {
            let v = i.wrapping_mul(0x9e3779b97f4a7c15) >> 20;
            all.push(v);
            if i % 2 == 0 {
                a.push(v)
            } else {
                b.push(v)
            }
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn from_span_accepts_only_trimmed_spans_inside_the_layout() {
        let mut s = LogQuantileSketch::new();
        for v in [150_000_000u64, 150_000_000, 90_000_000, u64::MAX] {
            s.push(v);
        }
        assert_eq!(bucket_of(u64::MAX), MAX_BUCKETS - 1);
        let rebuilt = LogQuantileSketch::from_span(s.first_bucket(), s.counts().to_vec());
        assert_eq!(rebuilt, Ok(s));
        assert_eq!(
            LogQuantileSketch::from_span(0, Vec::new()),
            Ok(LogQuantileSketch::new())
        );

        let bad = [
            (5, vec![]),
            (5, vec![0, 1]),
            (5, vec![1, 0]),
            (MAX_BUCKETS - 1, vec![1, 1]),
            (MAX_BUCKETS, vec![1]),
            (usize::MAX, vec![1]),
            (0, vec![1; MAX_BUCKETS + 1]),
            (0, vec![u64::MAX, 1]),
        ];
        for (first, counts) in bad {
            let len = counts.len();
            assert!(
                LogQuantileSketch::from_span(first, counts).is_err(),
                "span at {first} of {len} buckets"
            );
        }
    }

    #[test]
    fn bucket_lower_inverts_bucket_of() {
        for v in [0u64, 1, 127, 128, 255, 256, 1 << 20, u64::MAX] {
            let b = bucket_of(v);
            let lo = bucket_lower(b);
            assert!(lo <= v, "v {v} bucket {b} lower {lo}");
            assert_eq!(bucket_of(lo), b);
            // Width bound: lower is within a factor (1 + 2^-7) of v.
            assert!((v - lo) as f64 <= lo as f64 / 128.0 + 1.0, "v {v} lo {lo}");
        }
    }
}
