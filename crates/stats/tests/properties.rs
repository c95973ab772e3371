//! Property tests for the statistics substrate: conservation, monotonicity
//! and agreement-with-naive-reference invariants that must hold for any
//! input, not just the curated fixtures of the unit tests.

use proptest::prelude::*;

use probenet_stats::{autocorrelation, Ecdf, Histogram, Moments};

/// Finite, reasonably scaled samples (no NaN/inf, no overflow drama).
fn samples(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0e6..1.0e6f64, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram mass conservation: every sample lands in exactly one of
    /// bins / underflow / overflow, whatever the data and binning.
    #[test]
    fn prop_histogram_conserves_mass(
        data in samples(1..400),
        lo in -1.0e5..1.0e5f64,
        width in 1.0e-3..1.0e5f64,
        bins in 1usize..60,
    ) {
        let hi = lo + width;
        let h = Histogram::from_data(&data, lo, hi, bins);
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(
            binned + h.underflow() + h.overflow(),
            data.len() as u64,
            "mass leaked: {} binned, {} under, {} over, {} samples",
            binned, h.underflow(), h.overflow(), data.len()
        );
        prop_assert_eq!(h.total(), data.len() as u64);
        // Densities integrate to the in-range fraction of the mass.
        let integral: f64 = h.density().iter().map(|d| d * h.bin_width()).sum();
        let in_range = binned as f64 / data.len() as f64;
        prop_assert!((integral - in_range).abs() < 1e-9,
            "density integral {integral} vs in-range fraction {in_range}");
    }

    /// Empirical-CDF quantiles are monotone in q and bounded by the data.
    #[test]
    fn prop_ecdf_quantiles_monotone_and_bounded(
        data in samples(1..300),
        qs in proptest::collection::vec(0.0..=1.0f64, 2..20),
    ) {
        let ecdf = Ecdf::new(&data);
        let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut qs = qs;
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for &q in &qs {
            let v = ecdf.quantile(q);
            prop_assert!(v >= prev, "quantile({q}) = {v} < previous {prev}");
            prop_assert!(v >= lo && v <= hi, "quantile({q}) = {v} outside [{lo}, {hi}]");
            prev = v;
        }
        // The CDF itself is monotone too.
        prop_assert!(ecdf.eval(lo - 1.0) == 0.0);
        prop_assert!(ecdf.eval(hi + 1.0) == 1.0);
    }

    /// ACF normalization: lag 0 is exactly 1 and every lag is in [-1, 1]
    /// for non-constant series.
    #[test]
    fn prop_acf_lag0_is_one(
        data in samples(8..300),
        max_lag in 1usize..12,
    ) {
        // The measure-zero case of a constant vector holds vacuously (the
        // vendored proptest has no prop_assume, so guard instead).
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        if data.iter().any(|&x| (x - mean).abs() > 1e-9) {
            let acf = autocorrelation(&data, max_lag.min(data.len() - 1));
            prop_assert!((acf[0] - 1.0).abs() < 1e-12, "lag-0 ACF {}", acf[0]);
            for (k, &r) in acf.iter().enumerate() {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "acf[{k}] = {r}");
            }
        }
    }

    /// Streaming moments agree with the two-pass naive reference.
    #[test]
    fn prop_moments_match_naive_reference(data in samples(2..400)) {
        let m = Moments::from_slice(&data);
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        let scale = mean.abs().max(1.0);
        prop_assert!((m.mean() - mean).abs() < 1e-9 * scale,
            "mean {} vs naive {}", m.mean(), mean);
        prop_assert!((m.variance() - var).abs() < 1e-6 * var.max(1.0),
            "variance {} vs naive {}", m.variance(), var);
        let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(m.min(), lo);
        prop_assert_eq!(m.max(), hi);
        prop_assert_eq!(m.count(), data.len() as u64);
    }

    /// Merging split halves equals accumulating the whole stream.
    #[test]
    fn prop_moments_merge_consistency(
        a in samples(1..200),
        b in samples(1..200),
    ) {
        let mut left = Moments::from_slice(&a);
        let right = Moments::from_slice(&b);
        left.merge(&right);
        let whole: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let full = Moments::from_slice(&whole);
        prop_assert_eq!(left.count(), full.count());
        let scale = full.mean().abs().max(1.0);
        prop_assert!((left.mean() - full.mean()).abs() < 1e-9 * scale);
        prop_assert!(
            (left.variance() - full.variance()).abs() < 1e-6 * full.variance().max(1.0),
            "merged variance {} vs whole {}", left.variance(), full.variance()
        );
    }
}
