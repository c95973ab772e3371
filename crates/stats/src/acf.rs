//! Autocovariance and autocorrelation of time series.
//!
//! Used to quantify how quickly the delay process decorrelates as the probe
//! interval grows (the paper's §5 observation that buffer states seen by
//! successive probes "become less and less correlated as δ increases").

/// Sample autocovariance at lags `0..=max_lag` (biased estimator, dividing
/// by n — the standard choice that keeps the sequence positive
/// semi-definite).
///
/// # Panics
/// Panics if the series is empty or `max_lag >= len`.
pub fn autocovariance(xs: &[f64], max_lag: usize) -> Vec<f64> {
    assert!(!xs.is_empty(), "autocovariance of empty series");
    assert!(max_lag < xs.len(), "max_lag must be < series length");
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    (0..=max_lag)
        .map(|k| {
            (0..n - k)
                .map(|i| (xs[i] - mean) * (xs[i + k] - mean))
                .sum::<f64>()
                / n as f64
        })
        .collect()
}

/// Sample autocorrelation at lags `0..=max_lag` (`acf[0] == 1`).
///
/// A constant series has zero variance; by convention its ACF is 1 at lag 0
/// and 0 elsewhere.
pub fn autocorrelation(xs: &[f64], max_lag: usize) -> Vec<f64> {
    let acov = autocovariance(xs, max_lag);
    let c0 = acov[0];
    if c0 == 0.0 {
        let mut out = vec![0.0; max_lag + 1];
        out[0] = 1.0;
        return out;
    }
    acov.iter().map(|c| c / c0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag0_is_variance_and_one() {
        let xs = [1.0, 3.0, 2.0, 5.0, 4.0];
        let acov = autocovariance(&xs, 2);
        let mean = 3.0;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 5.0;
        assert!((acov[0] - var).abs() < 1e-12);
        let acf = autocorrelation(&xs, 2);
        assert!((acf[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alternating_series_has_negative_lag1() {
        let xs: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let acf = autocorrelation(&xs, 3);
        assert!(acf[1] < -0.9, "lag-1 {}", acf[1]);
        assert!(acf[2] > 0.9, "lag-2 {}", acf[2]);
    }

    #[test]
    fn constant_series_convention() {
        let xs = [5.0; 10];
        let acf = autocorrelation(&xs, 4);
        assert_eq!(acf, vec![1.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn iid_series_decorrelates_fast() {
        // Deterministic pseudo-random series via a simple LCG.
        let mut state = 12345u64;
        let xs: Vec<f64> = (0..5000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let acf = autocorrelation(&xs, 10);
        for (k, c) in acf.iter().enumerate().skip(1) {
            assert!(c.abs() < 0.05, "lag {k} acf {c}");
        }
    }

    #[test]
    fn ar1_series_decays_geometrically() {
        // x_t = 0.8 x_{t-1} + e_t with deterministic noise.
        let mut state = 99u64;
        let mut x = 0.0;
        let xs: Vec<f64> = (0..20000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let e = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                x = 0.8 * x + e;
                x
            })
            .collect();
        let acf = autocorrelation(&xs, 5);
        for (k, &value) in acf.iter().enumerate().skip(1) {
            let want = 0.8f64.powi(k as i32);
            assert!(
                (value - want).abs() < 0.06,
                "lag {k}: acf {value} want {want}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "max_lag")]
    fn excessive_lag_panics() {
        autocovariance(&[1.0, 2.0], 2);
    }
}
