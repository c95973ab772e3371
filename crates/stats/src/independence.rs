//! Randomness and independence tests for binary sequences.
//!
//! The paper's headline loss finding is that probe losses "are essentially
//! random unless the probe traffic uses a large fraction of the available
//! bandwidth". These tests make that claim checkable: the Wald–Wolfowitz
//! runs test and a χ² test of lag-1 independence on the loss indicator
//! sequence.

use crate::special::reg_lower_gamma;

/// Result of the Wald–Wolfowitz runs test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunsTest {
    /// Observed number of runs.
    pub runs: usize,
    /// Expected runs under independence.
    pub expected: f64,
    /// Normal z-score of the observed count.
    pub z: f64,
    /// Two-sided p-value (normal approximation).
    pub p_value: f64,
}

/// Wald–Wolfowitz runs test on a binary sequence. Returns `None` when the
/// sequence is degenerate (all one value, or fewer than 2 samples), where
/// the test is undefined.
pub fn runs_test(xs: &[bool]) -> Option<RunsTest> {
    let n1 = xs.iter().filter(|&&b| b).count();
    let n2 = xs.len() - n1;
    if xs.len() < 2 {
        return None;
    }
    let runs = 1 + xs.windows(2).filter(|w| w[0] != w[1]).count();
    runs_test_from_counts(n1, n2, runs)
}

/// [`runs_test`] from sufficient statistics: `n1` trues, `n2` falses and
/// the observed number of runs (`1 +` the count of unequal adjacent pairs).
/// This is everything a streaming fold has to retain to reproduce the batch
/// test bit-for-bit; the two entry points share one code path.
pub fn runs_test_from_counts(n1: usize, n2: usize, runs: usize) -> Option<RunsTest> {
    if n1 == 0 || n2 == 0 || n1 + n2 < 2 {
        return None;
    }
    let n1 = n1 as f64;
    let n2 = n2 as f64;
    let n = n1 + n2;
    let expected = 2.0 * n1 * n2 / n + 1.0;
    let var = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n) / (n * n * (n - 1.0));
    if var <= 0.0 {
        return None;
    }
    let z = (runs as f64 - expected) / var.sqrt();
    Some(RunsTest {
        runs,
        expected,
        z,
        p_value: two_sided_normal_p(z),
    })
}

/// Two-sided normal p-value via the complementary error function
/// (Abramowitz–Stegun 7.1.26 rational approximation, |error| < 1.5e-7).
pub fn two_sided_normal_p(z: f64) -> f64 {
    let x = z.abs() / std::f64::consts::SQRT_2;
    // erfc(x) by A&S 7.1.26 on erf.
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erfc = poly * (-x * x).exp();
    erfc.clamp(0.0, 1.0)
}

/// Result of a χ² independence test on a 2×2 contingency table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chi2Test {
    /// The χ² statistic (1 degree of freedom).
    pub statistic: f64,
    /// p-value from the χ²(1) distribution.
    pub p_value: f64,
}

/// χ² test of independence for the 2×2 table
/// `[[a, b], [c, d]]` (row = first variable, column = second).
/// Returns `None` if any marginal is zero (test undefined).
pub fn chi2_2x2(a: u64, b: u64, c: u64, d: u64) -> Option<Chi2Test> {
    let (af, bf, cf, df) = (a as f64, b as f64, c as f64, d as f64);
    let n = af + bf + cf + df;
    let r1 = af + bf;
    let r2 = cf + df;
    let c1 = af + cf;
    let c2 = bf + df;
    if r1 == 0.0 || r2 == 0.0 || c1 == 0.0 || c2 == 0.0 {
        return None;
    }
    let statistic = n * (af * df - bf * cf).powi(2) / (r1 * r2 * c1 * c2);
    // P(χ²(1) > x) = 1 - P(1/2, x/2).
    let p_value = 1.0 - reg_lower_gamma(0.5, statistic / 2.0);
    Some(Chi2Test { statistic, p_value })
}

/// Build the lag-1 contingency table of a binary sequence and test whether
/// `xs[n+1]` is independent of `xs[n]` — exactly the dependence the paper's
/// conditional loss probability `clp` measures.
pub fn lag1_independence(xs: &[bool]) -> Option<Chi2Test> {
    if xs.len() < 2 {
        return None;
    }
    let mut table = [[0u64; 2]; 2];
    for w in xs.windows(2) {
        table[w[0] as usize][w[1] as usize] += 1;
    }
    lag1_independence_from_counts(table[0][0], table[0][1], table[1][0], table[1][1])
}

/// [`lag1_independence`] from the streamed lag-1 transition counts
/// `n_xy` = number of adjacent pairs going state `x` → state `y`
/// (`0` = delivered, `1` = lost). An empty table (fewer than two samples
/// seen) is degenerate, exactly like a sequence shorter than 2.
pub fn lag1_independence_from_counts(n00: u64, n01: u64, n10: u64, n11: u64) -> Option<Chi2Test> {
    if n00 + n01 + n10 + n11 == 0 {
        return None;
    }
    chi2_2x2(n00, n01, n10, n11)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_bools(n: usize, p: f64, seed: u64) -> Vec<bool> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) < p
            })
            .collect()
    }

    #[test]
    fn runs_test_counts_runs() {
        // T T F F F T -> 3 runs.
        let xs = [true, true, false, false, false, true];
        let r = runs_test(&xs).unwrap();
        assert_eq!(r.runs, 3);
    }

    #[test]
    fn runs_test_accepts_random_sequence() {
        let xs = lcg_bools(5000, 0.5, 1);
        let r = runs_test(&xs).unwrap();
        assert!(r.z.abs() < 3.0, "z {}", r.z);
        assert!(r.p_value > 0.001, "p {}", r.p_value);
    }

    #[test]
    fn runs_test_rejects_clustered_sequence() {
        // Long alternating blocks: far fewer runs than expected.
        let xs: Vec<bool> = (0..5000).map(|i| (i / 100) % 2 == 0).collect();
        let r = runs_test(&xs).unwrap();
        assert!(r.z < -10.0, "z {}", r.z);
        assert!(r.p_value < 1e-6);
    }

    #[test]
    fn runs_test_rejects_alternating_sequence() {
        // Strict alternation: far more runs than expected (z > 0).
        let xs: Vec<bool> = (0..1000).map(|i| i % 2 == 0).collect();
        let r = runs_test(&xs).unwrap();
        assert_eq!(r.runs, 1000);
        assert!(r.z > 10.0);
    }

    #[test]
    fn runs_test_degenerate_is_none() {
        assert!(runs_test(&[true, true, true]).is_none());
        assert!(runs_test(&[false]).is_none());
        assert!(runs_test(&[]).is_none());
    }

    #[test]
    fn normal_p_reference_values() {
        assert!((two_sided_normal_p(0.0) - 1.0).abs() < 1e-6);
        // P(|Z| > 1.96) ≈ 0.05.
        assert!((two_sided_normal_p(1.96) - 0.05).abs() < 0.001);
        assert!(two_sided_normal_p(5.0) < 1e-5);
    }

    #[test]
    fn chi2_independent_table() {
        // Perfectly proportional table: statistic 0, p-value 1.
        let t = chi2_2x2(50, 50, 50, 50).unwrap();
        assert!(t.statistic < 1e-12);
        assert!(t.p_value > 0.999);
    }

    #[test]
    fn chi2_dependent_table() {
        // Strong diagonal: highly dependent.
        let t = chi2_2x2(90, 10, 10, 90).unwrap();
        assert!(t.statistic > 100.0);
        assert!(t.p_value < 1e-6);
    }

    #[test]
    fn chi2_zero_marginal_is_none() {
        assert!(chi2_2x2(0, 0, 5, 5).is_none());
        assert!(chi2_2x2(5, 0, 5, 0).is_none());
    }

    #[test]
    fn lag1_accepts_iid_losses() {
        let xs = lcg_bools(20_000, 0.1, 9);
        let t = lag1_independence(&xs).unwrap();
        assert!(t.p_value > 0.001, "p {}", t.p_value);
    }

    #[test]
    fn lag1_rejects_bursty_losses() {
        // Markov chain with sticky loss state: P(loss | loss) = 0.6,
        // P(loss | ok) = 0.05.
        let mut state = 77u64;
        let mut cur = false;
        let xs: Vec<bool> = (0..20_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                cur = if cur { u < 0.6 } else { u < 0.05 };
                cur
            })
            .collect();
        let t = lag1_independence(&xs).unwrap();
        assert!(t.p_value < 1e-6, "p {}", t.p_value);
    }
}
