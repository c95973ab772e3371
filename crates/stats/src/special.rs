//! Special functions behind the χ² p-values of [`crate::independence`]:
//! log-gamma and the regularized incomplete gamma function.
//!
//! Implemented from scratch (Lanczos approximation and the classic series /
//! continued-fraction split for P(a, x)) so the workspace has no numeric
//! dependencies; accuracy is ~1e-10 over the ranges the tests use, which
//! unit tests pin against reference values.

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// # Panics
/// Panics if `x <= 0` (the reflection branch is not needed here).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7.
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let mut a = C[0];
    for (i, &c) in C.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma P(a, x) = γ(a, x) / Γ(a) ∈ [0, 1].
///
/// Series expansion for `x < a + 1`, Lentz continued fraction otherwise —
/// the standard numerically stable split.
///
/// # Panics
/// Panics if `a <= 0` or `x < 0`.
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_lower_gamma requires a > 0");
    assert!(x >= 0.0, "reg_lower_gamma requires x >= 0");
    if x == 0.0 {
        return 0.0;
    }
    let ln_ga = ln_gamma(a);
    if x < a + 1.0 {
        // Series: P(a,x) = x^a e^-x / Γ(a) * Σ x^n Γ(a)/Γ(a+1+n)
        let mut term = 1.0 / a;
        let mut sum = term;
        let mut n = a;
        for _ in 0..500 {
            n += 1.0;
            term *= x / n;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        (sum.ln() + a * x.ln() - x - ln_ga).exp()
    } else {
        // Continued fraction for Q(a,x), modified Lentz.
        let tiny = 1e-300;
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / tiny;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < tiny {
                d = tiny;
            }
            c = b + an / c;
            if c.abs() < tiny {
                c = tiny;
            }
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (a * x.ln() - x - ln_ga).exp() * h;
        1.0 - q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, f) in facts.iter().enumerate() {
            let lg = ln_gamma((n + 1) as f64);
            assert!(
                (lg - f64::ln(*f)).abs() < TOL,
                "ln_gamma({}) = {lg}, want {}",
                n + 1,
                f64::ln(*f)
            );
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi)
        let want = 0.5 * std::f64::consts::PI.ln();
        assert!((ln_gamma(0.5) - want).abs() < TOL);
        // Γ(3/2) = sqrt(pi)/2
        let want = want - std::f64::consts::LN_2;
        assert!((ln_gamma(1.5) - want).abs() < TOL);
    }

    #[test]
    fn incomplete_gamma_exponential_special_case() {
        // For a = 1 the gamma distribution is exponential:
        // P(1, x) = 1 - e^-x.
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let want = 1.0 - f64::exp(-x);
            assert!((reg_lower_gamma(1.0, x) - want).abs() < 1e-12, "P(1,{x})");
        }
    }

    #[test]
    fn incomplete_gamma_erf_special_case() {
        // P(1/2, x) = erf(sqrt(x)); check against tabulated erf values.
        // erf(1) = 0.8427007929497149.
        assert!((reg_lower_gamma(0.5, 1.0) - 0.842_700_792_949_714_9).abs() < 1e-10);
        // erf(2) = 0.9953222650189527 -> P(1/2, 4).
        assert!((reg_lower_gamma(0.5, 4.0) - 0.995_322_265_018_952_7).abs() < 1e-10);
    }

    #[test]
    fn incomplete_gamma_is_monotone_cdf() {
        let mut prev = 0.0;
        for i in 0..200 {
            let x = i as f64 * 0.1;
            let v = reg_lower_gamma(3.0, x);
            assert!((0.0..=1.0).contains(&v));
            assert!(v >= prev - 1e-14);
            prev = v;
        }
        assert!(prev > 0.9999);
    }
}
