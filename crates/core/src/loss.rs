//! Loss-process characterization (the paper's §5).
//!
//! Three quantities summarize the loss process of a probe series:
//!
//! * `ulp = P(rtt_n = 0)` — the unconditional loss probability;
//! * `clp = P(rtt_{n+1} = 0 | rtt_n = 0)` — the conditional loss
//!   probability, measuring burstiness;
//! * `plg = 1 / (1 − clp)` — the packet loss gap, the expected run of
//!   consecutive losses under stationarity and ergodicity (a Palm-calculus
//!   identity, the paper's footnote 2), which can also be measured
//!   directly as the mean loss-run length.
//!
//! The paper's finding: `clp ≥ ulp` always, the two converge as δ grows,
//! and losses are **essentially random** (gap ≈ 1) once the probes use a
//! small fraction of the bottleneck.

use probenet_netdyn::RttSeries;
use probenet_stream::StreamingLoss;
use serde::{Deserialize, Serialize};

/// Loss metrics of one experiment: the streaming estimator's snapshot.
pub use probenet_stream::{
    Chi2Snapshot as Chi2Summary, LossSnapshot as LossAnalysis, RunsTestSnapshot as RunsTestSummary,
};

/// Analyze a loss indicator sequence (`true` = lost): a [`StreamingLoss`]
/// fold over the whole sequence.
///
/// ```
/// use probenet_core::analyze_loss_flags;
/// // Two isolated losses in ten probes.
/// let a = analyze_loss_flags(&[false, true, false, false, false,
///                              false, true, false, false, false]);
/// assert_eq!(a.lost, 2);
/// assert_eq!(a.ulp, 0.2);
/// assert_eq!(a.clp, Some(0.0));          // never two in a row
/// assert_eq!(a.plg_measured, Some(1.0)); // loss gap of 1: "random" losses
/// ```
pub fn analyze_loss_flags(flags: &[bool]) -> LossAnalysis {
    let mut fold = StreamingLoss::new();
    for &lost in flags {
        fold.push(lost);
    }
    fold.snapshot()
}

/// Analyze the loss process of an RTT series.
pub fn analyze_losses(series: &RttSeries) -> LossAnalysis {
    analyze_loss_flags(&series.loss_flags())
}

/// The Gilbert two-state loss model: a Markov chain on {Good, Bad} where
/// packets are lost in the Bad state. It is the canonical generative model
/// behind the paper's `ulp`/`clp`/`plg` triple:
///
/// * `p = P(Bad | Good)` — probability a loss burst starts;
/// * `r = P(Good | Bad)` — probability a burst ends, so the mean burst
///   length (the paper's loss gap) is `1/r`;
/// * the stationary loss rate is `p / (p + r)` and `clp = 1 − r`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GilbertModel {
    /// P(loss | previous delivered).
    pub p: f64,
    /// P(delivered | previous lost).
    pub r: f64,
}

impl GilbertModel {
    /// Maximum-likelihood fit from a loss indicator sequence: transition
    /// frequencies of the 2-state chain. Returns `None` when either state
    /// was never left *and* never entered (degenerate conditioning).
    pub fn fit(flags: &[bool]) -> Option<GilbertModel> {
        let mut from_good = (0u64, 0u64); // (to bad, total)
        let mut from_bad = (0u64, 0u64); // (to good, total)
        for w in flags.windows(2) {
            if w[0] {
                from_bad.1 += 1;
                if !w[1] {
                    from_bad.0 += 1;
                }
            } else {
                from_good.1 += 1;
                if w[1] {
                    from_good.0 += 1;
                }
            }
        }
        if from_good.1 == 0 || from_bad.1 == 0 {
            return None;
        }
        Some(GilbertModel {
            p: from_good.0 as f64 / from_good.1 as f64,
            r: from_bad.0 as f64 / from_bad.1 as f64,
        })
    }

    /// Stationary loss probability `p / (p + r)` — the model's `ulp`.
    pub fn loss_rate(&self) -> f64 {
        if self.p + self.r == 0.0 {
            return 0.0;
        }
        self.p / (self.p + self.r)
    }

    /// Conditional loss probability `1 − r` — the model's `clp`.
    pub fn clp(&self) -> f64 {
        1.0 - self.r
    }

    /// Mean loss-burst length `1/r` — the model's packet loss gap.
    ///
    /// # Panics
    /// Panics if `r == 0` (bursts never end).
    pub fn loss_gap(&self) -> f64 {
        assert!(self.r > 0.0, "loss bursts never end when r = 0");
        1.0 / self.r
    }

    /// Generate a synthetic loss sequence from the model — e.g. to stress
    /// recovery schemes with the measured burstiness at arbitrary length.
    pub fn simulate<R: rand::Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<bool> {
        let mut out = Vec::with_capacity(n);
        let mut bad = rng.gen::<f64>() < self.loss_rate();
        for _ in 0..n {
            out.push(bad);
            let u = rng.gen::<f64>();
            bad = if bad { u >= self.r } else { u < self.p };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_ulp() {
        let flags = [false, true, true, false, true, false];
        let a = analyze_loss_flags(&flags);
        assert_eq!(a.sent, 6);
        assert_eq!(a.lost, 3);
        assert!((a.ulp - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clp_conditioning() {
        // Losses at 1,2 and 4: conditioning positions are 1 (next lost)
        // and 2 (next ok) and 4 (next ok): clp = 1/3.
        let flags = [false, true, true, false, true, false];
        let a = analyze_loss_flags(&flags);
        assert!((a.clp.unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn run_length_bookkeeping() {
        let flags = [true, true, false, true, false, true, true, true];
        let a = analyze_loss_flags(&flags);
        // Runs: 2, 1, 3.
        assert_eq!(a.run_lengths, vec![1, 1, 1]);
        assert!((a.plg_measured.unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn palm_identity_on_iid_losses() {
        // IID Bernoulli(p) losses: clp ≈ p and plg ≈ 1/(1-p); measured mean
        // run length must agree with the Palm prediction.
        let mut state = 5u64;
        let p = 0.1;
        let flags: Vec<bool> = (0..200_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) < p
            })
            .collect();
        let a = analyze_loss_flags(&flags);
        let clp = a.clp.unwrap();
        assert!((clp - p).abs() < 0.01, "clp {clp}");
        let palm = a.plg_palm.unwrap();
        let measured = a.plg_measured.unwrap();
        assert!(
            (palm - measured).abs() / measured < 0.02,
            "palm {palm} measured {measured}"
        );
        assert!(a.losses_look_random(0.01));
    }

    #[test]
    fn bursty_losses_have_clp_above_ulp_and_fail_randomness() {
        // Sticky Markov losses.
        let mut state = 9u64;
        let mut cur = false;
        let flags: Vec<bool> = (0..100_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                cur = if cur { u < 0.6 } else { u < 0.05 };
                cur
            })
            .collect();
        let a = analyze_loss_flags(&flags);
        let clp = a.clp.unwrap();
        assert!(clp > a.ulp + 0.2, "clp {clp} ulp {}", a.ulp);
        assert!((clp - 0.6).abs() < 0.03);
        assert!((a.plg_palm.unwrap() - 2.5).abs() < 0.2);
        assert!(!a.losses_look_random(0.01));
    }

    #[test]
    fn gilbert_fit_recovers_markov_parameters() {
        // Generate from known (p, r) with an LCG and fit back.
        let (p, r) = (0.04, 0.4);
        let mut state = 3u64;
        let mut bad = false;
        let flags: Vec<bool> = (0..300_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                bad = if bad { u >= r } else { u < p };
                bad
            })
            .collect();
        let m = GilbertModel::fit(&flags).expect("both states visited");
        assert!((m.p - p).abs() < 0.005, "p {}", m.p);
        assert!((m.r - r).abs() < 0.02, "r {}", m.r);
        // Model identities line up with the empirical loss analysis.
        let a = analyze_loss_flags(&flags);
        assert!((m.loss_rate() - a.ulp).abs() < 0.01);
        assert!((m.clp() - a.clp.unwrap()).abs() < 0.01);
        assert!((m.loss_gap() - a.plg_measured.unwrap()).abs() < 0.1);
    }

    #[test]
    fn gilbert_simulation_matches_its_own_parameters() {
        use rand::SeedableRng;
        let model = GilbertModel { p: 0.05, r: 0.5 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let flags = model.simulate(&mut rng, 200_000);
        let refit = GilbertModel::fit(&flags).expect("both states");
        assert!((refit.p - 0.05).abs() < 0.01);
        assert!((refit.r - 0.5).abs() < 0.03);
    }

    #[test]
    fn gilbert_degenerate_fits() {
        assert!(GilbertModel::fit(&[false; 100]).is_none());
        assert!(GilbertModel::fit(&[true; 100]).is_none());
        assert!(GilbertModel::fit(&[]).is_none());
        // iid losses: p ≈ loss rate, r ≈ 1 - loss rate.
        let flags: Vec<bool> = (0..10_000).map(|i| i % 10 == 0).collect();
        let m = GilbertModel::fit(&flags).expect("both states");
        assert!(m.r > 0.99, "periodic singleton losses: r {}", m.r);
    }

    #[test]
    fn degenerate_sequences() {
        let a = analyze_loss_flags(&[]);
        assert_eq!(a.ulp, 0.0);
        assert!(a.clp.is_none());
        assert!(a.plg_measured.is_none());
        assert!(a.losses_look_random(0.05));

        let all_ok = analyze_loss_flags(&[false; 10]);
        assert_eq!(all_ok.lost, 0);
        assert!(all_ok.clp.is_none());

        let all_lost = analyze_loss_flags(&[true; 10]);
        assert_eq!(all_lost.ulp, 1.0);
        assert_eq!(all_lost.clp, Some(1.0));
        assert!(all_lost.plg_palm.is_none()); // 1/(1-1) undefined
        assert_eq!(all_lost.plg_measured, Some(10.0));
    }

    #[test]
    fn trailing_loss_counts_in_runs_but_not_conditioning() {
        let flags = [false, false, true];
        let a = analyze_loss_flags(&flags);
        // The final loss has no successor: clp base is empty.
        assert!(a.clp.is_none());
        assert_eq!(a.run_lengths, vec![1]);
    }
}
