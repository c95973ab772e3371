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
