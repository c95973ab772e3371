//! Streaming loss-process characterization: Bolot's `ulp` / `clp` / `plg`
//! triple, run-length distribution, and randomness tests — from O(1) state.
//!
//! Everything the paper's §5 derives from a loss indicator sequence is a
//! function of a small segment
//! summary: total counts, the four lag-1 transition counts, and the loss
//! runs split into *boundary* runs (touching the segment's ends, which may
//! still grow or fuse when segments are concatenated) and *interior* runs
//! (closed on both sides, immutable). That summary forms a monoid: two
//! adjacent segments merge by adding counts, adding the junction transition
//! pair, and fusing the left segment's tail run with the right segment's
//! head run. Because every retained quantity is an integer, `merge` is
//! **exact and associative** — the collector can fold per-session segments
//! in any grouping and reproduce the one-pass analysis byte-for-byte. The
//! batch entry point (`probenet_core::analyze_loss_flags`) is that one pass:
//! a `push` fold of this type over the whole sequence.

use probenet_stats::{lag1_independence_from_counts, runs_test_from_counts};
use serde::{Deserialize, Serialize};

/// Online loss-process estimator over a loss indicator stream
/// (`true` = probe lost). Push flags in sequence order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamingLoss {
    sent: u64,
    lost: u64,
    /// Lag-1 transition counts (`0` = delivered, `1` = lost).
    n00: u64,
    n01: u64,
    n10: u64,
    n11: u64,
    /// First / last flag of the segment (`None` when empty).
    first: Option<bool>,
    last: Option<bool>,
    /// Length of the loss run starting at the segment's first record, once
    /// a delivered record has closed it. Zero while the segment is all-lost
    /// (the run is still the tail run) or when the segment starts delivered.
    head_run: u64,
    /// Length of the loss run ending at the segment's last record (zero
    /// when the last record was delivered).
    tail_run: u64,
    /// Interior maximal runs: `closed[k]` = number of runs of `k + 1`
    /// consecutive losses with a delivered record on both sides.
    closed: Vec<u64>,
}

/// Loss metrics of a probe sequence: the snapshot of a [`StreamingLoss`]
/// (`probenet_core` re-exports it as `LossAnalysis`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LossSnapshot {
    /// Probes sent.
    pub sent: usize,
    /// Probes lost.
    pub lost: usize,
    /// Unconditional loss probability.
    pub ulp: f64,
    /// Conditional loss probability `P(loss_{n+1} | loss_n)`; `None` when
    /// no probe except possibly the last was lost (undefined conditioning).
    pub clp: Option<f64>,
    /// Mean observed run of consecutive losses (`None` without losses).
    pub plg_measured: Option<f64>,
    /// The Palm identity prediction `1 / (1 − clp)`.
    pub plg_palm: Option<f64>,
    /// Distribution of loss-run lengths (`run_lengths[k]` = number of
    /// maximal runs of exactly `k + 1` consecutive losses).
    pub run_lengths: Vec<usize>,
    /// Wald–Wolfowitz runs test on the loss indicator sequence (`None` for
    /// degenerate sequences).
    pub runs_test: Option<RunsTestSnapshot>,
    /// χ² lag-1 independence test (`None` for degenerate sequences).
    pub lag1_test: Option<Chi2Snapshot>,
}

impl LossSnapshot {
    /// The paper's random-loss verdict: losses look independent when the
    /// lag-1 χ² test does not reject at the given significance level
    /// (and trivially when there are too few losses to test).
    pub fn losses_look_random(&self, alpha: f64) -> bool {
        match &self.lag1_test {
            Some(t) => t.p_value > alpha,
            None => true,
        }
    }
}

/// Serializable summary of a runs test.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RunsTestSnapshot {
    /// Observed runs.
    pub runs: usize,
    /// Expected runs under independence.
    pub expected: f64,
    /// z-score.
    pub z: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

/// Serializable summary of a χ² test.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Chi2Snapshot {
    /// χ²(1) statistic.
    pub statistic: f64,
    /// p-value.
    pub p_value: f64,
}

/// The raw [`StreamingLoss`] segment summary: exactly the internal fields,
/// exposed so the wire layer can round-trip an estimator bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossWireState {
    /// Probes seen.
    pub sent: u64,
    /// Probes lost.
    pub lost: u64,
    /// Lag-1 `delivered → delivered` transitions.
    pub n00: u64,
    /// Lag-1 `delivered → lost` transitions.
    pub n01: u64,
    /// Lag-1 `lost → delivered` transitions.
    pub n10: u64,
    /// Lag-1 `lost → lost` transitions.
    pub n11: u64,
    /// First flag of the segment (`None` when empty).
    pub first: Option<bool>,
    /// Last flag of the segment (`None` when empty).
    pub last: Option<bool>,
    /// Closed loss run starting at the segment's first record.
    pub head_run: u64,
    /// Open loss run ending at the segment's last record.
    pub tail_run: u64,
    /// Interior runs: `closed[k]` runs of `k + 1` consecutive losses.
    pub closed: Vec<u64>,
}

impl StreamingLoss {
    /// An empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Probes seen so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Losses seen so far.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Record the next probe's outcome (`true` = lost).
    pub fn push(&mut self, lost: bool) {
        if let Some(prev) = self.last {
            match (prev, lost) {
                (false, false) => self.n00 += 1,
                (false, true) => self.n01 += 1,
                (true, false) => self.n10 += 1,
                (true, true) => self.n11 += 1,
            }
        }
        if self.first.is_none() {
            self.first = Some(lost);
        }
        if lost {
            self.lost += 1;
            self.tail_run += 1;
        } else if self.tail_run > 0 {
            // A maximal loss run just closed. The run that began at record
            // zero becomes the head run (it can still fuse leftward in a
            // merge); anything later is interior and immutable.
            if self.first == Some(true) && self.head_run == 0 {
                self.head_run = self.tail_run;
            } else {
                self.close_run(self.tail_run);
            }
            self.tail_run = 0;
        }
        self.sent += 1;
        self.last = Some(lost);
    }

    fn close_run(&mut self, len: u64) {
        let idx = (len - 1) as usize;
        if idx >= self.closed.len() {
            self.closed.resize(idx + 1, 0);
        }
        self.closed[idx] += 1;
    }

    /// Fold `other` — the summary of the records immediately following this
    /// segment — into `self`. Exact and associative.
    pub fn merge(&mut self, other: &StreamingLoss) {
        if other.sent == 0 {
            return;
        }
        if self.sent == 0 {
            *self = other.clone();
            return;
        }
        // Junction transition: self's last record is adjacent to other's
        // first.
        let junction = (
            self.last.expect("sent > 0 implies a last record"),
            other.first.expect("sent > 0 implies a first record"),
        );
        match junction {
            (false, false) => self.n00 += 1,
            (false, true) => self.n01 += 1,
            (true, false) => self.n10 += 1,
            (true, true) => self.n11 += 1,
        }
        self.n00 += other.n00;
        self.n01 += other.n01;
        self.n10 += other.n10;
        self.n11 += other.n11;

        // Run fusion across the junction. An all-lost segment is one still
        // open run (head_run 0, tail_run = sent).
        let a_all_lost = self.lost == self.sent;
        let b_all_lost = other.lost == other.sent;
        match (a_all_lost, b_all_lost) {
            (true, true) => {
                self.tail_run = self.sent + other.sent;
            }
            (true, false) => {
                // Self's single open run fuses with other's head region and
                // is closed by other's first delivered record.
                self.head_run = self.sent + other.head_run;
                self.tail_run = other.tail_run;
            }
            (false, true) => {
                self.tail_run += other.sent;
            }
            (false, false) => {
                let fused = self.tail_run + other.head_run;
                if fused > 0 {
                    self.close_run(fused);
                }
                self.tail_run = other.tail_run;
            }
        }
        for (i, &c) in other.closed.iter().enumerate() {
            if c > 0 {
                if i >= self.closed.len() {
                    self.closed.resize(i + 1, 0);
                }
                self.closed[i] += c;
            }
        }

        self.sent += other.sent;
        self.lost += other.lost;
        self.last = other.last;
    }

    /// The raw segment-summary state, for serialization. Field-for-field
    /// with the internal representation (including any trailing zeros in
    /// the closed-run vector), so `from_wire_state(wire_state())` is exact.
    pub fn wire_state(&self) -> LossWireState {
        LossWireState {
            sent: self.sent,
            lost: self.lost,
            n00: self.n00,
            n01: self.n01,
            n10: self.n10,
            n11: self.n11,
            first: self.first,
            last: self.last,
            head_run: self.head_run,
            tail_run: self.tail_run,
            closed: self.closed.clone(),
        }
    }

    /// Rebuild from a previously captured [`LossWireState`].
    ///
    /// Total: every segment-summary invariant the monoid maintains is
    /// re-checked (with overflow-checked arithmetic), so a hostile state
    /// either comes back `Err` or yields an estimator whose `snapshot()`
    /// and `merge()` behave exactly like one built by `push()`.
    pub fn from_wire_state(s: LossWireState) -> Result<Self, &'static str> {
        if s.sent == 0 {
            let canonical = s.lost == 0
                && s.n00 == 0
                && s.n01 == 0
                && s.n10 == 0
                && s.n11 == 0
                && s.first.is_none()
                && s.last.is_none()
                && s.head_run == 0
                && s.tail_run == 0
                && s.closed.is_empty();
            return if canonical {
                Ok(StreamingLoss::default())
            } else {
                Err("loss: non-canonical empty state")
            };
        }
        let (first, last) = match (s.first, s.last) {
            (Some(f), Some(l)) => (f, l),
            _ => return Err("loss: missing boundary flags"),
        };
        if s.lost > s.sent {
            return Err("loss: lost exceeds sent");
        }
        // Lag-1 transitions: exactly one per adjacent pair.
        let transitions = s
            .n00
            .checked_add(s.n01)
            .and_then(|t| t.checked_add(s.n10))
            .and_then(|t| t.checked_add(s.n11))
            .ok_or("loss: transition count overflow")?;
        if transitions != s.sent - 1 {
            return Err("loss: transition count mismatch");
        }
        // Every lost record either opens the segment or follows a
        // transition into the loss state — and dually for deliveries.
        if s.n01 + s.n11 + u64::from(first) != s.lost {
            return Err("loss: loss-entry count mismatch");
        }
        if s.n00 + s.n10 + u64::from(!first) != s.sent - s.lost {
            return Err("loss: delivery-entry count mismatch");
        }
        // Boundary runs are consistent with the boundary flags.
        if (s.tail_run > 0) != last {
            return Err("loss: tail run disagrees with last flag");
        }
        if !first && s.head_run != 0 {
            return Err("loss: head run without a leading loss");
        }
        let all_lost = s.lost == s.sent;
        if all_lost {
            // One still-open run spanning the whole segment.
            if s.head_run != 0 || s.tail_run != s.sent || !s.closed.is_empty() {
                return Err("loss: all-lost run accounting mismatch");
            }
        } else if first && s.head_run == 0 {
            return Err("loss: leading loss run never closed");
        }
        // Every loss belongs to exactly one run: head + tail + interior.
        let mut run_losses = s
            .head_run
            .checked_add(s.tail_run)
            .ok_or("loss: run length overflow")?;
        for (i, &c) in s.closed.iter().enumerate() {
            let len = (i as u64)
                .checked_add(1)
                .and_then(|l| l.checked_mul(c))
                .ok_or("loss: run length overflow")?;
            run_losses = run_losses
                .checked_add(len)
                .ok_or("loss: run length overflow")?;
        }
        if run_losses != s.lost {
            return Err("loss: run mass mismatch");
        }
        Ok(StreamingLoss {
            sent: s.sent,
            lost: s.lost,
            n00: s.n00,
            n01: s.n01,
            n10: s.n10,
            n11: s.n11,
            first: s.first,
            last: s.last,
            head_run: s.head_run,
            tail_run: s.tail_run,
            closed: s.closed,
        })
    }

    /// Current loss metrics of the pushed sequence.
    pub fn snapshot(&self) -> LossSnapshot {
        let sent = self.sent as usize;
        let lost = self.lost as usize;
        let ulp = if sent == 0 {
            0.0
        } else {
            lost as f64 / sent as f64
        };

        let cond_base = self.n10 + self.n11;
        let clp = if cond_base == 0 {
            None
        } else {
            Some(self.n11 as f64 / cond_base as f64)
        };
        let plg_palm = clp.and_then(|c| if c < 1.0 { Some(1.0 / (1.0 - c)) } else { None });

        // Reassemble the run-length distribution: interior runs plus the two
        // boundary runs (for the full sequence those are ordinary maximal
        // runs — nothing left to fuse with).
        let mut runs_by_len: Vec<usize> = self.closed.iter().map(|&c| c as usize).collect();
        let mut add_run = |len: u64| {
            if len > 0 {
                let idx = (len - 1) as usize;
                if idx >= runs_by_len.len() {
                    runs_by_len.resize(idx + 1, 0);
                }
                runs_by_len[idx] += 1;
            }
        };
        add_run(self.head_run);
        add_run(self.tail_run);
        while runs_by_len.last() == Some(&0) {
            runs_by_len.pop();
        }
        let num_runs = runs_by_len.iter().sum::<usize>();
        // Every loss belongs to exactly one maximal run, so the sum of
        // run lengths is exactly `lost`.
        let plg_measured = if num_runs == 0 {
            None
        } else {
            Some(lost as f64 / num_runs as f64)
        };

        // Wald–Wolfowitz runs (runs of equal values, both kinds): one run
        // plus one per adjacent unequal pair.
        let ww_runs = (1 + self.n01 + self.n10) as usize;
        let runs_test =
            runs_test_from_counts(lost, sent - lost, ww_runs).map(|r| RunsTestSnapshot {
                runs: r.runs,
                expected: r.expected,
                z: r.z,
                p_value: r.p_value,
            });
        let lag1_test =
            lag1_independence_from_counts(self.n00, self.n01, self.n10, self.n11).map(|t| {
                Chi2Snapshot {
                    statistic: t.statistic,
                    p_value: t.p_value,
                }
            });

        LossSnapshot {
            sent,
            lost,
            ulp,
            clp,
            plg_measured,
            plg_palm,
            run_lengths: runs_by_len,
            runs_test,
            lag1_test,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive run accounting over the materialized sequence: the oracle
    /// for the O(1)-state estimator.
    fn batch_runs(flags: &[bool]) -> Vec<usize> {
        let mut raw = Vec::new();
        let mut cur = 0usize;
        for &f in flags {
            if f {
                cur += 1;
            } else if cur > 0 {
                raw.push(cur);
                cur = 0;
            }
        }
        if cur > 0 {
            raw.push(cur);
        }
        let max = raw.iter().copied().max().unwrap_or(0);
        let mut out = vec![0usize; max];
        for r in raw {
            out[r - 1] += 1;
        }
        out
    }

    fn lcg_flags(n: usize, p: f64, seed: u64) -> Vec<bool> {
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
    fn matches_batch_run_accounting() {
        for (n, p, seed) in [(0, 0.0, 1), (1, 1.0, 2), (500, 0.3, 3), (500, 0.9, 4)] {
            let flags = lcg_flags(n, p, seed);
            let mut s = StreamingLoss::new();
            for &f in &flags {
                s.push(f);
            }
            let snap = s.snapshot();
            assert_eq!(snap.run_lengths, batch_runs(&flags), "n={n} p={p}");
            assert_eq!(snap.lost, flags.iter().filter(|&&b| b).count());
        }
    }

    #[test]
    fn merge_equals_sequential_at_every_split() {
        let flags = lcg_flags(200, 0.4, 7);
        let mut whole = StreamingLoss::new();
        for &f in &flags {
            whole.push(f);
        }
        for split in 0..=flags.len() {
            let mut a = StreamingLoss::new();
            let mut b = StreamingLoss::new();
            for &f in &flags[..split] {
                a.push(f);
            }
            for &f in &flags[split..] {
                b.push(f);
            }
            a.merge(&b);
            // closed vecs may differ in trailing zeros; compare snapshots
            // and the raw counters that matter.
            assert_eq!(a.sent, whole.sent, "split {split}");
            assert_eq!(
                serde_json::to_string(&a.snapshot()).unwrap(),
                serde_json::to_string(&whole.snapshot()).unwrap(),
                "split {split}"
            );
        }
    }

    #[test]
    fn all_lost_and_all_delivered() {
        let mut all_lost = StreamingLoss::new();
        for _ in 0..10 {
            all_lost.push(true);
        }
        let snap = all_lost.snapshot();
        assert_eq!(snap.ulp, 1.0);
        assert_eq!(snap.clp, Some(1.0));
        assert_eq!(snap.plg_palm, None);
        assert_eq!(snap.plg_measured, Some(10.0));
        assert_eq!(snap.run_lengths, vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 1]);

        let mut ok = StreamingLoss::new();
        for _ in 0..10 {
            ok.push(false);
        }
        let snap = ok.snapshot();
        assert_eq!(snap.lost, 0);
        assert_eq!(snap.clp, None);
        assert!(snap.run_lengths.is_empty());
    }
}
