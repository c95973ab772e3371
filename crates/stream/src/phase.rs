//! Incremental phase-plot density grid (the paper's Figures 3–7).
//!
//! The batch `probenet_core::PhasePlot` materializes every `(rtt_n,
//! rtt_{n+1})` point; at streaming rates that is unbounded memory for a
//! scatter nobody reads point-by-point. The online variant bins the points
//! into a fixed square density grid as they arrive: the same information
//! the phase-plot *figures* convey (where the mass sits, the diagonal
//! structure, compression streaks), in bounded memory.
//!
//! Storage follows the data, not the layout: the grid keeps only its
//! occupied row-major span, the counts from its first non-empty cell to
//! its last. One session's pairs cluster near the propagation delay and
//! along the compression line: RTTs of 140–400 ms fall in rows 4–12 of
//! the 64×64 grid over 0–2 s, so the span is at most those rows, and
//! that is what every push, merge, digest and frame copy touches.
//!
//! Pairing state is identical to the workload estimator: only the previous
//! record's RTT is retained, each consecutive delivered pair contributes one
//! point, and `merge` folds the single junction pair — so grid counts are
//! exact integers under any merge grouping.

use crate::fnv::fnv1a_span;
use crate::span::{Span, SpanError};
use serde::{Deserialize, Serialize};

/// Streaming 2-D density grid over consecutive-RTT pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDensity {
    lo: f64,
    hi: f64,
    bins: usize,
    /// Row-major `bins × bins` counts over the occupied span: cell
    /// `ix * bins + iy`, where `ix` bins `rtt_n` and `iy` bins `rtt_{n+1}`.
    grid: Span,
    pairs: u64,
    out_of_range: u64,
    first: Option<Option<u64>>,
    last: Option<Option<u64>>,
}

/// JSON-facing summary of a [`PhaseDensity`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseSnapshot {
    /// Grid lower edge (ms).
    pub lo_ms: f64,
    /// Grid upper edge (ms).
    pub hi_ms: f64,
    /// Bins per axis.
    pub bins: usize,
    /// Consecutive delivered pairs observed.
    pub pairs: u64,
    /// Pairs with either coordinate outside `[lo, hi)`.
    pub out_of_range: u64,
    /// Grid cells with at least one point.
    pub nonzero_cells: usize,
    /// FNV-1a digest of the full grid — pins every cell count without
    /// serializing `bins²` numbers.
    pub grid_fnv1a: String,
}

/// The raw [`PhaseDensity`] state: grid layout, counts and pairing state,
/// exposed so the wire layer can round-trip an estimator bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseWireState {
    /// Grid lower edge (ms).
    pub lo: f64,
    /// Grid upper edge (ms).
    pub hi: f64,
    /// Bins per axis.
    pub bins: usize,
    /// Row-major index of `span[0]`: the first non-empty cell, or 0 for
    /// an empty grid.
    pub grid_first: usize,
    /// Cell counts from `grid_first` to the last non-empty cell.
    pub span: Vec<u64>,
    /// Consecutive delivered pairs observed.
    pub pairs: u64,
    /// Pairs with either coordinate outside `[lo, hi)`.
    pub out_of_range: u64,
    /// RTT of the segment's first record (`None` until one arrives).
    pub first: Option<Option<u64>>,
    /// RTT of the segment's last record.
    pub last: Option<Option<u64>>,
}

impl PhaseDensity {
    /// A new grid over `[lo_ms, hi_ms)` per axis with `bins × bins` cells.
    ///
    /// # Panics
    /// Panics on a non-positive range, zero bins, or more than `usize::MAX`
    /// cells.
    pub fn new(lo_ms: f64, hi_ms: f64, bins: usize) -> Self {
        assert!(
            lo_ms.is_finite() && hi_ms.is_finite() && lo_ms < hi_ms,
            "bad range"
        );
        assert!(bins > 0, "need at least one bin");
        assert!(bins.checked_mul(bins).is_some(), "grid size overflow");
        PhaseDensity {
            lo: lo_ms,
            hi: hi_ms,
            bins,
            grid: Span::default(),
            pairs: 0,
            out_of_range: 0,
            first: None,
            last: None,
        }
    }

    fn axis_bin(&self, x_ms: f64) -> Option<usize> {
        if x_ms < self.lo || x_ms >= self.hi {
            return None;
        }
        let w = (self.hi - self.lo) / self.bins as f64;
        Some((((x_ms - self.lo) / w) as usize).min(self.bins - 1))
    }

    /// Record the next probe's RTT (`None` = lost), in sequence order.
    pub fn push(&mut self, rtt_ns: Option<u64>) {
        if let Some(prev) = self.last {
            self.fold_pair(prev, rtt_ns);
        }
        if self.first.is_none() {
            self.first = Some(rtt_ns);
        }
        self.last = Some(rtt_ns);
    }

    fn fold_pair(&mut self, prev: Option<u64>, cur: Option<u64>) {
        if let (Some(a), Some(b)) = (prev, cur) {
            self.pairs += 1;
            let (x, y) = (a as f64 / 1e6, b as f64 / 1e6);
            match (self.axis_bin(x), self.axis_bin(y)) {
                (Some(ix), Some(iy)) => self.grid.bump(ix * self.bins + iy),
                _ => self.out_of_range += 1,
            }
        }
    }

    /// Fold `other` (the records immediately following this segment) into
    /// `self`. Exact and associative (all state is integer counts).
    ///
    /// # Panics
    /// Panics if the grids have different layouts.
    pub fn merge(&mut self, other: &PhaseDensity) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins == other.bins,
            "phase grid layouts differ"
        );
        let Some(b_first) = other.first else {
            return;
        };
        if let Some(a_last) = self.last {
            self.fold_pair(a_last, b_first);
        } else {
            self.first = other.first;
        }
        self.grid.merge(&other.grid);
        self.pairs += other.pairs;
        self.out_of_range += other.out_of_range;
        self.last = other.last;
    }

    /// Pairs observed so far.
    pub fn pairs(&self) -> u64 {
        self.pairs
    }

    /// Row-major index of the first entry of [`PhaseDensity::counts`]:
    /// the first non-empty cell, or 0 for an empty grid.
    pub fn first_cell(&self) -> usize {
        self.grid.first()
    }

    /// The row-major cell counts over the occupied span, from cell
    /// [`PhaseDensity::first_cell`] to the last non-empty cell.
    pub fn counts(&self) -> &[u64] {
        self.grid.counts()
    }

    /// Bins per axis.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// The cell a point falls into, if inside the grid — exposed so tests
    /// can re-bin batch phase-plot points with the identical rule.
    pub fn cell_of(&self, x_ms: f64, y_ms: f64) -> Option<(usize, usize)> {
        Some((self.axis_bin(x_ms)?, self.axis_bin(y_ms)?))
    }

    /// The raw grid state, for serialization. Field-for-field with the
    /// internal representation, so `from_wire_state(wire_state())` is exact.
    pub fn wire_state(&self) -> PhaseWireState {
        PhaseWireState {
            lo: self.lo,
            hi: self.hi,
            bins: self.bins,
            grid_first: self.grid.first(),
            span: self.grid.counts().to_vec(),
            pairs: self.pairs,
            out_of_range: self.out_of_range,
            first: self.first,
            last: self.last,
        }
    }

    /// Rebuild from a previously captured [`PhaseWireState`].
    ///
    /// Total: layout sanity, the span and the pair mass balance
    /// (`Σ span + out_of_range == pairs`, overflow-checked) are verified,
    /// so a hostile state either comes back `Err` or behaves exactly like
    /// a grid built by `push()`. The span must lie inside the `bins²`
    /// cells and start and end with a non-empty cell (an empty span starts
    /// at 0), as `push` and `merge` leave it.
    pub fn from_wire_state(s: PhaseWireState) -> Result<Self, &'static str> {
        if !(s.lo.is_finite() && s.hi.is_finite() && s.lo < s.hi) {
            return Err("phase: bad range");
        }
        if s.bins == 0 {
            return Err("phase: zero bins");
        }
        let cells = s
            .bins
            .checked_mul(s.bins)
            .ok_or("phase: grid size overflow")?;
        let (grid, binned) =
            Span::from_parts(s.grid_first, s.span, cells).map_err(|e| match e {
                SpanError::PastLayout => "phase: span reaches past the grid",
                SpanError::Untrimmed => "phase: span starts or ends with an empty cell",
                SpanError::Overflow => "phase: count overflow",
            })?;
        let mass = binned
            .checked_add(s.out_of_range)
            .ok_or("phase: count overflow")?;
        if mass != s.pairs {
            return Err("phase: pair mass mismatch");
        }
        match (s.first, s.last) {
            (Some(_), Some(_)) => {}
            (None, None) => {
                if s.pairs != 0 {
                    return Err("phase: pairs without records");
                }
            }
            _ => return Err("phase: inconsistent boundary records"),
        }
        Ok(PhaseDensity {
            lo: s.lo,
            hi: s.hi,
            bins: s.bins,
            grid,
            pairs: s.pairs,
            out_of_range: s.out_of_range,
            first: s.first,
            last: s.last,
        })
    }

    /// Current summary.
    pub fn snapshot(&self) -> PhaseSnapshot {
        let (first, span) = (self.grid.first(), self.grid.counts());
        let trail = self.bins * self.bins - first - span.len();
        PhaseSnapshot {
            lo_ms: self.lo,
            hi_ms: self.hi,
            bins: self.bins,
            pairs: self.pairs,
            out_of_range: self.out_of_range,
            nonzero_cells: span.iter().filter(|&&c| c > 0).count(),
            grid_fnv1a: fnv1a_span(first, span, trail),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: f64) -> Option<u64> {
        Some((x * 1e6) as u64)
    }

    #[test]
    fn pairs_and_binning() {
        let mut p = PhaseDensity::new(0.0, 100.0, 10);
        for r in [ms(15.0), ms(25.0), None, ms(35.0), ms(45.0)] {
            p.push(r);
        }
        // Pairs: (15,25) and (35,45); the loss breaks (25,35). The span
        // runs from cell (1, 2) to cell (3, 4).
        assert_eq!(p.pairs(), 2);
        assert_eq!(p.first_cell(), 12);
        assert_eq!(p.counts().len(), 34 - 12 + 1);
        assert_eq!((p.counts()[0], p.counts()[22]), (1, 1));
        assert_eq!(p.snapshot().nonzero_cells, 2);
    }

    #[test]
    fn from_wire_state_accepts_only_trimmed_spans_inside_the_grid() {
        let mut p = PhaseDensity::new(0.0, 100.0, 10);
        for r in [ms(15.0), ms(25.0), None, ms(35.0), ms(45.0)] {
            p.push(r);
        }
        assert_eq!(PhaseDensity::from_wire_state(p.wire_state()), Ok(p.clone()));
        let empty = PhaseDensity::new(0.0, 100.0, 10);
        assert_eq!(PhaseDensity::from_wire_state(empty.wire_state()), Ok(empty));

        let with_span = |grid_first: usize, span: Vec<u64>| PhaseWireState {
            pairs: span.iter().sum(),
            grid_first,
            span,
            ..p.wire_state()
        };
        // The last cell is 99; the pair count always balances the span.
        assert!(PhaseDensity::from_wire_state(with_span(99, vec![2])).is_ok());
        let bad = [
            (5, vec![]),
            (12, vec![0, 2]),
            (12, vec![2, 0]),
            (99, vec![1, 1]),
            (100, vec![2]),
            (usize::MAX, vec![2]),
            (0, vec![1; 101]),
        ];
        for (first, span) in bad {
            let len = span.len();
            assert!(
                PhaseDensity::from_wire_state(with_span(first, span)).is_err(),
                "span at {first} of {len} cells"
            );
        }
    }

    #[test]
    fn out_of_range_counted_not_dropped() {
        let mut p = PhaseDensity::new(0.0, 10.0, 5);
        for r in [ms(5.0), ms(50.0)] {
            p.push(r);
        }
        assert_eq!(p.pairs(), 1);
        assert_eq!(p.snapshot().out_of_range, 1);
        assert_eq!(p.snapshot().nonzero_cells, 0);
    }

    #[test]
    fn merge_matches_sequential() {
        let rtts: Vec<Option<u64>> = (0..80)
            .map(|i| {
                if i % 11 == 5 {
                    None
                } else {
                    ms(40.0 + (i as f64 * 0.9).sin() * 30.0)
                }
            })
            .collect();
        let mut whole = PhaseDensity::new(0.0, 100.0, 16);
        for &r in &rtts {
            whole.push(r);
        }
        for split in [0, 1, 40, 79, 80] {
            let mut a = PhaseDensity::new(0.0, 100.0, 16);
            let mut b = PhaseDensity::new(0.0, 100.0, 16);
            for &r in &rtts[..split] {
                a.push(r);
            }
            for &r in &rtts[split..] {
                b.push(r);
            }
            a.merge(&b);
            assert_eq!(a, whole, "split {split}");
        }
    }
}
