//! A count vector that stores only its occupied span.
//!
//! The quantile sketch's buckets and the phase grid's cells share a shape:
//! a long, fixed index range of which one session touches a small cluster.
//! [`Span`] keeps the counts from the lowest non-zero index to the highest
//! and nothing else, so the estimators built on it cost what they hold,
//! not what their layout could hold.

/// Counts over the index range `first..first + counts.len()`; every index
/// outside it counts zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Span {
    /// Index of `counts[0]`; 0 while the span is empty.
    first: usize,
    /// Empty, or both ends non-zero, so equal contents mean equal fields.
    counts: Vec<u64>,
}

/// Why [`Span::from_parts`] rejected a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpanError {
    /// The span reaches past the layout's last index.
    PastLayout,
    /// The span starts or ends with a zero count (or is empty and does
    /// not start at 0).
    Untrimmed,
    /// The counts sum past `u64::MAX`.
    Overflow,
}

impl Span {
    /// Index of the first stored count: the lowest non-zero index, or 0.
    pub(crate) fn first(&self) -> usize {
        self.first
    }

    /// The stored counts, from index [`Span::first`] on.
    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Add one at index `i`.
    pub(crate) fn bump(&mut self, i: usize) {
        // Below `first` the offset wraps past any length, so one bounds
        // check covers both ends of the span.
        match self.counts.get_mut(i.wrapping_sub(self.first)) {
            Some(c) => *c += 1,
            None => {
                self.widen(i, i + 1);
                self.counts[i - self.first] += 1;
            }
        }
    }

    /// Grow the stored span to cover indices `lo..hi` (a non-empty range).
    #[cold]
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.first = lo;
        } else if lo < self.first {
            let grow = self.first - lo;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.first = lo;
        }
        let len = hi.max(self.first + self.counts.len()) - self.first;
        self.counts.resize(len, 0);
    }

    /// Add `other`'s counts index by index.
    pub(crate) fn merge(&mut self, other: &Span) {
        if other.counts.is_empty() {
            return;
        }
        self.widen(other.first, other.first + other.counts.len());
        let at = &mut self.counts[other.first - self.first..];
        for (a, &b) in at.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Rebuild a span from its parts, with the sum of its counts. Accepts
    /// exactly what `bump` and `merge` produce inside a layout of `limit`
    /// indices: a trimmed span ending at or before `limit`, whose counts
    /// sum without overflow.
    pub(crate) fn from_parts(
        first: usize,
        counts: Vec<u64>,
        limit: usize,
    ) -> Result<(Span, u64), SpanError> {
        if first
            .checked_add(counts.len())
            .is_none_or(|end| end > limit)
        {
            return Err(SpanError::PastLayout);
        }
        let trimmed = match (counts.first(), counts.last()) {
            (Some(&lo), Some(&hi)) => lo != 0 && hi != 0,
            _ => first == 0,
        };
        if !trimmed {
            return Err(SpanError::Untrimmed);
        }
        let mut total = 0u64;
        for &c in &counts {
            total = total.checked_add(c).ok_or(SpanError::Overflow)?;
        }
        Ok((Span { first, counts }, total))
    }
}
