//! Deterministic event queue.
//!
//! A discrete-event simulator is only reproducible if simultaneous events
//! are popped in a well-defined order. [`EventQueue`] orders events by
//! `(time, lane)`:
//!
//! * Ordinary events get a **local lane** — the insertion sequence number
//!   with the top bit set — so same-time events pop in FIFO order exactly
//!   as before.
//! * Events that can cross a partition boundary in a parallel run are
//!   scheduled through [`EventQueue::schedule_keyed`] with a
//!   **content-derived lane** (the packet id). Content lanes compare below
//!   all local lanes, so the tie order of boundary events at one instant
//!   depends only on *which packets* are involved — never on which
//!   partition inserted them first — which is what keeps a partitioned run
//!   bit-identical to the serial one (see DESIGN.md §13).
//!
//! ## Implementation: a two-level indexed bucket queue
//!
//! Simulation timestamps are integer nanoseconds ([`SimTime`]), which makes
//! them directly indexable: instead of a comparison-based heap, events hash
//! into a ring of `RING_SIZE` buckets of `2^BUCKET_SHIFT` ns each
//! (≈ 2.1 ms per bucket, ≈ 1.07 s per ring revolution; 512 slot headers
//! keep the index L1-resident). The ring is circular over *absolute*
//! bucket indices: anything within one revolution of the drain front goes
//! straight to its slot. Only events more than a revolution ahead wait in
//! a **spill vector**, sorted lazily (descending) at most once per batch
//! of far-future pushes; as the window advances, the spill tail — the
//! minimum keys — is popped into the ring. Runtime scheduling rarely
//! touches the spill (the engine's event horizon is milliseconds, and its
//! traffic sources keep one packet each in the queue), so the sort is
//! rarely invalidated mid-run. This replaces the old
//! `BTreeMap<epoch, Vec>`: one flat allocation, one amortized sort, no
//! per-epoch tree nodes.
//!
//! The engine's event pattern is strongly time-local — a popped arrival
//! schedules a transmission-done a few hundred µs out — so nearly every
//! `schedule` lands in the current or a nearby bucket (an O(1) push), and
//! `pop` takes from a presorted *run* of the current bucket's events.
//! Events scheduled **into the bucket currently being drained** are
//! sorted-inserted straight into the run while it is small (buckets are a
//! handful of events, so the memmove beats heap maintenance plus a per-pop
//! merge comparison); past a fixed splice bound (`RUN_SPLICE_MAX`, 32) they
//! go to a side min-heap
//! merged on the fly, keeping the adversarial same-bucket cascade at
//! O(log k) instead of an O(k) splice.
//! Batch consumers ([`EventQueue::begin_bucket`] +
//! [`EventQueue::pop_in_bucket`]) check out a bucket once and drain it
//! without re-touching the ring index per event — the engine's hot loop.
//! Advancing to the next bucket probes slot lengths linearly from the
//! cursor. Since the engine runs most hops without queueing them, the
//! sweeps keep about one event per bucket or fewer, so the probe passes
//! a few empty slots.
//!
//! The original `BinaryHeap` implementation is retained as
//! [`reference::BinaryHeapQueue`] and pinned against this one by
//! differential tests below (including a property test that hammers epoch
//! boundaries; see `crates/sim/tests/properties.rs`).
//!
//! Buffers are reused across [`EventQueue::clear`], so a reset queue
//! schedules and pops without fresh allocation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the bucket width in nanoseconds (2^21 ns ≈ 2.1 ms). Wider
/// buckets than the original 262 µs amortize per-bucket checkout over ~2-3
/// events; together with the smaller ring this measured ~5% faster than
/// the (18, 12) geometry on the δ=50 ms scenario microbench.
pub(crate) const BUCKET_SHIFT: u32 = 21;
/// log2 of the number of buckets in the ring.
pub(crate) const RING_BITS: u32 = 9;
/// Buckets per epoch.
const RING_SIZE: usize = 1 << RING_BITS;
/// Mask extracting a ring slot from an absolute bucket index.
const RING_MASK: u64 = (RING_SIZE as u64) - 1;
/// Largest checked-out run an in-bucket schedule still splices into by
/// sorted insert; beyond this the event goes to the `late` min-heap
/// instead, so a same-bucket cascade of k events costs O(k log k), not
/// the O(k²) memmove a pure sorted-vector splice degrades to.
const RUN_SPLICE_MAX: usize = 32;

/// Lane bit distinguishing locally ordered events (FIFO by insertion) from
/// content-keyed events. Content lanes — packet ids — are always below
/// `2^63`, so every content-keyed event at an instant sorts before every
/// local event at the same instant, in both serial and partitioned runs.
pub const LOCAL_LANE: u64 = 1 << 63;

/// `(time_ns, lane, payload)` — the queue's internal event record.
type Entry<E> = (u64, u64, E);

/// An event scheduled into the bucket being drained after its run grew
/// past [`RUN_SPLICE_MAX`]. Ordered inverted so `BinaryHeap` (a max-heap)
/// pops the earliest `(key, lane)` first.
#[derive(Debug)]
struct LateEntry<E> {
    key: u64,
    lane: u64,
    payload: E,
}

impl<E> PartialEq for LateEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.lane == other.lane
    }
}
impl<E> Eq for LateEntry<E> {}

impl<E> PartialOrd for LateEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for LateEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.lane.cmp(&self.lane))
    }
}

/// A time-ordered queue of simulation events with deterministic
/// tie-breaking (FIFO for local events, packet-id order for keyed events).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The current bucket's events, sorted **descending** by `(time, lane)`
    /// so the next event pops from the back in O(1).
    run: Vec<Entry<E>>,
    /// Absolute bucket index `run` (and `late`) belong to; only meaningful
    /// while either is non-empty. Events scheduled into the bucket *after*
    /// checkout are sorted-inserted directly into `run` while it is small
    /// (a memmove of a few 32-byte entries beats two binary-heap operations
    /// plus a merge comparison on every pop) and pushed onto `late` once it
    /// is not.
    run_bucket: u64,
    /// Overflow for in-drain schedules into an already-large `run`; merged
    /// with it on the fly by [`EventQueue::pop_in_bucket`]. Empty in the
    /// engine's steady state — realistic buckets never grow near
    /// [`RUN_SPLICE_MAX`].
    late: BinaryHeap<LateEntry<E>>,
    /// Buckets of the current epoch, unsorted within a bucket.
    ring: Vec<Vec<Entry<E>>>,
    /// Events currently held in `ring` (excludes `run`).
    ring_len: usize,
    /// Events in epochs after the current one. Unsorted until an epoch
    /// boundary forces a (descending) sort; the sorted tail then feeds
    /// successive epochs without re-sorting until new far-future events
    /// arrive.
    spill: Vec<Entry<E>>,
    /// Minimum key present in `spill` (`u64::MAX` when empty).
    spill_min: u64,
    /// Whether `spill` is currently sorted descending by `(key, lane)`.
    spill_sorted: bool,
    /// Epoch the ring currently covers.
    epoch: u64,
    /// Next ring slot to scan for the following pop.
    cursor: usize,
    next_seq: u64,
    now: SimTime,
    /// Lane of the last popped event: with `now`, the key of the event
    /// being handled.
    lane: u64,
    len: usize,
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            run: Vec::new(),
            run_bucket: 0,
            late: BinaryHeap::new(),
            ring: (0..RING_SIZE).map(|_| Vec::new()).collect(),
            ring_len: 0,
            spill: Vec::new(),
            spill_min: u64::MAX,
            spill_sorted: true,
            epoch: 0,
            cursor: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            lane: 0,
            len: 0,
            peak: 0,
        }
    }

    /// The current simulated time: the timestamp of the last popped event
    /// (zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The lane of the last popped event (zero before any pop). With
    /// [`EventQueue::now`] it is the `(time, lane)` key of the event being
    /// handled, which a caller that runs some events outside the queue
    /// compares against the keys those events would have had.
    pub fn lane(&self) -> u64 {
        self.lane
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of events ever pending at once over the queue's
    /// lifetime (survives [`EventQueue::clear`] until explicitly reset by
    /// constructing anew).
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Empty the queue and rewind the clock to zero, **keeping** every
    /// internal buffer allocation for reuse. The peak-depth statistic and
    /// sequence counter reset too, so a cleared queue is observationally a
    /// fresh one.
    pub fn clear(&mut self) {
        self.run.clear();
        self.late.clear();
        if self.ring_len > 0 {
            for bucket in &mut self.ring {
                bucket.clear();
            }
        }
        self.ring_len = 0;
        self.spill.clear();
        self.spill_min = u64::MAX;
        self.spill_sorted = true;
        self.epoch = 0;
        self.cursor = 0;
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        self.lane = 0;
        self.len = 0;
        self.peak = 0;
    }

    /// Schedule `payload` at instant `at` on a local (FIFO) lane.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current simulated time — scheduling
    /// into the past is always a simulator bug, and failing fast here beats
    /// silently reordering causality.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_keyed(at, LOCAL_LANE | seq, payload);
    }

    /// Reserve the local lanes `n` successive [`EventQueue::schedule`]
    /// calls would take, and return the first. An event later scheduled
    /// through [`EventQueue::schedule_keyed`] on lane `first + i` pops
    /// exactly where the `i`-th of those calls would have put it, so a
    /// caller can schedule a block of events one at a time, each only when
    /// it is next.
    pub fn reserve_lanes(&mut self, n: u64) -> u64 {
        let first = LOCAL_LANE | self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedule `payload` at instant `at` with an explicit tie-breaking
    /// `lane`. Lanes below [`LOCAL_LANE`] must be unique among the events
    /// pending at one instant (the engine uses packet ids); they order
    /// before all [`EventQueue::schedule`]d events at the same instant.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past.
    pub fn schedule_keyed(&mut self, at: SimTime, lane: u64, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule event at {at:?} before current time {:?}",
            self.now
        );
        self.len += 1;
        if self.len > self.peak {
            self.peak = self.len;
        }
        let key = at.as_nanos();
        let bucket = key >> BUCKET_SHIFT;
        if bucket == self.run_bucket && !(self.run.is_empty() && self.late.is_empty()) {
            // Into the bucket currently being drained: splice it into the
            // descending run at its (time, lane) position so the next pop
            // still takes from the back in O(1) — unless the run has grown
            // past the splice bound (an adversarial same-bucket cascade),
            // where the side heap's O(log k) beats the O(k) memmove.
            if self.run.len() <= RUN_SPLICE_MAX && self.late.is_empty() {
                let pos = self.run.partition_point(|e| (e.0, e.1) > (key, lane));
                self.run.insert(pos, (key, lane, payload));
            } else {
                self.late.push(LateEntry { key, lane, payload });
            }
        } else {
            // The ring is circular over absolute bucket indices: anything
            // within RING_SIZE buckets of the drain front goes straight to
            // its slot — slots behind the cursor simply belong to the next
            // revolution and are reached after the epoch rolls. Nearly
            // every runtime-scheduled event (tx-done, arrivals a few ms
            // out) is far closer than a full revolution (~1 s); only route
            // shifts, direct pre-run injections and a traffic source's
            // next packet after a gap of more than a revolution spill, so
            // the spill's lazy sort is rarely invalidated mid-run.
            let front = (self.epoch << RING_BITS) + self.cursor as u64;
            debug_assert!(bucket >= front, "scheduling behind the drain front");
            if bucket.wrapping_sub(front) < RING_SIZE as u64 {
                let slot = (bucket & RING_MASK) as usize;
                self.ring[slot].push((key, lane, payload));
                self.ring_len += 1;
            } else {
                self.spill.push((key, lane, payload));
                self.spill_sorted = false;
                if key < self.spill_min {
                    self.spill_min = key;
                }
            }
        }
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        // The checked-out bucket (run + late overflow) precedes everything
        // still in the ring or spill.
        let run_key = self.run.last().map(|e| e.0);
        let late_key = self.late.peek().map(|l| l.key);
        match (run_key, late_key) {
            (Some(r), Some(l)) => return Some(SimTime::from_nanos(r.min(l))),
            (Some(k), None) | (None, Some(k)) => return Some(SimTime::from_nanos(k)),
            (None, None) => {}
        }
        let mut best = self.spill_min;
        if self.ring_len > 0 {
            // Slots behind the cursor hold the next revolution — later in
            // time than every slot ahead of it — so scanning in wrapped
            // order visits buckets in time order and the first non-empty
            // one holds the ring's minimum. The spill can still be earlier
            // (an old far-future entry whose bucket the window has since
            // approached), so the answer is the min of the two.
            let slot = self
                .next_occupied(self.cursor)
                .or_else(|| self.next_occupied(0));
            if let Some(s) = slot {
                let min = self.ring[s].iter().map(|e| e.0).min().expect("occupied");
                best = best.min(min);
            }
        }
        if best != u64::MAX {
            return Some(SimTime::from_nanos(best));
        }
        None
    }

    /// First occupied ring slot at index `from` or later. A linear probe:
    /// at the engine's event densities (0.4–1.4 queued events per 2.1 ms
    /// bucket on the paper sweeps) the next occupied slot is a few slots
    /// on.
    #[inline]
    fn next_occupied(&self, from: usize) -> Option<usize> {
        (from..RING_SIZE).find(|&s| !self.ring[s].is_empty())
    }

    /// Make the current bucket (`run`) non-empty if any event is
    /// pending; returns false when the queue is exhausted. After a `true`
    /// return, [`EventQueue::pop_in_bucket`] drains the checked-out bucket
    /// without touching the ring index again.
    pub fn begin_bucket(&mut self) -> bool {
        if !self.run.is_empty() || !self.late.is_empty() {
            return true;
        }
        loop {
            // Rescatter spill entries whose bucket has entered the drain
            // window. The spill is sorted descending at most once per batch
            // of pushes — runtime schedules almost always land in the ring —
            // so entries leave via the sorted tail exactly once.
            let window_end = (self.epoch << RING_BITS) + self.cursor as u64 + RING_SIZE as u64;
            if self.spill_min >> BUCKET_SHIFT < window_end {
                if !self.spill_sorted {
                    self.spill
                        .sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
                    self.spill_sorted = true;
                }
                while let Some(&(key, _, _)) = self.spill.last() {
                    if key >> BUCKET_SHIFT >= window_end {
                        break;
                    }
                    let entry = self.spill.pop().expect("peeked above");
                    let slot = ((entry.0 >> BUCKET_SHIFT) & RING_MASK) as usize;
                    self.ring[slot].push(entry);
                    self.ring_len += 1;
                }
                self.spill_min = self.spill.last().map_or(u64::MAX, |e| e.0);
            }
            if self.ring_len > 0 {
                if let Some(slot) = self.next_occupied(self.cursor) {
                    self.cursor = slot;
                    std::mem::swap(&mut self.ring[slot], &mut self.run);
                    self.ring_len -= self.run.len();
                    // Descending, so pops take from the back. At realistic
                    // densities most buckets hold a single event — skip the
                    // sort machinery entirely for those.
                    if self.run.len() > 1 {
                        self.run
                            .sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
                    }
                    self.run_bucket = (self.epoch << RING_BITS) | slot as u64;
                    return true;
                }
            }
            // Revolution exhausted. Ring entries may remain *behind* the
            // cursor (scheduled into the next revolution while this one
            // drained); they are all within one revolution of the front, so
            // roll one epoch and rescan. Otherwise jump straight to the
            // epoch of the spill's earliest bucket.
            if self.ring_len == 0 && self.spill.is_empty() {
                return false;
            }
            self.epoch = if self.ring_len > 0 {
                self.epoch + 1
            } else {
                self.spill_min >> (BUCKET_SHIFT + RING_BITS)
            };
            self.cursor = 0;
        }
    }

    /// Pop the next event of the checked-out bucket, advancing the clock to
    /// its timestamp; `None` once the bucket (including events scheduled
    /// into it mid-drain) is empty. Call [`EventQueue::begin_bucket`] to
    /// check out the next bucket.
    pub fn pop_in_bucket(&mut self) -> Option<(SimTime, E)> {
        // Steady-state fast path: no cascade overflow, pure run pop.
        let (key, lane, payload) = if self.late.is_empty() {
            self.run.pop()?
        } else {
            let take_late = match self.run.last() {
                Some(r) => {
                    let l = self.late.peek().expect("checked non-empty");
                    (l.key, l.lane) < (r.0, r.1)
                }
                None => true,
            };
            if take_late {
                let l = self.late.pop().expect("checked non-empty");
                (l.key, l.lane, l.payload)
            } else {
                self.run.pop().expect("matched Some above")
            }
        };
        self.len -= 1;
        let at = SimTime::from_nanos(key);
        debug_assert!(at >= self.now);
        self.now = at;
        self.lane = lane;
        Some((at, payload))
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.begin_bucket() {
            return None;
        }
        self.pop_in_bucket()
    }

    /// Pop the next event only if it is scheduled at or before `horizon`.
    ///
    /// Events after the horizon stay queued and the clock does not advance,
    /// so a caller can interleave simulation with external control at fixed
    /// points in time.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= horizon => self.pop(),
            _ => None,
        }
    }
}

/// The original comparison-based implementation, kept as a reference
/// oracle: the differential tests pin the indexed queue's pop order to it
/// (including across epoch boundaries; see
/// `crates/sim/tests/properties.rs`).
pub mod reference {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use crate::time::SimTime;

    #[derive(Debug)]
    struct Scheduled<E> {
        at: SimTime,
        lane: u64,
        payload: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.lane == other.lane
        }
    }
    impl<E> Eq for Scheduled<E> {}

    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so the earliest (time, lane)
            // pops first. Same-time local events pop in insertion order.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.lane.cmp(&self.lane))
        }
    }

    /// Binary-heap event queue with the same contract as
    /// [`super::EventQueue`].
    #[derive(Debug)]
    pub struct BinaryHeapQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        next_seq: u64,
        now: SimTime,
    }

    impl<E> Default for BinaryHeapQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> BinaryHeapQueue<E> {
        /// An empty queue with the clock at zero.
        pub fn new() -> Self {
            BinaryHeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: SimTime::ZERO,
            }
        }

        /// The current simulated time.
        pub fn now(&self) -> SimTime {
            self.now
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// True if no events are pending.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Schedule `payload` at instant `at` on a local (FIFO) lane
        /// (panics on past times).
        pub fn schedule(&mut self, at: SimTime, payload: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.schedule_keyed(at, super::LOCAL_LANE | seq, payload);
        }

        /// Schedule with an explicit tie-breaking lane, mirroring
        /// [`super::EventQueue::schedule_keyed`].
        pub fn schedule_keyed(&mut self, at: SimTime, lane: u64, payload: E) {
            assert!(
                at >= self.now,
                "cannot schedule event at {at:?} before current time {:?}",
                self.now
            );
            self.heap.push(Scheduled { at, lane, payload });
        }

        /// Timestamp of the next event without removing it.
        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|s| s.at)
        }

        /// Pop the next event, advancing the clock to its timestamp.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let s = self.heap.pop()?;
            debug_assert!(s.at >= self.now);
            self.now = s.at;
            Some((s.at, s.payload))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_lanes_order_before_local_events_at_one_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule(t, "local-0");
        q.schedule_keyed(t, 9, "keyed-9");
        q.schedule(t, "local-1");
        q.schedule_keyed(t, 2, "keyed-2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        // Content lanes first (by lane value), then locals in FIFO order —
        // regardless of interleaved insertion.
        assert_eq!(order, vec!["keyed-2", "keyed-9", "local-0", "local-1"]);
    }

    #[test]
    fn lane_is_the_last_popped_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule(t, "local");
        q.schedule_keyed(t, 9, "keyed");
        assert_eq!(q.pop().map(|(_, e)| e), Some("keyed"));
        assert_eq!(q.lane(), 9);
        assert_eq!(q.pop().map(|(_, e)| e), Some("local"));
        assert_eq!(q.lane(), LOCAL_LANE);
        q.clear();
        assert_eq!(q.lane(), 0);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_millis(7), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.pop();
        q.schedule(SimTime::from_millis(5), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.pop();
        q.schedule(SimTime::from_millis(10), 2); // same instant: fine
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "early");
        q.schedule(SimTime::from_millis(50), "late");
        assert_eq!(
            q.pop_until(SimTime::from_millis(20)).map(|(_, e)| e),
            Some("early")
        );
        assert_eq!(q.pop_until(SimTime::from_millis(20)), None);
        assert_eq!(q.len(), 1);
        // Clock did not jump past the horizon.
        assert_eq!(q.now(), SimTime::from_millis(10));
        assert_eq!(q.pop_until(SimTime::MAX).map(|(_, e)| e), Some("late"));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 1u32);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        // Re-schedule relative to the popped time, as the engine does.
        q.schedule(t + SimDuration::from_millis(2), 3);
        q.schedule(t + SimDuration::from_millis(1), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert_eq!(q.pop().map(|(_, e)| e), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn events_across_epochs_stay_ordered() {
        // Ring epoch is ~1.07 s; schedule across several epochs at once.
        let mut q = EventQueue::new();
        for i in (0..40u64).rev() {
            q.schedule(SimTime::from_millis(i * 97), i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..40).collect::<Vec<_>>());
    }

    /// Direct coverage of the spill vector: far-future events (many epochs
    /// out, interleaved with near events and re-sorts forced by repeated
    /// pushes) drain back out in exact `(time, lane)` order.
    #[test]
    fn far_future_spill_drains_in_order() {
        let epoch_ns = 1u64 << (BUCKET_SHIFT + RING_BITS);
        let mut q = EventQueue::new();
        // Three epochs of far-future events pushed out of order...
        for i in (0..30u64).rev() {
            q.schedule(SimTime::from_nanos((i % 3 + 1) * epoch_ns + i * 1000), i);
        }
        // ...plus near-term events in the current epoch.
        for i in 30..34u64 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        let mut popped = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((t, e)) = q.pop() {
            assert!(t >= last, "pop went backwards at {e}");
            last = t;
            popped.push(e);
            // Interleave new spill pushes mid-drain to force re-sorts.
            if e == 31 {
                q.schedule(SimTime::from_nanos(5 * epoch_ns), 100);
                q.schedule(SimTime::from_nanos(4 * epoch_ns), 101);
            }
        }
        assert_eq!(popped.len(), 36);
        // The mid-drain pushes come out last, ordered by time.
        assert_eq!(&popped[34..], &[101, 100]);
    }

    /// The spill keeps exact FIFO tie order for same-instant events even
    /// when they arrive split across separate (lazily sorted) batches.
    #[test]
    fn spill_preserves_fifo_ties_across_sort_batches() {
        let epoch_ns = 1u64 << (BUCKET_SHIFT + RING_BITS);
        let t = SimTime::from_nanos(3 * epoch_ns + 7);
        let mut q = EventQueue::new();
        q.schedule(t, 0u64);
        q.schedule(t, 1);
        // Force the first sort by crossing into an epoch, then add more
        // same-instant events to the (now sorted) spill.
        q.schedule(SimTime::from_nanos(epoch_ns), 99);
        assert_eq!(q.pop().map(|(_, e)| e), Some(99));
        q.schedule(t, 2);
        q.schedule(t, 3);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    /// An adversarial same-bucket cascade: every popped event schedules
    /// follow-ups into the bucket still being drained, growing the run far
    /// past `RUN_SPLICE_MAX` so the `late` heap path engages. Pop order
    /// must match the binary-heap oracle exactly, and no sorted insert may
    /// land in a run longer than the splice bound: that is the quadratic
    /// cliff the `late` heap exists to prevent, asserted structurally here
    /// rather than timed.
    #[test]
    fn same_bucket_cascade_overflows_to_late_heap_in_order() {
        let mut q = EventQueue::new();
        let mut oracle = reference::BinaryHeapQueue::new();
        let t0 = SimTime::from_nanos(10 << BUCKET_SHIFT);
        q.schedule(t0, 0u64);
        oracle.schedule(t0, 0u64);
        let mut next = 1u64;
        let mut late_peak = 0;
        loop {
            let (a, b) = (q.pop(), oracle.pop());
            assert_eq!(a, b);
            let Some((at, v)) = a else { break };
            if v < 400 {
                // Two follow-ups a few µs out — same 2.1 ms bucket.
                let jitter = (v.wrapping_mul(2_654_435_761)) % 3_000;
                for d in [jitter, 1_500 + jitter / 2] {
                    let at2 = at + SimDuration::from_nanos(d);
                    // Only a schedule into the drained bucket can grow
                    // `run` (the sorted insert), so its length before the
                    // call is the run the insert went into.
                    let run_before = q.run.len();
                    q.schedule(at2, next);
                    assert!(
                        q.run.len() == run_before || run_before <= RUN_SPLICE_MAX,
                        "event {next} sorted-inserted into a run of {run_before} \
                         (> RUN_SPLICE_MAX = {RUN_SPLICE_MAX}) instead of the late heap"
                    );
                    late_peak = late_peak.max(q.late.len());
                    oracle.schedule(at2, next);
                    next += 1;
                }
            }
        }
        assert!(q.is_empty());
        assert!(late_peak > 0, "the cascade never reached the late heap");
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule(SimTime::from_millis(i), i);
        }
        for _ in 0..5 {
            q.pop();
        }
        q.schedule(SimTime::from_millis(100), 99);
        assert_eq!(q.peak_len(), 10);
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn clear_resets_and_reuses() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule(SimTime::from_millis(i * 13), i);
        }
        for _ in 0..30 {
            q.pop();
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peak_len(), 0);
        // Scheduling at t = 0 after clear must work (clock rewound).
        q.schedule(SimTime::ZERO, 1u64);
        q.schedule(SimTime::from_millis(1), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
    }

    /// The differential oracle: a random mixed workload (bursts of
    /// schedules at clustered and far-flung times interleaved with pops,
    /// on both local and content lanes) must produce the exact pop
    /// sequence of the retained binary-heap implementation — times,
    /// payloads, clock values, and lengths.
    #[test]
    fn matches_binary_heap_reference_on_random_workload() {
        let mut rng = StdRng::seed_from_u64(0xb010_7e57);
        let mut fast = EventQueue::new();
        let mut oracle = reference::BinaryHeapQueue::new();
        let mut ticket = 0u64;
        for _ in 0..20_000 {
            if rng.gen_bool(0.55) || fast.is_empty() {
                let base = fast.now().as_nanos();
                // Mix of near-now (same bucket), mid-range (same epoch),
                // far-future (spill), and exactly-now events.
                let offset = match rng.gen_range(0u32..4) {
                    0 => 0,
                    1 => rng.gen_range(0u64..1 << BUCKET_SHIFT),
                    2 => rng.gen_range(0u64..1 << (BUCKET_SHIFT + RING_BITS)),
                    _ => rng.gen_range(0u64..1 << 34),
                };
                let at = SimTime::from_nanos(base + offset);
                if rng.gen_bool(0.2) {
                    // Content lane: unique by ticket, below LOCAL_LANE.
                    fast.schedule_keyed(at, ticket, ticket);
                    oracle.schedule_keyed(at, ticket, ticket);
                } else {
                    fast.schedule(at, ticket);
                    oracle.schedule(at, ticket);
                }
                ticket += 1;
            } else {
                assert_eq!(fast.pop(), oracle.pop());
                assert_eq!(fast.now(), oracle.now());
            }
            assert_eq!(fast.len(), oracle.len());
        }
        // Drain both completely.
        loop {
            let (a, b) = (fast.pop(), oracle.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
