//! Deterministic event queue.
//!
//! A discrete-event simulator is only reproducible if simultaneous events
//! are popped in a well-defined order. [`EventQueue`] orders events by
//! `(time, lane)`:
//!
//! * Ordinary events get a **local lane** — the insertion sequence number
//!   with the top bit set — so same-time events pop in FIFO order.
//! * Events that can cross a partition boundary in a parallel run are
//!   scheduled through [`EventQueue::schedule_keyed`] with a
//!   **content-derived lane** (the packet id). Content lanes compare below
//!   all local lanes, so the tie order of boundary events at one instant
//!   depends only on *which packets* are involved — never on which
//!   partition inserted them first — which is what keeps a partitioned run
//!   bit-identical to the serial one (see DESIGN.md §13).
//!
//! No two pending events share a `(time, lane)` key, so the key is a
//! total order and the pop sequence is fixed by the keys alone. The queue
//! is a `std::collections::BinaryHeap` on that key: the engine keeps only
//! what is in flight queued (a few dozen events on the paper sweeps;
//! DESIGN.md §9, "Event queue"), where a heap's O(log n) is a handful of
//! comparisons. Its buffer is kept across [`EventQueue::clear`], so a
//! reset queue schedules and pops without fresh allocation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Lane bit distinguishing locally ordered events (FIFO by insertion) from
/// content-keyed events. Content lanes — packet ids — are always below
/// `2^63`, so every content-keyed event at an instant sorts before every
/// local event at the same instant, in both serial and partitioned runs.
pub const LOCAL_LANE: u64 = 1 << 63;

/// A pending event. Ordered inverted on `(at, lane)` so `BinaryHeap` (a
/// max-heap) pops the earliest key first.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    lane: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    /// `(at, lane)` as one integer, so that one `u128` comparison orders
    /// two events: faster on the benchmark's hold model
    /// (`sim.queue_ops_per_s`) than comparing the fields one by one.
    fn key(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.lane)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        other.key().cmp(&self.key())
    }
}

/// A time-ordered queue of simulation events with deterministic
/// tie-breaking (FIFO for local events, packet-id order for keyed events).
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
    /// Lane of the last popped event: with `now`, the key of the event
    /// being handled.
    lane: u64,
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
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            lane: 0,
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
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Largest number of events pending at once since the queue was made
    /// or last [`EventQueue::clear`]ed.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Empty the queue and rewind the clock to zero, **keeping** the heap's
    /// allocation for reuse. The peak-depth statistic and sequence counter
    /// reset too, so a cleared queue is observationally a fresh one.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        self.lane = 0;
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
        self.heap.push(Scheduled { at, lane, payload });
        self.peak = self.peak.max(self.heap.len());
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Scheduled { at, lane, payload } = self.heap.pop()?;
        debug_assert!(at >= self.now);
        self.now = at;
        self.lane = lane;
        Some((at, payload))
    }

    /// Pop the next event only if it is scheduled at or before `horizon`.
    ///
    /// Events after the horizon stay queued and the clock does not advance,
    /// so a caller can interleave simulation with external control at fixed
    /// points in time.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.at > horizon {
            return None;
        }
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

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
        // Events spread over ~3.8 s, scheduled latest first.
        let mut q = EventQueue::new();
        for i in (0..40u64).rev() {
            q.schedule(SimTime::from_millis(i * 97), i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..40).collect::<Vec<_>>());
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

    /// An event scheduled through `schedule_keyed` on the `i`-th reserved
    /// lane pops exactly where the `i`-th of the reserved `schedule` calls
    /// would have popped, on the same lane: after the locals scheduled
    /// before the reservation, before those scheduled after it, however
    /// late and in whatever order the block is filled in.
    #[test]
    fn reserved_lanes_pop_where_the_reserved_schedules_would_have() {
        let t = SimTime::from_millis(5);
        let block = ["r0", "r1", "r2"];
        let mut direct = EventQueue::new();
        direct.schedule(t, "before");
        for name in block {
            direct.schedule(t, name);
        }
        direct.schedule(t, "after");

        let mut reserved = EventQueue::new();
        reserved.schedule(t, "before");
        let first = reserved.reserve_lanes(3);
        reserved.schedule(t, "after");
        let lanes: Vec<_> = (first..).zip(block).collect();
        for &(lane, name) in lanes.iter().rev() {
            reserved.schedule_keyed(t, lane, name);
        }

        let drain = |q: &mut EventQueue<&'static str>| {
            std::iter::from_fn(|| q.pop().map(|(_, e)| (e, q.lane()))).collect::<Vec<_>>()
        };
        let order = drain(&mut reserved);
        assert_eq!(order, drain(&mut direct));
        let names: Vec<_> = order.iter().map(|&(e, _)| e).collect();
        assert_eq!(names, vec!["before", "r0", "r1", "r2", "after"]);
    }
}
