//! A bounded single-producer/single-consumer channel with *accounted*
//! backpressure.
//!
//! The collector's contract is that no record is ever dropped silently: a
//! producer either blocks until there is room ([`Producer::send`]) or takes
//! an explicit rejection that increments a shared drop counter
//! ([`Producer::offer`]). The consumer can read that counter at any time,
//! and the collector surfaces it in every report — an assertable invariant
//! (`pushed_ok + dropped == produced`) rather than a log line.
//!
//! Implementation note: this is a mutex-and-condvar ring, not a lock-free
//! queue — the workspace forbids `unsafe`, and at the record sizes involved
//! (24 bytes) a `VecDeque` behind a `Mutex` sustains well over the 1M
//! records/sec aggregate the acceptance bar asks for, because producers and
//! the consumer exchange whole batches per lock acquisition (see
//! [`Consumer::drain`]).
//!
//! Each ring has one condvar, `not_full`, for the one party that waits on
//! a ring: a producer blocked in [`Producer::send`]. The consumer never
//! waits on a ring. The collector is one thread draining N rings, so it
//! cannot sleep on any single one; it sleeps on the one [`Doorbell`] all of
//! its rings share ([`Doorbell::channel`]). A producer rings it when its
//! enqueue finds the ring empty (the first record of a burst, not every
//! record) and once when it is dropped; the consumer calls
//! [`Doorbell::reset`], makes a pass over its rings with
//! [`Consumer::poll`], and calls [`Doorbell::wait`] when the pass moved
//! nothing. Ringing sets a flag under the doorbell's own lock, and
//! makes a futex wake only when the consumer is in fact asleep, so a busy
//! consumer costs its producers no syscall. A ring made by [`channel`] has
//! no doorbell and rings nothing.
//!
//! Why no wake-up is lost: the flag is cleared only by `reset`, before the
//! pass begins. If the pass finds ring R empty (under R's lock), an
//! enqueue to R it did not see came after that look, found R empty and
//! rang after the reset, so `wait` finds the flag set and returns at once.
//! An enqueue to a non-empty R rings nothing and needs nothing: the
//! records ahead of it are still to be drained, so the consumer has a pass
//! to make. A ring the reset did clear belongs to an enqueue made before
//! the pass, which the pass sees.
//! `tests/loom.rs` checks this over every interleaving.

use std::collections::VecDeque;

// Under `--cfg loom` the synchronisation primitives are swapped for the
// model-checked versions so `tests/loom.rs` can explore every interleaving
// of the ring (see DESIGN.md §12); production builds use std.
#[cfg(loom)]
use loom::sync::{
    atomic::{AtomicU64, Ordering},
    Arc, Condvar, Mutex,
};
#[cfg(not(loom))]
use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc, Condvar, Mutex,
};

struct Inner<T> {
    /// Starts unallocated and grows as records queue: a collector with
    /// thousands of mostly idle rings pays for what they hold, not for
    /// their capacity.
    queue: VecDeque<T>,
    /// Set when the producer has been dropped (no more data will arrive) or
    /// the consumer has been dropped (sends are pointless).
    producer_gone: bool,
    consumer_gone: bool,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    capacity: usize,
    dropped: AtomicU64,
    /// The consumer's doorbell, for rings made by [`Doorbell::channel`].
    bell: Option<Arc<Bell>>,
}

impl<T> Shared<T> {
    fn ring_bell(&self) {
        if let Some(bell) = &self.bell {
            bell.ring();
        }
    }
}

struct Bell {
    state: Mutex<BellState>,
    wake: Condvar,
}

#[derive(Default)]
struct BellState {
    /// Set by [`Bell::ring`], cleared by [`Doorbell::reset`].
    rung: bool,
    /// True while the consumer is blocked inside [`Doorbell::wait`].
    asleep: bool,
}

impl Bell {
    fn ring(&self) {
        let mut state = self.state.lock().expect("doorbell lock");
        if !state.rung {
            state.rung = true;
            // A notify with no waiter is still a futex syscall: skip it
            // unless the consumer is in fact asleep.
            if state.asleep {
                self.wake.notify_one();
            }
        }
    }
}

/// The wake target shared by every ring one consumer thread drains: rings
/// made by [`Doorbell::channel`] ring it, the consumer sleeps on it with
/// [`Doorbell::wait`]. Clones share the bell.
#[derive(Clone)]
pub struct Doorbell {
    bell: Arc<Bell>,
}

impl Default for Doorbell {
    fn default() -> Self {
        Doorbell::new()
    }
}

impl Doorbell {
    /// A doorbell nobody has rung.
    pub fn new() -> Doorbell {
        Doorbell {
            bell: Arc::new(Bell {
                state: Mutex::new(BellState::default()),
                wake: Condvar::new(),
            }),
        }
    }

    /// A bounded SPSC channel of the given capacity (≥ 1) whose producer
    /// rings this doorbell: on each enqueue that finds the ring empty and
    /// once when it is dropped.
    pub fn channel<T>(&self, capacity: usize) -> (Producer<T>, Consumer<T>) {
        new_channel(capacity, Some(Arc::clone(&self.bell)))
    }

    /// Forget every ring so far. The consumer calls this before each pass
    /// over its rings: whatever was enqueued before the call, the pass
    /// will see, so only a ring made after it is news.
    pub fn reset(&self) {
        self.bell.state.lock().expect("doorbell lock").rung = false;
    }

    /// Block until the doorbell has been rung since the last
    /// [`Doorbell::reset`] (return at once if it already has). No timeout:
    /// a consumer calls this only while a producer that will ring or drop
    /// still lives.
    pub fn wait(&self) {
        let mut state = self.bell.state.lock().expect("doorbell lock");
        state.asleep = true;
        while !state.rung {
            state = self.bell.wake.wait(state).expect("doorbell lock");
        }
        state.asleep = false;
    }

    /// Whether the consumer is blocked in [`Doorbell::wait`] right now.
    #[cfg(test)]
    pub(crate) fn has_sleeper(&self) -> bool {
        let state = self.bell.state.lock().expect("doorbell lock");
        state.asleep && !state.rung
    }
}

/// The sending half. Dropping it closes the channel.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half. Dropping it unblocks any blocked `send`.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

/// A bounded SPSC channel of the given capacity (≥ 1), with no doorbell:
/// its consumer polls.
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    new_channel(capacity, None)
}

fn new_channel<T>(capacity: usize, bell: Option<Arc<Bell>>) -> (Producer<T>, Consumer<T>) {
    assert!(capacity >= 1, "channel capacity must be at least 1");
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            producer_gone: false,
            consumer_gone: false,
        }),
        not_full: Condvar::new(),
        capacity,
        dropped: AtomicU64::new(0),
        bell,
    });
    (
        Producer {
            shared: Arc::clone(&shared),
        },
        Consumer { shared },
    )
}

impl<T> Producer<T> {
    /// Block until the value is enqueued. Returns `Err(value)` only if the
    /// consumer is gone (the value has nowhere to go).
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut inner = self.shared.inner.lock().expect("channel lock");
        loop {
            if inner.consumer_gone {
                return Err(value);
            }
            if inner.queue.len() < self.shared.capacity {
                let was_empty = inner.queue.is_empty();
                inner.queue.push_back(value);
                drop(inner);
                if was_empty {
                    self.shared.ring_bell();
                }
                return Ok(());
            }
            inner = self.shared.not_full.wait(inner).expect("channel lock");
        }
    }

    /// Non-blocking send. On a full channel (or a departed consumer) the
    /// value is dropped **and counted**: returns `false` and increments the
    /// shared drop counter.
    pub fn offer(&self, value: T) -> bool {
        let mut inner = self.shared.inner.lock().expect("channel lock");
        if inner.consumer_gone || inner.queue.len() >= self.shared.capacity {
            drop(inner);
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let was_empty = inner.queue.is_empty();
        inner.queue.push_back(value);
        drop(inner);
        if was_empty {
            self.shared.ring_bell();
        }
        true
    }

    /// Records rejected by [`Producer::offer`] so far.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("channel lock");
        inner.producer_gone = true;
        drop(inner);
        // Rung whatever the ring holds: "finished" is news by itself.
        self.shared.ring_bell();
    }
}

/// What one [`Consumer::poll`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Polled {
    /// Values moved into `out`.
    pub moved: usize,
    /// The producer is gone and the queue is empty: nothing more will ever
    /// arrive (what [`Consumer::is_finished`] would say, under one lock).
    pub finished: bool,
}

impl<T> Consumer<T> {
    /// Move up to `max` queued values into `out`. Returns the number moved.
    /// Never blocks.
    pub fn drain(&self, out: &mut Vec<T>, max: usize) -> usize {
        self.poll(out, max).moved
    }

    /// [`Consumer::drain`] that also reports, under the same lock, whether
    /// the ring is finished: one lock per ring per pass for a consumer
    /// that visits many rings.
    pub fn poll(&self, out: &mut Vec<T>, max: usize) -> Polled {
        let mut inner = self.shared.inner.lock().expect("channel lock");
        let n = inner.queue.len().min(max);
        out.extend(inner.queue.drain(..n));
        let was_full = inner.queue.len() + n >= self.shared.capacity;
        let finished = inner.producer_gone && inner.queue.is_empty();
        drop(inner);
        if n > 0 && was_full {
            self.shared.not_full.notify_one();
        }
        Polled { moved: n, finished }
    }

    /// True once the producer is gone **and** the queue is empty: nothing
    /// more will ever arrive.
    pub fn is_finished(&self) -> bool {
        let inner = self.shared.inner.lock().expect("channel lock");
        inner.producer_gone && inner.queue.is_empty()
    }

    /// Records rejected by the producer's `offer` so far.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Slots the ring has allocated so far.
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> usize {
        self.shared
            .inner
            .lock()
            .expect("channel lock")
            .queue
            .capacity()
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("channel lock");
        inner.consumer_gone = true;
        drop(inner);
        self.shared.not_full.notify_one();
    }
}

// The unit tests drive the ring with real std threads; under `--cfg loom`
// the primitives require a model context, so only `tests/loom.rs` runs.
#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_and_completion() {
        let (tx, rx) = channel::<u32>(4);
        let producer = thread::spawn(move || {
            for i in 0..1000 {
                tx.send(i).expect("consumer alive");
            }
        });
        let mut got = Vec::new();
        while !rx.is_finished() {
            if rx.drain(&mut got, 64) == 0 {
                thread::yield_now();
            }
        }
        producer.join().expect("producer");
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        assert_eq!(rx.dropped(), 0);
    }

    #[test]
    fn offer_counts_drops() {
        let (tx, rx) = channel::<u32>(2);
        assert!(tx.offer(1));
        assert!(tx.offer(2));
        assert!(!tx.offer(3));
        assert!(!tx.offer(4));
        assert_eq!(tx.dropped(), 2);
        let mut out = Vec::new();
        rx.drain(&mut out, 10);
        assert_eq!(out, vec![1, 2]);
        assert!(tx.offer(5));
        assert_eq!(rx.dropped(), 2);
    }

    #[test]
    fn rings_grow_as_records_queue_and_reject_at_capacity() {
        let (tx, rx) = channel::<u32>(1_000_000);
        for i in 0..3 {
            assert!(tx.offer(i));
        }
        assert!(rx.allocated() < 1024, "{} slots", rx.allocated());

        // A bound that is no power of two: `offer` rejects at exactly the
        // capacity, not at whatever size the ring has grown to.
        let (tx, rx) = channel::<u32>(5_000);
        for i in 0..5_000 {
            assert!(tx.offer(i), "offer {i}");
        }
        assert!(!tx.offer(5_000));
        assert_eq!(rx.dropped(), 1);
        let mut out = Vec::new();
        assert_eq!(rx.drain(&mut out, 1), 1);
        assert!(tx.offer(5_001));
        assert!(!tx.offer(5_002));
        assert_eq!(rx.dropped(), 2);
    }

    #[test]
    fn send_fails_when_consumer_gone() {
        let (tx, rx) = channel::<u32>(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(7));
    }

    #[test]
    fn blocked_send_wakes_on_drain() {
        let (tx, rx) = channel::<u32>(1);
        tx.send(0).unwrap();
        let producer = thread::spawn(move || tx.send(1));
        let mut out = Vec::new();
        while rx.drain(&mut out, 8) == 0 {
            thread::yield_now();
        }
        // The blocked send completes once space opened up.
        producer.join().expect("join").expect("consumer alive");
        while !rx.is_finished() {
            rx.drain(&mut out, 8);
        }
        assert_eq!(out, vec![0, 1]);
    }
}
