//! Exhaustive interleaving exploration of the SPSC ring under the loom
//! model checker (build with `RUSTFLAGS="--cfg loom"`).
//!
//! These models are deliberately tiny — a 2-slot ring and a handful of
//! operations — so the depth-first search over schedules is exhaustive
//! (see the soundness notes in `vendor/loom/src/lib.rs`). What they pin:
//!
//! * blocking `send` never loses or reorders a record, in every schedule,
//!   including the schedule where the producer blocks on a full ring and
//!   must be woken by a consumer drain;
//! * the drop-accounting invariant `records + dropped == produced` holds
//!   for non-blocking `offer` in every schedule — this is the invariant
//!   every collector report asserts (DESIGN.md §11), checked here against
//!   all interleavings rather than the ones a test host happens to hit;
//! * a producer that observes a departed consumer gets its record back
//!   (`send == Err`) rather than silently dropping it;
//! * a consumer that sleeps on the doorbell its rings share never misses a
//!   wake-up: a record enqueued while it decides to sleep is folded (with
//!   no drop behind it to do the waking), and `Producer::drop` ends its
//!   wait. A lost wake-up is a consumer
//!   asleep with no thread left to ring, which the checker reports as a
//!   deadlock.
#![cfg(loom)]

use probenet_stream::spsc;

/// Three blocking sends through a 2-slot ring: the third send must block
/// until the consumer drains. FIFO order and zero drops in every schedule.
#[test]
fn blocking_send_is_lossless_in_every_schedule() {
    loom::model(|| {
        let (tx, rx) = spsc::channel::<u32>(2);
        let producer = loom::thread::spawn(move || {
            for i in 0..3u32 {
                tx.send(i).expect("consumer alive");
            }
            // tx drops here: producer_gone lets the consumer finish.
        });
        let mut got = Vec::new();
        while !rx.is_finished() {
            if rx.drain(&mut got, 4) == 0 {
                loom::thread::yield_now();
            }
        }
        producer.join().expect("producer");
        assert_eq!(got, vec![0, 1, 2], "lost or reordered record");
        assert_eq!(rx.dropped(), 0);
    });
}

/// Non-blocking offers against a concurrent drainer: whatever the
/// schedule, every produced record is either delivered or counted in the
/// drop counter — `records + dropped == produced`, with delivery a
/// FIFO subsequence of production.
#[test]
fn offer_drop_accounting_holds_in_every_schedule() {
    loom::model(|| {
        let (tx, rx) = spsc::channel::<u32>(2);
        let producer = loom::thread::spawn(move || {
            let mut produced = 0u64;
            let mut accepted = 0u64;
            for i in 0..3u32 {
                produced += 1;
                if tx.offer(i) {
                    accepted += 1;
                }
            }
            (produced, accepted)
        });
        let mut got = Vec::new();
        while !rx.is_finished() {
            if rx.drain(&mut got, 4) == 0 {
                loom::thread::yield_now();
            }
        }
        let (produced, accepted) = producer.join().expect("producer");
        assert_eq!(accepted, got.len() as u64, "accepted records must arrive");
        assert_eq!(
            got.len() as u64 + rx.dropped(),
            produced,
            "drop-accounting invariant records + dropped == produced"
        );
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "delivered records out of order: {got:?}"
        );
    });
}

/// A consumer departing at any point: the producer's blocking send either
/// delivered before the departure or hands the record back as `Err`.
#[test]
fn send_returns_record_when_consumer_departs() {
    loom::model(|| {
        let (tx, rx) = spsc::channel::<u32>(1);
        let consumer = loom::thread::spawn(move || {
            let mut got = Vec::new();
            rx.drain(&mut got, 4);
            // rx drops here, possibly while the producer is mid-send.
            got
        });
        let mut delivered = 0u64;
        let mut returned = 0u64;
        for i in 0..2u32 {
            match tx.send(i) {
                Ok(()) => delivered += 1,
                Err(v) => {
                    assert_eq!(v, i, "send must hand back the rejected record");
                    returned += 1;
                }
            }
        }
        let got = consumer.join().expect("consumer");
        assert_eq!(delivered + returned, 2, "every record accounted for");
        assert!(got.len() as u64 <= delivered);
    });
}

/// The consumer's side of the collector loop over `rings`: one pass with
/// [`spsc::Consumer::poll`], records into `got`. Returns what the pass
/// moved.
fn pass(rings: &[spsc::Consumer<u32>; 2], finished: &mut [bool; 2], got: &mut Vec<u32>) -> usize {
    let mut moved = 0;
    for (rx, done) in rings.iter().zip(finished) {
        if !*done {
            let polled = rx.poll(got, 4);
            moved += polled.moved;
            *done = polled.finished;
        }
    }
    moved
}

/// Two rings on one doorbell fed by one thread (the live reactor's shape)
/// and a consumer shaped like the collector's loop: reset the doorbell,
/// pass over both rings, stop when both are finished, sleep on the doorbell
/// when the pass moved nothing. Ring B gets a record, ring A only ever reports "finished". In
/// every schedule the record is folded and the loop ends; the schedules
/// that matter are those where the enqueue or a drop lands between the
/// consumer's empty-handed look at that ring and its `wait`.
#[test]
fn doorbell_consumer_never_misses_a_wake_up() {
    loom::model(|| {
        let bell = spsc::Doorbell::new();
        let (tx_a, rx_a) = bell.channel::<u32>(2);
        let (tx_b, rx_b) = bell.channel::<u32>(2);
        let producer = loom::thread::spawn(move || {
            assert!(tx_b.offer(7), "an empty ring accepts");
            drop(tx_b);
            // Rings nothing but its own departure.
            drop(tx_a);
        });

        let rings = [rx_a, rx_b];
        let mut finished = [false; 2];
        let mut got = Vec::new();
        loop {
            bell.reset();
            let moved = pass(&rings, &mut finished, &mut got);
            if finished == [true; 2] {
                break;
            }
            if moved == 0 {
                bell.wait();
            }
        }
        producer.join().expect("producer");
        assert_eq!(got, vec![7], "a record was enqueued and never folded");
    });
}

/// The model above cannot tell an enqueue that rings from one that leaves
/// the waking to the drop behind it. Here the producers outlive the
/// consumer's loop, so the only ring there will ever be is the one the
/// enqueue to the empty ring makes: a consumer that decided to sleep just
/// before it must still wake and fold the record.
#[test]
fn doorbell_enqueue_wakes_the_consumer_without_a_drop() {
    loom::model(|| {
        let bell = spsc::Doorbell::new();
        let (tx_a, rx_a) = bell.channel::<u32>(2);
        let (tx_b, rx_b) = bell.channel::<u32>(2);
        let producer = loom::thread::spawn(move || {
            assert!(tx_b.offer(7), "an empty ring accepts");
            // Handed back alive: nothing is dropped while the consumer waits.
            (tx_a, tx_b)
        });

        let rings = [rx_a, rx_b];
        let mut finished = [false; 2];
        let mut got = Vec::new();
        while got.is_empty() {
            bell.reset();
            if pass(&rings, &mut finished, &mut got) == 0 {
                bell.wait();
            }
        }
        assert_eq!(got, vec![7]);
        assert_eq!(finished, [false; 2]);
        drop(producer.join().expect("producer"));
    });
}
