//! The multi-session collector: N producers, bounded channels, one folding
//! thread, deterministic reports.
//!
//! Each probe session — keyed by `(path, δ, seed)` — gets its own bounded
//! SPSC channel and its own [`EstimatorBank`]. Producer threads (a
//! simulator driver callback or the real-UDP receive loop) push
//! [`StreamRecord`]s; the collector thread round-robins over the sessions,
//! drains each channel in batches, and folds the records into that
//! session's bank. All the channels share one [`Doorbell`]: a pass that
//! moved nothing is followed by a sleep on it, not by another pass, and the
//! first record of a burst or a dropped producer ends the sleep, so a
//! collector whose sessions are all quiet (thousands of live sessions that
//! report when they end) uses no CPU until one of them speaks. Because
//! every record is folded into exactly one bank in its session's sequence
//! order, the final report is **independent of thread interleaving** — the
//! same guarantee the batch pipeline gets from ordered `par_map`, extended
//! to live ingest.
//!
//! Backpressure is explicit: [`SessionProducer::push`] blocks until there
//! is room, [`SessionProducer::offer`] refuses and counts. The per-session
//! drop counts appear in the report, so "no silent drops" is an assertable
//! invariant, not a hope.

use crate::bank::{BankConfig, BankSnapshot, EstimatorBank};
use crate::record::{SessionKey, StreamRecord};
use crate::spsc::{Consumer, Doorbell, Producer};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::thread;

/// Collector tuning knobs.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Per-session channel capacity (records).
    pub channel_capacity: usize,
    /// Emit an interim snapshot every this many folded records per session
    /// (0 = final snapshot only).
    pub snapshot_every: u64,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            channel_capacity: 1024,
            snapshot_every: 0,
        }
    }
}

/// The sending handle for one session. Cheap to move into a producer
/// thread; dropping it tells the collector the session is complete.
pub struct SessionProducer {
    tx: Producer<StreamRecord>,
}

impl SessionProducer {
    /// Enqueue a record, blocking while the channel is full. Returns
    /// `false` if the collector is gone.
    pub fn push(&self, r: StreamRecord) -> bool {
        self.tx.send(r).is_ok()
    }

    /// Enqueue without blocking; on a full channel the record is rejected
    /// and counted in the session's drop counter. Returns `true` if
    /// enqueued.
    pub fn offer(&self, r: StreamRecord) -> bool {
        self.tx.offer(r)
    }

    /// Records rejected by [`SessionProducer::offer`] so far.
    pub fn dropped(&self) -> u64 {
        self.tx.dropped()
    }
}

struct SessionSlot {
    key: SessionKey,
    bank: EstimatorBank,
    rx: Consumer<StreamRecord>,
    records: u64,
    interim: Vec<InterimSnapshot>,
    finished: bool,
}

/// A periodic snapshot taken mid-stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterimSnapshot {
    /// Records folded into the session when the snapshot was taken.
    pub at_records: u64,
    /// The bank summary at that point.
    pub snapshot: BankSnapshot,
}

/// A collector being configured: add sessions, then [`Collector::start`].
pub struct Collector {
    config: CollectorConfig,
    sessions: Vec<SessionSlot>,
    /// Keys registered so far, for the duplicate check.
    keys: BTreeSet<SessionKey>,
    /// Rung by every session's producer; the folding thread sleeps on it.
    bell: Doorbell,
    /// Passes over the rings the folding thread has made.
    #[cfg(test)]
    passes: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

/// A started collector; [`RunningCollector::join`] waits for every
/// producer to finish and returns the report.
pub struct RunningCollector {
    handle: thread::JoinHandle<CollectorReport>,
}

/// Final per-session results, sorted by session key.
pub struct CollectorReport {
    /// One entry per session.
    pub sessions: Vec<SessionReport>,
}

/// Everything the collector knows about one completed session.
pub struct SessionReport {
    /// The session's identity.
    pub key: SessionKey,
    /// Records folded into the bank.
    pub records: u64,
    /// Records the producer's `offer` had to drop (always reported, never
    /// silent).
    pub dropped: u64,
    /// Interim snapshots, if `snapshot_every` was set.
    pub interim: Vec<InterimSnapshot>,
    /// The final summary.
    pub snapshot: BankSnapshot,
    /// The full estimator bank, for merging or deeper inspection.
    pub bank: EstimatorBank,
}

// The vendored serde derive does not handle lifetime-generic types, so the
// JSON view owns (clones of) the small snapshot data; the banks themselves
// are never serialized.
#[derive(Serialize)]
struct SessionView {
    key: String,
    records: u64,
    dropped: u64,
    interim: Vec<InterimSnapshot>,
    snapshot: BankSnapshot,
}

#[derive(Serialize)]
struct ReportView {
    sessions: Vec<SessionView>,
}

impl Collector {
    /// A collector with the given tuning.
    pub fn new(config: CollectorConfig) -> Self {
        Collector {
            config,
            sessions: Vec::new(),
            keys: BTreeSet::new(),
            bell: Doorbell::new(),
            #[cfg(test)]
            passes: Default::default(),
        }
    }

    /// Register a session and get its producer handle.
    ///
    /// # Panics
    /// Panics if the key is already registered.
    pub fn add_session(&mut self, key: SessionKey, bank: BankConfig) -> SessionProducer {
        assert!(self.keys.insert(key.clone()), "duplicate session key {key}");
        let (tx, rx) = self.bell.channel(self.config.channel_capacity);
        self.sessions.push(SessionSlot {
            key,
            bank: EstimatorBank::new(bank),
            rx,
            records: 0,
            interim: Vec::new(),
            finished: false,
        });
        SessionProducer { tx }
    }

    /// Spawn the collector thread. It runs until every producer handle has
    /// been dropped and every channel drained.
    pub fn start(self) -> RunningCollector {
        let handle = thread::Builder::new()
            .name("probenet-collector".into())
            .spawn(move || self.run())
            .expect("spawn collector thread");
        RunningCollector { handle }
    }

    fn run(mut self) -> CollectorReport {
        let snapshot_every = self.config.snapshot_every;
        let mut buf: Vec<StreamRecord> = Vec::with_capacity(1024);
        loop {
            #[cfg(test)]
            self.passes
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            // Rings made from here on are about records this pass may miss.
            self.bell.reset();
            let mut moved = 0usize;
            let mut all_finished = true;
            for slot in &mut self.sessions {
                if slot.finished {
                    continue;
                }
                let polled = slot.rx.poll(&mut buf, 1024);
                moved += polled.moved;
                for r in buf.drain(..) {
                    slot.bank.push(&r);
                    slot.records += 1;
                    if snapshot_every > 0 && slot.records % snapshot_every == 0 {
                        slot.interim.push(InterimSnapshot {
                            at_records: slot.records,
                            snapshot: slot.bank.snapshot(),
                        });
                    }
                }
                if polled.finished {
                    slot.finished = true;
                } else {
                    all_finished = false;
                }
            }
            if all_finished {
                break;
            }
            if moved == 0 {
                // Every ring was empty and some producer still lives: sleep
                // until one of them enqueues or drops.
                self.bell.wait();
            }
        }

        let mut sessions: Vec<SessionReport> = self
            .sessions
            .into_iter()
            .map(|s| SessionReport {
                snapshot: s.bank.snapshot(),
                dropped: s.rx.dropped(),
                key: s.key,
                records: s.records,
                interim: s.interim,
                bank: s.bank,
            })
            .collect();
        sessions.sort_by(|a, b| a.key.cmp(&b.key));
        CollectorReport { sessions }
    }
}

impl RunningCollector {
    /// Wait for completion and return the report (sessions sorted by key).
    pub fn join(self) -> CollectorReport {
        self.handle.join().expect("collector thread panicked")
    }
}

impl CollectorReport {
    /// Total records folded across all sessions.
    pub fn total_records(&self) -> u64 {
        self.sessions.iter().map(|s| s.records).sum()
    }

    /// Total records dropped (by `offer`) across all sessions.
    pub fn total_dropped(&self) -> u64 {
        self.sessions.iter().map(|s| s.dropped).sum()
    }

    /// Deterministic JSON rendering of the report (keys sorted, snapshots
    /// only — the banks themselves stay in memory for merging).
    pub fn to_json(&self) -> String {
        let view = ReportView {
            sessions: self
                .sessions
                .iter()
                .map(|s| SessionView {
                    key: s.key.to_string(),
                    records: s.records,
                    dropped: s.dropped,
                    interim: s.interim.clone(),
                    snapshot: s.snapshot.clone(),
                })
                .collect(),
        };
        serde_json::to_string_pretty(&view).expect("snapshot is JSON-safe")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, rtt_ms: Option<f64>) -> StreamRecord {
        StreamRecord {
            seq,
            sent_at_ns: seq * 20_000_000,
            rtt_ns: rtt_ms.map(|ms| (ms * 1e6) as u64),
        }
    }

    fn session_records(n: u64, seed: u64) -> Vec<StreamRecord> {
        let mut state = seed;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                record(
                    i,
                    if u < 0.1 {
                        None
                    } else {
                        Some(100.0 + u * 50.0)
                    },
                )
            })
            .collect()
    }

    #[test]
    fn collector_matches_direct_fold() {
        let mut collector = Collector::new(CollectorConfig {
            channel_capacity: 64,
            snapshot_every: 0,
        });
        let keys: Vec<SessionKey> = (0..3)
            .map(|i| SessionKey::new("test-path", 20 + i * 10, 1993 + i))
            .collect();
        let producers: Vec<SessionProducer> = keys
            .iter()
            .map(|k| collector.add_session(k.clone(), BankConfig::bolot(k.delta_ms(), 72, 0)))
            .collect();
        let running = collector.start();
        let mut handles = Vec::new();
        for (i, p) in producers.into_iter().enumerate() {
            let records = session_records(5_000, i as u64 + 1);
            handles.push(thread::spawn(move || {
                for r in &records {
                    assert!(p.push(*r));
                }
                records
            }));
        }
        let per_session: Vec<Vec<StreamRecord>> = handles
            .into_iter()
            .map(|h| h.join().expect("producer"))
            .collect();
        let report = running.join();

        assert_eq!(report.total_dropped(), 0);
        assert_eq!(report.sessions.len(), 3);
        // Report order is key order; fold each session directly and compare.
        for (key, records) in keys.iter().zip(&per_session) {
            let mut bank = EstimatorBank::new(BankConfig::bolot(key.delta_ms(), 72, 0));
            for r in records {
                bank.push(r);
            }
            let s = report
                .sessions
                .iter()
                .find(|s| &s.key == key)
                .expect("session present");
            assert_eq!(s.records, 5_000);
            assert_eq!(
                serde_json::to_string(&s.snapshot).unwrap(),
                serde_json::to_string(&bank.snapshot()).unwrap()
            );
        }
        // JSON renders without error and is stable in key order.
        let json = report.to_json();
        assert!(json.contains("test-path/delta20ms/seed1993"));
    }

    #[test]
    fn interim_snapshots_fire_at_interval() {
        let mut collector = Collector::new(CollectorConfig {
            channel_capacity: 32,
            snapshot_every: 100,
        });
        let p = collector.add_session(
            SessionKey::new("interim", 20, 1),
            BankConfig::bolot(20.0, 72, 0),
        );
        let running = collector.start();
        for r in session_records(250, 9) {
            assert!(p.push(r));
        }
        drop(p);
        let report = running.join();
        let s = &report.sessions[0];
        assert_eq!(s.interim.len(), 2);
        assert_eq!(s.interim[0].at_records, 100);
        assert_eq!(s.interim[1].at_records, 200);
        assert_eq!(s.snapshot.sent, 250);
    }

    #[test]
    fn offer_drops_are_counted_and_reported() {
        let mut collector = Collector::new(CollectorConfig {
            channel_capacity: 1,
            snapshot_every: 0,
        });
        let p = collector.add_session(
            SessionKey::new("droppy", 20, 1),
            BankConfig::bolot(20.0, 72, 0),
        );
        // Fill the 1-slot channel before the collector starts, then offer
        // more: exactly those overflow records are dropped, and counted.
        assert!(p.offer(record(0, Some(100.0))));
        let mut offered_ok = 1u64;
        for i in 1..50u64 {
            if p.offer(record(i, Some(100.0))) {
                offered_ok += 1;
            }
        }
        let dropped_before_start = p.dropped();
        assert_eq!(offered_ok + dropped_before_start, 50);
        let running = collector.start();
        drop(p);
        let report = running.join();
        let s = &report.sessions[0];
        assert_eq!(s.records + s.dropped, 50);
        assert!(s.dropped >= 1);
    }

    #[test]
    #[should_panic(expected = "duplicate session key")]
    fn duplicate_keys_rejected() {
        let mut c = Collector::new(CollectorConfig::default());
        let _a = c.add_session(SessionKey::new("x", 20, 1), BankConfig::bolot(20.0, 72, 0));
        let _b = c.add_session(SessionKey::new("x", 20, 1), BankConfig::bolot(20.0, 72, 0));
    }

    #[test]
    fn idle_collector_sleeps_until_the_first_record() {
        use std::sync::atomic::Ordering;

        let mut collector = Collector::new(CollectorConfig::default());
        let producers: Vec<SessionProducer> = (0..1_000)
            .map(|i| {
                collector.add_session(
                    SessionKey::new("idle", 20, i),
                    BankConfig::bolot(20.0, 72, 0),
                )
            })
            .collect();
        let bell = collector.bell.clone();
        let passes = std::sync::Arc::clone(&collector.passes);
        let running = collector.start();

        // The folding thread looks at its 1 000 empty rings once and goes
        // to sleep on the doorbell. Asleep there (no timeout) it cannot
        // start a pass until a producer rings, so the count read below
        // holds for however long the sessions stay quiet.
        while !bell.has_sleeper() {
            thread::yield_now();
        }
        assert_eq!(passes.load(Ordering::SeqCst), 1, "an idle collector polled");

        // One late record on one ring wakes it and is folded.
        assert!(producers[417].push(record(0, Some(100.0))));
        drop(producers);
        let report = running.join();
        assert_eq!(report.sessions.len(), 1_000);
        assert_eq!(report.total_records() + report.total_dropped(), 1);
        assert_eq!(report.total_dropped(), 0);
        let late = &report.sessions[417];
        assert_eq!((late.records, late.snapshot.sent), (1, 1));
        // Woken at most once per ring event (one record, 1 000 drops), each
        // followed by the pass that finds nothing more.
        assert!(passes.load(Ordering::SeqCst) <= 2 * 1_001 + 2);
    }
}
