//! `ingest_fat`: few sessions, many records. Per-record cost dominates: the
//! SPSC ring handoff plus `EstimatorBank::push`.

use super::{timed, Iteration, Size, Workload};
use crate::stats::SplitMix;
use crate::sys::OneCpu;
use crate::trace::Tracer;
use probenet_stream::{
    BankConfig, Collector, CollectorConfig, CollectorReport, SessionKey, SessionProducer,
    StreamRecord,
};
use std::hint::black_box;

/// Probe interval of the synthetic sessions, ms.
pub const DELTA_MS: u64 = 20;
/// Records handed to one session before the producer moves to the next.
const BLOCK: usize = 256;

/// `n` synthetic records of one session: 10 % lost, RTTs uniform in
/// 100–150 ms, in sequence order.
pub fn synthetic_records(rng: &mut SplitMix, n: usize) -> Vec<StreamRecord> {
    (0..n as u64)
        .map(|seq| {
            let lost = rng.unit() < 0.1;
            let rtt_ns = 100_000_000 + rng.next_u64() % 50_000_000;
            StreamRecord {
                seq,
                sent_at_ns: seq * DELTA_MS * 1_000_000,
                rtt_ns: (!lost).then_some(rtt_ns),
            }
        })
        .collect()
}

/// A collector with one session per entry of `sessions`, not yet started.
pub fn collector_for(
    name: &str,
    sessions: usize,
    channel_capacity: usize,
) -> (Collector, Vec<SessionProducer>) {
    let mut collector = Collector::new(CollectorConfig {
        channel_capacity,
        snapshot_every: 0,
    });
    let producers = (0..sessions as u64)
        .map(|s| {
            collector.add_session(
                SessionKey::new(name, DELTA_MS, s),
                BankConfig::bolot(DELTA_MS as f64, 72, 0),
            )
        })
        .collect();
    (collector, producers)
}

/// The accounting identity every collector run must satisfy.
pub fn check_accounting(it: &mut Iteration, report: &CollectorReport, produced: u64) {
    let (records, dropped) = (report.total_records(), report.total_dropped());
    it.failed += dropped;
    it.check(records + dropped == produced, || {
        format!("records {records} + dropped {dropped} != produced {produced}")
    });
    it.check(dropped == 0, || format!("{dropped} records dropped"));
}

/// The workload: generated once, ingested every iteration.
pub struct IngestFat {
    sessions: Vec<Vec<StreamRecord>>,
    /// The producer and the folding thread share one CPU while the workload
    /// exists (see README.md, "Thread placement").
    _pin: Option<OneCpu>,
}

impl IngestFat {
    /// 8 sessions × 250 k records (quick: 4 × 20 k).
    pub fn new(seed: u64, size: Size) -> IngestFat {
        let (sessions, records) = match size {
            Size::Full => (8, 250_000),
            Size::Quick => (4, 20_000),
        };
        let mut rng = SplitMix(seed);
        IngestFat {
            sessions: (0..sessions)
                .map(|_| synthetic_records(&mut rng, records))
                .collect(),
            _pin: OneCpu::pin(),
        }
    }
}

impl Workload for IngestFat {
    fn iterate(&mut self, iteration: u64, tr: &mut Tracer) -> Iteration {
        let produced: u64 = self.sessions.iter().map(|s| s.len() as u64).sum();
        let sessions = &self.sessions;
        let (report, timing) = timed(tr, iteration, |tr, _| {
            let span = tr.open("stream.add_sessions");
            let (collector, producers) = collector_for("ingest-fat", sessions.len(), 4096);
            tr.close(span);

            // The collector folds on its own thread while one producer
            // thread (the benchmark's) round-robins the sessions.
            let span = tr.open("stream.ingest");
            let running = collector.start();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let longest = sessions.iter().map(Vec::len).max().unwrap_or(0);
                    for start in (0..longest).step_by(BLOCK) {
                        for (producer, records) in producers.iter().zip(sessions) {
                            let end = (start + BLOCK).min(records.len());
                            for r in records.get(start..end).unwrap_or(&[]) {
                                assert!(producer.push(*r), "collector exited early");
                            }
                        }
                    }
                });
            });
            let report = running.join();
            tr.close(span);

            tr.time("stream.report_json", || {
                black_box(report.to_json());
            });
            report
        });

        let mut it = timing.iteration(report.total_records(), produced);
        check_accounting(&mut it, &report, produced);
        it.counts = vec![
            ("records", report.total_records()),
            ("dropped", report.total_dropped()),
        ];
        it
    }
}
