//! `fleet_fold`: many sessions, few records. Per-session cost dominates:
//! bank allocation, frame encode and decode, the merge fold.

use super::ingest::{check_accounting, collector_for, synthetic_records};
use super::{timed, Iteration, Size, Workload};
use crate::stats::{Fnv, SplitMix};
use crate::sys::OneCpu;
use crate::trace::Tracer;
use probenet_merged::MergeService;
use probenet_stream::{CollectorReport, StreamRecord};
use probenet_wire::snapshot::{decode_frames, SessionFrame};
use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

/// Collectors the fleet's sessions are sharded across, round-robin.
pub const SHARDS: usize = 4;

/// Ingest `sessions` from the calling thread into a fresh collector, one
/// session after another, and return its report.
pub fn collect(name: &str, sessions: &[Vec<StreamRecord>], tr: &mut Tracer) -> CollectorReport {
    let span = tr.open("stream.add_sessions");
    let (collector, producers) = collector_for(name, sessions.len(), 256);
    tr.close(span);
    let span = tr.open("stream.ingest");
    let running = collector.start();
    for (producer, records) in producers.into_iter().zip(sessions) {
        for r in records {
            assert!(producer.push(*r), "collector exited early");
        }
    }
    let report = running.join();
    tr.close(span);
    report
}

/// Encode every session of `report` as a snapshot frame, sharded
/// round-robin into [`SHARDS`] back-to-back frame streams.
pub fn encode_shards(report: &CollectorReport) -> Vec<Vec<u8>> {
    let mut shards = vec![Vec::new(); SHARDS];
    for (i, session) in report.sessions.iter().enumerate() {
        shards[i % SHARDS].extend_from_slice(&SessionFrame::from_report(session).encode());
    }
    shards
}

/// Wall time of `decode_frames` over every shard: the decode share of
/// `MergeService::ingest_reader`, re-timed on the same bytes.
pub fn decode_wall(shards: &[Vec<u8>]) -> Duration {
    let started = Instant::now();
    for shard in shards {
        black_box(decode_frames(shard).expect("own frames decode"));
    }
    started.elapsed()
}

/// The workload: generated once, folded every iteration.
pub struct FleetFold {
    sessions: Vec<Vec<StreamRecord>>,
    /// The feeding and the folding thread share one CPU while the workload
    /// exists (see README.md, "Thread placement").
    _pin: Option<OneCpu>,
}

impl FleetFold {
    /// 500 sessions × 500 records (quick: 40 × 200).
    pub fn new(seed: u64, size: Size) -> FleetFold {
        let (sessions, records) = match size {
            Size::Full => (500, 500),
            Size::Quick => (40, 200),
        };
        let mut rng = SplitMix(seed);
        FleetFold {
            sessions: (0..sessions)
                .map(|_| synthetic_records(&mut rng, records))
                .collect(),
            _pin: OneCpu::pin(),
        }
    }
}

impl Workload for FleetFold {
    fn iterate(&mut self, iteration: u64, tr: &mut Tracer) -> Iteration {
        let produced: u64 = self.sessions.iter().map(|s| s.len() as u64).sum();
        let sessions = &self.sessions;
        let ((single, shards, peak_buffer, merged_json, ingest_span), timing) =
            timed(tr, iteration, |tr, laps| {
                let single = collect("fleet-fold", sessions, tr);
                laps.mark();
                let shards = tr.time("wire.encode", || encode_shards(&single));
                laps.mark();

                let ingest_span = tr.open("merged.ingest");
                let mut service = MergeService::new();
                for shard in &shards {
                    service
                        .ingest_reader(&mut Cursor::new(shard))
                        .expect("own frames ingest");
                }
                tr.close(ingest_span);
                let peak_buffer = service.peak_buffer_bytes();
                let merged = tr.time("merged.into_report", || {
                    service.into_report().expect("disjoint sessions fold")
                });
                laps.mark();
                let merged_json = tr.time("stream.report_json", || merged.to_json());
                (single, shards, peak_buffer, merged_json, ingest_span)
            });
        if tr.enabled() {
            tr.impute_into(ingest_span, "wire.decode", decode_wall(&shards));
        }

        let mut it = timing.iteration(single.total_records(), produced);
        check_accounting(&mut it, &single, produced);
        it.check(merged_json == single.to_json(), || {
            "merged JSON differs from the single-process JSON".to_string()
        });
        let frame_bytes: u64 = shards.iter().map(|s| s.len() as u64).sum();
        let mut digest = Fnv::default();
        digest.bytes(merged_json.as_bytes());
        it.counts = vec![
            ("records", single.total_records()),
            ("dropped", single.total_dropped()),
            ("sessions", single.sessions.len() as u64),
            ("frame_bytes", frame_bytes),
            ("merged_peak_buffer_bytes", peak_buffer as u64),
            ("report_digest", digest.finish()),
        ];
        it
    }
}
