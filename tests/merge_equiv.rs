//! Differential fleet suite: one campaign's records, split across N
//! simulated collectors and shipped through the `probenet-merged` fold as
//! snapshot frames, must reproduce the single-process `Collector` report
//! **byte-for-byte** — whatever the worker-pool width (the in-process
//! equivalent of the CI matrix `PROBENET_THREADS ∈ {1,4,8}`), the fleet
//! size (N ∈ {1,2,8}), the frame arrival order, or the transport (bytes
//! in memory vs a real TCP socket). Same-key *segment* folds are pinned
//! bit-identically against the in-memory `EstimatorBank::merge`, and the
//! version-1 golden shards still fold to the streaming golden.

use std::io::Write as _;

use probenet_bench::{
    frame_shards, golden_dir, stream_frames_path, stream_golden_path, GOLDEN_FRAME_SHARDS,
};
use probenet_core::impairment_scenario;
use probenet_merged::{merge_files, serve_tcp, MergeService};
use probenet_netdyn::{collect_sessions, RttSeries};
use probenet_sim::SimDuration;
use probenet_stream::{BankConfig, CollectorConfig, CollectorReport, EstimatorBank, SessionKey};
use probenet_wire::snapshot::{decode_frames, SessionFrame};

/// The campaign: four sessions over three impairment scenarios, short
/// spans so the suite stays debug-build friendly.
const SESSIONS: &[(&str, u64, u64)] = &[
    ("bursty-transatlantic", 20, 1993),
    ("bursty-transatlantic", 50, 4021),
    ("route-flap", 50, 7),
    ("dirty-fiber", 8, 42),
];

fn session_series(scenario: &str, delta_ms: u64, seed: u64) -> RttSeries {
    impairment_scenario(scenario)
        .expect("campaign scenario exists")
        .run(
            seed,
            SimDuration::from_millis(delta_ms),
            SimDuration::from_secs(20),
        )
        .series
}

/// The single-process reference: every session folded by one collector,
/// series generation scheduled on `threads` pool workers — the same
/// structure as the golden `stream_collector_report`, over this suite's
/// cheaper campaign.
fn campaign_report(threads: usize, snapshot_every: u64) -> CollectorReport {
    let tasks: Vec<(String, u64, u64)> = SESSIONS
        .iter()
        .map(|&(s, d, seed)| (s.to_string(), d, seed))
        .collect();
    let series_by_task =
        probenet_core::sched::par_map_threads(threads, tasks.clone(), |(s, d, seed)| {
            session_series(&s, d, seed)
        });
    let sessions: Vec<(SessionKey, &RttSeries)> = tasks
        .iter()
        .zip(&series_by_task)
        .map(|((scenario, delta_ms, seed), series)| {
            (SessionKey::new(scenario, *delta_ms, *seed), series)
        })
        .collect();
    collect_sessions(
        CollectorConfig {
            channel_capacity: 256,
            snapshot_every,
        },
        &sessions,
    )
}

fn render(report: &CollectorReport) -> String {
    let mut body = report.to_json();
    body.push('\n');
    body
}

#[test]
fn merged_report_is_byte_identical_across_widths_and_fleet_sizes() {
    for threads in [1usize, 4, 8] {
        let single = campaign_report(threads, 0);
        let expected = render(&single);
        for collectors in [1usize, 2, 8] {
            let shards = frame_shards(&single, collectors);
            // Ingest in reverse arrival order: the fold must not depend on
            // which collector reports first.
            let mut service = MergeService::new();
            for shard in shards.iter().rev() {
                service
                    .ingest_bytes(shard)
                    .expect("golden-path frames decode");
            }
            let merged = service.into_report().expect("fold succeeds");
            assert_eq!(
                render(&merged),
                expected,
                "threads={threads} collectors={collectors}: merged report drifted"
            );
        }
    }
}

#[test]
fn tcp_transport_reproduces_the_single_process_report() {
    let single = campaign_report(1, 0);
    let expected = render(&single);
    let shards = frame_shards(&single, 2);

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let daemon = std::thread::spawn(move || serve_tcp(&listener, 2));
    let mut senders = Vec::new();
    for shard in shards {
        senders.push(std::thread::spawn(move || {
            let mut conn = std::net::TcpStream::connect(addr).expect("connect to daemon");
            conn.write_all(&shard).expect("ship frames");
            // Dropping the stream closes the write side; the daemon reads
            // to EOF.
        }));
    }
    for s in senders {
        s.join().expect("sender thread");
    }
    let merged = daemon
        .join()
        .expect("daemon thread")
        .expect("fold succeeds");
    assert_eq!(render(&merged), expected, "TCP-shipped report drifted");
}

#[test]
fn same_key_segment_folds_match_the_in_memory_merge() {
    let (scenario, delta_ms, seed) = SESSIONS[0];
    let series = session_series(scenario, delta_ms, seed);
    let config = BankConfig::bolot(
        delta_ms as f64,
        series.wire_bytes,
        series.clock_resolution_ns,
    );
    let key = SessionKey::new(scenario, delta_ms, seed);
    let cut = series.records.len() / 3;

    let fold = |range: std::ops::Range<usize>| {
        let mut bank = EstimatorBank::new(config.clone());
        for r in &series.records[range] {
            bank.push(&r.to_stream());
        }
        bank
    };
    let frame = |range: std::ops::Range<usize>| SessionFrame {
        key: key.clone(),
        first_seq: range.start as u64,
        records: (range.end - range.start) as u64,
        dropped: 0,
        bank: fold(range),
        interim: Vec::new(),
        hops: Vec::new(),
        extensions: Vec::new(),
    };

    // Ship the tail shard first: the service must reorder by `first_seq`.
    let mut service = MergeService::new();
    service
        .ingest_bytes(&frame(cut..series.records.len()).encode())
        .expect("tail shard decodes");
    service
        .ingest_bytes(&frame(0..cut).encode())
        .expect("head shard decodes");
    let merged = service.into_report().expect("fold succeeds");
    assert_eq!(merged.sessions.len(), 1);
    assert_eq!(merged.sessions[0].records, series.records.len() as u64);

    let mut expected = fold(0..cut);
    expected.merge(&fold(cut..series.records.len()));
    assert_eq!(
        merged.sessions[0].bank.wire_state(),
        expected.wire_state(),
        "segment fold must be bit-identical to the in-memory merge"
    );
    assert_eq!(
        serde_json::to_string(&merged.sessions[0].snapshot).expect("snapshot renders"),
        serde_json::to_string(&expected.snapshot()).expect("snapshot renders"),
    );
}

#[test]
fn interim_snapshots_survive_the_fleet_round_trip() {
    // snapshot_every > 0 exercises the INTERIM frame section end-to-end.
    let single = campaign_report(1, 64);
    assert!(
        single.sessions.iter().any(|s| !s.interim.is_empty()),
        "campaign must produce interim snapshots for this test to bite"
    );
    let expected = render(&single);
    let shards = frame_shards(&single, 2);
    let mut service = MergeService::new();
    for shard in &shards {
        service.ingest_bytes(shard).expect("frames decode");
    }
    let merged = service.into_report().expect("fold succeeds");
    assert_eq!(render(&merged), expected, "interim-bearing report drifted");
}

#[test]
fn v1_golden_shards_fold_to_the_streaming_golden() {
    // The golden frame shards as the version-1 writer encoded them, with
    // dense SKETCH and PHASE bodies. The decoder still reads that layout:
    // the shards fold to the streaming golden byte for byte, and each
    // decoded frame re-encodes as the current (version-2) golden shard.
    let v1: Vec<String> = (0..GOLDEN_FRAME_SHARDS)
        .map(|c| format!("{}/stream-frames-v1-c{c}.bin", golden_dir()))
        .collect();
    let golden = std::fs::read_to_string(stream_golden_path()).expect("streaming golden");
    let merged = merge_files(&v1).expect("version-1 shards fold");
    assert_eq!(render(&merged), golden, "version-1 shards drifted");

    for (c, path) in v1.iter().enumerate() {
        let bytes = std::fs::read(path).expect("version-1 shard");
        assert_eq!(bytes[4], 1, "{path} is a version-1 stream");
        let reencoded: Vec<u8> = decode_frames(&bytes)
            .expect("version-1 shard decodes")
            .iter()
            .flat_map(SessionFrame::encode)
            .collect();
        let current = std::fs::read(stream_frames_path(c)).expect("golden shard");
        assert_eq!(current[4], 2, "golden shard {c} is a version-2 stream");
        assert!(
            reencoded == current,
            "{path} does not re-encode as golden shard {c}"
        );
    }
}
