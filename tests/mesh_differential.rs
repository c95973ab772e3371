//! Differential mesh suite: the degenerate mesh campaign **is** the
//! single-path pipeline. Its report must be byte-identical to the
//! checked-in `--stream` golden at every worker-pool width (the
//! in-process equivalent of the CI matrix `PROBENET_THREADS ∈
//! {1,4,8}`), survive the round trip through the merge daemon's
//! incremental reader unchanged, and keep the reader's staging buffer
//! bounded by the largest single frame.

use probenet_bench::{
    stream_golden_path, stream_session_tasks, GOLDEN_FRAME_SHARDS, GOLDEN_SCENARIO,
};
use probenet_mesh::{degenerate_report, fold_through_daemon, DegenerateSpec};
use probenet_wire::snapshot::SessionFrame;

fn golden_spec() -> DegenerateSpec {
    DegenerateSpec {
        scenario: GOLDEN_SCENARIO.to_string(),
        tasks: stream_session_tasks(),
    }
}

/// The in-process thread-count matrix mirroring CI's
/// `PROBENET_THREADS ∈ {1,4,8}` streaming loop.
const THREADS: [usize; 3] = [1, 4, 8];

#[test]
fn degenerate_mesh_matches_the_stream_golden_at_every_width() {
    let golden =
        std::fs::read_to_string(stream_golden_path()).expect("checked-in stream golden readable");
    for threads in THREADS {
        let mut rendered = degenerate_report(&golden_spec(), threads).to_json();
        rendered.push('\n');
        assert_eq!(
            rendered, golden,
            "degenerate mesh report at {threads} workers differs from the stream golden"
        );
    }
}

#[test]
fn degenerate_mesh_survives_the_daemon_fold_with_bounded_buffer() {
    let report = degenerate_report(&golden_spec(), 4);
    let max_frame = report
        .sessions
        .iter()
        .map(|s| SessionFrame::from_report(s).encode().len())
        .max()
        .expect("golden campaign has sessions");
    for shards in [1, GOLDEN_FRAME_SHARDS, report.sessions.len()] {
        let (folded, peak) = fold_through_daemon(&report, shards).expect("fold succeeds");
        assert_eq!(
            folded.to_json(),
            report.to_json(),
            "daemon fold over {shards} shards differs from its input"
        );
        // The bugfix contract: incremental ingest stages at most one
        // frame plus one read chunk, never the whole stream.
        assert!(
            peak <= max_frame + probenet_merged::INGEST_CHUNK,
            "peak buffer {peak} exceeds largest frame {max_frame} + chunk \
             over {shards} shards"
        );
    }
}
