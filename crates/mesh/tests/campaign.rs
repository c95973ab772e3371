//! End-to-end mesh campaign checks: determinism across thread counts,
//! tomography-vs-ground-truth tolerance, and the bounded-ingest
//! invariant on the fleet fold.

use probenet_mesh::{campaign::run_campaign, MeshReport, MeshSpec};

#[test]
fn golden_campaign_is_byte_identical_across_thread_counts() {
    let spec = MeshSpec::golden();
    let serial = MeshReport::generate(&spec, 1).expect("serial campaign");
    let pooled = MeshReport::generate(&spec, 4).expect("pooled campaign");
    assert_eq!(
        serial.to_json(),
        pooled.to_json(),
        "mesh report must not depend on the worker pool size"
    );
}

#[test]
fn golden_campaign_attribution_matches_ground_truth() {
    let report = MeshReport::generate(&MeshSpec::golden(), 4).expect("campaign");
    assert!(
        report.all_links_within_tolerance,
        "per-link attribution strayed from ground truth:\n{}",
        report.to_json()
    );
    // Attribution conserves end-to-end losses path by path.
    for path in &report.paths {
        let sum: f64 = path.attributed.iter().sum();
        assert!(
            (sum - path.lost as f64).abs() < 1e-9,
            "path {} attribution {} != lost {}",
            path.key,
            sum,
            path.lost
        );
    }
    // All 15 pairs folded into the fleet report.
    assert_eq!(report.fleet_sessions, 15);
}

#[test]
fn fleet_fold_buffer_is_bounded_by_the_largest_frame() {
    let spec = MeshSpec::golden();
    let run = run_campaign(&spec, 4).expect("campaign");
    assert!(run.max_frame_bytes > 0);
    assert!(
        run.ingest_peak_buffer_bytes <= run.max_frame_bytes + probenet_merged::INGEST_CHUNK,
        "peak {} exceeds largest frame {} + one read chunk",
        run.ingest_peak_buffer_bytes,
        run.max_frame_bytes
    );
}

/// Each thread keeps one engine and resets it onto every pair's path, so
/// a campaign's first pair runs on the engine the previous campaign's
/// last pair left on that thread. A campaign run right after a different
/// one on the same thread must render exactly what it renders on a fresh
/// thread, whose engine is new.
#[test]
fn a_warm_engine_cache_changes_nothing() {
    let spec = MeshSpec::golden();
    let fresh = std::thread::spawn(move || {
        MeshReport::generate(&spec, 1)
            .expect("fresh-thread campaign")
            .to_json()
    })
    .join()
    .expect("fresh-thread campaign");
    // More hosts, so longer paths, and another seed, so other streams.
    let other = MeshSpec {
        hosts: 8,
        seed: 11,
        delta_ms: 50,
        span_secs: 20,
    };
    MeshReport::generate(&other, 1).expect("warm-up campaign");
    let warm = MeshReport::generate(&spec, 1)
        .expect("warm campaign")
        .to_json();
    assert!(
        warm == fresh,
        "a campaign after another on the same thread differs from a fresh thread's"
    );
}
