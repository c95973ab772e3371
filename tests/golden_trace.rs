//! Golden-trace snapshots of the pinned `bursty-transatlantic` impairment
//! scenario: the full report — loss metrics plus an FNV-1a digest over
//! every per-probe record — must match the checked-in artifacts under
//! `tests/golden/` byte for byte, whether the slices are rendered serially
//! or on the pool.
//!
//! A mismatch means simulator behavior drifted. If the drift is intended,
//! regenerate the artifacts with `cargo run --release --bin repro -- --bless`
//! and commit the diff; if not, it is a determinism or regression bug.

use probenet_bench::{golden_report_threads, GOLDEN_SCENARIO, GOLDEN_SEEDS};

/// The checked-in artifacts, pinned at compile time so the test cannot
/// silently pass against freshly regenerated files.
fn checked_in(seed: u64) -> &'static str {
    match seed {
        1993 => include_str!("golden/bursty-transatlantic-seed1993.json"),
        4021 => include_str!("golden/bursty-transatlantic-seed4021.json"),
        other => panic!("no golden artifact for seed {other}"),
    }
}

#[test]
fn golden_traces_match_serial_rendering() {
    for seed in GOLDEN_SEEDS {
        let fresh = golden_report_threads(GOLDEN_SCENARIO, seed, 1);
        assert_eq!(
            fresh,
            checked_in(seed),
            "seed {seed}: serial golden report drifted from tests/golden/ \
             (rerun `repro --bless` only if the behavior change is intended)"
        );
    }
}

#[test]
fn golden_traces_match_pooled_rendering() {
    for seed in GOLDEN_SEEDS {
        let fresh = golden_report_threads(GOLDEN_SCENARIO, seed, 4);
        assert_eq!(
            fresh,
            checked_in(seed),
            "seed {seed}: pool(4) golden report differs from the checked-in \
             artifact — pool scheduling leaked into results"
        );
    }
}
