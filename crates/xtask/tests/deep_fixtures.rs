//! Fixture tests for the deep interprocedural tier (`lint --deep`).
//!
//! The load-bearing test here is the two-tier contrast: a wall-clock read
//! laundered through a helper into a report writer across two modules is
//! provably invisible to the shallow line rules (each line is individually
//! justified or innocent) and provably caught — with the full witness
//! chain — by the deep taint pass. That contrast is the reason the deep
//! tier exists.

use xtask::rules::DEEP_RULE;
use xtask::{lint_files_deep, lint_source};

/// Helper module: reads the clock, shallow-justified as observability.
const CLOCK_UTIL: &str = "\
/// Milliseconds since an arbitrary epoch, for progress display.
pub fn stamp_ms() -> u64 {
    // probenet-lint: allow(wall-clock-in-sim) observability helper
    std::time::Instant::now().elapsed().as_millis() as u64
}
";

/// Report module: calls the helper; no banned token appears on any line.
const REPORT: &str = "\
/// Render the campaign report.
pub fn render_report() -> String {
    let stamped = crate::clock_util::stamp_ms();
    format!(\"generated at {stamped}\")
}
";

fn positive_fixture() -> Vec<(String, String)> {
    vec![
        (
            "crates/fixture/src/clock_util.rs".to_string(),
            CLOCK_UTIL.to_string(),
        ),
        (
            "crates/fixture/src/report.rs".to_string(),
            REPORT.to_string(),
        ),
    ]
}

#[test]
fn shallow_tier_provably_misses_the_laundered_chain() {
    // Run the shallow tier on the exact same fixture the deep test uses:
    // every file is clean line-by-line, so the shallow pass reports nothing.
    for (path, src) in positive_fixture() {
        let hits = lint_source(&path, &src);
        assert!(
            hits.is_empty(),
            "shallow tier must see nothing in {path}: {hits:?}"
        );
    }
}

#[test]
fn deep_tier_catches_the_chain_with_full_witness() {
    let violations = lint_files_deep(&positive_fixture());
    assert_eq!(violations.len(), 1, "{violations:?}");
    let v = &violations[0];
    assert_eq!(v.rule, DEEP_RULE);
    // Anchored at the source site, not the sink.
    assert_eq!(v.file, "crates/fixture/src/clock_util.rs");
    assert_eq!(v.line, 4, "anchor at the Instant::now line");
    // Witness chain: source fn, then its caller (the sink).
    assert_eq!(v.chain.len(), 2, "{:?}", v.chain);
    assert_eq!(v.chain[0].function, "stamp_ms");
    assert_eq!(v.chain[0].file, "crates/fixture/src/clock_util.rs");
    assert_eq!(v.chain[1].function, "render_report");
    assert_eq!(v.chain[1].file, "crates/fixture/src/report.rs");
    assert!(
        v.message.contains("render_report"),
        "message names the sink: {}",
        v.message
    );
}

/// The real live clock module, pulled from the tree so this test tracks it.
fn real_clock_rs() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../live/src/clock.rs");
    std::fs::read_to_string(path).expect("read crates/live/src/clock.rs")
}

/// A consumer that pushes clock-derived values into an encoder — exactly
/// the flow the live engine performs for real.
const CLOCK_CONSUMER: &str = "\
/// Encode one probe record.
pub fn encode_record() -> u64 {
    let clock = MonoClock::start();
    clock.now_nanos()
}
";

#[test]
fn allow_filed_live_clock_does_not_fire() {
    let src = real_clock_rs();
    assert!(
        src.contains("Instant::now"),
        "guard: the live clock still reads the wall clock"
    );
    assert!(
        src.contains("allow-file(tainted-artifact-path)"),
        "guard: the live clock carries the deep-tier allow-file"
    );
    let files = vec![
        ("crates/live/src/clock.rs".to_string(), src),
        (
            "crates/live/src/codec_fixture.rs".to_string(),
            CLOCK_CONSUMER.to_string(),
        ),
    ];
    let violations = lint_files_deep(&files);
    assert!(
        violations.is_empty(),
        "allow-file'd clock must stay silent: {violations:?}"
    );
}

#[test]
fn stripping_the_allow_file_makes_the_clock_fire() {
    // Prove the silence above comes from the directive, not from a hole in
    // the analysis: drop the allow-file line and the same flow is reported.
    let src: String = real_clock_rs()
        .lines()
        .filter(|l| !l.contains("allow-file(tainted-artifact-path)"))
        .map(|l| format!("{l}\n"))
        .collect();
    let files = vec![
        ("crates/live/src/clock.rs".to_string(), src),
        (
            "crates/live/src/codec_fixture.rs".to_string(),
            CLOCK_CONSUMER.to_string(),
        ),
    ];
    let violations = lint_files_deep(&files);
    assert!(
        violations
            .iter()
            .any(|v| v.rule == DEEP_RULE && v.file == "crates/live/src/clock.rs"),
        "without the allow-file the clock flow must be reported: {violations:?}"
    );
}

// ---- binary-level CLI contract -------------------------------------------

fn xtask_bin() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
}

#[test]
fn cli_deep_lint_workspace_is_clean() {
    let started = std::time::Instant::now();
    let out = xtask_bin()
        .args(["lint", "--deep"])
        .output()
        .expect("run xtask lint --deep");
    let wall = started.elapsed();
    // The analyzer rides the blocking CI path. Its taint pass is designed
    // to stay near-linear in workspace size (tens of ms in release, under a
    // second in the debug build `cargo test` runs here), so the budget is
    // an absolute ceiling that trips on a complexity blowup (an unbounded
    // taint frontier, quadratic call linking), not on host speed.
    assert!(
        wall < std::time::Duration::from_secs(5),
        "lint --deep took {wall:?}, over its 5 s budget"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "workspace must pass the deep tier\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("deep tier"), "got: {stdout}");
}

#[test]
fn cli_json_format_emits_parseable_diagnostics() {
    let out = xtask_bin()
        .args(["lint", "--deep", "--format", "json"])
        .output()
        .expect("run xtask lint --deep --format json");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.trim_start().starts_with("{\"tier\":\"deep\""),
        "got: {stdout}"
    );
    assert!(stdout.contains("\"violations\":["), "got: {stdout}");
    // Clean workspace: count must be zero and the status success.
    assert!(stdout.contains("\"count\":0"), "got: {stdout}");
    assert!(out.status.success());
}

#[test]
fn cli_stats_reports_call_graph_and_allow_economy() {
    let out = xtask_bin()
        .args(["lint", "--stats"])
        .output()
        .expect("run xtask lint --stats");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for needle in [
        "files scanned",
        "call-graph functions",
        "resolved edges",
        "rules fired",
        "allows",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in: {stdout}");
    }
    // The workspace keeps its allow economy tight: every directive must be
    // consumed by a real (suppressed) hit, or it should be deleted.
    assert!(
        stdout.contains("unused allows        none"),
        "unused allow crept in: {stdout}"
    );
}
