//! Command-line contract of the `repro`, `analyze` and `ablation`
//! binaries: the flag handling no library-level test reaches.

use std::process::{Command, Output};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run binary")
}

fn repro(args: &[&str]) -> Output {
    run(REPRO, args)
}

#[test]
fn check_with_bless_is_a_usage_error() {
    let out = repro(&["--stream", "--check", "--bless"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stdout:\n{stdout}");
    assert!(stderr.contains("mutually exclusive"), "got: {stderr}");
    assert!(!stdout.contains("blessed"), "golden rewritten: {stdout}");
}

/// `bin args` exits 2 with `expected` on stderr; a panic would exit 101.
fn assert_usage_error_of(bin: &str, args: &[&str], expected: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(expected), "{args:?}: {stderr}");
}

/// A bad `repro` flag operand exits 2 naming the flag.
fn assert_usage_error(args: &[&str], flag: &str) {
    assert_usage_error_of(REPRO, args, &format!("{flag} needs"));
}

#[test]
fn non_integer_span_is_a_usage_error() {
    assert_usage_error(&["--span-secs", "1.5"], "--span-secs");
}

#[test]
fn trailing_seed_without_value_is_a_usage_error() {
    assert_usage_error(&["--seed"], "--seed");
}

#[test]
fn zero_live_sessions_is_a_usage_error() {
    assert_usage_error(&["live", "--sessions", "0"], "--sessions");
}

#[test]
fn zero_live_delta_is_a_usage_error() {
    assert_usage_error(&["live", "--delta", "0"], "--delta");
}

/// `repro live` at 1 ms probes `duration · 1000` times per session.
fn assert_live_duration_rejected(duration: &str) {
    assert_usage_error_of(
        REPRO,
        &[
            "live",
            "--sessions",
            "1",
            "--delta",
            "1",
            "--duration",
            duration,
        ],
        "--duration needs at most 1048576 probes",
    );
}

#[test]
fn live_duration_past_the_lane_probe_limit_is_a_usage_error() {
    // 1.1 M probes: above the 2^20 a shared lane can number.
    assert_live_duration_rejected("1100");
}

#[test]
fn live_duration_whose_probe_count_overflows_is_a_usage_error() {
    // duration · 1000 is past u64::MAX.
    assert_live_duration_rejected("18446744073709552");
}

#[test]
fn analyze_rejects_a_rate_that_is_not_a_positive_number() {
    for bad in ["abc", "0", "-5", "nan"] {
        assert_usage_error_of(
            env!("CARGO_BIN_EXE_analyze"),
            &["--mu-kbps", bad, "x.csv"],
            "--mu-kbps needs",
        );
    }
}

#[test]
fn ablation_rejects_an_unknown_study_and_lists_the_valid_ones() {
    assert_usage_error_of(
        env!("CARGO_BIN_EXE_ablation"),
        &["--study", "bogus"],
        "clock, buffer, batch, estimator, closedloop, red, all",
    );
}

#[test]
fn pool_width_does_not_change_the_json_bytes() {
    let at = |threads: &str| {
        let out = Command::new(REPRO)
            .args(["--json", "--span-secs", "10"])
            .env("PROBENET_THREADS", threads)
            .output()
            .expect("run repro");
        assert!(out.status.success(), "PROBENET_THREADS={threads} failed");
        out.stdout
    };
    let one = at("1");
    assert!(!one.is_empty());
    assert!(one == at("4"), "PROBENET_THREADS=4 changed the output");
}
