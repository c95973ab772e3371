//! Command-line contract of the `repro` binary: the flag handling no
//! library-level test reaches.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
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

/// A bad flag operand exits 2 naming the flag; a panic would exit 101.
fn assert_usage_error(args: &[&str], flag: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("{flag} needs")),
        "{args:?}: {stderr}"
    );
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

#[test]
fn pool_width_does_not_change_the_json_bytes() {
    let at = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
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
