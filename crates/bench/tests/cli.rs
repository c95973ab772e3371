//! Command-line contract of the `repro`, `analyze` and `ablation`
//! binaries: the flag handling no library-level test reaches.

use std::process::{Command, Output, Stdio};

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

/// Write `text` under the test target's scratch directory and return the
/// path.
fn scratch_file(name: &str, text: &str) -> std::path::PathBuf {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write scratch file");
    path
}

#[test]
fn analyze_reads_what_to_csv_writes_and_rejects_a_seq_gap() {
    use probenet_core::PaperScenario;
    use probenet_netdyn::{to_csv, ExperimentConfig};
    use probenet_sim::SimDuration;
    let analyze = env!("CARGO_BIN_EXE_analyze");

    // A 12 s simulated run, written by the library's own writer.
    let series = PaperScenario::inria_umd(7)
        .run(&ExperimentConfig::paper(SimDuration::from_millis(20)).with_count(600))
        .series;
    let good = scratch_file("analyze-good.csv", &to_csv(&series));
    let out = run(analyze, &[good.to_str().expect("utf-8 path"), "--json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = serde_json::parse(&stdout).expect("--json prints JSON");
    let serde::Value::Object(fields) = json else {
        panic!("top level is not an object: {stdout}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["measurement", "loss", "bottleneck", "workload"]);

    // Probes 2-4 missing: not a file `to_csv` writes, and no series to
    // report on as if they had never been sent.
    let gap = scratch_file(
        "analyze-gap.csv",
        "# interval_ns=20000000\n# wire_bytes=72\nseq,sent_at_ns,echoed_at_ns,rtt_ns\n\
         0,0,,140000000\n1,20000000,,140000000\n5,100000000,,140000000\n\
         6,120000000,,140000000\n",
    );
    let out = run(analyze, &[gap.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("line 6:"), "{stderr}");
    assert!(out.stdout.is_empty(), "reported on a rejected file");
}

/// `analyze --demo --json` with stdout piped to `stdout`, stderr captured.
fn analyze_demo_into(stdout: Stdio) -> std::process::Child {
    spawn_into(env!("CARGO_BIN_EXE_analyze"), &["--demo", "--json"], stdout)
}

#[test]
fn analyze_exits_quietly_when_its_reader_goes_away() {
    let mut child = analyze_demo_into(Stdio::piped());
    // Close the read end before the report is written.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for analyze");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn analyze_fails_on_any_other_write_error() {
    let full = std::fs::File::create("/dev/full").expect("open /dev/full");
    let out = analyze_demo_into(full.into())
        .wait_with_output()
        .expect("wait for analyze");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write the report"), "{stderr}");
}

/// `bin args` with stdout piped to `stdout`, stderr captured.
fn spawn_into(bin: &str, args: &[&str], stdout: Stdio) -> std::process::Child {
    Command::new(bin)
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary")
}

/// The two writers that print as they go, each on a short run.
const PRINTERS: [(&str, &[&str]); 2] = [
    (REPRO, &["--artifact", "table1"]),
    (env!("CARGO_BIN_EXE_ablation"), &["--study", "clock"]),
];

/// `repro … | head -1` and `ablation … | head -1`: a reader that goes
/// away early ends the output quietly with exit 0, not a panic (101).
#[test]
fn repro_and_ablation_exit_quietly_when_their_reader_goes_away() {
    for (bin, args) in PRINTERS {
        let mut child = spawn_into(bin, args, Stdio::piped());
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn repro_and_ablation_fail_on_any_other_write_error() {
    for (bin, args) in PRINTERS {
        let full = std::fs::File::create("/dev/full").expect("open /dev/full");
        let out = spawn_into(bin, args, full.into())
            .wait_with_output()
            .expect("wait for binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("cannot write the report"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn ablation_rejects_an_unknown_study_and_lists_the_valid_ones() {
    for study in ["bogus", "closedloop", "red"] {
        assert_usage_error_of(
            env!("CARGO_BIN_EXE_ablation"),
            &["--study", study],
            "clock, buffer, batch, estimator, all",
        );
    }
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
