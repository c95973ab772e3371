//! The real-network driver feeding the same analysis pipeline: a loopback
//! echo server, actual UDP datagrams, and the full §4/§5 analysis on the
//! measured series.
//!
//! These scenarios run on the epoll reactor harness (`probenet-live`)
//! under the hood: [`run_probes`] paces sends off the reactor's timer
//! wheel and sweeps the socket once more before declaring losses, instead
//! of the legacy sleep-loop pacing whose scheduling jitter made loopback
//! delivery counts flake under load. `tests/live_soak.rs` pins the
//! reactor's loss report to the exact set a seeded lossy echo dropped.

use std::time::Duration;

use probenet::core::{analyze_losses, PhasePlot};
use probenet::netdyn::{run_probes, EchoServer, ExperimentConfig};
use probenet::sim::SimDuration;

#[test]
fn loopback_measurements_flow_through_the_pipeline() {
    let server = EchoServer::spawn("127.0.0.1:0").expect("bind echo server");
    let config = ExperimentConfig::quick(SimDuration::from_millis(2), 100);
    let (series, stats) =
        run_probes(server.local_addr(), &config, Duration::from_millis(300)).expect("probe run");

    assert_eq!(series.len(), 100);
    assert!(series.received() >= 95, "received {}", series.received());
    assert_eq!(stats.decode_errors, 0);

    let plot = PhasePlot::from_series(&series);
    assert!(plot.min_rtt_ms().expect("deliveries") < 100.0);

    let loss = analyze_losses(&series);
    assert!(loss.ulp < 0.05);
    server.shutdown();
}

#[test]
fn loopback_has_no_bottleneck_line_by_majority_vote() {
    // Loopback carries no real compression line, so the detector should
    // see nothing — but any *single* run can fool it: wall-clock RTTs
    // depend on host scheduling, and under a debug build the slower probe
    // loop jitters enough that a spurious line occasionally fits the
    // scatter. A one-shot `is_none()` assertion was therefore flaky and
    // had been dropped entirely. The robust form: repeat the experiment
    // five times and require a MAJORITY of runs to find no line.
    // Tolerance: a spurious fit shows up in well under half of debug-build
    // runs (empirically < 1 in 10), so 3-of-5 keeps the false-failure rate
    // below ~1 % while still failing loudly if the detector ever starts
    // hallucinating bottlenecks systematically.
    const RUNS: usize = 5;
    let server = EchoServer::spawn("127.0.0.1:0").expect("bind echo server");
    let config = ExperimentConfig::quick(SimDuration::from_millis(2), 100);
    let mut no_line = 0usize;
    for _ in 0..RUNS {
        let (series, _) = run_probes(server.local_addr(), &config, Duration::from_millis(300))
            .expect("probe run");
        let plot = PhasePlot::from_series(&series);
        if plot.bottleneck_estimate(10).is_none() {
            no_line += 1;
        }
    }
    server.shutdown();
    assert!(
        no_line * 2 > RUNS,
        "bottleneck detector fit a line on {} of {RUNS} loopback runs",
        RUNS - no_line
    );
}

#[test]
fn injected_loss_shows_up_as_random_loss() {
    let server = EchoServer::spawn_with_loss("127.0.0.1:0", 0.2, 5).expect("bind echo server");
    let config = ExperimentConfig::quick(SimDuration::from_millis(1), 400);
    let (series, _) =
        run_probes(server.local_addr(), &config, Duration::from_millis(400)).expect("probe run");

    let loss = analyze_losses(&series);
    assert!(
        (0.1..0.35).contains(&loss.ulp),
        "ulp {} with 20% injection",
        loss.ulp
    );
    // Bernoulli injection: the loss gap stays near 1/(1-p) ≈ 1.25 and the
    // lag-1 test does not find dependence.
    if let Some(gap) = loss.plg_measured {
        assert!(gap < 2.0, "gap {gap}");
    }
    assert!(loss.losses_look_random(0.001));
    server.shutdown();
}

#[test]
fn series_serializes_for_offline_analysis() {
    let server = EchoServer::spawn("127.0.0.1:0").expect("bind echo server");
    let config = ExperimentConfig::quick(SimDuration::from_millis(2), 20);
    let (series, _) =
        run_probes(server.local_addr(), &config, Duration::from_millis(200)).expect("probe run");
    let json = serde_json::to_string(&series).expect("serialize");
    let back: probenet::netdyn::RttSeries = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.records, series.records);
    server.shutdown();
}
