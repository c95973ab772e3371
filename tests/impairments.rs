//! Scenario-level validation of the impairment subsystem: the calibrated
//! `bursty-transatlantic` scenario must reproduce the paper's §4 loss
//! findings end to end, and the other named scenarios must show their
//! advertised signatures (baseline shifts, duplicates, reordering,
//! checksum drops).

use probenet::core::{
    analyze_losses, impaired_campaign, impairment_scenario, impairment_scenarios, ImpairedScenario,
};
use probenet::netdyn::RttRecord;
use probenet::sim::SimDuration;

#[test]
fn bursty_scenario_reproduces_paper_loss_findings() {
    let sc = impairment_scenario("bursty-transatlantic").expect("named scenario");

    // δ = 8 ms: probes land inside Bad periods, so losses cluster and the
    // conditional loss probability dwarfs the unconditional one (§4).
    let fast = sc.run(
        1993,
        SimDuration::from_millis(8),
        SimDuration::from_secs(60),
    );
    let fast_loss = analyze_losses(&fast.series);
    let clp = fast_loss.clp.expect("losses at 8 ms");
    assert!(
        clp > 2.0 * fast_loss.ulp,
        "δ=8ms: clp {clp} not ≫ ulp {}",
        fast_loss.ulp
    );
    // The burst channel contributes multi-packet loss runs: the gap
    // distribution must have mass beyond run length 1.
    assert!(
        fast_loss.run_lengths.len() > 1,
        "δ=8ms: no multi-packet loss runs: {:?}",
        fast_loss.run_lengths
    );

    // δ = 500 ms: successive probes almost never share a Bad period, so
    // losses pass the lag-1 independence test. 10 minutes of probing keeps
    // the conditional-probability estimate out of small-sample noise.
    let slow = sc.run(
        1993,
        SimDuration::from_millis(500),
        SimDuration::from_secs(600),
    );
    let slow_loss = analyze_losses(&slow.series);
    assert!(slow_loss.lost > 0, "δ=500ms: expected some losses");
    assert!(
        slow_loss.losses_look_random(0.05),
        "δ=500ms: losses should look random: clp {:?} ulp {}",
        slow_loss.clp,
        slow_loss.ulp
    );
}

#[test]
fn dirty_fiber_shows_reordering_and_checksum_drops() {
    let sc = impairment_scenario("dirty-fiber").expect("named scenario");
    let out = sc.run(7, SimDuration::from_millis(20), SimDuration::from_secs(60));
    assert!(
        out.series.reordering_count() > 0,
        "reordering impairment produced no inversions"
    );
    assert!(
        out.probe_impair_drops > 0,
        "corruption produced no endpoint checksum drops"
    );
}

#[test]
fn impaired_campaign_threads_the_scenario_through() {
    let sc = impairment_scenario("bursty-transatlantic").expect("named scenario");
    let r = impaired_campaign(
        &sc,
        SimDuration::from_millis(50),
        SimDuration::from_secs(20),
        &[1, 2, 3],
    );
    assert_eq!(r.ulp.n, 3);
    assert!(r.ulp.mean > 0.0, "burst channel added no loss");
}

/// Engine recycling cannot leak state between scenarios. On one thread,
/// every named scenario runs twice in a row, one scenario after another,
/// so each run inherits the engine the run before it left behind; each
/// must record exactly what the scenario records on a fresh thread, whose
/// engine is new. The goldens pin only bursty-transatlantic, so this is
/// the check that covers the other scenarios. Runs last 100 s, past both
/// of route-flap's route shifts (40 s and 80 s).
#[test]
fn recycled_engines_replay_every_scenario_exactly() {
    fn records(sc: &ImpairedScenario) -> Vec<RttRecord> {
        sc.run(
            1993,
            SimDuration::from_millis(50),
            SimDuration::from_secs(100),
        )
        .series
        .records
    }
    let scenarios = impairment_scenarios();
    let recycled: Vec<Vec<RttRecord>> = scenarios
        .iter()
        .flat_map(|sc| [records(sc), records(sc)])
        .collect();
    for (i, sc) in scenarios.iter().enumerate() {
        let fresh = {
            let sc = sc.clone();
            std::thread::spawn(move || records(&sc))
                .join()
                .expect("fresh-thread run")
        };
        for (run, got) in recycled[2 * i..2 * i + 2].iter().enumerate() {
            assert!(
                *got == fresh,
                "{}: run {run} on the shared thread differs from a fresh engine",
                sc.name
            );
        }
    }
}

#[test]
fn every_named_scenario_runs_and_delivers() {
    for sc in impairment_scenarios() {
        let out = sc.run(
            42,
            SimDuration::from_millis(100),
            SimDuration::from_secs(20),
        );
        let delivered = out.series.received();
        assert!(
            delivered > 150,
            "{}: only {delivered}/200 probes delivered",
            sc.name
        );
    }
}
