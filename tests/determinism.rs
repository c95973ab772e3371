//! Reproducibility guarantees across the whole stack: identical seeds give
//! bit-identical experiments; different seeds genuinely differ; and the
//! serialized forms are stable round-trips. These properties are what make
//! every number in EXPERIMENTS.md regenerable.

use probenet::core::{
    delta_sweep, delta_sweep_serial, run_campaign, run_campaign_serial, PaperScenario,
};
use probenet::netdyn::{to_csv, ExperimentConfig};
use probenet::sim::{Direction, Engine, Path, SimDuration, SimTime};

fn run_scenario(seed: u64) -> probenet::netdyn::RttSeries {
    let sc = PaperScenario::inria_umd(seed);
    let cfg = ExperimentConfig::paper(SimDuration::from_millis(20)).with_count(2000);
    sc.run(&cfg).series
}

#[test]
fn identical_seeds_give_identical_series() {
    let a = run_scenario(77);
    let b = run_scenario(77);
    assert_eq!(a.records, b.records);
    // Byte-identical serializations too.
    assert_eq!(to_csv(&a), to_csv(&b));
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

#[test]
fn different_seeds_give_different_series() {
    let a = run_scenario(1);
    let b = run_scenario(2);
    assert_ne!(a.records, b.records, "seeds must drive real randomness");
    // But the calibration invariants hold for both.
    for s in [&a, &b] {
        let min = s.min_rtt_ms().expect("deliveries");
        assert!((138.0..146.0).contains(&min), "min {min}");
    }
}

#[test]
fn sweep_is_reproducible_despite_parallelism() {
    // delta_sweep runs its six experiments on six threads; the result must
    // not depend on scheduling.
    let sc = PaperScenario::inria_umd(5);
    let span = SimDuration::from_secs(15);
    let rows_a: Vec<_> = delta_sweep(&sc, span)
        .into_iter()
        .map(|(r, _)| (r.delta_ms as u64, r.ulp.to_bits(), r.clp.to_bits()))
        .collect();
    let rows_b: Vec<_> = delta_sweep(&sc, span)
        .into_iter()
        .map(|(r, _)| (r.delta_ms as u64, r.ulp.to_bits(), r.clp.to_bits()))
        .collect();
    assert_eq!(rows_a, rows_b);
}

#[test]
fn pooled_campaign_and_sweep_match_serial_byte_for_byte() {
    // The pool must be invisible in results: a campaign over
    // several seeds and a full δ sweep, run through the pool, serialize to
    // exactly the JSON a forced single-thread run produces.
    let span = SimDuration::from_secs(15);
    let seeds = [1993u64, 4021, 77];

    let scenario_for = |seed| PaperScenario::inria_umd(seed);
    let config = ExperimentConfig::paper(SimDuration::from_millis(50)).with_count(300);
    let pooled = run_campaign(scenario_for, &config, &seeds);
    let serial = run_campaign_serial(scenario_for, &config, &seeds);
    assert_eq!(
        serde_json::to_string(&pooled).unwrap(),
        serde_json::to_string(&serial).unwrap(),
        "CampaignResult depends on scheduling"
    );

    let sc = PaperScenario::inria_umd(4021);
    let sweep_pooled: Vec<_> = delta_sweep(&sc, span).into_iter().map(|(r, _)| r).collect();
    let sweep_serial: Vec<_> = delta_sweep_serial(&sc, span)
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    assert_eq!(
        serde_json::to_string(&sweep_pooled).unwrap(),
        serde_json::to_string(&sweep_serial).unwrap(),
        "SweepRow depends on scheduling"
    );
}

#[test]
fn run_until_then_continue_equals_run_straight_through() {
    // Pausing the engine at horizons must not change physics.
    let build = || {
        let mut e = Engine::new(Path::inria_umd_1992(), 9);
        e.attach_cross_traffic(
            4,
            Direction::Outbound,
            (0..500u64).map(|i| (SimTime::from_millis(37 * i), 512u32)),
        );
        for n in 0..400u64 {
            e.inject_probe(SimTime::from_millis(50 * n), 72, n);
        }
        e
    };
    let mut straight = build();
    straight.run();
    let mut stepped = build();
    for step in 1..=50u64 {
        stepped.run_until(SimTime::from_millis(step * 500));
    }
    stepped.run();
    let key = |e: &Engine| {
        e.deliveries()
            .iter()
            .map(|d| (d.id.0, d.seq, d.delivered_at.as_nanos()))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&straight), key(&stepped));
    assert_eq!(straight.drops().len(), stepped.drops().len());
    // The cross traffic's records, kept at its port, match in order too,
    // and account for every cross packet.
    let cross = |e: &Engine| {
        let delivered: Vec<(u64, u64)> = e
            .cross_deliveries(4, Direction::Outbound)
            .iter()
            .map(|d| (d.seq, d.delivered_at.as_nanos()))
            .collect();
        let dropped: Vec<(u64, u64)> = e
            .cross_drops(4, Direction::Outbound)
            .iter()
            .map(|d| (d.seq, d.at.as_nanos()))
            .collect();
        (delivered, dropped)
    };
    let (delivered, dropped) = cross(&straight);
    assert_eq!(delivered.len() + dropped.len(), 500);
    assert_eq!(cross(&stepped), (delivered, dropped));
}
