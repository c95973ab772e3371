//! Integration tests beyond the paper's own artifacts: the §6 analytic
//! model against the full simulator, CSV interchange, and reordering on a
//! shortened route — each exercised across crate boundaries.

use probenet::core::PaperScenario;
use probenet::netdyn::{from_csv, to_csv, ExperimentConfig, RttRecord, RttSeries};
use probenet::queueing::{BatchModelSolver, BatchSizeDist, BolotModel};
use probenet::sim::{Arrival, Direction, Engine, Path, SimDuration, SimTime};

fn scenario_series(delta_ms: u64, count: usize, seed: u64) -> RttSeries {
    let sc = PaperScenario::inria_umd(seed);
    let cfg = ExperimentConfig::paper(SimDuration::from_millis(delta_ms))
        .with_count(count)
        .with_clock(SimDuration::ZERO);
    sc.run(&cfg).series
}

#[test]
fn analytic_model_tracks_simulated_compression_mass() {
    // Drive the Figure-3 topology with batch-deterministic traffic (one
    // batch per interval) and compare the simulated interarrival mass at
    // P/mu with the analytic stationary solution.
    let model = BolotModel::new(128_000.0, 576.0, 0.020, 0.100);
    let probs = [0.78, 0.12, 0.06, 0.04];
    let solver = BatchModelSolver::new(model, 0.010, BatchSizeDist::ftp_batches(4096.0, &probs));
    let sol = solver.solve(5000);

    // Simulate the same process on the sim engine's Figure-3 path.
    let path = probenet::sim::figure3_model(
        128_000,
        SimDuration::from_millis(100),
        probenet::sim::BufferLimit::Unbounded,
    );
    let mut engine = Engine::new(path, 9);
    let n = 30_000u64;
    let mut state = 123u64;
    for k in 0..n {
        let at = SimTime::from_millis(20 * (k + 1));
        engine.inject_probe(at, 72, k);
        // One batch per interval at offset 10 ms, sizes from `probs`.
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        let mut acc = 0.0;
        let mut batch = 0usize;
        for (i, &p) in probs.iter().enumerate() {
            acc += p;
            if u < acc {
                batch = i;
                break;
            }
        }
        if batch > 0 {
            let t = at + SimDuration::from_millis(10);
            engine.attach_cross_traffic(
                0,
                Direction::Outbound,
                vec![Arrival { at: t, size: 512 }; batch],
            );
        }
    }
    engine.run();
    let mut recv: Vec<(u64, f64)> = engine
        .deliveries()
        .iter()
        .map(|d| (d.seq, d.rtt().as_secs_f64()))
        .collect();
    recv.sort_by_key(|&(s, _)| s);
    let g: Vec<f64> = recv
        .windows(2)
        .filter(|w| w[1].0 == w[0].0 + 1)
        .map(|w| w[1].1 - w[0].1 + 0.020)
        .collect();
    let sim_mass_at = |x: f64, tol: f64| {
        g.iter().filter(|&&v| (v - x).abs() <= tol).count() as f64 / g.len() as f64
    };
    for (x, label) in [(0.0045, "P/mu"), (0.020, "delta"), (0.0365, "1 pkt")] {
        let sim = sim_mass_at(x, 0.0015);
        let analytic = sol.g_mass_near(x, 0.0015);
        assert!(
            (sim - analytic).abs() < 0.05,
            "{label}: simulated {sim:.4} vs analytic {analytic:.4}"
        );
    }
}

#[test]
fn csv_round_trips_a_real_experiment() {
    let series = scenario_series(100, 600, 9);
    let text = to_csv(&series);
    let back = from_csv(&text).expect("parse our own output");
    assert_eq!(back.records, series.records);
    assert_eq!(back.interval_ns, series.interval_ns);
    // The paper convention survives the round trip.
    assert_eq!(back.rtt_or_zero_ms(), series.rtt_or_zero_ms());
}

#[test]
fn route_shortening_reorders_in_flight_probes() {
    // Probes crossing a long hop get overtaken when the hop suddenly
    // shortens: the sequence numbers expose the reordering (the NetDyn
    // capability the paper's §2 describes).
    let path = Path::new(
        vec!["a".into(), "b".into()],
        vec![probenet::sim::LinkSpec::new(
            10_000_000,
            SimDuration::from_millis(200),
        )],
    );
    let mut engine = Engine::new(path, 1);
    // Shorten the link drastically while early probes are still in flight.
    engine.schedule_propagation_change(0, SimTime::from_millis(50), SimDuration::from_millis(5));
    for n in 0..20u64 {
        engine.inject_probe(SimTime::from_millis(20 * n), 72, n);
    }
    engine.run();
    let mut records: Vec<RttRecord> = (0..20u64)
        .map(|n| RttRecord {
            seq: n,
            sent_at: n * 20_000_000,
            echoed_at: None,
            rtt: None,
        })
        .collect();
    for d in engine.deliveries().iter() {
        records[d.seq as usize].rtt = Some(d.rtt().as_nanos());
    }
    let series = RttSeries::new(SimDuration::from_millis(20), 72, SimDuration::ZERO, records);
    assert!(
        series.reordering_count() > 0,
        "shortened route must overtake in-flight probes"
    );

    // A stable route never reorders.
    let path = Path::inria_umd_1992();
    let mut engine = Engine::new(path, 2);
    for n in 0..200u64 {
        engine.inject_probe(SimTime::from_millis(20 * n), 72, n);
    }
    engine.run();
    let mut records: Vec<RttRecord> = (0..200u64)
        .map(|n| RttRecord {
            seq: n,
            sent_at: n * 20_000_000,
            echoed_at: None,
            rtt: None,
        })
        .collect();
    for d in engine.deliveries().iter() {
        records[d.seq as usize].rtt = Some(d.rtt().as_nanos());
    }
    let series = RttSeries::new(SimDuration::from_millis(20), 72, SimDuration::ZERO, records);
    assert_eq!(series.reordering_count(), 0);
}
