//! Differential suite for the streaming analysis engine (`probenet-stream`):
//! every collector snapshot must reproduce the batch quantities it
//! summarizes — byte-exactly for counts, within the documented ε for
//! quantiles and merged float accumulators — and be bit-identical whatever
//! the thread count or channel capacity (see DESIGN.md §11 for the exactness
//! policy). Loss metrics have no batch counterpart to compare against: the
//! batch analyzer is the streaming fold.

use probenet_bench::{stream_golden_path, stream_report, stream_report_threads};
use probenet_core::{analyze_workload, impairment_scenario, PhasePlot};
use probenet_netdyn::RttSeries;
use probenet_sim::SimDuration;
use probenet_stats::{autocorrelation, Ecdf, Moments};
use probenet_stream::{
    BankConfig, Collector, CollectorConfig, EstimatorBank, LogQuantileSketch, SessionKey,
};

/// Scenarios the differential comparison sweeps: healthy plus the main
/// impairment families (burst loss, reordering, route flap).
const SCENARIOS: &[&str] = &[
    "bursty-transatlantic",
    "route-flap",
    "noisy-clock",
    "dirty-fiber",
];

fn scenario_series(name: &str) -> Option<RttSeries> {
    let sc = impairment_scenario(name)?;
    Some(
        sc.run(
            1993,
            SimDuration::from_millis(50),
            SimDuration::from_secs(30),
        )
        .series,
    )
}

fn bank_for(series: &RttSeries) -> EstimatorBank {
    let delta_ms = series.interval_ns as f64 / 1e6;
    EstimatorBank::new(BankConfig::bolot(
        delta_ms,
        series.wire_bytes,
        series.clock_resolution_ns,
    ))
}

fn fold_series(series: &RttSeries) -> EstimatorBank {
    let mut bank = bank_for(series);
    for r in &series.records {
        bank.push(&r.to_stream());
    }
    bank
}

fn delivered_ms(series: &RttSeries) -> Vec<f64> {
    series
        .records
        .iter()
        .filter_map(|r| r.rtt.map(|ns| ns as f64 / 1e6))
        .collect()
}

#[test]
fn streaming_moments_histogram_and_acf_match_batch_bitwise() {
    let mut covered = 0;
    for name in SCENARIOS {
        let Some(series) = scenario_series(name) else {
            continue;
        };
        covered += 1;
        let bank = fold_series(&series);
        let snap = bank.snapshot();
        let rtts = delivered_ms(&series);
        assert_eq!(snap.sent as usize, series.len(), "{name}");
        assert_eq!(snap.received as usize, series.received(), "{name}");

        // Welford moments fold in the same order as the batch slice.
        let batch = Moments::from_slice(&rtts);
        assert_eq!(bank.moments().count(), batch.count(), "{name}");
        if batch.count() > 0 {
            assert_eq!(bank.moments().mean(), batch.mean(), "{name}");
            assert_eq!(bank.moments().std_dev(), batch.std_dev(), "{name}");
        }

        // The session is shorter than the ACF ring, so nothing was evicted
        // and the windowed ACF is exactly the batch ACF.
        assert_eq!(snap.acf_evicted, 0, "{name}");
        let max_lag = 20.min(rtts.len().saturating_sub(1));
        assert_eq!(snap.acf, autocorrelation(&rtts, max_lag), "{name}");
    }
    assert!(covered >= 2, "too few scenarios resolved by name");
}

#[test]
fn sketch_quantiles_are_within_documented_relative_error() {
    for name in SCENARIOS {
        let Some(series) = scenario_series(name) else {
            continue;
        };
        let bank = fold_series(&series);
        let ns: Vec<f64> = series
            .records
            .iter()
            .filter_map(|r| r.rtt.map(|v| v as f64))
            .collect();
        if ns.is_empty() {
            continue;
        }
        let exact = Ecdf::new(&ns);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let approx = bank.sketch().quantile(q).expect("delivered probes") as f64;
            let truth = exact.quantile(q);
            // The sketch reports a bucket lower bound: never above the exact
            // order statistic, and within 2⁻⁷ relative below it.
            assert!(
                approx <= truth,
                "{name}: q{q} sketch {approx} above exact {truth}"
            );
            assert!(
                truth - approx <= truth * LogQuantileSketch::RELATIVE_ERROR + 1e-9,
                "{name}: q{q} sketch {approx} vs exact {truth}"
            );
        }
    }
}

#[test]
fn streaming_workload_matches_batch_binning_and_mean() {
    for name in SCENARIOS {
        let Some(series) = scenario_series(name) else {
            continue;
        };
        let bank = fold_series(&series);
        let delta_ms = series.interval_ns as f64 / 1e6;
        let max_ms = (4.0 * delta_ms).max(100.0);
        let batch = analyze_workload(&series, 128_000.0, 4096.0, max_ms);
        assert_eq!(
            bank.workload().histogram().counts(),
            batch.histogram.counts(),
            "{name}: interarrival histogram counts drifted"
        );
        assert_eq!(
            bank.workload().pairs() as usize,
            batch.workload_bytes.len(),
            "{name}"
        );
        if !batch.workload_bytes.is_empty() {
            let batch_mean: f64 =
                batch.workload_bytes.iter().sum::<f64>() / batch.workload_bytes.len() as f64;
            // A serial push fold performs the same additions in the same
            // order as the batch sum, so the means are bit-identical.
            assert_eq!(bank.workload().mean_workload_bytes(), batch_mean, "{name}");
        }
    }
}

#[test]
fn streaming_phase_density_rebins_the_batch_phase_plot_exactly() {
    for name in SCENARIOS {
        let Some(series) = scenario_series(name) else {
            continue;
        };
        let bank = fold_series(&series);
        let plot = PhasePlot::from_series(&series);
        assert_eq!(bank.phase().pairs() as usize, plot.points.len(), "{name}");
        let mut expected = vec![0u64; bank.phase().bins() * bank.phase().bins()];
        let mut out_of_range = 0u64;
        for p in &plot.points {
            match bank.phase().cell_of(p.x, p.y) {
                Some((ix, iy)) => expected[ix * bank.phase().bins() + iy] += 1,
                None => out_of_range += 1,
            }
        }
        let (first, span) = (bank.phase().first_cell(), bank.phase().counts());
        let mut streamed = vec![0u64; expected.len()];
        streamed[first..first + span.len()].copy_from_slice(span);
        assert_eq!(streamed, expected, "{name}");
        assert_eq!(bank.phase().snapshot().out_of_range, out_of_range, "{name}");
    }
}

#[test]
fn collector_snapshots_are_invariant_to_channel_capacity() {
    let series = scenario_series("bursty-transatlantic").expect("pinned scenario");
    let reference = serde_json::to_string(&fold_series(&series).snapshot()).unwrap();
    for capacity in [1usize, 64, 4096] {
        let mut collector = Collector::new(CollectorConfig {
            channel_capacity: capacity,
            snapshot_every: 0,
        });
        let producer = collector.add_session(
            SessionKey::new("capacity-sweep", 50, 1993),
            BankConfig::bolot(
                series.interval_ns as f64 / 1e6,
                series.wire_bytes,
                series.clock_resolution_ns,
            ),
        );
        let running = collector.start();
        let records = series.records.clone();
        let handle = std::thread::spawn(move || {
            for r in &records {
                assert!(producer.push(r.to_stream()), "collector exited early");
            }
        });
        handle.join().expect("producer thread");
        let report = running.join();
        assert_eq!(report.total_dropped(), 0, "capacity {capacity}");
        assert_eq!(
            serde_json::to_string(&report.sessions[0].snapshot).unwrap(),
            reference,
            "capacity {capacity}"
        );
    }
}

#[test]
fn stream_report_is_bit_identical_across_thread_counts() {
    let one = stream_report_threads(1);
    for threads in [4usize, 8] {
        assert_eq!(
            one,
            stream_report_threads(threads),
            "stream report differs at {threads} threads"
        );
    }
}

#[test]
fn stream_report_matches_checked_in_golden() {
    let golden = std::fs::read_to_string(stream_golden_path()).expect("checked-in stream golden");
    assert_eq!(
        stream_report(),
        golden,
        "streaming snapshots drifted from tests/golden/stream-snapshots.json; \
         rerun `repro --stream --bless` if the change is intended"
    );
}
