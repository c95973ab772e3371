//! Robustness: the analysis pipeline must accept *arbitrary* measurement
//! data without panicking — a real tool meets malformed, adversarial, and
//! degenerate series (clock glitches, total loss, single probes), not just
//! its own simulator's output.

use probenet::core::{
    analyze_losses, analyze_workload, full_report, interarrival_series, render_report,
    workload_estimates, PhasePlot,
};
use probenet::netdyn::{from_csv, to_csv, RttRecord, RttSeries};
use probenet::sim::SimDuration;
use proptest::prelude::*;

/// Arbitrary-ish RTT series: random subsets lost, random (possibly absurd)
/// RTT magnitudes, random echo stamps.
fn arb_series() -> impl Strategy<Value = RttSeries> {
    (
        1u64..500, // interval ms
        0u64..6,   // clock resolution ms
        proptest::collection::vec(
            (
                proptest::option::of(0u64..10_000_000_000), // rtt ns (up to 10 s)
                proptest::option::of(0u64..10_000_000_000), // echo offset ns
            ),
            0..200,
        ),
    )
        .prop_map(|(interval_ms, clock_ms, probes)| {
            let records = probes
                .into_iter()
                .enumerate()
                .map(|(n, (rtt, echo))| RttRecord {
                    seq: n as u64,
                    sent_at: n as u64 * interval_ms * 1_000_000,
                    echoed_at: echo.map(|e| n as u64 * interval_ms * 1_000_000 + e),
                    rtt,
                })
                .collect();
            RttSeries::new(
                SimDuration::from_millis(interval_ms),
                72,
                SimDuration::from_millis(clock_ms),
                records,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn analysis_pipeline_never_panics(series in arb_series()) {
        let _ = analyze_losses(&series);
        let plot = PhasePlot::from_series(&series);
        let _ = plot.bottleneck_estimate(10);
        let _ = plot.min_rtt_ms();
        let _ = interarrival_series(&series);
        let _ = workload_estimates(&series, 128_000.0);
        let _ = analyze_workload(&series, 128_000.0, 4096.0, 100.0);
        let _ = series.reordering_count();
    }

    #[test]
    fn full_report_never_panics_and_always_renders(series in arb_series()) {
        let report = full_report(&series, Some(128_000.0));
        let text = render_report(&report);
        prop_assert!(text.contains("measurement:"));
        // Missing readings print as n/a, never as Rust `Debug` output.
        prop_assert!(!text.contains("Some(") && !text.contains("None"), "{}", text);
        // And it always serializes.
        let json = serde_json::to_string(&report).expect("serializable");
        prop_assert!(json.contains("measurement"));
    }

    #[test]
    fn csv_round_trip_is_lossless_for_any_series(series in arb_series()) {
        let text = to_csv(&series);
        let back = from_csv(&text).expect("own output parses");
        prop_assert_eq!(back.records, series.records);
    }

    #[test]
    fn csv_parser_never_panics_on_garbage(text in "\\PC{0,400}") {
        let _ = from_csv(&text);
    }
}
