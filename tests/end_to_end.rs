//! End-to-end pipeline tests: calibrated scenario → measurement → every
//! analysis stage, asserting the paper's qualitative findings hold.

use probenet::core::{
    analyze_losses, analyze_workload, interarrival_series, PaperScenario, PeakLabel, PhasePlot,
};
use probenet::netdyn::ExperimentConfig;
use probenet::sim::SimDuration;
use probenet::stats::autocorrelation;

fn run(delta_ms: u64, seconds: u64, seed: u64) -> probenet::core::ExperimentOutput {
    let scenario = PaperScenario::inria_umd(seed);
    let delta = SimDuration::from_millis(delta_ms);
    let config = ExperimentConfig::paper(delta)
        .with_count((seconds * 1000 / delta_ms) as usize)
        .with_clock(SimDuration::ZERO);
    scenario.run(&config)
}

#[test]
fn full_pipeline_delta_20ms() {
    let out = run(20, 120, 1);
    let series = &out.series;

    // Measurement sanity.
    assert!(series.received() > series.len() / 2);
    let min = series.min_rtt_ms().expect("deliveries");
    assert!((138.0..148.0).contains(&min), "min rtt {min}");

    // Phase analysis: compression exists at delta = 20 ms and inverts to
    // the configured 128 kb/s within a reasonable band (ideal clock).
    let plot = PhasePlot::from_series(series);
    let est = plot
        .bottleneck_estimate(10)
        .expect("compression line at delta = 20 ms");
    let rel = (est.mu_bps - 128_000.0).abs() / 128_000.0;
    assert!(rel < 0.10, "mu estimate {} off by {rel:.3}", est.mu_bps);

    // Workload analysis: the three peak families of Figure 8.
    let analysis = analyze_workload(series, 128_000.0, 4096.0, 100.0);
    assert!(analysis.compressed_peak().is_some(), "no compressed peak");
    assert!(analysis.undisturbed_peak().is_some(), "no undisturbed peak");
    let bulk = analysis
        .inferred_bulk_bytes()
        .expect("no single-FTP-packet peak");
    assert!(
        (420.0..620.0).contains(&bulk),
        "inferred bulk size {bulk} B, configured 512 B (paper reads 488 B)"
    );

    // Loss analysis: clp >= ulp at this probe rate.
    let loss = analyze_losses(series);
    assert!(loss.ulp > 0.02, "ulp {}", loss.ulp);
    let clp = loss.clp.expect("losses occurred");
    assert!(clp + 0.02 >= loss.ulp, "clp {clp} vs ulp {}", loss.ulp);
}

#[test]
fn workload_estimates_average_near_offered_load() {
    // Mean of the eq.-(6) estimates over small delta tracks the offered
    // cross-traffic load (biased up by the buffer-empty clamp).
    let out = run(20, 120, 3);
    let est = probenet::core::workload_estimates(&out.series, 128_000.0);
    let mean_bits = est.iter().sum::<f64>() / est.len() as f64 * 8.0;
    let per_interval_offered = 0.62 * 128_000.0 * 0.020; // util * mu * delta
                                                         // Within a factor band: the estimator upper-bounds and loss-broken
                                                         // pairs are excluded.
    assert!(
        mean_bits > 0.5 * per_interval_offered && mean_bits < 2.5 * per_interval_offered,
        "mean estimated {mean_bits} bits vs offered {per_interval_offered}"
    );
}

#[test]
fn rtt_series_is_strongly_autocorrelated_at_small_delta() {
    // Queues drain over many probe intervals at delta = 8 ms: neighbouring
    // RTTs are highly correlated — the basis for the paper's §3 interest
    // in time-series models (and ref [16]-style predictive control).
    let out = run(8, 60, 5);
    let rtts = out.series.delivered_rtts_ms();
    let acf = autocorrelation(&rtts, 10);
    assert!(acf[1] > 0.8, "lag-1 autocorrelation {}", acf[1]);
}

#[test]
fn rtt_decorrelates_as_delta_grows() {
    // The same comparison the paper makes for losses holds for delays:
    // at delta = 500 ms successive probes see nearly independent queues.
    let small = run(8, 60, 6);
    let large = run(500, 600, 6);
    let acf_small = autocorrelation(&small.series.delivered_rtts_ms(), 1)[1];
    let acf_large = autocorrelation(&large.series.delivered_rtts_ms(), 1)[1];
    assert!(
        acf_small > acf_large + 0.3,
        "lag-1 acf: delta=8ms {acf_small:.3} vs delta=500ms {acf_large:.3}"
    );
}

#[test]
fn interarrival_mean_equals_delta_under_stationarity() {
    // E[g_n] = delta when the series is stationary (returning probes
    // neither pile up forever nor drain a deficit): a consistency check of
    // the measurement pipeline.
    let out = run(50, 240, 7);
    let g = interarrival_series(&out.series);
    let mean = g.iter().sum::<f64>() / g.len() as f64;
    assert!(
        (mean - 50.0).abs() < 2.0,
        "mean interarrival {mean} ms vs delta 50 ms"
    );
}

#[test]
fn workload_peaks_are_delta_invariant_where_expected() {
    // Compressed-peak position (P/mu) must not move with delta; the
    // undisturbed peak must track delta — the key structural claim behind
    // Figures 8 and 9.
    let a20 = analyze_workload(&run(20, 120, 8).series, 128_000.0, 4096.0, 100.0);
    let a100 = analyze_workload(&run(100, 240, 8).series, 128_000.0, 4096.0, 200.0);

    let c20 = a20
        .compressed_peak()
        .expect("compressed at 20 ms")
        .position_ms;
    let u20 = a20
        .undisturbed_peak()
        .expect("undisturbed at 20 ms")
        .position_ms;
    let u100 = a100
        .undisturbed_peak()
        .expect("undisturbed at 100 ms")
        .position_ms;
    assert!((c20 - 4.5).abs() < 1.5, "compressed peak at {c20} ms");
    assert!((u20 - 20.0).abs() < 1.5, "undisturbed at {u20} ms");
    assert!((u100 - 100.0).abs() < 5.0, "undisturbed at {u100} ms");

    // Compression is rarer at delta = 100 ms: the peak shrinks (paper's
    // Figure 9 observation) or disappears.
    let h20 = a20.compressed_peak().expect("checked").height;
    let h100 = a100.compressed_peak().map(|p| p.height).unwrap_or(0.0);
    assert!(h100 < h20, "compressed peak must shrink: {h100} vs {h20}");
}

#[test]
fn peak_labels_cover_expected_families() {
    let a = analyze_workload(&run(20, 180, 9).series, 128_000.0, 4096.0, 100.0);
    let labels: Vec<PeakLabel> = a.peaks.iter().map(|p| p.label).collect();
    assert!(labels.contains(&PeakLabel::Compressed));
    assert!(labels.contains(&PeakLabel::Undisturbed));
    assert!(
        labels
            .iter()
            .any(|l| matches!(l, PeakLabel::BulkPackets(_))),
        "no bulk peak found in {labels:?}"
    );
}
