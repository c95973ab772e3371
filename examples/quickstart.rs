//! Quickstart: probe the paper's INRIA → University of Maryland path and
//! print the headline measurements.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use probenet::core::{analyze_losses, PaperScenario, PhasePlot};
use probenet::netdyn::ExperimentConfig;
use probenet::sim::SimDuration;

fn main() {
    // The calibrated July-1992 scenario: 10-hop path, 128 kb/s
    // transatlantic bottleneck, Telnet+FTP cross traffic.
    let scenario = PaperScenario::inria_umd(42);

    // One of the paper's settings: 32-byte probes every 50 ms, here for a
    // 60-second run (the paper probed for 10 minutes).
    let delta = SimDuration::from_millis(50);
    let config = ExperimentConfig::paper(delta).with_count(1200);
    println!(
        "probing: {} probes of {} wire bytes at delta = {delta}",
        config.count,
        config.wire_bytes()
    );

    let out = scenario.run(&config);
    let series = &out.series;

    println!(
        "\nsent {} | received {} | lost {}",
        series.len(),
        series.received(),
        series.lost()
    );
    println!(
        "min rtt {:.1} ms (the fixed component D + P/mu)",
        series.min_rtt_ms().expect("some probes returned")
    );
    let rtts = series.delivered_rtts_ms();
    let mean = rtts.iter().sum::<f64>() / rtts.len() as f64;
    println!("mean rtt {mean:.1} ms over delivered probes");

    // Phase-plot analysis: detect probe compression and estimate the
    // bottleneck bandwidth from the compression line's intercept.
    let plot = PhasePlot::from_series(series);
    match plot.bottleneck_estimate(10) {
        Some(est) => println!(
            "bottleneck estimate: {:.0} kb/s (clock bounds [{:.0}, {:.0}]), \
             {} compressed probe pairs",
            est.mu_bps / 1e3,
            est.mu_lo_bps / 1e3,
            est.mu_hi_bps / 1e3,
            est.compression_points
        ),
        None => println!("no probe compression observed"),
    }

    // Loss-process analysis: the paper's ulp / clp / plg triple.
    // clp and plg are undefined without a loss to condition on.
    let loss = analyze_losses(series);
    let or_na = |v: Option<f64>| v.map_or_else(|| "n/a".to_owned(), |v| format!("{v:.3}"));
    println!(
        "loss: ulp {:.3}, clp {}, loss gap {} (Palm: {})",
        loss.ulp,
        or_na(loss.clp),
        or_na(loss.plg_measured),
        or_na(loss.plg_palm)
    );
    println!(
        "losses look random (lag-1 chi^2, alpha = 0.01)? {}",
        loss.losses_look_random(0.01)
    );
}
