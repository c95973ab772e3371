//! `ablation` — quantify the design choices DESIGN.md calls out.
//!
//! ```text
//! ablation [--study clock|buffer|batch|estimator|closedloop|red|all]
//! ```
//!
//! Studies:
//! * `clock` — measurement-clock resolution vs. bottleneck-estimate
//!   accuracy (why the Figure-2 reading is quantization-limited).
//! * `buffer` — slot-limited vs. byte-limited bottleneck buffers: how the
//!   drop discipline reshapes the probe loss profile (byte-limited queues
//!   favor small probes, erasing the paper's small-δ loss signature).
//! * `batch` — cross-traffic batch size vs. loss burstiness (clp) and
//!   workload-peak visibility: the calibration tension behind the chosen
//!   mean batch.
//! * `estimator` — the paper's eq.-(6) workload estimator vs. ground truth
//!   as δ grows (why eq. 6 needs small δ).
//! * `closedloop` — open-loop vs closed-loop (window flow) background
//!   traffic at the bottleneck.
//! * `red` — drop-tail vs RED queue management at the bottleneck under the
//!   paper's (unresponsive) traffic mix: a negative result — RED presumes
//!   congestion-responsive senders.

use std::io::StdoutLock;

use probenet_bench::{flag_value, outln};
use probenet_core::{analyze_losses, analyze_workload, PaperScenario, PhasePlot};
use probenet_netdyn::{ExperimentConfig, SimExperiment};
use probenet_sim::{BufferLimit, Direction, Path, SimDuration};
use probenet_traffic::{offered_bps, InternetMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The tool's locked stdout, which every study writes its lines to.
type Out = StdoutLock<'static>;

/// A study: it runs its experiments and writes its table to stdout.
type Study = fn(&mut Out);

fn heading(stdout: &mut Out, s: &str) {
    outln!(stdout, "\n=== ablation: {s} ===");
}

/// Clock resolution vs. bottleneck-estimate accuracy (δ = 50 ms runs).
fn clock_study(stdout: &mut Out) {
    heading(
        stdout,
        "measurement clock resolution vs mu estimate (truth 128 kb/s)",
    );
    outln!(
        stdout,
        "{:>14} | {:>12} | {:>12} | {:>22}",
        "clock (ms)",
        "intercept",
        "mu estimate",
        "bounds (kb/s)"
    );
    for res_us in [0u64, 500, 1000, 3906, 10_000] {
        let sc = PaperScenario::inria_umd(1993);
        let cfg = ExperimentConfig::paper(SimDuration::from_millis(50))
            .with_count(4800)
            .with_clock(SimDuration::from_micros(res_us));
        let out = sc.run(&cfg);
        let plot = PhasePlot::from_series(&out.series);
        match plot.bottleneck_estimate(10) {
            Some(e) => outln!(
                stdout,
                "{:>14.3} | {:>9.2} ms | {:>7.1} kb/s | [{:>8.1}, {:>8.1}]",
                res_us as f64 / 1e3,
                e.intercept_ms,
                e.mu_bps / 1e3,
                e.mu_lo_bps / 1e3,
                e.mu_hi_bps / 1e3
            ),
            None => outln!(stdout, "{:>14.3} | no line", res_us as f64 / 1e3),
        }
    }
    outln!(
        stdout,
        "reading: accuracy is clock-bound, not method-bound (0 ms is exact)."
    );
}

/// Buffer discipline vs. loss profile at small and large δ.
fn buffer_study(stdout: &mut Out) {
    heading(stdout, "bottleneck buffer discipline vs probe loss profile");
    outln!(
        stdout,
        "{:>22} | {:>9} | {:>9} | {:>9}",
        "buffer",
        "ulp@8ms",
        "ulp@100ms",
        "clp@8ms"
    );
    // 22 slots vs the byte-equivalent when full of 512-B bulk packets.
    let disciplines: Vec<(&str, BufferLimit)> = vec![
        ("Packets(22)", BufferLimit::Packets(22)),
        ("Bytes(11264)", BufferLimit::Bytes(22 * 512)),
        ("Packets(64)", BufferLimit::Packets(64)),
        ("Unbounded", BufferLimit::Unbounded),
    ];
    for (name, limit) in disciplines {
        let mut results = Vec::new();
        let mut clp8 = 0.0;
        for delta_ms in [8u64, 100] {
            let mut path = Path::inria_umd_1992();
            let (b, _) = path.bottleneck();
            path.links[b].buffer = limit;
            let sc = PaperScenario {
                path,
                ..PaperScenario::inria_umd(1993)
            };
            let count = (120_000 / delta_ms) as usize;
            let cfg = ExperimentConfig::paper(SimDuration::from_millis(delta_ms)).with_count(count);
            let out = sc.run(&cfg);
            let loss = analyze_losses(&out.series);
            if delta_ms == 8 {
                clp8 = loss.clp.unwrap_or(0.0);
            }
            results.push(loss.ulp);
        }
        outln!(
            stdout,
            "{:>22} | {:>9.3} | {:>9.3} | {:>9.3}",
            name,
            results[0],
            results[1],
            clp8
        );
    }
    outln!(
        stdout,
        "reading: byte-limited drop-tail admits small probes preferentially,\n\
         flattening the small-delta loss signature the paper measured;\n\
         slot-limited queues (the era's routers) reproduce it."
    );
}

/// Cross-traffic batch size vs. clp and workload-peak visibility.
fn batch_study(stdout: &mut Out) {
    heading(
        stdout,
        "cross-traffic bulk batch size vs loss burstiness and Fig-8 peaks",
    );
    outln!(
        stdout,
        "{:>11} | {:>9} | {:>9} | {:>14} | {:>12}",
        "mean batch",
        "ulp@20ms",
        "clp@20ms",
        "bulk peak?",
        "bulk bytes"
    );
    for mean_batch in [1.5f64, 3.0, 6.0, 12.0] {
        let sc = PaperScenario {
            mean_batch,
            ..PaperScenario::inria_umd(1993)
        };
        let cfg = ExperimentConfig::paper(SimDuration::from_millis(20))
            .with_count(9000)
            .with_clock(SimDuration::ZERO);
        let out = sc.run(&cfg);
        let loss = analyze_losses(&out.series);
        let wl = analyze_workload(&out.series, 128_000.0, 4096.0, 100.0);
        let bulk = wl.inferred_bulk_bytes();
        outln!(
            stdout,
            "{:>11.1} | {:>9.3} | {:>9.3} | {:>14} | {:>12}",
            mean_batch,
            loss.ulp,
            loss.clp.unwrap_or(0.0),
            if bulk.is_some() {
                "detected"
            } else {
                "smeared"
            },
            bulk.map(|b| format!("{b:.0}"))
                .unwrap_or_else(|| "-".into()),
        );
    }
    outln!(
        stdout,
        "reading: bigger batches lengthen overflow episodes (higher clp, as\n\
         the paper saw) but smear the single-FTP-packet peak; the calibrated\n\
         scenario sits at the crossover."
    );
}

/// Equation-(6) estimator bias vs δ.
fn estimator_study(stdout: &mut Out) {
    heading(
        stdout,
        "eq.-(6) workload estimator vs ground truth across delta",
    );
    outln!(
        stdout,
        "{:>10} | {:>16} | {:>16} | {:>8}",
        "delta(ms)",
        "estimated (kb/s)",
        "offered (kb/s)",
        "ratio"
    );
    for delta_ms in [8u64, 20, 50, 100, 200, 500] {
        let sc = PaperScenario::inria_umd(1993);
        let (bidx, mu) = sc.bottleneck();
        let horizon = SimDuration::from_secs(120);
        let mut rng = StdRng::seed_from_u64(sc.seed);
        let arrivals = InternetMix::calibrated(mu, 0.62, 0.10, 3.0).generate(&mut rng, horizon);
        let offered = offered_bps(&arrivals, horizon);

        let cfg = ExperimentConfig::paper(SimDuration::from_millis(delta_ms))
            .with_count((120_000 / delta_ms) as usize)
            .with_clock(SimDuration::ZERO);
        let (series, _) = SimExperiment::new(cfg, sc.path.clone(), 99)
            .with_cross_traffic(bidx, Direction::Outbound, arrivals)
            .run();
        let est = probenet_core::workload_estimates(&series, mu as f64);
        // Mean workload per interval -> implied offered rate.
        let mean_bytes = est.iter().sum::<f64>() / est.len().max(1) as f64;
        let est_bps = mean_bytes * 8.0 / (delta_ms as f64 / 1e3);
        outln!(
            stdout,
            "{:>10} | {:>16.1} | {:>16.1} | {:>8.2}",
            delta_ms,
            est_bps / 1e3,
            offered / 1e3,
            est_bps / offered
        );
    }
    outln!(
        stdout,
        "reading: eq. (6) is exact while the buffer stays busy; as delta\n\
         grows the buffer empties within intervals and the estimator's\n\
         (mu*delta - P) clamp inflates it — the paper's own caveat that the\n\
         estimate is only trustworthy 'if delta is sufficiently small'."
    );
}

/// Open-loop (the paper's Internet mix) vs closed-loop (window flows)
/// background traffic at comparable bottleneck utilization.
fn closedloop_study(stdout: &mut Out) {
    use probenet_sim::{Engine, FlowClass, SimTime, WindowFlow};
    heading(
        stdout,
        "open-loop mix vs closed-loop window transfers as background",
    );
    outln!(
        stdout,
        "{:>12} | {:>10} | {:>8} | {:>8} | {:>9} | {:>10}",
        "background",
        "bneck util",
        "ulp",
        "clp",
        "mean rtt",
        "probe drops"
    );
    let delta_ms = 20u64;
    let count = 6000usize;
    let path = Path::inria_umd_1992();
    let (bidx, spec) = path.bottleneck();
    let mu = spec.bandwidth_bps;

    // Open loop: the calibrated mix.
    {
        let sc = PaperScenario::inria_umd(1993);
        let cfg = ExperimentConfig::paper(SimDuration::from_millis(delta_ms))
            .with_count(count)
            .with_clock(SimDuration::ZERO);
        let out = sc.run(&cfg);
        let loss = analyze_losses(&out.series);
        let rtts = out.series.delivered_rtts_ms();
        outln!(
            stdout,
            "{:>12} | {:>10.2} | {:>8.3} | {:>8.3} | {:>7.0}ms | {:>10}",
            "open-loop",
            out.bottleneck_utilization,
            loss.ulp,
            loss.clp.unwrap_or(0.0),
            rtts.iter().sum::<f64>() / rtts.len() as f64,
            out.probe_overflow_drops + out.probe_random_drops,
        );
    }
    // Closed loop: window transfers in both directions.
    for window in [4usize, 8, 16] {
        let mut engine = Engine::new(path.clone(), 1993);
        engine.add_window_flow(WindowFlow::fixed(512, 40, window, false), SimTime::ZERO);
        engine.add_window_flow(WindowFlow::fixed(512, 40, window / 2, true), SimTime::ZERO);
        for n in 0..count as u64 {
            engine.inject_probe(SimTime::from_millis(delta_ms * n), 72, n);
        }
        engine.run_until(SimTime::from_secs(delta_ms * count as u64 / 1000 + 10));
        let mut flags = vec![true; count];
        let mut rtts = Vec::new();
        for d in engine.probe_deliveries() {
            flags[d.seq as usize] = false;
            rtts.push(d.rtt().as_millis_f64());
        }
        let loss = probenet_core::analyze_loss_flags(&flags);
        let util = engine
            .port(bidx, Direction::Outbound)
            .stats
            .utilization(engine.now());
        let drops = engine
            .drops()
            .iter()
            .filter(|d| d.class == FlowClass::Probe)
            .count();
        outln!(
            stdout,
            "{:>10}w{window:<2} | {:>10.2} | {:>8.3} | {:>8.3} | {:>7.0}ms | {:>10}",
            "closed",
            util,
            loss.ulp,
            loss.clp.unwrap_or(0.0),
            rtts.iter().sum::<f64>() / rtts.len().max(1) as f64,
            drops,
        );
        let _ = mu;
    }
    outln!(
        stdout,
        "reading: closed-loop sources self-limit — they fill the pipe yet\n\
         cannot overflow a buffer larger than their window, so probe losses\n\
         stay at the random-loss floor while delay rides high and steady.\n\
         The open-loop mix produces the paper's loss regime; the 1992\n\
         transatlantic link carried far more flows than buffer slots, making\n\
         the aggregate effectively open-loop."
    );
}

/// Drop-tail vs RED at the bottleneck: loss burstiness across δ.
fn red_study(stdout: &mut Out) {
    use probenet_sim::QueuePolicy;
    heading(stdout, "drop-tail vs RED at the bottleneck");
    outln!(
        stdout,
        "{:>10} | {:>10} | {:>8} | {:>8} | {:>7} | {:>8}",
        "delta(ms)",
        "policy",
        "ulp",
        "clp",
        "plg",
        "random?"
    );
    for delta_ms in [8u64, 20, 50] {
        for red in [false, true] {
            let mut path = Path::inria_umd_1992();
            let (b, _) = path.bottleneck();
            if red {
                path.links[b].policy = QueuePolicy::red_for_capacity(22);
            }
            let sc = PaperScenario {
                path,
                ..PaperScenario::inria_umd(1993)
            };
            let cfg = ExperimentConfig::paper(SimDuration::from_millis(delta_ms))
                .with_count((120_000 / delta_ms) as usize);
            let out = sc.run(&cfg);
            let loss = analyze_losses(&out.series);
            outln!(
                stdout,
                "{:>10} | {:>10} | {:>8.3} | {:>8.3} | {:>7.2} | {:>8}",
                delta_ms,
                if red { "RED" } else { "drop-tail" },
                loss.ulp,
                loss.clp.unwrap_or(0.0),
                loss.plg_measured.unwrap_or(1.0),
                loss.losses_look_random(0.01),
            );
        }
    }
    outln!(
        stdout,
        "reading: with UNRESPONSIVE (open-loop) traffic RED only drops more and\n\
         earlier - losses rise and stay bursty, because the sources never back\n\
         off and the average queue camps above the thresholds. The celebrated\n\
         RED benefits presume congestion-responsive senders; the paper's 1992\n\
         bottleneck, carrying a largely open-loop aggregate, behaves like the\n\
         drop-tail rows.\n"
    );

    // The responsive arm: an AIMD transfer as the background instead.
    use probenet_sim::{Engine, FlowClass, SimTime, WindowFlow};
    outln!(
        stdout,
        "with an AIMD (congestion-responsive) background transfer instead:"
    );
    outln!(
        stdout,
        "{:>10} | {:>12} | {:>12} | {:>10}",
        "policy",
        "probe rtt",
        "xfer done",
        "drops"
    );
    for red in [false, true] {
        let mut path = Path::inria_umd_1992();
        let (b, _) = path.bottleneck();
        // Remove random loss to isolate queue-management effects.
        for l in &mut path.links {
            l.random_loss = 0.0;
        }
        if red {
            path.links[b].policy = probenet_sim::QueuePolicy::red_for_capacity(22);
        }
        let mut engine = Engine::new(path, 1993);
        engine.add_window_flow(WindowFlow::aimd(512, 40, 64, false), SimTime::ZERO);
        for n in 0..4000u64 {
            engine.inject_probe(SimTime::from_millis(20 * n), 72, n);
        }
        engine.run_until(SimTime::from_secs(90));
        let rtts: Vec<f64> = engine
            .probe_deliveries()
            .map(|d| d.rtt().as_millis_f64())
            .collect();
        let done = engine
            .deliveries()
            .iter()
            .filter(|d| d.class == FlowClass::Window)
            .count();
        outln!(
            stdout,
            "{:>10} | {:>9.0} ms | {:>12} | {:>10}",
            if red { "RED" } else { "drop-tail" },
            rtts.iter().sum::<f64>() / rtts.len().max(1) as f64,
            done,
            engine.drops().len(),
        );
    }
    outln!(
        stdout,
        "reading: against a responsive sender RED keeps the standing queue\n\
         short - probe delay falls at comparable transfer throughput. Both\n\
         halves together: AQM is a contract with the sender."
    );
}

/// Every study, in the order `--study all` runs them.
const STUDIES: &[(&str, Study)] = &[
    ("clock", clock_study),
    ("buffer", buffer_study),
    ("batch", batch_study),
    ("estimator", estimator_study),
    ("closedloop", closedloop_study),
    ("red", red_study),
];

fn main() {
    let mut study = "all".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--study" => study = flag_value(&mut it, &a, "a study name"),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let selected: Vec<Study> = STUDIES
        .iter()
        .filter(|(name, _)| study == "all" || study == *name)
        .map(|&(_, run)| run)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = STUDIES.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown study: {study} (one of {}, all)", names.join(", "));
        std::process::exit(2);
    }
    let mut stdout = std::io::stdout().lock();
    for run in selected {
        run(&mut stdout);
    }
}
