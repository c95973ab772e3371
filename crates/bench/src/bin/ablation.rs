//! `ablation` — quantify the design choices DESIGN.md calls out.
//!
//! ```text
//! ablation [--study clock|buffer|batch|estimator|all]
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

/// Every study, in the order `--study all` runs them.
const STUDIES: &[(&str, Study)] = &[
    ("clock", clock_study),
    ("buffer", buffer_study),
    ("batch", batch_study),
    ("estimator", estimator_study),
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
