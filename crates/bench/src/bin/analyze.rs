//! `analyze` — the paper's three readings of one measurement file: loss
//! (ulp, clp, gap), the phase-plot bottleneck, and the eq.-6 workload.
//!
//! ```text
//! analyze <series.csv> [--mu-kbps N] [--json]
//! analyze --demo [--json]
//! ```
//!
//! The input is the CSV format written by `probenet_netdyn::to_csv`; a file
//! that skips probes or leaves out δ or the probe size is rejected with its
//! line number (exit 1). `--mu-kbps` supplies the bottleneck rate when
//! known; otherwise it is estimated from probe compression where possible.
//! `--demo` analyzes a freshly simulated INRIA–UMd run instead of a file.
//! A closed stdout (`analyze … | head`) ends the output quietly with exit
//! 0; any other write error exits 1.

use probenet_bench::{flag_value, write_out};
use probenet_core::{full_report, render_report, PaperScenario};
use probenet_netdyn::{from_csv, ExperimentConfig};
use probenet_sim::SimDuration;

/// A bottleneck rate in kb/s: finite and positive, as the workload
/// analysis requires.
struct Kbps(f64);

impl std::str::FromStr for Kbps {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => Ok(Kbps(v)),
            _ => Err(()),
        }
    }
}

const USAGE: &str = "usage: analyze <series.csv> [--mu-kbps N] [--json] | analyze --demo [--json]";

fn main() {
    let mut json = false;
    let mut demo = false;
    let mut mu_bps = None;
    let mut path = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--demo" => demo = true,
            "--mu-kbps" => {
                mu_bps = Some(flag_value::<Kbps>(&mut it, &a, "a positive number (kb/s)").0 * 1e3)
            }
            _ if !a.starts_with("--") && path.is_none() => path = Some(a),
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let series = if demo {
        let sc = PaperScenario::inria_umd(1993);
        let cfg = ExperimentConfig::paper(SimDuration::from_millis(20)).with_count(6000);
        eprintln!("analyzing a simulated 2-minute INRIA-UMd run at delta = 20 ms");
        sc.run(&cfg).series
    } else {
        let path = path.unwrap_or_else(|| {
            eprintln!("{USAGE}");
            std::process::exit(2);
        });
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        from_csv(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(1);
        })
    };

    let report = full_report(&series, mu_bps);
    let text = if json {
        serde_json::to_string_pretty(&report).expect("serializable report") + "\n"
    } else {
        render_report(&report)
    };
    write_out(&mut std::io::stdout().lock(), &text);
}
