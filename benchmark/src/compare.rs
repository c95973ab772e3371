//! `--compare A.json B.json`: two documents of the all-workloads run, metric
//! by metric against the bounds `BENCHMARK.json` fixes.

use crate::harness::{END_TO_END, PER_LAYER};
use crate::workloads::NAMES;
use serde::Value;
use std::path::Path;
use std::process::ExitCode;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(f) => Some(*f),
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        _ => None,
    }
}

fn names(spec: &Value, list: &str) -> Vec<String> {
    match spec.get(list) {
        Some(Value::Array(items)) => items
            .iter()
            .filter_map(|m| match m.get("name") {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Check that `BENCHMARK.json` names exactly the workloads and metrics this
/// binary prints. A missing file is not an error: the binary also runs
/// from a bare checkout of `benchmark/`.
pub fn check_spec(path: &Path) -> Result<(), String> {
    if !path.exists() {
        return Ok(());
    }
    let spec = load(path)?;
    let mismatch = |list: &str, ours: Vec<&str>| {
        let mut theirs = names(&spec, list);
        let mut ours: Vec<String> = ours.into_iter().map(str::to_string).collect();
        theirs.sort();
        ours.sort();
        (theirs != ours).then(|| {
            format!(
                "{}: `{list}` does not name what the binary prints",
                path.display()
            )
        })
    };
    [
        mismatch("workloads", NAMES.to_vec()),
        mismatch("end_to_end", END_TO_END.iter().map(|m| m.0).collect()),
        mismatch("per_layer", PER_LAYER.iter().map(|m| m.0).collect()),
    ]
    .into_iter()
    .flatten()
    .next()
    .map_or(Ok(()), Err)
}

/// By how much `b` is worse than `a`, as a share of `a`; negative when it
/// is better.
fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// Print the comparison; non-zero when an end-to-end metric of `b` is worse
/// than `a`'s by more than its bound, when a count differs between two
/// runs of one seed, or when either document records a failed check.
pub fn run(a: &Path, b: &Path, spec: &Path) -> ExitCode {
    let (doc_a, doc_b, spec) = match (load(a), load(b), load(spec)) {
        (Ok(a), Ok(b), Ok(s)) => (a, b, s),
        (a, b, s) => {
            for e in [a.err(), b.err(), s.err()].into_iter().flatten() {
                eprintln!("probenet-benchmark: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let same_seed = doc_a.get("seed") == doc_b.get("seed");
    let mut ok = true;
    println!(
        "{:<15} {:<32} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for workload in NAMES {
        let side = |doc: &Value| doc.get("workloads").and_then(|w| w.get(workload)).cloned();
        let (Some(wa), Some(wb)) = (side(&doc_a), side(&doc_b)) else {
            println!("{workload:<15} missing from one document");
            ok = false;
            continue;
        };
        for w in [&wa, &wb] {
            if w.get("correct") != Some(&Value::Bool(true)) {
                println!("{workload:<15} a correctness check failed");
                ok = false;
            }
        }
        let metric = |w: &Value, name: &str| {
            number(
                w.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value")),
            )
        };
        let Some(Value::Array(bounded)) = spec.get("end_to_end") else {
            eprintln!("probenet-benchmark: the spec lists no end_to_end metrics");
            return ExitCode::from(2);
        };
        for m in bounded {
            let (Some(Value::Str(name)), Some(Value::Str(better)), Some(bound)) =
                (m.get("name"), m.get("better"), number(m.get("bound")))
            else {
                continue;
            };
            let (Some(va), Some(vb)) = (metric(&wa, name), metric(&wb, name)) else {
                println!("{workload:<15} {name:<32} missing");
                ok = false;
                continue;
            };
            let worse = worse_by(va, vb, better);
            let verdict = if worse > bound { "WORSE" } else { "ok" };
            ok &= worse <= bound;
            println!(
                "{workload:<15} {name:<32} {va:>16.6} {vb:>16.6} {:>8.2}% {:>6.0}% {verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
        for (name, _) in PER_LAYER {
            if let (Some(va), Some(vb)) = (metric(&wa, name), metric(&wb, name)) {
                let change = (vb - va) / va.abs().max(f64::MIN_POSITIVE);
                println!(
                    "{workload:<15} {name:<32} {va:>16.6} {vb:>16.6} {:>+8.2}% {:>7}",
                    change * 100.0,
                    "-"
                );
            }
        }
        // Counts repeat exactly for one seed, in either kind of run.
        for pass in ["end_to_end", "traced"] {
            let counts = |w: &Value| w.get(pass).and_then(|d| d.get("counts")).cloned();
            let (Some(ca), Some(cb)) = (counts(&wa), counts(&wb)) else {
                continue;
            };
            if same_seed && ca != cb {
                println!("{workload:<15} counts differ under one seed ({pass}): {ca:?} vs {cb:?}");
                ok = false;
            } else if !same_seed {
                let differ = if ca == cb { "equal" } else { "different" };
                println!("{workload:<15} seeds differ, counts {differ} ({pass})");
            }
        }
    }
    if ok {
        println!("every end-to-end metric within its bound; counts identical where the seed is");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
