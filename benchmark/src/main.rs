//! The repo benchmark. `run.sh` builds this binary and passes its arguments
//! through; see `README.md` for what is measured and why.
//!
//! ```text
//! probenet-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result on the last line
//! probenet-benchmark [--seed N] [--seconds S] [--trace] [--quick]    every workload, one process each
//! probenet-benchmark --compare A.json B.json                         two such documents against the bounds
//! ```

mod compare;
mod harness;
mod ledger;
mod stats;
mod sys;
mod trace;
mod workloads;

use harness::{RunArgs, RunResult};
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// A [`Value`] the vendored `serde_json` can write.
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Build a JSON object from `(key, value)` pairs, keeping their order.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    compare: Option<(PathBuf, PathBuf)>,
    out_dir: PathBuf,
    spec: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 1993,
        out_dir: PathBuf::from("benchmark/out"),
        spec: PathBuf::from("BENCHMARK.json"),
        ..Cli::default()
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => cli.workload = Some(value(&mut i, flag)?),
            "--seed" => {
                cli.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                cli.seconds = Some(s);
            }
            // `--trace 0|1` from the driver, bare `--trace` by hand.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--quick" => cli.quick = true,
            "--compare" => {
                let a = value(&mut i, flag)?;
                let b = value(&mut i, flag)?;
                cli.compare = Some((PathBuf::from(a), PathBuf::from(b)));
            }
            "--out-dir" => cli.out_dir = PathBuf::from(value(&mut i, flag)?),
            "--spec" => cli.spec = PathBuf::from(value(&mut i, flag)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(cli)
}

fn metrics_object(result: &RunResult) -> Value {
    Value::Object(
        result
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    object(vec![
                        ("value", Value::F64(value)),
                        ("unit", Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn to_line(value: Value) -> String {
    serde_json::to_string(&Json(value)).expect("finite numbers and strings only")
}

/// One run: a detail line, then the result as the last line.
fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(10.0),
        trace: cli.trace,
        quick: cli.quick,
        out_dir: cli.out_dir.clone(),
    };
    let result = match harness::run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("probenet-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(Value::Array(failures)) = result.detail.get("failures") {
        for failure in failures {
            eprintln!("probenet-benchmark: {workload}: check failed: {failure:?}");
        }
    }
    println!(
        "{}",
        to_line(object(vec![("detail", result.detail.clone())]))
    );
    println!(
        "{}",
        to_line(object(vec![
            ("correct", Value::Bool(result.correct)),
            ("attempted", Value::U64(result.attempted)),
            ("failed", Value::U64(result.failed)),
            ("metrics", metrics_object(&result)),
        ]))
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Spawn this binary for one run and parse its last two lines.
fn child_run(cli: &Cli, workload: &str, trace: bool) -> Result<(Value, Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &cli.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&cli.out_dir);
    if let Some(s) = cli.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if cli.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child, so no process outlives this call.
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    std::io::Write::write_all(&mut std::io::stderr(), &out.stderr).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or(format!("{workload}: no output"))?;
    let detail = lines.next().ok_or(format!("{workload}: no detail line"))?;
    let result = serde_json::parse(result).map_err(|e| format!("{workload}: {e}"))?;
    let detail = serde_json::parse(detail).map_err(|e| format!("{workload}: {e}"))?;
    let detail = detail.get("detail").cloned().unwrap_or(Value::Null);
    Ok((result, detail, out.status.success()))
}

/// Every workload, each in its own process (so peak memory is per
/// workload), as one JSON document on standard output.
fn run_all(cli: &Cli) -> ExitCode {
    if let Err(e) = compare::check_spec(&cli.spec) {
        eprintln!("probenet-benchmark: {e}");
        return ExitCode::from(2);
    }
    let mut ok = true;
    let mut per_workload = Vec::new();
    for workload in workloads::NAMES {
        let mut entry: Vec<(String, Value)> = Vec::new();
        let mut metrics: Vec<(String, Value)> = Vec::new();
        let mut attempted = 0u64;
        let mut failed = 0u64;
        let mut correct = true;
        let passes: &[bool] = if cli.trace { &[false, true] } else { &[false] };
        for &trace in passes {
            eprintln!(
                "probenet-benchmark: {workload}{}",
                if trace { " (traced)" } else { "" }
            );
            match child_run(cli, workload, trace) {
                Ok((result, detail, status_ok)) => {
                    correct &= status_ok && result.get("correct") == Some(&Value::Bool(true));
                    if let Some(Value::U64(n)) = result.get("attempted") {
                        attempted += n;
                    }
                    if let Some(Value::U64(n)) = result.get("failed") {
                        failed += n;
                    }
                    if let Some(Value::Object(m)) = result.get("metrics") {
                        metrics.extend(m.iter().cloned());
                    }
                    entry.push((
                        if trace { "traced" } else { "end_to_end" }.to_string(),
                        detail,
                    ));
                }
                Err(e) => {
                    eprintln!("probenet-benchmark: {e}");
                    correct = false;
                }
            }
        }
        ok &= correct;
        let mut fields = vec![
            ("correct".to_string(), Value::Bool(correct)),
            ("attempted".to_string(), Value::U64(attempted)),
            ("failed".to_string(), Value::U64(failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ];
        fields.extend(entry);
        per_workload.push((workload.to_string(), Value::Object(fields)));
    }
    let doc = object(vec![
        ("seed", Value::U64(cli.seed)),
        ("quick", Value::Bool(cli.quick)),
        ("host_cpus", Value::U64(sys::allowed_cpus() as u64)),
        ("workloads", Value::Object(per_workload)),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&Json(doc)).expect("finite numbers and strings only")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // Every workload but `sweep_cmb` (which pins its own partition count)
    // runs the simulator serially: with the variable unset, a
    // `SimExperiment` partitions itself across the host's CPUs. Set before
    // any thread exists.
    std::env::set_var("PROBENET_THREADS", "1");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("probenet-benchmark: {e}");
            eprintln!(
                "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--compare A.json B.json]"
            );
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return compare::run(a, b, &cli.spec);
    }
    match cli.workload.clone() {
        Some(workload) => run_one(&cli, &workload),
        None => run_all(&cli),
    }
}
