//! Multi-seed measurement campaigns.
//!
//! The paper reports single 10-minute runs per δ; a simulator can rerun the
//! same experiment under many independent seeds and report the sampling
//! variability of every metric — the error bars the original measurements
//! could not have. Campaigns run on the bounded pool in
//! [`crate::sched`] (previously one unbounded OS thread per seed), and
//! [`campaign_matrix`] schedules an entire δ × seed matrix as one flat task
//! list so a big sweep saturates every core instead of parallelizing only
//! within one interval at a time.
//!
//! Results are deterministic by construction: per-seed metrics are computed
//! independently and aggregated in seed order, so any thread count —
//! including the forced-serial [`run_campaign_serial`] — produces an
//! identical [`CampaignResult`].

use probenet_netdyn::ExperimentConfig;
use probenet_sim::SimDuration;
use probenet_stats::Moments;
use serde::{Deserialize, Serialize};

use crate::experiment::PaperScenario;
use crate::loss::analyze_losses;
use crate::phase::PhasePlot;
use crate::sched;

/// Mean ± std of one metric across seeds.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MetricSpread {
    /// Across-seed mean.
    pub mean: f64,
    /// Across-seed standard deviation.
    pub std: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Number of seeds contributing.
    pub n: usize,
}

impl MetricSpread {
    fn from_values(values: &[f64]) -> MetricSpread {
        let m = Moments::from_slice(values);
        MetricSpread {
            mean: m.mean(),
            std: m.std_dev(),
            min: m.min(),
            max: m.max(),
            n: values.len(),
        }
    }
}

/// Aggregated results of one experiment configuration across seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Probe interval δ in ms.
    pub delta_ms: f64,
    /// Unconditional loss probability across seeds.
    pub ulp: MetricSpread,
    /// Conditional loss probability across seeds (seeds without losses are
    /// skipped).
    pub clp: Option<MetricSpread>,
    /// Mean delivered RTT (ms) across seeds.
    pub mean_rtt_ms: MetricSpread,
    /// Minimum RTT (ms) across seeds — the D + P/μ estimate's stability.
    pub min_rtt_ms: MetricSpread,
    /// Bottleneck estimate (kb/s) across seeds that detected a compression
    /// line.
    pub mu_kbps: Option<MetricSpread>,
}

/// Headline metrics of a single seeded run.
struct RunMetrics {
    ulp: f64,
    clp: Option<f64>,
    mean_rtt: f64,
    min_rtt: f64,
    mu_kbps: Option<f64>,
}

fn seed_metrics(scenario: &PaperScenario, config: &ExperimentConfig) -> RunMetrics {
    let out = scenario.run(config);
    let loss = analyze_losses(&out.series);
    let rtts = out.series.delivered_rtts_ms();
    let mean_rtt = if rtts.is_empty() {
        f64::NAN
    } else {
        rtts.iter().sum::<f64>() / rtts.len() as f64
    };
    let plot = PhasePlot::from_series(&out.series);
    RunMetrics {
        ulp: loss.ulp,
        clp: loss.clp,
        mean_rtt,
        min_rtt: out.series.min_rtt_ms().unwrap_or(f64::NAN),
        mu_kbps: plot.bottleneck_estimate(10).map(|e| e.mu_bps / 1e3),
    }
}

fn aggregate(delta_ms: f64, runs: &[RunMetrics]) -> CampaignResult {
    let collect = |f: &dyn Fn(&RunMetrics) -> Option<f64>| -> Vec<f64> {
        runs.iter()
            .filter_map(f)
            .filter(|x| x.is_finite())
            .collect()
    };
    let ulp = MetricSpread::from_values(&collect(&|r| Some(r.ulp)));
    let clp_vals = collect(&|r| r.clp);
    let mu_vals = collect(&|r| r.mu_kbps);
    CampaignResult {
        delta_ms,
        ulp,
        clp: if clp_vals.is_empty() {
            None
        } else {
            Some(MetricSpread::from_values(&clp_vals))
        },
        mean_rtt_ms: MetricSpread::from_values(&collect(&|r| Some(r.mean_rtt))),
        min_rtt_ms: MetricSpread::from_values(&collect(&|r| Some(r.min_rtt))),
        mu_kbps: if mu_vals.is_empty() {
            None
        } else {
            Some(MetricSpread::from_values(&mu_vals))
        },
    }
}

fn run_campaign_threads<F>(
    threads: usize,
    scenario_for: F,
    config: &ExperimentConfig,
    seeds: &[u64],
) -> CampaignResult
where
    F: Fn(u64) -> PaperScenario + Sync,
{
    assert!(!seeds.is_empty(), "a campaign needs at least one seed");
    let runs = sched::par_map_threads(threads, seeds.to_vec(), |seed| {
        seed_metrics(&scenario_for(seed), config)
    });
    aggregate(config.interval.as_millis_f64(), &runs)
}

/// Run `scenario_for(seed)` under `config` for each seed on the bounded
/// pool and aggregate the headline metrics.
///
/// # Panics
/// Panics if `seeds` is empty.
pub fn run_campaign<F>(scenario_for: F, config: &ExperimentConfig, seeds: &[u64]) -> CampaignResult
where
    F: Fn(u64) -> PaperScenario + Sync,
{
    run_campaign_threads(sched::max_threads(), scenario_for, config, seeds)
}

/// [`run_campaign`] forced onto the calling thread, seed by seed, in order.
/// Exists so tests can pin that pool scheduling never changes results.
///
/// # Panics
/// Panics if `seeds` is empty.
pub fn run_campaign_serial<F>(
    scenario_for: F,
    config: &ExperimentConfig,
    seeds: &[u64],
) -> CampaignResult
where
    F: Fn(u64) -> PaperScenario + Sync,
{
    run_campaign_threads(1, scenario_for, config, seeds)
}

/// Run the full δ × seed matrix as one flat task list on the pool and
/// aggregate per interval, in interval order.
///
/// Each task is a single seeded run, so the pool balances across the whole
/// matrix: short-δ runs (many probes) and long-δ runs (few) interleave
/// instead of the sweep waiting on the slowest interval's seed batch.
///
/// # Panics
/// Panics if `deltas` or `seeds` is empty.
pub fn campaign_matrix<F>(
    scenario_for: F,
    deltas: &[SimDuration],
    span: SimDuration,
    seeds: &[u64],
) -> Vec<CampaignResult>
where
    F: Fn(u64) -> PaperScenario + Sync,
{
    assert!(
        !deltas.is_empty(),
        "a campaign matrix needs at least one interval"
    );
    assert!(!seeds.is_empty(), "a campaign needs at least one seed");
    let configs: Vec<ExperimentConfig> = deltas
        .iter()
        .map(|&d| ExperimentConfig::paper(d).with_count((span.as_nanos() / d.as_nanos()) as usize))
        .collect();
    let cells: Vec<(usize, u64)> = (0..deltas.len())
        .flat_map(|di| seeds.iter().map(move |&s| (di, s)))
        .collect();
    let runs = sched::par_map(cells, |(di, seed)| {
        seed_metrics(&scenario_for(seed), &configs[di])
    });
    // `runs` is in cell order (delta-major), so aggregate by fixed-size
    // chunks per interval.
    runs.chunks(seeds.len())
        .zip(&configs)
        .map(|(chunk, config)| aggregate(config.interval.as_millis_f64(), chunk))
        .collect()
}

/// Convenience: the calibrated INRIA–UMd campaign at interval δ.
pub fn inria_umd_campaign(delta: SimDuration, span: SimDuration, seeds: &[u64]) -> CampaignResult {
    let config =
        ExperimentConfig::paper(delta).with_count((span.as_nanos() / delta.as_nanos()) as usize);
    run_campaign(PaperScenario::inria_umd, &config, seeds)
}

/// A seed campaign over a named impairment scenario: the scenario's
/// impairment pipeline and clock configuration are threaded into every
/// seeded run (see [`crate::impair`]).
pub fn impaired_campaign(
    scenario: &crate::impair::ImpairedScenario,
    delta: SimDuration,
    span: SimDuration,
    seeds: &[u64],
) -> CampaignResult {
    let config = scenario.config(delta, span);
    run_campaign(|seed| scenario.with_seed(seed), &config, seeds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_aggregates_across_seeds() {
        let r = inria_umd_campaign(
            SimDuration::from_millis(50),
            SimDuration::from_secs(40),
            &[1, 2, 3, 4],
        );
        assert_eq!(r.ulp.n, 4);
        assert!(r.ulp.mean > 0.02 && r.ulp.mean < 0.3, "ulp {}", r.ulp.mean);
        assert!(r.ulp.min <= r.ulp.mean && r.ulp.mean <= r.ulp.max);
        // The fixed component is stable across seeds.
        assert!(r.min_rtt_ms.std < 1.0, "min rtt std {}", r.min_rtt_ms.std);
        assert!((r.min_rtt_ms.mean - 140.6).abs() < 2.0);
        // Queueing means vary with the seed but stay in a sane band.
        assert!(r.mean_rtt_ms.mean > r.min_rtt_ms.mean + 10.0);
    }

    #[test]
    fn different_seeds_actually_vary() {
        let r = inria_umd_campaign(
            SimDuration::from_millis(20),
            SimDuration::from_secs(30),
            &[10, 20, 30, 40, 50],
        );
        assert!(r.ulp.std > 0.0, "seeds produced identical loss rates");
        assert!(r.ulp.max > r.ulp.min);
    }

    #[test]
    fn single_seed_campaign_is_degenerate_but_valid() {
        let r = inria_umd_campaign(
            SimDuration::from_millis(100),
            SimDuration::from_secs(30),
            &[7],
        );
        assert_eq!(r.ulp.n, 1);
        assert_eq!(r.ulp.std, 0.0);
        assert_eq!(r.ulp.min, r.ulp.max);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_list_panics() {
        inria_umd_campaign(
            SimDuration::from_millis(100),
            SimDuration::from_secs(10),
            &[],
        );
    }

    #[test]
    fn matrix_matches_per_interval_campaigns() {
        let deltas = [SimDuration::from_millis(50), SimDuration::from_millis(100)];
        let span = SimDuration::from_secs(20);
        let seeds = [3, 4];
        let matrix = campaign_matrix(PaperScenario::inria_umd, &deltas, span, &seeds);
        assert_eq!(matrix.len(), 2);
        for (result, &delta) in matrix.iter().zip(&deltas) {
            let single = inria_umd_campaign(delta, span, &seeds);
            assert_eq!(
                serde_json::to_string(result).unwrap(),
                serde_json::to_string(&single).unwrap(),
                "matrix cell diverged from standalone campaign at δ = {delta:?}"
            );
        }
    }
}
