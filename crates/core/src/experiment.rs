//! Calibrated experiment scenarios and the δ sweep.
//!
//! [`PaperScenario`] packages everything the paper's measurement campaign
//! needs: a path (its Table 1 or Table 2 route), cross traffic calibrated
//! to a bottleneck utilization, and a seed. [`delta_sweep`] reruns it for
//! every probe interval of §2 — the sweep behind Table 3 — in parallel.

use probenet_netdyn::{paper_intervals, ExperimentConfig, RttSeries, SimExperiment};
use probenet_sim::{Direction, DropReason, FlowClass, Path, SimDuration};
use probenet_traffic::InternetMix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A fully calibrated measurement scenario.
#[derive(Debug, Clone)]
pub struct PaperScenario {
    /// The probed path.
    pub path: Path,
    /// Cross-traffic utilization of the bottleneck in the probe direction.
    pub outbound_utilization: f64,
    /// Cross-traffic utilization of the bottleneck on the return direction.
    pub inbound_utilization: f64,
    /// Share of cross traffic that is interactive (Telnet-like).
    pub telnet_share: f64,
    /// Mean bulk batch size (packets per FTP burst).
    pub mean_batch: f64,
    /// Master seed: cross-traffic generation and link randomness derive
    /// from it.
    pub seed: u64,
}

impl PaperScenario {
    /// The INRIA → UMd scenario of July 1992: the Table-1 path with its
    /// 128 kb/s transatlantic bottleneck, moderately loaded with the
    /// Telnet + FTP mix the paper's workload analysis infers.
    pub fn inria_umd(seed: u64) -> Self {
        PaperScenario {
            path: Path::inria_umd_1992(),
            outbound_utilization: 0.62,
            inbound_utilization: 0.20,
            telnet_share: 0.10,
            mean_batch: 3.0,
            seed,
        }
    }

    /// The UMd → Pittsburgh scenario of May 1993 (Table-2 path): a T3
    /// backbone whose 10 Mb/s campus bottleneck is lightly loaded relative
    /// to its speed.
    pub fn umd_pitt(seed: u64) -> Self {
        PaperScenario {
            path: Path::umd_pitt_1993(),
            outbound_utilization: 0.45,
            inbound_utilization: 0.30,
            telnet_share: 0.15,
            mean_batch: 4.0,
            seed,
        }
    }

    /// Bottleneck link index and rate.
    pub fn bottleneck(&self) -> (usize, u64) {
        let (i, spec) = self.path.bottleneck();
        (i, spec.bandwidth_bps)
    }

    /// Run the scenario under `config`, returning the measured series and
    /// summary statistics of what happened inside the network.
    pub fn run(&self, config: &ExperimentConfig) -> ExperimentOutput {
        let (bidx, mu) = self.bottleneck();
        // Cross traffic must outlive the probe schedule a little.
        let horizon = config.span() + SimDuration::from_secs(5);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let outbound = InternetMix::calibrated(
            mu,
            self.outbound_utilization,
            self.telnet_share,
            self.mean_batch,
        )
        .generate(&mut rng, horizon);
        let inbound = InternetMix::calibrated(
            mu,
            self.inbound_utilization,
            self.telnet_share,
            self.mean_batch,
        )
        .generate(&mut rng, horizon);

        let (series, run) = SimExperiment::new(
            config.clone(),
            self.path.clone(),
            self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        )
        .with_cross_traffic(bidx, Direction::Outbound, outbound)
        .with_cross_traffic(bidx, Direction::Inbound, inbound)
        .run();

        let now = run.now;
        let bottleneck_utilization = run.port(bidx, Direction::Outbound).utilization(now);
        let mut probe_overflow = 0u64;
        let mut probe_random = 0u64;
        let mut probe_impair = 0u64;
        for d in &run.drops {
            if d.class == FlowClass::Probe {
                match d.reason {
                    DropReason::BufferOverflow => probe_overflow += 1,
                    DropReason::RandomLoss => probe_random += 1,
                    DropReason::BurstLoss | DropReason::LinkDown | DropReason::Corrupted => {
                        probe_impair += 1
                    }
                    DropReason::TtlExpired => {}
                }
            }
        }
        let engine_stats = run.stats;
        // Hand the run back so a serial engine's allocations can be reused
        // by the next run on this worker thread.
        probenet_netdyn::recycle_run(run);
        ExperimentOutput {
            series,
            mu_bps: mu,
            bottleneck_utilization,
            probe_overflow_drops: probe_overflow,
            probe_random_drops: probe_random,
            probe_impair_drops: probe_impair,
            engine_stats,
        }
    }
}

/// Output of one scenario run.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// The measured RTT series.
    pub series: RttSeries,
    /// The configured bottleneck rate.
    pub mu_bps: u64,
    /// Measured utilization of the outbound bottleneck queue (cross
    /// traffic + probes).
    pub bottleneck_utilization: f64,
    /// Probe losses from buffer overflow.
    pub probe_overflow_drops: u64,
    /// Probe losses from random link loss (faulty interfaces).
    pub probe_random_drops: u64,
    /// Probe losses from the fault injectors: burst loss, outage windows,
    /// and corrupted payloads discarded at an endpoint.
    pub probe_impair_drops: u64,
    /// Work counters of the simulation engine behind this run.
    pub engine_stats: probenet_sim::EngineStats,
}

/// One row of the paper's Table 3 plus context.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepRow {
    /// Probe interval δ in ms.
    pub delta_ms: f64,
    /// Unconditional loss probability.
    pub ulp: f64,
    /// Conditional loss probability (0 when undefined).
    pub clp: f64,
    /// Packet loss gap `1/(1 − clp)` (1 when undefined).
    pub plg: f64,
    /// Fraction of the bottleneck consumed by the probe stream alone.
    pub probe_utilization: f64,
}

/// Run the scenario for every paper interval (`span` of probing per
/// experiment; the paper used 10 minutes) on the bounded pool
/// ([`crate::sched`]) and derive the Table-3 rows, in interval order.
pub fn delta_sweep(
    scenario: &PaperScenario,
    span: SimDuration,
) -> Vec<(SweepRow, ExperimentOutput)> {
    delta_sweep_threads(crate::sched::max_threads(), scenario, span)
}

/// [`delta_sweep`] forced onto the calling thread, interval by interval.
/// Exists so tests can pin that pool scheduling never changes results.
pub fn delta_sweep_serial(
    scenario: &PaperScenario,
    span: SimDuration,
) -> Vec<(SweepRow, ExperimentOutput)> {
    delta_sweep_threads(1, scenario, span)
}

fn delta_sweep_threads(
    threads: usize,
    scenario: &PaperScenario,
    span: SimDuration,
) -> Vec<(SweepRow, ExperimentOutput)> {
    let intervals = paper_intervals();
    let outputs: Vec<ExperimentOutput> = crate::sched::par_map_threads(threads, intervals, |d| {
        let count = (span.as_nanos() / d.as_nanos()) as usize;
        scenario.run(&ExperimentConfig::paper(d).with_count(count))
    });

    let (_, mu) = scenario.bottleneck();
    outputs
        .into_iter()
        .map(|out| {
            let loss = crate::loss::analyze_losses(&out.series);
            let clp = loss.clp.unwrap_or(0.0);
            let row = SweepRow {
                delta_ms: out.series.interval().as_millis_f64(),
                ulp: loss.ulp,
                clp,
                plg: loss.plg_palm.unwrap_or(1.0),
                probe_utilization: (out.series.wire_bytes as f64 * 8.0)
                    / (out.series.interval().as_secs_f64() * mu as f64),
            };
            (row, out)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_config(delta_ms: u64, seconds: u64) -> ExperimentConfig {
        let d = SimDuration::from_millis(delta_ms);
        ExperimentConfig::paper(d).with_count((seconds * 1000 / delta_ms) as usize)
    }

    #[test]
    fn inria_umd_rtt_floor_is_near_140ms() {
        let sc = PaperScenario::inria_umd(1);
        let out = sc.run(&short_config(50, 60));
        let min = out.series.min_rtt_ms().expect("some deliveries");
        assert!(
            (138.0..150.0).contains(&min),
            "min RTT {min} not near the 140 ms fixed component"
        );
    }

    #[test]
    fn inria_umd_shows_queueing_and_loss() {
        let sc = PaperScenario::inria_umd(2);
        let out = sc.run(&short_config(50, 120));
        let rtts = out.series.delivered_rtts_ms();
        let max = rtts.iter().copied().fold(0.0f64, f64::max);
        let min = rtts.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            max - min > 30.0,
            "no queueing dynamics: spread {}",
            max - min
        );
        // The calibrated path loses probes (random + overflow).
        assert!(out.series.loss_probability() > 0.02);
        assert!(out.probe_random_drops > 0);
        // Bottleneck is busy but not saturated at δ = 50 ms.
        assert!((0.3..0.999).contains(&out.bottleneck_utilization));
    }

    #[test]
    fn small_delta_loses_more_than_large_delta() {
        let sc = PaperScenario::inria_umd(3);
        let fast = sc.run(&short_config(8, 60));
        let slow = sc.run(&short_config(500, 240));
        assert!(
            fast.series.loss_probability() > slow.series.loss_probability(),
            "fast {} slow {}",
            fast.series.loss_probability(),
            slow.series.loss_probability()
        );
    }

    #[test]
    fn umd_pitt_is_fast_and_mostly_lossless() {
        let sc = PaperScenario::umd_pitt(4);
        let out = sc.run(&short_config(50, 60));
        let min = out.series.min_rtt_ms().expect("deliveries");
        assert!(min < 40.0, "min RTT {min} too slow for a T3 path");
        assert!(out.series.loss_probability() < 0.05);
    }

    #[test]
    fn scenario_runs_are_reproducible() {
        let sc = PaperScenario::inria_umd(7);
        let a = sc.run(&short_config(20, 30));
        let b = sc.run(&short_config(20, 30));
        assert_eq!(a.series.records, b.series.records);
        assert_eq!(a.probe_overflow_drops, b.probe_overflow_drops);
    }

    #[test]
    fn sweep_produces_one_row_per_interval() {
        let sc = PaperScenario::inria_umd(5);
        let rows = delta_sweep(&sc, SimDuration::from_secs(20));
        assert_eq!(rows.len(), 6);
        let deltas: Vec<f64> = rows.iter().map(|(r, _)| r.delta_ms).collect();
        assert_eq!(deltas, vec![8.0, 20.0, 50.0, 100.0, 200.0, 500.0]);
        for (row, _) in &rows {
            assert!((0.0..=1.0).contains(&row.ulp));
            assert!(row.plg >= 1.0);
        }
    }
}
