//! Run a probing experiment against the discrete-event simulator.
//!
//! This is the simulated counterpart of the real UDP driver: probes are
//! injected at `n·δ`, cross traffic competes for the configured queues, and
//! the delivered round trips — quantized to the host clock resolution —
//! are assembled into an [`RttSeries`].

use std::cell::RefCell;

use probenet_sim::{
    run_partitioned, CrossAttachment, Delivery, Direction, Engine, EngineStats, FlowClass,
    InjectionPlan, Path, PortStats, ProbeInjection, SimTime,
};
use probenet_traffic::Arrival;

use crate::config::ExperimentConfig;
use crate::series::{measured_rtt, skew, RttRecord, RttSeries};

thread_local! {
    /// One recycled engine per worker thread (see [`recycle_engine`]).
    static ENGINE_CACHE: RefCell<Option<Engine>> = const { RefCell::new(None) };
}

/// Offer `engine` for reuse by the next [`SimExperiment::run`] on this
/// thread, whatever path that run probes: the engine is
/// [`Engine::reset`] onto it instead of rebuilt, so its queues, logs and
/// per-hop cross-traffic logs keep their allocations across runs — the
/// sweep, campaign and mesh hot path. A reset engine replays
/// bit-identically to a fresh one, so results never depend on whether a
/// run recycled.
pub fn recycle_engine(engine: Engine) {
    ENGINE_CACHE.with(|cache| *cache.borrow_mut() = Some(engine));
}

/// Network-side outcome of a simulated experiment: what happened inside
/// the path, independent of whether the run was serial or partitioned.
#[derive(Debug)]
pub struct SimRun {
    /// Final simulated time.
    pub now: SimTime,
    /// Engine work counters (summed over partitions).
    pub stats: EngineStats,
    /// Every drop except cross traffic's, which the engine keeps per port.
    pub drops: Vec<probenet_sim::DropRecord>,
    /// Per-port statistics in global port order (outbound `0..links`, then
    /// inbound `0..links`).
    pub port_stats: Vec<PortStats>,
    /// Number of links on the path.
    pub links: usize,
    /// How many partitions the run actually used.
    pub partitions: usize,
    /// The serial engine, when one was used (kept so it can be recycled).
    engine: Option<Engine>,
}

impl SimRun {
    /// Statistics of one port.
    pub fn port(&self, link: usize, direction: Direction) -> &PortStats {
        let idx = match direction {
            Direction::Outbound => link,
            Direction::Inbound => self.links + link,
        };
        &self.port_stats[idx]
    }
}

/// Recycle the engine behind `run`, if it was a serial run (see
/// [`recycle_engine`]). Partitioned runs have nothing to cache.
pub fn recycle_run(run: SimRun) {
    if let Some(engine) = run.engine {
        recycle_engine(engine);
    }
}

/// This thread's cached engine reset onto `path` and `seed` (see
/// [`recycle_engine`]), or a fresh one if none is cached.
fn checkout_engine(path: &Path, seed: u64) -> Engine {
    let cached = ENGINE_CACHE.with(|cache| cache.borrow_mut().take());
    match cached {
        Some(mut engine) => {
            engine.reset(path, seed);
            engine
        }
        None => Engine::new(path.clone(), seed),
    }
}

/// Cross traffic bound for one queue of the path.
#[derive(Debug, Clone)]
pub struct CrossTrafficBinding {
    /// Link index on the path.
    pub link: usize,
    /// Queue direction on that link.
    pub direction: Direction,
    /// The arrival stream.
    pub arrivals: Vec<Arrival>,
}

/// A fully specified simulated experiment.
#[derive(Debug, Clone)]
pub struct SimExperiment {
    /// Probing parameters.
    pub config: ExperimentConfig,
    /// The path to probe.
    pub path: Path,
    /// Cross traffic per queue.
    pub cross_traffic: Vec<CrossTrafficBinding>,
    /// Seed for the simulator's randomness (link loss).
    pub seed: u64,
    /// Partition count for the conservative-parallel engine
    /// (`probenet_sim::run_partitioned`). 1, the default, runs the serial
    /// engine; only [`SimExperiment::with_partitions`] changes it, never
    /// the environment. Results are bit-identical at every width.
    pub partitions: usize,
}

impl SimExperiment {
    /// An experiment over `path` with no cross traffic.
    pub fn new(config: ExperimentConfig, path: Path, seed: u64) -> Self {
        SimExperiment {
            config,
            path,
            cross_traffic: Vec::new(),
            seed,
            partitions: 1,
        }
    }

    /// Set the partition count (see [`SimExperiment::partitions`]).
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Attach a cross-traffic stream to one queue.
    pub fn with_cross_traffic(
        mut self,
        link: usize,
        direction: Direction,
        arrivals: Vec<Arrival>,
    ) -> Self {
        self.cross_traffic.push(CrossTrafficBinding {
            link,
            direction,
            arrivals,
        });
        self
    }

    /// Run to completion and collect the RTT series. Also returns the
    /// network-side outcome for callers that want queue statistics or drop
    /// records.
    pub fn run(self) -> (RttSeries, SimRun) {
        let wire = self.config.wire_bytes();
        let mut records: Vec<RttRecord> = (0..self.config.count as u64)
            .map(|n| RttRecord {
                seq: n,
                sent_at: (SimTime::ZERO + self.config.interval * n).as_nanos(),
                echoed_at: None,
                rtt: None,
            })
            .collect();
        // Impairments can duplicate probes; the receiver keeps the
        // earliest-delivered copy of each sequence number (ties broken by
        // packet id). This selection is order-independent, so serial and
        // partitioned runs fill identical records no matter how their
        // delivery logs happen to be ordered.
        let mut best: Vec<Option<(u64, u64)>> = vec![None; self.config.count];
        let mut fill = |records: &mut Vec<RttRecord>, d: &Delivery| {
            let key = (d.delivered_at.as_nanos(), d.id.0);
            let slot = &mut best[d.seq as usize];
            if slot.is_some_and(|prev| prev <= key) {
                return;
            }
            *slot = Some(key);
            let rtt = measured_rtt(
                d.injected_at,
                d.delivered_at,
                self.config.clock_resolution,
                self.config.clock_drift_ppb,
            );
            records[d.seq as usize].rtt = Some(rtt.as_nanos());
            records[d.seq as usize].echoed_at = d.echoed_at.map(|e| {
                crate::series::quantize(
                    skew(e, self.config.clock_drift_ppb),
                    self.config.clock_resolution,
                )
                .as_nanos()
            });
        };

        let run = if self.partitions <= 1 {
            let mut engine = checkout_engine(&self.path, self.seed);
            engine.reserve(self.config.count);
            for binding in &self.cross_traffic {
                engine.attach_cross_traffic(
                    binding.link,
                    binding.direction,
                    binding.arrivals.iter().map(|a| a.into_pair()),
                );
            }
            engine.inject_probe_train(
                SimTime::ZERO,
                self.config.interval,
                wire,
                self.config.count as u64,
            );
            engine.run();
            for d in engine.probe_deliveries() {
                fill(&mut records, d);
            }
            let links = self.path.links.len();
            let port_stats = (0..links)
                .map(|l| engine.port(l, Direction::Outbound).stats.clone())
                .chain((0..links).map(|l| engine.port(l, Direction::Inbound).stats.clone()))
                .collect();
            SimRun {
                now: engine.now(),
                stats: engine.stats(),
                drops: engine.drops().to_vec(),
                port_stats,
                links,
                partitions: 1,
                engine: Some(engine),
            }
        } else {
            // The plan mirrors the serial injection order exactly (cross
            // bindings first, then probes), so `with_serial_ids` reproduces
            // the serial engine's packet ids.
            let plan = InjectionPlan {
                cross: self
                    .cross_traffic
                    .iter()
                    .map(|b| CrossAttachment {
                        link: b.link,
                        direction: b.direction,
                        arrivals: b.arrivals.iter().map(|a| a.into_pair()).collect(),
                        base_id: 0,
                    })
                    .collect(),
                probes: (0..self.config.count as u64)
                    .map(|n| ProbeInjection {
                        at: SimTime::ZERO + self.config.interval * n,
                        size: wire,
                        seq: n,
                        ttl: probenet_sim::DEFAULT_TTL,
                        id: 0,
                    })
                    .collect(),
            }
            .with_serial_ids();
            let out = run_partitioned(&self.path, self.seed, &plan, self.partitions);
            for d in out
                .deliveries
                .iter()
                .filter(|d| d.class == FlowClass::Probe)
            {
                fill(&mut records, d);
            }
            SimRun {
                now: out.now,
                stats: out.stats,
                drops: out.drops,
                port_stats: out.port_stats,
                links: self.path.links.len(),
                partitions: out.partitions,
                engine: None,
            }
        };

        let series = RttSeries::new(
            self.config.interval,
            wire,
            self.config.clock_resolution,
            records,
        );
        (series, run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probenet_sim::{BufferLimit, LinkSpec, SimDuration};
    use probenet_traffic::{InternetMix, PacketSize, PeriodicStream};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn flat_path(bw: u64) -> Path {
        Path::new(
            vec!["src".into(), "echo".into()],
            vec![LinkSpec::new(bw, SimDuration::from_millis(10))
                .with_buffer(BufferLimit::Packets(20))],
        )
    }

    #[test]
    fn unloaded_experiment_has_constant_rtt_no_loss() {
        let cfg = ExperimentConfig::quick(SimDuration::from_millis(50), 200);
        let (series, _) = SimExperiment::new(cfg, flat_path(128_000), 1).run();
        assert_eq!(series.len(), 200);
        assert_eq!(series.lost(), 0);
        let rtts = series.delivered_rtts_ms();
        // 72 B at 128 kb/s = 4.5 ms per direction + 20 ms propagation.
        assert!(
            rtts.iter().all(|&r| (r - 29.0).abs() < 1e-9),
            "{:?}",
            &rtts[..3]
        );
    }

    #[test]
    fn cross_traffic_inflates_rtts() {
        let cfg = ExperimentConfig::quick(SimDuration::from_millis(50), 200);
        let mix = InternetMix::calibrated(128_000, 0.5, 0.2, 3.0);
        let arrivals = mix.generate(&mut StdRng::seed_from_u64(3), SimDuration::from_secs(12));
        let loaded = SimExperiment::new(cfg.clone(), flat_path(128_000), 1)
            .with_cross_traffic(0, Direction::Outbound, arrivals)
            .run()
            .0;
        let unloaded = SimExperiment::new(cfg, flat_path(128_000), 1).run().0;
        let mean = |s: &RttSeries| {
            let v = s.delivered_rtts_ms();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            mean(&loaded) > mean(&unloaded) + 5.0,
            "loaded {} unloaded {}",
            mean(&loaded),
            mean(&unloaded)
        );
    }

    #[test]
    fn saturating_cross_traffic_causes_losses() {
        let cfg = ExperimentConfig::quick(SimDuration::from_millis(20), 400);
        // Offered cross load alone ≈ 1.3 µ: the finite buffer must drop.
        let cross = PeriodicStream::every(SimDuration::from_millis(24), PacketSize::Constant(512))
            .generate(&mut StdRng::seed_from_u64(5), SimDuration::from_secs(10));
        let (series, run) = SimExperiment::new(cfg, flat_path(128_000), 1)
            .with_cross_traffic(0, Direction::Outbound, cross)
            .run();
        assert!(
            series.loss_probability() > 0.05,
            "ulp {}",
            series.loss_probability()
        );
        assert!(!run.drops.is_empty());
    }

    #[test]
    fn clock_quantization_bands_the_rtts() {
        let res = SimDuration::from_millis(3);
        let cfg = ExperimentConfig::quick(SimDuration::from_millis(50), 100).with_clock(res);
        let (series, _) = SimExperiment::new(cfg, flat_path(10_000_000), 1).run();
        for r in series.delivered_rtts_ms() {
            let ns = (r * 1e6).round() as u64;
            assert_eq!(ns % 3_000_000, 0, "rtt {r} not on a 3 ms grid");
        }
    }

    #[test]
    fn deliveries_map_back_to_correct_sequence_numbers() {
        let cfg = ExperimentConfig::quick(SimDuration::from_millis(10), 50);
        let (series, _) = SimExperiment::new(cfg, flat_path(1_000_000), 1).run();
        for (i, rec) in series.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.sent_at, (i as u64) * 10_000_000);
        }
    }

    #[test]
    fn default_run_is_serial_whatever_the_host() {
        let cfg = ExperimentConfig::quick(SimDuration::from_millis(50), 20);
        let (_, run) = SimExperiment::new(cfg, Path::inria_umd_1992(), 1).run();
        assert_eq!(run.partitions, 1);
    }

    #[test]
    fn partitioned_driver_matches_serial_byte_for_byte() {
        let run_at = |width: usize| {
            let cfg = ExperimentConfig::quick(SimDuration::from_millis(20), 250);
            let mix = InternetMix::calibrated(128_000, 0.6, 0.2, 3.0);
            let out = mix.generate(&mut StdRng::seed_from_u64(9), SimDuration::from_secs(6));
            let back = mix.generate(&mut StdRng::seed_from_u64(10), SimDuration::from_secs(6));
            SimExperiment::new(cfg, probenet_sim::Path::inria_umd_1992(), 4)
                .with_cross_traffic(5, Direction::Outbound, out)
                .with_cross_traffic(5, Direction::Inbound, back)
                .with_partitions(width)
                .run()
        };
        let (serial_series, serial_run) = run_at(1);
        for width in [2usize, 4, 8] {
            let (series, run) = run_at(width);
            assert!(run.partitions > 1, "width {width} did not partition");
            assert_eq!(series.records, serial_series.records, "width {width}");
            assert_eq!(run.now, serial_run.now, "width {width}");
            let stats = |r: &SimRun| {
                r.port_stats
                    .iter()
                    .map(|s| (s.arrivals, s.served, s.overflow_drops, s.busy_time))
                    .collect::<Vec<_>>()
            };
            assert_eq!(stats(&run), stats(&serial_run), "width {width}");
        }
    }

    /// The engine holds only what is in flight: a full paper run (INRIA →
    /// UMd, δ = 8 ms for 600 s, 75 000 probes against both directions of
    /// calibrated cross traffic at the bottleneck) never has more than a
    /// few dozen events pending. Scheduling the probes or the cross traffic
    /// up front would put the whole run in the queue at t = 0.
    #[test]
    fn a_paper_run_keeps_only_packets_in_flight_queued() {
        let path = Path::inria_umd_1992();
        let (bidx, bottleneck) = path.bottleneck();
        let mu = bottleneck.bandwidth_bps;
        let horizon = SimDuration::from_secs(605);
        let mut rng = StdRng::seed_from_u64(1993);
        let mut generate = |utilization| {
            InternetMix::calibrated(mu, utilization, 0.1, 3.0).generate(&mut rng, horizon)
        };
        let (outbound, inbound) = (generate(0.62), generate(0.20));
        let cross = outbound.len() + inbound.len();
        let cfg = ExperimentConfig::paper(SimDuration::from_millis(8));
        let (series, run) = SimExperiment::new(cfg, path, 1993)
            .with_cross_traffic(bidx, Direction::Outbound, outbound)
            .with_cross_traffic(bidx, Direction::Inbound, inbound)
            .run();
        assert_eq!(series.len(), 75_000);
        assert!(cross > 20_000, "only {cross} cross packets generated");
        assert!(
            run.stats.peak_queue_depth <= 64,
            "peak queue depth {} for {cross} cross packets and 75 000 probes",
            run.stats.peak_queue_depth
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let run = || {
            let cfg = ExperimentConfig::quick(SimDuration::from_millis(20), 300);
            let mix = InternetMix::calibrated(128_000, 0.6, 0.2, 3.0);
            let arr = mix.generate(&mut StdRng::seed_from_u64(9), SimDuration::from_secs(7));
            SimExperiment::new(cfg, flat_path(128_000), 4)
                .with_cross_traffic(0, Direction::Outbound, arr)
                .run()
                .0
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
    }
}
