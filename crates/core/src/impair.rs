//! Named impairment scenarios: calibrated fault-injection configurations
//! layered on top of the paper's measurement scenarios.
//!
//! Each scenario wraps a [`PaperScenario`] with an impairment pipeline
//! ([`probenet_sim::impair`]) plus the measurement-side impairments (clock
//! drift and resolution), so the whole stack — path, cross traffic, fault
//! injectors, clock — is reproducible from one name and one seed. The
//! `repro --impair <scenario>` CLI and the golden-trace suite both resolve
//! scenarios through [`impairment_scenario`].
//!
//! The flagship scenario, `bursty-transatlantic`, is calibrated so the
//! simulator reproduces the paper's §4 loss findings end to end: at
//! δ = 8 ms the conditional loss probability far exceeds the unconditional
//! one (probes fall into the same Bad period), while at δ = 500 ms
//! successive probes almost never share a Bad period and
//! [`LossAnalysis::losses_look_random`](crate::loss::LossAnalysis) holds.

use probenet_netdyn::{ExperimentConfig, DECSTATION_CLOCK};
use probenet_sim::{GilbertElliott, ImpairmentSpec, SimDuration, SimTime};

use crate::experiment::{ExperimentOutput, PaperScenario};

/// A named, fully calibrated impairment scenario.
#[derive(Debug, Clone)]
pub struct ImpairedScenario {
    /// Stable scenario name, as accepted by `repro --impair`.
    pub name: &'static str,
    /// One-line description for listings.
    pub summary: &'static str,
    /// The underlying measurement scenario with impairments attached to
    /// its path (the stored seed is a placeholder; use
    /// [`ImpairedScenario::with_seed`]).
    pub scenario: PaperScenario,
    /// Frequency error of the measuring host's clock (parts per billion).
    pub clock_drift_ppb: i64,
    /// Clock resolution of the measuring host.
    pub clock_resolution: SimDuration,
}

impl ImpairedScenario {
    /// The underlying scenario re-keyed to `seed`.
    pub fn with_seed(&self, seed: u64) -> PaperScenario {
        let mut sc = self.scenario.clone();
        sc.seed = seed;
        sc
    }

    /// The experiment configuration for probing interval `delta` over
    /// `span`, carrying this scenario's clock impairments.
    pub fn config(&self, delta: SimDuration, span: SimDuration) -> ExperimentConfig {
        let count = (span.as_nanos() / delta.as_nanos()) as usize;
        ExperimentConfig::paper(delta)
            .with_count(count)
            .with_clock(self.clock_resolution)
            .with_drift(self.clock_drift_ppb)
    }

    /// Run the scenario under `seed` at interval `delta` for `span`.
    pub fn run(&self, seed: u64, delta: SimDuration, span: SimDuration) -> ExperimentOutput {
        self.with_seed(seed).run(&self.config(delta, span))
    }
}

/// The INRIA → UMd path with a Gilbert–Elliott burst channel on its
/// transatlantic bottleneck: Bad periods of ~60 ms mean arrive every ~4 s
/// and destroy (almost) everything crossing the link while they last.
///
/// Calibration against the paper's §4 numbers: at δ = 8 ms a Bad period
/// spans ~7 consecutive probes, so the conditional loss probability is an
/// order of magnitude above the unconditional one; at δ = 500 ms a Bad
/// period almost never catches two successive probes, so losses pass the
/// lag-1 independence test.
fn bursty_transatlantic() -> ImpairedScenario {
    let mut scenario = PaperScenario::inria_umd(0);
    let ge = GilbertElliott::bursty(
        SimDuration::from_secs(4),
        SimDuration::from_millis(60),
        0.95,
    );
    let (bidx, _) = scenario.path.bottleneck();
    let link = scenario.path.links[bidx].clone();
    scenario.path.links[bidx] = link.with_impairments(ImpairmentSpec::none().with_burst_loss(ge));
    ImpairedScenario {
        name: "bursty-transatlantic",
        summary: "Gilbert-Elliott burst loss on the 128 kb/s transatlantic bottleneck",
        scenario,
        clock_drift_ppb: 0,
        clock_resolution: DECSTATION_CLOCK,
    }
}

/// A mid-run route change: at t = 40 s the hop after the bottleneck
/// re-homes from its 2 ms satellite-free route onto a 30 ms detour, with a
/// half-second blackout while routing reconverges; at t = 80 s the
/// original route comes back. The RTT baseline shifts by ~56 ms (both
/// directions) and then returns.
fn route_flap() -> ImpairedScenario {
    let mut scenario = PaperScenario::inria_umd(0);
    let (bidx, _) = scenario.path.bottleneck();
    let hop = bidx + 1;
    let old_prop = scenario.path.links[hop].propagation;
    let link = scenario.path.links[hop].clone();
    scenario.path.links[hop] = link.with_impairments(
        ImpairmentSpec::none()
            .with_flap(SimTime::from_millis(39_500), SimTime::from_millis(40_000))
            .with_route_shift(SimTime::from_secs(40), SimDuration::from_millis(30))
            .with_route_shift(SimTime::from_secs(80), old_prop),
    );
    ImpairedScenario {
        name: "route-flap",
        summary: "route change at t=40s (+28 ms one-way) with a 0.5 s blackout, back at t=80s",
        scenario,
        clock_drift_ppb: 0,
        clock_resolution: DECSTATION_CLOCK,
    }
}

/// The unimpaired INRIA → UMd network measured through a bad clock: a
/// coarse 10 ms tick drifting 200 ppm fast. Purely a measurement-side
/// impairment — the network behaves exactly as in the base scenario.
fn noisy_clock() -> ImpairedScenario {
    ImpairedScenario {
        name: "noisy-clock",
        summary: "unimpaired network measured by a 10 ms clock drifting +200 ppm",
        scenario: PaperScenario::inria_umd(0),
        clock_drift_ppb: 200_000,
        clock_resolution: SimDuration::from_millis(10),
    }
}

/// A misbehaving mid-path hop: the SURAnet ethernet segment corrupts 1% of
/// payloads (caught end-to-end by the wire checksum), duplicates 0.5% of
/// packets, and holds 2% back for 25 ms — enough for later probes to
/// overtake them.
fn dirty_fiber() -> ImpairedScenario {
    let mut scenario = PaperScenario::inria_umd(0);
    // Link 6 is the first of the two lossy SURAnet ethernet hops.
    let link = scenario.path.links[6].clone();
    scenario.path.links[6] = link.with_impairments(
        ImpairmentSpec::none()
            .with_corruption(0.01)
            .with_duplicate(0.005, SimDuration::from_millis(1))
            .with_reorder(0.02, SimDuration::from_millis(25)),
    );
    ImpairedScenario {
        name: "dirty-fiber",
        summary: "mid-path hop corrupting 1%, duplicating 0.5% and reordering 2% of packets",
        scenario,
        clock_drift_ppb: 0,
        clock_resolution: DECSTATION_CLOCK,
    }
}

/// All named impairment scenarios, in listing order.
pub fn impairment_scenarios() -> Vec<ImpairedScenario> {
    vec![
        bursty_transatlantic(),
        route_flap(),
        noisy_clock(),
        dirty_fiber(),
    ]
}

/// Look a scenario up by name.
pub fn impairment_scenario(name: &str) -> Option<ImpairedScenario> {
    impairment_scenarios().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_lookup_by_name() {
        for sc in impairment_scenarios() {
            let found = impairment_scenario(sc.name).expect("lookup");
            assert_eq!(found.name, sc.name);
        }
        assert!(impairment_scenario("no-such-scenario").is_none());
    }

    #[test]
    fn bursty_scenario_expected_loss_is_moderate() {
        let sc = impairment_scenario("bursty-transatlantic").unwrap();
        let (bidx, _) = sc.scenario.path.bottleneck();
        let ge = sc.scenario.path.links[bidx]
            .impair
            .burst_loss
            .as_ref()
            .expect("burst channel on the bottleneck");
        // Stationary loss from the burst channel alone stays small: the
        // bursts move losses together in time, not up in rate.
        let p = ge.expected_loss();
        assert!((0.005..0.05).contains(&p), "stationary burst loss {p}");
    }

    #[test]
    fn scenarios_are_reproducible_per_seed() {
        let sc = impairment_scenario("dirty-fiber").unwrap();
        let delta = SimDuration::from_millis(20);
        let span = SimDuration::from_secs(10);
        let a = sc.run(11, delta, span);
        let b = sc.run(11, delta, span);
        assert_eq!(a.series.records, b.series.records);
        let c = sc.run(12, delta, span);
        assert_ne!(a.series.records, c.series.records);
    }

    #[test]
    fn noisy_clock_bands_and_stretches_rtts() {
        let sc = impairment_scenario("noisy-clock").unwrap();
        let out = sc.run(3, SimDuration::from_millis(50), SimDuration::from_secs(30));
        for r in out.series.delivered_rtts_ms() {
            let ns = (r * 1e6).round() as u64;
            assert_eq!(ns % 10_000_000, 0, "rtt {r} not on the 10 ms grid");
        }
    }

    #[test]
    fn route_flap_shifts_the_rtt_baseline() {
        let sc = impairment_scenario("route-flap").unwrap();
        let out = sc.run(
            5,
            SimDuration::from_millis(100),
            SimDuration::from_secs(120),
        );
        let records = &out.series.records;
        let min_in = |lo_s: u64, hi_s: u64| {
            records
                .iter()
                .filter(|r| r.sent_at >= lo_s * 1_000_000_000 && r.sent_at < hi_s * 1_000_000_000)
                .filter_map(|r| r.rtt)
                .min()
                .map(|ns| ns as f64 / 1e6)
                .expect("deliveries in window")
        };
        let before = min_in(0, 38);
        let during = min_in(45, 75);
        let after = min_in(85, 120);
        // 28 ms extra one-way propagation in both directions ≈ +56 ms RTT.
        assert!(
            during - before > 40.0,
            "baseline shift too small: before {before}, during {during}"
        );
        assert!(
            (after - before).abs() < 10.0,
            "baseline did not return: before {before}, after {after}"
        );
    }
}
