//! Per-hop, seed-deterministic fault injectors.
//!
//! The paper's central loss finding (§4) is that probe losses are
//! *correlated* at small δ — the conditional loss probability far exceeds
//! the unconditional one — yet look essentially random at δ = 500 ms. A
//! plain Bernoulli `random_loss` cannot produce that δ-dependence: it has
//! no memory. This module supplies the missing network dynamics as a
//! pipeline of impairments attached to each [`LinkSpec`](crate::LinkSpec):
//!
//! * **Bursty loss** — a continuous-time Gilbert–Elliott channel
//!   ([`GilbertElliott`]): the link alternates between a Good and a Bad
//!   state with exponentially distributed sojourn times, each state
//!   dropping packets with its own probability. Probes sent δ apart see
//!   correlated losses when δ is short relative to the Bad sojourn and
//!   independent losses when δ is long — exactly the paper's observation.
//! * **Reordering** ([`ReorderSpec`]) — a packet is held back for an extra
//!   delay before entering the hop's queue, letting later packets overtake
//!   it (alternate-path forwarding).
//! * **Duplication** ([`DuplicateSpec`]) — a copy of the packet is
//!   re-injected shortly after the original (retransmitting link layers).
//! * **Corruption** (`corrupt_probability`) — the payload is damaged in
//!   flight. Routers forward corrupted packets (they only checksum the IP
//!   header); the damage is caught end-to-end by the `wire` checksum, so
//!   the packet is discarded at the first *endpoint* that decodes it.
//! * **Link flaps** ([`FlapWindow`]) — hard outage windows during which
//!   every arrival at the hop is destroyed.
//! * **Route shifts** ([`RouteShift`]) — scheduled changes of the hop's
//!   propagation delay, modelling a mid-run route change (the RTT baseline
//!   shifts of the paper's companion work, ref \[21\]).
//!
//! # Determinism contract
//!
//! Every random decision is drawn from a per-port RNG seeded by mixing the
//! engine's master seed with the port index ([`port_stream_seed`]). The
//! engine processes events in deterministic order and the pipeline draws
//! in a fixed order per packet, so a fixed (path, seed, injection
//! schedule) yields bit-identical results at any thread count — threads
//! only ever parallelize *whole runs*, never events within one run.
//! Crucially, an inert [`ImpairmentSpec`] draws nothing, so existing
//! scenarios reproduce their pre-impairment traces exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::packet::DropReason;
use crate::time::{SimDuration, SimTime};

/// A continuous-time Gilbert–Elliott loss channel.
///
/// The link is a two-state Markov chain: it stays in the Good state for an
/// exponentially distributed time with mean `mean_good`, then in the Bad
/// state for an exponential time with mean `mean_bad`, and so on. A packet
/// crossing the link while the chain is in state *S* is destroyed with
/// probability `loss_S`.
///
/// With `loss_good == loss_bad` the state no longer matters and the
/// channel degenerates to Bernoulli loss — the differential-test oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct GilbertElliott {
    /// Mean sojourn time in the Good state.
    pub mean_good: SimDuration,
    /// Mean sojourn time in the Bad state.
    pub mean_bad: SimDuration,
    /// Per-packet loss probability while Good (usually ~0).
    pub loss_good: f64,
    /// Per-packet loss probability while Bad (usually ~1).
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A classic burst channel: lossless while Good, losing packets with
    /// probability `loss_bad` while Bad.
    ///
    /// # Panics
    /// Panics if a mean sojourn is zero or a probability is outside [0, 1].
    pub fn bursty(mean_good: SimDuration, mean_bad: SimDuration, loss_bad: f64) -> Self {
        let ge = GilbertElliott {
            mean_good,
            mean_bad,
            loss_good: 0.0,
            loss_bad,
        };
        ge.validate();
        ge
    }

    fn validate(&self) {
        assert!(!self.mean_good.is_zero(), "mean_good must be positive");
        assert!(!self.mean_bad.is_zero(), "mean_bad must be positive");
        assert!(
            (0.0..=1.0).contains(&self.loss_good) && (0.0..=1.0).contains(&self.loss_bad),
            "loss probabilities must lie in [0, 1]"
        );
    }

    /// Stationary probability of finding the chain in the Bad state.
    pub fn stationary_bad(&self) -> f64 {
        let g = self.mean_good.as_nanos() as f64;
        let b = self.mean_bad.as_nanos() as f64;
        b / (g + b)
    }

    /// Long-run (stationary) per-packet loss probability, for calibration.
    pub fn expected_loss(&self) -> f64 {
        let pb = self.stationary_bad();
        pb * self.loss_bad + (1.0 - pb) * self.loss_good
    }
}

/// Occasional extra delay before a packet enters a hop's queue, so that
/// packets sent after it can overtake it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderSpec {
    /// Per-packet probability of being held back.
    pub probability: f64,
    /// How long a held-back packet waits before (re)entering the queue.
    pub extra_delay: SimDuration,
}

/// Occasional duplication: a copy of the packet re-enters the hop's queue
/// `offset` after the original.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DuplicateSpec {
    /// Per-packet probability of being duplicated.
    pub probability: f64,
    /// Lag between the original and the copy entering the queue.
    pub offset: SimDuration,
}

/// A hard outage: every packet arriving at the hop inside `[from, until)`
/// is destroyed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlapWindow {
    /// Outage start (inclusive).
    pub from: SimTime,
    /// Outage end (exclusive).
    pub until: SimTime,
}

impl FlapWindow {
    /// Whether instant `t` falls inside the outage.
    pub fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// A scheduled change of the hop's one-way propagation delay — a mid-run
/// route change re-homing the hop onto a longer or shorter physical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteShift {
    /// When the new route takes effect.
    pub at: SimTime,
    /// The hop's propagation delay from `at` on.
    pub propagation: SimDuration,
}

/// The full impairment pipeline of one hop. The default value is inert:
/// no state, no RNG draws, and byte-identical behaviour to a link built
/// before this module existed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ImpairmentSpec {
    /// Bursty (correlated) loss channel.
    pub burst_loss: Option<GilbertElliott>,
    /// Occasional reordering via held-back packets.
    pub reorder: Option<ReorderSpec>,
    /// Occasional packet duplication.
    pub duplicate: Option<DuplicateSpec>,
    /// Per-packet payload corruption probability (caught end-to-end by the
    /// wire checksum, not by routers).
    pub corrupt_probability: f64,
    /// Hard outage windows.
    pub flaps: Vec<FlapWindow>,
    /// Scheduled propagation-delay changes.
    pub route_shifts: Vec<RouteShift>,
}

impl ImpairmentSpec {
    /// An inert pipeline (same as `Default`).
    pub fn none() -> Self {
        ImpairmentSpec::default()
    }

    /// Whether this pipeline does anything at all. Inert specs are skipped
    /// entirely on the hot path and consume no randomness.
    pub fn is_inert(&self) -> bool {
        self.burst_loss.is_none()
            && self.reorder.is_none()
            && self.duplicate.is_none()
            && self.corrupt_probability == 0.0
            && self.flaps.is_empty()
            && self.route_shifts.is_empty()
    }

    /// Attach a Gilbert–Elliott burst-loss channel.
    pub fn with_burst_loss(mut self, ge: GilbertElliott) -> Self {
        ge.validate();
        self.burst_loss = Some(ge);
        self
    }

    /// Hold packets back with probability `p`, delaying them by `extra`.
    ///
    /// # Panics
    /// Panics if `p` is outside [0, 1].
    pub fn with_reorder(mut self, p: f64, extra: SimDuration) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0, 1]");
        self.reorder = Some(ReorderSpec {
            probability: p,
            extra_delay: extra,
        });
        self
    }

    /// Duplicate packets with probability `p`, the copy lagging by `offset`.
    ///
    /// # Panics
    /// Panics if `p` is outside [0, 1].
    pub fn with_duplicate(mut self, p: f64, offset: SimDuration) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0, 1]");
        self.duplicate = Some(DuplicateSpec {
            probability: p,
            offset,
        });
        self
    }

    /// Corrupt packet payloads with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside [0, 1].
    pub fn with_corruption(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0, 1]");
        self.corrupt_probability = p;
        self
    }

    /// Add a hard outage window.
    ///
    /// # Panics
    /// Panics if the window is empty or inverted.
    pub fn with_flap(mut self, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "flap window must have positive length");
        self.flaps.push(FlapWindow { from, until });
        self
    }

    /// Schedule a propagation-delay change at instant `at`.
    pub fn with_route_shift(mut self, at: SimTime, propagation: SimDuration) -> Self {
        self.route_shifts.push(RouteShift { at, propagation });
        self
    }
}

/// SplitMix64 finalizer — mixes the master seed with a stream index so
/// each port gets an independent, reproducible RNG stream.
pub fn port_stream_seed(seed: u64, port: usize) -> u64 {
    let mut z = seed ^ (port as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the pipeline decided for one packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    /// The packet is destroyed at the hop (`LinkDown` or `BurstLoss`).
    Dropped(DropReason),
    /// The packet proceeds, possibly altered.
    Forward {
        /// Damage the payload (detected later by the endpoint checksum).
        corrupt: bool,
        /// Re-inject a copy this long after the original.
        duplicate: Option<SimDuration>,
        /// Hold the packet back this long before it enters the queue.
        defer: Option<SimDuration>,
    },
}

/// Mutable per-port state of the pipeline: the RNG stream plus the
/// Gilbert–Elliott chain position, advanced lazily to each packet arrival.
#[derive(Debug)]
pub struct ImpairmentState {
    rng: StdRng,
    /// Chain state: `true` while Bad.
    bad: bool,
    /// When the current sojourn ends and the chain flips.
    sojourn_ends: SimTime,
    /// The chain's initial state is drawn on first use.
    primed: bool,
}

impl ImpairmentState {
    /// Fresh state for one port stream.
    pub fn new(stream_seed: u64) -> Self {
        ImpairmentState {
            rng: StdRng::seed_from_u64(stream_seed),
            bad: false,
            sojourn_ends: SimTime::ZERO,
            primed: false,
        }
    }

    /// An exponential sojourn with the given mean, floored at 1 ns so the
    /// chain always advances.
    fn exp_sojourn(&mut self, mean: SimDuration) -> SimDuration {
        let u: f64 = self.rng.gen();
        let nanos = -(1.0 - u).ln() * mean.as_nanos() as f64;
        SimDuration::from_nanos(nanos.clamp(1.0, 1.0e18) as u64)
    }

    /// Advance the Gilbert–Elliott chain to instant `at` and report whether
    /// it is in the Bad state there.
    fn advance(&mut self, ge: &GilbertElliott, at: SimTime) -> bool {
        if !self.primed {
            self.primed = true;
            let u: f64 = self.rng.gen();
            self.bad = u < ge.stationary_bad();
            let mean = if self.bad { ge.mean_bad } else { ge.mean_good };
            let sojourn = self.exp_sojourn(mean);
            self.sojourn_ends = SimTime::ZERO + sojourn;
        }
        while self.sojourn_ends <= at {
            self.bad = !self.bad;
            let mean = if self.bad { ge.mean_bad } else { ge.mean_good };
            let sojourn = self.exp_sojourn(mean);
            self.sojourn_ends += sojourn;
        }
        self.bad
    }

    /// Run the pipeline for one packet arriving at the hop at instant `at`.
    /// `dup_eligible` gates duplication (the engine excludes control
    /// replies, whose bookkeeping assumes one copy).
    ///
    /// Decision order is fixed — flap, burst loss, corruption, duplication,
    /// reorder — so the RNG stream is consumed identically on every replay.
    pub fn evaluate(&mut self, spec: &ImpairmentSpec, at: SimTime, dup_eligible: bool) -> Fate {
        if spec.flaps.iter().any(|w| w.contains(at)) {
            return Fate::Dropped(DropReason::LinkDown);
        }
        if let Some(ge) = &spec.burst_loss {
            let bad = self.advance(ge, at);
            let p = if bad { ge.loss_bad } else { ge.loss_good };
            if p > 0.0 && self.rng.gen::<f64>() < p {
                return Fate::Dropped(DropReason::BurstLoss);
            }
        }
        let corrupt =
            spec.corrupt_probability > 0.0 && self.rng.gen::<f64>() < spec.corrupt_probability;
        let duplicate = spec.duplicate.as_ref().and_then(|d| {
            if d.probability > 0.0 && self.rng.gen::<f64>() < d.probability && dup_eligible {
                Some(d.offset)
            } else {
                None
            }
        });
        let defer = spec.reorder.as_ref().and_then(|r| {
            if r.probability > 0.0 && self.rng.gen::<f64>() < r.probability {
                Some(r.extra_delay)
            } else {
                None
            }
        });
        Fate::Forward {
            corrupt,
            duplicate,
            defer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn inert_spec_reports_inert() {
        assert!(ImpairmentSpec::none().is_inert());
        assert!(ImpairmentSpec::default().is_inert());
        let spec = ImpairmentSpec::default().with_corruption(0.01);
        assert!(!spec.is_inert());
    }

    #[test]
    fn stationary_loss_matches_formula() {
        let ge = GilbertElliott::bursty(ms(900), ms(100), 1.0);
        assert!((ge.stationary_bad() - 0.1).abs() < 1e-12);
        assert!((ge.expected_loss() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn chain_visits_both_states_at_stationary_rate() {
        let ge = GilbertElliott::bursty(ms(400), ms(100), 1.0);
        let mut st = ImpairmentState::new(7);
        let mut bad = 0usize;
        let n = 20_000usize;
        for i in 0..n {
            // Sample every 50 ms, far apart relative to the sojourns.
            let t = SimTime::ZERO + SimDuration::from_millis(50) * i as u64;
            if st.advance(&ge, t) {
                bad += 1;
            }
        }
        let frac = bad as f64 / n as f64;
        assert!(
            (frac - ge.stationary_bad()).abs() < 0.02,
            "bad fraction {frac} vs stationary {}",
            ge.stationary_bad()
        );
    }

    #[test]
    fn back_to_back_samples_are_correlated() {
        let ge = GilbertElliott::bursty(ms(400), ms(100), 1.0);
        let mut st = ImpairmentState::new(11);
        let mut same = 0usize;
        let n = 20_000usize;
        let mut prev = st.advance(&ge, SimTime::ZERO);
        for i in 1..n {
            // 1 ms apart: well inside either sojourn, so the state rarely
            // flips between consecutive samples.
            let t = SimTime::ZERO + SimDuration::from_millis(1) * i as u64;
            let cur = st.advance(&ge, t);
            if cur == prev {
                same += 1;
            }
            prev = cur;
        }
        assert!(
            same as f64 / n as f64 > 0.95,
            "consecutive states should almost always agree"
        );
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let ge = GilbertElliott::bursty(ms(50), ms(10), 0.8);
        let spec = ImpairmentSpec::default()
            .with_burst_loss(ge)
            .with_corruption(0.05)
            .with_duplicate(0.05, ms(1))
            .with_reorder(0.05, ms(20));
        let run = |seed: u64| {
            let mut st = ImpairmentState::new(seed);
            (0..5_000)
                .map(|i| {
                    let t = SimTime::ZERO + SimDuration::from_millis(2) * i as u64;
                    st.evaluate(&spec, t, true)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn flap_window_drops_everything_inside() {
        let spec =
            ImpairmentSpec::default().with_flap(SimTime::from_millis(10), SimTime::from_millis(20));
        let mut st = ImpairmentState::new(1);
        assert_eq!(
            st.evaluate(&spec, SimTime::from_millis(15), true),
            Fate::Dropped(DropReason::LinkDown)
        );
        assert!(matches!(
            st.evaluate(&spec, SimTime::from_millis(25), true),
            Fate::Forward { .. }
        ));
        // Boundary: inclusive start, exclusive end.
        assert_eq!(
            st.evaluate(&spec, SimTime::from_millis(10), true),
            Fate::Dropped(DropReason::LinkDown)
        );
        assert!(matches!(
            st.evaluate(&spec, SimTime::from_millis(20), true),
            Fate::Forward { .. }
        ));
    }

    #[test]
    fn port_streams_differ() {
        assert_ne!(port_stream_seed(1, 0), port_stream_seed(1, 1));
        assert_ne!(port_stream_seed(1, 0), port_stream_seed(2, 0));
    }
}
