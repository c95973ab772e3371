//! Cross-validation: the discrete-event simulator against the analytic
//! queueing layer.
//!
//! These tests degenerate the simulator to configurations with exact or
//! closed-form expectations — the paper's Figure-3 model, Lindley's
//! recurrence, Pollaczek–Khinchine — and require agreement. The
//! equation-(6) workload estimator is checked against the Figure-3 model's
//! known batches the same way.

use probenet::core::workload_estimates;
use probenet::netdyn::{RttRecord, RttSeries};
use probenet::queueing::{finite_queue, md1_mean_wait, Batch, BolotModel, Outcome};
use probenet::sim::{
    figure3_model, BufferLimit, Direction, Engine, FlowClass, LinkSpec, Path, SimDuration, SimTime,
};
use probenet::traffic::PoissonStream;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A one-hop path with no propagation delay and an unbounded buffer: the
/// pure single-server queue.
fn bare_queue(mu_bps: u64) -> Path {
    Path::new(
        vec!["src".into(), "sink".into()],
        vec![LinkSpec::new(mu_bps, SimDuration::ZERO).with_buffer(BufferLimit::Unbounded)],
    )
}

#[test]
fn engine_reproduces_bolot_model_exactly() {
    // The paper's Figure-3 model: fixed delay + one bottleneck. Feed the
    // same probe schedule and batch sequence to both the event simulator
    // and the closed two-stage Lindley recurrence; RTTs must agree to the
    // nanosecond-rounding level.
    let mu = 128_000u64;
    let delta_s = 0.020;
    let fixed_rtt = 0.100;
    let probe_bytes = 72u32;
    let model = BolotModel::new(mu as f64, probe_bytes as f64 * 8.0, delta_s, fixed_rtt);

    // Batch sequence: k FTP packets (4096 bits each) per interval, with a
    // deterministic pattern, arriving 5 ms into the interval. Use a
    // *single arrival instant* per batch, as the model assumes.
    let pattern = [0u32, 1, 0, 0, 2, 0, 1, 0, 0, 0, 3, 0, 0, 1, 0];
    let n_probes = 200usize;
    let batches: Vec<Batch> = (0..n_probes - 1)
        .map(|i| Batch {
            bits: pattern[i % pattern.len()] as f64 * 4096.0,
            offset: 0.005,
        })
        .collect();
    let want_rtts = model.rtts(&model.waiting_times(&batches));

    // Simulator: same single queue; the return path must be free of
    // queueing, so give the return direction nothing to contend with.
    // figure3_model splits the fixed RTT over the one link's propagation
    // (both directions); the probe is served once per direction, but the
    // model counts one P/mu only — so make the return service free by
    // using... instead, build the path by hand: outbound bottleneck link,
    // then an infinitely fast return. A 2-node path shares the link both
    // ways, so use the fact that with no return cross traffic and probe
    // spacing >= P/mu the return queue adds exactly P/mu per probe: fold
    // that into the comparison.
    let path = figure3_model(
        mu,
        SimDuration::from_secs_f64(fixed_rtt),
        BufferLimit::Unbounded,
    );
    let mut engine = Engine::new(path, 0);
    for n in 0..n_probes as u64 {
        engine.inject_probe(
            SimTime::from_secs_f64(delta_s * (n + 1) as f64),
            probe_bytes,
            n,
        );
    }
    for (i, b) in batches.iter().enumerate() {
        if b.bits > 0.0 {
            let k = (b.bits / 4096.0) as u32;
            let at = SimTime::from_secs_f64(delta_s * (i + 1) as f64 + b.offset);
            engine.attach_cross_traffic(0, Direction::Outbound, (0..k).map(move |_| (at, 512u32)));
        }
    }
    engine.run();

    let mut got: Vec<(u64, f64)> = engine
        .probe_deliveries()
        .map(|d| (d.seq, d.rtt().as_secs_f64()))
        .collect();
    got.sort_by_key(|&(seq, _)| seq);
    assert_eq!(got.len(), n_probes, "no probe may be lost here");

    // The simulator's RTT = model RTT + one extra P/mu (the return-link
    // service, which the analytic model folds into D but the simulator
    // pays explicitly).
    let extra = probe_bytes as f64 * 8.0 / mu as f64;
    for (n, rtt) in got {
        let want = want_rtts[n as usize] + extra;
        assert!(
            (rtt - want).abs() < 1e-6,
            "probe {n}: sim {rtt:.6} s vs model {want:.6} s"
        );
    }
}

/// Probe size on the wire of the paper's eq. (6) arithmetic, bytes.
const EQ6_PROBE_BYTES: u32 = 72;

/// The paper's setting for eq. (6): 128 kb/s bottleneck, 72-byte probes,
/// δ = 20 ms.
fn paper_model() -> BolotModel {
    BolotModel::new(128_000.0, f64::from(EQ6_PROBE_BYTES) * 8.0, 0.020, 0.140)
}

/// The series a probe tool would record for the model's probes with waits
/// `waits`: RTTs from [`BolotModel::rtts`], rounded to the nanosecond.
fn model_series(model: &BolotModel, waits: &[f64]) -> RttSeries {
    let delta = SimDuration::from_secs_f64(model.delta);
    let records = model
        .rtts(waits)
        .into_iter()
        .zip(0u64..)
        .map(|(rtt, n)| RttRecord {
            seq: n,
            sent_at: (delta * n).as_nanos(),
            echoed_at: None,
            rtt: Some(SimDuration::from_secs_f64(rtt).as_nanos()),
        })
        .collect();
    RttSeries::new(delta, EQ6_PROBE_BYTES, SimDuration::ZERO, records)
}

/// Eq. (6)'s estimates in bits for the model's probes with waits `waits`.
fn estimated_bits(model: &BolotModel, waits: &[f64]) -> Vec<f64> {
    workload_estimates(&model_series(model, waits), model.mu_bps)
        .into_iter()
        .map(|bytes| bytes * 8.0)
        .collect()
}

#[test]
fn equation6_is_exact_while_the_buffer_stays_busy() {
    let m = paper_model();
    // Offered Internet load just above μδ − P keeps the buffer busy.
    let bits = [3000.0, 2600.0, 2700.0, 3100.0, 2900.0, 2800.0];
    // Warm the queue up first so it never empties during the window.
    let mut batches = vec![
        Batch {
            bits: 8000.0,
            offset: 0.004
        };
        3
    ];
    batches.extend(bits.iter().map(|&b| Batch {
        bits: b,
        offset: 0.004,
    }));
    let w = m.waiting_times(&batches);
    assert!(
        w[3..].iter().all(|&x| x > 0.0),
        "buffer must stay busy: {w:?}"
    );
    let est = estimated_bits(&m, &w[3..]);
    assert_eq!(est.len(), bits.len());
    // Nanosecond RTTs leave at most μ·1 ns ≈ 1.3e-4 bits of error.
    for (e, b) in est.iter().zip(&bits) {
        assert!((e - b).abs() < 1e-3, "estimated {e} true {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. (6) never underestimates: b̂_n ≥ b_n always (exact while the
    /// buffer stays busy; each (·)⁺ of the recurrence only raises
    /// w_{n+1}, and the clamp at zero only raises b̂_n).
    #[test]
    fn equation6_never_underestimates(
        bits in proptest::collection::vec(0.0f64..20_000.0, 1..100),
        offs in proptest::collection::vec(0.0f64..1.0, 1..100),
    ) {
        let m = paper_model();
        let n = bits.len().min(offs.len());
        let batches: Vec<Batch> = (0..n)
            .map(|i| Batch { bits: bits[i], offset: offs[i] * m.delta })
            .collect();
        let est = estimated_bits(&m, &m.waiting_times(&batches));
        prop_assert_eq!(est.len(), n);
        for (e, b) in est.iter().zip(batches.iter().map(|b| b.bits)) {
            prop_assert!(*e >= b - 1e-3, "estimate {} below true {}", e, b);
        }
    }
}

#[test]
fn engine_matches_lindley_finite_queue() {
    // Drive a finite-buffer queue with a deterministic cross-traffic
    // pattern and compare packet-by-packet outcomes with the exact Lindley
    // bookkeeping from the queueing crate.
    let mu = 100_000u64; // 12.5 kB/s: a 500-byte packet takes 40 ms
    let capacity_queued = 3usize;
    let path = Path::new(
        vec!["a".into(), "b".into()],
        vec![
            LinkSpec::new(mu, SimDuration::ZERO).with_buffer(BufferLimit::Packets(capacity_queued))
        ],
    );
    let mut engine = Engine::new(path, 0);
    // A bursty deterministic schedule (ms): clusters that overflow.
    let arrivals_ms: Vec<u64> = vec![0, 1, 2, 3, 4, 5, 200, 201, 202, 203, 204, 500];
    let size = 500u32;
    engine.attach_cross_traffic(
        0,
        Direction::Outbound,
        arrivals_ms
            .iter()
            .map(|&ms| (SimTime::from_millis(ms), size)),
    );
    engine.run();

    let service = size as f64 * 8.0 / mu as f64;
    let arr_s: Vec<f64> = arrivals_ms.iter().map(|&ms| ms as f64 / 1e3).collect();
    let services = vec![service; arr_s.len()];
    // Engine admits into buffer + 1 in service.
    let outcomes = finite_queue(&arr_s, &services, capacity_queued + 1);

    let delivered: std::collections::HashMap<u64, f64> = engine
        .cross_deliveries(0, Direction::Outbound)
        .iter()
        .map(|d| (d.seq, d.rtt().as_secs_f64()))
        .collect();
    let dropped: std::collections::HashSet<u64> = engine
        .cross_drops(0, Direction::Outbound)
        .iter()
        .map(|d| d.seq)
        .collect();

    for (i, o) in outcomes.iter().enumerate() {
        match o {
            Outcome::Served { wait } => {
                let rtt = delivered
                    .get(&(i as u64))
                    .unwrap_or_else(|| panic!("packet {i} should be served"));
                let want = wait + service; // sojourn = wait + service
                assert!(
                    (rtt - want).abs() < 1e-9,
                    "packet {i}: sim sojourn {rtt} vs lindley {want}"
                );
            }
            Outcome::Blocked => {
                assert!(
                    dropped.contains(&(i as u64)),
                    "packet {i} should be blocked"
                );
            }
        }
    }
}

#[test]
fn md1_queue_matches_pollaczek_khinchine() {
    // Poisson arrivals + deterministic service at rho = 0.7: the measured
    // mean waiting time must approach the PK formula.
    let mu = 1_000_000u64; // 1 Mb/s
    let size = 1000u32; // 8 ms service
    let service = size as f64 * 8.0 / mu as f64;
    let rho: f64 = 0.7;
    let lambda = rho / service; // 87.5 packets/s

    let stream = PoissonStream {
        rate_hz: lambda,
        sizes: probenet::traffic::PacketSize::Constant(size),
    };
    let horizon = SimDuration::from_secs(2000);
    let arrivals = stream.generate(&mut StdRng::seed_from_u64(42), horizon);
    let n = arrivals.len();

    let mut engine = Engine::new(bare_queue(mu), 1);
    engine.attach_cross_traffic(
        0,
        Direction::Outbound,
        arrivals.iter().map(|a| a.into_pair()),
    );
    engine.run();

    let total_wait: f64 = engine
        .cross_deliveries(0, Direction::Outbound)
        .iter()
        .map(|d| d.rtt().as_secs_f64() - service)
        .sum();
    let measured = total_wait / n as f64;
    let want = md1_mean_wait(lambda, service);
    let rel = (measured - want).abs() / want;
    assert!(
        rel < 0.08,
        "M/D/1 mean wait: measured {measured:.6} vs PK {want:.6} (rel err {rel:.3})"
    );
}

#[test]
fn probe_saturation_yields_exact_compression_spacing() {
    // delta < P/mu: the probe stream saturates the bottleneck; every
    // delivery is spaced exactly P/mu apart (the extreme of eq. 3).
    let mu = 128_000u64;
    let probe = 72u32; // 4.5 ms service
    let path = Path::new(
        vec!["src".into(), "echo".into()],
        vec![LinkSpec::new(mu, SimDuration::from_millis(5)).with_buffer(BufferLimit::Unbounded)],
    );
    let mut engine = Engine::new(path, 0);
    for n in 0..200u64 {
        engine.inject_probe(SimTime::from_millis(2 * n), probe, n);
    }
    engine.run();
    let mut recv: Vec<SimTime> = engine.probe_deliveries().map(|d| d.delivered_at).collect();
    recv.sort();
    assert_eq!(recv.len(), 200);
    for w in recv.windows(2) {
        assert_eq!(w[1] - w[0], SimDuration::from_micros(4500));
    }
}

#[test]
fn bernoulli_loss_path_has_clp_equal_ulp() {
    // Pure random loss (no queueing, no overflow): the loss process is
    // i.i.d., so clp ≈ ulp, the gap ≈ 1/(1−ulp), and independence tests
    // pass — the baseline against which the paper's small-δ burstiness
    // stands out.
    let path = Path::new(
        vec!["src".into(), "echo".into()],
        vec![LinkSpec::new(10_000_000, SimDuration::from_millis(1)).with_random_loss(0.1)],
    );
    let mut engine = Engine::new(path, 9);
    let n = 50_000u64;
    for k in 0..n {
        engine.inject_probe(SimTime::from_millis(k), 72, k);
    }
    engine.run();
    let mut flags = vec![true; n as usize];
    for d in engine.probe_deliveries() {
        flags[d.seq as usize] = false;
    }
    let analysis = probenet::core::analyze_loss_flags(&flags);
    // Two traversals at 10%: ulp = 1 - 0.9^2 = 0.19.
    assert!((analysis.ulp - 0.19).abs() < 0.01, "ulp {}", analysis.ulp);
    let clp = analysis.clp.expect("losses occurred");
    assert!(
        (clp - analysis.ulp).abs() < 0.02,
        "clp {clp} should equal ulp {}",
        analysis.ulp
    );
    assert!(analysis.losses_look_random(0.001));
    let gap = analysis.plg_measured.expect("losses occurred");
    assert!((gap - 1.0 / (1.0 - clp)).abs() < 0.05, "gap {gap}");
}

/// One random tandem path for [`tandem_queue_oracle`]: link rates,
/// propagation delays, packet buffers, cross traffic per port (in the
/// engine's port numbering) and one propagation shortening.
struct Tandem {
    rates: Vec<u64>,
    delays: Vec<u64>,
    buffers: Vec<usize>,
    cross: Vec<(usize, Vec<(u64, u32)>)>,
    shift: (usize, u64, u64),
    interval: u64,
    probes: u64,
}

const TANDEM_PROBE_BYTES: u32 = 72;

fn random_tandem(rng: &mut StdRng) -> Tandem {
    let links = rng.gen_range(3..=8usize);
    let rates: Vec<u64> = (0..links)
        .map(|_| rng.gen_range(64_000..2_000_000u64))
        .collect();
    let delays: Vec<u64> = (0..links)
        .map(|_| rng.gen_range(1_000..15_000_000u64))
        .collect();
    let buffers = (0..links).map(|_| rng.gen_range(1..=6usize)).collect();
    let interval = rng.gen_range(2_000_000..20_000_000u64);
    let probes = rng.gen_range(150..400u64);
    let span = interval * probes;
    // Cross traffic on one or two ports, never the first (the source's
    // own port), loaded to 20-80 % of the port's link.
    let mut cross = Vec::new();
    for _ in 0..rng.gen_range(1..=2u32) {
        let port = rng.gen_range(1..2 * links);
        let link = if port < links { port } else { port - links };
        let load = rng.gen_range(0.2..0.8);
        let mean_bytes = 770.0;
        let gap = mean_bytes * 8.0 / (load * rates[link] as f64) * 1e9;
        let mut arrivals = Vec::new();
        let mut t = 0u64;
        loop {
            t += (gap * -rng.gen::<f64>().max(1e-12).ln()) as u64 + 1;
            if t > span {
                break;
            }
            arrivals.push((t, rng.gen_range(40..1500u32)));
        }
        cross.push((port, arrivals));
    }
    // One link's route shortens somewhere in the run.
    let link = rng.gen_range(0..links);
    let at = rng.gen_range(span / 4..3 * span / 4);
    let shorter = rng.gen_range(0..delays[link]);
    Tandem {
        rates,
        delays,
        buffers,
        cross,
        shift: (link, at, shorter),
        interval,
        probes,
    }
}

/// The expected outcome of a tandem path, hop by hop: each port in the
/// probe's order is a drop-on-full FIFO ([`finite_queue`]) fed by the
/// probes leaving the port before it (delayed by that link's propagation
/// as of their departure, then re-sorted, so a probe can overtake
/// another after the route shortens) and by its own cross traffic.
/// Returns each probe's RTT (`None` if dropped), or `None` if an arrival
/// meets a departure at the same port and nanosecond while the buffer is
/// full: the engine handles the arrival first and still counts the
/// departing packet, while [`finite_queue`] counts it as gone, so such a
/// path has no oracle.
#[allow(clippy::type_complexity)]
fn tandem_oracle(t: &Tandem) -> Option<Vec<Option<u64>>> {
    let links = t.rates.len();
    let (shift_link, shift_at, shorter) = t.shift;
    let delay = |link: usize, departure: u64| {
        if link == shift_link && departure >= shift_at {
            shorter
        } else {
            t.delays[link]
        }
    };
    // Probe seq -> instant it reaches the current port; None once dropped.
    let mut at: Vec<Option<u64>> = (0..t.probes).map(|n| Some(n * t.interval)).collect();
    for hop in 0..2 * links {
        let (port, link) = if hop < links {
            (hop, hop)
        } else {
            (links + (2 * links - 1 - hop), 2 * links - 1 - hop)
        };
        let service = |bytes: u32| probenet::sim::SimDuration::transmission(bytes, t.rates[link]);
        // (instant, rank, probe seq or MAX for cross, service): probes
        // reach a port through node arrivals, which sort before a cross
        // source's feed at one instant; among themselves by packet id.
        let mut customers: Vec<(u64, u64, u64, u64)> = at
            .iter()
            .enumerate()
            .filter_map(|(n, a)| {
                a.map(|a| (a, 0, n as u64, service(TANDEM_PROBE_BYTES).as_nanos()))
            })
            .collect();
        for (p, arrivals) in &t.cross {
            if *p == port {
                customers.extend(arrivals.iter().enumerate().map(|(i, &(a, bytes))| {
                    (a, 1 + i as u64, u64::MAX, service(bytes).as_nanos())
                }));
            }
        }
        customers.sort_unstable();
        let arrivals: Vec<f64> = customers.iter().map(|c| c.0 as f64).collect();
        let services: Vec<f64> = customers.iter().map(|c| c.3 as f64).collect();
        let capacity = t.buffers[link] + 1;
        let outcomes = finite_queue(&arrivals, &services, capacity);
        // Departures of the admitted customers so far; FIFO keeps them
        // sorted.
        let mut departures: Vec<u64> = Vec::new();
        for (c, o) in customers.iter().zip(&outcomes) {
            let Outcome::Served { wait } = *o else {
                if c.2 != u64::MAX {
                    at[c.2 as usize] = None;
                }
                continue;
            };
            // finite_queue counts a customer departing at this very
            // instant as gone; the engine handles the arrival first and
            // still counts it. Only at a full buffer does that matter.
            let staying = departures.len() - departures.partition_point(|&d| d < c.0);
            if staying >= capacity {
                return None;
            }
            let departure = c.0 + wait as u64 + c.3;
            departures.push(departure);
            if c.2 != u64::MAX {
                at[c.2 as usize] = Some(departure + delay(link, departure));
            }
        }
    }
    Some(
        at.iter()
            .enumerate()
            .map(|(n, a)| a.map(|a| a - n as u64 * t.interval))
            .collect(),
    )
}

#[test]
fn tandem_queue_oracle() {
    // Random 3-8 link paths with cross traffic on one or two hops and one
    // route shortening mid-run: every probe's RTT and the set of dropped
    // probes must equal the hop-by-hop composition of exact finite FIFO
    // queues, to the nanosecond. Most hops carry no cross traffic, so
    // this exercises the engine's inline hops and lazy completions as
    // much as its queued path, and the shortening exercises the guard
    // that keeps packets crossing a link with a pending route shift on
    // the queued path.
    let mut checked = 0;
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x7a9d_e000 + seed);
        let t = random_tandem(&mut rng);
        let Some(want) = tandem_oracle(&t) else {
            continue;
        };
        let links = t.rates.len();
        let nodes = (0..=links).map(|i| format!("n{i}")).collect();
        let specs = (0..links)
            .map(|l| {
                LinkSpec::new(t.rates[l], SimDuration::from_nanos(t.delays[l]))
                    .with_buffer(BufferLimit::Packets(t.buffers[l]))
            })
            .collect();
        let mut engine = Engine::new(Path::new(nodes, specs), seed);
        for (port, arrivals) in &t.cross {
            let (link, direction) = if *port < links {
                (*port, Direction::Outbound)
            } else {
                (*port - links, Direction::Inbound)
            };
            engine.attach_cross_traffic(
                link,
                direction,
                arrivals
                    .iter()
                    .map(|&(a, bytes)| (SimTime::from_nanos(a), bytes)),
            );
        }
        let (shift_link, shift_at, shorter) = t.shift;
        engine.schedule_propagation_change(
            shift_link,
            SimTime::from_nanos(shift_at),
            SimDuration::from_nanos(shorter),
        );
        engine.inject_probe_train(
            SimTime::ZERO,
            SimDuration::from_nanos(t.interval),
            TANDEM_PROBE_BYTES,
            t.probes,
        );
        engine.run();

        let mut got = vec![None; t.probes as usize];
        for d in engine.probe_deliveries() {
            assert!(
                got[d.seq as usize].is_none(),
                "seed {seed}: probe {} twice",
                d.seq
            );
            got[d.seq as usize] = Some(d.rtt().as_nanos());
        }
        let dropped: Vec<u64> = engine
            .drops()
            .iter()
            .filter(|d| d.class == FlowClass::Probe)
            .map(|d| d.seq)
            .collect();
        for (n, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "seed {seed}: probe {n} RTT (ns), engine vs oracle");
            assert_eq!(
                dropped.contains(&(n as u64)),
                w.is_none(),
                "seed {seed}: probe {n} drop"
            );
        }
        checked += 1;
    }
    // A tie between an arrival and a departure at one nanosecond is rare
    // at these rates; nearly every path must have an oracle.
    assert!(checked >= 40, "only {checked} of 48 paths were checked");
}
