//! Property tests of simulator invariants under randomized scenarios.

use proptest::prelude::*;

use std::sync::Arc;

use probenet_sim::{
    Arrival, BufferLimit, Delivery, Direction, DropReason, DropRecord, Engine, FlowClass,
    GilbertElliott, ImpairmentSpec, LinkSpec, Path, SimDuration, SimTime, TraceKind,
};

/// Build a random linear path from proptest-chosen hop parameters.
fn path_from(hops: &[(u64, u64, usize)]) -> Path {
    let nodes = (0..=hops.len()).map(|i| format!("n{i}")).collect();
    let links = hops
        .iter()
        .map(|&(bw_kbps, prop_us, buf)| {
            LinkSpec::new(bw_kbps.max(8) * 1000, SimDuration::from_micros(prop_us))
                .with_buffer(BufferLimit::Packets(buf.max(1)))
        })
        .collect();
    Path::new(nodes, links)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every probe is either delivered or dropped — never both, never lost
    /// track of — across random topologies and schedules.
    #[test]
    fn prop_probe_conservation(
        hops in proptest::collection::vec((8u64..2000, 0u64..20_000, 1usize..40), 1..6),
        n_probes in 1usize..200,
        spacing_us in 100u64..50_000,
    ) {
        let mut engine = Engine::new(path_from(&hops), 42);
        for n in 0..n_probes as u64 {
            engine.inject_probe(
                SimTime::from_micros(spacing_us * n),
                72,
                n,
            );
        }
        engine.run();
        let delivered: Vec<u64> = engine.deliveries().iter().map(|d| d.seq).collect();
        let dropped: Vec<u64> = engine
            .drops()
            .iter()
            .filter(|d| d.class == FlowClass::Probe)
            .map(|d| d.seq)
            .collect();
        prop_assert_eq!(delivered.len() + dropped.len(), n_probes);
        let mut all: Vec<u64> = delivered.iter().chain(dropped.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), n_probes, "a probe was double-counted");
    }

    /// RTTs never undercut the physical floor of the path.
    #[test]
    fn prop_rtt_at_least_base(
        hops in proptest::collection::vec((8u64..2000, 0u64..20_000, 1usize..40), 1..6),
        n_probes in 1usize..150,
        spacing_us in 1_000u64..100_000,
    ) {
        let path = path_from(&hops);
        let base = path.base_rtt(72);
        let mut engine = Engine::new(path, 1);
        for n in 0..n_probes as u64 {
            engine.inject_probe(SimTime::from_micros(spacing_us * n), 72, n);
        }
        engine.run();
        for d in engine.deliveries().iter() {
            prop_assert!(d.rtt() >= base, "rtt {:?} below base {:?}", d.rtt(), base);
        }
    }

    /// FIFO paths cannot reorder: probes return in send order.
    #[test]
    fn prop_fifo_no_reordering(
        hops in proptest::collection::vec((8u64..500, 0u64..5_000, 1usize..20), 1..5),
        n_probes in 2usize..150,
        spacing_us in 100u64..20_000,
    ) {
        let mut engine = Engine::new(path_from(&hops), 7);
        for n in 0..n_probes as u64 {
            engine.inject_probe(SimTime::from_micros(spacing_us * n), 72, n);
        }
        engine.run();
        // Deliveries are recorded in completion order.
        let seqs: Vec<u64> = engine.deliveries().iter().map(|d| d.seq).collect();
        for w in seqs.windows(2) {
            prop_assert!(w[0] < w[1], "reordered: {} after {}", w[1], w[0]);
        }
    }

    /// One-way components always sum to the round trip.
    #[test]
    fn prop_owd_sums_to_rtt(
        hops in proptest::collection::vec((8u64..2000, 0u64..20_000, 2usize..40), 1..5),
        n_probes in 1usize..100,
    ) {
        let mut engine = Engine::new(path_from(&hops), 3);
        for n in 0..n_probes as u64 {
            engine.inject_probe(SimTime::from_millis(20 * n), 72, n);
        }
        engine.run();
        for d in engine.deliveries().iter() {
            let out = d.outbound_delay().expect("probes are echoed");
            let back = d.inbound_delay().expect("probes are echoed");
            prop_assert_eq!(out + back, d.rtt());
        }
    }

    /// Determinism: identical seeds and schedules give identical traces,
    /// even with random loss in play.
    #[test]
    fn prop_seeded_determinism(
        seed in 0u64..1000,
        loss_pct in 0u32..40,
        n_probes in 1usize..120,
    ) {
        let build = || {
            let path = Path::new(
                vec!["a".into(), "b".into(), "c".into()],
                vec![
                    LinkSpec::new(500_000, SimDuration::from_millis(1))
                        .with_random_loss(loss_pct as f64 / 100.0),
                    LinkSpec::new(300_000, SimDuration::from_millis(2))
                        .with_buffer(BufferLimit::Packets(4)),
                ],
            );
            let mut e = Engine::new(path, seed);
            e.enable_trace();
            for n in 0..n_probes as u64 {
                e.inject_probe(SimTime::from_millis(3 * n), 72, n);
            }
            e.run();
            let trace: Vec<(u64, u64)> = e
                .take_trace()
                .iter()
                .map(|t| (t.at.as_nanos(), t.seq))
                .collect();
            (trace, e.deliveries().iter().count(), e.drops().len())
        };
        prop_assert_eq!(build(), build());
    }

    /// The trace is self-consistent: every delivered probe was echoed
    /// exactly once, and every enqueue at a port is eventually matched by a
    /// TxDone or nothing (never two TxDone for one packet at one port).
    #[test]
    fn prop_trace_echo_consistency(
        n_probes in 1usize..100,
        spacing_us in 500u64..20_000,
    ) {
        let path = Path::new(
            vec!["a".into(), "b".into()],
            vec![LinkSpec::new(128_000, SimDuration::from_millis(5))
                .with_buffer(BufferLimit::Packets(8))],
        );
        let mut e = Engine::new(path, 5);
        e.enable_trace();
        for n in 0..n_probes as u64 {
            e.inject_probe(SimTime::from_micros(spacing_us * n), 72, n);
        }
        e.run();
        let trace = e.take_trace();
        let delivered: std::collections::HashSet<u64> =
            e.deliveries().iter().map(|d| d.seq).collect();
        for &seq in &delivered {
            let echoes = trace
                .iter()
                .filter(|t| t.seq == seq && t.kind == TraceKind::Echoed)
                .count();
            prop_assert_eq!(echoes, 1, "probe {} echoed {} times", seq, echoes);
        }
    }
}

/// A single-hop path with an impairment pipeline on its link.
fn impaired_path(spec: ImpairmentSpec) -> Path {
    Path::new(
        vec!["src".into(), "echo".into()],
        vec![LinkSpec::new(10_000_000, SimDuration::from_millis(5))
            .with_buffer(BufferLimit::Unbounded)
            .with_impairments(spec)],
    )
}

/// Unconditional and conditional loss probability of a delivered/lost flag
/// sequence (losses are `true`).
fn loss_stats(lost: &[bool]) -> (f64, Option<f64>) {
    let ulp = lost.iter().filter(|&&l| l).count() as f64 / lost.len() as f64;
    let (mut after_loss, mut loss_then_loss) = (0usize, 0usize);
    for w in lost.windows(2) {
        if w[0] {
            after_loss += 1;
            if w[1] {
                loss_then_loss += 1;
            }
        }
    }
    let clp = (after_loss > 0).then(|| loss_then_loss as f64 / after_loss as f64);
    (ulp, clp)
}

/// Run `n` probes δ apart over `path` and return per-seq loss flags.
fn loss_flags(path: Path, seed: u64, n: usize, delta: SimDuration) -> Vec<bool> {
    let mut e = Engine::new(path, seed);
    for k in 0..n as u64 {
        e.inject_probe(SimTime::ZERO + delta * k, 72, k);
    }
    e.run();
    let mut flags = vec![true; n];
    for d in e.deliveries().iter() {
        flags[d.seq as usize] = false;
    }
    flags
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The degenerate-case oracle: Gilbert–Elliott with equal Good and Bad
    /// loss rates is memoryless, so over a long run both its loss rate and
    /// its conditional loss probability must match plain Bernoulli
    /// `random_loss` within sampling tolerance.
    #[test]
    fn prop_degenerate_ge_matches_bernoulli(
        seed in 0u64..500,
        loss_pct in 5u32..30,
    ) {
        let p = loss_pct as f64 / 100.0;
        let n = 12_000usize;
        let delta = SimDuration::from_millis(2);

        let ge = GilbertElliott {
            mean_good: SimDuration::from_millis(40),
            mean_bad: SimDuration::from_millis(10),
            loss_good: p,
            loss_bad: p,
        };
        let ge_flags = loss_flags(
            impaired_path(ImpairmentSpec::none().with_burst_loss(ge)),
            seed,
            n,
            delta,
        );
        let bern_flags = loss_flags(
            Path::new(
                vec!["src".into(), "echo".into()],
                vec![LinkSpec::new(10_000_000, SimDuration::from_millis(5))
                    .with_buffer(BufferLimit::Unbounded)
                    .with_random_loss(p)],
            ),
            seed.wrapping_add(9999),
            n,
            delta,
        );

        let (ge_ulp, ge_clp) = loss_stats(&ge_flags);
        let (b_ulp, b_clp) = loss_stats(&bern_flags);
        // Loss happens on both link directions: effective rate 1-(1-p)².
        let expect = 1.0 - (1.0 - p) * (1.0 - p);
        // 4σ-ish tolerance for n = 12k Bernoulli samples plus a margin.
        let tol = 4.0 * (expect * (1.0 - expect) / n as f64).sqrt() + 0.01;
        prop_assert!((ge_ulp - expect).abs() < tol, "GE ulp {ge_ulp} vs {expect}");
        prop_assert!((b_ulp - expect).abs() < tol, "Bern ulp {b_ulp} vs {expect}");
        // Memorylessness: conditional ≈ unconditional for both processes.
        let ge_clp = ge_clp.expect("losses occurred");
        let b_clp = b_clp.expect("losses occurred");
        prop_assert!((ge_clp - ge_ulp).abs() < 0.06, "GE clp {ge_clp} ulp {ge_ulp}");
        prop_assert!((ge_clp - b_clp).abs() < 0.08, "GE clp {ge_clp} Bern clp {b_clp}");
    }

    /// Conservation under the full impairment pipeline: with duplication in
    /// play ids are not unique per seq, but every injected *seq* still has
    /// at least one terminal event, and every id exactly one.
    #[test]
    fn prop_conservation_under_impairments(
        seed in 0u64..500,
        n_probes in 50usize..300,
    ) {
        let spec = ImpairmentSpec::none()
            .with_burst_loss(GilbertElliott::bursty(
                SimDuration::from_millis(200),
                SimDuration::from_millis(40),
                0.9,
            ))
            .with_corruption(0.05)
            .with_duplicate(0.1, SimDuration::from_millis(1))
            .with_reorder(0.1, SimDuration::from_millis(30))
            .with_flap(SimTime::from_millis(100), SimTime::from_millis(200));
        let mut e = Engine::new(impaired_path(spec), seed);
        for k in 0..n_probes as u64 {
            e.inject_probe(SimTime::from_millis(4 * k), 72, k);
        }
        e.run();
        let mut ids: Vec<u64> = e
            .deliveries().iter()
            .map(|d| d.id.0)
            .chain(e.drops().iter().map(|d| d.id.0))
            .collect();
        ids.sort_unstable();
        let unique = {
            let mut u = ids.clone();
            u.dedup();
            u.len()
        };
        prop_assert_eq!(unique, ids.len(), "a packet finished twice");
        // Duplicates mean ≥ n_probes terminal events; every seq accounted.
        let mut seqs: Vec<u64> = e
            .deliveries().iter()
            .map(|d| d.seq)
            .chain(e.drops().iter().map(|d| d.seq))
            .collect();
        seqs.sort_unstable();
        seqs.dedup();
        prop_assert_eq!(seqs.len(), n_probes, "a probe seq vanished");
    }

    /// Determinism under the full pipeline: identical seeds replay
    /// bit-identically, and a reset engine matches a fresh one.
    #[test]
    fn prop_impaired_determinism(
        seed in 0u64..500,
        n_probes in 20usize..150,
    ) {
        let spec = ImpairmentSpec::none()
            .with_burst_loss(GilbertElliott::bursty(
                SimDuration::from_millis(300),
                SimDuration::from_millis(50),
                0.8,
            ))
            .with_corruption(0.02)
            .with_duplicate(0.05, SimDuration::from_millis(1))
            .with_reorder(0.05, SimDuration::from_millis(20));
        let outcome = |e: &mut Engine| {
            for k in 0..n_probes as u64 {
                e.inject_probe(SimTime::from_millis(5 * k), 72, k);
            }
            e.run();
            let del: Vec<(u64, u64)> = e
                .deliveries().iter()
                .map(|d| (d.seq, d.delivered_at.as_nanos()))
                .collect();
            let drops: Vec<(u64, u8)> = e
                .drops()
                .iter()
                .map(|d| (d.seq, d.reason as u8))
                .collect();
            (del, drops)
        };
        let mut fresh = Engine::new(impaired_path(spec.clone()), seed);
        let a = outcome(&mut fresh);
        // Reset must restore the impairment state streams too.
        fresh.reset(&impaired_path(spec.clone()), seed);
        let b = outcome(&mut fresh);
        let mut other = Engine::new(impaired_path(spec), seed);
        let c = outcome(&mut other);
        prop_assert_eq!(&a, &b, "reset engine diverged from its own first run");
        prop_assert_eq!(&a, &c, "fresh engine diverged");
    }
}

/// Everything arriving at a flapped link during the outage dies with
/// `LinkDown`; arrivals outside the window never do.
#[test]
fn flap_window_drops_exactly_inside_outage() {
    let spec =
        ImpairmentSpec::none().with_flap(SimTime::from_millis(100), SimTime::from_millis(200));
    let mut e = Engine::new(impaired_path(spec), 3);
    for k in 0..60u64 {
        e.inject_probe(SimTime::from_millis(5 * k), 72, k);
    }
    e.run();
    let down: Vec<u64> = e
        .drops()
        .iter()
        .filter(|d| d.reason == DropReason::LinkDown)
        .map(|d| d.seq)
        .collect();
    assert!(!down.is_empty(), "outage lost nothing");
    // Probes sent in [100, 200) ms hit the outage outbound; ones sent just
    // before can be caught inbound (≈10 ms round trip). Nothing outside
    // [90, 200) ms can be affected.
    for &seq in &down {
        let sent_ms = 5 * seq;
        assert!(
            (90..200).contains(&sent_ms),
            "probe sent at {sent_ms} ms dropped by outage"
        );
    }
    // Probes clearly outside the window all return.
    let delivered: std::collections::HashSet<u64> = e.deliveries().iter().map(|d| d.seq).collect();
    for k in 0..60u64 {
        let sent_ms = 5 * k;
        if !(85..205).contains(&sent_ms) {
            assert!(delivered.contains(&k), "probe at {sent_ms} ms missing");
        }
    }
}

/// Corrupted probes travel the full path and die at an endpoint, not at
/// the corrupting hop.
#[test]
fn corruption_is_caught_at_the_endpoint_checksum() {
    let spec = ImpairmentSpec::none().with_corruption(0.2);
    let mut e = Engine::new(impaired_path(spec), 11);
    e.enable_trace();
    for k in 0..400u64 {
        e.inject_probe(SimTime::from_millis(3 * k), 72, k);
    }
    e.run();
    let corrupted: Vec<_> = e
        .drops()
        .iter()
        .filter(|d| d.reason == DropReason::Corrupted)
        .map(|d| d.seq)
        .collect();
    assert!(!corrupted.is_empty(), "no corruption drops at p=0.2");
    let trace = e.take_trace();
    for seq in corrupted {
        // The corrupted probe finished its transmission on the marked hop
        // (routers forward it) before the endpoint discarded it.
        assert!(
            trace
                .iter()
                .any(|t| t.seq == seq && t.kind == TraceKind::ChecksumDrop),
            "probe {seq} lacks a checksum-drop trace"
        );
    }
}

/// Duplication delivers the same sequence number more than once with
/// distinct packet ids — the receiver-side dedup is the driver's job.
#[test]
fn duplicates_surface_as_repeated_sequence_numbers() {
    let spec = ImpairmentSpec::none().with_duplicate(0.3, SimDuration::from_millis(1));
    let mut e = Engine::new(impaired_path(spec), 17);
    for k in 0..200u64 {
        e.inject_probe(SimTime::from_millis(5 * k), 72, k);
    }
    e.run();
    let mut per_seq = std::collections::HashMap::new();
    for d in e.deliveries().iter() {
        *per_seq.entry(d.seq).or_insert(0u32) += 1;
    }
    assert!(
        per_seq.values().any(|&c| c > 1),
        "duplication produced no repeated deliveries"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event queue pops exactly what an obviously correct model pops:
    /// a vector of `(time, lane, payload)` whose pop removes the minimum
    /// `(time, lane)`, local lanes being `LOCAL_LANE | insertion index`.
    /// Schedules at the current instant, near it and far ahead interleave
    /// with pops, on content and local lanes; far events land on a coarse
    /// grid, so same-instant FIFO ties build up across many pops.
    #[test]
    fn prop_event_queue_matches_min_model(
        ops in proptest::collection::vec(
            // (schedule?, offset-class, offset, keyed?, lane)
            (any::<bool>(), 0u8..3, 0u64..1 << 30, any::<bool>(), 0u64..1 << 20),
            1..400,
        ),
    ) {
        use probenet_sim::event::LOCAL_LANE;
        use probenet_sim::EventQueue;
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut model: Vec<(u64, u64, u32)> = Vec::new();
        let (mut next_local, mut now, mut peak) = (0u64, 0u64, 0usize);
        let mut ticket = 0u32;
        let model_min = |model: &[(u64, u64, u32)]| {
            (0..model.len()).min_by_key(|&i| (model[i].0, model[i].1))
        };
        for (do_schedule, class, offset, keyed, lane) in ops {
            if do_schedule || model.is_empty() {
                // Same instant, within a millisecond, or up to ~137 s out
                // on a 2^30 ns (~1.07 s) grid.
                let at = match class {
                    0 => now,
                    1 => now + (offset & ((1 << 20) - 1)),
                    _ => (now + (offset << 7)).next_multiple_of(1 << 30),
                };
                let lane = if keyed {
                    // Unique per packet, like real packet-id lanes; ties
                    // between identical (time, lane) pairs would be
                    // legitimately ambiguous.
                    let lane = (lane << 32) | u64::from(ticket);
                    queue.schedule_keyed(SimTime::from_nanos(at), lane, ticket);
                    lane
                } else {
                    queue.schedule(SimTime::from_nanos(at), ticket);
                    let lane = LOCAL_LANE | next_local;
                    next_local += 1;
                    lane
                };
                model.push((at, lane, ticket));
                peak = peak.max(model.len());
                ticket += 1;
            } else {
                let i = model_min(&model).expect("model is non-empty");
                prop_assert_eq!(queue.peek_time(), Some(SimTime::from_nanos(model[i].0)));
                let (at, lane, payload) = model.swap_remove(i);
                now = at;
                prop_assert_eq!(queue.pop(), Some((SimTime::from_nanos(at), payload)));
                prop_assert_eq!(queue.lane(), lane);
                prop_assert_eq!(queue.now(), SimTime::from_nanos(now));
            }
            prop_assert_eq!(queue.len(), model.len());
            prop_assert_eq!(queue.peak_len(), peak);
        }
        while let Some(i) = model_min(&model) {
            let (at, lane, payload) = model.swap_remove(i);
            prop_assert_eq!(queue.pop(), Some((SimTime::from_nanos(at), payload)));
            prop_assert_eq!(queue.lane(), lane);
        }
        prop_assert_eq!(queue.pop(), None);
    }
}

/// Every port of `e` as `(link, direction)`, outbound ports first.
fn all_ports(e: &Engine) -> Vec<(usize, Direction)> {
    let links = e.path().links.len();
    [Direction::Outbound, Direction::Inbound]
        .into_iter()
        .flat_map(|d| (0..links).map(move |l| (l, d)))
        .collect()
}

type DeliveryRow = (u64, FlowClass, u64, u64, Option<u64>, u64);
type DropRow = (u64, FlowClass, u64, u64, usize, DropReason);

/// What a run left behind: its trace, deliveries, drops, event count and
/// every port's cross deliveries and drops. A cross packet's sequence
/// number is its index within its `attach_cross_traffic` call, so it is
/// the one field that differs between one call and one call per packet;
/// it is blanked here, and the packet ids (identical on both sides) pin
/// identity instead.
type Observed = (
    Vec<(u64, Option<usize>, u64, FlowClass, u64, TraceKind)>,
    Vec<DeliveryRow>,
    Vec<DropRow>,
    u64,
    Vec<(Vec<DeliveryRow>, Vec<DropRow>)>,
);

fn observe(mut e: Engine) -> Observed {
    e.run();
    let seq = |class: FlowClass, seq: u64| if class == FlowClass::Cross { 0 } else { seq };
    let trace = e
        .take_trace()
        .iter()
        .map(|t| {
            (
                t.at.as_nanos(),
                t.port,
                t.packet.0,
                t.class,
                seq(t.class, t.seq),
                t.kind,
            )
        })
        .collect();
    let delivery = |d: &Delivery| {
        (
            d.id.0,
            d.class,
            seq(d.class, d.seq),
            d.injected_at.as_nanos(),
            d.echoed_at.map(|t| t.as_nanos()),
            d.delivered_at.as_nanos(),
        )
    };
    let drop = |d: &DropRecord| {
        (
            d.id.0,
            d.class,
            seq(d.class, d.seq),
            d.at.as_nanos(),
            d.port,
            d.reason,
        )
    };
    let cross = all_ports(&e)
        .into_iter()
        .map(|(l, dir)| {
            (
                e.cross_deliveries(l, dir).iter().map(delivery).collect(),
                e.cross_drops(l, dir).iter().map(drop).collect(),
            )
        })
        .collect();
    (
        trace,
        e.deliveries().iter().map(delivery).collect(),
        e.drops().iter().map(drop).collect(),
        e.stats().events_processed,
        cross,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lazy feed is bit-identical to eager scheduling. One engine gets
    /// each direction's cross traffic as one `attach_cross_traffic` call
    /// (one source fed a packet at a time) and its probes as one
    /// `inject_probe_train`; the other gets one single-packet call per
    /// cross packet — a one-packet source is the eager schedule by
    /// construction — and the `inject_probe` loop the train replaces.
    /// The lazy engine's streams are shared slices: the outbound one is
    /// attached a second time, to the inbound port, and each source reads
    /// it through its own cursor.
    /// Arrival times are unsorted, repeat within a call, and sit on the
    /// same 1 ms grid as probe injections and every `TxDone` (72 B take
    /// 1 ms on the first link and 2 ms on the second, 144 B twice that).
    #[test]
    fn prop_lazy_feed_matches_eager_schedule(
        cross in proptest::collection::vec((0u64..60, any::<bool>(), any::<bool>()), 0..150),
        n_probes in 0u64..50,
        probe_ms in 0u64..4,
        loss_pct in 0u32..20,
        seed in 0u64..1000,
    ) {
        let path = Path::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec![
                LinkSpec::new(576_000, SimDuration::from_millis(1))
                    .with_buffer(BufferLimit::Packets(4))
                    .with_random_loss(f64::from(loss_pct) / 100.0),
                LinkSpec::new(288_000, SimDuration::from_millis(1))
                    .with_buffer(BufferLimit::Packets(3)),
            ],
        );
        let (mut outbound, mut inbound) = (Vec::new(), Vec::new());
        for &(ms, big, out) in &cross {
            let packet = Arrival { at: SimTime::from_millis(ms), size: if big { 144 } else { 72 } };
            if out { outbound.push(packet) } else { inbound.push(packet) }
        }
        let (outbound, inbound): (Arc<[Arrival]>, Arc<[Arrival]>) = (outbound.into(), inbound.into());
        let interval = SimDuration::from_millis(probe_ms);
        let engine = || {
            let mut e = Engine::new(path.clone(), seed);
            e.enable_trace();
            e
        };

        let mut lazy = engine();
        lazy.attach_cross_traffic(1, Direction::Outbound, Arc::clone(&outbound));
        lazy.attach_cross_traffic(0, Direction::Inbound, Arc::clone(&inbound));
        lazy.attach_cross_traffic(0, Direction::Inbound, Arc::clone(&outbound));
        lazy.inject_probe_train(SimTime::ZERO, interval, 72, n_probes);

        let mut eager = engine();
        for &packet in outbound.iter() {
            eager.attach_cross_traffic(1, Direction::Outbound, [packet]);
        }
        for &packet in inbound.iter().chain(outbound.iter()) {
            eager.attach_cross_traffic(0, Direction::Inbound, [packet]);
        }
        for n in 0..n_probes {
            eager.inject_probe(SimTime::ZERO + interval * n, 72, n);
        }

        let (lazy, eager) = (observe(lazy), observe(eager));
        prop_assert_eq!(&lazy.0, &eager.0, "traces differ");
        prop_assert_eq!(&lazy.1, &eager.1, "deliveries differ");
        prop_assert_eq!(&lazy.2, &eager.2, "drops differ");
        prop_assert_eq!(lazy.3, eager.3, "events_processed differs");
        prop_assert_eq!(&lazy.4, &eager.4, "cross records differ");
    }
}

/// Non-proptest regression: drops carry the right reason at the right port.
#[test]
fn drop_records_identify_the_bottleneck() {
    let path = Path::new(
        vec!["a".into(), "b".into(), "c".into()],
        vec![
            LinkSpec::new(10_000_000, SimDuration::ZERO),
            LinkSpec::new(64_000, SimDuration::ZERO).with_buffer(BufferLimit::Packets(2)),
        ],
    );
    let mut e = Engine::new(path, 1);
    for n in 0..50u64 {
        e.inject_probe(SimTime::from_micros(100 * n), 72, n);
    }
    e.run();
    assert!(!e.drops().is_empty());
    let out_port = e.port_index(1, Direction::Outbound);
    for d in e.drops() {
        assert_eq!(d.reason, DropReason::BufferOverflow);
        assert_eq!(d.port, out_port, "drop at unexpected port {}", d.port);
    }
}

/// A four-link path with every kind of impairment on its second link, a
/// lossy 128 kb/s third link, and a route shift on the second (shorter)
/// and fourth (longer) links: the queued path and the fast path both run.
fn replay_path() -> Path {
    let ms = SimDuration::from_millis;
    let impaired = ImpairmentSpec::none()
        .with_burst_loss(GilbertElliott::bursty(ms(300), ms(30), 0.4))
        .with_duplicate(0.05, ms(2))
        .with_reorder(0.05, ms(3))
        .with_corruption(0.02)
        .with_flap(SimTime::from_millis(300), SimTime::from_millis(340))
        .with_route_shift(SimTime::from_millis(600), ms(3));
    Path::new(
        (0..5).map(|i| format!("n{i}")).collect(),
        vec![
            LinkSpec::new(10_000_000, SimDuration::from_micros(300))
                .with_buffer(BufferLimit::Packets(8)),
            LinkSpec::new(512_000, ms(7))
                .with_buffer(BufferLimit::Packets(4))
                .with_impairments(impaired),
            LinkSpec::new(128_000, ms(20))
                .with_buffer(BufferLimit::Packets(6))
                .with_random_loss(0.02),
            LinkSpec::new(2_000_000, ms(2))
                .with_buffer(BufferLimit::Packets(5))
                .with_impairments(
                    ImpairmentSpec::none().with_route_shift(SimTime::from_millis(900), ms(6)),
                ),
        ],
    )
}

/// [`replay_path`] without reordering or duplication, and with a burst
/// channel on the lossy bottleneck that carries the cross traffic: every
/// port folds its cross traffic except those on the two links that shift
/// route.
fn fold_path() -> Path {
    let ms = SimDuration::from_millis;
    let mut path = replay_path();
    path.links[1].impair.reorder = None;
    path.links[1].impair.duplicate = None;
    let bottleneck = path.links[2].clone();
    path.links[2] = bottleneck.with_impairments(
        ImpairmentSpec::none().with_burst_loss(GilbertElliott::bursty(ms(200), ms(20), 0.6)),
    );
    path
}

/// Whether every port of `e` accounts for every packet that reached it.
fn ports_conserve(e: &Engine) -> bool {
    all_ports(e)
        .into_iter()
        .all(|(l, d)| e.port(l, d).conserves_packets())
}

/// The ports [`load_replay`] attaches cross traffic to; an arrival's third
/// field indexes this.
const REPLAY_CROSS_PORTS: [(usize, Direction); 3] = [
    (2, Direction::Outbound),
    (2, Direction::Inbound),
    (0, Direction::Inbound),
];

/// Whether, after a complete run, every port's cross deliveries and drops
/// together number exactly the cross packets [`load_replay`] attached
/// there. This holds because no port on the replay path duplicates
/// packets; a duplicating port adds a record for each copy.
fn cross_conserved(e: &Engine, cross: &[(u64, bool, u8)]) -> bool {
    all_ports(e).into_iter().all(|(l, d)| {
        let attached = REPLAY_CROSS_PORTS
            .iter()
            .position(|&port| port == (l, d))
            .map_or(0, |source| {
                cross.iter().filter(|c| usize::from(c.2) == source).count()
            });
        e.cross_deliveries(l, d).len() + e.cross_drops(l, d).len() == attached
    })
}

type ReplayDelivery = (u64, u64, u64, Option<u64>);
type ReplayDrop = (u64, u64, usize, DropReason);

/// What a run left behind, every log in its order, each port's cross
/// records included. Port statistics are compared through their `Debug`
/// text.
#[derive(Debug, PartialEq)]
struct Replay {
    trace: Vec<(u64, Option<usize>, u64, TraceKind)>,
    deliveries: Vec<ReplayDelivery>,
    drops: Vec<ReplayDrop>,
    cross: Vec<(Vec<ReplayDelivery>, Vec<ReplayDrop>)>,
    ttl_replies: Vec<(u64, usize, u64)>,
    ports: Vec<String>,
    now: u64,
    events: u64,
}

fn replay(e: &mut Engine) -> Replay {
    let delivery = |d: &Delivery| {
        let echoed = d.echoed_at.map(SimTime::as_nanos);
        (d.id.0, d.seq, d.delivered_at.as_nanos(), echoed)
    };
    let drop = |d: &DropRecord| (d.id.0, d.at.as_nanos(), d.port, d.reason);
    Replay {
        trace: e
            .take_trace()
            .iter()
            .map(|t| (t.at.as_nanos(), t.port, t.packet.0, t.kind))
            .collect(),
        deliveries: e.deliveries().iter().map(delivery).collect(),
        drops: e.drops().iter().map(drop).collect(),
        cross: all_ports(e)
            .into_iter()
            .map(|(l, d)| {
                (
                    e.cross_deliveries(l, d).iter().map(delivery).collect(),
                    e.cross_drops(l, d).iter().map(drop).collect(),
                )
            })
            .collect(),
        ttl_replies: e
            .ttl_replies()
            .iter()
            .map(|r| (r.probe_seq, r.node, r.received_at.as_nanos()))
            .collect(),
        ports: all_ports(e)
            .into_iter()
            .map(|(l, d)| format!("{:?}", e.port(l, d).stats))
            .collect(),
        now: e.now().as_nanos(),
        events: e.stats().events_processed,
    }
}

/// Load `e` with cross traffic on the third link both ways and the first
/// link inbound (the third field of each arrival picks which), and `probes` probes `interval_us` apart: a probe train,
/// or with `ttl` one probe at a time, every fifth with a TTL that runs
/// out on the way.
fn load_replay(
    e: &mut Engine,
    cross: &[(u64, bool, u8)],
    probes: u64,
    interval_us: u64,
    ttl: bool,
) {
    for (source, (link, direction)) in REPLAY_CROSS_PORTS.into_iter().enumerate() {
        e.attach_cross_traffic(
            link,
            direction,
            cross
                .iter()
                .filter(|c| usize::from(c.2) == source)
                .map(|&(us, big, _)| Arrival {
                    at: SimTime::from_micros(us),
                    size: if big { 576 } else { 72 },
                })
                .collect::<Vec<_>>(),
        );
    }
    if !ttl {
        let interval = SimDuration::from_micros(interval_us);
        e.inject_probe_train(SimTime::ZERO, interval, 72, probes);
        return;
    }
    for n in 0..probes {
        let at = SimTime::from_micros(n * interval_us);
        if n % 5 == 0 {
            e.inject_probe_with_ttl(at, 72, n, 1 + (n % 7) as u8);
        } else {
            e.inject_probe(at, 72, n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pausing at any set of horizons changes nothing: `run_until` at each
    /// horizon and then `run` leaves the same deliveries and drops (in
    /// order, every port's cross records too), TTL replies, trace, port
    /// statistics, clock and event count as one `run`, and each port's
    /// cross records account for every cross packet attached there. Untraced runs take the inline hops (whose departures
    /// and arrivals stop at each horizon) and, on [`fold_path`], fold the
    /// cross traffic up to each horizon; traced runs take only the early
    /// departures. Arrival and probe times sit on a 1 ms grid half the
    /// time, so ties between ports at one instant are common.
    #[test]
    fn prop_run_until_at_any_horizons_equals_run(
        cross in proptest::collection::vec((0u64..1_500_000, any::<bool>(), 0u8..3), 0..200),
        probes in 0u64..120,
        interval_us in 500u64..12_000,
        horizons in proptest::collection::vec(0u64..1_800_000, 1..40),
        grid in any::<bool>(),
        ttl in any::<bool>(),
        modes in (any::<bool>(), any::<bool>()),
        seed in 0u64..1000,
    ) {
        let (traced, folding) = modes;
        let snap = |us: u64| if grid { us / 1000 * 1000 } else { us };
        let cross: Vec<_> = cross.iter().map(|&(us, big, port)| (snap(us), big, port)).collect();
        let interval_us = snap(interval_us).max(1000);
        let build = || {
            let path = if folding { fold_path() } else { replay_path() };
            let mut e = Engine::new(path, seed);
            if traced {
                e.enable_trace();
            }
            load_replay(&mut e, &cross, probes, interval_us, ttl);
            e
        };
        let mut straight = build();
        straight.run();
        prop_assert!(ports_conserve(&straight));
        prop_assert!(cross_conserved(&straight, &cross));
        let mut stepped = build();
        let mut horizons: Vec<u64> = horizons.iter().map(|&us| snap(us)).collect();
        horizons.sort_unstable();
        for us in horizons {
            stepped.run_until(SimTime::from_micros(us));
            prop_assert!(ports_conserve(&stepped));
        }
        stepped.run();
        prop_assert!(ports_conserve(&stepped));
        prop_assert!(cross_conserved(&stepped, &cross));
        prop_assert_eq!(replay(&mut stepped), replay(&mut straight));
    }

    /// A traced run keeps every cross packet and every hop on the clock;
    /// an untraced one folds cross traffic into its ports and runs hops
    /// inline. Both leave the same deliveries and drops (in order, every
    /// port's cross records too), TTL replies, port statistics, clock and
    /// event count, with every attached cross packet delivered or dropped
    /// at its port, on a path that
    /// keeps the queued path ([`replay_path`] reorders and duplicates)
    /// and on one that folds ([`fold_path`]). Half the cases sit on a
    /// 1 ms grid, so ports tie at one instant.
    #[test]
    fn prop_traced_and_untraced_runs_leave_the_same_records(
        cross in proptest::collection::vec((0u64..1_500_000, any::<bool>(), 0u8..3), 0..200),
        probes in 0u64..120,
        interval_us in 500u64..12_000,
        grid in any::<bool>(),
        ttl in any::<bool>(),
        folding in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let snap = |us: u64| if grid { us / 1000 * 1000 } else { us };
        let cross: Vec<_> = cross.iter().map(|&(us, big, port)| (snap(us), big, port)).collect();
        let interval_us = snap(interval_us).max(1000);
        let run = |traced: bool| {
            let path = if folding { fold_path() } else { replay_path() };
            let mut e = Engine::new(path, seed);
            if traced {
                e.enable_trace();
            }
            load_replay(&mut e, &cross, probes, interval_us, ttl);
            e.run();
            e
        };
        let (mut traced, mut untraced) = (run(true), run(false));
        prop_assert!(ports_conserve(&traced));
        prop_assert!(ports_conserve(&untraced));
        prop_assert!(cross_conserved(&traced, &cross));
        prop_assert!(cross_conserved(&untraced, &cross));
        let mut on_clock = replay(&mut traced);
        on_clock.trace.clear();
        prop_assert_eq!(replay(&mut untraced), on_clock);
    }

    /// A reset engine replays bit-identically even when the run before it
    /// stopped at a horizon, in the middle of transmissions and hops: the
    /// fast path's per-port state and, on [`fold_path`], the folds go with
    /// the reset. The peak queue depth, which the reset rewinds too, must
    /// match a fresh engine's.
    #[test]
    fn prop_reset_after_a_paused_run_replays_exactly(
        cross in proptest::collection::vec((0u64..1_500_000, any::<bool>(), 0u8..3), 0..200),
        probes in 1u64..120,
        interval_us in 500u64..12_000,
        pause_us in 0u64..1_500_000,
        traced in any::<bool>(),
        folding in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let path = || if folding { fold_path() } else { replay_path() };
        let load = |e: &mut Engine| {
            if traced {
                e.enable_trace();
            }
            load_replay(e, &cross, probes, interval_us, false);
        };
        let mut fresh = Engine::new(path(), seed);
        load(&mut fresh);
        fresh.run();
        let mut reused = Engine::new(path(), seed ^ 1);
        load(&mut reused);
        reused.run_until(SimTime::from_micros(pause_us));
        reused.reset(&path(), seed);
        load(&mut reused);
        reused.run();
        prop_assert_eq!(
            reused.stats().peak_queue_depth,
            fresh.stats().peak_queue_depth
        );
        prop_assert_eq!(replay(&mut reused), replay(&mut fresh));
    }
}

/// A path of `links` links for [`prop_reset_onto_another_path_equals_a_fresh_engine`]:
/// speeds, delays and buffers vary by link and `salt`, the middle link
/// loses 2 % at random, and with `impaired` the first link carries every
/// kind of impairment and the last a route shift. Without impairments
/// every port folds its cross traffic; with them none does.
fn varied_path(links: usize, impaired: bool, salt: usize) -> Path {
    let ms = SimDuration::from_millis;
    let nodes = (0..=links).map(|i| format!("n{i}")).collect();
    let links = (0..links)
        .map(|i| {
            let k = i + salt;
            let bandwidth = [10_000_000, 512_000, 128_000, 2_000_000][k % 4];
            let mut link = LinkSpec::new(
                bandwidth,
                SimDuration::from_micros(300 + 1700 * (k % 5) as u64),
            )
            .with_buffer(BufferLimit::Packets(4 + k % 3));
            if i == links / 2 {
                link = link.with_random_loss(0.02);
            }
            let mut impair = ImpairmentSpec::none();
            if impaired && i == 0 {
                impair = impair
                    .with_burst_loss(GilbertElliott::bursty(ms(300), ms(30), 0.4))
                    .with_duplicate(0.05, ms(2))
                    .with_reorder(0.05, ms(3))
                    .with_corruption(0.02)
                    .with_flap(SimTime::from_millis(300), SimTime::from_millis(340));
            }
            if impaired && i == links - 1 {
                impair = impair.with_route_shift(SimTime::from_millis(600), ms(6));
            }
            link.with_impairments(impair)
        })
        .collect();
    Path::new(nodes, links)
}

/// Attach each `(µs, big, link, inbound)` arrival to its port of `e`'s
/// path (`link` taken modulo its link count), in one call per port, then
/// a train of `probes` probes `interval_us` apart.
fn load_varied(e: &mut Engine, cross: &[(u64, bool, usize, bool)], probes: u64, interval_us: u64) {
    let links = e.path().links.len();
    for link in 0..links {
        for (inbound, direction) in [(false, Direction::Outbound), (true, Direction::Inbound)] {
            let arrivals: Vec<Arrival> = cross
                .iter()
                .filter(|c| c.2 % links == link && c.3 == inbound)
                .map(|&(us, big, _, _)| Arrival {
                    at: SimTime::from_micros(us),
                    size: if big { 576 } else { 72 },
                })
                .collect();
            if !arrivals.is_empty() {
                e.attach_cross_traffic(link, direction, arrivals);
            }
        }
    }
    let interval = SimDuration::from_micros(interval_us);
    e.inject_probe_train(SimTime::ZERO, interval, 72, probes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One engine serves any path: run on path A (to the end or paused at
    /// a horizon, mid-transmission), then reset onto a path B with another
    /// number of links, it leaves every record, every port's statistics
    /// and every port's cross log exactly as `Engine::new(B)` does. The
    /// port numbering's inbound half shifts with the link count, while the
    /// cross logs stay by hop, so a log left at the wrong index or a
    /// per-port buffer sized for A shows here.
    #[test]
    fn prop_reset_onto_another_path_equals_a_fresh_engine(
        links in (1usize..7, 1usize..6),
        cross_a in proptest::collection::vec((0u64..1_500_000, any::<bool>(), 0usize..6, any::<bool>()), 0..150),
        cross_b in proptest::collection::vec((0u64..1_500_000, any::<bool>(), 0usize..6, any::<bool>()), 1..150),
        train in (1u64..100, 1000u64..15_000),
        pause_us in proptest::option::of(0u64..1_500_000),
        modes in (any::<bool>(), any::<bool>(), 0usize..4),
        seed in 0u64..1000,
    ) {
        // B has 1 to 6 links, never as many as A.
        let (a_links, b_links) = (links.0, 1 + (links.0 - 1 + links.1) % 6);
        let ((probes, interval_us), (impaired_a, impaired_b, salt)) = (train, modes);
        let path_b = varied_path(b_links, impaired_b, salt);
        let mut fresh = Engine::new(path_b.clone(), seed);
        load_varied(&mut fresh, &cross_b, probes, interval_us);
        fresh.run();

        let mut reused = Engine::new(varied_path(a_links, impaired_a, salt + 1), seed ^ 1);
        load_varied(&mut reused, &cross_a, probes, interval_us);
        match pause_us {
            Some(us) => reused.run_until(SimTime::from_micros(us)),
            None => reused.run(),
        }
        reused.reset(&path_b, seed);
        prop_assert_eq!(reused.path(), &path_b);
        load_varied(&mut reused, &cross_b, probes, interval_us);
        reused.run();
        prop_assert!(ports_conserve(&reused));
        prop_assert_eq!(
            reused.stats().peak_queue_depth,
            fresh.stats().peak_queue_depth
        );
        prop_assert_eq!(replay(&mut reused), replay(&mut fresh));
    }
}
