//! Live-reactor integration contracts: a 1,000-session loopback soak into
//! one streaming collector (the tentpole's sessions-per-core claim plus
//! exact drop accounting), the seeded-echo oracle: the reactor must
//! report exactly the probes a seeded lossy echo dropped, and the no-spin
//! bound: the reactor never wakes without a timer or a datagram to handle.

#![cfg(target_os = "linux")]

use std::time::Duration;

use probenet::live::{run_sessions, LiveConfig, SessionSpec};
use probenet::netdyn::{run_probes, EchoServer, ExperimentConfig};
use probenet::sim::SimDuration;
use probenet::stream::{BankConfig, Collector, CollectorConfig, SessionKey, SessionProducer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn thousand_session_soak_balances_drop_accounting() {
    const SESSIONS: usize = 1_000;
    const COUNT: usize = 5;
    const DELTA_MS: u64 = 100;

    let server = EchoServer::spawn("127.0.0.1:0").expect("bind echo server");
    let delta = Duration::from_millis(DELTA_MS);
    let specs: Vec<SessionSpec> = (0..SESSIONS)
        .map(|i| SessionSpec {
            key: SessionKey::new("soak/live", DELTA_MS, i as u64),
            target: server.local_addr(),
            interval: delta,
            count: COUNT,
            // Stagger starts across one δ so the reactor paces a steady
            // aggregate stream instead of synchronized bursts.
            start_offset: Duration::from_nanos(
                delta.as_nanos() as u64 * i as u64 / SESSIONS as u64,
            ),
            clock_resolution_ns: 0,
        })
        .collect();

    let mut collector = Collector::new(CollectorConfig {
        channel_capacity: 256,
        snapshot_every: 0,
    });
    let mut producers: Vec<Option<SessionProducer>> = (0..SESSIONS as u64)
        .map(|s| {
            Some(collector.add_session(
                SessionKey::new("soak/live", DELTA_MS, s),
                BankConfig::bolot(DELTA_MS as f64, 72, 0),
            ))
        })
        .collect();
    let running = collector.start();

    let mut produced = 0u64;
    let mut delivered_per_session = vec![0u64; SESSIONS];
    let report = run_sessions(specs, &LiveConfig::default(), |outcome| {
        let idx = usize::try_from(outcome.key.seed).expect("seed is a session index");
        delivered_per_session[idx] = outcome
            .records
            .iter()
            .filter(|r| r.rtt_ns.is_some())
            .count() as u64;
        let producer = producers[idx].take().expect("one outcome per session");
        for record in outcome.records {
            produced += 1;
            // Non-blocking offer into the bounded ring: rejections land in
            // the session's drop counter, keeping the identity exact.
            producer.offer(record);
        }
    })
    .expect("loopback soak run");
    drop(producers);
    let collected = running.join();

    assert_eq!(report.sessions, SESSIONS, "all sessions on one reactor");
    assert_eq!(produced, (SESSIONS * COUNT) as u64, "one record per probe");

    // The drop-accounting identity: every produced record is either folded
    // by the collector or counted in a session's drop counter.
    assert_eq!(
        produced,
        collected.total_records() + collected.total_dropped(),
        "records + dropped must equal produced"
    );
    assert_eq!(collected.sessions.len(), SESSIONS);

    // Per-session delivery matches the echo server's receive counters:
    // loopback loses nothing, so every session's delivered count is its
    // probe count and the totals line up with the echo side.
    for (i, &delivered) in delivered_per_session.iter().enumerate() {
        assert_eq!(
            delivered, COUNT as u64,
            "session {i} lost probes on loopback"
        );
    }
    let delivered: u64 = delivered_per_session.iter().sum();
    assert_eq!(delivered, report.stats.replies_received);
    let echo = server.stats();
    assert_eq!(
        echo.echoed, report.stats.probes_sent,
        "echo server saw every probe"
    );
    assert_eq!(echo.decode_errors, 0);
    server.shutdown();
}

/// On loopback arrival order is send order, so the probes a
/// `spawn_with_loss(p, seed)` echo drops are a function of the seed alone:
/// the echo draws one `f64` per decoded probe and drops it when the draw is
/// below `p`. Replaying that stream gives the exact loss set the reactor
/// must report — one sequence number more or fewer fails.
#[test]
fn reactor_reports_exactly_the_seeded_echo_loss_set() {
    const PROBES: usize = 200;
    const DROP_PROBABILITY: f64 = 0.25;
    const SEED: u64 = 42;
    let config = ExperimentConfig::quick(SimDuration::from_millis(2), PROBES);

    let server = EchoServer::spawn_with_loss("127.0.0.1:0", DROP_PROBABILITY, SEED)
        .expect("bind echo server");
    let (series, stats) =
        run_probes(server.local_addr(), &config, Duration::from_millis(400)).expect("reactor run");
    let echo = server.stats();
    server.shutdown();

    let mut rng = StdRng::seed_from_u64(SEED);
    let expected_lost: Vec<u64> = (0..PROBES as u64)
        .filter(|_| rng.gen::<f64>() < DROP_PROBABILITY)
        .collect();
    // The oracle is only meaningful if the seeded stream loses some
    // probes and not all of them.
    assert!(!expected_lost.is_empty() && expected_lost.len() < PROBES);

    // One record per probe, in sequence order.
    assert!(series.records.iter().map(|r| r.seq).eq(0..PROBES as u64));
    let lost: Vec<u64> = series
        .records
        .iter()
        .filter(|r| r.rtt.is_none())
        .map(|r| r.seq)
        .collect();
    assert_eq!(
        lost, expected_lost,
        "the reactor disagrees with the seeded echo on which probes were dropped"
    );
    assert_eq!(echo.dropped, expected_lost.len() as u64);
    assert_eq!(echo.echoed, (PROBES - expected_lost.len()) as u64);
    assert_eq!(stats.duplicates, 0);
    assert_eq!(stats.decode_errors, 0);
}

/// The reactor's one blocking call returns on a firing wheel tick, a
/// ready lane or a shutdown, so its count is bounded by the work the run
/// did. A loop that wakes before the tick it is waiting for (a millisecond
/// timeout bridging to a raw deadline, say) and spins to the boundary makes
/// thousands of empty turns per second and fails this without any clock
/// being read here.
#[test]
fn reactor_never_wakes_without_work() {
    const SESSIONS: usize = 64;
    const COUNT: usize = 25;
    const DELTA_MS: u64 = 20;

    let server = EchoServer::spawn("127.0.0.1:0").expect("bind echo server");
    let delta = Duration::from_millis(DELTA_MS);
    let specs: Vec<SessionSpec> = (0..SESSIONS)
        .map(|i| SessionSpec {
            key: SessionKey::new("soak/no-spin", DELTA_MS, i as u64),
            target: server.local_addr(),
            interval: delta,
            count: COUNT,
            start_offset: Duration::from_nanos(
                delta.as_nanos() as u64 * i as u64 / SESSIONS as u64,
            ),
            clock_resolution_ns: 0,
        })
        .collect();
    let mut outcomes = 0;
    let report =
        run_sessions(specs, &LiveConfig::default(), |_| outcomes += 1).expect("loopback run");
    server.shutdown();

    assert_eq!(outcomes, SESSIONS);
    let stats = &report.stats;
    assert_eq!(stats.probes_sent, (SESSIONS * COUNT) as u64);
    // Write-ready events would join the bound, but they follow a send the
    // kernel refused, and 64 sessions at 50 probes/s never fill a 1 MiB
    // socket buffer.
    let recv_submissions = stats.batched_recv_calls + stats.fallback_recv_datagrams;
    let bound = report.timers_fired + recv_submissions + 16;
    assert!(
        stats.poll_waits <= bound,
        "{} epoll waits for {} timers fired and {} receive submissions",
        stats.poll_waits,
        report.timers_fired,
        recv_submissions
    );
    assert!(stats.poll_waits > 0);
}
