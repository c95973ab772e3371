//! # probenet-live
//!
//! The reactor-based live probe engine: one thread, one `epoll` loop,
//! thousands of concurrent probe sessions.
//!
//! A thread per session tops out at tens of sessions before scheduler
//! jitter swamps the pacing; fleet-scale measurement (ETOMIC-style meshes)
//! needs an event-driven engine. This crate is the one live probe driver
//! (`probenet_netdyn::run_probes` is a one-session reactor):
//!
//! * a **readiness loop** over the vendored [`rawpoll`] epoll shim, with a
//!   self-pipe for control/shutdown wakeups that bypass the data path;
//! * a **hashed timer wheel** ([`wheel`]) pacing every session's send
//!   deadlines, with a lateness histogram grading schedule fidelity;
//! * **per-session state machines** with explicit out-buffer backpressure
//!   (a full buffer defers the send and counts the deferral — probes are
//!   never silently dropped on the floor);
//! * **batched `sendmmsg`/`recvmmsg`** submission over shared "lane"
//!   sockets, with a graceful per-datagram `send_to`/`recv_from` fallback
//!   ladder where the syscalls are unavailable;
//! * finished sessions emit [`probenet_stream::StreamRecord`]s in sequence
//!   order, ready for the `probenet-stream` collector's bounded SPSC rings
//!   — the `records + dropped == produced` contract holds unchanged.
//!
//! Sessions sharing a lane are demultiplexed by tagging the probe's 32-bit
//! sequence number: the high 12 bits carry the lane-local session slot,
//! the low 20 bits the probe number (the echo host returns `seq`
//! verbatim). Lanes with a single session use the full 32-bit range.

mod clock;
mod reactor;
pub mod wheel;

pub use reactor::{LiveHandle, Reactor, TAGGED_LANE_MAX_PROBES};

use probenet_stream::{SessionKey, StreamRecord};
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// One probe session to drive: `count` probes at `interval` toward
/// `target`, starting `start_offset` after reactor launch.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Identity under which records are reported.
    pub key: SessionKey,
    /// The echo host to probe.
    pub target: SocketAddr,
    /// Probe interval δ.
    pub interval: Duration,
    /// Number of probes to send.
    pub count: usize,
    /// Delay before this session's first probe (staggering thousands of
    /// sessions avoids a synchronized burst every δ).
    pub start_offset: Duration,
    /// Clock resolution applied to reported RTTs (ns; 0 = full resolution).
    pub clock_resolution_ns: u64,
}

/// Reactor tuning knobs.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// How long a session lingers for stragglers after its last send
    /// before declaring unresolved probes lost.
    pub drain: Duration,
    /// Sessions multiplexed onto one lane socket (1 = socket per session;
    /// capped at 4096 by the seq-tag width).
    pub sessions_per_lane: usize,
    /// Skip the batched syscalls and exercise the `send_to`/`recv_from`
    /// fallback rung directly (the ladder's test hook).
    pub force_fallback: bool,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            drain: Duration::from_millis(500),
            sessions_per_lane: 64,
            force_fallback: false,
        }
    }
}

/// Everything one completed session measured, handed to the sink the
/// moment the session resolves (all replies in, drain expired, or
/// shutdown).
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The session's identity.
    pub key: SessionKey,
    /// One record per probe actually scheduled, in sequence order:
    /// `sent_at_ns` is the nominal `n · δ`, `rtt_ns` is quantized to the
    /// session's clock resolution, `None` = lost.
    pub records: Vec<StreamRecord>,
    /// Echo-host stamp per probe (ns on the echo host's clock), parallel
    /// to `records`.
    pub echoed_at_ns: Vec<Option<u64>>,
    /// Replies for already-recorded sequence numbers.
    pub duplicates: u64,
    /// Datagrams that decoded badly or carried an out-of-range probe
    /// number.
    pub decode_errors: u64,
    /// Sends deferred because the session's out-buffer was full.
    pub backpressure_deferrals: u64,
}

/// Aggregate reactor counters.
#[derive(Debug, Clone, Default)]
pub struct ReactorStats {
    /// Probes handed to the kernel.
    pub probes_sent: u64,
    /// Valid replies folded into sessions.
    pub replies_received: u64,
    /// `sendmmsg` submissions.
    pub batched_send_calls: u64,
    /// Datagrams sent over the per-datagram fallback rung.
    pub fallback_send_datagrams: u64,
    /// `recvmmsg` submissions.
    pub batched_recv_calls: u64,
    /// Datagrams received over the per-datagram fallback rung.
    pub fallback_recv_datagrams: u64,
    /// Datagrams that matched no session (undecodable on a shared lane, or
    /// an out-of-range session slot).
    pub stray_datagrams: u64,
    /// Sends deferred by out-buffer backpressure, summed over sessions.
    pub backpressure_deferrals: u64,
    /// Datagram sends that failed outright (counted, probe rides as lost).
    pub send_errors: u64,
    /// Epoll waits made: the reactor's loop turns. Each one ends on a
    /// firing tick, a ready lane or a shutdown, so this stays within
    /// timers fired + receive submissions + write-ready events (plus the
    /// odd wake-up); a loop that wakes with nothing to do shows up here.
    pub poll_waits: u64,
}

/// What one reactor run looked like, beyond the per-session outcomes.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Sessions driven (all on this one core — the reactor is one thread).
    pub sessions: usize,
    /// Lane sockets used.
    pub lanes: usize,
    /// Wall time of the run in nanoseconds.
    pub wall_ns: u64,
    /// Timer-wheel fires over the run.
    pub timers_fired: u64,
    /// Timer-wheel lateness percentiles and max, microseconds.
    pub lateness_p50_us: u64,
    /// 90th percentile lateness (µs).
    pub lateness_p90_us: u64,
    /// 99th percentile lateness (µs).
    pub lateness_p99_us: u64,
    /// Worst lateness (µs).
    pub lateness_max_us: u64,
    /// Whether the batched syscalls were used (false = fallback ladder).
    pub used_batching: bool,
    /// Aggregate counters.
    pub stats: ReactorStats,
}

impl LiveReport {
    /// Aggregate probe rate over the run (sent packets per second).
    pub fn aggregate_pps(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.stats.probes_sent as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Drive `specs` to completion on a freshly built reactor, feeding each
/// finished session's [`SessionOutcome`] to `sink`, and return the run
/// report. See [`Reactor::new`] for the panics on malformed specs and the
/// platform behavior (`Unsupported` where epoll does not exist).
pub fn run_sessions<F: FnMut(SessionOutcome)>(
    specs: Vec<SessionSpec>,
    config: &LiveConfig,
    sink: F,
) -> io::Result<LiveReport> {
    let (reactor, _handle) = Reactor::new(specs, config.clone())?;
    reactor.run(sink)
}

/// Quantize a measurement to a clock of `resolution_ns` (floor; 0 =
/// identity) — the same arithmetic `probenet_netdyn::quantize` applies to
/// simulated RTTs.
pub(crate) fn quantize_ns(ns: u64, resolution_ns: u64) -> u64 {
    match resolution_ns {
        0 => ns,
        r => ns / r * r,
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use probenet_wire::{ProbePacket, Timestamp48};
    use std::net::UdpSocket;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;

    /// A minimal in-test echo host (the real one lives in probenet-netdyn,
    /// which depends on this crate — tests here stay dependency-clean).
    struct MiniEcho {
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        echoed: Arc<AtomicU64>,
        handle: Option<JoinHandle<()>>,
    }

    impl MiniEcho {
        fn spawn() -> MiniEcho {
            let socket = UdpSocket::bind("127.0.0.1:0").expect("bind echo");
            socket
                .set_read_timeout(Some(Duration::from_millis(10)))
                .expect("timeout");
            let addr = socket.local_addr().expect("addr");
            let stop = Arc::new(AtomicBool::new(false));
            let echoed = Arc::new(AtomicU64::new(0));
            let handle = {
                let stop = Arc::clone(&stop);
                let echoed = Arc::clone(&echoed);
                std::thread::spawn(move || {
                    let mut buf = [0u8; 2048];
                    let mut stamp = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        if let Ok((len, peer)) = socket.recv_from(&mut buf) {
                            if let Ok(mut probe) = ProbePacket::decode(&buf[..len]) {
                                stamp += 1;
                                probe.echo_ts = Timestamp48::from_micros(stamp);
                                // Counted before the send, so a reply the
                                // reactor holds is already counted.
                                echoed.fetch_add(1, Ordering::SeqCst);
                                if socket.send_to(&probe.to_bytes(), peer).is_err() {
                                    echoed.fetch_sub(1, Ordering::SeqCst);
                                }
                            }
                        }
                    }
                })
            };
            MiniEcho {
                addr,
                stop,
                echoed,
                handle: Some(handle),
            }
        }

        fn echoed(&self) -> u64 {
            self.echoed.load(Ordering::SeqCst)
        }
    }

    impl Drop for MiniEcho {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
        }
    }

    fn specs(n: usize, target: SocketAddr, count: usize, interval_ms: u64) -> Vec<SessionSpec> {
        (0..n)
            .map(|i| SessionSpec {
                key: SessionKey::new("live-test", interval_ms, i as u64),
                target,
                interval: Duration::from_millis(interval_ms),
                count,
                start_offset: Duration::from_micros(137 * i as u64),
                clock_resolution_ns: 0,
            })
            .collect()
    }

    fn config() -> LiveConfig {
        LiveConfig {
            drain: Duration::from_millis(400),
            ..LiveConfig::default()
        }
    }

    #[test]
    fn multiplexed_sessions_complete_on_loopback() {
        let echo = MiniEcho::spawn();
        let specs = specs(24, echo.addr, 5, 4);
        let mut outcomes = Vec::new();
        let report = run_sessions(specs, &config(), |o| outcomes.push(o)).expect("run");
        assert_eq!(outcomes.len(), 24);
        for o in &outcomes {
            assert_eq!(o.records.len(), 5, "session {} incomplete", o.key);
            assert_eq!(o.decode_errors, 0);
            for (n, r) in o.records.iter().enumerate() {
                assert_eq!(r.seq, n as u64);
                assert_eq!(r.sent_at_ns, n as u64 * 4_000_000);
            }
        }
        let delivered: u64 = outcomes
            .iter()
            .flat_map(|o| o.records.iter())
            .filter(|r| r.rtt_ns.is_some())
            .count() as u64;
        assert_eq!(delivered, report.stats.replies_received);
        assert_eq!(report.stats.probes_sent, 24 * 5);
        assert!(echo.echoed() >= delivered);
        assert_eq!(report.sessions, 24);
        assert!(report.timers_fired >= 24 * 5);
    }

    #[test]
    fn fallback_ladder_produces_the_same_outcomes() {
        let echo = MiniEcho::spawn();
        let specs = specs(6, echo.addr, 4, 4);
        let cfg = LiveConfig {
            force_fallback: true,
            ..config()
        };
        let mut outcomes = Vec::new();
        let report = run_sessions(specs, &cfg, |o| outcomes.push(o)).expect("run");
        assert_eq!(outcomes.len(), 6);
        assert_eq!(report.stats.batched_send_calls, 0);
        assert_eq!(report.stats.batched_recv_calls, 0);
        assert_eq!(report.stats.fallback_send_datagrams, 6 * 4);
        for o in &outcomes {
            assert_eq!(o.records.len(), 4);
        }
    }

    #[test]
    fn single_session_lanes_use_plain_sequence_numbers() {
        let echo = MiniEcho::spawn();
        let mut specs = specs(2, echo.addr, 3, 3);
        specs.truncate(2);
        let cfg = LiveConfig {
            sessions_per_lane: 1,
            ..config()
        };
        let mut outcomes = Vec::new();
        let report = run_sessions(specs, &cfg, |o| outcomes.push(o)).expect("run");
        assert_eq!(report.lanes, 2);
        for o in &outcomes {
            assert_eq!(o.records.len(), 3);
            assert!(o.records.iter().all(|r| r.rtt_ns.is_some()));
        }
    }

    #[test]
    fn unanswered_probes_resolve_as_losses_after_drain() {
        // Target a bound-but-silent socket: everything is lost.
        let sink_socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let target = sink_socket.local_addr().expect("addr");
        let specs = specs(3, target, 4, 2);
        let cfg = LiveConfig {
            drain: Duration::from_millis(60),
            ..config()
        };
        let mut outcomes = Vec::new();
        run_sessions(specs, &cfg, |o| outcomes.push(o)).expect("run");
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert_eq!(o.records.len(), 4);
            assert!(o.records.iter().all(|r| r.rtt_ns.is_none()));
        }
    }

    #[test]
    fn shutdown_handle_stops_a_long_run_early() {
        let echo = MiniEcho::spawn();
        // 10-minute schedule: only a shutdown ends this before the test
        // harness times out.
        let specs = specs(4, echo.addr, 10_000, 60);
        let (reactor, handle) = Reactor::new(specs, config()).expect("reactor");
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            handle.shutdown();
        });
        let mut outcomes = Vec::new();
        let report = reactor.run(|o| outcomes.push(o)).expect("run");
        stopper.join().expect("stopper");
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes {
            assert!(o.records.len() < 10_000, "shutdown did not cut the run");
        }
        assert!(report.wall_ns < 5_000_000_000, "join was not bounded");
    }

    #[test]
    fn clock_resolution_quantizes_reported_rtts() {
        let echo = MiniEcho::spawn();
        let mut specs = specs(2, echo.addr, 4, 3);
        for s in &mut specs {
            s.clock_resolution_ns = 3_000_000;
        }
        let mut outcomes = Vec::new();
        run_sessions(specs, &config(), |o| outcomes.push(o)).expect("run");
        for o in &outcomes {
            for rtt in o.records.iter().filter_map(|r| r.rtt_ns) {
                assert_eq!(rtt % 3_000_000, 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "probe count")]
    fn tagged_lanes_reject_oversized_probe_counts() {
        let specs = vec![SessionSpec {
            key: SessionKey::new("too-big", 1, 0),
            target: "127.0.0.1:9".parse().expect("addr"),
            interval: Duration::from_millis(1),
            count: TAGGED_LANE_MAX_PROBES + 1,
            start_offset: Duration::ZERO,
            clock_resolution_ns: 0,
        }];
        let _ = Reactor::new(specs, LiveConfig::default());
    }
}
