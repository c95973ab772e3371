//! The real-network probe tool: a UDP echo server and a probing client
//! over `std::net` sockets.
//!
//! This is a working NetDyn clone (§2 of the paper): the client sends
//! 32-byte probe packets at a fixed interval, the echo host stamps and
//! returns them, and the client assembles the [`RttSeries`]. The paper
//! routed probes source → echo → destination with source == destination;
//! with a single client socket both roles coincide exactly as in the
//! paper's setup.
//!
//! The server offers Bernoulli **drop fault injection** so loss handling
//! can be exercised deterministically on loopback, in the spirit of the
//! fault-injection options small network stacks ship in their examples.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use probenet_live::{LiveConfig, Reactor, SessionSpec};
use probenet_stream::SessionKey;
use probenet_wire::{ProbePacket, Timestamp48, PROBE_PAYLOAD_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rawpoll::{Epoll, Events, Interest, WakeHandle, WakePipe};
use std::sync::Mutex;

use crate::config::ExperimentConfig;
use crate::series::{RttRecord, RttSeries};

/// How a server thread sleeps between datagrams: event-driven where the
/// platform has epoll, a bounded read-timeout poll elsewhere.
///
/// The event-driven arm is what makes shutdown cheap *and* prompt: the
/// socket and a self-pipe share one epoll set, the thread blocks with no
/// timeout at all, and [`ServerWaiter::wake`] (one byte down the pipe)
/// bounds the join by a loop iteration instead of a 20 ms spin period.
enum ServerWaiter {
    /// Block on epoll until the socket is readable or the pipe is written.
    Event { epoll: Epoll, pipe: WakePipe },
    /// Legacy fallback: non-epoll platforms poll with a read timeout.
    Timeout,
}

impl ServerWaiter {
    /// Prepare `socket` for serving: epoll registration + non-blocking
    /// mode where available, a 20 ms read timeout otherwise.
    fn install(socket: &UdpSocket) -> io::Result<ServerWaiter> {
        match Epoll::new() {
            Ok(epoll) => {
                let pipe = WakePipe::new()?;
                socket.set_nonblocking(true)?;
                epoll.add(socket.as_raw_fd(), 0, Interest::READ)?;
                epoll.add(pipe.read_fd(), 1, Interest::READ)?;
                Ok(ServerWaiter::Event { epoll, pipe })
            }
            Err(e) if e.kind() == io::ErrorKind::Unsupported => {
                socket.set_read_timeout(Some(Duration::from_millis(20)))?;
                Ok(ServerWaiter::Timeout)
            }
            Err(e) => Err(e),
        }
    }

    /// The cross-thread wake handle (None in timeout mode, where the read
    /// timeout itself bounds the wait).
    fn wake_handle(&self) -> Option<WakeHandle> {
        match self {
            ServerWaiter::Event { pipe, .. } => Some(pipe.handle()),
            ServerWaiter::Timeout => None,
        }
    }

    /// Park until the socket may be readable (or a wake arrives). Returns
    /// `false` when the server loop should exit.
    fn park(&self, events: &mut Events) -> bool {
        match self {
            ServerWaiter::Event { epoll, pipe } => {
                let ok = epoll.wait(events, -1).is_ok();
                pipe.drain();
                ok
            }
            // Timeout mode parks inside recv_from itself.
            ServerWaiter::Timeout => true,
        }
    }

    /// Whether `recv` just returned "nothing yet" (and the caller should
    /// park) rather than a real failure.
    fn is_idle(err: &io::Error) -> bool {
        matches!(
            err.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }
}

/// Fan-out of a server shutdown: flip the flag, then poke the self-pipe so
/// an event-driven loop notices immediately.
fn signal_shutdown(flag: &AtomicBool, wake: Option<&WakeHandle>) {
    flag.store(true, Ordering::SeqCst);
    if let Some(w) = wake {
        w.wake();
    }
}

/// Microseconds since an arbitrary process-local epoch, monotonic.
fn monotonic_micros(epoch: Instant) -> Timestamp48 {
    Timestamp48::from_micros(epoch.elapsed().as_micros() as u64)
}

/// Counters published by a running echo server.
#[derive(Debug, Default, Clone)]
pub struct EchoServerStats {
    /// Probes received and echoed. A reply in the peer's hands is already
    /// counted: the count is taken before the send (and given back if the
    /// send fails).
    pub echoed: u64,
    /// Probes deliberately dropped by fault injection.
    pub dropped: u64,
    /// Datagrams that failed to decode as probe packets.
    pub decode_errors: u64,
}

/// A UDP echo host: stamps `echo_ts` into each valid probe and returns it
/// to the sender. Runs on its own thread until dropped or shut down.
#[derive(Debug)]
pub struct EchoServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wake: Option<WakeHandle>,
    stats: Arc<Mutex<EchoServerStats>>,
    handle: Option<JoinHandle<()>>,
}

impl EchoServer {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"`) and start echoing.
    pub fn spawn<A: ToSocketAddrs>(addr: A) -> io::Result<EchoServer> {
        Self::spawn_with_loss(addr, 0.0, 0)
    }

    /// As [`EchoServer::spawn`], dropping each probe independently with
    /// probability `drop_probability` (deterministic per `seed`) — fault
    /// injection for testing loss behaviour on a lossless loopback.
    ///
    /// # Panics
    /// Panics unless `0.0 <= drop_probability <= 1.0`.
    pub fn spawn_with_loss<A: ToSocketAddrs>(
        addr: A,
        drop_probability: f64,
        seed: u64,
    ) -> io::Result<EchoServer> {
        assert!(
            (0.0..=1.0).contains(&drop_probability),
            "drop probability out of range"
        );
        let socket = UdpSocket::bind(addr)?;
        let waiter = ServerWaiter::install(&socket)?;
        let wake = waiter.wake_handle();
        let local_addr = socket.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(EchoServerStats::default()));
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                echo_loop(socket, waiter, shutdown, stats, drop_probability, seed);
            })
        };
        Ok(EchoServer {
            local_addr,
            shutdown,
            wake,
            stats,
            handle: Some(handle),
        })
    }

    /// The bound address (with the kernel-chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> EchoServerStats {
        self.stats.lock().expect("lock poisoned").clone()
    }

    /// Stop the server thread and wait for it to exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        signal_shutdown(&self.shutdown, self.wake.as_ref());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for EchoServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn echo_loop(
    socket: UdpSocket,
    waiter: ServerWaiter,
    shutdown: Arc<AtomicBool>,
    stats: Arc<Mutex<EchoServerStats>>,
    drop_probability: f64,
    seed: u64,
) {
    let epoch = Instant::now(); // probenet-lint: allow(wall-clock-in-sim, tainted-artifact-path) real probe epoch for echo timestamps
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buf = [0u8; 2048];
    let mut events = Events::with_capacity(4);
    while !shutdown.load(Ordering::SeqCst) {
        let (len, peer) = match socket.recv_from(&mut buf) {
            Ok(x) => x,
            Err(e) if ServerWaiter::is_idle(&e) => {
                if waiter.park(&mut events) {
                    continue;
                }
                break;
            }
            Err(_) => break,
        };
        match ProbePacket::decode(&buf[..len]) {
            Ok(mut probe) => {
                if drop_probability > 0.0 && rng.gen::<f64>() < drop_probability {
                    stats.lock().expect("lock poisoned").dropped += 1;
                    continue;
                }
                probe.echo_ts = monotonic_micros(epoch);
                let out = probe.to_bytes();
                // Count first, so the reply never reaches the peer before
                // its count does; a failed send takes the count back.
                stats.lock().expect("lock poisoned").echoed += 1;
                if socket.send_to(&out, peer).is_err() {
                    stats.lock().expect("lock poisoned").echoed -= 1;
                }
            }
            Err(_) => {
                stats.lock().expect("lock poisoned").decode_errors += 1;
            }
        }
    }
}

/// Outcome of a real probing run beyond the series itself.
#[derive(Debug, Clone, Default)]
pub struct ProbeRunStats {
    /// Replies that arrived after a probe with the same sequence number had
    /// already been recorded.
    pub duplicates: u64,
    /// Replies whose payload failed to decode.
    pub decode_errors: u64,
}

/// Send `config.count` probes of `config.payload_bytes` to `server` at
/// `config.interval`, then linger `drain` waiting for stragglers; returns
/// the measured series (lost probes have `rtt = None`) and run statistics.
///
/// The measured RTT is `dest_ts − source_ts` from the packet's own
/// timestamp fields, exactly as NetDyn computes it, then quantized to
/// `config.clock_resolution`.
///
/// The run is a one-session [`Reactor`] on a dedicated lane socket: the
/// pacing comes from the timer wheel, which is what lets callers hold
/// thousands of these sessions on one core through `probenet-live`
/// directly. The series (plus [`RttRecord::to_stream`]) is the hand-off to
/// streaming ingest: a probe is only *known lost* once the drain window
/// closes, so there is nothing to hand over earlier.
///
/// # Errors
/// `Unsupported` where epoll does not exist (the reactor is Linux-only);
/// socket and epoll failures otherwise.
pub fn run_probes(
    server: SocketAddr,
    config: &ExperimentConfig,
    drain: Duration,
) -> io::Result<(RttSeries, ProbeRunStats)> {
    assert_eq!(
        config.payload_bytes as usize, PROBE_PAYLOAD_BYTES,
        "the wire format carries exactly the 32-byte NetDyn payload"
    );
    let interval = Duration::from_nanos(config.interval.as_nanos());
    let spec = SessionSpec {
        key: SessionKey {
            path: "netdyn/live".to_string(),
            delta_ns: config.interval.as_nanos(),
            seed: 0,
        },
        target: server,
        interval,
        count: config.count,
        start_offset: Duration::ZERO,
        clock_resolution_ns: config.clock_resolution.as_nanos(),
    };
    let live_config = LiveConfig {
        drain,
        sessions_per_lane: 1,
        ..LiveConfig::default()
    };
    let (reactor, _handle) = Reactor::new(vec![spec], live_config)?;
    let mut outcome = None;
    reactor.run(|o| outcome = Some(o))?;
    let outcome = outcome.expect("the reactor resolves every session it was given");

    let stats = ProbeRunStats {
        duplicates: outcome.duplicates,
        decode_errors: outcome.decode_errors,
    };
    // A shutdown mid-run can leave the tail unscheduled; the series
    // contract is one record per configured probe, so pad with losses.
    let records: Vec<RttRecord> = (0..config.count)
        .map(|n| RttRecord {
            seq: n as u64,
            sent_at: config.interval.as_nanos() * n as u64,
            echoed_at: outcome.echoed_at_ns.get(n).copied().flatten(),
            rtt: outcome.records.get(n).and_then(|r| r.rtt_ns),
        })
        .collect();
    Ok((
        RttSeries::new(
            config.interval,
            config.wire_bytes(),
            config.clock_resolution,
            records,
        ),
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use probenet_sim::SimDuration;

    fn quick(count: usize, interval_ms: u64) -> ExperimentConfig {
        ExperimentConfig::quick(SimDuration::from_millis(interval_ms), count)
    }

    #[test]
    fn loopback_probes_all_return() {
        let server = EchoServer::spawn("127.0.0.1:0").expect("bind echo server");
        let cfg = quick(30, 2);
        let (series, stats) =
            run_probes(server.local_addr(), &cfg, Duration::from_millis(300)).expect("probe run");
        assert_eq!(series.len(), 30);
        assert_eq!(
            series.lost(),
            0,
            "lost {} probes on loopback",
            series.lost()
        );
        assert_eq!(stats.decode_errors, 0);
        // Loopback RTTs are far below a second.
        assert!(series.delivered_rtts_ms().iter().all(|&r| r < 1000.0));
        assert!(server.stats().echoed >= 30);
        server.shutdown();
    }

    #[test]
    fn full_fault_injection_loses_everything() {
        let server = EchoServer::spawn_with_loss("127.0.0.1:0", 1.0, 7).expect("bind echo server");
        let cfg = quick(10, 2);
        let (series, _) =
            run_probes(server.local_addr(), &cfg, Duration::from_millis(100)).expect("probe run");
        assert_eq!(series.lost(), 10);
        assert_eq!(server.stats().dropped, 10);
    }

    #[test]
    fn partial_fault_injection_loses_roughly_the_configured_fraction() {
        let server = EchoServer::spawn_with_loss("127.0.0.1:0", 0.5, 11).expect("bind echo server");
        let cfg = quick(200, 1);
        let (series, _) =
            run_probes(server.local_addr(), &cfg, Duration::from_millis(300)).expect("probe run");
        let ulp = series.loss_probability();
        assert!((0.3..0.7).contains(&ulp), "ulp {ulp}");
    }

    #[test]
    fn malformed_datagrams_are_counted_not_echoed() {
        let server = EchoServer::spawn("127.0.0.1:0").expect("bind echo server");
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.send_to(b"not a probe", server.local_addr()).unwrap();
        sock.send_to(&[0u8; 32], server.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let stats = server.stats();
        assert_eq!(stats.decode_errors, 2);
        assert_eq!(stats.echoed, 0);
    }

    #[test]
    fn clock_resolution_applies_to_real_measurements() {
        let server = EchoServer::spawn("127.0.0.1:0").expect("bind echo server");
        let cfg = quick(20, 2).with_clock(SimDuration::from_millis(3));
        let (series, _) =
            run_probes(server.local_addr(), &cfg, Duration::from_millis(200)).expect("probe run");
        for r in series.records.iter().filter_map(|r| r.rtt) {
            assert_eq!(r % 3_000_000, 0);
        }
    }
}
