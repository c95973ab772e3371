//! The reactor: one thread, one epoll set, every session's state machine.
//!
//! ## Event loop shape
//!
//! ```text
//!   timer wheel ──(send deadlines)──▶ per-session out-buffers
//!        ▲                                   │ round-robin
//!        │ re-arm                            ▼
//!   epoll wait ◀──(timeout = next firing tick)──── lane sockets
//!        │ readable            │ writable  (sendmmsg → send_to ladder)
//!        ▼                     ▼
//!   recv_batch → demux by seq tag → session bookkeeping → early exit
//! ```
//!
//! Lanes are shared UDP sockets: up to 4096 sessions ride one socket, with
//! the probe's sequence number carrying a lane-local slot tag so replies
//! demultiplex without per-session fds. The loop has one blocking call, a
//! nanosecond-timeout epoll wait that ends at the wheel's next firing tick
//! ([`TimerWheel::next_fire`]) or when a lane turns ready, whichever comes
//! first: between the two the thread is asleep, and every wake-up has a
//! timer, a datagram or a writable socket to show for it
//! ([`ReactorStats::poll_waits`] counts them). Control (shutdown) arrives
//! over a self-pipe registered in the same epoll set, so it bypasses the
//! data path entirely: a `LiveHandle::shutdown` from any thread wakes the
//! loop even when every socket is idle, and the join is bounded by one
//! loop iteration rather than a read timeout.

use crate::clock::MonoClock;
use crate::wheel::{LatenessHistogram, TimerWheel};
use crate::{quantize_ns, LiveConfig, LiveReport, ReactorStats, SessionOutcome, SessionSpec};
use probenet_stream::StreamRecord;
use probenet_wire::ProbePacket;
use rawpoll::{Epoll, Events, Interest, RecvMeta, WakeHandle, WakePipe};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Sessions sharing a lane tag probes by packing the lane-local slot into
/// the high bits of the 32-bit wire sequence, leaving this many low bits
/// for the probe number.
pub(crate) const SEQ_BITS: u32 = 20;
/// The most probes one session may send on a lane it shares with others
/// (`sessions_per_lane > 1`): the probe-number field's range.
pub const TAGGED_LANE_MAX_PROBES: usize = 1 << SEQ_BITS;
const SEQ_MASK: u32 = (1 << SEQ_BITS) - 1;
/// Slot tag width is `32 - SEQ_BITS` bits.
const MAX_LANE_SESSIONS: usize = 1 << (32 - SEQ_BITS);
/// Epoll token of the shutdown self-pipe (lane tokens count up from 0).
const WAKE_TOKEN: u64 = u64::MAX;
/// Receive scratch sized for any probe datagram (wire size is 72 bytes;
/// oversized strays are truncated and fail decode, which is fine).
const RECV_BUF_BYTES: usize = 2048;
/// Cap on consecutive receive submissions per readiness event so one
/// flooding lane cannot starve the timer wheel.
const MAX_RECV_ROUNDS: usize = 64;
/// Max datagrams per `sendmmsg`/`recvmmsg` submission.
const BATCH: usize = 32;
/// Per-session out-buffer capacity (packets); a full buffer defers the
/// send by one timer tick and counts a backpressure deferral.
const OUT_BUFFER_CAPACITY: usize = 64;
/// Requested `SO_RCVBUF`/`SO_SNDBUF` per lane socket (best effort: the
/// kernel clamps to its rmem/wmem caps).
const SOCKET_BUFFER_BYTES: usize = 1 << 20;
/// Timer wheel tick quantum.
const TIMER_TICK_NS: u64 = 1_000_000;
/// Wait timeout while no timer is armed (sessions parked on a full socket
/// buffer): readiness or shutdown ends the wait, this only bounds it.
const IDLE_WAIT_NS: u64 = 200_000_000;

fn send_token(session: usize) -> u64 {
    (session as u64) << 1
}

fn drain_token(session: usize) -> u64 {
    ((session as u64) << 1) | 1
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Probes still to schedule.
    Sending,
    /// All probes sent; lingering for stragglers until the drain timer.
    Draining,
    /// Resolved; outcome emitted (or queued for emission).
    Done,
}

struct Session {
    spec: SessionSpec,
    interval_ns: u64,
    offset_ns: u64,
    lane: usize,
    /// Lane-local slot, the demux tag carried in the sequence high bits.
    slot: u32,
    /// Probes scheduled so far (== number of records on completion).
    next_seq: usize,
    rtts: Vec<Option<u64>>,
    echoes: Vec<Option<u64>>,
    received: usize,
    duplicates: u64,
    decode_errors: u64,
    backpressure: u64,
    /// Encoded probes awaiting a socket slot, oldest first.
    out: VecDeque<Vec<u8>>,
    phase: Phase,
}

struct Lane {
    socket: UdpSocket,
    /// Global session indices; position == slot tag.
    sessions: Vec<usize>,
    /// Round-robin cursor so no session monopolizes the batch.
    rr: usize,
    /// Datagrams queued across this lane's session out-buffers.
    queued: usize,
    /// Whether the epoll registration currently includes write interest.
    wants_write: bool,
}

/// Cloneable shutdown control for a running [`Reactor`]. Works from any
/// thread: the stop flag is atomic and the self-pipe wakes the loop out of
/// its poll, so shutdown latency is one loop iteration, not a timeout.
#[derive(Debug, Clone)]
pub struct LiveHandle {
    stop: Arc<AtomicBool>,
    wake: WakeHandle,
}

impl LiveHandle {
    /// Ask the reactor to stop. In-flight sessions resolve with the
    /// records they have; the run call then returns.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.wake();
    }
}

/// The single-threaded live probe engine. Build with [`Reactor::new`],
/// drive with [`Reactor::run`].
pub struct Reactor {
    config: LiveConfig,
    clock: MonoClock,
    epoll: Epoll,
    wake: WakePipe,
    stop: Arc<AtomicBool>,
    wheel: TimerWheel,
    lateness: LatenessHistogram,
    sessions: Vec<Session>,
    lanes: Vec<Lane>,
    /// Sessions not yet `Done`.
    active: usize,
    /// Resolved sessions awaiting sink emission.
    finished: VecDeque<usize>,
    stats: ReactorStats,
    use_batching: bool,
    /// Whether sequence numbers carry slot tags (sessions_per_lane > 1).
    tagged: bool,
    /// Run epoch in clock-ns; all deadlines are offsets from this.
    base_ns: u64,
    recv_bufs: Vec<Vec<u8>>,
    recv_meta: Vec<RecvMeta>,
    /// `(token, lateness)` of the timers one `advance_timers` call fired.
    due: Vec<(u64, u64)>,
    /// The batch `pump_lane` is submitting, as `send_batch` takes it, and
    /// the session each datagram belongs to (parallel to `batch`).
    batch: Vec<(Vec<u8>, Option<SocketAddr>)>,
    batch_sessions: Vec<usize>,
}

impl Reactor {
    /// Build a reactor over `specs`: bind the lane sockets, register them
    /// (and the shutdown self-pipe) with epoll, and size the timer wheel.
    /// Returns the reactor and its shutdown handle.
    ///
    /// # Errors
    /// Socket or epoll setup failures; `Unsupported` on platforms without
    /// epoll.
    ///
    /// # Panics
    /// Panics on malformed specs: a zero interval, or a probe count that
    /// does not fit the sequence codec (2^20 probes/session on shared
    /// lanes, 2^32 on single-session lanes).
    pub fn new(specs: Vec<SessionSpec>, config: LiveConfig) -> io::Result<(Reactor, LiveHandle)> {
        let per_lane = config.sessions_per_lane.clamp(1, MAX_LANE_SESSIONS);
        let tagged = per_lane > 1;
        for spec in &specs {
            assert!(
                spec.interval.as_nanos() > 0,
                "probe interval must be positive"
            );
            if tagged {
                assert!(
                    spec.count <= TAGGED_LANE_MAX_PROBES,
                    "probe count {} exceeds the tagged-lane limit of {TAGGED_LANE_MAX_PROBES} (use sessions_per_lane = 1 for longer sessions)",
                    spec.count,
                );
            } else {
                assert!(
                    u64::try_from(spec.count).unwrap_or(u64::MAX) <= u64::from(u32::MAX),
                    "probe count {} exceeds the 32-bit sequence space",
                    spec.count,
                );
            }
        }

        let epoll = Epoll::new()?;
        let wake = WakePipe::new()?;
        epoll.add(wake.read_fd(), WAKE_TOKEN, Interest::READ)?;

        let mut sessions: Vec<Session> = specs
            .into_iter()
            .map(|spec| Session {
                interval_ns: spec.interval.as_nanos() as u64,
                offset_ns: spec.start_offset.as_nanos() as u64,
                lane: 0,
                slot: 0,
                next_seq: 0,
                rtts: vec![None; spec.count],
                echoes: vec![None; spec.count],
                received: 0,
                duplicates: 0,
                decode_errors: 0,
                backpressure: 0,
                out: VecDeque::new(),
                phase: Phase::Sending,
                spec,
            })
            .collect();

        // Lanes are homogeneous in address family (one socket cannot reach
        // both); chunk each family's sessions in spec order so lane
        // membership is deterministic.
        let v4: Vec<usize> = (0..sessions.len())
            .filter(|&i| sessions[i].spec.target.is_ipv4())
            .collect();
        let v6: Vec<usize> = (0..sessions.len())
            .filter(|&i| !sessions[i].spec.target.is_ipv4())
            .collect();
        let mut lanes = Vec::new();
        for (members, bind_addr) in [(v4, "0.0.0.0:0"), (v6, "[::]:0")] {
            for chunk in members.chunks(per_lane) {
                let socket = UdpSocket::bind(bind_addr)?;
                socket.set_nonblocking(true)?;
                let _ = rawpoll::set_socket_buffers(
                    socket.as_raw_fd(),
                    SOCKET_BUFFER_BYTES,
                    SOCKET_BUFFER_BYTES,
                );
                let lane_idx = lanes.len();
                epoll.add(socket.as_raw_fd(), lane_idx as u64, Interest::READ)?;
                for (slot, &session_idx) in chunk.iter().enumerate() {
                    sessions[session_idx].lane = lane_idx;
                    sessions[session_idx].slot =
                        u32::try_from(slot).expect("slot bounded by MAX_LANE_SESSIONS");
                }
                lanes.push(Lane {
                    socket,
                    sessions: chunk.to_vec(),
                    rr: 0,
                    queued: 0,
                    wants_write: false,
                });
            }
        }

        let slots = (sessions.len() * 2).next_power_of_two().clamp(64, 4096);
        let stop = Arc::new(AtomicBool::new(false));
        let handle = LiveHandle {
            stop: Arc::clone(&stop),
            wake: wake.handle(),
        };
        let active = sessions.len();
        let use_batching = !config.force_fallback && rawpoll::batching_available();
        let reactor = Reactor {
            config,
            clock: MonoClock::start(),
            epoll,
            wake,
            stop,
            wheel: TimerWheel::new(TIMER_TICK_NS, slots),
            lateness: LatenessHistogram::default(),
            sessions,
            lanes,
            active,
            finished: VecDeque::new(),
            stats: ReactorStats::default(),
            use_batching,
            tagged,
            base_ns: 0,
            recv_bufs: (0..BATCH).map(|_| vec![0u8; RECV_BUF_BYTES]).collect(),
            recv_meta: vec![RecvMeta::default(); BATCH],
            due: Vec::new(),
            batch: Vec::with_capacity(BATCH),
            batch_sessions: Vec::with_capacity(BATCH),
        };
        Ok((reactor, handle))
    }

    /// Drive every session to completion (or shutdown), handing each
    /// resolved session's [`SessionOutcome`] to `sink` as it finishes, and
    /// return the run report.
    ///
    /// # Errors
    /// Only on epoll failures; per-datagram send errors are counted in
    /// [`ReactorStats::send_errors`] and ride as losses instead.
    pub fn run<F: FnMut(SessionOutcome)>(mut self, mut sink: F) -> io::Result<LiveReport> {
        self.base_ns = self.clock.now_ns();
        for i in 0..self.sessions.len() {
            if self.sessions[i].spec.count == 0 {
                self.finish_session(i);
            } else {
                let deadline = self.base_ns + self.sessions[i].offset_ns;
                self.wheel.arm(deadline, send_token(i));
            }
        }

        let mut events = Events::with_capacity(64);
        loop {
            self.drain_finished(&mut sink);
            if self.active == 0 {
                break;
            }
            if self.stop.load(Ordering::SeqCst) {
                self.abort_all();
                self.drain_finished(&mut sink);
                break;
            }
            let now = self.clock.now_ns();
            self.advance_timers(now);
            self.pump_all_lanes();
            self.drain_finished(&mut sink);
            if self.active == 0 {
                break;
            }
            // Sleep until the wheel's next firing tick or lane readiness.
            let timeout = match self.wheel.next_fire() {
                Some(at) => at.saturating_sub(self.clock.now_ns()),
                None => IDLE_WAIT_NS,
            };
            self.epoll.wait_ns(&mut events, timeout)?;
            self.stats.poll_waits += 1;
            for event in events.iter() {
                if event.token == WAKE_TOKEN {
                    self.wake.drain();
                    continue;
                }
                let lane = usize::try_from(event.token).expect("lane tokens fit usize");
                if event.readable || event.error {
                    self.recv_lane(lane);
                }
                if event.writable {
                    self.pump_lane(lane);
                }
            }
        }

        let wall_ns = self.clock.now_ns().saturating_sub(self.base_ns);
        let stats = self.stats.clone();
        Ok(LiveReport {
            sessions: self.sessions.len(),
            lanes: self.lanes.len(),
            wall_ns,
            timers_fired: self.wheel.fired(),
            lateness_p50_us: self.lateness.quantile_us(0.50),
            lateness_p90_us: self.lateness.quantile_us(0.90),
            lateness_p99_us: self.lateness.quantile_us(0.99),
            lateness_max_us: self.lateness.max_us(),
            used_batching: stats.batched_send_calls + stats.batched_recv_calls > 0,
            stats,
        })
    }

    fn advance_timers(&mut self, now: u64) {
        let mut due = std::mem::take(&mut self.due);
        self.wheel
            .advance(now, |token, lateness| due.push((token, lateness)));
        for (token, lateness) in due.drain(..) {
            let idx = usize::try_from(token >> 1).expect("session tokens fit usize");
            if token & 1 == 0 {
                // Only send timers grade pacing; drain timers are coarse
                // one-shots whose lateness is meaningless.
                self.lateness.record(lateness);
                self.fire_send(idx, now);
            } else {
                self.fire_drain(idx);
            }
        }
        self.due = due;
    }

    /// A session's send deadline came due: encode the probe into its
    /// out-buffer (or defer one tick under backpressure) and arm the next.
    fn fire_send(&mut self, idx: usize, now: u64) {
        let tick_ns = self.wheel.tick_ns();
        let session = &mut self.sessions[idx];
        if session.phase != Phase::Sending {
            return;
        }
        if session.out.len() >= OUT_BUFFER_CAPACITY {
            // Explicit backpressure: the probe is deferred, never dropped;
            // the deferral is visible in the outcome and the stats.
            session.backpressure += 1;
            self.stats.backpressure_deferrals += 1;
            self.wheel.arm(now + tick_ns, send_token(idx));
            return;
        }
        let n = session.next_seq;
        let probe_no = u32::try_from(n).expect("count validated against the seq codec");
        let wire_seq = if self.tagged {
            (session.slot << SEQ_BITS) | probe_no
        } else {
            probe_no
        };
        let probe = ProbePacket::outgoing(wire_seq, self.clock.stamp());
        session.out.push_back(probe.to_bytes());
        session.next_seq += 1;
        self.lanes[session.lane].queued += 1;
        if session.next_seq < session.spec.count {
            let deadline =
                self.base_ns + session.offset_ns + session.interval_ns * session.next_seq as u64;
            self.wheel.arm(deadline, send_token(idx));
        }
    }

    /// The post-send linger expired: unresolved probes are now losses.
    fn fire_drain(&mut self, idx: usize) {
        if self.sessions[idx].phase != Phase::Draining {
            return;
        }
        // Sweep the lane once more before declaring losses: if the loop
        // stalled past the drain deadline, replies may already sit in the
        // kernel buffer, and those are deliveries, not losses.
        self.recv_lane(self.sessions[idx].lane);
        if self.sessions[idx].phase == Phase::Draining {
            self.finish_session(idx);
        }
    }

    fn finish_session(&mut self, idx: usize) {
        let session = &mut self.sessions[idx];
        if session.phase == Phase::Done {
            return;
        }
        session.phase = Phase::Done;
        self.active -= 1;
        self.finished.push_back(idx);
    }

    /// Shutdown path: resolve every live session with what it has.
    fn abort_all(&mut self) {
        for idx in 0..self.sessions.len() {
            self.finish_session(idx);
        }
    }

    fn drain_finished<F: FnMut(SessionOutcome)>(&mut self, sink: &mut F) {
        while let Some(idx) = self.finished.pop_front() {
            let session = &self.sessions[idx];
            let resolution = session.spec.clock_resolution_ns;
            let records: Vec<StreamRecord> = (0..session.next_seq)
                .map(|n| StreamRecord {
                    seq: n as u64,
                    sent_at_ns: session.interval_ns * n as u64,
                    rtt_ns: session.rtts[n].map(|ns| quantize_ns(ns, resolution)),
                })
                .collect();
            sink(SessionOutcome {
                key: session.spec.key.clone(),
                records,
                echoed_at_ns: session.echoes[..session.next_seq].to_vec(),
                duplicates: session.duplicates,
                decode_errors: session.decode_errors,
                backpressure_deferrals: session.backpressure,
            });
        }
    }

    fn pump_all_lanes(&mut self) {
        for lane in 0..self.lanes.len() {
            if self.lanes[lane].queued > 0 || self.lanes[lane].wants_write {
                self.pump_lane(lane);
            }
        }
    }

    /// Flush a lane's queued probes: round-robin across its sessions into
    /// `sendmmsg` batches, stepping down the fallback ladder
    /// (`sendmmsg` → per-datagram `send_to`) as needed. On a full socket
    /// buffer the leftovers are re-queued and write interest is armed.
    fn pump_lane(&mut self, lane_idx: usize) {
        let now = self.clock.now_ns();
        let drain_ns = self.config.drain.as_nanos() as u64;
        let mut blocked = false;

        let mut batch = std::mem::take(&mut self.batch);
        let mut owners = std::mem::take(&mut self.batch_sessions);
        while self.lanes[lane_idx].queued > 0 && !blocked {
            // Pop up to one batch, round-robin so no session starves.
            {
                let lane = &mut self.lanes[lane_idx];
                let members = lane.sessions.len();
                let mut scanned = 0;
                while batch.len() < BATCH && lane.queued > 0 && scanned < members {
                    let idx = lane.sessions[lane.rr % members];
                    lane.rr = (lane.rr + 1) % members;
                    match self.sessions[idx].out.pop_front() {
                        Some(bytes) => {
                            lane.queued -= 1;
                            scanned = 0;
                            batch.push((bytes, Some(self.sessions[idx].spec.target)));
                            owners.push(idx);
                        }
                        None => scanned += 1,
                    }
                }
            }
            if batch.is_empty() {
                break;
            }

            let fd = self.lanes[lane_idx].socket.as_raw_fd();
            let accepted = if self.use_batching {
                match rawpoll::send_batch(fd, &batch) {
                    Ok(n) => {
                        self.stats.batched_send_calls += 1;
                        blocked = n < batch.len();
                        n
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        blocked = true;
                        0
                    }
                    Err(e) if e.kind() == io::ErrorKind::Unsupported => {
                        // Step down the ladder for the rest of the run.
                        self.use_batching = false;
                        self.send_fallback(lane_idx, &batch, &mut blocked)
                    }
                    // Batch submission failed outright; retry this batch
                    // per-datagram so a poisoned message cannot wedge the
                    // whole lane.
                    Err(_) => self.send_fallback(lane_idx, &batch, &mut blocked),
                }
            } else {
                self.send_fallback(lane_idx, &batch, &mut blocked)
            };

            // Requeue what the kernel did not take, preserving order.
            let refused = batch.drain(accepted..).zip(owners.drain(accepted..));
            for ((bytes, _), idx) in refused.rev() {
                self.sessions[idx].out.push_front(bytes);
                self.lanes[lane_idx].queued += 1;
            }
            batch.clear();
            for idx in owners.drain(..) {
                self.stats.probes_sent += 1;
                self.after_departure(idx, now + drain_ns);
            }
        }
        self.batch = batch;
        self.batch_sessions = owners;

        self.update_write_interest(lane_idx);
    }

    /// Per-datagram rung of the send ladder. Returns how many of `batch`
    /// were consumed (sent or failed-and-counted); `blocked` is set when
    /// the socket buffer filled.
    fn send_fallback(
        &mut self,
        lane_idx: usize,
        batch: &[(Vec<u8>, Option<SocketAddr>)],
        blocked: &mut bool,
    ) -> usize {
        let mut consumed = 0;
        for (bytes, target) in batch {
            let target = target.expect("every probe has a target");
            match self.lanes[lane_idx].socket.send_to(bytes, target) {
                Ok(_) => {
                    self.stats.fallback_send_datagrams += 1;
                    consumed += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    *blocked = true;
                    break;
                }
                Err(_) => {
                    // The datagram is gone either way; count it and let
                    // the probe ride as a loss rather than wedging.
                    self.stats.send_errors += 1;
                    consumed += 1;
                }
            }
        }
        consumed
    }

    /// A probe left the out-buffer: if it was the session's last, begin
    /// the drain linger.
    fn after_departure(&mut self, idx: usize, drain_deadline: u64) {
        let session = &self.sessions[idx];
        if session.phase == Phase::Sending
            && session.next_seq == session.spec.count
            && session.out.is_empty()
        {
            self.sessions[idx].phase = Phase::Draining;
            self.wheel.arm(drain_deadline, drain_token(idx));
        }
    }

    fn update_write_interest(&mut self, lane_idx: usize) {
        let lane = &mut self.lanes[lane_idx];
        let wants = lane.queued > 0;
        if wants != lane.wants_write {
            let interest = if wants {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            if self
                .epoll
                .modify(lane.socket.as_raw_fd(), lane_idx as u64, interest)
                .is_ok()
            {
                lane.wants_write = wants;
            }
        }
    }

    /// Drain a readable lane: `recvmmsg` batches (with the `recv_from`
    /// fallback rung), demuxing each datagram to its session.
    fn recv_lane(&mut self, lane_idx: usize) {
        let mut bufs = std::mem::take(&mut self.recv_bufs);
        let mut meta = std::mem::take(&mut self.recv_meta);
        let fd = self.lanes[lane_idx].socket.as_raw_fd();

        for _ in 0..MAX_RECV_ROUNDS {
            if self.use_batching {
                match rawpoll::recv_batch(fd, &mut bufs, &mut meta) {
                    Ok(0) => break,
                    Ok(n) => {
                        self.stats.batched_recv_calls += 1;
                        for i in 0..n {
                            let len = meta[i].len.min(bufs[i].len());
                            self.on_datagram(lane_idx, &bufs[i][..len]);
                        }
                        if n < bufs.len() {
                            break; // queue drained
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Unsupported => {
                        self.use_batching = false;
                    }
                    Err(_) => break,
                }
            } else {
                match self.lanes[lane_idx].socket.recv_from(&mut bufs[0]) {
                    Ok((len, _)) => {
                        self.stats.fallback_recv_datagrams += 1;
                        let datagram = std::mem::take(&mut bufs[0]);
                        self.on_datagram(lane_idx, &datagram[..len.min(datagram.len())]);
                        bufs[0] = datagram;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        self.recv_bufs = bufs;
        self.recv_meta = meta;
    }

    /// Fold one received datagram into its session's bookkeeping.
    fn on_datagram(&mut self, lane_idx: usize, bytes: &[u8]) {
        let dest_ts = self.clock.stamp();
        let mut probe = match ProbePacket::decode(bytes) {
            Ok(p) => p,
            Err(_) => {
                // On a dedicated lane the sender is unambiguous, so the
                // error is attributable; on a shared lane it is a stray.
                if self.lanes[lane_idx].sessions.len() == 1 {
                    let idx = self.lanes[lane_idx].sessions[0];
                    self.sessions[idx].decode_errors += 1;
                } else {
                    self.stats.stray_datagrams += 1;
                }
                return;
            }
        };
        probe.dest_ts = dest_ts;
        let (slot, n) = if self.tagged {
            (probe.seq >> SEQ_BITS, probe.seq & SEQ_MASK)
        } else {
            (0, probe.seq)
        };
        let slot = usize::try_from(slot).expect("slot tag fits usize");
        let Some(&idx) = self.lanes[lane_idx].sessions.get(slot) else {
            self.stats.stray_datagrams += 1;
            return;
        };
        let session = &mut self.sessions[idx];
        let n = usize::try_from(n).expect("probe number fits usize");
        if n >= session.rtts.len() {
            // An in-format reply naming a probe that was never sent is
            // a decode error.
            session.decode_errors += 1;
            return;
        }
        if session.phase == Phase::Done || session.rtts[n].is_some() {
            session.duplicates += 1;
            return;
        }
        session.rtts[n] = Some(probe.rtt_micros() * 1_000);
        session.echoes[n] = Some(probe.echo_ts.as_micros() * 1_000);
        session.received += 1;
        self.stats.replies_received += 1;
        // Early exit: every probe answered, no need to sit out the drain.
        if session.received == session.spec.count
            && session.next_seq == session.spec.count
            && session.out.is_empty()
        {
            self.finish_session(idx);
        }
    }
}
