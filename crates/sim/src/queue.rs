//! Output ports: FIFO transmit queues with a single server.
//!
//! Every link direction is fed by one [`Port`]: a finite drop-tail FIFO
//! buffer plus a transmitter serving packets at the link rate. This is the
//! "single server queue with finite buffer and FIFO service discipline" of
//! the paper's Figure 3, instantiated once per hop and direction.
//!
//! A port keeps one queue whose head is in service. Its entries are
//! [`Occupant`]s rather than packets by value: a [`PacketRef`] handle into
//! the engine's [`crate::arena`], so admitting a packet moves a handle
//! instead of cloning the struct and the packet stays in one place from
//! injection to delivery, or a folded cross-traffic packet's place in its
//! source, which never enters the arena.

use std::collections::VecDeque;

use crate::arena::PacketRef;
#[cfg(test)]
use crate::path::BufferLimit;
use crate::path::LinkSpec;
use crate::time::{SimDuration, SimTime};

/// Aggregate statistics for one port.
#[derive(Debug, Clone, Default)]
pub struct PortStats {
    /// Packets that attempted to enter the queue (before any drop decision).
    pub arrivals: u64,
    /// Packets fully transmitted.
    pub served: u64,
    /// Bytes fully transmitted.
    pub bytes_served: u64,
    /// Packets dropped because the buffer was full.
    pub overflow_drops: u64,
    /// Packets dropped by link random loss.
    pub random_drops: u64,
    /// Packets destroyed by the link's fault injectors (burst loss or an
    /// outage window) before reaching the queue.
    pub impair_drops: u64,
    /// Largest number of packets ever held (queued + in service).
    pub max_occupancy: usize,
    /// Total time the server spent transmitting.
    pub busy_time: SimDuration,
    /// ∫ occupancy dt, in packet·nanoseconds — divide by observed time for
    /// the time-average number in system.
    pub occupancy_integral: u128,
}

impl PortStats {
    /// Time-average number of packets in the system over `[0, now]`.
    pub fn mean_occupancy(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        self.occupancy_integral as f64 / now.as_nanos() as f64
    }

    /// Fraction of `[0, now]` the server was busy (the utilization ρ).
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        self.busy_time.as_nanos() as f64 / now.as_nanos() as f64
    }
}

/// What a port holds for one packet: a packet of the network, in the
/// engine's arena, or a folded cross-traffic packet, which exists only as
/// its place in its traffic source (DESIGN.md §9, "Cross traffic folded
/// into its port").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occupant {
    /// A packet in the engine's [`crate::arena::PacketArena`].
    Packet(PacketRef),
    /// Packet `index` of the engine's traffic source `source`.
    Folded {
        /// The source's index in the engine.
        source: u32,
        /// The packet's index in the source's stream.
        index: u32,
    },
}

/// A packet the port holds, with its wire size and transmission time
/// beside it, so byte accounting and service never touch the arena.
#[derive(Debug, Clone, Copy)]
struct Entry {
    what: Occupant,
    size: u32,
    tx: SimDuration,
}

/// One transmit queue + server.
#[derive(Debug)]
pub struct Port {
    /// The static link parameters this port serves.
    pub spec: LinkSpec,
    /// Cached `spec.impair.is_inert()` — read on every arrival; the spec's
    /// impairment set is fixed for the port's lifetime.
    pub impair_inert: bool,
    /// Every packet the port holds, in service order: the head is in
    /// service while the port is busy.
    queue: VecDeque<Entry>,
    /// Bytes of the packets behind the head.
    queued_bytes: u64,
    service_started: SimTime,
    /// When the last packet admitted finishes transmission (meaningful
    /// while the port is busy).
    drain_at: SimTime,
    last_change: SimTime,
    /// Running statistics.
    pub stats: PortStats,
}

/// Outcome of offering a packet to a port.
#[derive(Debug, PartialEq, Eq)]
pub enum Admission {
    /// Packet was queued; the server was already busy.
    Queued,
    /// Packet was queued and its service starts now: the caller completes
    /// it ([`Port::complete`]) after the returned transmission time.
    StartService(SimDuration),
    /// Buffer full; packet dropped (drop-tail).
    Overflow,
}

impl Port {
    /// A fresh idle port for the given link.
    pub fn new(spec: LinkSpec) -> Self {
        Port {
            impair_inert: spec.impair.is_inert(),
            spec,
            queue: VecDeque::new(),
            queued_bytes: 0,
            service_started: SimTime::ZERO,
            drain_at: SimTime::ZERO,
            last_change: SimTime::ZERO,
            stats: PortStats::default(),
        }
    }

    /// Packets in the system (queued + in service).
    pub fn occupancy(&self) -> usize {
        self.queue.len()
    }

    /// Bytes waiting in the buffer (not counting the packet in service).
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// True if the server is transmitting.
    pub fn busy(&self) -> bool {
        !self.queue.is_empty()
    }

    /// The packet being transmitted, if any.
    pub fn in_service(&self) -> Option<Occupant> {
        self.queue.front().map(|e| e.what)
    }

    /// When the packet admitted last finishes transmission: FIFO service
    /// fixes it at admission, since nothing admitted is dropped later.
    /// Meaningful right after [`Port::offer`] admits a packet.
    pub fn drain_at(&self) -> SimTime {
        self.drain_at
    }

    /// Whether every packet that reached the port is accounted for:
    /// `arrivals == served + overflow_drops + random_drops + impair_drops +
    /// occupancy`.
    pub fn conserves_packets(&self) -> bool {
        let s = &self.stats;
        let out = s.served + s.overflow_drops + s.random_drops + s.impair_drops;
        s.arrivals == out + self.occupancy() as u64
    }

    fn integrate(&mut self, now: SimTime) {
        let span = now.saturating_since(self.last_change).as_nanos();
        self.stats.occupancy_integral += span as u128 * self.occupancy() as u128;
        self.last_change = now;
    }

    /// Offer `what` (of wire size `size`) to the queue at instant `now`:
    /// drop-tail admission, which draws no randomness.
    ///
    /// Random-loss is **not** applied here — the engine decides that before
    /// calling, so the port stays a pure FIFO queue.
    #[inline(always)]
    pub fn offer(&mut self, now: SimTime, what: Occupant, size: u32) -> Admission {
        self.stats.arrivals += 1;
        let waiting = self.queue.len().saturating_sub(1);
        if !self.spec.buffer.admits(waiting, self.queued_bytes, size) {
            self.stats.overflow_drops += 1;
            return Admission::Overflow;
        }
        self.integrate(now);
        let tx = SimDuration::transmission(size, self.spec.bandwidth_bps);
        let idle = self.queue.is_empty();
        self.queue.push_back(Entry { what, size, tx });
        let occ = self.queue.len();
        if occ > self.stats.max_occupancy {
            self.stats.max_occupancy = occ;
        }
        if idle {
            self.service_started = now;
            self.drain_at = now + tx;
            Admission::StartService(tx)
        } else {
            self.queued_bytes += u64::from(size);
            self.drain_at += tx;
            Admission::Queued
        }
    }

    /// Complete the in-flight transmission at instant `now`.
    ///
    /// Returns what was transmitted and, if another packet immediately
    /// enters service, its transmission time (the caller schedules the
    /// next `TxDone`).
    ///
    /// # Panics
    /// Panics if no packet was in service — a scheduling bug.
    #[inline(always)]
    pub fn complete(&mut self, now: SimTime) -> (Occupant, Option<SimDuration>) {
        // Fold the busy span into the occupancy integral while the departing
        // packet still counts toward the occupancy.
        self.integrate(now);
        let done = self
            .queue
            .pop_front()
            .expect("TxDone for an idle port: scheduling bug");
        self.stats.served += 1;
        self.stats.bytes_served += u64::from(done.size);
        self.stats.busy_time += now - self.service_started;
        let next = self.queue.front().map(|next| {
            self.queued_bytes -= u64::from(next.size);
            self.service_started = now;
            next.tx
        });
        (done.what, next)
    }

    /// Record a random-loss drop (bookkeeping only; the packet never enters
    /// the queue).
    pub fn note_random_drop(&mut self) {
        self.stats.arrivals += 1;
        self.stats.random_drops += 1;
    }

    /// Record a fault-injector drop (burst loss or outage; bookkeeping
    /// only — the packet never enters the queue).
    pub fn note_impair_drop(&mut self) {
        self.stats.arrivals += 1;
        self.stats.impair_drops += 1;
    }

    /// Fold the idle/busy area up to `now` into the occupancy integral;
    /// call once at the end of a run before reading statistics.
    pub fn finalize(&mut self, now: SimTime) {
        self.integrate(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PacketArena;
    use crate::packet::{Direction, FlowClass, Packet, PacketId};

    fn pkt(id: u64, size: u32) -> Packet {
        Packet {
            id: PacketId(id),
            class: FlowClass::Probe,
            flow: 0,
            size,
            seq: id,
            injected_at: SimTime::ZERO,
            ttl: 64,
            direction: Direction::Outbound,
            corrupted: false,
            echoed_at: None,
        }
    }

    /// Allocate a test packet and offer it.
    fn offer(a: &mut PacketArena, p: &mut Port, at: SimTime, id: u64, size: u32) -> Admission {
        let r = a.alloc(pkt(id, size));
        p.offer(at, Occupant::Packet(r), size)
    }

    fn packet(what: Occupant) -> PacketRef {
        match what {
            Occupant::Packet(r) => r,
            Occupant::Folded { .. } => panic!("a network packet was offered"),
        }
    }

    fn port(buffer: BufferLimit) -> Port {
        Port::new(LinkSpec::new(128_000, SimDuration::ZERO).with_buffer(buffer))
    }

    #[test]
    fn first_packet_starts_service_immediately() {
        let mut a = PacketArena::new();
        let mut p = port(BufferLimit::Packets(10));
        match offer(&mut a, &mut p, SimTime::ZERO, 0, 32) {
            Admission::StartService(d) => assert_eq!(d, SimDuration::from_millis(2)),
            other => panic!("expected StartService, got {other:?}"),
        }
        assert!(p.busy());
        assert_eq!(p.occupancy(), 1);
    }

    #[test]
    fn fifo_order_and_back_to_back_service() {
        let mut a = PacketArena::new();
        let mut p = port(BufferLimit::Packets(10));
        let t0 = SimTime::ZERO;
        assert!(matches!(
            offer(&mut a, &mut p, t0, 0, 32),
            Admission::StartService(_)
        ));
        assert_eq!(offer(&mut a, &mut p, t0, 1, 32), Admission::Queued);
        assert_eq!(offer(&mut a, &mut p, t0, 2, 32), Admission::Queued);

        let t1 = SimTime::from_millis(2);
        let (done, next) = p.complete(t1);
        assert_eq!(a.get(packet(done)).id, PacketId(0));
        assert_eq!(next, Some(SimDuration::from_millis(2)));

        let t2 = SimTime::from_millis(4);
        let (done, next) = p.complete(t2);
        assert_eq!(a.get(packet(done)).id, PacketId(1));
        assert_eq!(next, Some(SimDuration::from_millis(2)));

        let (done, next) = p.complete(SimTime::from_millis(6));
        assert_eq!(a.get(packet(done)).id, PacketId(2));
        assert_eq!(next, None);
        assert!(!p.busy());
        assert_eq!(p.stats.served, 3);
        assert_eq!(p.stats.bytes_served, 96);
        assert_eq!(p.stats.busy_time, SimDuration::from_millis(6));
    }

    #[test]
    fn drop_tail_on_packet_limit() {
        // Buffer of 2 packets + 1 in service = at most 3 in system.
        let mut a = PacketArena::new();
        let mut p = port(BufferLimit::Packets(2));
        let t = SimTime::ZERO;
        assert!(matches!(
            offer(&mut a, &mut p, t, 0, 32),
            Admission::StartService(_)
        ));
        assert_eq!(offer(&mut a, &mut p, t, 1, 32), Admission::Queued);
        assert_eq!(offer(&mut a, &mut p, t, 2, 32), Admission::Queued);
        assert_eq!(offer(&mut a, &mut p, t, 3, 32), Admission::Overflow);
        assert_eq!(p.stats.overflow_drops, 1);
        assert_eq!(p.stats.arrivals, 4);
        assert_eq!(p.stats.max_occupancy, 3);
    }

    #[test]
    fn drop_tail_on_byte_limit() {
        let mut a = PacketArena::new();
        let mut p = port(BufferLimit::Bytes(64));
        let t = SimTime::ZERO;
        // First goes straight into service — queue bytes stay 0.
        assert!(matches!(
            offer(&mut a, &mut p, t, 0, 60),
            Admission::StartService(_)
        ));
        assert_eq!(offer(&mut a, &mut p, t, 1, 40), Admission::Queued);
        assert_eq!(p.queued_bytes(), 40);
        // 40 + 32 > 64: reject.
        assert_eq!(offer(&mut a, &mut p, t, 2, 32), Admission::Overflow);
        // But a 24-byte packet still fits exactly.
        assert_eq!(offer(&mut a, &mut p, t, 3, 24), Admission::Queued);
        assert_eq!(p.queued_bytes(), 64);
    }

    #[test]
    fn occupancy_integral_measures_mean_queue() {
        let mut a = PacketArena::new();
        let mut p = port(BufferLimit::Unbounded);
        // One 32-byte packet at t=0, served at t=2ms, then idle to t=4ms.
        assert!(matches!(
            offer(&mut a, &mut p, SimTime::ZERO, 0, 32),
            Admission::StartService(_)
        ));
        p.complete(SimTime::from_millis(2));
        p.finalize(SimTime::from_millis(4));
        // Occupancy was 1 for half the window.
        let mean = p.stats.mean_occupancy(SimTime::from_millis(4));
        assert!((mean - 0.5).abs() < 1e-9, "mean occupancy {mean}");
        let util = p.stats.utilization(SimTime::from_millis(4));
        assert!((util - 0.5).abs() < 1e-9, "utilization {util}");
    }

    #[test]
    #[should_panic(expected = "idle port")]
    fn complete_on_idle_port_panics() {
        let mut p = port(BufferLimit::Unbounded);
        p.complete(SimTime::ZERO);
    }

    #[test]
    fn overflow_does_not_perturb_queue_state() {
        let mut a = PacketArena::new();
        let mut p = port(BufferLimit::Packets(1));
        let t = SimTime::ZERO;
        offer(&mut a, &mut p, t, 0, 32);
        offer(&mut a, &mut p, t, 1, 32);
        let occ_before = p.occupancy();
        assert_eq!(offer(&mut a, &mut p, t, 2, 32), Admission::Overflow);
        assert_eq!(p.occupancy(), occ_before);
        assert_eq!(p.queued_bytes(), 32);
    }
}
