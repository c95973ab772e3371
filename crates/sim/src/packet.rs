//! Simulated packets.

use crate::time::SimTime;

/// Globally unique identifier for a simulated packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

/// Which traffic stream a packet belongs to.
///
/// The paper's model (its Figure 3) distinguishes the periodic **probe**
/// stream from the aggregate **Internet** stream sharing the bottleneck;
/// `Control` covers simulator-generated replies (TTL-exceeded messages used
/// by route discovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowClass {
    /// A NetDyn probe packet (periodic, fixed size).
    Probe,
    /// Cross traffic: the "Internet stream" sharing queues with the probes.
    Cross,
    /// Simulator control traffic, e.g. TTL-exceeded replies.
    Control,
}

/// Travel direction along a linear path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From the source (node 0) toward the echo host (last node).
    Outbound,
    /// From the echo host back toward the source.
    Inbound,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Outbound => Direction::Inbound,
            Direction::Inbound => Direction::Outbound,
        }
    }
}

/// Default IP time-to-live for injected packets.
pub const DEFAULT_TTL: u8 = 64;

/// A packet in flight inside the simulator.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Unique id, assigned at injection.
    pub id: PacketId,
    /// Traffic class.
    pub class: FlowClass,
    /// For a TTL-exceeded reply ([`FlowClass::Control`]), the index of the
    /// node that sent it, so the reply needs no lookup when it is
    /// delivered; 0 for every other class.
    pub flow: u32,
    /// Size on the wire, in bytes (headers included).
    pub size: u32,
    /// Per-flow sequence number (the probe number `n` of the paper).
    pub seq: u64,
    /// Instant the packet entered the network.
    pub injected_at: SimTime,
    /// Remaining hop count; decremented at each node arrival.
    pub ttl: u8,
    /// Current travel direction.
    pub direction: Direction,
    /// Payload damaged in flight by a corruption impairment. Routers keep
    /// forwarding (they only check the IP header); the first *endpoint*
    /// that decodes the packet detects the bad wire checksum and discards
    /// it ([`DropReason::Corrupted`]).
    pub corrupted: bool,
    /// Instant the echo host turned this packet around, stamped into the
    /// packet itself so the state travels with it. Carrying the echo time
    /// in-band (instead of a source-side lookup table) is what lets a
    /// partitioned run deliver the packet in a different partition from
    /// the one that echoed it without any shared mutable state.
    pub echoed_at: Option<SimTime>,
}

/// Record of a packet that completed its round trip (or one-way journey for
/// cross traffic, which leaves the system after its attachment queue).
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The delivered packet's id.
    pub id: PacketId,
    /// Traffic class.
    pub class: FlowClass,
    /// Per-flow sequence number.
    pub seq: u64,
    /// Injection instant.
    pub injected_at: SimTime,
    /// Instant the echo host turned the packet around (`None` for cross
    /// traffic, which is never echoed). Simulated clocks are perfectly
    /// synchronized, so — unlike the paper's geographically distant hosts
    /// (§2) — one-way delays are directly meaningful here.
    pub echoed_at: Option<SimTime>,
    /// Delivery instant (back at the source for probes).
    pub delivered_at: SimTime,
}

impl Delivery {
    /// Round-trip time of the delivered packet.
    pub fn rtt(&self) -> crate::time::SimDuration {
        self.delivered_at - self.injected_at
    }

    /// One-way delay source → echo host, if the packet was echoed.
    pub fn outbound_delay(&self) -> Option<crate::time::SimDuration> {
        self.echoed_at.map(|e| e - self.injected_at)
    }

    /// One-way delay echo host → source, if the packet was echoed.
    pub fn inbound_delay(&self) -> Option<crate::time::SimDuration> {
        self.echoed_at.map(|e| self.delivered_at - e)
    }
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The port's finite buffer was full (drop-tail).
    BufferOverflow,
    /// Random loss on the link (models the faulty interface cards of the
    /// paper's ref \[17\], which drop packets independently at random).
    RandomLoss,
    /// TTL reached zero at an intermediate node.
    TtlExpired,
    /// Destroyed by a Gilbert–Elliott burst-loss channel while the link
    /// was in (usually) its Bad state (see [`crate::impair`]).
    BurstLoss,
    /// Destroyed because the link was down (a flap outage window).
    LinkDown,
    /// Payload corrupted in flight; the endpoint's wire-checksum
    /// verification failed and the packet was discarded there.
    Corrupted,
}

/// Record of a dropped packet.
#[derive(Debug, Clone)]
pub struct DropRecord {
    /// The dropped packet's id.
    pub id: PacketId,
    /// Traffic class.
    pub class: FlowClass,
    /// Per-flow sequence number.
    pub seq: u64,
    /// When the drop happened.
    pub at: SimTime,
    /// Index of the port (see [`crate::engine::Engine::port_index`]) where
    /// the packet was lost.
    pub port: usize,
    /// Why it was lost.
    pub reason: DropReason,
}

/// A TTL-exceeded notification delivered back to the source, as used by
/// route discovery (`traceroute` semantics).
#[derive(Debug, Clone)]
pub struct TtlExceeded {
    /// Sequence number of the probe whose TTL expired.
    pub probe_seq: u64,
    /// Index (into [`crate::path::Path::nodes`]) of the node that dropped it.
    pub node: usize,
    /// When the notification arrived back at the source.
    pub received_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::Outbound.reverse(), Direction::Inbound);
        assert_eq!(Direction::Inbound.reverse(), Direction::Outbound);
    }

    #[test]
    fn delivery_rtt() {
        let d = Delivery {
            id: PacketId(1),
            class: FlowClass::Probe,
            seq: 0,
            injected_at: SimTime::from_millis(10),
            echoed_at: Some(SimTime::from_millis(80)),
            delivered_at: SimTime::from_millis(152),
        };
        assert_eq!(d.rtt(), SimDuration::from_millis(142));
        assert_eq!(d.outbound_delay(), Some(SimDuration::from_millis(70)));
        assert_eq!(d.inbound_delay(), Some(SimDuration::from_millis(72)));
    }
}
