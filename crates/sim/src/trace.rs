//! Optional per-packet event tracing.
//!
//! Tracing exists for tests and debugging: with it enabled, every queue
//! entry, transmission, drop, echo and delivery is recorded in order, so a
//! test can assert on the exact life of a packet rather than only on
//! aggregate outputs.

use crate::packet::{FlowClass, PacketId};
use crate::time::SimTime;

/// What happened to a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Entered a port's buffer.
    Enqueue,
    /// Began transmission.
    TxStart,
    /// Finished transmission.
    TxDone,
    /// Dropped: buffer full.
    OverflowDrop,
    /// Dropped: random link loss.
    RandomDrop,
    /// Dropped: TTL expired.
    TtlExpired,
    /// Dropped: Gilbert–Elliott burst-loss channel.
    BurstDrop,
    /// Dropped: link down (flap outage window).
    LinkDownDrop,
    /// Payload corrupted in flight (the packet keeps travelling).
    CorruptMark,
    /// Discarded at an endpoint: wire-checksum verification failed.
    ChecksumDrop,
    /// A duplicate copy of the packet was created at a hop.
    Duplicated,
    /// Held back by a reordering impairment before entering the queue.
    Deferred,
    /// Turned around by the echo host.
    Echoed,
    /// Arrived back at the source.
    Delivered,
}

/// One trace record.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// Port involved, if any (`None` for node-level events).
    pub port: Option<usize>,
    /// The packet.
    pub packet: PacketId,
    /// Its traffic class.
    pub class: FlowClass,
    /// Its flow sequence number.
    pub seq: u64,
    /// What happened.
    pub kind: TraceKind,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::path::{LinkSpec, Path};
    use crate::time::SimDuration;

    #[test]
    fn trace_records_full_packet_life() {
        let path = Path::new(
            vec!["src".into(), "echo".into()],
            vec![LinkSpec::new(128_000, SimDuration::from_millis(10))],
        );
        let mut e = Engine::new(path, 0);
        e.enable_trace();
        e.inject_probe(SimTime::ZERO, 32, 0);
        e.run();
        let kinds: Vec<_> = e.take_trace().into_iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::Enqueue, // outbound port
                TraceKind::TxStart,
                TraceKind::TxDone,
                TraceKind::Echoed,
                TraceKind::Enqueue, // inbound port
                TraceKind::TxStart,
                TraceKind::TxDone,
                TraceKind::Delivered,
            ]
        );
    }

    #[test]
    fn trace_timestamps_are_monotone() {
        let path = Path::inria_umd_1992();
        let mut e = Engine::new(path, 5);
        e.enable_trace();
        for n in 0..50u64 {
            e.inject_probe(SimTime::from_millis(20 * n), 32, n);
        }
        e.run();
        let trace = e.take_trace();
        assert!(!trace.is_empty());
        for w in trace.windows(2) {
            assert!(w[0].at <= w[1].at, "trace out of order");
        }
    }
}
