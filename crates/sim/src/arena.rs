//! Generation-indexed packet arena.
//!
//! The engine used to move whole [`Packet`] structs through every event and
//! clone them into the port queues; with the echo timestamp now carried
//! in-band the packet is ~64 bytes, so each hop cost several copies plus an
//! oversized event record. [`PacketArena`] keeps every in-flight packet in
//! one slab and hands out 8-byte [`PacketRef`] handles instead: events and
//! port queues store the handle, and the packet itself is written once at
//! injection and read in place until it is delivered or dropped.
//!
//! Handles are *generation-checked*: each slot carries a generation counter
//! bumped on free, and a [`PacketRef`] is only valid while its generation
//! matches. A stale handle (a use-after-free in simulator logic) panics
//! immediately instead of silently reading a recycled packet.
//!
//! The slab recycles freed slots through an explicit free list, so a
//! steady-state run allocates no memory in the hot loop, and
//! [`PacketArena::clear`] keeps the slot buffer for reuse across engine
//! resets.

use crate::packet::Packet;

/// Handle to a packet stored in a [`PacketArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef {
    idx: u32,
    gen: u32,
}

#[derive(Debug)]
enum Slot {
    Occupied { gen: u32, packet: Packet },
    Vacant { gen: u32 },
}

/// A slab of in-flight packets with generation-checked handles.
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        PacketArena::default()
    }

    /// Number of live (allocated, not yet freed) packets.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no packets are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Store `packet` and return its handle.
    pub fn alloc(&mut self, packet: Packet) -> PacketRef {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            let gen = match slot {
                Slot::Vacant { gen } => *gen,
                Slot::Occupied { .. } => unreachable!("free list pointed at a live slot"),
            };
            *slot = Slot::Occupied { gen, packet };
            PacketRef { idx, gen }
        } else {
            let idx = u32::try_from(self.slots.len()).expect("more than 2^32 live packets");
            self.slots.push(Slot::Occupied { gen: 0, packet });
            PacketRef { idx, gen: 0 }
        }
    }

    /// Read the packet behind `r`.
    ///
    /// # Panics
    /// Panics if `r` is stale (its packet was already freed) — always a
    /// simulator bug.
    pub fn get(&self, r: PacketRef) -> &Packet {
        match &self.slots[r.idx as usize] {
            Slot::Occupied { gen, packet } if *gen == r.gen => packet,
            _ => panic!("stale packet handle {r:?}"),
        }
    }

    /// Mutable access to the packet behind `r` (panics if stale).
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet {
        match &mut self.slots[r.idx as usize] {
            Slot::Occupied { gen, packet } if *gen == r.gen => packet,
            _ => panic!("stale packet handle {r:?}"),
        }
    }

    /// Remove and return the packet behind `r`, freeing its slot (panics if
    /// stale).
    pub fn take(&mut self, r: PacketRef) -> Packet {
        let slot = &mut self.slots[r.idx as usize];
        match slot {
            Slot::Occupied { gen, .. } if *gen == r.gen => {
                let next_gen = gen.wrapping_add(1);
                let prev = std::mem::replace(slot, Slot::Vacant { gen: next_gen });
                self.free.push(r.idx);
                self.live -= 1;
                match prev {
                    Slot::Occupied { packet, .. } => packet,
                    Slot::Vacant { .. } => unreachable!("matched occupied above"),
                }
            }
            _ => panic!("stale packet handle {r:?}"),
        }
    }

    /// Drop every live packet and reset the arena to empty, keeping the
    /// slot and free-list allocations for reuse. All outstanding handles
    /// become invalid; callers must clear any structure holding them first.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Direction, FlowClass, PacketId};
    use crate::time::SimTime;

    fn pkt(id: u64) -> Packet {
        Packet {
            id: PacketId(id),
            class: FlowClass::Probe,
            flow: 0,
            size: 32,
            seq: id,
            injected_at: SimTime::ZERO,
            ttl: 64,
            direction: Direction::Outbound,
            corrupted: false,
            echoed_at: None,
        }
    }

    #[test]
    fn alloc_get_take_roundtrip() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(7));
        assert_eq!(a.get(r).id, PacketId(7));
        a.get_mut(r).ttl = 3;
        let p = a.take(r);
        assert_eq!(p.ttl, 3);
        assert!(a.is_empty());
    }

    #[test]
    fn slots_are_recycled_with_fresh_generations() {
        let mut a = PacketArena::new();
        let r0 = a.alloc(pkt(0));
        a.take(r0);
        let r1 = a.alloc(pkt(1));
        // Same slot, new generation: the old handle must not alias.
        assert_ne!(r0, r1);
        assert_eq!(a.get(r1).id, PacketId(1));
        assert_eq!(a.len(), 1);
    }

    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn stale_handle_panics() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(0));
        a.take(r);
        a.alloc(pkt(1));
        a.get(r);
    }

    #[test]
    fn clear_keeps_capacity_and_invalidates() {
        let mut a = PacketArena::new();
        for i in 0..64 {
            a.alloc(pkt(i));
        }
        a.clear();
        assert!(a.is_empty());
        let r = a.alloc(pkt(99));
        assert_eq!(a.get(r).id, PacketId(99));
    }
}
