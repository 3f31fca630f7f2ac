//! In-flight packet arena: dense slab storage for every packet the
//! simulator currently owns.
//!
//! The pre-arena data path moved ~88-byte [`Packet`] values through the
//! event heap and the link queues by value — every heap sift and every
//! queue rotation memcpy'd whole packets. The arena extends the PR 1
//! `FlowId` interning idea to packets-in-flight: a packet is allocated
//! one slot when it enters the simulator (injection, agent send, filter
//! probe emission) and is referred to everywhere else — event heap, link
//! transmit queues, per-link delivery FIFOs — by a 4-byte [`PacketRef`].
//! The slot is freed exactly once, when the packet leaves the data path
//! (delivered to an agent by value, or dropped).
//!
//! Freed slots are recycled LIFO, so steady-state traffic churns a small
//! hot set of slots (cache-friendly) and the arena's high-water mark
//! tracks the true peak of packets simultaneously in flight — exported
//! as `peak_arena_packets` in the metrics report.
//!
//! Determinism: slot indices are handed out in a fixed order that
//! depends only on the allocation/free sequence, which is itself fully
//! determined by the event order. Slot numbers never influence
//! simulation behavior — they are addresses, not identities (packet
//! identity stays [`Packet::id`]).

use crate::flows::{read_flow_id, FlowId};
use crate::packet::Packet;
use mafic_obs::{SnapError, SnapReader, State, StateWrite};

/// Dense handle to a packet resident in the simulator's packet arena.
///
/// Valid from allocation until the packet is taken out; the simulator
/// guarantees single ownership (a ref lives in exactly one place: one
/// scheduled event, one link queue slot, or one delivery FIFO entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PacketRef(pub(crate) u32);

impl PacketRef {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Slab of in-flight packets with LIFO slot recycling.
///
/// Besides the packet itself, each slot carries two cached interner ids
/// so the hot path hashes a flow key at most once per table per packet
/// lifetime instead of once per hop:
///
/// * the stats-collector id (`stats_ids`), known at allocation for agent
///   sends and injections (the `on_sent_id` accounting interns it at the
///   same instant anyway) and resolved lazily for filter-emitted probes,
/// * the simulator flow id (`flow_ids`), interned at the packet's first
///   node arrival — exactly where the pre-arena path minted it — and
///   reused at every later hop.
#[derive(Debug, Default)]
pub(crate) struct PacketArena {
    slots: Vec<Option<Packet>>,
    stats_ids: Vec<Option<FlowId>>,
    flow_ids: Vec<Option<FlowId>>,
    free: Vec<u32>,
    live: usize,
    peak: usize,
}

impl PacketArena {
    pub(crate) fn new() -> Self {
        PacketArena::default()
    }

    /// Stores `packet`, returning its slot handle. `stats_id` is the
    /// stats-collector flow id when the caller has already interned it
    /// (`None` defers to the first accounting touch).
    pub(crate) fn alloc(&mut self, packet: Packet, stats_id: Option<FlowId>) -> PacketRef {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        if let Some(slot) = self.free.pop() {
            let idx = slot as usize;
            debug_assert!(self.slots[idx].is_none(), "free slot occupied");
            self.slots[idx] = Some(packet);
            self.stats_ids[idx] = stats_id;
            self.flow_ids[idx] = None;
            PacketRef(slot)
        } else {
            let slot = u32::try_from(self.slots.len()).expect("arena slot fits u32");
            self.slots.push(Some(packet));
            self.stats_ids.push(stats_id);
            self.flow_ids.push(None);
            PacketRef(slot)
        }
    }

    /// Cached stats-collector id for the packet in `slot`.
    #[inline]
    pub(crate) fn stats_id(&self, slot: PacketRef) -> Option<FlowId> {
        self.stats_ids[slot.index()]
    }

    /// Caches the stats-collector id for the packet in `slot`.
    #[inline]
    pub(crate) fn set_stats_id(&mut self, slot: PacketRef, id: FlowId) {
        self.stats_ids[slot.index()] = Some(id);
    }

    /// Cached simulator flow id for the packet in `slot`.
    #[inline]
    pub(crate) fn flow_id(&self, slot: PacketRef) -> Option<FlowId> {
        self.flow_ids[slot.index()]
    }

    /// Caches the simulator flow id for the packet in `slot`.
    #[inline]
    pub(crate) fn set_flow_id(&mut self, slot: PacketRef, id: FlowId) {
        self.flow_ids[slot.index()] = Some(id);
    }

    /// Reads the packet in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant — that is a use-after-free in the
    /// simulator's ownership discipline, never a recoverable state.
    #[inline]
    pub(crate) fn get(&self, slot: PacketRef) -> &Packet {
        self.slots[slot.index()]
            .as_ref()
            .expect("packet ref used after free")
    }

    /// Mutable access to the packet in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    #[inline]
    pub(crate) fn get_mut(&mut self, slot: PacketRef) -> &mut Packet {
        self.slots[slot.index()]
            .as_mut()
            .expect("packet ref used after free")
    }

    /// Moves the packet out and frees the slot for reuse.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant (double free).
    pub(crate) fn take(&mut self, slot: PacketRef) -> Packet {
        let packet = self.slots[slot.index()]
            .take()
            .expect("packet ref taken twice");
        self.live -= 1;
        self.free.push(slot.0);
        packet
    }

    /// Packets currently resident.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of simultaneously resident packets.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }
}

impl State for PacketArena {
    /// Every occupied slot in index order (slot indices are
    /// deterministic addresses, so index order is replay-stable) with
    /// its cached ids. The ledger hashes the counters, the free-list
    /// depth and each occupied slot's index; a checkpoint carries the
    /// full slab — vacancies, the free list itself, then the counters —
    /// so slot addresses survive a restore (events and link queues
    /// refer to packets by slot index).
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.hash_only(|h| {
            h.write_usize(self.live);
            h.write_usize(self.peak);
            h.write_usize(self.free.len());
        });
        w.snap_only(|w| w.write_usize(self.slots.len()));
        for (idx, slot) in self.slots.iter().enumerate() {
            let Some(packet) = slot else {
                w.snap_only(|w| w.write_u8(0));
                continue;
            };
            w.hash_only(|h| h.write_usize(idx));
            w.snap_only(|w| w.write_u8(1));
            packet.write_state(w);
            for id in [self.stats_ids[idx], self.flow_ids[idx]] {
                w.write_opt(id, |w, id| w.write_usize(id.index()));
            }
        }
        w.snap_only(|w| {
            w.write_seq(&self.free, |w, &slot| w.write_u32(slot));
            w.write_usize(self.live);
            w.write_usize(self.peak);
        });
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.read_len()?;
        (self.slots, self.stats_ids, self.flow_ids) = Default::default();
        for _ in 0..n {
            let slot = r.read_opt("arena-slot", |r| {
                let id = |r: &mut SnapReader<'_>| r.read_opt("flow-id", read_flow_id);
                Ok((crate::packet::read_packet(r)?, id(r)?, id(r)?))
            })?;
            let (packet, stats_id, flow_id) =
                slot.map_or((None, None, None), |(p, s, f)| (Some(p), s, f));
            self.slots.push(packet);
            self.stats_ids.push(stats_id);
            self.flow_ids.push(flow_id);
        }
        self.free = r.read_seq(|r| r.read_u32())?;
        self.live = r.read_usize()?;
        self.peak = r.read_usize()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Addr, AgentId};
    use crate::packet::{FlowKey, PacketKind, Provenance};
    use crate::testkit::{assert_state_law, state_bytes, state_hash};
    use crate::time::SimTime;

    fn pkt(id: u64) -> Packet {
        Packet {
            id,
            key: FlowKey::new(Addr::new(1), Addr::new(2), 1, 2),
            kind: PacketKind::Udp,
            size_bytes: 100,
            created_at: SimTime::ZERO,
            provenance: Provenance {
                origin: AgentId(0),
                is_attack: false,
            },
            hops: 0,
        }
    }

    #[test]
    fn alloc_take_roundtrip() {
        let mut a = PacketArena::new();
        let r1 = a.alloc(pkt(1), None);
        let r2 = a.alloc(pkt(2), None);
        assert_eq!(a.live(), 2);
        assert_eq!(a.get(r1).id, 1);
        assert_eq!(a.get(r2).id, 2);
        assert_eq!(a.take(r1).id, 1);
        assert_eq!(a.live(), 1);
        assert_eq!(a.peak(), 2);
    }

    #[test]
    fn slots_recycle_lifo() {
        let mut a = PacketArena::new();
        let r1 = a.alloc(pkt(1), None);
        let _r2 = a.alloc(pkt(2), None);
        let _ = a.take(r1);
        let r3 = a.alloc(pkt(3), None);
        assert_eq!(r3, r1, "freed slot is reused before the slab grows");
        assert_eq!(a.get(r3).id, 3);
        assert_eq!(a.peak(), 2, "recycling does not inflate the peak");
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(7), None);
        a.get_mut(r).hops = 5;
        assert_eq!(a.take(r).hops, 5);
    }

    #[test]
    fn snapshot_round_trips_slots_and_free_list() {
        let mut a = PacketArena::new();
        let r1 = a.alloc(pkt(1), Some(FlowId::from_index(4)));
        let r2 = a.alloc(pkt(2), None);
        a.set_flow_id(r2, FlowId::from_index(9));
        let _ = a.take(r1);
        assert_state_law(&a, PacketArena::new);
        let bytes = state_bytes(&a);
        let mut restored = PacketArena::new();
        let mut r = SnapReader::new(&bytes);
        restored.read_state(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(restored.live(), 1);
        assert_eq!(restored.peak(), 2);
        assert_eq!(restored.get(r2).id, 2);
        assert_eq!(restored.flow_id(r2), Some(FlowId::from_index(9)));
        // The freed slot is recycled in the same LIFO order.
        let r3 = restored.alloc(pkt(3), None);
        assert_eq!(r3, r1);
        a.alloc(pkt(3), None);
        assert_eq!(state_hash(&a), state_hash(&restored));
    }

    #[test]
    fn free_list_order_is_saved_but_only_its_depth_is_hashed() {
        let freed = |first: usize, second: usize| {
            let mut a = PacketArena::new();
            let refs = [
                a.alloc(pkt(1), None),
                a.alloc(pkt(2), None),
                a.alloc(pkt(3), None),
            ];
            let _ = a.take(refs[first]);
            let _ = a.take(refs[second]);
            (state_hash(&a), state_bytes(&a))
        };
        let (hash_a, bytes_a) = freed(0, 1);
        let (hash_b, bytes_b) = freed(1, 0);
        assert_eq!(hash_a, hash_b);
        assert_ne!(bytes_a, bytes_b);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_is_a_bug() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(1), None);
        let _ = a.take(r);
        let _ = a.take(r);
    }
}
