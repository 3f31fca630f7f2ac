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

use crate::flows::FlowId;
use crate::packet::Packet;
use mafic_obs::{SnapError, SnapReader, SnapWriter};

/// Dense handle to a packet resident in the simulator's packet arena.
///
/// Valid from allocation until the packet is taken out; the simulator
/// guarantees single ownership (a ref lives in exactly one place: one
/// scheduled event, one link queue slot, or one delivery FIFO entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef(pub(crate) u32);

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
///   sends and injections (the `on_sent` accounting interns it at the
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

    /// Folds the arena occupancy into `h` for the run ledger: counters,
    /// the free-list depth, and every occupied slot in index order
    /// (slot indices are deterministic addresses, so index order is
    /// replay-stable).
    pub(crate) fn hash_state(&self, h: &mut mafic_obs::Fnv64) {
        h.write_usize(self.live);
        h.write_usize(self.peak);
        h.write_usize(self.free.len());
        for (idx, slot) in self.slots.iter().enumerate() {
            let Some(packet) = slot else { continue };
            h.write_usize(idx);
            crate::packet::hash_packet(packet, h);
            match self.stats_ids[idx] {
                Some(id) => {
                    h.write_u8(1);
                    h.write_usize(id.index());
                }
                None => h.write_u8(0),
            }
            match self.flow_ids[idx] {
                Some(id) => {
                    h.write_u8(1);
                    h.write_usize(id.index());
                }
                None => h.write_u8(0),
            }
        }
    }

    /// Serializes the full slab — occupancy, cached ids, free list,
    /// counters — so slot addresses survive a restore (events and link
    /// queues refer to packets by slot index).
    pub(crate) fn snap_save(&self, w: &mut SnapWriter) {
        w.write_usize(self.slots.len());
        for (idx, slot) in self.slots.iter().enumerate() {
            match slot {
                Some(packet) => {
                    w.write_bool(true);
                    crate::packet::snap_packet(packet, w);
                    snap_opt_flow_id(self.stats_ids[idx], w);
                    snap_opt_flow_id(self.flow_ids[idx], w);
                }
                None => w.write_bool(false),
            }
        }
        w.write_usize(self.free.len());
        for &slot in &self.free {
            w.write_u32(slot);
        }
        w.write_usize(self.live);
        w.write_usize(self.peak);
    }

    /// Overlays checkpointed slab state.
    pub(crate) fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.read_usize()?;
        let mut slots = Vec::with_capacity(n.min(1 << 20));
        let mut stats_ids = Vec::with_capacity(n.min(1 << 20));
        let mut flow_ids = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            if r.read_bool()? {
                slots.push(Some(crate::packet::read_packet(r)?));
                stats_ids.push(read_opt_flow_id(r)?);
                flow_ids.push(read_opt_flow_id(r)?);
            } else {
                slots.push(None);
                stats_ids.push(None);
                flow_ids.push(None);
            }
        }
        let n_free = r.read_usize()?;
        let mut free = Vec::with_capacity(n_free.min(1 << 20));
        for _ in 0..n_free {
            free.push(r.read_u32()?);
        }
        self.slots = slots;
        self.stats_ids = stats_ids;
        self.flow_ids = flow_ids;
        self.free = free;
        self.live = r.read_usize()?;
        self.peak = r.read_usize()?;
        Ok(())
    }
}

fn snap_opt_flow_id(id: Option<FlowId>, w: &mut SnapWriter) {
    match id {
        Some(id) => {
            w.write_bool(true);
            w.write_usize(id.index());
        }
        None => w.write_bool(false),
    }
}

fn read_opt_flow_id(r: &mut SnapReader<'_>) -> Result<Option<FlowId>, SnapError> {
    Ok(if r.read_bool()? {
        Some(FlowId::from_index(r.read_usize()?))
    } else {
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Addr, AgentId};
    use crate::packet::{FlowKey, PacketKind, Provenance};
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
        let mut w = SnapWriter::new();
        a.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = PacketArena::new();
        let mut r = SnapReader::new(&bytes);
        restored.snap_restore(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(restored.live(), 1);
        assert_eq!(restored.peak(), 2);
        assert_eq!(restored.get(r2).id, 2);
        assert_eq!(restored.flow_id(r2), Some(FlowId::from_index(9)));
        // The freed slot is recycled in the same LIFO order.
        let r3 = restored.alloc(pkt(3), None);
        assert_eq!(r3, r1);
        let mut ha = mafic_obs::Fnv64::new();
        let mut hb = mafic_obs::Fnv64::new();
        a.alloc(pkt(3), None);
        a.hash_state(&mut ha);
        restored.hash_state(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
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
