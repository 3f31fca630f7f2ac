//! The LogLog traffic tap — the `LogLogCounter` connector of the paper's
//! NS-2 implementation.
//!
//! One tap per router. It never drops anything; it records, per epoch,
//! the distinct packet ids that *entered the domain* at this router
//! (arrivals on configured ingress links → `S_i`) and the distinct
//! packets that *leave the domain* here (arrivals destined to one of the
//! router's egress addresses → `D_i`). The pushback monitor snapshots
//! these sketches periodically to build the traffic matrix.

use mafic_loglog::{LogLog, Precision, RouterSketch};
use mafic_netsim::{Addr, FilterAction, FilterCtx, LinkId, Packet, PacketEnv, PacketFilter};
use mafic_obs::{SnapError, SnapReader, State, StateWrite};

/// A non-dropping sketch tap installed on a router.
///
/// Membership sets are sorted, deduplicated `Vec`s searched by
/// bisection: a handful of access links or egress addresses per router,
/// read by every packet through the router, in one contiguous array
/// rather than a tree's nodes.
#[derive(Debug)]
pub struct LogLogTap {
    sketch: RouterSketch,
    /// Distinct *source addresses* seen on ingress this epoch — the
    /// subsidence guard's secondary evidence. The packet-id sketches
    /// above estimate traffic volume set-unions; this one estimates how
    /// many senders produced it, so a single link-saturating legit
    /// source reads as cardinality ≈ 1 rather than a flood.
    addr_sketch: LogLog,
    precision: Precision,
    ingress_links: Vec<LinkId>,
    egress_addrs: Vec<Addr>,
    packets_seen: u64,
}

impl LogLogTap {
    /// Creates a tap.
    ///
    /// * `ingress_links` — links whose arrivals count as domain entries
    ///   (the access links from directly attached hosts).
    /// * `egress_addrs` — destination addresses for which this router is
    ///   the last hop (its attached hosts / the victim).
    #[must_use]
    pub fn new(
        precision: Precision,
        ingress_links: impl IntoIterator<Item = LinkId>,
        egress_addrs: impl IntoIterator<Item = Addr>,
    ) -> Self {
        LogLogTap {
            sketch: RouterSketch::new(precision),
            addr_sketch: LogLog::new(precision),
            precision,
            ingress_links: sorted_set(ingress_links),
            egress_addrs: sorted_set(egress_addrs),
            packets_seen: 0,
        }
    }

    /// The current epoch's sketch pair.
    #[must_use]
    pub fn sketch(&self) -> &RouterSketch {
        &self.sketch
    }

    /// Clones the sketch and resets it for the next epoch. The monitor
    /// calls this once per observation interval.
    pub fn take_epoch(&mut self) -> RouterSketch {
        let snapshot = self.sketch.clone();
        self.sketch = RouterSketch::new(self.precision);
        self.addr_sketch.clear();
        snapshot
    }

    /// Moves the current epoch's sketch pair into `out` and rolls the
    /// tap over in place — the allocation-free variant of
    /// [`take_epoch`](LogLogTap::take_epoch) for a caller that harvests
    /// every interval: `out`'s register buffers are cleared and recycled
    /// as the tap's next-epoch storage, so steady-state harvesting
    /// allocates nothing (buffers are rebuilt only if `out` arrives at
    /// the wrong precision).
    pub fn take_epoch_into(&mut self, out: &mut RouterSketch) {
        if out.source_sketch().precision() != self.precision {
            *out = RouterSketch::new(self.precision);
        }
        out.clear();
        std::mem::swap(&mut self.sketch, out);
        self.addr_sketch.clear();
    }

    /// Estimated distinct source addresses seen on ingress links this
    /// epoch. Read it *before* harvesting — both
    /// [`take_epoch`](LogLogTap::take_epoch) and
    /// [`take_epoch_into`](LogLogTap::take_epoch_into) reset it.
    #[must_use]
    pub fn source_address_cardinality(&self) -> f64 {
        self.addr_sketch.estimate()
    }

    /// Packets observed over the tap's lifetime.
    #[must_use]
    pub fn packets_seen(&self) -> u64 {
        self.packets_seen
    }
}

fn sorted_set<T: Ord>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut set: Vec<T> = items.into_iter().collect();
    set.sort_unstable();
    set.dedup();
    set
}

impl PacketFilter for LogLogTap {
    fn on_packet(
        &mut self,
        packet: &Packet,
        env: &PacketEnv,
        _ctx: &mut FilterCtx<'_>,
    ) -> FilterAction {
        self.packets_seen += 1;
        if let Some(via) = env.via_link {
            if self.ingress_links.binary_search(&via).is_ok() {
                self.sketch.record_source(packet.id);
                self.addr_sketch
                    .insert_u64(u64::from(packet.key.src.as_u32()));
            }
        }
        if self.egress_addrs.binary_search(&packet.key.dst).is_ok() {
            self.sketch.record_destination(packet.id);
            // The victim router's tap watches only egress addresses
            // (no ingress links), so the distinct-sender evidence must
            // come from the victim-bound arrivals themselves.
            self.addr_sketch
                .insert_u64(u64::from(packet.key.src.as_u32()));
        }
        FilterAction::Forward
    }
}

/// Ingress/egress membership and precision are build-time; only the
/// epoch sketch registers and the lifetime counter are state.
impl State for LogLogTap {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        for sketch in [
            self.sketch.source_sketch(),
            self.sketch.destination_sketch(),
            &self.addr_sketch,
        ] {
            w.write_bytes(sketch.registers());
            w.write_u64(sketch.inserts());
        }
        w.write_u64(self.packets_seen);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let restore = |sketch: &mut LogLog, r: &mut SnapReader<'_>| {
            let registers = r.read_bytes()?;
            let inserts = r.read_u64()?;
            sketch
                .restore_parts(registers, inserts)
                .map_err(SnapError::Malformed)
        };
        restore(self.sketch.source_sketch_mut(), r)?;
        restore(self.sketch.destination_sketch_mut(), r)?;
        restore(&mut self.addr_sketch, r)?;
        self.packets_seen = r.read_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, FilterHarness};
    use mafic_netsim::{FlowKey, PacketKind, Provenance, SimTime};

    fn pkt(id: u64, dst: Addr) -> Packet {
        Packet {
            id,
            key: FlowKey::new(Addr::from_octets(10, 1, 0, 1), dst, 5, 80),
            kind: PacketKind::Udp,
            size_bytes: 500,
            created_at: SimTime::ZERO,
            provenance: Provenance::infrastructure(),
            hops: 0,
        }
    }

    #[test]
    fn records_sources_only_on_ingress_links() {
        let mut h = FilterHarness::new();
        let ingress = LinkId::from_index(3);
        let other = LinkId::from_index(4);
        let mut tap = LogLogTap::new(Precision::P10, [ingress], []);
        for id in 0..1000 {
            let _ = h.offer(&mut tap, &pkt(id, Addr::new(9)), Some(ingress), false);
        }
        for id in 1000..2000 {
            let _ = h.offer(&mut tap, &pkt(id, Addr::new(9)), Some(other), false);
        }
        let s = tap.sketch().source_cardinality();
        assert!((s - 1000.0).abs() / 1000.0 < 0.2, "S_i estimate {s}");
        assert_eq!(tap.sketch().destination_cardinality(), 0.0);
        assert_eq!(tap.packets_seen(), 2000);
    }

    #[test]
    fn records_destinations_for_egress_addrs() {
        let mut h = FilterHarness::new();
        let victim = Addr::from_octets(10, 200, 0, 1);
        let mut tap = LogLogTap::new(Precision::P10, [], [victim]);
        for id in 0..800 {
            let _ = h.offer(&mut tap, &pkt(id, victim), None, false);
        }
        for id in 800..900 {
            let _ = h.offer(&mut tap, &pkt(id, Addr::new(5)), None, false);
        }
        let d = tap.sketch().destination_cardinality();
        assert!((d - 800.0).abs() / 800.0 < 0.2, "D_i estimate {d}");
    }

    #[test]
    fn epoch_rollover_resets_the_sketch() {
        let mut h = FilterHarness::new();
        let victim = Addr::from_octets(10, 200, 0, 1);
        let mut tap = LogLogTap::new(Precision::P10, [], [victim]);
        for id in 0..500 {
            let _ = h.offer(&mut tap, &pkt(id, victim), None, false);
        }
        let epoch = tap.take_epoch();
        assert!(epoch.destination_cardinality() > 300.0);
        assert_eq!(tap.sketch().destination_cardinality(), 0.0);
    }

    #[test]
    fn take_epoch_into_swaps_and_rolls_over() {
        let mut h = FilterHarness::new();
        let victim = Addr::from_octets(10, 200, 0, 1);
        let mut tap = LogLogTap::new(Precision::P10, [], [victim]);
        for id in 0..500 {
            let _ = h.offer(&mut tap, &pkt(id, victim), None, false);
        }
        // First harvest: the epoch moves into the slot.
        let mut slot = RouterSketch::new(Precision::P10);
        tap.take_epoch_into(&mut slot);
        assert!(slot.destination_cardinality() > 300.0);
        assert_eq!(tap.sketch().destination_cardinality(), 0.0);
        // Second harvest recycles the slot's buffers: the stale epoch
        // is cleared, the new one lands.
        for id in 500..520 {
            let _ = h.offer(&mut tap, &pkt(id, victim), None, false);
        }
        tap.take_epoch_into(&mut slot);
        let d = slot.destination_cardinality();
        assert!(d > 0.0 && d < 100.0, "slot holds only the new epoch: {d}");
        // A wrong-precision slot is rebuilt rather than corrupting the
        // rollover.
        let mut wrong = RouterSketch::new(Precision::P4);
        tap.take_epoch_into(&mut wrong);
        assert_eq!(wrong.source_sketch().precision(), Precision::P10);
    }

    #[test]
    fn address_cardinality_counts_senders_not_packets() {
        let mut h = FilterHarness::new();
        let ingress = LinkId::from_index(3);
        let mut tap = LogLogTap::new(Precision::P10, [ingress], []);
        // One chatty source sending 1000 packets: the packet-id sketch
        // reads ~1000 but the address sketch reads ~1.
        for id in 0..1000 {
            let _ = h.offer(&mut tap, &pkt(id, Addr::new(9)), Some(ingress), false);
        }
        let one = tap.source_address_cardinality();
        assert!(one < 5.0, "single sender must read small, got {one}");
        // Harvest resets the epoch's address sketch too.
        let _ = tap.take_epoch();
        assert_eq!(tap.source_address_cardinality(), 0.0);
        // 500 distinct senders read as hundreds.
        for id in 0..500 {
            let mut p = pkt(5000 + id, Addr::new(9));
            p.key = FlowKey::new(Addr::new(100 + id as u32), p.key.dst, 5, 80);
            let _ = h.offer(&mut tap, &p, Some(ingress), false);
        }
        let many = tap.source_address_cardinality();
        assert!(
            (many - 500.0).abs() / 500.0 < 0.2,
            "distinct senders estimate {many}"
        );
    }

    #[test]
    fn tap_always_forwards() {
        let mut h = FilterHarness::new();
        let mut tap = LogLogTap::new(Precision::P8, [], []);
        let fx = h.offer_transit(&mut tap, &pkt(1, Addr::new(2)));
        assert_eq!(fx.action, Some(FilterAction::Forward));
        assert!(fx.emitted.is_empty());
        assert!(fx.flow_timers.is_empty());
    }

    #[test]
    fn snapshot_round_trips_sketch_registers() {
        let mut h = FilterHarness::new();
        let victim = Addr::from_octets(10, 200, 0, 1);
        let ingress = LinkId::from_index(3);
        let mut tap = LogLogTap::new(Precision::P10, [ingress], [victim]);
        for id in 0..600 {
            let _ = h.offer(&mut tap, &pkt(id, victim), Some(ingress), false);
        }
        assert_state_law(&tap, || LogLogTap::new(Precision::P10, [ingress], [victim]));
        let bytes = state_bytes(&tap);

        let mut back = LogLogTap::new(Precision::P10, [ingress], [victim]);
        let mut r = mafic_obs::SnapReader::new(&bytes);
        back.read_state(&mut r).expect("restore");
        assert!(r.is_empty());
        assert_eq!(back.packets_seen(), 600);
        assert_eq!(
            back.sketch().source_cardinality(),
            tap.sketch().source_cardinality()
        );
        assert_eq!(
            back.sketch().destination_cardinality(),
            tap.sketch().destination_cardinality()
        );

        // A wrong-precision tap rejects the register block by length.
        let mut wrong = LogLogTap::new(Precision::P4, [ingress], [victim]);
        let mut r = mafic_obs::SnapReader::new(&bytes);
        let err = wrong.read_state(&mut r).unwrap_err();
        assert!(matches!(err, mafic_obs::SnapError::Malformed(_)));
    }
}
