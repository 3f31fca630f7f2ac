//! The proportional-dropping baseline.
//!
//! The authors' earlier set-union-counting pushback work dropped *all*
//! victim-bound packets — legitimate or malicious — with the same
//! probability. MAFIC's motivation is the collateral damage this causes;
//! the baseline is one [`crate::DefensePolicy`] among the others, so
//! every experiment can be re-run with either policy.

use crate::policy::TAG_PROPORTIONAL;
use mafic_netsim::{
    read_flow_id, Addr, DropReason, FilterAction, FilterControl, FilterCtx, FlowId, FlowSlab,
    Packet, PacketEnv, PacketFilter, StatNote,
};
use mafic_obs::{SnapError, SnapReader, State, StateWrite};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Uniform proportional dropper (the `[2]` baseline).
#[derive(Debug)]
pub struct ProportionalFilter {
    drop_probability: f64,
    rng: SmallRng,
    active: Option<Addr>,
    examined: u64,
    dropped: u64,
    /// Per-flow drop counts, indexed densely by the interned [`FlowId`]
    /// (collateral-damage diagnostics without any per-packet hashing).
    per_flow_dropped: FlowSlab<u64>,
}

impl ProportionalFilter {
    /// Creates an inactive proportional dropper.
    ///
    /// # Panics
    ///
    /// Panics if `drop_probability` is outside `[0, 1]`.
    #[must_use]
    pub fn new(drop_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_probability),
            "drop probability {drop_probability} out of [0, 1]"
        );
        ProportionalFilter {
            drop_probability,
            rng: SmallRng::seed_from_u64(seed),
            active: None,
            examined: 0,
            dropped: 0,
            per_flow_dropped: FlowSlab::new(),
        }
    }

    /// True while a pushback request is in force.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// Packets examined while active.
    #[must_use]
    pub fn examined(&self) -> u64 {
        self.examined
    }

    /// Packets dropped.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Approximate per-flow state held by this filter, in bytes: one
    /// slab entry per flow that lost a packet (drop diagnostics only —
    /// the policy itself keeps no classification state).
    #[must_use]
    pub fn approx_state_bytes(&self) -> usize {
        self.per_flow_dropped.len() * std::mem::size_of::<(FlowId, u64)>()
    }

    /// Activates the defense for `victim`.
    pub fn activate(&mut self, victim: Addr) {
        self.active = Some(victim);
    }

    /// Deactivates the defense.
    pub(crate) fn deactivate(&mut self) {
        self.active = None;
    }
}

impl State for ProportionalFilter {
    /// The drop probability is build-time configuration (hashed, not
    /// saved); the RNG is saved, not hashed — its draws are pinned
    /// indirectly by the drop counters.
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.hash_only(|h| {
            h.write_u8(TAG_PROPORTIONAL);
            h.write_f64(self.drop_probability);
        });
        w.snap_only(|w| w.write_rng(self.rng.state()));
        w.write_opt(self.active, |w, victim| w.write_u32(victim.as_u32()));
        w.write_u64(self.examined);
        w.write_u64(self.dropped);
        w.write_usize(self.per_flow_dropped.len());
        for (id, &count) in self.per_flow_dropped.iter() {
            w.write_usize(id.index());
            w.write_u64(count);
        }
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rng = r.read_rng(SmallRng::from_state)?;
        self.active = r.read_opt("proportional-active", |r| r.read_u32().map(Addr::new))?;
        self.examined = r.read_u64()?;
        self.dropped = r.read_u64()?;
        self.per_flow_dropped = r.read_seq(|r| Ok((read_flow_id(r)?, r.read_u64()?)))?;
        Ok(())
    }
}

impl PacketFilter for ProportionalFilter {
    fn on_packet(
        &mut self,
        packet: &Packet,
        env: &PacketEnv,
        ctx: &mut FilterCtx<'_>,
    ) -> FilterAction {
        let Some(victim) = self.active else {
            return FilterAction::Forward;
        };
        if packet.key.dst != victim {
            return FilterAction::Forward;
        }
        self.examined += 1;
        ctx.note(StatNote::AtrSeen, packet.key);
        if self.rng.gen::<f64>() < self.drop_probability {
            self.dropped += 1;
            match self.per_flow_dropped.get_mut(env.flow) {
                Some(count) => *count += 1,
                None => {
                    self.per_flow_dropped.insert(env.flow, 1);
                }
            }
            FilterAction::Drop(DropReason::FilterProportional)
        } else {
            FilterAction::Forward
        }
    }

    fn on_control(&mut self, msg: &FilterControl, _ctx: &mut FilterCtx<'_>) {
        match msg {
            FilterControl::PushbackStart { victim } => self.activate(*victim),
            FilterControl::PushbackStop => self.deactivate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, state_hash, FilterHarness};
    use mafic_netsim::{FlowKey, PacketKind, Provenance, SimTime};

    const VICTIM: Addr = Addr::new(0x0AC8_0001);

    fn pkt(dst: Addr) -> Packet {
        Packet {
            id: 1,
            key: FlowKey::new(Addr::from_octets(10, 1, 0, 1), dst, 5, 80),
            kind: PacketKind::Udp,
            size_bytes: 500,
            created_at: SimTime::ZERO,
            provenance: Provenance::infrastructure(),
            hops: 0,
        }
    }

    #[test]
    fn inactive_forwards() {
        let mut h = FilterHarness::new();
        let mut f = ProportionalFilter::new(1.0, 1);
        let fx = h.offer_transit(&mut f, &pkt(VICTIM));
        assert_eq!(fx.action, Some(FilterAction::Forward));
    }

    #[test]
    fn drops_victim_bound_at_rate() {
        let mut h = FilterHarness::new();
        let mut f = ProportionalFilter::new(0.9, 7);
        f.activate(VICTIM);
        let mut drops = 0;
        for _ in 0..1000 {
            match h.offer_transit(&mut f, &pkt(VICTIM)).action {
                Some(FilterAction::Drop(DropReason::FilterProportional)) => drops += 1,
                Some(FilterAction::Forward) => {}
                other => panic!("unexpected verdict {other:?}"),
            }
        }
        assert!(
            (850..=950).contains(&drops),
            "≈90% of 1000 packets expected, got {drops}"
        );
        assert_eq!(f.examined(), 1000);
        assert_eq!(f.dropped(), drops);
    }

    #[test]
    fn other_destinations_untouched() {
        let mut h = FilterHarness::new();
        let mut f = ProportionalFilter::new(1.0, 1);
        f.activate(VICTIM);
        let fx = h.offer_transit(&mut f, &pkt(Addr::from_octets(10, 1, 0, 9)));
        assert_eq!(fx.action, Some(FilterAction::Forward));
        assert_eq!(f.examined(), 0);
    }

    #[test]
    fn control_messages_toggle() {
        let mut h = FilterHarness::new();
        let mut f = ProportionalFilter::new(1.0, 1);
        let _ = h.control(&mut f, &FilterControl::PushbackStart { victim: VICTIM });
        assert!(f.is_active());
        let _ = h.control(&mut f, &FilterControl::PushbackStop);
        assert!(!f.is_active());
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn probability_validated() {
        let _ = ProportionalFilter::new(1.5, 1);
    }

    #[test]
    fn snapshot_round_trips_rng_mid_stream() {
        let mut h = FilterHarness::new();
        let mut f = ProportionalFilter::new(0.5, 7);
        f.activate(VICTIM);
        for _ in 0..50 {
            let _ = h.offer_transit(&mut f, &pkt(VICTIM));
        }
        assert_state_law(&f, || ProportionalFilter::new(0.5, 999));
        let bytes = state_bytes(&f);

        // A different seed proves the restored RNG words drive the
        // continuation, not the constructor seed.
        let mut g = ProportionalFilter::new(0.5, 999);
        // Seeds are saved, not hashed; the probability and the filter
        // type are hashed, not saved.
        assert_eq!(state_hash(&g), state_hash(&ProportionalFilter::new(0.5, 7)));
        assert_ne!(
            state_hash(&g),
            state_hash(&ProportionalFilter::new(0.25, 999))
        );
        assert_ne!(
            state_hash(&ProportionalFilter::new(1.0, 1)),
            state_hash(&crate::RateLimitFilter::new(1.0))
        );
        let mut r = SnapReader::new(&bytes);
        g.read_state(&mut r).expect("restore");
        assert!(r.is_empty());
        assert_eq!(g.examined(), 50);
        assert_eq!(g.dropped(), f.dropped());
        let mut h2 = FilterHarness::new();
        for _ in 0..50 {
            let fx = h.offer_transit(&mut f, &pkt(VICTIM));
            let gx = h2.offer_transit(&mut g, &pkt(VICTIM));
            assert_eq!(fx.action, gx.action);
        }
        assert_eq!(f.dropped(), g.dropped());
    }
}
