//! Victim-bound rate metering at an Attack Transit Router.

use mafic_netsim::{Addr, FilterAction, FilterCtx, Packet, PacketEnv, PacketFilter};
use mafic_obs::{SnapError, SnapReader, State, StateWrite};

/// A passive filter counting victim-bound bytes and packets.
///
/// The pushback monitor drains the window once per monitor interval via
/// [`VictimRateMeter::take_window`]; the windowed byte count over the
/// interval length is the domain's observable escalation signal. The
/// meter reads nothing but the packet's destination address — never the
/// ground-truth provenance — so the escalation decision stays a legal
/// defense-side decision (determinism rule 4).
///
/// Placed *before* the dropper in a router's filter chain it measures
/// the offered victim-bound pressure; placed *after*, only the residual
/// the local defense lets through.
#[derive(Debug)]
pub struct VictimRateMeter {
    victim: Addr,
    window_bytes: u64,
    window_packets: u64,
    total_bytes: u64,
}

impl VictimRateMeter {
    /// Creates a meter for traffic destined to `victim`.
    #[must_use]
    pub fn new(victim: Addr) -> Self {
        VictimRateMeter {
            victim,
            window_bytes: 0,
            window_packets: 0,
            total_bytes: 0,
        }
    }

    /// The victim address being metered.
    #[must_use]
    pub fn victim(&self) -> Addr {
        self.victim
    }

    /// Returns `(bytes, packets)` observed since the previous drain and
    /// resets the window.
    pub fn take_window(&mut self) -> (u64, u64) {
        let out = (self.window_bytes, self.window_packets);
        self.window_bytes = 0;
        self.window_packets = 0;
        out
    }

    /// Victim-bound bytes observed over the meter's lifetime.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

impl State for VictimRateMeter {
    /// The victim address is build-time configuration: hashed, not
    /// saved.
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.hash_only(|h| h.write_u32(self.victim.as_u32()));
        w.write_u64(self.window_bytes);
        w.write_u64(self.window_packets);
        w.write_u64(self.total_bytes);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.window_bytes = r.read_u64()?;
        self.window_packets = r.read_u64()?;
        self.total_bytes = r.read_u64()?;
        Ok(())
    }
}

impl PacketFilter for VictimRateMeter {
    fn on_packet(
        &mut self,
        packet: &Packet,
        _env: &PacketEnv,
        _ctx: &mut FilterCtx<'_>,
    ) -> FilterAction {
        if packet.key.dst == self.victim {
            self.window_bytes += u64::from(packet.size_bytes);
            self.window_packets += 1;
            self.total_bytes += u64::from(packet.size_bytes);
        }
        FilterAction::Forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, state_hash, FilterHarness};
    use mafic_netsim::{FlowKey, PacketKind, Provenance, SimTime};

    const VICTIM: Addr = Addr::new(0x0AC8_0001);

    fn pkt(dst: Addr, size: u32) -> Packet {
        Packet {
            id: 1,
            key: FlowKey::new(Addr::new(7), dst, 1, 80),
            kind: PacketKind::Udp,
            size_bytes: size,
            created_at: SimTime::ZERO,
            provenance: Provenance::infrastructure(),
            hops: 0,
        }
    }

    #[test]
    fn counts_only_victim_bound_traffic() {
        let mut h = FilterHarness::new();
        let mut m = VictimRateMeter::new(VICTIM);
        assert_eq!(
            h.offer_transit(&mut m, &pkt(VICTIM, 500)).action,
            Some(FilterAction::Forward)
        );
        let _ = h.offer_transit(&mut m, &pkt(Addr::new(9), 500));
        let _ = h.offer_transit(&mut m, &pkt(VICTIM, 300));
        assert_eq!(m.take_window(), (800, 2));
        assert_eq!(m.total_bytes(), 800);
    }

    #[test]
    fn windows_reset_on_drain() {
        let mut h = FilterHarness::new();
        let mut m = VictimRateMeter::new(VICTIM);
        let _ = h.offer_transit(&mut m, &pkt(VICTIM, 100));
        assert_eq!(m.take_window(), (100, 1));
        assert_eq!(m.take_window(), (0, 0));
        let _ = h.offer_transit(&mut m, &pkt(VICTIM, 50));
        assert_eq!(m.take_window(), (50, 1));
        assert_eq!(m.total_bytes(), 150, "lifetime total keeps accumulating");
    }

    #[test]
    fn snapshot_round_trips_an_undrained_window() {
        let mut h = FilterHarness::new();
        let mut m = VictimRateMeter::new(VICTIM);
        let _ = h.offer_transit(&mut m, &pkt(VICTIM, 500));
        let _ = h.offer_transit(&mut m, &pkt(VICTIM, 300));
        assert_state_law(&m, || VictimRateMeter::new(VICTIM));
        let bytes = state_bytes(&m);
        let mut restored = VictimRateMeter::new(VICTIM);
        let mut r = SnapReader::new(&bytes);
        restored.read_state(&mut r).expect("restore succeeds");
        assert!(r.is_empty());
        assert_eq!(state_hash(&m), state_hash(&restored));
        // The victim is configuration: hashed, and not in `bytes`.
        let mut elsewhere = VictimRateMeter::new(Addr::new(7));
        elsewhere
            .read_state(&mut SnapReader::new(&bytes))
            .expect("restore succeeds");
        assert_ne!(state_hash(&m), state_hash(&elsewhere));
        assert_eq!(restored.take_window(), (800, 2), "window survives intact");
    }
}
