//! The victim-host endpoint: a demultiplexing sink for every flow aimed
//! at the victim address.
//!
//! A single agent is bound to the victim address, so it must keep
//! per-flow receiver state: TCP flows get cumulative ACKs (making the
//! senders' congestion control — and MAFIC's probing — work end to end),
//! UDP floods are merely counted and absorbed.

use mafic_netsim::{
    Agent, AgentCtx, FlowKey, FlowSlab, Packet, PacketKind, Provenance, SimTime, SnapError,
    SnapReader, State, StateWrite,
};
use std::collections::BTreeSet;

#[derive(Debug, Default)]
struct FlowState {
    rcv_next: u64,
    out_of_order: BTreeSet<u64>,
}

/// A sink absorbing every flow addressed to the victim.
///
/// Per-flow receiver state is a dense [`FlowSlab`] indexed by the
/// interned flow id the simulator delivers with each packet
/// ([`AgentCtx::packet_flow`]) — under a many-flow flood the per-segment
/// cost is one array probe, not a 4-tuple hash.
#[derive(Debug)]
pub struct VictimSink {
    ack_size: u32,
    tcp_flows: FlowSlab<FlowState>,
    tcp_segments: u64,
    udp_datagrams: u64,
    acks_sent: u64,
    /// Cap on tracked TCP flows (memory bound under SYN-flood-like load).
    max_flows: usize,
}

impl VictimSink {
    /// Creates a sink. `max_flows` bounds per-flow receiver state.
    ///
    /// # Panics
    ///
    /// Panics if `max_flows` is zero.
    #[must_use]
    pub fn new(ack_size: u32, max_flows: usize) -> Self {
        assert!(max_flows > 0, "max_flows must be positive");
        VictimSink {
            ack_size,
            tcp_flows: FlowSlab::new(),
            tcp_segments: 0,
            udp_datagrams: 0,
            acks_sent: 0,
            max_flows,
        }
    }

    fn ack(&mut self, key: FlowKey, ack: u64, ts_echo: SimTime, ctx: &mut AgentCtx<'_>) {
        let pkt = Packet {
            id: ctx.fresh_packet_id(),
            key: key.reversed(),
            kind: PacketKind::TcpAck {
                ack,
                ts: ctx.now(),
                ts_echo,
            },
            size_bytes: self.ack_size,
            created_at: ctx.now(),
            provenance: Provenance {
                origin: ctx.agent_id(),
                is_attack: false,
            },
            hops: 0,
        };
        ctx.send_packet(pkt);
        self.acks_sent += 1;
    }
}

impl Default for VictimSink {
    /// 40-byte ACKs, 16 384 tracked flows.
    fn default() -> Self {
        VictimSink::new(40, 16 * 1024)
    }
}

impl Agent for VictimSink {
    fn on_start(&mut self, _ctx: &mut AgentCtx<'_>) {}

    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
        match packet.kind {
            PacketKind::TcpData { seq, ts, .. } => {
                self.tcp_segments += 1;
                let flow = ctx
                    .packet_flow()
                    .expect("on_packet always carries a flow id");
                if !self.tcp_flows.contains(flow) {
                    if self.tcp_flows.len() >= self.max_flows {
                        // State exhausted: absorb without acknowledging, as
                        // a real server under SYN-flood state pressure
                        // would.
                        return;
                    }
                    self.tcp_flows.insert(flow, FlowState::default());
                }
                let state = self.tcp_flows.get_mut(flow).expect("just ensured");
                if seq == state.rcv_next {
                    state.rcv_next += 1;
                    while state.out_of_order.remove(&state.rcv_next) {
                        state.rcv_next += 1;
                    }
                } else if seq > state.rcv_next {
                    state.out_of_order.insert(seq);
                }
                let ack = state.rcv_next;
                self.ack(packet.key, ack, ts, ctx);
            }
            PacketKind::Udp => {
                self.udp_datagrams += 1;
            }
            PacketKind::TcpAck { .. }
            | PacketKind::ProbeDupAck { .. }
            | PacketKind::Pushback(_) => {}
        }
    }
}

impl State for VictimSink {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_usize(self.tcp_flows.len());
        for (flow, state) in self.tcp_flows.iter() {
            w.write_usize(flow.index());
            w.write_u64(state.rcv_next);
            w.write_seq(&state.out_of_order, |w, &seq| w.write_u64(seq));
        }
        w.write_u64(self.tcp_segments);
        w.write_u64(self.udp_datagrams);
        w.write_u64(self.acks_sent);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.tcp_flows = r.read_seq(|r| {
            let flow = mafic_netsim::read_flow_id(r)?;
            let state = FlowState {
                rcv_next: r.read_u64()?,
                out_of_order: r.read_seq(|r| r.read_u64())?,
            };
            Ok((flow, state))
        })?;
        self.tcp_segments = r.read_u64()?;
        self.udp_datagrams = r.read_u64()?;
        self.acks_sent = r.read_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, AgentHarness};
    use mafic_netsim::Addr;

    fn key(port: u16) -> FlowKey {
        FlowKey::new(
            Addr::from_octets(10, 1, 0, 1),
            Addr::from_octets(10, 200, 0, 1),
            port,
            80,
        )
    }

    fn data(port: u16, seq: u64, now: SimTime) -> Packet {
        Packet {
            id: u64::from(port) * 1000 + seq,
            key: key(port),
            kind: PacketKind::TcpData {
                seq,
                ts: now,
                ts_echo: SimTime::ZERO,
            },
            size_bytes: 500,
            created_at: now,
            provenance: Provenance::infrastructure(),
            hops: 0,
        }
    }

    fn udp(port: u16) -> Packet {
        Packet {
            id: u64::from(port),
            key: key(port),
            kind: PacketKind::Udp,
            size_bytes: 500,
            created_at: SimTime::ZERO,
            provenance: Provenance::infrastructure(),
            hops: 0,
        }
    }

    #[test]
    fn snapshot_round_trips_per_flow_reorder_buffers() {
        let mut h = AgentHarness::new();
        let mut s = VictimSink::default();
        for (port, seq) in [(1, 0), (1, 2), (1, 4), (2, 1), (3, 0)] {
            let _ = h.deliver(&mut s, data(port, seq, h.now));
        }
        let _ = h.deliver(&mut s, udp(9));
        assert_eq!(s.tcp_flows.len(), 3);
        assert_state_law(&s, VictimSink::default);

        let mut restored = VictimSink::default();
        let bytes = state_bytes(&s);
        restored.read_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(restored.udp_datagrams, 1);
        // Same harness, so port 1 keeps its interned flow id: filling
        // the gap acks past the segment buffered before the restore.
        let fx = h.deliver(&mut restored, data(1, 1, h.now));
        match fx.sent[0].kind {
            PacketKind::TcpAck { ack, .. } => assert_eq!(ack, 3),
            ref k => panic!("expected ack, got {k:?}"),
        }
    }

    #[test]
    fn tracks_flows_independently() {
        let mut h = AgentHarness::new();
        let mut s = VictimSink::default();
        let fx1 = h.deliver(&mut s, data(1, 0, h.now));
        let fx2 = h.deliver(&mut s, data(2, 0, h.now));
        assert_eq!(s.tcp_flows.len(), 2);
        assert_eq!(fx1.sent.len(), 1);
        assert_eq!(fx2.sent.len(), 1);
        // Both ACK seq 1 on their own reverse keys.
        assert_eq!(fx1.sent[0].key, key(1).reversed());
        assert_eq!(fx2.sent[0].key, key(2).reversed());
    }

    #[test]
    fn cumulative_ack_per_flow() {
        let mut h = AgentHarness::new();
        let mut s = VictimSink::default();
        let _ = h.deliver(&mut s, data(1, 0, h.now));
        let fx = h.deliver(&mut s, data(1, 2, h.now)); // gap
        match fx.sent[0].kind {
            PacketKind::TcpAck { ack, .. } => assert_eq!(ack, 1, "dup ack on gap"),
            ref k => panic!("expected ack, got {k:?}"),
        }
        let fx = h.deliver(&mut s, data(1, 1, h.now)); // fill
        match fx.sent[0].kind {
            PacketKind::TcpAck { ack, .. } => assert_eq!(ack, 3),
            ref k => panic!("expected ack, got {k:?}"),
        }
    }

    #[test]
    fn udp_is_absorbed_silently() {
        let mut h = AgentHarness::new();
        let mut s = VictimSink::default();
        let fx = h.deliver(&mut s, udp(9));
        assert!(fx.sent.is_empty());
        assert_eq!(s.udp_datagrams, 1);
        assert_eq!(s.tcp_flows.len(), 0);
    }

    #[test]
    fn flow_cap_stops_new_state_not_existing() {
        let mut h = AgentHarness::new();
        let mut s = VictimSink::new(40, 2);
        let _ = h.deliver(&mut s, data(1, 0, h.now));
        let _ = h.deliver(&mut s, data(2, 0, h.now));
        let fx3 = h.deliver(&mut s, data(3, 0, h.now));
        assert!(fx3.sent.is_empty(), "no ACK once state exhausted");
        assert_eq!(s.tcp_flows.len(), 2);
        // Existing flows keep working.
        let fx1 = h.deliver(&mut s, data(1, 1, h.now));
        assert_eq!(fx1.sent.len(), 1);
    }

    #[test]
    fn acks_and_probes_are_ignored() {
        let mut h = AgentHarness::new();
        let mut s = VictimSink::default();
        let probe = Packet {
            id: 5,
            key: key(1),
            kind: PacketKind::ProbeDupAck { count: 3 },
            size_bytes: 40,
            created_at: h.now,
            provenance: Provenance::infrastructure(),
            hops: 0,
        };
        let fx = h.deliver(&mut s, probe);
        assert!(fx.sent.is_empty());
        assert_eq!(s.acks_sent, 0);
    }

    #[test]
    #[should_panic(expected = "max_flows must be positive")]
    fn zero_cap_rejected() {
        let _ = VictimSink::new(40, 0);
    }
}
