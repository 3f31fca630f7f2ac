//! TCP receiver (sink) agent.
//!
//! Generates one cumulative ACK per data segment (no delayed ACK), echoing
//! the sender's timestamp so both the sender and the routers on the path
//! can estimate the flow RTT — the paper's "RTT information is available
//! in most TCP traffic flows by checking the time stamp in the packet
//! header". The reorder buffer behind the cumulative ACK is the
//! [`ReceiveWindow`] the victim's sink keeps per flow.

use mafic_netsim::{
    Agent, AgentCtx, FlowKey, Packet, PacketKind, SimTime, SnapError, SnapReader, State, StateWrite,
};

use crate::window::{Arrival, ReceiveWindow};

/// A TCP receiver that ACKs every in-order or out-of-order segment.
///
/// Out-of-order segments are buffered (by sequence number) and the
/// cumulative ACK advances over any contiguous run, so the sender sees
/// duplicate ACKs exactly when segments go missing — which is what makes
/// MAFIC's probing-phase drops visible to compliant sources.
#[derive(Debug)]
pub struct TcpSink {
    /// The *forward* flow key (sender → sink); ACKs use the reverse.
    forward_key: FlowKey,
    ack_size: u32,
    window: ReceiveWindow,
    acks_sent: u64,
    segments_received: u64,
    duplicate_segments: u64,
}

impl TcpSink {
    /// Creates a sink for the given forward flow.
    #[must_use]
    pub fn new(forward_key: FlowKey, ack_size: u32) -> Self {
        TcpSink {
            forward_key,
            ack_size,
            window: ReceiveWindow::default(),
            acks_sent: 0,
            segments_received: 0,
            duplicate_segments: 0,
        }
    }

    fn send_ack(&mut self, ts_echo: SimTime, ctx: &mut AgentCtx<'_>) {
        let kind = PacketKind::TcpAck {
            ack: self.window.rcv_next(),
            ts: ctx.now(),
            ts_echo,
        };
        ctx.send(self.forward_key.reversed(), kind, self.ack_size, false);
        self.acks_sent += 1;
    }
}

impl Agent for TcpSink {
    fn on_start(&mut self, _ctx: &mut AgentCtx<'_>) {}

    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
        let PacketKind::TcpData { seq, ts, .. } = packet.kind else {
            return; // Sinks ignore ACKs, UDP, and probes.
        };
        if packet.key != self.forward_key {
            return; // Not our flow (shared host).
        }
        self.segments_received += 1;
        if self.window.receive(seq) == Arrival::Old {
            self.duplicate_segments += 1;
        }
        self.send_ack(ts, ctx);
    }
}

impl State for TcpSink {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        self.window.write_state(w);
        w.write_u64(self.acks_sent);
        w.write_u64(self.segments_received);
        w.write_u64(self.duplicate_segments);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.window.read_state(r)?;
        self.acks_sent = r.read_u64()?;
        self.segments_received = r.read_u64()?;
        self.duplicate_segments = r.read_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, AgentHarness};
    use mafic_netsim::{Addr, Provenance, SimDuration};

    fn key() -> FlowKey {
        FlowKey::new(
            Addr::from_octets(10, 0, 0, 1),
            Addr::from_octets(10, 9, 0, 1),
            4000,
            80,
        )
    }

    fn data(seq: u64, now: SimTime) -> Packet {
        Packet {
            id: seq + 100,
            key: key(),
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

    #[test]
    fn snapshot_round_trips_a_reorder_buffer() {
        let mut h = AgentHarness::new();
        let mut s = TcpSink::new(key(), 40);
        for seq in [0, 3, 5, 6, 0] {
            let _ = h.deliver(&mut s, data(seq, h.now));
        }
        assert_eq!(s.window.buffered(), 3);
        assert_eq!(s.duplicate_segments, 1);
        assert_state_law(&s, || TcpSink::new(key(), 40));

        let mut restored = TcpSink::new(key(), 40);
        let bytes = state_bytes(&s);
        restored.read_state(&mut SnapReader::new(&bytes)).unwrap();
        // Filling the first gap drains the same buffered run in both.
        let a = h.deliver(&mut s, data(1, h.now));
        let b = h.deliver(&mut restored, data(1, h.now));
        assert_eq!(ack_of(&a.sent[0]), 2);
        assert_eq!(ack_of(&b.sent[0]), 2);
        let b = h.deliver(&mut restored, data(2, h.now));
        assert_eq!(ack_of(&b.sent[0]), 4, "3 was buffered across the restore");
    }

    fn ack_of(p: &Packet) -> u64 {
        match p.kind {
            PacketKind::TcpAck { ack, .. } => ack,
            _ => panic!("not an ack: {:?}", p.kind),
        }
    }

    #[test]
    fn in_order_segments_advance_cumulative_ack() {
        let mut h = AgentHarness::new();
        let mut s = TcpSink::new(key(), 40);
        for seq in 0..3 {
            let fx = h.deliver(&mut s, data(seq, h.now));
            assert_eq!(fx.sent.len(), 1);
            assert_eq!(ack_of(&fx.sent[0]), seq + 1);
            assert_eq!(fx.sent[0].key, key().reversed());
        }
        assert_eq!(s.window.rcv_next(), 3);
        assert_eq!(s.acks_sent, 3);
    }

    #[test]
    fn gap_produces_duplicate_acks_then_catches_up() {
        let mut h = AgentHarness::new();
        let mut s = TcpSink::new(key(), 40);
        let _ = h.deliver(&mut s, data(0, h.now));
        // Segment 1 lost; 2 and 3 arrive.
        let fx2 = h.deliver(&mut s, data(2, h.now));
        let fx3 = h.deliver(&mut s, data(3, h.now));
        assert_eq!(ack_of(&fx2.sent[0]), 1, "dup ack");
        assert_eq!(ack_of(&fx3.sent[0]), 1, "dup ack");
        // Retransmission of 1 fills the hole and ACK jumps to 4.
        let fx1 = h.deliver(&mut s, data(1, h.now));
        assert_eq!(ack_of(&fx1.sent[0]), 4);
        assert_eq!(s.window.rcv_next(), 4);
    }

    #[test]
    fn timestamps_are_echoed() {
        let mut h = AgentHarness::new();
        h.advance(SimDuration::from_millis(30));
        let sent_at = h.now;
        let mut s = TcpSink::new(key(), 40);
        h.advance(SimDuration::from_millis(15));
        let fx = h.deliver(&mut s, data(0, sent_at));
        match fx.sent[0].kind {
            PacketKind::TcpAck { ts_echo, .. } => assert_eq!(ts_echo, sent_at),
            ref other => panic!("expected ack, got {other:?}"),
        }
    }

    #[test]
    fn foreign_flows_and_non_data_are_ignored() {
        let mut h = AgentHarness::new();
        let mut s = TcpSink::new(key(), 40);
        let mut foreign = data(0, h.now);
        foreign.key.src_port = 9999;
        assert!(h.deliver(&mut s, foreign).sent.is_empty());
        let udp = Packet {
            kind: PacketKind::Udp,
            ..data(0, h.now)
        };
        assert!(h.deliver(&mut s, udp).sent.is_empty());
        assert_eq!(s.segments_received, 0);
    }

    #[test]
    fn old_duplicates_are_counted_not_buffered() {
        let mut h = AgentHarness::new();
        let mut s = TcpSink::new(key(), 40);
        let _ = h.deliver(&mut s, data(0, h.now));
        let _ = h.deliver(&mut s, data(0, h.now));
        assert_eq!(s.duplicate_segments, 1);
        assert_eq!(s.window.rcv_next(), 1);
    }
}
