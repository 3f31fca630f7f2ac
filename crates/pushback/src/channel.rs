//! The control channel: where inter-domain pushback packets land.

use mafic_netsim::{Agent, AgentCtx, ControlMsg, Packet, PacketKind, SimTime};
use mafic_obs::{SnapError, SnapReader, State, StateWrite};

/// The agent bound to a domain's control address.
///
/// Pushback envelopes travel as [`PacketKind::Pushback`] packets over
/// the inter-domain links — they queue, serialize, and propagate like
/// any other traffic, so the control plane obeys the same total event
/// order as the data plane (ARCHITECTURE.md rule 2). The channel is
/// also the **authentication line** of the versioned protocol: an
/// envelope whose claimed [`mafic_netsim::RequesterId`] does not match
/// the carrying packet's source address is a forgery speaking for
/// somebody else's boundary — it is dropped (and counted) here, before
/// the coordinator or its trust ledger ever see it. The pushback
/// monitor drains the inbox once per interval and feeds the domain's
/// coordinator.
#[derive(Debug, Default)]
pub struct ControlChannel {
    inbox: Vec<(SimTime, ControlMsg)>,
    received_total: u64,
    forged_dropped: u64,
}

impl ControlChannel {
    /// Creates an empty channel.
    #[must_use]
    pub fn new() -> Self {
        ControlChannel::default()
    }

    /// Moves the queued envelopes, in arrival order, into `out`
    /// (clearing it first). The buffers swap, so a monitor draining once
    /// per interval recycles the same two allocations for the whole run.
    pub fn drain_into(&mut self, out: &mut Vec<(SimTime, ControlMsg)>) {
        out.clear();
        std::mem::swap(&mut self.inbox, out);
    }

    /// Envelopes dropped because the claimed requester identity did not
    /// match the packet's source address.
    #[must_use]
    pub fn forged_dropped(&self) -> u64 {
        self.forged_dropped
    }
}

impl State for ControlChannel {
    /// The undrained inbox and the lifetime counters. The two pinned
    /// formats order them differently: the ledger hashes the counters
    /// first, a checkpoint carries them last.
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        let counters = |w: &mut W| {
            w.write_u64(self.received_total);
            w.write_u64(self.forged_dropped);
        };
        w.hash_only(counters);
        w.write_seq(&self.inbox, |w, (at, msg)| {
            w.write_u64(at.as_nanos());
            msg.write_state(w);
        });
        w.snap_only(counters);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inbox = r.read_seq(|r| {
            let at = SimTime::from_nanos(r.read_u64()?);
            Ok((at, mafic_netsim::read_control_msg(r)?))
        })?;
        self.received_total = r.read_u64()?;
        self.forged_dropped = r.read_u64()?;
        Ok(())
    }
}

impl Agent for ControlChannel {
    fn on_start(&mut self, _ctx: &mut AgentCtx<'_>) {}

    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
        if let PacketKind::Pushback(msg) = packet.kind {
            if msg.requester.addr() != packet.key.src {
                self.forged_dropped += 1;
                return;
            }
            self.inbox.push((ctx.now(), msg));
            self.received_total += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, state_hash, AgentHarness};
    use mafic_netsim::{Addr, ControlVerb, FlowKey, Provenance, RequesterId};

    const CTRL_SRC: Addr = Addr::new(0x0BFA_0001);

    fn envelope(nonce: u64, verb: ControlVerb) -> ControlMsg {
        ControlMsg::new(RequesterId::new(CTRL_SRC), nonce, verb)
    }

    fn drained(ch: &mut ControlChannel) -> Vec<(SimTime, ControlMsg)> {
        let mut out = Vec::new();
        ch.drain_into(&mut out);
        out
    }

    fn push_pkt(src: Addr, msg: ControlMsg) -> Packet {
        Packet {
            id: 1,
            key: FlowKey::new(src, Addr::new(2), 9, 9),
            kind: PacketKind::Pushback(msg),
            size_bytes: 64,
            created_at: SimTime::ZERO,
            provenance: Provenance::infrastructure(),
            hops: 0,
        }
    }

    #[test]
    fn queues_pushback_envelopes_in_arrival_order() {
        let mut h = AgentHarness::new();
        let mut ch = ControlChannel::new();
        let victim = Addr::new(42);
        let _ = h.deliver(
            &mut ch,
            push_pkt(
                CTRL_SRC,
                envelope(
                    1,
                    ControlVerb::Request {
                        victim,
                        aggregate_bps: 1_000_000,
                        budget: 2,
                    },
                ),
            ),
        );
        let _ = h.deliver(
            &mut ch,
            push_pkt(
                CTRL_SRC,
                envelope(2, ControlVerb::Refresh { victim, budget: 1 }),
            ),
        );
        let msgs = drained(&mut ch);
        assert_eq!(msgs.len(), 2);
        assert!(matches!(
            msgs[0].1.verb,
            ControlVerb::Request { budget: 2, .. }
        ));
        assert!(matches!(msgs[1].1.verb, ControlVerb::Refresh { .. }));
        assert!(drained(&mut ch).is_empty(), "drain empties the inbox");
        assert_eq!(ch.received_total, 2);
        assert_eq!(ch.forged_dropped(), 0);
    }

    #[test]
    fn drain_into_recycles_the_buffers() {
        let mut h = AgentHarness::new();
        let mut ch = ControlChannel::new();
        let victim = Addr::new(42);
        let _ = h.deliver(
            &mut ch,
            push_pkt(CTRL_SRC, envelope(1, ControlVerb::Withdraw { victim })),
        );
        let mut out = vec![(SimTime::ZERO, envelope(9, ControlVerb::Stop { victim }))];
        ch.drain_into(&mut out);
        assert_eq!(out.len(), 1, "stale contents cleared, envelope landed");
        assert!(matches!(out[0].1.verb, ControlVerb::Withdraw { .. }));
        // The inbox is empty again and keeps accepting.
        let _ = h.deliver(
            &mut ch,
            push_pkt(CTRL_SRC, envelope(2, ControlVerb::Stop { victim })),
        );
        ch.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1.verb, ControlVerb::Stop { .. }));
    }

    #[test]
    fn forged_requester_identities_are_dropped() {
        let mut h = AgentHarness::new();
        let mut ch = ControlChannel::new();
        // The envelope claims CTRL_SRC but arrives from another address.
        let forged = push_pkt(
            Addr::new(0x0CFA_0001),
            envelope(
                1,
                ControlVerb::Withdraw {
                    victim: Addr::new(42),
                },
            ),
        );
        let _ = h.deliver(&mut ch, forged);
        assert!(drained(&mut ch).is_empty());
        assert_eq!(ch.received_total, 0);
        assert_eq!(ch.forged_dropped(), 1);
    }

    #[test]
    fn non_pushback_packets_are_ignored() {
        let mut h = AgentHarness::new();
        let mut ch = ControlChannel::new();
        let mut p = push_pkt(
            CTRL_SRC,
            envelope(
                1,
                ControlVerb::Withdraw {
                    victim: Addr::new(1),
                },
            ),
        );
        p.kind = PacketKind::Udp;
        let _ = h.deliver(&mut ch, p);
        assert!(drained(&mut ch).is_empty());
        assert_eq!(ch.received_total, 0);
    }

    #[test]
    fn snapshot_round_trips_an_undrained_inbox() {
        let mut h = AgentHarness::new();
        let mut ch = ControlChannel::new();
        let victim = Addr::new(42);
        let _ = h.deliver(
            &mut ch,
            push_pkt(
                CTRL_SRC,
                envelope(
                    1,
                    ControlVerb::Request {
                        victim,
                        aggregate_bps: 1_000_000,
                        budget: 2,
                    },
                ),
            ),
        );
        let _ = h.deliver(
            &mut ch,
            push_pkt(CTRL_SRC, envelope(2, ControlVerb::Stop { victim })),
        );
        assert_state_law(&ch, ControlChannel::new);
        let bytes = state_bytes(&ch);
        let mut restored = ControlChannel::new();
        let mut r = SnapReader::new(&bytes);
        restored.read_state(&mut r).expect("restore succeeds");
        assert!(r.is_empty());
        assert_eq!(state_hash(&ch), state_hash(&restored));
        // Pinned layouts: a checkpoint leads with the inbox length, the
        // ledger hash with the lifetime counters.
        assert_eq!(bytes[..8], 2u64.to_le_bytes());
        let mut counters_first = mafic_obs::Fnv64::new();
        counters_first.write_u64(2);
        counters_first.write_u64(0);
        counters_first.write(&bytes[..bytes.len() - 16]);
        assert_eq!(state_hash(&ch), counters_first.finish());
        let msgs = drained(&mut restored);
        assert_eq!(msgs.len(), 2);
        assert!(matches!(msgs[0].1.verb, ControlVerb::Request { .. }));
        assert!(matches!(msgs[1].1.verb, ControlVerb::Stop { .. }));
    }

    #[test]
    fn snapshot_with_a_hostile_inbox_count_is_truncated_not_a_panic() {
        // Section checksums are recomputable, so the count is attacker
        // controlled: it must bound neither an allocation nor the run.
        let mut w = mafic_obs::SnapWriter::new();
        w.write_u64(u64::MAX >> 2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let err = ControlChannel::new()
            .read_state(&mut r)
            .expect_err("no envelope follows the count");
        assert!(matches!(err, SnapError::Truncated), "{err}");
    }
}
