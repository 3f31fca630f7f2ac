//! Traffic agents — the end-host endpoints attached to nodes.
//!
//! Agents are event-driven: the simulator calls [`Agent::on_start`] once,
//! [`Agent::on_packet`] for every packet delivered to a local address, and
//! [`Agent::on_timer`] for each timer the agent scheduled. Effects are
//! buffered through [`AgentCtx`] (same command-buffer pattern as the
//! filters), which keeps agent implementations free of simulator borrows.

use crate::flows::FlowId;
use crate::ids::{AgentId, NodeId};
use crate::packet::{FlowKey, Packet, PacketKind, Provenance};
use crate::time::{SimDuration, SimTime};
use mafic_obs::{DynState, SnapError, SnapReader, State, StateWrite};
use std::any::Any;

/// Commands an agent queues for the simulator.
#[derive(Debug)]
pub(crate) enum AgentCommand {
    SendPacket(Packet),
    ScheduleTimer { delay: SimDuration, token: u64 },
}

/// Execution context for agent callbacks.
#[derive(Debug)]
pub struct AgentCtx<'a> {
    now: SimTime,
    agent: AgentId,
    node: NodeId,
    /// The delivered packet's interned flow handle (`None` outside
    /// `on_packet`).
    flow: Option<FlowId>,
    next_packet_id: &'a mut u64,
    commands: &'a mut Vec<AgentCommand>,
}

impl<'a> AgentCtx<'a> {
    pub(crate) fn new(
        now: SimTime,
        agent: AgentId,
        node: NodeId,
        flow: Option<FlowId>,
        next_packet_id: &'a mut u64,
        commands: &'a mut Vec<AgentCommand>,
    ) -> Self {
        AgentCtx {
            now,
            agent,
            node,
            flow,
            next_packet_id,
            commands,
        }
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node the agent is attached to.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The interned flow handle of the packet being delivered, when the
    /// callback is [`Agent::on_packet`]. Lets per-flow sinks index dense
    /// state instead of hashing the 4-tuple.
    #[must_use]
    pub fn packet_flow(&self) -> Option<FlowId> {
        self.flow
    }

    /// Sends a packet of `kind` on flow `key` into the network from the
    /// agent's node. The simulator stamps its header: the next
    /// domain-unique id, `now` as its creation time, this agent as its
    /// origin, and hop 0; `is_attack` is the flow's ground truth.
    ///
    /// The packet enters the node's normal forwarding path (it will be
    /// routed toward `key.dst`); it does not traverse the node's own
    /// filter chain, matching a host stack injecting onto its access link.
    pub fn send(&mut self, key: FlowKey, kind: PacketKind, size: u32, is_attack: bool) {
        let provenance = Provenance {
            origin: self.agent,
            is_attack,
        };
        let packet = Packet::stamp(self.next_packet_id, key, kind, size, self.now, provenance);
        self.commands.push(AgentCommand::SendPacket(packet));
    }

    /// Schedules `on_timer(token)` after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, token: u64) {
        self.commands
            .push(AgentCommand::ScheduleTimer { delay, token });
    }
}

/// An end-host traffic endpoint (TCP sender, sink, CBR zombie, …).
///
/// `Any` is a supertrait so harnesses can downcast an agent to its
/// concrete type ([`crate::Simulator::agent`]). [`DynState`] is one so
/// the simulator can checkpoint a boxed agent: an agent describes its
/// run state once, as a [`State`] impl (RNG internals included — a
/// restored run continues the stream mid-way instead of replaying it
/// from the seed), and the blanket impl supplies the hooks.
pub trait Agent: Any + DynState {
    /// Called once at the agent's configured start time.
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>);

    /// Called when a packet is delivered to an address bound to this agent.
    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>);

    /// Called when a timer scheduled via [`AgentCtx::schedule_in`] fires.
    fn on_timer(&mut self, _token: u64, _ctx: &mut AgentCtx<'_>) {}
}

/// An agent that counts deliveries and otherwise does nothing.
///
/// Useful as a traffic sink in tests and as the victim's blackhole
/// endpoint when only arrival accounting matters.
#[derive(Debug, Default)]
pub struct CountingSink {
    delivered: u64,
    delivered_bytes: u64,
    last_delivery: Option<SimTime>,
}

impl CountingSink {
    /// Creates a sink with zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Packets delivered so far.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

impl Agent for CountingSink {
    fn on_start(&mut self, _ctx: &mut AgentCtx<'_>) {}

    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
        self.delivered += 1;
        self.delivered_bytes += u64::from(packet.size_bytes);
        self.last_delivery = Some(ctx.now());
    }
}

impl State for CountingSink {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_u64(self.delivered);
        w.write_u64(self.delivered_bytes);
        w.write_opt(self.last_delivery, |w, at| w.write_u64(at.as_nanos()));
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.delivered = r.read_u64()?;
        self.delivered_bytes = r.read_u64()?;
        self.last_delivery =
            r.read_opt("last-delivery", |r| r.read_u64().map(SimTime::from_nanos))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Addr;

    fn pkt(size: u32) -> Packet {
        Packet {
            id: 1,
            key: FlowKey::new(Addr::new(1), Addr::new(2), 1, 2),
            kind: PacketKind::Udp,
            size_bytes: size,
            created_at: SimTime::ZERO,
            provenance: Provenance {
                origin: AgentId(0),
                is_attack: false,
            },
            hops: 0,
        }
    }

    #[test]
    fn ctx_allocates_monotonic_ids_and_buffers() {
        let mut next = 5u64;
        let mut cmds = Vec::new();
        let now = SimTime::from_secs_f64(0.5);
        let mut ctx = AgentCtx::new(now, AgentId(1), NodeId(2), None, &mut next, &mut cmds);
        assert_eq!(ctx.node(), NodeId(2));
        let key = pkt(0).key;
        ctx.send(key, PacketKind::Udp, 10, true);
        ctx.schedule_in(SimDuration::from_millis(3), 9);
        ctx.send(key.reversed(), PacketKind::Udp, 40, false);
        assert_eq!(cmds.len(), 3);
        assert!(matches!(
            cmds[1],
            AgentCommand::ScheduleTimer { token: 9, .. }
        ));
        // Each send stamps the next id, `now`, this agent and hop 0.
        let sent: Vec<&Packet> = cmds
            .iter()
            .filter_map(|cmd| match cmd {
                AgentCommand::SendPacket(p) => Some(p),
                AgentCommand::ScheduleTimer { .. } => None,
            })
            .collect();
        for (packet, (id, is_attack)) in sent.iter().zip([(5, true), (6, false)]) {
            assert_eq!(packet.id, id);
            assert_eq!(packet.created_at, now);
            assert_eq!(packet.provenance.origin, AgentId(1));
            assert_eq!(packet.provenance.is_attack, is_attack);
            assert_eq!(packet.hops, 0);
        }
        assert_eq!((sent[0].key, sent[0].size_bytes), (key, 10));
        assert_eq!(sent[1].key, key.reversed());
        assert_eq!(next, 7);
    }

    #[test]
    fn counting_sink_accumulates() {
        let mut s = CountingSink::new();
        let mut next = 0u64;
        let mut cmds = Vec::new();
        let t = SimTime::from_secs_f64(1.0);
        let mut ctx = AgentCtx::new(t, AgentId(0), NodeId(0), None, &mut next, &mut cmds);
        s.on_packet(pkt(100), &mut ctx);
        s.on_packet(pkt(200), &mut ctx);
        assert_eq!(s.delivered(), 2);
        assert_eq!(s.delivered_bytes, 300);
        assert_eq!(s.last_delivery, Some(t));
    }
}
