//! Test harnesses for driving agents and filters outside a full simulator.
//!
//! Unit tests of transport agents and of the MAFIC filter need to call
//! `on_packet`/`on_timer` directly and observe the commands the component
//! issued. The command buffers are crate-private by design, so this module
//! offers small harnesses that execute a callback with a real context and
//! hand back the effects in a public form.
//!
//! Each harness owns a [`FlowInterner`], standing in for the simulator's
//! domain-wide interner: packets offered through a harness get their flow
//! id minted here, with the same stability guarantees as in a real run.
//!
//! The [`State`](mafic_obs::State) law harness ([`assert_state_law`],
//! with [`state_hash`] and [`state_bytes`]) is re-exported from
//! `mafic-obs`, where it lives so the two crates that cannot see this
//! one (`mafic-obs` itself and `mafic-adversary`) hold their own types
//! to it.

use crate::agent::{Agent, AgentCommand, AgentCtx};
use crate::event::FilterControl;
use crate::filter::{FilterAction, FilterCommand, FilterCtx, PacketEnv, PacketFilter, StatNote};
use crate::flows::{FlowId, FlowInterner};
use crate::ids::{AgentId, LinkId, NodeId};
use crate::packet::{FlowKey, Packet};
use crate::sim::Simulator;
use crate::time::{SimDuration, SimTime};

pub use mafic_obs::{assert_state_law, state_bytes, state_hash};

/// Each simulator-owned ledger component as `(label, hash)`, every one
/// walked and hashed alone and serially — the reference a probe's
/// batched hashes must equal.
#[must_use]
pub fn component_hashes(sim: &Simulator) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    sim.walk_components::<mafic_obs::HashWriter>(|label, walk| {
        let mut h = mafic_obs::HashWriter::new();
        walk(&mut h);
        out.push((label.to_string(), h.finish()));
    });
    out
}

/// Effects produced by one agent callback.
#[derive(Debug, Default)]
pub struct AgentEffects {
    /// Packets the agent sent.
    pub sent: Vec<Packet>,
    /// Timers the agent armed, as `(delay, token)` pairs.
    pub timers: Vec<(SimDuration, u64)>,
}

/// Drives a single [`Agent`] with a controllable clock.
#[derive(Debug)]
pub struct AgentHarness {
    /// The simulated "now" used for the next callback; tests may set it.
    pub now: SimTime,
    agent_id: AgentId,
    node: NodeId,
    next_packet_id: u64,
    interner: FlowInterner,
}

impl AgentHarness {
    /// Creates a harness with agent index 0 on node index 0.
    #[must_use]
    pub fn new() -> Self {
        AgentHarness {
            now: SimTime::ZERO,
            agent_id: AgentId::from_index(0),
            node: NodeId::from_index(0),
            next_packet_id: 0,
            interner: FlowInterner::new(),
        }
    }

    /// Advances the harness clock.
    pub fn advance(&mut self, by: SimDuration) {
        self.now += by;
    }

    /// Calls `on_start`.
    pub fn start(&mut self, agent: &mut dyn Agent) -> AgentEffects {
        self.drive(|a, ctx| a.on_start(ctx), agent, None)
    }

    /// Delivers a packet (its flow id is interned by the harness).
    pub fn deliver(&mut self, agent: &mut dyn Agent, packet: Packet) -> AgentEffects {
        let flow = self.interner.intern(packet.key);
        self.drive(move |a, ctx| a.on_packet(packet, ctx), agent, Some(flow))
    }

    /// Fires a timer with the given token.
    pub fn fire_timer(&mut self, agent: &mut dyn Agent, token: u64) -> AgentEffects {
        self.drive(move |a, ctx| a.on_timer(token, ctx), agent, None)
    }

    fn drive<F>(&mut self, f: F, agent: &mut dyn Agent, flow: Option<FlowId>) -> AgentEffects
    where
        F: FnOnce(&mut dyn Agent, &mut AgentCtx<'_>),
    {
        let mut commands = Vec::new();
        {
            let mut ctx = AgentCtx::new(
                self.now,
                self.agent_id,
                self.node,
                flow,
                &mut self.next_packet_id,
                &mut commands,
            );
            f(agent, &mut ctx);
        }
        let mut effects = AgentEffects::default();
        for cmd in commands {
            match cmd {
                AgentCommand::SendPacket(p) => effects.sent.push(p),
                AgentCommand::ScheduleTimer { delay, token } => {
                    effects.timers.push((delay, token));
                }
            }
        }
        effects
    }
}

impl Default for AgentHarness {
    fn default() -> Self {
        AgentHarness::new()
    }
}

/// Effects produced by one filter callback.
#[derive(Debug, Default)]
pub struct FilterEffects {
    /// The verdict, when the callback was `on_packet`.
    pub action: Option<FilterAction>,
    /// Packets the filter emitted (probes).
    pub emitted: Vec<Packet>,
    /// Flow timers armed on the wheel, as `(delay, flow, kind)` triples.
    pub flow_timers: Vec<(SimDuration, FlowId, u16)>,
    /// Statistics notes recorded, with the flow they referred to.
    pub notes: Vec<(StatNote, FlowKey)>,
}

/// Drives a single [`PacketFilter`] with a controllable clock.
#[derive(Debug)]
pub struct FilterHarness {
    /// The simulated "now" used for the next callback; tests may set it.
    pub now: SimTime,
    node: NodeId,
    next_packet_id: u64,
    interner: FlowInterner,
}

impl FilterHarness {
    /// Creates a harness on node index 0.
    #[must_use]
    pub fn new() -> Self {
        FilterHarness {
            now: SimTime::ZERO,
            node: NodeId::from_index(0),
            next_packet_id: 0,
            interner: FlowInterner::new(),
        }
    }

    /// Advances the harness clock.
    pub fn advance(&mut self, by: SimDuration) {
        self.now += by;
    }

    /// Interns a key with the harness's interner (stable across calls),
    /// for tests that need the id a packet will carry.
    pub fn intern(&mut self, key: FlowKey) -> FlowId {
        self.interner.intern(key)
    }

    /// Offers a packet with the given arrival environment; the flow id is
    /// interned by the harness.
    pub fn offer(
        &mut self,
        filter: &mut dyn PacketFilter,
        packet: &Packet,
        via_link: Option<LinkId>,
        dst_is_local: bool,
    ) -> FilterEffects {
        let env = PacketEnv {
            via_link,
            dst_is_local,
            flow: self.interner.intern(packet.key),
        };
        let mut commands = Vec::new();
        let action;
        {
            let mut ctx = FilterCtx::new(
                self.now,
                self.node,
                0,
                &mut self.next_packet_id,
                &mut commands,
            );
            action = filter.on_packet(packet, &env, &mut ctx);
        }
        let mut fx = Self::collect(commands);
        fx.action = Some(action);
        fx
    }

    /// Offers a packet that arrived on no particular link and is not
    /// locally bound (the common transit case).
    pub fn offer_transit(
        &mut self,
        filter: &mut dyn PacketFilter,
        packet: &Packet,
    ) -> FilterEffects {
        self.offer(filter, packet, None, false)
    }

    /// Fires a wheel flow timer.
    pub fn fire_flow_timer(
        &mut self,
        filter: &mut dyn PacketFilter,
        flow: FlowId,
        kind: u16,
    ) -> FilterEffects {
        let mut commands = Vec::new();
        {
            let mut ctx = FilterCtx::new(
                self.now,
                self.node,
                0,
                &mut self.next_packet_id,
                &mut commands,
            );
            filter.on_flow_timer(flow, kind, &mut ctx);
        }
        Self::collect(commands)
    }

    /// Delivers a control message.
    pub fn control(&mut self, filter: &mut dyn PacketFilter, msg: &FilterControl) -> FilterEffects {
        let mut commands = Vec::new();
        {
            let mut ctx = FilterCtx::new(
                self.now,
                self.node,
                0,
                &mut self.next_packet_id,
                &mut commands,
            );
            filter.on_control(msg, &mut ctx);
        }
        Self::collect(commands)
    }

    fn collect(commands: Vec<FilterCommand>) -> FilterEffects {
        let mut fx = FilterEffects::default();
        for cmd in commands {
            match cmd {
                FilterCommand::EmitPacket(p) => fx.emitted.push(p),
                FilterCommand::ScheduleFlowTimer {
                    delay, flow, kind, ..
                } => {
                    fx.flow_timers.push((delay, flow, kind));
                }
                FilterCommand::Note { note, flow } => fx.notes.push((note, flow)),
            }
        }
        fx
    }
}

impl Default for FilterHarness {
    fn default() -> Self {
        FilterHarness::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::CountingSink;
    use crate::filter::PassthroughFilter;
    use crate::ids::Addr;
    use crate::packet::{PacketKind, Provenance};

    fn pkt() -> Packet {
        Packet {
            id: 1,
            key: FlowKey::new(Addr::new(1), Addr::new(2), 1, 2),
            kind: PacketKind::Udp,
            size_bytes: 100,
            created_at: SimTime::ZERO,
            provenance: Provenance::infrastructure(),
            hops: 0,
        }
    }

    #[test]
    fn agent_harness_round_trip() {
        let mut h = AgentHarness::new();
        let mut sink = CountingSink::new();
        let fx = h.start(&mut sink);
        assert!(fx.sent.is_empty() && fx.timers.is_empty());
        h.advance(SimDuration::from_millis(5));
        let _ = h.deliver(&mut sink, pkt());
        assert_eq!(sink.delivered(), 1);
        assert_state_law(&sink, CountingSink::new);
    }

    #[test]
    fn filter_harness_captures_action() {
        let mut h = FilterHarness::new();
        let mut f = PassthroughFilter::new();
        let fx = h.offer_transit(&mut f, &pkt());
        assert_eq!(fx.action, Some(FilterAction::Forward));
        assert_eq!(f.seen(), 1);
        assert_state_law(&f, PassthroughFilter::new);
    }

    #[test]
    fn harness_interner_ids_are_stable() {
        let mut h = FilterHarness::new();
        let id = h.intern(pkt().key);
        let again = h.intern(pkt().key);
        assert_eq!(id, again);
    }
}
