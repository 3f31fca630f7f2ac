//! Packet filters — the router-resident hook MAFIC attaches to.
//!
//! A filter sees every packet that arrives at its node (before routing or
//! local delivery) and returns a [`FilterAction`]. It may also emit new
//! packets (MAFIC's duplicate-ACK probes), schedule timers (the 2×RTT
//! decision deadline), and record statistics notes — all through a
//! command buffer ([`FilterCtx`]) that the simulator executes after the
//! filter returns, so filters never need a reference into the simulator.

use crate::event::FilterControl;
use crate::flows::FlowId;
use crate::ids::{LinkId, NodeId};
use crate::packet::{DropReason, FlowKey, Packet, PacketKind, Provenance};
use crate::time::{SimDuration, SimTime};
use mafic_obs::{DynState, SnapError, SnapReader, State, StateWrite};
use std::any::Any;

/// Verdict on a single packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterAction {
    /// Let the packet continue (next filter, then routing/delivery).
    Forward,
    /// Discard the packet, recording the given reason.
    Drop(DropReason),
}

/// Where a packet arrived from, and whether its destination is attached to
/// this node — context a filter may condition on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketEnv {
    /// The link the packet arrived on; `None` if injected locally (by an
    /// agent or filter on this node).
    pub via_link: Option<LinkId>,
    /// True if the destination address is bound to an agent on this node.
    pub dst_is_local: bool,
    /// The packet's interned flow handle, minted once at node arrival so
    /// every filter in the chain indexes its tables without re-hashing
    /// the 4-tuple.
    pub flow: FlowId,
}

/// Statistics note a filter can attach to the global collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatNote {
    /// A defense-active filter examined a victim-bound packet ("arrived at
    /// the ATR" in the paper's accounting).
    AtrSeen,
    /// A probe burst was sent toward a flow source.
    ProbeSent,
    /// A flow was moved to the Nice Flow Table.
    FlowDeclaredNice,
    /// A flow was moved to the Permanently Drop Table.
    FlowDeclaredMalicious,
}

/// Commands a filter queues for the simulator to execute.
#[derive(Debug)]
pub(crate) enum FilterCommand {
    EmitPacket(Packet),
    ScheduleFlowTimer {
        filter_index: usize,
        delay: SimDuration,
        flow: FlowId,
        kind: u16,
    },
    Note {
        note: StatNote,
        flow: FlowKey,
    },
}

/// Execution context handed to filter callbacks.
///
/// All effects are buffered and applied by the simulator after the
/// callback returns, in order.
#[derive(Debug)]
pub struct FilterCtx<'a> {
    now: SimTime,
    node: NodeId,
    filter_index: usize,
    next_packet_id: &'a mut u64,
    commands: &'a mut Vec<FilterCommand>,
}

impl<'a> FilterCtx<'a> {
    pub(crate) fn new(
        now: SimTime,
        node: NodeId,
        filter_index: usize,
        next_packet_id: &'a mut u64,
        commands: &'a mut Vec<FilterCommand>,
    ) -> Self {
        FilterCtx {
            now,
            node,
            filter_index,
            next_packet_id,
            commands,
        }
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this filter is installed on.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Emits a packet of `kind` on flow `key` from this node (MAFIC's
    /// probes). The simulator stamps its header: the next domain-unique
    /// id, `now`, infrastructure [`Provenance`] and hop 0. It is routed
    /// like any transit packet but does *not* re-enter this node's
    /// filter chain.
    pub fn emit(&mut self, key: FlowKey, kind: PacketKind, size: u32) {
        let provenance = Provenance::infrastructure();
        let packet = Packet::stamp(self.next_packet_id, key, kind, size, self.now, provenance);
        self.commands.push(FilterCommand::EmitPacket(packet));
    }

    /// Schedules `on_flow_timer(flow, kind)` on this filter after `delay`.
    ///
    /// Flow timers carry the interned [`FlowId`] directly and are managed
    /// by the simulator's hierarchical timer wheel: O(1) to arm, fired in
    /// `(deadline, arming order)` — no token maps needed on either side.
    /// There is no cancellation; a filter must treat a stale fire (flow
    /// already classified, tables flushed) as a no-op.
    pub fn schedule_flow_timer(&mut self, delay: SimDuration, flow: FlowId, kind: u16) {
        self.commands.push(FilterCommand::ScheduleFlowTimer {
            filter_index: self.filter_index,
            delay,
            flow,
            kind,
        });
    }

    /// Records a statistics note about `flow` against the global
    /// collector.
    pub fn note(&mut self, note: StatNote, flow: FlowKey) {
        self.commands.push(FilterCommand::Note { note, flow });
    }
}

/// A router-resident packet filter.
///
/// Implementations include the MAFIC adaptive dropper, the proportional
/// baseline dropper, and the LogLog traffic taps. Filters on a node form
/// an ordered chain; the first `Drop` verdict wins.
///
/// `Any` is a supertrait so harnesses can downcast a chain slot to its
/// concrete type ([`crate::Simulator::filter`]).
///
/// [`DynState`] is a supertrait: a filter describes its run state once,
/// as a [`State`] impl, and the blanket impl over `State` supplies the
/// ledger-hash and checkpoint hooks the simulator calls through
/// `dyn PacketFilter` — there is nothing to forward and no way to be
/// checkpointed without also being hashable. A new filter is
/// `on_packet` plus one `State` impl.
pub trait PacketFilter: Any + DynState {
    /// Called for every packet arriving at the node.
    fn on_packet(
        &mut self,
        packet: &Packet,
        env: &PacketEnv,
        ctx: &mut FilterCtx<'_>,
    ) -> FilterAction;

    /// Called when a flow timer scheduled via
    /// [`FilterCtx::schedule_flow_timer`] fires. Fires may be stale
    /// (the flow was classified or the tables flushed since arming);
    /// implementations must re-check their own state.
    fn on_flow_timer(&mut self, _flow: FlowId, _kind: u16, _ctx: &mut FilterCtx<'_>) {}

    /// Called when a control-plane message reaches this node.
    fn on_control(&mut self, _msg: &FilterControl, _ctx: &mut FilterCtx<'_>) {}
}

/// A filter that forwards everything; useful as a placeholder and in tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassthroughFilter {
    seen: u64,
}

impl PassthroughFilter {
    /// Creates a passthrough filter.
    #[must_use]
    pub fn new() -> Self {
        PassthroughFilter { seen: 0 }
    }

    /// Number of packets observed.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl PacketFilter for PassthroughFilter {
    fn on_packet(
        &mut self,
        _packet: &Packet,
        _env: &PacketEnv,
        _ctx: &mut FilterCtx<'_>,
    ) -> FilterAction {
        self.seen += 1;
        FilterAction::Forward
    }
}

impl State for PassthroughFilter {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_u64(self.seen);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.seen = r.read_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Addr, AgentId};

    fn pkt() -> Packet {
        Packet {
            id: 7,
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
    fn ctx_buffers_commands_in_order() {
        let mut next_id = 100u64;
        let mut commands = Vec::new();
        let now = SimTime::from_secs_f64(2.0);
        let mut ctx = FilterCtx::new(now, NodeId(0), 0, &mut next_id, &mut commands);
        let probe = PacketKind::ProbeDupAck { count: 3 };
        ctx.emit(pkt().key, probe, 40);
        ctx.schedule_flow_timer(SimDuration::from_millis(1), FlowId::from_index(3), 42);
        ctx.note(StatNote::ProbeSent, pkt().key);
        ctx.emit(pkt().key.reversed(), probe, 40);
        assert_eq!(commands.len(), 4);
        assert!(matches!(
            commands[1],
            FilterCommand::ScheduleFlowTimer { kind: 42, .. }
        ));
        assert!(matches!(
            commands[2],
            FilterCommand::Note {
                note: StatNote::ProbeSent,
                flow,
            } if flow == pkt().key
        ));
        // Each emit stamps the next id, `now`, infrastructure provenance
        // and hop 0.
        for (cmd, id) in [(&commands[0], 100), (&commands[3], 101)] {
            let FilterCommand::EmitPacket(packet) = cmd else {
                panic!("expected an emit")
            };
            assert_eq!(packet.id, id);
            assert_eq!(packet.created_at, now);
            assert_eq!(packet.provenance, Provenance::infrastructure());
            assert_eq!((packet.kind, packet.size_bytes), (probe, 40));
            assert_eq!(packet.hops, 0);
        }
        assert_eq!(next_id, 102);
    }

    #[test]
    fn passthrough_counts_and_forwards() {
        let mut f = PassthroughFilter::new();
        let mut next_id = 0u64;
        let mut commands = Vec::new();
        let mut ctx = FilterCtx::new(SimTime::ZERO, NodeId(0), 0, &mut next_id, &mut commands);
        let env = PacketEnv {
            via_link: None,
            dst_is_local: false,
            flow: FlowId::from_index(0),
        };
        assert_eq!(f.on_packet(&pkt(), &env, &mut ctx), FilterAction::Forward);
        assert_eq!(f.on_packet(&pkt(), &env, &mut ctx), FilterAction::Forward);
        assert_eq!(f.seen(), 2);
    }

    #[test]
    fn downcasting_works() {
        let mut f: Box<dyn PacketFilter> = Box::new(PassthroughFilter::new());
        assert!((&*f as &dyn Any).is::<PassthroughFilter>());
        assert!((&mut *f as &mut dyn Any)
            .downcast_mut::<PassthroughFilter>()
            .is_some());
    }
}
