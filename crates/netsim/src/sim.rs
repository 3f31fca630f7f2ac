//! The simulator: arenas, event loop, and dispatch.
//!
//! Single-threaded and deterministic: identical builder calls plus an
//! identical seed replay the exact same event sequence. All mutation
//! funnels through the event loop; agents and filters communicate with
//! the simulator exclusively through buffered commands.

use crate::agent::{Agent, AgentCommand, AgentCtx};
use crate::arena::{FlowCache, PacketArena, PacketRef};
use crate::event::{EventKind, FilterControl, Scheduler};
use crate::filter::{FilterAction, FilterCommand, FilterCtx, PacketEnv, PacketFilter, StatNote};
use crate::flows::{read_flow_id, FlowId, FlowInterner};
use crate::ids::{Addr, AgentId, LinkId, NodeId};
use crate::link::{EnqueueOutcome, Link, LinkSpec};
use crate::node::Node;
use crate::packet::{DropReason, FlowKey, Packet, Provenance};
use crate::stats::StatsCollector;
use crate::time::SimTime;
use crate::trace::{TraceBuffer, TraceEvent};
use crate::wheel::TimerWheel;
use mafic_obs::{SnapError, SnapReader, State as _, StateWrite};
use std::any::Any;

/// Payload of one armed flow timer: where to deliver the fire.
#[derive(Debug, Clone, Copy)]
struct FlowTimerFire {
    node: NodeId,
    filter_index: usize,
    flow: FlowId,
    kind: u16,
}

/// Summary of one simulation run (event-loop accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Events processed by the loop.
    pub events_processed: u64,
    /// Events ever scheduled.
    pub events_scheduled: u64,
    /// Final simulation time reached.
    pub ended_at_nanos: u64,
}

/// The discrete-event network simulator.
///
/// # Example
///
/// ```
/// use mafic_netsim::*;
///
/// let mut sim = Simulator::new(7);
/// let a = sim.add_node("a");
/// let b = sim.add_node("b");
/// let (ab, _ba) = sim.add_duplex_link(a, b, LinkSpec::default());
/// let dst = Addr::from_octets(10, 0, 0, 2);
/// sim.add_route(a, dst, ab);
/// let sink = sim.add_agent(b, Box::new(CountingSink::new()), SimTime::ZERO);
/// sim.bind_local_addr(b, dst, sink);
/// // Inject one packet at node a destined to the sink.
/// let key = FlowKey::new(Addr::from_octets(10, 0, 0, 1), dst, 9, 80);
/// sim.inject_packet(a, key, PacketKind::Udp, 500, false, SimTime::ZERO);
/// sim.run_until(SimTime::from_secs_f64(1.0));
/// let sink = sim.agent::<CountingSink>(sink).unwrap();
/// assert_eq!(sink.delivered(), 1);
/// ```
pub struct Simulator {
    nodes: Vec<Node>,
    /// The destination directory: which node each routable address is
    /// attached to, sorted by address. Nodes routed by attachment point
    /// ([`Simulator::set_uplink`]) answer from it; routers never read it.
    directory: Vec<(Addr, NodeId)>,
    links: Vec<Link>,
    agents: Vec<Option<Box<dyn Agent>>>,
    agent_home: Vec<NodeId>,
    /// Per-agent memo of the last sent flow's `(key, stats id)`. Senders
    /// emit one flow each, so this skips the interner hash on nearly
    /// every send; a hit always equals what the interner would answer
    /// (interning an already-known key is a pure lookup, so skipping it
    /// cannot change mint order).
    agent_send_memo: Vec<Option<(FlowKey, FlowId)>>,
    scheduler: Scheduler,
    /// Hierarchical timer wheel carrying filter flow-timers.
    wheel: TimerWheel<FlowTimerFire>,
    /// The domain-wide flow interner. A flow's id is minted at its first
    /// packet's first node arrival and rides along in [`PacketEnv`] /
    /// [`AgentCtx`]; later packets of the flow read it from `flow_cache`.
    flows: FlowInterner,
    /// Per stats flow: its simulator flow id and destination directory
    /// slot (a pure cache; see [`FlowCache`]).
    flow_cache: FlowCache,
    /// In-flight packet storage: events, link queues, and delivery FIFOs
    /// hold 4-byte [`PacketRef`] handles into this slab.
    arena: PacketArena,
    now: SimTime,
    next_packet_id: u64,
    events_processed: u64,
    stats: StatsCollector,
    trace: Option<TraceBuffer>,
    seed: u64,
    /// Recycled command scratch buffers (a stack, not a single buffer:
    /// agent loopback deliveries re-enter dispatch and need a fresh one).
    filter_bufs: Vec<Vec<FilterCommand>>,
    agent_bufs: Vec<Vec<AgentCommand>>,
    /// Recycled buffer the wheel pops expired flow timers into (one
    /// suffices: timer handlers arm timers but never pop them).
    fire_buf: Vec<FlowTimerFire>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("agents", &self.agents.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

/// Reads a count that must equal `have`, the length this simulator
/// was rebuilt with: a checkpoint overlays state onto a structure, it
/// never resizes one.
fn same_count(
    r: &mut SnapReader<'_>,
    section: &str,
    what: impl std::fmt::Display,
    have: usize,
) -> Result<(), SnapError> {
    let n = r.read_usize()?;
    if n == have {
        return Ok(());
    }
    Err(SnapError::Malformed(format!(
        "{section}: snapshot has {n} {what}, simulator has {have}"
    )))
}

impl Simulator {
    /// Creates an empty simulator.
    ///
    /// The seed is recorded for reporting; deterministic components (TCP
    /// agents, droppers) each derive their own RNG from seeds handed out
    /// by the workload layer, so the simulator itself stays RNG-free.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            directory: Vec::new(),
            links: Vec::new(),
            agents: Vec::new(),
            agent_home: Vec::new(),
            agent_send_memo: Vec::new(),
            scheduler: Scheduler::new(),
            wheel: TimerWheel::new(),
            flows: FlowInterner::new(),
            flow_cache: FlowCache::default(),
            arena: PacketArena::new(),
            now: SimTime::ZERO,
            next_packet_id: 0,
            events_processed: 0,
            stats: StatsCollector::new(),
            trace: None,
            seed,
            filter_bufs: Vec::new(),
            agent_bufs: Vec::new(),
            fire_buf: Vec::new(),
        }
    }

    /// Enables the bounded event trace (drops, deliveries, control).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceBuffer::new(capacity));
    }

    /// The event trace, if enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    fn trace_record(&mut self, event: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.record(event);
        }
    }

    /// The seed this simulator was created with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The statistics collector (read side).
    #[must_use]
    pub fn stats(&self) -> &StatsCollector {
        &self.stats
    }

    /// The statistics collector (write side: victim watches, flow
    /// declarations).
    pub fn stats_mut(&mut self) -> &mut StatsCollector {
        &mut self.stats
    }

    /// The domain-wide flow interner (read side: id ↔ key resolution).
    #[must_use]
    pub fn flow_interner(&self) -> &FlowInterner {
        &self.flows
    }

    /// Peak number of packets simultaneously resident in the in-flight
    /// packet storage over the simulator's lifetime (observability only).
    #[must_use]
    pub fn packet_arena_peak(&self) -> usize {
        self.arena.peak()
    }

    /// Packets currently resident in the in-flight packet storage.
    #[must_use]
    pub fn packet_arena_live(&self) -> usize {
        self.arena.live()
    }

    /// Walks the six simulator-owned components the run ledger hashes,
    /// handing `emit` each label with its state walk: the core loop
    /// counters, the event heap, the timer wheel (with its
    /// `FlowTimerFire` payloads), the packet arena, every link's
    /// queues, and the stats collector. One list serves both
    /// [`Simulator::probe_components`] and [`Simulator::snap_save_into`].
    pub(crate) fn walk_components<W: StateWrite>(
        &self,
        mut emit: impl FnMut(&str, &dyn Fn(&mut W)),
    ) {
        emit("netsim/core", &|w| {
            w.write_u64(self.now.as_nanos());
            w.write_u64(self.seed);
            w.write_u64(self.next_packet_id);
            w.write_u64(self.events_processed);
            // A checkpoint carries the interner itself (`netsim/flows`).
            w.hash_only(|h| h.write_usize(self.flows.len()));
        });
        emit("netsim/scheduler", &|w| self.scheduler.write_state(w));
        emit("netsim/wheel", &|w| {
            self.wheel.write_state(w, |fire, w| {
                w.write_u32(fire.node.0);
                w.write_usize(fire.filter_index);
                w.write_usize(fire.flow.index());
                w.write_u16(fire.kind);
            });
        });
        emit("netsim/arena", &|w| self.arena.write_state(w));
        emit("netsim/links", &|w| {
            w.write_seq(&self.links, |w, link| link.write_state(w));
            // One byte per link, always `false`: the retired
            // administrative link-down flag, kept so the ledger and
            // snapshot bytes stay as pinned.
            for _ in &self.links {
                w.write_bool(false);
            }
        });
        emit("netsim/stats", &|w| self.stats.write_state(w));
    }

    /// Walks every simulator-owned component into `batch`, one label
    /// each — the netsim half of the run ledger, hashed with whatever
    /// else the caller's batch holds.
    ///
    /// Filters and agents are *not* walked here: the layers that place
    /// them (workload, pushback) probe them under their own labels.
    pub fn probe_components(&self, batch: &mut mafic_obs::ProbeBatch<'_>) {
        self.walk_components(|label, walk| batch.component(label, walk));
    }

    /// [`Simulator::probe_components`] in a batch of its own: `probe`
    /// gains the six netsim hashes.
    pub fn hash_components(&self, probe: &mut mafic_obs::IntervalProbe) {
        probe.batch(|batch| self.probe_components(batch));
    }

    /// Serializes every simulator-owned component into `snapshot`, one
    /// labelled section each — the netsim half of a checkpoint.
    ///
    /// Sections are the [`Simulator::probe_components`] components plus
    /// the pieces excluded from hashing but required to resume (the flow
    /// interner, the trace buffer, and the agent/filter payloads written
    /// through their trait hooks). Pure caches (send memos, the flow
    /// cache, per-node next-hop rows, link serialization memos, wheel
    /// expiry cache) are not saved; restore invalidates them or, for the
    /// next-hop rows, which depend on the topology alone, keeps them.
    pub fn snap_save_into(&self, snapshot: &mut mafic_obs::Snapshot) {
        self.walk_components(|label, walk| snapshot.write_section(label, walk));
        snapshot.write_section("netsim/flows", |w| self.flows.write_state(w));
        snapshot.write_section("netsim/trace", |w| {
            w.write_opt(self.trace.as_ref(), |w, trace| trace.write_state(w));
        });
        snapshot.write_section("netsim/agents", |w| {
            w.write_seq(&self.agents, |w, agent| {
                agent
                    .as_ref()
                    .expect("snapshot taken while an agent is dispatching")
                    .snap_save(w);
            });
        });
        snapshot.write_section("netsim/filters", |w| {
            w.write_seq(&self.nodes, |w, node| {
                w.write_seq(&node.filters, |w, filter| filter.snap_save(w));
            });
        });
    }

    /// Overlays all `netsim/*` sections of `snapshot` onto this
    /// simulator, which must have been built by the same deterministic
    /// construction sequence as the snapshotted one (same topology,
    /// agents, filters, watches, and trace configuration).
    ///
    /// # Errors
    ///
    /// [`SnapError::MissingSection`] when a `netsim/*` section is absent,
    /// and [`SnapError::Malformed`] when a section's structure does not
    /// match this simulator (wrong counts, trailing bytes) — both signs
    /// the snapshot came from a differently built scenario.
    pub fn snap_restore_from(&mut self, snapshot: &mafic_obs::Snapshot) -> Result<(), SnapError> {
        snapshot.read_section("netsim/core", |r| {
            self.now = SimTime::from_nanos(r.read_u64()?);
            self.seed = r.read_u64()?;
            self.next_packet_id = r.read_u64()?;
            self.events_processed = r.read_u64()?;
            Ok(())
        })?;
        snapshot.read_section("netsim/scheduler", |r| self.scheduler.read_state(r))?;
        snapshot.read_section("netsim/wheel", |r| {
            self.wheel.read_state(r, |r| {
                Ok(FlowTimerFire {
                    node: NodeId(r.read_u32()?),
                    filter_index: r.read_usize()?,
                    flow: read_flow_id(r)?,
                    kind: r.read_u16()?,
                })
            })
        })?;
        snapshot.read_section("netsim/arena", |r| self.arena.read_state(r))?;
        snapshot.read_section("netsim/links", |r| {
            same_count(r, "netsim/links", "links", self.links.len())?;
            for link in &mut self.links {
                link.read_state(r)?;
            }
            for index in 0..self.links.len() {
                let flag = r.read_u8()?;
                if flag != 0 {
                    return Err(SnapError::Malformed(format!(
                        "netsim/links: link {index} has down flag {flag}; links never go down"
                    )));
                }
            }
            Ok(())
        })?;
        snapshot.read_section("netsim/stats", |r| self.stats.read_state(r))?;
        snapshot.read_section("netsim/flows", |r| self.flows.read_state(r))?;
        snapshot.read_section("netsim/trace", |r| {
            let restore = |r: &mut SnapReader<'_>| match &mut self.trace {
                Some(trace) => trace.read_state(r),
                None => Ok(()),
            };
            let saved = r.read_opt("netsim/trace", restore)?.is_some();
            if saved == self.trace.is_some() {
                return Ok(());
            }
            Err(SnapError::Malformed(format!(
                "netsim/trace: snapshot traced={saved}, simulator traced={}",
                self.trace.is_some()
            )))
        })?;
        snapshot.read_section("netsim/agents", |r| {
            same_count(r, "netsim/agents", "agents", self.agents.len())?;
            for agent in &mut self.agents {
                agent
                    .as_mut()
                    .expect("restore entered while an agent is dispatching")
                    .snap_restore(r)?;
            }
            Ok(())
        })?;
        snapshot.read_section("netsim/filters", |r| {
            same_count(r, "netsim/filters", "nodes", self.nodes.len())?;
            for node in &mut self.nodes {
                let what = format_args!("filters on {}", node.name);
                same_count(r, "netsim/filters", what, node.filters.len())?;
                for filter in &mut node.filters {
                    filter.snap_restore(r)?;
                }
            }
            Ok(())
        })?;

        // Invalidate pure caches; each repopulates on first use with
        // values identical to what the snapshotted run held.
        for memo in &mut self.agent_send_memo {
            *memo = None;
        }
        self.flow_cache = FlowCache::default();
        Ok(())
    }

    /// Renders the last `n` trace events (oldest-first) as display
    /// strings, or an empty vec when tracing is disabled.
    pub fn trace_tail(&self, n: usize) -> Vec<String> {
        let Some(trace) = self.trace.as_ref() else {
            return Vec::new();
        };
        let skip = trace.len().saturating_sub(n);
        trace.iter().skip(skip).map(|ev| ev.to_string()).collect()
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node count fits u32"));
        self.nodes.push(Node::new(id, name.into()));
        id
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Adds a simplex link `from → to`.
    pub(crate) fn add_link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) -> LinkId {
        let id = LinkId(u32::try_from(self.links.len()).expect("link count fits u32"));
        self.links.push(Link::new(from, to, spec));
        id
    }

    /// Adds a duplex link as two simplex links; returns `(from→to, to→from)`.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (LinkId, LinkId) {
        (self.add_link(a, b, spec), self.add_link(b, a, spec))
    }

    /// The endpoints `(from, to)` of a link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is not a valid id.
    #[must_use]
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        let l = &self.links[link.index()];
        (l.from, l.to)
    }

    /// Installs a host route on `node`: packets to `dst` leave via `via`.
    ///
    /// # Panics
    ///
    /// Panics if `via` does not originate at `node`.
    pub fn add_route(&mut self, node: NodeId, dst: Addr, via: LinkId) {
        assert_eq!(
            self.links[via.index()].from,
            node,
            "route via a link that does not start at {node}"
        );
        self.nodes[node.index()].add_route(dst, via);
        self.nodes[node.index()].reindex(&self.directory);
    }

    /// Installs a batch of host routes on `node`, as repeated
    /// [`Simulator::add_route`] calls would; a batch in strictly
    /// ascending address order into an empty table costs no search or
    /// shift per entry.
    ///
    /// # Panics
    ///
    /// Panics if any route's link does not originate at `node`.
    pub fn add_routes(&mut self, node: NodeId, routes: Vec<(Addr, LinkId)>) {
        for &(_, via) in &routes {
            assert_eq!(
                self.links[via.index()].from,
                node,
                "route via a link that does not start at {node}"
            );
        }
        self.nodes[node.index()].add_routes(routes);
        self.nodes[node.index()].reindex(&self.directory);
    }

    /// Routes `node` by attachment point: every address the destination
    /// directory ([`Simulator::extend_directory`]) attaches to *another*
    /// node leaves via `via`; unknown addresses and the node's own keep
    /// having no route. For a node with a single link this answers what
    /// a host route per destination would, in one stored entry.
    ///
    /// # Panics
    ///
    /// Panics if `via` does not originate at `node`.
    pub fn set_uplink(&mut self, node: NodeId, via: LinkId) {
        assert_eq!(
            self.links[via.index()].from,
            node,
            "uplink via a link that does not start at {node}"
        );
        self.nodes[node.index()].set_uplink(via);
        self.nodes[node.index()].reindex(&self.directory);
    }

    /// Records which node each address is attached to. An address
    /// already in the directory moves to its new node.
    pub fn extend_directory(&mut self, entries: &[(Addr, NodeId)]) {
        self.directory.extend_from_slice(entries);
        // Stable, so of two entries for one address the later survives.
        self.directory.sort_by_key(|&(addr, _)| addr);
        self.directory.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                *kept = *later;
            }
            same
        });
        for node in &mut self.nodes {
            node.reindex(&self.directory);
        }
        self.flow_cache.forget_slots();
    }

    /// The link `node` forwards a packet for the non-local address `dst`
    /// on, if it has a route.
    #[must_use]
    pub fn route(&self, node: NodeId, dst: Addr) -> Option<LinkId> {
        self.nodes[node.index()].lookup(dst, &self.directory)
    }

    /// Total stored route entries: every node's host routes and uplink
    /// plus the directory — what routing costs in memory.
    #[must_use]
    pub fn route_entries(&self) -> usize {
        let per_node: usize = self.nodes.iter().map(Node::route_entries).sum();
        per_node + self.directory.len()
    }

    /// Adds an agent on `node`, scheduling its `on_start` at `start_at`.
    pub fn add_agent(&mut self, node: NodeId, agent: Box<dyn Agent>, start_at: SimTime) -> AgentId {
        let id = AgentId(u32::try_from(self.agents.len()).expect("agent count fits u32"));
        self.agents.push(Some(agent));
        self.agent_home.push(node);
        self.agent_send_memo.push(None);
        self.scheduler
            .schedule(start_at, EventKind::AgentStart { agent: id });
        id
    }

    /// Binds `addr` on `node` to `agent` so deliveries reach it.
    pub fn bind_local_addr(&mut self, node: NodeId, addr: Addr, agent: AgentId) {
        self.nodes[node.index()].bind_local(addr, agent);
    }

    /// Appends a filter to `node`'s chain; returns its index.
    pub fn add_filter(&mut self, node: NodeId, filter: Box<dyn PacketFilter>) -> usize {
        let filters = &mut self.nodes[node.index()].filters;
        filters.push(filter);
        filters.len() - 1
    }

    /// Downcasts a filter on `node` for inspection.
    ///
    /// Returns `None` if the index is out of range or the concrete type
    /// does not match.
    #[must_use]
    pub fn filter<T: 'static>(&self, node: NodeId, index: usize) -> Option<&T> {
        (self.filter_dyn(node, index)? as &dyn Any).downcast_ref::<T>()
    }

    /// The filter at `index` on `node` behind its trait object — for
    /// callers that drive a hook ([`mafic_obs::DynState::hash_state`]) without
    /// knowing the concrete type.
    #[must_use]
    pub fn filter_dyn(&self, node: NodeId, index: usize) -> Option<&dyn PacketFilter> {
        Some(&**self.nodes[node.index()].filters.get(index)?)
    }

    /// Mutable variant of [`Simulator::filter`].
    pub fn filter_mut<T: 'static>(&mut self, node: NodeId, index: usize) -> Option<&mut T> {
        let filter: &mut dyn Any = &mut **self.nodes[node.index()].filters.get_mut(index)?;
        filter.downcast_mut::<T>()
    }

    /// Downcasts an agent for inspection.
    #[must_use]
    pub fn agent<T: 'static>(&self, agent: AgentId) -> Option<&T> {
        let agent: &dyn Any = &**self.agents[agent.index()].as_ref()?;
        agent.downcast_ref::<T>()
    }

    /// Mutable variant of [`Simulator::agent`].
    pub fn agent_mut<T: 'static>(&mut self, agent: AgentId) -> Option<&mut T> {
        let agent: &mut dyn Any = &mut **self.agents[agent.index()].as_mut()?;
        agent.downcast_mut::<T>()
    }

    /// Schedules a control message for delivery to `node` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn send_control(&mut self, node: NodeId, msg: FilterControl, at: SimTime) {
        assert!(at >= self.now, "control message scheduled in the past");
        self.scheduler
            .schedule(at, EventKind::Control { node, msg });
    }

    /// Injects a single packet at `node` at time `at` (test helper).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn inject_packet(
        &mut self,
        node: NodeId,
        key: crate::packet::FlowKey,
        kind: crate::packet::PacketKind,
        size: u32,
        is_attack: bool,
        at: SimTime,
    ) -> u64 {
        assert!(at >= self.now, "packet injected in the past");
        let provenance = Provenance {
            origin: AgentId(u32::MAX),
            is_attack,
        };
        let packet = Packet::stamp(&mut self.next_packet_id, key, kind, size, at, provenance);
        let id = packet.id;
        let sid = self.stats.flow_id(packet.key);
        self.stats.on_sent_id(sid, &packet);
        let packet = self.arena.alloc(packet, Some(sid));
        self.scheduler
            .schedule(at, EventKind::DeliverToNode { node, packet });
        id
    }

    // ------------------------------------------------------------------
    // Command scratch buffers
    // ------------------------------------------------------------------

    fn take_filter_buf(&mut self) -> Vec<FilterCommand> {
        self.filter_bufs.pop().unwrap_or_default()
    }

    fn put_filter_buf(&mut self, buf: Vec<FilterCommand>) {
        debug_assert!(buf.is_empty(), "filter buffer returned with commands");
        self.filter_bufs.push(buf);
    }

    fn take_agent_buf(&mut self) -> Vec<AgentCommand> {
        self.agent_bufs.pop().unwrap_or_default()
    }

    fn put_agent_buf(&mut self, buf: Vec<AgentCommand>) {
        debug_assert!(buf.is_empty(), "agent buffer returned with commands");
        self.agent_bufs.push(buf);
    }

    fn take_fire_buf(&mut self) -> Vec<FlowTimerFire> {
        std::mem::take(&mut self.fire_buf)
    }

    fn put_fire_buf(&mut self, buf: Vec<FlowTimerFire>) {
        debug_assert!(buf.is_empty(), "fire buffer returned with timers");
        self.fire_buf = buf;
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Runs until the event queue is empty or `deadline` is reached.
    /// Returns loop accounting.
    pub fn run_until(&mut self, deadline: SimTime) -> RunSummary {
        // Each iteration fires everything due at the earliest pending
        // instant: all due wheel flow-timers, or one heap event. At a
        // tie the wheel goes first (the `w <= h` comparison) — a timer
        // deadline belongs to the *start* of its instant.
        loop {
            let (now, from_wheel) = match (self.scheduler.peek_time(), self.wheel.next_expiry()) {
                (None, None) => break,
                (Some(h), None) => (h, false),
                (None, Some(w)) => (w, true),
                (Some(h), Some(w)) => {
                    if w <= h {
                        (w, true)
                    } else {
                        (h, false)
                    }
                }
            };
            if now > deadline {
                break;
            }
            self.now = now;
            if from_wheel {
                self.fire_flow_timers(now);
            } else {
                let (at, kind) = self.scheduler.pop().expect("peeked event exists");
                debug_assert!(at == now, "heap event not at the merged instant");
                self.events_processed += 1;
                self.dispatch(kind);
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        // Packet conservation: every packet an agent sent or a filter
        // emitted as a probe is delivered, dropped or still in flight.
        debug_assert_eq!(
            self.stats.total_sent + self.stats.probes_emitted,
            self.stats.total_delivered
                + self.stats.drop_totals().iter().sum::<u64>()
                + self.arena.live() as u64,
            "packet conservation broken at {:?}",
            self.now
        );
        RunSummary {
            events_processed: self.events_processed,
            events_scheduled: self.scheduler.scheduled_total() + self.wheel.scheduled_total(),
            ended_at_nanos: self.now.as_nanos(),
        }
    }

    /// Fires every flow timer due at `now`, in `(deadline, seq)` order.
    /// Kept out of line: inlined into `run_until`, the buffer handling
    /// measurably slowed the heap-event loop on forwarding-only runs.
    #[inline(never)]
    fn fire_flow_timers(&mut self, now: SimTime) {
        let mut fires = self.take_fire_buf();
        self.wheel.pop_expired(now, &mut fires);
        for fire in fires.drain(..) {
            self.events_processed += 1;
            self.filter_flow_timer(fire);
        }
        self.put_fire_buf(fires);
    }

    /// Number of pending events (diagnostics), armed flow timers included.
    #[cfg(test)]
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.scheduler.len() + self.wheel.len()
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::DeliverToNode { node, packet } => {
                self.node_receive(node, packet, None);
            }
            EventKind::LinkDeliver { link } => self.link_deliver(link),
            EventKind::AgentStart { agent } => {
                self.dispatch_agent(agent, None, |a, ctx| a.on_start(ctx));
            }
            EventKind::AgentWake { agent, token } => {
                self.dispatch_agent(agent, None, |a, ctx| a.on_timer(token, ctx));
            }
            EventKind::Control { node, msg } => self.control(node, msg),
        }
    }

    fn node_receive(&mut self, node_id: NodeId, pref: PacketRef, via: Option<LinkId>) {
        let (key, hop_exceeded) = {
            let packet = self.arena.get_mut(pref);
            packet.hops += 1;
            (packet.key, packet.hop_limit_exceeded())
        };
        if hop_exceeded {
            let sid = self.stats_id_of(pref);
            let packet = self.arena.take(pref);
            self.record_drop(&packet, sid, DropReason::HopLimit);
            return;
        }
        self.stats
            .on_node_arrival(self.arena.get(pref), node_id, self.now);
        // Run the filter chain. The flow id is set at the packet's first
        // node arrival, then cached in its arena slot; every filter
        // downstream indexes its tables by the dense id. Only the flow's
        // first packet interns: the rest read the stats flow's cache row.
        // A probe has no stats id yet, and minting one here would reorder
        // the collector's ids, so it interns.
        let dst_is_local = self.nodes[node_id.index()].is_local(key.dst);
        let flow = match self.arena.flow_id(pref) {
            Some(flow) => flow,
            None => {
                let flows = &mut self.flows;
                let flow = match self.arena.stats_id(pref) {
                    Some(sid) => self.flow_cache.flow(sid, || flows.intern(key)),
                    None => flows.intern(key),
                };
                self.arena.set_flow_id(pref, flow);
                flow
            }
        };
        let mut verdict = FilterAction::Forward;
        if !self.nodes[node_id.index()].filters.is_empty() {
            let env = PacketEnv {
                via_link: via,
                dst_is_local,
                flow,
            };
            let mut commands = self.take_filter_buf();
            {
                let now = self.now;
                let Simulator {
                    arena,
                    nodes,
                    next_packet_id,
                    ..
                } = self;
                let packet = arena.get(pref);
                let node = &mut nodes[node_id.index()];
                for (index, filter) in node.filters.iter_mut().enumerate() {
                    let mut ctx =
                        FilterCtx::new(now, node_id, index, next_packet_id, &mut commands);
                    match filter.on_packet(packet, &env, &mut ctx) {
                        FilterAction::Forward => {}
                        drop_action @ FilterAction::Drop(_) => {
                            verdict = drop_action;
                            break;
                        }
                    }
                }
            }
            self.run_filter_commands(node_id, Some(pref), &mut commands);
            self.put_filter_buf(commands);
        }
        match verdict {
            FilterAction::Drop(reason) => {
                let sid = self.stats_id_of(pref);
                let packet = self.arena.take(pref);
                self.record_drop(&packet, sid, reason);
            }
            FilterAction::Forward => {
                if dst_is_local {
                    self.deliver_local(node_id, pref, flow);
                } else {
                    self.forward(node_id, pref);
                }
            }
        }
    }

    /// Stats-collector id for the packet in `pref`: the id cached at
    /// allocation, or — for filter-emitted probes, whose key the stats
    /// layer has not seen yet — interned here, at the packet's first
    /// accounting touch (exactly where the key-based path minted it).
    fn stats_id_of(&mut self, pref: PacketRef) -> FlowId {
        match self.arena.stats_id(pref) {
            Some(id) => id,
            None => {
                let key = self.arena.get(pref).key;
                let id = self.stats.flow_id(key);
                self.arena.set_stats_id(pref, id);
                id
            }
        }
    }

    fn record_drop(&mut self, packet: &Packet, sid: FlowId, reason: DropReason) {
        self.stats.on_dropped_id(sid, packet, reason);
        let at = self.now;
        self.trace_record(TraceEvent::Drop {
            at,
            flow: packet.key,
            reason,
        });
    }

    /// Delivers the packet to the agent bound to its destination. `flow`
    /// is the id minted when the packet arrived (or, for loopback sends,
    /// by the caller) — deliveries never re-hash the 4-tuple.
    fn deliver_local(&mut self, node_id: NodeId, pref: PacketRef, flow: FlowId) {
        let dst = self.arena.get(pref).key.dst;
        let sid = self.stats_id_of(pref);
        let Some(agent_id) = self.nodes[node_id.index()].local_agent(dst) else {
            let packet = self.arena.take(pref);
            self.record_drop(&packet, sid, DropReason::NoRoute);
            return;
        };
        // The packet leaves the data path here: out of the arena, by
        // value to the agent.
        let packet = self.arena.take(pref);
        self.stats.on_delivered_id(sid, &packet, node_id, self.now);
        let at = self.now;
        self.trace_record(TraceEvent::Deliver {
            at,
            flow: packet.key,
            node: node_id,
        });
        self.dispatch_agent(agent_id, Some(flow), |a, ctx| a.on_packet(packet, ctx));
    }

    fn forward(&mut self, node_id: NodeId, pref: PacketRef) {
        let Some(link_id) = self.next_hop(node_id, pref) else {
            let sid = self.stats_id_of(pref);
            let packet = self.arena.take(pref);
            self.record_drop(&packet, sid, DropReason::NoRoute);
            return;
        };
        self.send_on_link(link_id, pref);
    }

    /// What [`Simulator::route`] answers for the packet in `pref` at
    /// `node_id`, by index on its flow's cached directory slot. A probe
    /// (no stats id yet) and an address outside the directory search.
    fn next_hop(&mut self, node_id: NodeId, pref: PacketRef) -> Option<LinkId> {
        let dst = self.arena.get(pref).key.dst;
        let node = &self.nodes[node_id.index()];
        let cache = &mut self.flow_cache;
        let slot = self
            .arena
            .stats_id(pref)
            .and_then(|sid| cache.dst_slot(sid, dst, &self.directory));
        match slot {
            Some(slot) => node.hop_at(slot, &self.directory),
            None => node.lookup(dst, &self.directory),
        }
    }

    fn send_on_link(&mut self, link_id: LinkId, pref: PacketRef) {
        let now = self.now;
        let size = self.arena.get(pref).size_bytes;
        match self.links[link_id.index()].enqueue(pref, size, now) {
            EnqueueOutcome::Accepted(due) => {
                // The whole traversal — serialization slot, queueing
                // delay, propagation — was resolved analytically inside
                // `enqueue`, so the only event a link hop costs is this
                // delivery at the far end.
                self.scheduler
                    .schedule(due, EventKind::LinkDeliver { link: link_id });
            }
            EnqueueOutcome::Dropped(p) => {
                let sid = self.stats_id_of(p);
                let packet = self.arena.take(p);
                self.record_drop(&packet, sid, DropReason::QueueFull);
            }
        }
    }

    /// Drains every delivery due at or before `now` from the link's
    /// FIFO in one pass — the batched arrival path.
    fn link_deliver(&mut self, link_id: LinkId) {
        let now = self.now;
        let to = self.links[link_id.index()].to;
        while let Some(pref) = self.links[link_id.index()].pop_due(now) {
            self.node_receive(to, pref, Some(link_id));
        }
    }

    /// Runs one agent callback against a context at the agent's home
    /// node, then executes the commands it queued. `flow` is the
    /// delivered packet's handle for `on_packet`, else `None`.
    fn dispatch_agent(
        &mut self,
        agent_id: AgentId,
        flow: Option<FlowId>,
        callback: impl FnOnce(&mut dyn Agent, &mut AgentCtx<'_>),
    ) {
        let mut commands = self.take_agent_buf();
        let mut agent = self.agents[agent_id.index()]
            .take()
            .expect("agent re-entered during its own dispatch");
        let node = self.agent_home[agent_id.index()];
        let mut ctx = AgentCtx::new(
            self.now,
            agent_id,
            node,
            flow,
            &mut self.next_packet_id,
            &mut commands,
        );
        callback(&mut *agent, &mut ctx);
        self.agents[agent_id.index()] = Some(agent);
        self.run_agent_commands(agent_id, &mut commands);
        self.put_agent_buf(commands);
    }

    fn filter_flow_timer(&mut self, fire: FlowTimerFire) {
        self.dispatch_filters(fire.node, Some(fire.filter_index), |filter, ctx| {
            filter.on_flow_timer(fire.flow, fire.kind, ctx);
        });
    }

    fn control(&mut self, node_id: NodeId, msg: FilterControl) {
        // Rendered only when a trace is on: the summary allocates.
        if let Some(trace) = self.trace.as_mut() {
            trace.record(TraceEvent::Control {
                at: self.now,
                node: node_id,
                summary: format!("{msg:?}"),
            });
        }
        self.dispatch_filters(node_id, None, |filter, ctx| filter.on_control(&msg, ctx));
    }

    /// Runs one filter callback per filter of the node's chain (`only`:
    /// just the filter at that index, if the chain has one), each with
    /// its own context, then executes the commands they queued. The
    /// per-packet chain in `node_receive` stays inline: it stops at the
    /// first drop.
    fn dispatch_filters(
        &mut self,
        node_id: NodeId,
        only: Option<usize>,
        mut callback: impl FnMut(&mut dyn PacketFilter, &mut FilterCtx<'_>),
    ) {
        let mut commands = self.take_filter_buf();
        let now = self.now;
        let (skip, take) = only.map_or((0, usize::MAX), |index| (index, 1));
        let filters = &mut self.nodes[node_id.index()].filters;
        for (index, filter) in filters.iter_mut().enumerate().skip(skip).take(take) {
            let mut ctx =
                FilterCtx::new(now, node_id, index, &mut self.next_packet_id, &mut commands);
            callback(filter.as_mut(), &mut ctx);
        }
        self.run_filter_commands(node_id, None, &mut commands);
        self.put_filter_buf(commands);
    }

    /// Executes queued filter commands in order. `in_hand` is the packet
    /// the chain was run on, if any: a note about its flow bumps the
    /// record at its stats id instead of searching the collector.
    fn run_filter_commands(
        &mut self,
        node_id: NodeId,
        in_hand: Option<PacketRef>,
        commands: &mut Vec<FilterCommand>,
    ) {
        for cmd in commands.drain(..) {
            match cmd {
                FilterCommand::EmitPacket(packet) => {
                    // Probes are routed from this node without re-filtering,
                    // mirroring a router-originated control packet. Their
                    // stats id stays unresolved until the first accounting
                    // touch so the collector's mint order is unchanged.
                    let pref = self.arena.alloc(packet, None);
                    self.forward(node_id, pref);
                }
                FilterCommand::ScheduleFlowTimer {
                    filter_index,
                    delay,
                    flow,
                    kind,
                } => {
                    self.wheel.insert(
                        self.now + delay,
                        FlowTimerFire {
                            node: node_id,
                            filter_index,
                            flow,
                            kind,
                        },
                    );
                }
                FilterCommand::Note { note, flow } => self.apply_note(note, flow, in_hand),
            }
        }
    }

    fn apply_note(&mut self, note: StatNote, flow: FlowKey, in_hand: Option<PacketRef>) {
        let sid = match in_hand.filter(|&pref| self.arena.get(pref).key == flow) {
            Some(pref) => self.stats_id_of(pref),
            None => self.stats.flow_id(flow),
        };
        match note {
            StatNote::AtrSeen => self.stats.on_atr_seen_id(sid),
            StatNote::ProbeSent => self.stats.on_probe_sent_id(sid),
            StatNote::FlowDeclaredNice => self.stats.on_flow_declared_id(sid, true),
            StatNote::FlowDeclaredMalicious => self.stats.on_flow_declared_id(sid, false),
        }
    }

    fn run_agent_commands(&mut self, agent_id: AgentId, commands: &mut Vec<AgentCommand>) {
        let node = self.agent_home[agent_id.index()];
        for cmd in commands.drain(..) {
            match cmd {
                AgentCommand::SendPacket(packet) => {
                    let sid = match self.agent_send_memo[agent_id.index()] {
                        Some((key, id)) if key == packet.key => id,
                        _ => {
                            let id = self.stats.flow_id(packet.key);
                            self.agent_send_memo[agent_id.index()] = Some((packet.key, id));
                            id
                        }
                    };
                    self.stats.on_sent_id(sid, &packet);
                    let key = packet.key;
                    let pref = self.arena.alloc(packet, Some(sid));
                    // Host stacks inject directly onto the forwarding path;
                    // if the destination is another local agent, deliver
                    // directly (loopback).
                    if self.nodes[node.index()].is_local(key.dst) {
                        let flow = self.flows.intern(key);
                        self.deliver_local(node, pref, flow);
                    } else {
                        self.forward(node, pref);
                    }
                }
                AgentCommand::ScheduleTimer { delay, token } => {
                    self.scheduler.schedule(
                        self.now + delay,
                        EventKind::AgentWake {
                            agent: agent_id,
                            token,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::CountingSink;
    use crate::event::FilterControl;
    use crate::packet::{FlowKey, PacketKind};
    use crate::time::SimDuration;

    fn two_node_sim() -> (Simulator, NodeId, NodeId, AgentId, Addr) {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let (ab, _) = sim.add_duplex_link(a, b, LinkSpec::default());
        let dst = Addr::from_octets(10, 0, 0, 2);
        sim.add_route(a, dst, ab);
        let sink = sim.add_agent(b, Box::new(CountingSink::new()), SimTime::ZERO);
        sim.bind_local_addr(b, dst, sink);
        (sim, a, b, sink, dst)
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "packet conservation broken")]
    fn run_until_asserts_packet_conservation() {
        let (mut sim, a, _b, _sink, dst) = two_node_sim();
        let key = FlowKey::new(Addr::from_octets(10, 0, 0, 1), dst, 1, 80);
        sim.inject_packet(a, key, PacketKind::Udp, 1000, false, SimTime::ZERO);
        // A send the simulator never saw unbalances the books.
        sim.stats_mut().total_sent += 1;
        let _ = sim.run_until(SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn packet_crosses_one_link() {
        let (mut sim, a, _b, sink, dst) = two_node_sim();
        let key = FlowKey::new(Addr::from_octets(10, 0, 0, 1), dst, 1, 80);
        sim.inject_packet(a, key, PacketKind::Udp, 1000, false, SimTime::ZERO);
        let summary = sim.run_until(SimTime::from_secs_f64(1.0));
        assert!(summary.events_processed >= 3, "{summary:?}");
        assert_eq!(sim.agent::<CountingSink>(sink).unwrap().delivered(), 1);
        // Delivery time = tx (1000B at 10Mb/s = 0.8ms) + prop (10ms).
        let rec = sim.stats().flow(&key).unwrap();
        assert_eq!(rec.delivered, 1);
        assert_eq!(rec.sent, 1);
    }

    #[test]
    fn no_route_drops_are_accounted() {
        let (mut sim, a, _b, _sink, _dst) = two_node_sim();
        let stray = FlowKey::new(Addr::new(1), Addr::new(99), 1, 2);
        sim.inject_packet(a, stray, PacketKind::Udp, 100, false, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(0.1));
        let rec = sim.stats().flow(&stray).unwrap();
        assert_eq!(rec.dropped_other, 1);
        assert_eq!(rec.delivered, 0);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        // Slow link (1 Mbit/s), 2-packet queue.
        let spec = LinkSpec::new(1e6, SimDuration::from_millis(1), 2);
        let (ab, _) = sim.add_duplex_link(a, b, spec);
        let dst = Addr::from_octets(10, 0, 0, 2);
        sim.add_route(a, dst, ab);
        let sink = sim.add_agent(b, Box::new(CountingSink::new()), SimTime::ZERO);
        sim.bind_local_addr(b, dst, sink);
        let key = FlowKey::new(Addr::from_octets(10, 0, 0, 1), dst, 1, 80);
        // Ten simultaneous packets: 1 on wire + 2 queued + 7 dropped.
        for _ in 0..10 {
            sim.inject_packet(a, key, PacketKind::Udp, 1000, false, SimTime::ZERO);
        }
        sim.run_until(SimTime::from_secs_f64(1.0));
        let rec = sim.stats().flow(&key).unwrap();
        assert_eq!(rec.delivered, 3);
        assert_eq!(rec.dropped_queue, 7);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut sim, a, _b, _sink, dst) = two_node_sim();
            let key = FlowKey::new(Addr::from_octets(10, 0, 0, 1), dst, 1, 80);
            for i in 0..50 {
                sim.inject_packet(
                    a,
                    key,
                    PacketKind::Udp,
                    500 + i,
                    false,
                    SimTime::from_nanos(u64::from(i) * 1000),
                );
            }
            let summary = sim.run_until(SimTime::from_secs_f64(2.0));
            (summary, sim.stats().flow(&key).unwrap().clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn filters_can_drop() {
        use crate::filter::{FilterAction, FilterCtx, PacketEnv, PacketFilter};

        struct DropAll;
        impl PacketFilter for DropAll {
            fn on_packet(
                &mut self,
                _p: &Packet,
                _e: &PacketEnv,
                _c: &mut FilterCtx<'_>,
            ) -> FilterAction {
                FilterAction::Drop(DropReason::FilterOther)
            }
        }
        impl mafic_obs::State for DropAll {
            fn write_state<W: StateWrite>(&self, _w: &mut W) {}

            fn read_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                Ok(())
            }
        }

        let (mut sim, a, b, sink, dst) = two_node_sim();
        sim.add_filter(b, Box::new(DropAll));
        let key = FlowKey::new(Addr::from_octets(10, 0, 0, 1), dst, 1, 80);
        sim.inject_packet(a, key, PacketKind::Udp, 100, false, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.agent::<CountingSink>(sink).unwrap().delivered(), 0);
        assert_eq!(sim.stats().flow(&key).unwrap().dropped_other, 1);
        let _ = a;
    }

    #[test]
    fn hop_limit_guards_routing_loops() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let (ab, ba) = sim.add_duplex_link(a, b, LinkSpec::default());
        let dst = Addr::new(77);
        // Deliberate loop: a routes to b, b routes back to a.
        sim.add_route(a, dst, ab);
        sim.add_route(b, dst, ba);
        let key = FlowKey::new(Addr::new(1), dst, 1, 2);
        sim.inject_packet(a, key, PacketKind::Udp, 100, false, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(60.0));
        let rec = sim.stats().flow(&key).unwrap();
        assert_eq!(rec.dropped_other, 1, "loop must terminate via hop limit");
    }

    #[test]
    fn leaf_drops_its_own_unbound_address_instead_of_bouncing_it() {
        let mut sim = Simulator::new(1);
        let router = sim.add_node("r");
        let host = sim.add_node("h");
        let (down, up) = sim.add_duplex_link(router, host, LinkSpec::default());
        let addr = Addr::from_octets(10, 0, 0, 2);
        let elsewhere = Addr::from_octets(10, 0, 0, 3);
        sim.add_routes(router, vec![(addr, down)]);
        sim.set_uplink(host, up);
        sim.extend_directory(&[(addr, host), (elsewhere, router)]);
        assert_eq!(sim.route(host, elsewhere), Some(up));
        assert_eq!(sim.route(host, addr), None);
        assert_eq!(sim.route(host, Addr::new(99)), None);
        assert_eq!(sim.route_entries(), 4);
        // No agent binds `addr`: the packet must die at the host with
        // `NoRoute`, not ping-pong over the access link to `HopLimit`.
        sim.enable_trace(8);
        let key = FlowKey::new(Addr::new(1), addr, 1, 2);
        sim.inject_packet(router, key, PacketKind::Udp, 100, false, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(60.0));
        let drops: Vec<DropReason> = sim
            .trace()
            .unwrap()
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Drop { reason, .. } => Some(*reason),
                _ => None,
            })
            .collect();
        assert_eq!(drops, [DropReason::NoRoute]);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = Simulator::new(1);
        let deadline = SimTime::from_secs_f64(3.0);
        sim.run_until(deadline);
        assert_eq!(sim.now(), deadline);
    }

    #[test]
    fn trace_records_drops_and_deliveries() {
        let (mut sim, a, _b, _sink, dst) = two_node_sim();
        sim.enable_trace(16);
        let key = FlowKey::new(Addr::from_octets(10, 0, 0, 1), dst, 1, 80);
        sim.inject_packet(a, key, PacketKind::Udp, 100, false, SimTime::ZERO);
        let stray = FlowKey::new(Addr::new(1), Addr::new(99), 1, 2);
        sim.inject_packet(a, stray, PacketKind::Udp, 100, false, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(0.5));
        let trace = sim.trace().unwrap();
        assert!(trace
            .iter()
            .any(|e| matches!(e, crate::trace::TraceEvent::Deliver { .. })));
        assert!(trace
            .iter()
            .any(|e| matches!(e, crate::trace::TraceEvent::Drop { .. })));
    }

    /// Builds a fresh two-node sim, loads it with mid-flight traffic up
    /// to `pause`, and returns it — the donor for snapshot round-trips.
    fn loaded_sim(pause: SimTime) -> Simulator {
        let (mut sim, a, _b, _sink, dst) = two_node_sim();
        sim.enable_trace(8);
        let key = FlowKey::new(Addr::from_octets(10, 0, 0, 1), dst, 1, 80);
        for i in 0..40u64 {
            sim.inject_packet(
                a,
                key,
                PacketKind::Udp,
                600,
                false,
                SimTime::from_nanos(i * 500_000),
            );
        }
        sim.run_until(pause);
        sim
    }

    fn probe_hash(sim: &Simulator) -> Vec<(String, u64)> {
        let mut probe = mafic_obs::IntervalProbe::new();
        sim.hash_components(&mut probe);
        probe
            .components()
            .iter()
            .map(|(label, hash)| (label.clone(), *hash))
            .collect()
    }

    #[test]
    fn batched_probe_equals_each_components_serial_hash() {
        let sim = loaded_sim(SimTime::from_secs_f64(0.01));
        assert_eq!(probe_hash(&sim), crate::testkit::component_hashes(&sim));
    }

    #[test]
    fn snapshot_round_trips_mid_run_state() {
        let pause = SimTime::from_secs_f64(0.01);
        let donor = loaded_sim(pause);
        assert!(donor.pending_events() > 0, "pause must land mid-flight");
        let mut snapshot = mafic_obs::Snapshot::new(mafic_obs::SnapshotHeader {
            snap_version: mafic_obs::SNAP_VERSION,
            crate_version: "test".into(),
            seed: donor.seed(),
            spec_fingerprint: 0,
            at_nanos: pause.as_nanos(),
            interval_index: 0,
        });
        donor.snap_save_into(&mut snapshot);
        let bytes = snapshot.encode();

        let mut restored = loaded_sim(SimTime::ZERO);
        assert!(
            restored.flow_cache.len() > 0,
            "the first arrival warmed the cache"
        );
        let decoded = mafic_obs::Snapshot::decode(&bytes).unwrap();
        // Four counters; the interner length is hashed, not saved here.
        assert_eq!(decoded.section("netsim/core").map(<[u8]>::len), Some(32));
        restored.snap_restore_from(&decoded).unwrap();
        assert_eq!(
            restored.flow_cache.len(),
            0,
            "restore empties the flow cache"
        );
        assert_eq!(probe_hash(&donor), probe_hash(&restored));
        assert_eq!(restored.now(), pause);

        // Both copies must continue to identical ends.
        let mut donor = donor;
        let end = SimTime::from_secs_f64(1.0);
        assert_eq!(donor.run_until(end), restored.run_until(end));
        assert_eq!(probe_hash(&donor), probe_hash(&restored));
        let tail_a = donor.trace_tail(8);
        let tail_b = restored.trace_tail(8);
        assert_eq!(tail_a, tail_b);
        assert!(!tail_a.is_empty());
    }

    #[test]
    fn a_packet_before_its_first_node_arrival_has_no_flow_id_on_a_warm_path() {
        let (mut sim, a, _b, _sink, dst) = two_node_sim();
        let key = FlowKey::new(Addr::from_octets(10, 0, 0, 1), dst, 1, 80);
        sim.inject_packet(a, key, PacketKind::Udp, 100, false, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(0.5));
        assert_eq!(
            sim.flow_cache.len(),
            1,
            "the delivered packet warmed the cache"
        );
        // The flow's next packet reuses the freed slot. In flight, before
        // any node has seen it, the walked arena holds no flow id for it.
        let at = SimTime::from_secs_f64(0.6);
        let id = sim.inject_packet(a, key, PacketKind::Udp, 100, false, at);
        let pref = PacketRef(0);
        assert_eq!((sim.arena.live(), sim.arena.get(pref).id), (1, id));
        assert_eq!(sim.arena.flow_id(pref), None);
        sim.run_until(at);
        assert_eq!(sim.arena.flow_id(pref), sim.flow_interner().lookup(key));
    }

    /// Parks a packet to `dst` in the arena with its stats id, as a send
    /// would: a handle the route index can be asked about.
    fn park(sim: &mut Simulator, dst: Addr) -> PacketRef {
        let key = FlowKey::new(Addr::new(1), dst, 1, 2);
        let sid = sim.stats.flow_id(key);
        let provenance = Provenance::infrastructure();
        let packet = Packet::stamp(
            &mut sim.next_packet_id,
            key,
            PacketKind::Udp,
            100,
            SimTime::ZERO,
            provenance,
        );
        sim.arena.alloc(packet, Some(sid))
    }

    /// Every node's indexed next hop for every parked packet equals
    /// [`Node::lookup`] for its destination. The packets stay parked, so
    /// a later call reads warm flow-cache rows.
    fn assert_indexed_routes(sim: &mut Simulator, parked: &[PacketRef], case: &str) {
        for &pref in parked {
            let dst = sim.arena.get(pref).key.dst;
            for node in (0..sim.node_count()).map(NodeId::from_index) {
                let want = sim.route(node, dst);
                assert_eq!(sim.next_hop(node, pref), want, "{case}: {node} to {dst}");
            }
        }
    }

    #[test]
    fn indexed_routes_equal_lookup_on_generated_topologies() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let addr = |i: usize| Addr::from_octets(10, 0, 0, i as u8);
        let routed_only = Addr::from_octets(192, 168, 0, 1);
        let unknown = Addr::from_octets(172, 16, 0, 1);
        for seed in 0..60u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sim = Simulator::new(seed);
            let n = rng.gen_range(2usize..10);
            let nodes: Vec<NodeId> = (0..n).map(|i| sim.add_node(format!("n{i}"))).collect();
            // A random tree plus chords, so every node has a link.
            let mut out: Vec<Vec<LinkId>> = vec![Vec::new(); n];
            let chords = rng.gen_range(0..n);
            let mut pairs: Vec<(usize, usize)> = (1..n).map(|b| (rng.gen_range(0..b), b)).collect();
            pairs.extend((0..chords).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))));
            for (a, b) in pairs.into_iter().filter(|(a, b)| a != b) {
                let (ab, ba) = sim.add_duplex_link(nodes[a], nodes[b], LinkSpec::default());
                out[a].push(ab);
                out[b].push(ba);
            }
            let link_of = |rng: &mut SmallRng, i: usize| out[i][rng.gen_range(0..out[i].len())];
            // Each node's own address, then extras; a repeat moves one.
            let mut directory: Vec<(Addr, NodeId)> = (0..n).map(|i| (addr(i), nodes[i])).collect();
            for _ in 0..rng.gen_range(0..2 * n) {
                directory.push((addr(rng.gen_range(0..3 * n)), nodes[rng.gen_range(0..n)]));
            }
            sim.extend_directory(&directory);
            for (i, &node) in nodes.iter().enumerate() {
                if rng.gen_bool(0.5) {
                    let via = link_of(&mut rng, i);
                    sim.set_uplink(node, via);
                }
                if rng.gen_bool(0.6) {
                    let mut routes = Vec::new();
                    for &(dst, _) in &directory {
                        if rng.gen_bool(0.4) {
                            routes.push((dst, link_of(&mut rng, i)));
                        }
                    }
                    routes.push((routed_only, link_of(&mut rng, i)));
                    sim.add_routes(node, routes);
                }
            }
            let mut parked: Vec<PacketRef> = directory
                .iter()
                .map(|&(dst, _)| dst)
                .chain([routed_only, unknown])
                .map(|dst| park(&mut sim, dst))
                .collect();
            assert_indexed_routes(&mut sim, &parked, &format!("seed {seed} built"));
            // Each kind of table change, landing on warm caches.
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let (dst, via) = (addr(rng.gen_range(0..n)), link_of(&mut rng, i));
            sim.add_route(nodes[i], dst, via);
            assert_indexed_routes(&mut sim, &parked, &format!("seed {seed} add_route"));
            let via = link_of(&mut rng, j);
            sim.set_uplink(nodes[j], via);
            assert_indexed_routes(&mut sim, &parked, &format!("seed {seed} set_uplink"));
            // A new lowest address shifts every slot; the routed-only
            // address joins the directory and an address moves.
            let lowest = Addr::from_octets(9, 0, 0, 1);
            let moved = (addr(rng.gen_range(0..n)), nodes[rng.gen_range(0..n)]);
            sim.extend_directory(&[(lowest, nodes[i]), (routed_only, nodes[j]), moved]);
            parked.push(park(&mut sim, lowest));
            assert_indexed_routes(&mut sim, &parked, &format!("seed {seed} extend_directory"));
        }
    }

    #[test]
    fn restore_rejects_mismatched_topology() {
        let donor = loaded_sim(SimTime::from_secs_f64(0.01));
        let mut snapshot = mafic_obs::Snapshot::new(mafic_obs::SnapshotHeader {
            snap_version: mafic_obs::SNAP_VERSION,
            crate_version: "test".into(),
            seed: donor.seed(),
            spec_fingerprint: 0,
            at_nanos: 0,
            interval_index: 0,
        });
        donor.snap_save_into(&mut snapshot);
        let bytes = snapshot.encode();
        let decoded = mafic_obs::Snapshot::decode(&bytes).unwrap();

        // A sim with an extra link cannot accept the snapshot.
        let (mut other, a, b, _sink, _dst) = two_node_sim();
        other.enable_trace(8);
        other.add_link(a, b, LinkSpec::default());
        let err = other.snap_restore_from(&decoded).unwrap_err();
        assert!(matches!(err, SnapError::Malformed(_)), "{err}");

        // A sim missing the trace buffer cannot either.
        let (mut untraced, _a, _b, _sink, _dst) = two_node_sim();
        let err = untraced.snap_restore_from(&decoded).unwrap_err();
        assert!(matches!(err, SnapError::Malformed(_)), "{err}");
    }

    #[test]
    fn restore_rejects_a_link_marked_down() {
        let donor = loaded_sim(SimTime::from_secs_f64(0.01));
        let mut snapshot = mafic_obs::Snapshot::new(mafic_obs::SnapshotHeader {
            snap_version: mafic_obs::SNAP_VERSION,
            crate_version: "test".into(),
            seed: donor.seed(),
            spec_fingerprint: 0,
            at_nanos: 0,
            interval_index: 0,
        });
        donor.snap_save_into(&mut snapshot);
        let mut doctored = mafic_obs::Snapshot::new(snapshot.header.clone());
        for label in snapshot.section_labels() {
            let mut payload = snapshot.section(label).expect("listed").to_vec();
            if label == "netsim/links" {
                // The section ends with one down-flag byte per link.
                *payload.last_mut().expect("non-empty") = 1;
            }
            doctored.add_section(label, payload);
        }
        let err = loaded_sim(SimTime::ZERO)
            .snap_restore_from(&doctored)
            .unwrap_err();
        assert_eq!(
            err,
            SnapError::Malformed(
                "netsim/links: link 1 has down flag 1; links never go down".into()
            )
        );
    }

    #[test]
    fn trace_records_control_messages() {
        let (mut sim, a, _b, _sink, _dst) = two_node_sim();
        sim.enable_trace(4);
        sim.send_control(a, FilterControl::PushbackStop, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(0.1));
        let trace = sim.trace().unwrap();
        assert!(trace
            .iter()
            .any(|e| matches!(e, crate::trace::TraceEvent::Control { .. })));
    }
}
