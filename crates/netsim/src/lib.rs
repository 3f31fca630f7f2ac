//! # mafic-netsim
//!
//! A deterministic discrete-event network simulator — the substrate the
//! MAFIC reproduction runs on, standing in for NS-2.
//!
//! The simulator models:
//!
//! * **Nodes** — routers with exact-match host routes, and leaves routed
//!   by attachment point: one uplink, taken for every address the
//!   simulator-wide destination directory attaches to another node,
//! * **Simplex links** with bandwidth (serialization delay), propagation
//!   delay, and bounded drop-tail queues,
//! * **Agents** — end-host endpoints (TCP senders, sinks, attack zombies
//!   live in `mafic-transport`) driven by packet deliveries and timers,
//! * **Packet filters** — router-resident hooks (the MAFIC dropper, the
//!   LogLog traffic taps) that can drop, emit probes, and keep timers,
//! * a **control plane** for pushback start/stop messages, and
//! * a global [`StatsCollector`] with per-flow ground-truth accounting.
//!
//! Everything is single-threaded and deterministic: the event queue breaks
//! timestamp ties by insertion order, and no component consults ambient
//! randomness (agents own seeded RNGs supplied by the workload layer).
//!
//! # Example
//!
//! ```
//! use mafic_netsim::*;
//!
//! let mut sim = Simulator::new(42);
//! let router = sim.add_node("router");
//! let host = sim.add_node("host");
//! let (to_host, _back) = sim.add_duplex_link(router, host, LinkSpec::default());
//! let addr = Addr::from_octets(10, 0, 0, 1);
//! sim.add_route(router, addr, to_host);
//! let sink = sim.add_agent(host, Box::new(CountingSink::new()), SimTime::ZERO);
//! sim.bind_local_addr(host, addr, sink);
//! let key = FlowKey::new(Addr::from_octets(10, 0, 9, 9), addr, 1000, 80);
//! sim.inject_packet(router, key, PacketKind::Udp, 500, false, SimTime::ZERO);
//! sim.run_until(SimTime::from_secs_f64(0.1));
//! assert_eq!(sim.stats().flow(&key).unwrap().delivered, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unreachable_pub)]

mod agent;
mod arena;
mod event;
mod filter;
mod flows;
mod ids;
mod link;
mod node;
mod packet;
mod sim;
mod stats;
pub mod testkit;
mod time;
mod trace;
mod wheel;

pub use agent::{Agent, AgentCtx, CountingSink};
pub use event::FilterControl;
pub use filter::{FilterAction, FilterCtx, PacketEnv, PacketFilter, PassthroughFilter, StatNote};
pub use flows::{read_flow_id, FlowId, FlowInterner, FlowSlab};
pub use ids::{Addr, AgentId, LinkId, NodeId};
pub use link::LinkSpec;
// Checkpoint vocabulary, re-exported so layers that depend only on
// netsim (e.g. mafic-transport) can implement the snapshot hooks
// without adding a manifest edge to mafic-obs.
pub use mafic_obs::{
    SnapError, SnapReader, SnapWriter, Snapshot, SnapshotHeader, State, StateWrite,
};
pub use packet::{
    read_control_msg, read_flow_key, ControlMsg, ControlVerb, DenyReason, DropReason, FlowKey,
    Packet, PacketKind, Provenance, RequesterId, CONTROL_PROTOCOL_VERSION,
};
pub use sim::{RunSummary, Simulator};
pub use stats::{FlowRecord, StatsCollector, VictimBin};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceBuffer, TraceEvent};
