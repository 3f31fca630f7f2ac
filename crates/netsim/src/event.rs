//! The event scheduler.
//!
//! A 4-ary min-heap of `(time, sequence)` keyed events. The monotonically
//! increasing sequence number breaks ties deterministically: two events
//! scheduled for the same instant fire in the order they were scheduled,
//! which keeps whole-simulation replays bit-identical for a given seed.

use crate::arena::PacketRef;
use crate::ids::{Addr, AgentId, LinkId, NodeId};
use crate::time::SimTime;
use mafic_obs::{SnapError, SnapReader, State, StateWrite};

/// Control-plane message delivered to a node's filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterControl {
    /// Activate defense dropping for traffic destined to `victim`.
    PushbackStart {
        /// Address of the victim host under attack.
        victim: crate::ids::Addr,
    },
    /// Deactivate defense dropping and flush all tables.
    PushbackStop,
}

/// What happens when an event fires.
///
/// Packet payloads live in the simulator's packet arena; events carry
/// only 4-byte [`PacketRef`] handles, so heap entries stay small, `Copy`,
/// and sift operations never memcpy packet bodies.
#[derive(Debug, Clone, Copy)]
pub enum EventKind {
    /// A locally injected packet arrives at `node` (link deliveries ride
    /// [`EventKind::LinkDeliver`], so no arriving-link field is needed).
    DeliverToNode {
        /// Receiving node.
        node: NodeId,
        /// Arena handle of the packet.
        packet: PacketRef,
    },
    /// Drain the link's delivery FIFO: every queued packet whose
    /// propagation completes at or before this instant arrives at the
    /// link's far end in one pass.
    LinkDeliver {
        /// The delivering link.
        link: LinkId,
    },
    /// Wake an agent's timer.
    AgentWake {
        /// The agent to wake.
        agent: AgentId,
        /// Caller-chosen token identifying which timer fired.
        token: u64,
    },
    /// Start an agent (first activation).
    AgentStart {
        /// The agent to start.
        agent: AgentId,
    },
    /// Deliver a control-plane message to every filter on `node`.
    Control {
        /// Receiving node.
        node: NodeId,
        /// The message.
        msg: FilterControl,
    },
}

/// The heap's branching factor. Four children per node halves the tree
/// depth of a binary heap: sift-down — the hot operation, every pop pays
/// one — does half the entry moves for the same number of comparisons,
/// and the child scan reads one contiguous cache line.
const HEAP_ARITY: usize = 4;

/// Deterministic event queue ordered by `(time, insertion sequence)`.
///
/// A hand-rolled 4-ary min-heap in SoA layout: packed keys and event
/// payloads live in two parallel arrays. The key packs `(time, seq)`
/// into one `u128` (`time` in the high 64 bits), so the lexicographic
/// tie-break rule is a single integer comparison and the heap order is
/// a *total* order — any correct priority queue pops the exact same
/// sequence, which is what keeps replays bit-identical across
/// representation changes like this one.
///
/// The SoA split matters for the hot path: sift-down scans a node's
/// four children, and with keys packed contiguously that scan reads
/// exactly one 64-byte cache line instead of striding over interleaved
/// event payloads. Sifts move entries into a hole instead of swapping
/// (`EventKind` is `Copy`), and a freshly scheduled event — usually the
/// latest deadline in the queue — settles after one parent comparison.
#[derive(Debug, Default)]
pub(crate) struct Scheduler {
    keys: Vec<u128>,
    kinds: Vec<EventKind>,
    next_seq: u64,
}

#[inline]
fn pack(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

impl Scheduler {
    pub(crate) fn new() -> Self {
        Scheduler::default()
    }

    /// Schedules `kind` to fire at `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let key = pack(at, self.next_seq);
        self.next_seq += 1;
        let mut hole = self.keys.len();
        self.keys.push(key);
        self.kinds.push(kind);
        while hole > 0 {
            let parent = (hole - 1) / HEAP_ARITY;
            if self.keys[parent] <= key {
                break;
            }
            self.keys[hole] = self.keys[parent];
            self.kinds[hole] = self.kinds[parent];
            hole = parent;
        }
        self.keys[hole] = key;
        self.kinds[hole] = kind;
    }

    /// Removes and returns the earliest event, if any.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let &key = self.keys.first()?;
        let kind = self.kinds[0];
        let last_key = self.keys.pop().expect("heap is non-empty");
        let last_kind = self.kinds.pop().expect("heap is non-empty");
        let len = self.keys.len();
        if len > 0 {
            // Bottom-up deletion (Wegener): walk the min-child path from
            // the root all the way to a leaf, moving each level's minimum
            // up into the hole — no per-level comparison against the
            // displaced entry, so the descent loop is branch-predictable.
            let mut hole = 0;
            loop {
                let first_child = hole * HEAP_ARITY + 1;
                if first_child >= len {
                    break;
                }
                let end = (first_child + HEAP_ARITY).min(len);
                let mut best = first_child;
                let mut best_key = self.keys[first_child];
                for child in first_child + 1..end {
                    let child_key = self.keys[child];
                    if child_key < best_key {
                        best = child;
                        best_key = child_key;
                    }
                }
                self.keys[hole] = best_key;
                self.kinds[hole] = self.kinds[best];
                hole = best;
            }
            // Then sift the displaced last entry up from that leaf hole.
            // It came from the bottom of the heap, so it almost always
            // belongs near the bottom and this loop exits immediately.
            while hole > 0 {
                let parent = (hole - 1) / HEAP_ARITY;
                if self.keys[parent] <= last_key {
                    break;
                }
                self.keys[hole] = self.keys[parent];
                self.kinds[hole] = self.kinds[parent];
                hole = parent;
            }
            self.keys[hole] = last_key;
            self.kinds[hole] = last_kind;
        }
        Some((unpack_time(key), kind))
    }

    /// The timestamp of the next event without removing it.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.keys.first().map(|&key| unpack_time(key))
    }

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Total number of events ever scheduled (for run statistics).
    pub(crate) fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

impl State for Scheduler {
    /// The raw SoA arrays in storage order. Heap storage order is
    /// itself deterministic (identical schedule/pop sequences produce
    /// identical arrays), so index order is replay-stable for the
    /// ledger, and restores verbatim from a checkpoint (heap order is a
    /// property of the arrays, not of the process that produced them).
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_u64(self.next_seq);
        w.write_seq(&self.keys, |w, &key| w.write_u128(key));
        for kind in &self.kinds {
            kind.write_state(w);
        }
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.next_seq = r.read_u64()?;
        self.keys = r.read_seq(|r| r.read_u128())?;
        self.kinds = r.read_n(self.keys.len(), read_event_kind)?;
        Ok(())
    }
}

impl EventKind {
    /// Encodes one event payload: a discriminant tag byte followed by
    /// the variant's fields.
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        match self {
            EventKind::DeliverToNode { node, packet } => {
                w.write_u8(0);
                w.write_u32(node.0);
                w.write_u32(packet.0);
            }
            EventKind::LinkDeliver { link } => {
                w.write_u8(1);
                w.write_u32(link.0);
            }
            EventKind::AgentWake { agent, token } => {
                w.write_u8(2);
                w.write_u32(agent.0);
                w.write_u64(*token);
            }
            EventKind::AgentStart { agent } => {
                w.write_u8(3);
                w.write_u32(agent.0);
            }
            EventKind::Control { node, msg } => {
                w.write_u8(5);
                w.write_u32(node.0);
                match msg {
                    FilterControl::PushbackStart { victim } => {
                        w.write_u8(0);
                        w.write_u32(victim.as_u32());
                    }
                    FilterControl::PushbackStop => w.write_u8(1),
                }
            }
        }
    }
}

/// Reads one event payload written by [`EventKind::write_state`].
fn read_event_kind(r: &mut SnapReader<'_>) -> Result<EventKind, SnapError> {
    Ok(match r.read_u8()? {
        0 => EventKind::DeliverToNode {
            node: NodeId(r.read_u32()?),
            packet: PacketRef(r.read_u32()?),
        },
        1 => EventKind::LinkDeliver {
            link: LinkId(r.read_u32()?),
        },
        2 => EventKind::AgentWake {
            agent: AgentId(r.read_u32()?),
            token: r.read_u64()?,
        },
        3 => EventKind::AgentStart {
            agent: AgentId(r.read_u32()?),
        },
        5 => EventKind::Control {
            node: NodeId(r.read_u32()?),
            msg: match r.read_u8()? {
                0 => FilterControl::PushbackStart {
                    victim: Addr::new(r.read_u32()?),
                },
                1 => FilterControl::PushbackStop,
                tag => {
                    return Err(SnapError::Malformed(format!("filter-control tag {tag}")));
                }
            },
        },
        tag => return Err(SnapError::Malformed(format!("event-kind tag {tag}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_state_law, state_bytes, state_hash};
    use crate::time::SimDuration;

    fn wake(agent: u32, token: u64) -> EventKind {
        EventKind::AgentWake {
            agent: AgentId(agent),
            token,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        let t1 = SimTime::ZERO + SimDuration::from_millis(10);
        let t2 = SimTime::ZERO + SimDuration::from_millis(5);
        s.schedule(t1, wake(0, 1));
        s.schedule(t2, wake(0, 2));
        assert_eq!(s.pop().unwrap().0, t2);
        assert_eq!(s.pop().unwrap().0, t1);
        assert!(s.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut s = Scheduler::new();
        let t = SimTime::ZERO + SimDuration::from_millis(1);
        for token in 0..100 {
            s.schedule(t, wake(0, token));
        }
        for expect in 0..100 {
            match s.pop().unwrap().1 {
                EventKind::AgentWake { token, .. } => assert_eq!(token, expect),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn snapshot_round_trips_heap_state() {
        let mut s = Scheduler::new();
        s.schedule(
            SimTime::from_nanos(50),
            EventKind::DeliverToNode {
                node: NodeId(1),
                packet: PacketRef(7),
            },
        );
        s.schedule(
            SimTime::from_nanos(10),
            EventKind::LinkDeliver { link: LinkId(2) },
        );
        s.schedule(
            SimTime::from_nanos(10),
            EventKind::Control {
                node: NodeId(3),
                msg: FilterControl::PushbackStart {
                    victim: Addr::new(9),
                },
            },
        );
        let _ = s.pop();
        assert_state_law(&s, Scheduler::new);
        let bytes = state_bytes(&s);
        let mut restored = Scheduler::new();
        let mut r = SnapReader::new(&bytes);
        restored.read_state(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(state_hash(&s), state_hash(&restored));
        // The restored heap continues popping in the same total order.
        assert_eq!(s.pop().unwrap().0, restored.pop().unwrap().0);
    }

    #[test]
    fn counters_track_activity() {
        let mut s = Scheduler::new();
        assert_eq!(s.len(), 0);
        s.schedule(SimTime::ZERO, wake(0, 0));
        s.schedule(SimTime::ZERO, wake(0, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.scheduled_total(), 2);
        assert_eq!(s.peek_time(), Some(SimTime::ZERO));
        let _ = s.pop();
        assert_eq!(s.len(), 1);
        assert_eq!(s.scheduled_total(), 2);
    }
}
