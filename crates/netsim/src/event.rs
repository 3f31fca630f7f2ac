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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// one — does half the entry moves for the same number of comparisons.
/// Changing it changes the heap's storage order, and with it the
/// `netsim/scheduler` ledger and snapshot bytes.
const HEAP_ARITY: usize = 4;

/// Deterministic event queue ordered by `(time, insertion sequence)`.
///
/// A hand-rolled 4-ary min-heap in SoA layout: packed keys and event
/// payloads live in two parallel arrays. The key packs `(time, seq)`
/// into one `u128` (`time` in the high 64 bits), so the lexicographic
/// tie-break rule is a single integer comparison and the heap order is
/// a *total* order: any correct priority queue pops the same sequence.
/// The storage order is not fixed by that, and it is observable — the
/// `netsim/scheduler` ledger component and snapshot section walk the
/// arrays index by index. A rewrite of `schedule` or `pop` must leave
/// every entry where the previous code left it; the differential test
/// below and `tests/state_golden.rs` check that.
///
/// The SoA split matters for the hot path: sift-down reads a node's
/// four children as 64 contiguous key bytes (node `h`'s children start
/// at byte `64h + 16`, so they straddle two cache lines) instead of
/// striding over interleaved event payloads, and picks the earliest
/// with a branch-free pairwise tournament. Sifts move entries into a
/// hole instead of swapping (`EventKind` is `Copy`), and a freshly
/// scheduled event — usually the latest deadline in the queue — settles
/// after one parent comparison.
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
            //
            // While a node has all four children, a tournament picks the
            // minimum: the two pairs, then the two pair winners. Each
            // round is a select, not a jump, so near-random keys cost no
            // mispredictions. Ties go to the lower index, so the winner
            // is the first index holding the minimum — the child a
            // left-to-right scan picks, which keeps storage order (and
            // with it the ledger and snapshot bytes) fixed.
            let mut hole = 0;
            loop {
                let first = hole * HEAP_ARITY + 1;
                let Some(&[c0, c1, c2, c3]) = self.keys.get(first..first + HEAP_ARITY) else {
                    break;
                };
                let (l, kl) = if c1 < c0 { (1, c1) } else { (0, c0) };
                let (r, kr) = if c3 < c2 { (3, c3) } else { (2, c2) };
                let (best, best_key) = if kr < kl {
                    (first + r, kr)
                } else {
                    (first + l, kl)
                };
                self.keys[hole] = best_key;
                self.kinds[hole] = self.kinds[best];
                hole = best;
            }
            // At most one node has one to three children, and they are
            // leaves: scan them once.
            let first = hole * HEAP_ARITY + 1;
            if first < len {
                let mut best = first;
                for child in first + 1..len {
                    if self.keys[child] < self.keys[best] {
                        best = child;
                    }
                }
                self.keys[hole] = self.keys[best];
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
        // Pop trusts the heap property; a payload that breaks it would
        // restore and then fire events out of order.
        for (at, &key) in self.keys.iter().enumerate() {
            if key as u64 >= self.next_seq {
                return Err(SnapError::Malformed(format!(
                    "netsim/scheduler: entry {at} has seq {}, next seq is {}",
                    key as u64, self.next_seq
                )));
            }
            if at > 0 && key <= self.keys[(at - 1) / HEAP_ARITY] {
                return Err(SnapError::Malformed(format!(
                    "netsim/scheduler: entry {at} is not later than its parent"
                )));
            }
        }
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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
    fn restore_rejects_a_payload_that_is_not_a_heap() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_nanos(10), wake(0, 0));
        s.schedule(SimTime::from_nanos(20), wake(0, 1));
        let doctored = |keys: Vec<u128>, next_seq: u64| {
            state_bytes(&Scheduler {
                keys,
                kinds: s.kinds.clone(),
                next_seq,
            })
        };
        let swapped = doctored(vec![s.keys[1], s.keys[0]], s.next_seq);
        let stale_seq = doctored(s.keys.clone(), 1);
        for bytes in [swapped, stale_seq] {
            let err = Scheduler::new()
                .read_state(&mut SnapReader::new(&bytes))
                .unwrap_err();
            match err {
                SnapError::Malformed(why) => assert!(why.starts_with("netsim/scheduler"), "{why}"),
                other => panic!("unexpected error {other}"),
            }
        }
    }

    /// The scan-based pop and sift-up the tournament replaced, over the
    /// plain arrays: the oracle for storage order.
    fn reference_schedule(
        keys: &mut Vec<u128>,
        kinds: &mut Vec<EventKind>,
        key: u128,
        kind: EventKind,
    ) {
        let mut hole = keys.len();
        keys.push(key);
        kinds.push(kind);
        while hole > 0 {
            let parent = (hole - 1) / HEAP_ARITY;
            if keys[parent] <= key {
                break;
            }
            keys[hole] = keys[parent];
            kinds[hole] = kinds[parent];
            hole = parent;
        }
        keys[hole] = key;
        kinds[hole] = kind;
    }

    fn reference_pop(
        keys: &mut Vec<u128>,
        kinds: &mut Vec<EventKind>,
    ) -> Option<(u128, EventKind)> {
        let &key = keys.first()?;
        let kind = kinds[0];
        let last_key = keys.pop().expect("heap is non-empty");
        let last_kind = kinds.pop().expect("heap is non-empty");
        let len = keys.len();
        if len > 0 {
            let mut hole = 0;
            loop {
                let first_child = hole * HEAP_ARITY + 1;
                if first_child >= len {
                    break;
                }
                let end = (first_child + HEAP_ARITY).min(len);
                let mut best = first_child;
                for child in first_child + 1..end {
                    if keys[child] < keys[best] {
                        best = child;
                    }
                }
                keys[hole] = keys[best];
                kinds[hole] = kinds[best];
                hole = best;
            }
            while hole > 0 {
                let parent = (hole - 1) / HEAP_ARITY;
                if keys[parent] <= last_key {
                    break;
                }
                keys[hole] = keys[parent];
                kinds[hole] = kinds[parent];
                hole = parent;
            }
            keys[hole] = last_key;
            kinds[hole] = last_kind;
        }
        Some((key, kind))
    }

    /// Equal arrays and sequence counter: `state_bytes` is a function of
    /// these alone, so this is the byte-level check, without paying for
    /// two encodings of a 5,000-entry heap after every operation.
    fn assert_same(s: &Scheduler, oracle: &Scheduler) {
        assert_eq!(s.next_seq, oracle.next_seq);
        assert!(s.keys == oracle.keys, "keys diverge at len {}", s.len());
        assert!(s.kinds == oracle.kinds, "kinds diverge at len {}", s.len());
    }

    #[test]
    fn tournament_pop_matches_the_scan_reference() {
        let mut rng = SmallRng::seed_from_u64(0x4EA9_5C4E);
        let mut peak = 0;
        // Which `len % 4` pops ran on, from heaps of at least two.
        let mut residues = [false; HEAP_ARITY];
        for target in [5_200, 700, 90, 9] {
            let mut s = Scheduler::new();
            let mut oracle = Scheduler::new();
            let mut now = 0;
            // Grow to the target with schedules outnumbering pops, then
            // drain to empty with pops outnumbering schedules.
            for growing in [true, false] {
                while (growing && s.len() < target) || (!growing && s.len() > 0) {
                    // Bursts make a schedule add about five events on
                    // average, so draining keeps schedules rare.
                    let schedule_odds = if growing { 7 } else { 1 };
                    if rng.gen_range(0..10u32) < schedule_odds {
                        // A same-instant burst one time in eight; a far
                        // deadline (a retransmit timer) one time in ten.
                        let burst = if rng.gen_range(0..8u32) == 0 {
                            rng.gen_range(1..65u32)
                        } else {
                            1
                        };
                        let horizon = if rng.gen_range(0..10u32) == 0 {
                            1_000_000
                        } else {
                            2_000
                        };
                        let at = SimTime::from_nanos(now + rng.gen_range(0..horizon));
                        for _ in 0..burst {
                            let kind = wake(rng.gen_range(0..16u32), oracle.next_seq);
                            s.schedule(at, kind);
                            reference_schedule(
                                &mut oracle.keys,
                                &mut oracle.kinds,
                                pack(at, oracle.next_seq),
                                kind,
                            );
                            oracle.next_seq += 1;
                            assert_same(&s, &oracle);
                        }
                    } else {
                        if s.len() >= 2 {
                            residues[s.len() % HEAP_ARITY] = true;
                        }
                        let want = reference_pop(&mut oracle.keys, &mut oracle.kinds)
                            .map(|(key, kind)| (unpack_time(key), kind));
                        let got = s.pop();
                        assert_eq!(got, want);
                        if let Some((at, _)) = got {
                            now = at.as_nanos();
                        }
                        assert_same(&s, &oracle);
                    }
                    peak = peak.max(s.len());
                }
                assert_eq!(state_bytes(&s), state_bytes(&oracle));
            }
            assert_eq!(s.pop(), None);
        }
        assert!(peak >= 5_000, "peak heap size {peak}");
        assert_eq!(residues, [true; HEAP_ARITY]);
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
