//! Simplex links with serialization delay, propagation delay, and a
//! drop-tail queue.
//!
//! A link transmits one packet at a time at `bandwidth_bps`; packets that
//! arrive while the transmitter is busy wait in a bounded FIFO queue and
//! are dropped (drop-tail) when the queue is full — the same model NS-2's
//! `SimplexLink` + `DropTail` queue combination provides.
//!
//! Accepted packets wait out their propagation delay in one FIFO of
//! `(due, handle)` pairs per link; the ring keeps its capacity as it
//! drains, so a link allocates only while its deepest backlog grows.

use crate::arena::PacketRef;
use crate::ids::NodeId;
use crate::time::{SimDuration, SimTime};
use mafic_obs::{SnapError, SnapReader, State, StateWrite};
use std::collections::VecDeque;

/// Static parameters of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Transmission rate in bits per second.
    pub bandwidth_bps: f64,
    /// Propagation delay.
    pub delay: SimDuration,
    /// Maximum number of queued packets (excluding the one on the wire).
    pub queue_capacity: usize,
}

impl LinkSpec {
    /// A convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not strictly positive and finite.
    #[must_use]
    pub fn new(bandwidth_bps: f64, delay: SimDuration, queue_capacity: usize) -> Self {
        assert!(
            bandwidth_bps.is_finite() && bandwidth_bps > 0.0,
            "bandwidth must be positive, got {bandwidth_bps}"
        );
        LinkSpec {
            bandwidth_bps,
            delay,
            queue_capacity,
        }
    }

    /// Time to serialize `size_bytes` onto the wire.
    #[must_use]
    pub(crate) fn tx_time(&self, size_bytes: u32) -> SimDuration {
        SimDuration::from_secs_f64(f64::from(size_bytes) * 8.0 / self.bandwidth_bps)
    }
}

impl Default for LinkSpec {
    /// 10 Mbit/s, 10 ms delay, 64-packet queue.
    fn default() -> Self {
        LinkSpec::new(10e6, SimDuration::from_millis(10), 64)
    }
}

/// Outcome of offering a packet to a link.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum EnqueueOutcome {
    /// Accepted: the packet reaches the far end at the contained instant
    /// (schedule a [`crate::event::EventKind::LinkDeliver`] then).
    Accepted(SimTime),
    /// Queue full — packet dropped (drop-tail).
    Dropped(PacketRef),
}

/// Runtime state of a simplex link.
///
/// The transmitter is modeled *analytically*: because serialization is
/// strictly FIFO and its duration is a pure function of packet size, the
/// instant a packet finishes serializing — `max(now, busy_until) +
/// tx_time` — is fully determined at enqueue time. So the link keeps a
/// single `busy_until` watermark instead of an in-flight slot plus a
/// transmit queue, and no per-packet "tx done" event ever enters the
/// scheduler: the only event a traversal costs is the delivery at the
/// far end.
///
/// Packets are held by arena handle only. The delivery FIFO is one
/// deque of `(due instant, handle)` pairs drained in one pass per
/// [`crate::event::EventKind::LinkDeliver`]; `starts` records the
/// serialization-start instants of packets that may still be waiting,
/// which is exactly the state drop-tail admission needs (a packet
/// occupies the queue while `now < start`).
#[derive(Debug)]
pub(crate) struct Link {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) spec: LinkSpec,
    /// When the transmitter finishes everything accepted so far.
    busy_until: SimTime,
    /// Serialization-start instants of accepted-but-possibly-waiting
    /// packets, non-decreasing. Entries with `start <= now` have left
    /// the queue for the wire and are pruned lazily on enqueue.
    starts: VecDeque<SimTime>,
    /// Memo of the most recent serialization-time computation. Traffic is
    /// dominated by a handful of fixed packet sizes, so this skips the
    /// f64 divide on nearly every transmission; a hit is byte-identical
    /// to recomputing because [`LinkSpec::tx_time`] is a pure function of
    /// `(size, spec)` and `spec` is immutable after construction.
    last_tx: Option<(u32, SimDuration)>,
    /// Propagation-delay FIFO of `(due, handle)` pairs. Dues are
    /// non-decreasing — serialization finishes in order and delay is
    /// constant — so [`Link::pop_due`] need only look at the front.
    pending: VecDeque<(SimTime, PacketRef)>,
    /// Counters for observability.
    pub(crate) enqueued: u64,
    pub(crate) dropped_queue_full: u64,
}

impl Link {
    pub(crate) fn new(from: NodeId, to: NodeId, spec: LinkSpec) -> Self {
        Link {
            from,
            to,
            spec,
            busy_until: SimTime::ZERO,
            starts: VecDeque::new(),
            last_tx: None,
            pending: VecDeque::new(),
            enqueued: 0,
            dropped_queue_full: 0,
        }
    }

    /// Offers a packet of `size_bytes` to the link at time `now`.
    ///
    /// Admission is drop-tail over the *waiting* packets: those whose
    /// serialization has not started by `now`. On acceptance the packet's
    /// whole link traversal is resolved immediately — serialization slot
    /// reserved, delivery instant computed and pushed onto the FIFO.
    ///
    /// Tie rule: a serialization that finishes exactly at `now` still
    /// occupies the transmitter and its queue slot for this admission
    /// check. The event-per-transmission model behaved the same way in
    /// the common topology — the arrival's delivery event was scheduled
    /// a propagation delay before `now`, the "tx done" event only a
    /// (shorter) serialization time before, so at equal instants the
    /// arrival was processed first and saw the slot still taken.
    pub(crate) fn enqueue(
        &mut self,
        packet: PacketRef,
        size_bytes: u32,
        now: SimTime,
    ) -> EnqueueOutcome {
        while self.starts.front().is_some_and(|&s| s < now) {
            self.starts.pop_front();
        }
        let busy = self.busy_until > now || (self.busy_until == now && self.enqueued > 0);
        let start = if busy {
            if self.starts.len() >= self.spec.queue_capacity {
                self.dropped_queue_full += 1;
                return EnqueueOutcome::Dropped(packet);
            }
            self.starts.push_back(self.busy_until);
            self.busy_until
        } else {
            now
        };
        let finish = start + self.tx_time_cached(size_bytes);
        self.busy_until = finish;
        self.enqueued += 1;
        let due = finish + self.spec.delay;
        self.push_delivery(due, packet);
        EnqueueOutcome::Accepted(due)
    }

    /// [`LinkSpec::tx_time`] through the single-entry size memo.
    fn tx_time_cached(&mut self, size_bytes: u32) -> SimDuration {
        if let Some((memo_size, tx)) = self.last_tx {
            if memo_size == size_bytes {
                return tx;
            }
        }
        let tx = self.spec.tx_time(size_bytes);
        self.last_tx = Some((size_bytes, tx));
        tx
    }

    /// Appends a packet to the delivery FIFO, due to arrive at the far
    /// end at `due`.
    pub(crate) fn push_delivery(&mut self, due: SimTime, packet: PacketRef) {
        debug_assert!(
            self.pending.back().is_none_or(|&(last, _)| due >= last),
            "delivery dues must be non-decreasing"
        );
        self.pending.push_back((due, packet));
    }

    /// Pops the next delivery if it is due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<PacketRef> {
        if self.pending.front()?.0 > now {
            return None;
        }
        self.pending.pop_front().map(|(_, packet)| packet)
    }

    /// Queue occupancy at `now` (excluding the packet on the wire):
    /// accepted packets whose serialization has not yet started.
    #[cfg(test)]
    pub(crate) fn queue_len(&self, now: SimTime) -> usize {
        self.starts.iter().filter(|&&s| s > now).count()
    }

    /// True if the transmitter is serializing a packet at `now`.
    #[cfg(test)]
    pub(crate) fn is_busy(&self, now: SimTime) -> bool {
        self.busy_until > now
    }
}

impl State for Link {
    /// The link's mutable runtime state. Endpoints and spec are
    /// build-time configuration: the ledger hashes them, a checkpoint
    /// does not carry them (they are rebuilt from the scenario spec).
    /// The `last_tx` serialization-time memo is in neither: it is a pure
    /// cache over the immutable spec, and whether it is warm depends
    /// only on call history the queues already pin down; restore resets
    /// it. The delivery FIFO is written as two runs, every due under one
    /// count and then every handle, the layout of the parallel arrays
    /// it once was.
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.hash_only(|h| {
            h.write_u32(self.from.0);
            h.write_u32(self.to.0);
            h.write_f64(self.spec.bandwidth_bps);
            h.write_u64(self.spec.delay.as_nanos());
            h.write_usize(self.spec.queue_capacity);
        });
        w.write_u64(self.busy_until.as_nanos());
        w.write_seq(&self.starts, |w, s| w.write_u64(s.as_nanos()));
        w.write_seq(&self.pending, |w, (d, _)| w.write_u64(d.as_nanos()));
        for (_, r) in &self.pending {
            w.write_u32(r.0);
        }
        w.write_u64(self.enqueued);
        w.write_u64(self.dropped_queue_full);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.busy_until = SimTime::from_nanos(r.read_u64()?);
        let instant = |r: &mut SnapReader<'_>| r.read_u64().map(SimTime::from_nanos);
        self.starts = r.read_seq(instant)?;
        let dues: Vec<SimTime> = r.read_seq(instant)?;
        // `pop_due` looks only at the front: a due behind a later one
        // would never be delivered on time.
        if let Some(pair) = dues.windows(2).find(|pair| pair[1] < pair[0]) {
            return Err(SnapError::Malformed(format!(
                "link delivery dues decrease: {} ns after {} ns",
                pair[1].as_nanos(),
                pair[0].as_nanos()
            )));
        }
        self.pending.clear();
        for due in dues {
            self.pending.push_back((due, PacketRef(r.read_u32()?)));
        }
        self.enqueued = r.read_u64()?;
        self.dropped_queue_full = r.read_u64()?;
        self.last_tx = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_state_law, state_bytes, state_hash};

    fn link(cap: usize) -> Link {
        Link::new(
            NodeId(0),
            NodeId(1),
            LinkSpec::new(8e6, SimDuration::from_millis(5), cap),
        )
    }

    #[test]
    fn tx_time_matches_bandwidth() {
        let spec = LinkSpec::new(8e6, SimDuration::ZERO, 1);
        // 1000 bytes at 8 Mbit/s = 1 ms.
        assert_eq!(spec.tx_time(1000), SimDuration::from_millis(1));
    }

    #[test]
    fn idle_link_starts_transmission() {
        let mut l = link(4);
        // 1000 bytes at 8 Mbit/s = 1 ms serialization + 5 ms propagation.
        match l.enqueue(PacketRef(1), 1000, SimTime::ZERO) {
            EnqueueOutcome::Accepted(due) => {
                assert_eq!(due, SimTime::ZERO + SimDuration::from_millis(6));
            }
            other => panic!("expected Accepted, got {other:?}"),
        }
        assert!(l.is_busy(SimTime::ZERO));
        assert!(!l.is_busy(SimTime::ZERO + SimDuration::from_millis(1)));
    }

    #[test]
    fn busy_link_queues_then_drops() {
        let mut l = link(2);
        let _ = l.enqueue(PacketRef(1), 1000, SimTime::ZERO);
        match l.enqueue(PacketRef(2), 1000, SimTime::ZERO) {
            EnqueueOutcome::Accepted(due) => {
                assert_eq!(due, SimTime::ZERO + SimDuration::from_millis(7));
            }
            other => panic!("expected Accepted, got {other:?}"),
        }
        match l.enqueue(PacketRef(3), 1000, SimTime::ZERO) {
            EnqueueOutcome::Accepted(due) => {
                assert_eq!(due, SimTime::ZERO + SimDuration::from_millis(8));
            }
            other => panic!("expected Accepted, got {other:?}"),
        }
        match l.enqueue(PacketRef(4), 1000, SimTime::ZERO) {
            EnqueueOutcome::Dropped(p) => assert_eq!(p, PacketRef(4)),
            other => panic!("expected Dropped, got {other:?}"),
        }
        assert_eq!(l.queue_len(SimTime::ZERO), 2);
        assert_eq!(l.dropped_queue_full, 1);
        assert_eq!(l.enqueued, 3);
    }

    #[test]
    fn queue_drains_as_serialization_progresses() {
        let mut l = link(2);
        let _ = l.enqueue(PacketRef(1), 1000, SimTime::ZERO);
        let _ = l.enqueue(PacketRef(2), 2000, SimTime::ZERO);
        // Packet 2 starts serializing at 1 ms (2000 bytes => 2 ms on the
        // wire), so the queue is empty from then on and a third packet
        // accepted at 1 ms finishes at 1 + 2 + 2 = 5 ms.
        let t1 = SimTime::ZERO + SimDuration::from_millis(1);
        assert_eq!(l.queue_len(SimTime::ZERO), 1);
        assert_eq!(l.queue_len(t1), 0);
        match l.enqueue(PacketRef(3), 2000, t1) {
            EnqueueOutcome::Accepted(due) => {
                assert_eq!(due, SimTime::ZERO + SimDuration::from_millis(10));
            }
            other => panic!("expected Accepted, got {other:?}"),
        }
        assert!(!l.is_busy(SimTime::ZERO + SimDuration::from_millis(5)));
    }

    #[test]
    fn delivery_fifo_pops_only_due_entries() {
        let mut l = link(2);
        let t1 = SimTime::ZERO + SimDuration::from_millis(1);
        let t2 = SimTime::ZERO + SimDuration::from_millis(2);
        l.push_delivery(t1, PacketRef(10));
        l.push_delivery(t2, PacketRef(11));
        assert_eq!(l.pop_due(SimTime::ZERO), None);
        assert_eq!(l.pop_due(t1), Some(PacketRef(10)));
        assert_eq!(l.pop_due(t1), None, "entry at t2 is not yet due");
        assert_eq!(l.pop_due(t2), Some(PacketRef(11)));
        assert_eq!(l.pop_due(t2), None);
    }

    #[test]
    fn snapshot_round_trips_queues_and_counters() {
        let mut l = link(2);
        let _ = l.enqueue(PacketRef(1), 1000, SimTime::ZERO);
        let _ = l.enqueue(PacketRef(2), 2000, SimTime::ZERO);
        let _ = l.enqueue(PacketRef(3), 1000, SimTime::ZERO);
        let _ = l.enqueue(PacketRef(4), 1000, SimTime::ZERO); // dropped
        assert_state_law(&l, || link(2));
        let bytes = state_bytes(&l);
        let mut restored = link(2);
        let mut r = SnapReader::new(&bytes);
        restored.read_state(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(state_hash(&l), state_hash(&restored));
        assert_eq!(
            restored.queue_len(SimTime::ZERO),
            l.queue_len(SimTime::ZERO)
        );
        assert_eq!(
            restored.pop_due(l.busy_until + l.spec.delay),
            Some(PacketRef(1))
        );
        // The spec is configuration: hashed, not saved.
        assert_ne!(state_hash(&link(3)), state_hash(&link(2)));
        assert_eq!(state_bytes(&link(3)), state_bytes(&link(2)));
    }

    #[test]
    fn restore_rejects_decreasing_dues() {
        let mut l = link(2);
        let _ = l.enqueue(PacketRef(1), 1000, SimTime::ZERO);
        let _ = l.enqueue(PacketRef(2), 1000, SimTime::ZERO);
        let mut bytes = state_bytes(&l);
        // Layout: busy_until, the `starts` count and entries, the due
        // count, then the dues. Swap the two dues.
        let first = 8 + 8 + 8 * l.starts.len() + 8;
        let (a, b) = bytes[first..first + 16].split_at_mut(8);
        a.swap_with_slice(b);
        let err = link(2)
            .read_state(&mut SnapReader::new(&bytes))
            .expect_err("a due behind a later one must be refused");
        assert!(matches!(err, SnapError::Malformed(_)), "{err}");
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = LinkSpec::new(0.0, SimDuration::ZERO, 1);
    }
}
