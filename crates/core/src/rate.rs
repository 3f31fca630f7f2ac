//! Per-flow arrival-rate tracking.
//!
//! MAFIC's classification hinges on one question: did a flow's arrival
//! rate at the router *decrease* after the probe? The tracker keeps a
//! short sliding window of arrival timestamps per flow ("Update arriving
//! Packet Counting" in the paper's Figure 2) and answers rate queries
//! over arbitrary sub-windows — the rate just before the probe
//! (baseline) and the rate just before the 2×RTT deadline.
//!
//! Storage is a [`FlowSlab`] of window headers keyed by the interned
//! [`FlowId`], over one pool of fixed-size timestamp chunks shared by
//! every flow: a window is a linked run of chunks, so the per-packet
//! `record` is a slab probe plus a slot write, no hashing, and a router
//! pays a header only for the flows it tracks. A chunk a
//! window prunes past, or an evicted window's chunks, go on a free list
//! and are the next handed out, so which chunk is reused depends only
//! on the event sequence, and the pool grows only when every chunk is
//! in use.

use mafic_netsim::{FlowId, FlowSlab, SimDuration, SimTime};
use mafic_obs::{SnapError, SnapReader, State, StateWrite};

/// Timestamps per pool chunk.
const CHUNK: usize = 16;

/// The "no chunk" link.
const NIL: u32 = u32::MAX;

/// One pool chunk: a run of timestamps and the link to the window's
/// next chunk (or, while free, to the next free chunk).
#[derive(Debug)]
struct Chunk {
    stamps: [SimTime; CHUNK],
    next: u32,
}

/// A flow's arrival window: `len` non-decreasing timestamps laid out
/// from offset `start` of chunk `head` through chunk `tail`.
#[derive(Debug, Clone, Copy)]
struct Window {
    head: u32,
    tail: u32,
    start: u32,
    len: u32,
}

impl Window {
    /// An untracked flow (never seen, or evicted).
    const EMPTY: Window = Window {
        head: NIL,
        tail: NIL,
        start: 0,
        len: 0,
    };
}

/// The chunk pool with its free list threaded through `Chunk::next`.
#[derive(Debug)]
struct StampPool {
    chunks: Vec<Chunk>,
    free: u32,
}

impl StampPool {
    fn new() -> Self {
        StampPool {
            chunks: Vec::new(),
            free: NIL,
        }
    }

    /// Hands out the most recently freed chunk, else a new one.
    fn alloc(&mut self) -> u32 {
        if self.free == NIL {
            self.chunks.push(Chunk {
                stamps: [SimTime::ZERO; CHUNK],
                next: NIL,
            });
            return u32::try_from(self.chunks.len() - 1).expect("pool chunk count fits u32");
        }
        let c = self.free;
        self.free = std::mem::replace(&mut self.chunks[c as usize].next, NIL);
        c
    }

    fn release(&mut self, c: u32) {
        self.chunks[c as usize].next = self.free;
        self.free = c;
    }

    /// Forgets every chunk, keeping the pool's capacity.
    fn clear(&mut self) {
        self.chunks.clear();
        self.free = NIL;
    }

    fn push(&mut self, w: &mut Window, t: SimTime) {
        debug_assert!(w.len == 0 || self.back(w) <= t, "arrivals out of order");
        let pos = (w.start + w.len) as usize % CHUNK;
        if w.len == 0 {
            let c = self.alloc();
            *w = Window {
                head: c,
                tail: c,
                start: 0,
                len: 0,
            };
        } else if pos == 0 {
            let c = self.alloc();
            self.chunks[w.tail as usize].next = c;
            w.tail = c;
        }
        self.chunks[w.tail as usize].stamps[pos] = t;
        w.len += 1;
    }

    fn front(&self, w: &Window) -> SimTime {
        self.chunks[w.head as usize].stamps[w.start as usize]
    }

    fn back(&self, w: &Window) -> SimTime {
        let pos = (w.start + w.len - 1) as usize % CHUNK;
        self.chunks[w.tail as usize].stamps[pos]
    }

    fn pop_front(&mut self, w: &mut Window) {
        w.start += 1;
        w.len -= 1;
        if w.len == 0 {
            self.release(w.head);
            *w = Window::EMPTY;
        } else if w.start as usize == CHUNK {
            let old = w.head;
            w.head = self.chunks[old as usize].next;
            w.start = 0;
            self.release(old);
        }
    }

    /// Returns every chunk of `w` to the free list, head first.
    fn release_window(&mut self, w: &mut Window) {
        let mut c = w.head;
        for _ in 0..(w.start + w.len).div_ceil(CHUNK as u32) {
            let next = self.chunks[c as usize].next;
            self.release(c);
            c = next;
        }
        *w = Window::EMPTY;
    }

    /// The window's timestamps as one sorted slice per chunk.
    fn segments(&self, w: Window) -> impl Iterator<Item = &[SimTime]> + '_ {
        let (mut c, mut start, mut left) = (w.head, w.start as usize, w.len as usize);
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let chunk = &self.chunks[c as usize];
            let end = CHUNK.min(start + left);
            let seg = &chunk.stamps[start..end];
            left -= end - start;
            start = 0;
            c = chunk.next;
            Some(seg)
        })
    }
}

/// Sliding-window arrival recorder for all victim-bound flows at one
/// router.
#[derive(Debug)]
pub(crate) struct ArrivalTracker {
    horizon: SimDuration,
    max_flows: usize,
    /// The tracked flows' windows, none empty. The slab's storage order
    /// is the eviction clock's: a newly tracked flow goes last, and an
    /// evicted flow's place goes to the last one. The clock samples by
    /// position, so its scan is bounded by the tracked population
    /// (≤ `max_flows`), not by every flow id the domain ever minted.
    flows: FlowSlab<Window>,
    /// Every window's timestamps.
    pool: StampPool,
    /// Clock hand for sampled eviction.
    evict_cursor: usize,
}

impl ArrivalTracker {
    /// Creates a tracker that retains arrivals for `horizon` and at most
    /// `max_flows` flows (the stalest-touched flow is evicted beyond
    /// that).
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero or `max_flows` is zero.
    #[must_use]
    pub(crate) fn new(horizon: SimDuration, max_flows: usize) -> Self {
        assert!(!horizon.is_zero(), "horizon must be positive");
        assert!(max_flows > 0, "max_flows must be positive");
        ArrivalTracker {
            horizon,
            max_flows,
            flows: FlowSlab::new(),
            pool: StampPool::new(),
            evict_cursor: 0,
        }
    }

    /// Records one arrival of `flow` at `now`.
    pub(crate) fn record(&mut self, flow: FlowId, now: SimTime) {
        let w = match self.flows.get_mut(flow) {
            Some(w) => w,
            None => {
                if self.flows.len() >= self.max_flows {
                    self.evict_stalest();
                }
                self.flows.insert(flow, Window::EMPTY);
                self.flows.get_mut(flow).expect("just tracked")
            }
        };
        self.pool.push(w, now);
        // Prune beyond the horizon; `now` itself always stays.
        let since_zero = now.saturating_since(SimTime::ZERO);
        let keep_from = SimTime::ZERO + (since_zero - since_zero.min(self.horizon));
        while self.pool.front(w) < keep_from {
            self.pool.pop_front(w);
        }
    }

    /// Candidates examined per eviction (clock-hand sampling).
    const EVICTION_SAMPLE: usize = 8;

    fn evict_stalest(&mut self) {
        // Approximate stalest-first eviction: sample a bounded window of
        // candidates from a rotating cursor and evict the one with the
        // oldest most-recent arrival (ties to the lowest flow id). A full
        // min-scan would run once per packet of every unseen flow when a
        // spoofed flood pins the tracker at capacity — O(max_flows) on
        // the per-packet path. The sample keeps eviction O(1) and stays
        // deterministic: cursor movement depends only on the event
        // sequence.
        let len = self.flows.len();
        if len == 0 {
            return;
        }
        let sample = Self::EVICTION_SAMPLE.min(len);
        let mut best: Option<(SimTime, FlowId, usize)> = None;
        for i in 0..sample {
            let pos = (self.evict_cursor + i) % len;
            let (flow, w) = self.flows.entry_at(pos);
            let last = self.pool.back(w);
            match best {
                Some((b_last, b_flow, _)) if (b_last, b_flow) <= (last, flow) => {}
                _ => best = Some((last, flow, pos)),
            }
        }
        if let Some((_, flow, pos)) = best {
            // The evicted window's chunks go back to the pool, so under
            // sustained eviction pressure the pool stays sized to the
            // tracked population, not to every flow ever tracked.
            let mut w = self.flows.remove(flow).expect("sampled from the slab");
            self.pool.release_window(&mut w);
            self.evict_cursor = if len > 1 { (pos + 1) % (len - 1) } else { 0 };
        }
    }

    /// Number of arrivals of `flow` within `(end - window, end]`.
    #[must_use]
    pub(crate) fn count_in(&self, flow: FlowId, end: SimTime, window: SimDuration) -> usize {
        let Some(&w) = self.flows.get(flow) else {
            return 0;
        };
        let since_zero = end.saturating_since(SimTime::ZERO);
        let lo = SimTime::ZERO + (since_zero - since_zero.min(window));
        let mut n = 0;
        for seg in self.pool.segments(w) {
            let (first, last) = (seg[0], seg[seg.len() - 1]);
            if last <= lo {
                continue;
            }
            if first > end {
                break;
            }
            n += seg.partition_point(|&t| t <= end) - seg.partition_point(|&t| t <= lo);
        }
        n
    }

    /// Arrival rate (packets/s) of `flow` over `[end - window, end]`.
    ///
    /// Returns 0 when the window is zero-length.
    #[must_use]
    pub(crate) fn rate_in(&self, flow: FlowId, end: SimTime, window: SimDuration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        self.count_in(flow, end, window) as f64 / window.as_secs_f64()
    }

    /// Drops all state (table flush at pushback end), keeping the slab's
    /// and the pool's capacity for the next activation.
    pub(crate) fn clear(&mut self) {
        self.flows.clear();
        self.pool.clear();
        self.evict_cursor = 0;
    }
}

/// Largest flow index a checkpoint may name (the bound
/// `mafic_netsim::read_flow_id` applies to every `usize`-encoded id).
const MAX_RESTORED_FLOW_INDEX: u32 = 1 << 20;

impl State for ArrivalTracker {
    /// The eviction clock and the tracked windows. The slab's storage
    /// order is part of the eviction clock, so the windows are written
    /// in it, each as its flow index and a counted sequence of
    /// timestamps; restore inserts them in the same order, which
    /// rebuilds the same storage order. `horizon` and `max_flows` are
    /// build-time configuration (hashed, not saved). Which pool chunks
    /// hold a window is layout, not state: restore lays the windows out
    /// afresh.
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.hash_only(|h| {
            h.write_u64(self.horizon.as_nanos());
            h.write_usize(self.max_flows);
        });
        w.write_usize(self.evict_cursor);
        w.write_usize(self.flows.len());
        for pos in 0..self.flows.len() {
            let (flow, &window) = self.flows.entry_at(pos);
            w.write_u32(flow.index() as u32);
            w.write_usize(window.len as usize);
            for seg in self.pool.segments(window) {
                for t in seg {
                    w.write_u64(t.as_nanos());
                }
            }
        }
    }

    /// Rejects what the windows cannot hold: a flow listed twice (its
    /// chunks would be linked twice), an empty window (`record` would
    /// list the flow again), and timestamps that decrease (`count_in`
    /// searches each chunk as a sorted run).
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.evict_cursor = r.read_usize()?;
        self.flows.clear();
        self.pool.clear();
        for _ in 0..r.read_len()? {
            let idx = r.read_u32()?;
            // The index sizes the slab's index and section checksums are
            // recomputable, so it is attacker-controlled: same bound as
            // `mafic_netsim::read_flow_id`.
            if idx > MAX_RESTORED_FLOW_INDEX {
                return Err(SnapError::Malformed(format!(
                    "flow index {idx} out of range"
                )));
            }
            let flow = FlowId::from_index(idx as usize);
            if self.flows.contains(flow) {
                return Err(SnapError::Malformed(format!(
                    "flow index {idx} listed twice"
                )));
            }
            let n = r.read_len()?;
            if n == 0 {
                return Err(SnapError::Malformed(format!(
                    "flow index {idx} has an empty window"
                )));
            }
            let mut w = Window::EMPTY;
            for _ in 0..n {
                let t = SimTime::from_nanos(r.read_u64()?);
                if w.len != 0 && t < self.pool.back(&w) {
                    return Err(SnapError::Malformed(format!(
                        "flow index {idx}: arrival timestamps decrease"
                    )));
                }
                self.pool.push(&mut w, t);
            }
            self.flows.insert(flow, w);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, state_hash};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    /// The tracker as it was before the chunk pool: one deque per flow.
    /// The differential test below holds the pool to it, answer for
    /// answer and byte for byte.
    struct Oracle {
        horizon: SimDuration,
        max_flows: usize,
        flows: Vec<VecDeque<SimTime>>,
        active_ids: Vec<u32>,
        evict_cursor: usize,
    }

    impl Oracle {
        fn new(horizon: SimDuration, max_flows: usize) -> Self {
            Oracle {
                horizon,
                max_flows,
                flows: Vec::new(),
                active_ids: Vec::new(),
                evict_cursor: 0,
            }
        }

        fn record(&mut self, flow: FlowId, now: SimTime) {
            let idx = flow.index();
            if idx >= self.flows.len() {
                self.flows.resize_with(idx + 1, VecDeque::new);
            }
            if self.flows[idx].is_empty() {
                if self.active_ids.len() >= self.max_flows {
                    self.evict_stalest();
                }
                self.active_ids.push(idx as u32);
            }
            let q = &mut self.flows[idx];
            q.push_back(now);
            let since_zero = now.saturating_since(SimTime::ZERO);
            let keep_from = SimTime::ZERO + (since_zero - since_zero.min(self.horizon));
            while q.front().is_some_and(|&front| front < keep_from) {
                q.pop_front();
            }
        }

        fn evict_stalest(&mut self) {
            let len = self.active_ids.len();
            let sample = ArrivalTracker::EVICTION_SAMPLE.min(len);
            let mut best: Option<(SimTime, u32, usize)> = None;
            for i in 0..sample {
                let pos = (self.evict_cursor + i) % len;
                let idx = self.active_ids[pos];
                let last = *self.flows[idx as usize].back().unwrap();
                match best {
                    Some((b_last, b_idx, _)) if (b_last, b_idx) <= (last, idx) => {}
                    _ => best = Some((last, idx, pos)),
                }
            }
            let (_, idx, pos) = best.unwrap();
            self.flows[idx as usize] = VecDeque::new();
            self.active_ids.swap_remove(pos);
            self.evict_cursor = if len > 1 { (pos + 1) % (len - 1) } else { 0 };
        }

        fn count_in(&self, flow: FlowId, end: SimTime, window: SimDuration) -> usize {
            let Some(q) = self.flows.get(flow.index()) else {
                return 0;
            };
            let since_zero = end.saturating_since(SimTime::ZERO);
            let lo = SimTime::ZERO + (since_zero - since_zero.min(window));
            q.iter().filter(|&&t| t > lo && t <= end).count()
        }

        fn clear(&mut self) {
            for q in &mut self.flows {
                q.clear();
            }
            self.active_ids.clear();
            self.evict_cursor = 0;
        }
    }

    impl State for Oracle {
        fn write_state<W: StateWrite>(&self, w: &mut W) {
            w.hash_only(|h| {
                h.write_u64(self.horizon.as_nanos());
                h.write_usize(self.max_flows);
            });
            w.write_usize(self.evict_cursor);
            w.write_usize(self.active_ids.len());
            for &idx in &self.active_ids {
                w.write_u32(idx);
                w.write_seq(&self.flows[idx as usize], |w, t| w.write_u64(t.as_nanos()));
            }
        }

        fn read_state(&mut self, _: &mut SnapReader<'_>) -> Result<(), SnapError> {
            unreachable!("the oracle is never restored")
        }
    }

    #[test]
    fn pool_matches_per_flow_deques() {
        const FLOWS: usize = 24;
        let horizon = SimDuration::from_millis(60);
        for seed in [1u64, 2, 3] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut pool = ArrivalTracker::new(horizon, 6);
            let mut oracle = Oracle::new(horizon, 6);
            let mut now = SimTime::ZERO;
            let mut longest = 0;
            for op in 0..4_000 {
                // Steps of zero put equal timestamps in one window.
                now += SimDuration::from_nanos(rng.gen_range(0..500_000));
                if op % 1_300 == 1_299 {
                    pool.clear();
                    oracle.clear();
                } else {
                    // A few hot flows keep windows chunks long; the
                    // rest churn through eviction.
                    let f = if rng.gen_bool(0.6) {
                        rng.gen_range(0..3)
                    } else {
                        rng.gen_range(0..FLOWS)
                    };
                    pool.record(flow(f), now);
                    oracle.record(flow(f), now);
                    longest = longest.max(pool.flows.get(flow(f)).map_or(0, |w| w.len as usize));
                }
                assert_eq!(
                    state_bytes(&pool),
                    state_bytes(&oracle),
                    "seed {seed} op {op}"
                );
                assert_eq!(
                    state_hash(&pool),
                    state_hash(&oracle),
                    "seed {seed} op {op}"
                );
                for f in 0..=FLOWS {
                    let end = SimTime::from_nanos(
                        now.as_nanos()
                            .saturating_sub(rng.gen_range(0..80_000_000u64)),
                    );
                    let window = SimDuration::from_nanos(rng.gen_range(0..90_000_000u64));
                    for (end, window) in [(end, window), (now, horizon), (now, SimDuration::ZERO)] {
                        assert_eq!(
                            pool.count_in(flow(f), end, window),
                            oracle.count_in(flow(f), end, window),
                            "seed {seed} op {op} flow {f}"
                        );
                    }
                }
            }
            assert!(longest > 2 * CHUNK, "windows must span several chunks");
        }
    }

    fn flow(n: usize) -> FlowId {
        FlowId::from_index(n)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn counts_within_window_only() {
        let mut tr = ArrivalTracker::new(SimDuration::from_secs(10), 64);
        for ms in [100u64, 200, 300, 400, 500] {
            tr.record(flow(1), t(ms));
        }
        // Window (300, 500]: arrivals at 400 and 500.
        assert_eq!(
            tr.count_in(flow(1), t(500), SimDuration::from_millis(200)),
            2
        );
        // Window (0, 500]: all five.
        assert_eq!(
            tr.count_in(flow(1), t(500), SimDuration::from_millis(500)),
            5
        );
        // Other flows are independent.
        assert_eq!(
            tr.count_in(flow(2), t(500), SimDuration::from_millis(500)),
            0
        );
    }

    #[test]
    fn rate_is_count_over_window() {
        let mut tr = ArrivalTracker::new(SimDuration::from_secs(10), 64);
        for ms in (0..10).map(|i| 100 + i * 10) {
            tr.record(flow(1), t(ms));
        }
        // 10 packets in (90, 190] ... window 100ms => 100 pps.
        let rate = tr.rate_in(flow(1), t(190), SimDuration::from_millis(100));
        assert!((rate - 100.0).abs() < 1e-9, "rate {rate}");
    }

    #[test]
    fn zero_window_rate_is_zero() {
        let tr = ArrivalTracker::new(SimDuration::from_secs(1), 4);
        assert_eq!(tr.rate_in(flow(1), t(100), SimDuration::ZERO), 0.0);
    }

    #[test]
    fn horizon_prunes_old_arrivals() {
        let mut tr = ArrivalTracker::new(SimDuration::from_millis(100), 4);
        tr.record(flow(1), t(0));
        tr.record(flow(1), t(50));
        tr.record(flow(1), t(500));
        // The t(0) and t(50) arrivals are beyond the 100ms horizon.
        assert_eq!(
            tr.count_in(flow(1), t(500), SimDuration::from_millis(500)),
            1
        );
    }

    #[test]
    fn capacity_evicts_stalest_flow() {
        let mut tr = ArrivalTracker::new(SimDuration::from_secs(10), 2);
        tr.record(flow(1), t(10));
        tr.record(flow(2), t(20));
        tr.record(flow(3), t(30)); // evicts flow 1
        assert_eq!(tr.flows.len(), 2);
        assert_eq!(
            tr.count_in(flow(1), t(100), SimDuration::from_millis(100)),
            0
        );
        assert_eq!(
            tr.count_in(flow(2), t(100), SimDuration::from_millis(100)),
            1
        );
    }

    #[test]
    fn clear_resets() {
        let mut tr = ArrivalTracker::new(SimDuration::from_secs(1), 4);
        tr.record(flow(1), t(10));
        tr.clear();
        assert_eq!(tr.flows.len(), 0);
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_rejected() {
        let _ = ArrivalTracker::new(SimDuration::ZERO, 4);
    }

    #[test]
    fn snapshot_round_trips_windows_and_eviction_clock() {
        let mut tr = ArrivalTracker::new(SimDuration::from_secs(10), 2);
        tr.record(flow(1), t(10));
        tr.record(flow(2), t(20));
        tr.record(flow(3), t(30)); // forces an eviction, moves the clock
        assert_state_law(&tr, || ArrivalTracker::new(SimDuration::from_secs(10), 2));
        let bytes = state_bytes(&tr);

        let mut back = ArrivalTracker::new(SimDuration::from_secs(10), 2);
        let mut r = mafic_obs::SnapReader::new(&bytes);
        back.read_state(&mut r).expect("restore");
        assert!(r.is_empty());

        assert_eq!(state_hash(&tr), state_hash(&back));
        // The capacity is configuration: hashed, and not in `bytes`
        // (`wider` just restored from them unchanged).
        let mut wider = ArrivalTracker::new(SimDuration::from_secs(10), 3);
        wider
            .read_state(&mut mafic_obs::SnapReader::new(&bytes))
            .expect("restore");
        assert_ne!(state_hash(&tr), state_hash(&wider));
        assert_eq!(back.flows.len(), 2);
        assert_eq!(
            back.count_in(flow(3), t(100), SimDuration::from_millis(100)),
            1
        );
    }

    /// A tracker holding flows 1 and 2, and its payload.
    fn two_flow_payload() -> (ArrivalTracker, Vec<u8>) {
        let mut tr = ArrivalTracker::new(SimDuration::from_secs(10), 4);
        tr.record(flow(1), t(10));
        tr.record(flow(1), t(20));
        tr.record(flow(2), t(30));
        let bytes = state_bytes(&tr);
        (tr, bytes)
    }

    fn restore(bytes: &[u8]) -> Result<(), SnapError> {
        ArrivalTracker::new(SimDuration::from_secs(10), 4).read_state(&mut SnapReader::new(bytes))
    }

    // Payload layout: evict_cursor (u64), active count (u64), then per
    // flow its u32 index, its window length (u64) and the timestamps.
    const FLOW1_AT: usize = 16;
    const FLOW2_AT: usize = FLOW1_AT + 4 + 8 + 2 * 8;

    #[test]
    fn restore_rejects_a_flow_listed_twice() {
        let (_, mut bytes) = two_flow_payload();
        assert!(restore(&bytes).is_ok());
        bytes[FLOW2_AT..FLOW2_AT + 4].copy_from_slice(&1u32.to_le_bytes());
        let err = restore(&bytes).expect_err("a repeated flow index must be refused");
        assert!(matches!(err, SnapError::Malformed(_)), "{err}");
    }

    #[test]
    fn restore_rejects_decreasing_timestamps() {
        let (_, mut bytes) = two_flow_payload();
        let stamps = FLOW1_AT + 4 + 8;
        let (a, b) = bytes[stamps..stamps + 16].split_at_mut(8);
        a.swap_with_slice(b);
        let err = restore(&bytes).expect_err("a window that runs backwards must be refused");
        assert!(matches!(err, SnapError::Malformed(_)), "{err}");
    }

    #[test]
    fn restore_rejects_an_empty_window() {
        let (_, mut bytes) = two_flow_payload();
        // Flow 2 is last: cut its one timestamp and zero its count.
        bytes.truncate(bytes.len() - 8);
        bytes[FLOW2_AT + 4..FLOW2_AT + 12].copy_from_slice(&0u64.to_le_bytes());
        let err = restore(&bytes).expect_err("an active flow with no arrivals must be refused");
        assert!(matches!(err, SnapError::Malformed(_)), "{err}");
    }

    #[test]
    fn restore_rejects_a_hostile_flow_index() {
        let mut tr = ArrivalTracker::new(SimDuration::from_secs(10), 2);
        tr.record(flow(1), t(10));
        let mut bytes = state_bytes(&tr);
        // Layout: evict_cursor (u64), active count (u64), then the first
        // entry's u32 flow index.
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut back = ArrivalTracker::new(SimDuration::from_secs(10), 2);
        let err = back
            .read_state(&mut mafic_obs::SnapReader::new(&bytes))
            .expect_err("a 4 G-slot resize must be refused");
        assert!(matches!(err, SnapError::Malformed(_)), "{err}");
    }
}
