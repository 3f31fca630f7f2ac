//! Per-flow arrival-rate tracking.
//!
//! MAFIC's classification hinges on one question: did a flow's arrival
//! rate at the router *decrease* after the probe? The tracker keeps a
//! short sliding window of arrival timestamps per flow ("Update arriving
//! Packet Counting" in the paper's Figure 2) and answers rate queries
//! over arbitrary sub-windows — the rate just before the probe
//! (baseline) and the rate just before the 2×RTT deadline.
//!
//! Storage is a dense vector indexed by the interned [`FlowId`]: the
//! per-packet `record` is an array index plus a ring-buffer push, no
//! hashing.

use mafic_netsim::{FlowId, SimDuration, SimTime};
use mafic_obs::{SnapError, SnapReader, State, StateWrite};
use std::collections::VecDeque;

/// Sliding-window arrival recorder for all victim-bound flows at one
/// router.
#[derive(Debug)]
pub struct ArrivalTracker {
    horizon: SimDuration,
    max_flows: usize,
    /// Arrival windows, indexed densely by flow id. An empty deque means
    /// the flow is untracked (never seen, or evicted).
    flows: Vec<VecDeque<SimTime>>,
    /// Indices of the non-empty windows, in first-tracked order. Bounds
    /// the eviction scan to the tracked population (≤ `max_flows`)
    /// instead of every flow id the domain ever minted.
    active_ids: Vec<u32>,
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
    pub fn new(horizon: SimDuration, max_flows: usize) -> Self {
        assert!(!horizon.is_zero(), "horizon must be positive");
        assert!(max_flows > 0, "max_flows must be positive");
        ArrivalTracker {
            horizon,
            max_flows,
            flows: Vec::new(),
            active_ids: Vec::new(),
            evict_cursor: 0,
        }
    }

    /// Records one arrival of `flow` at `now`.
    pub fn record(&mut self, flow: FlowId, now: SimTime) {
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
        // Prune beyond the horizon.
        let cutoff = now.saturating_since(SimTime::ZERO);
        let keep_from = if cutoff > self.horizon {
            now.saturating_since(SimTime::ZERO) - self.horizon
        } else {
            SimDuration::ZERO
        };
        let keep_from = SimTime::ZERO + keep_from;
        while let Some(&front) = q.front() {
            if front < keep_from {
                q.pop_front();
            } else {
                break;
            }
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
        let len = self.active_ids.len();
        if len == 0 {
            return;
        }
        let sample = Self::EVICTION_SAMPLE.min(len);
        let mut best: Option<(SimTime, u32, usize)> = None;
        for i in 0..sample {
            let pos = (self.evict_cursor + i) % len;
            let idx = self.active_ids[pos];
            let last = self.flows[idx as usize]
                .back()
                .copied()
                .unwrap_or(SimTime::ZERO);
            match best {
                Some((b_last, b_idx, _)) if (b_last, b_idx) <= (last, idx) => {}
                _ => best = Some((last, idx, pos)),
            }
        }
        if let Some((_, idx, pos)) = best {
            // Replace rather than clear: an evicted flood flow can hold a
            // full horizon of timestamps, and under sustained eviction
            // pressure retained capacities would grow with every distinct
            // flow ever tracked. The dense index keeps only the empty
            // deque header (a few words) per id.
            self.flows[idx as usize] = VecDeque::new();
            self.active_ids.swap_remove(pos);
            self.evict_cursor = if len > 1 { (pos + 1) % (len - 1) } else { 0 };
        }
    }

    /// Number of arrivals of `flow` within `(end - window, end]`.
    #[must_use]
    pub fn count_in(&self, flow: FlowId, end: SimTime, window: SimDuration) -> usize {
        let Some(q) = self.flows.get(flow.index()) else {
            return 0;
        };
        let since_zero = end.saturating_since(SimTime::ZERO);
        let lo = SimTime::ZERO + (since_zero - since_zero.min(window));
        q.iter().filter(|&&t| t > lo && t <= end).count()
    }

    /// Arrival rate (packets/s) of `flow` over `[end - window, end]`.
    ///
    /// Returns 0 when the window is zero-length.
    #[must_use]
    pub fn rate_in(&self, flow: FlowId, end: SimTime, window: SimDuration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        self.count_in(flow, end, window) as f64 / window.as_secs_f64()
    }

    /// Number of flows currently tracked.
    #[must_use]
    pub fn tracked_flows(&self) -> usize {
        self.active_ids.len()
    }

    /// Drops all state (table flush at pushback end), keeping the dense
    /// allocation for the next activation.
    pub fn clear(&mut self) {
        for q in &mut self.flows {
            q.clear();
        }
        self.active_ids.clear();
        self.evict_cursor = 0;
    }
}

/// Largest flow index a checkpoint may name (the bound
/// `mafic_netsim::read_flow_id` applies to every `usize`-encoded id).
const MAX_RESTORED_FLOW_INDEX: u32 = 1 << 20;

impl State for ArrivalTracker {
    /// The eviction clock and the active windows. `active_ids` order is
    /// part of the eviction clock, so it is written positionally; the
    /// per-flow windows follow in that same order. `horizon` and
    /// `max_flows` are build-time configuration (hashed, not saved). The
    /// dense `flows` vector is rebuilt sized to the largest saved id —
    /// empty trailing headers are capacity, not state.
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

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.evict_cursor = r.read_usize()?;
        self.flows.clear();
        self.active_ids.clear();
        for _ in 0..r.read_len()? {
            let idx = r.read_u32()?;
            // The index sizes `flows` and section checksums are
            // recomputable, so it is attacker-controlled: same bound as
            // `mafic_netsim::read_flow_id`.
            if idx > MAX_RESTORED_FLOW_INDEX {
                return Err(SnapError::Malformed(format!(
                    "flow index {idx} out of range"
                )));
            }
            self.active_ids.push(idx);
            if idx as usize >= self.flows.len() {
                self.flows.resize_with(idx as usize + 1, VecDeque::new);
            }
            self.flows[idx as usize] = r.read_seq(|r| r.read_u64().map(SimTime::from_nanos))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, state_hash};

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
        assert_eq!(tr.tracked_flows(), 2);
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
        assert_eq!(tr.tracked_flows(), 0);
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
        assert_eq!(back.tracked_flows(), 2);
        assert_eq!(
            back.count_in(flow(3), t(100), SimDuration::from_millis(100)),
            1
        );
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
