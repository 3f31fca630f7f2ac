//! Hierarchical timer wheel for filter flow-timers.
//!
//! MAFIC arms one probation timer per sampled flow and (optionally) one
//! re-validation timer per nice flow — at scale, hundreds of thousands of
//! concurrent timers. Pushing each through the global binary-heap event
//! queue costs `O(log n)` per packet *and* interleaves timer churn with
//! packet events. The wheel gives `O(1)` insertion into tick-indexed
//! buckets, with a three-level hierarchy (plus an overflow list) covering
//! any horizon.
//!
//! Layout: level 0 has 256 one-tick slots (tick = 2^20 ns ≈ 1.05 ms),
//! level 1 has 64 slots of 256 ticks (≈ 268 ms each), level 2 has 64
//! slots of 16 384 ticks (≈ 17 s each); anything further out waits in the
//! overflow list and cascades down as the wheel turns.
//!
//! Determinism: expiring entries fire in `(deadline, insertion sequence)`
//! order — exactly the tie-break rule of the main event heap — so replays
//! are bit-identical. Deadlines are exact (sub-tick nanoseconds are kept
//! on the entry); the wheel's granularity affects bucketing only, never
//! firing times.
//!
//! Popping allocates nothing in steady state: expired timers are
//! appended to a buffer the caller owns (the simulator keeps one across
//! the whole run), the wheel sorts them in a scratch vector it keeps,
//! and a bucket that cascades is swapped for a recycled empty vector
//! rather than left without capacity.
//!
//! There is no cancel operation: consumers (the MAFIC dropper) treat a
//! stale fire as a no-op by re-checking per-flow state, which is cheaper
//! than tombstone bookkeeping on the arm-heavy path.

use crate::time::SimTime;
use mafic_obs::{SnapError, SnapReader, StateWrite};

/// log2 of the tick length in nanoseconds (2^20 ns ≈ 1.05 ms).
const TICK_SHIFT: u32 = 20;
const L0_SLOTS: usize = 256;
const L1_SLOTS: usize = 64;
const L2_SLOTS: usize = 64;
/// Ticks covered by level 0.
const L0_SPAN: u64 = L0_SLOTS as u64;
/// Ticks covered by levels 0–1.
const L1_SPAN: u64 = L0_SPAN * L1_SLOTS as u64;
/// Ticks covered by levels 0–2.
const L2_SPAN: u64 = L1_SPAN * L2_SLOTS as u64;

#[derive(Debug, Clone)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

#[inline]
fn tick_of(at: SimTime) -> u64 {
    at.as_nanos() >> TICK_SHIFT
}

/// A three-level hierarchical timer wheel with exact deadlines.
#[derive(Debug)]
pub(crate) struct TimerWheel<T> {
    level0: Vec<Vec<Entry<T>>>,
    level1: Vec<Vec<Entry<T>>>,
    level2: Vec<Vec<Entry<T>>>,
    overflow: Vec<Entry<T>>,
    /// The tick the wheel has advanced to.
    cur_tick: u64,
    len: usize,
    next_seq: u64,
    scheduled_total: u64,
    /// Cached earliest deadline; `None` when it must be recomputed.
    cached_next: Option<SimTime>,
    cache_valid: bool,
    /// Scratch kept across pops, empty between them: the entries one
    /// pop fires, gathered for sorting ...
    fired: Vec<Entry<T>>,
    /// ... and the empty vector swapped in for a bucket that cascades.
    spare: Vec<Entry<T>>,
}

impl<T> TimerWheel<T> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            level0: (0..L0_SLOTS).map(|_| Vec::new()).collect(),
            level1: (0..L1_SLOTS).map(|_| Vec::new()).collect(),
            level2: (0..L2_SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            cur_tick: 0,
            len: 0,
            next_seq: 0,
            scheduled_total: 0,
            cached_next: None,
            cache_valid: true,
            fired: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Number of pending timers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Total timers ever scheduled (run accounting).
    pub(crate) fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Arms a timer firing at `at` (clamped to the wheel's present).
    pub(crate) fn insert(&mut self, at: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.len += 1;
        if self.cache_valid {
            self.cached_next = Some(match self.cached_next {
                Some(prev) if prev <= at => prev,
                _ => at,
            });
        }
        self.place(Entry { at, seq, payload });
    }

    fn place(&mut self, entry: Entry<T>) {
        let at_tick = tick_of(entry.at).max(self.cur_tick);
        let delta = at_tick - self.cur_tick;
        if delta < L0_SPAN {
            self.level0[(at_tick % L0_SPAN) as usize].push(entry);
        } else if delta < L1_SPAN {
            self.level1[((at_tick / L0_SPAN) % L1_SLOTS as u64) as usize].push(entry);
        } else if delta < L2_SPAN {
            self.level2[((at_tick / L1_SPAN) % L2_SLOTS as u64) as usize].push(entry);
        } else {
            self.overflow.push(entry);
        }
    }

    /// The exact instant of the earliest pending timer, if any.
    pub(crate) fn next_expiry(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if !self.cache_valid {
            self.cached_next = self.scan_next();
            self.cache_valid = true;
        }
        self.cached_next
    }

    fn scan_next(&self) -> Option<SimTime> {
        // No cross-slot ordering shortcut is safe outside level 0:
        // cascading only happens when `pop_expired` crosses a level
        // boundary, so an outer-level entry can be nearer than every
        // level-0 entry, and a level's *base* slot can hold next-rotation
        // entries (a full span away) while a later slot holds this
        // rotation's nearest — "first non-empty slot" lies in both cases.
        // Level 0 is the exception (one exact tick per slot, entries
        // always within [cur, cur+256)); the outer levels and the
        // overflow list are scanned entry-wise. The result is cached by
        // `next_expiry` and only recomputed after a pop, so the scan
        // amortizes across events.
        let mut best: Option<SimTime> = None;
        let mut consider = |candidate: SimTime| match best {
            Some(b) if b <= candidate => {}
            _ => best = Some(candidate),
        };
        for step in 0..L0_SLOTS as u64 {
            let slot = &self.level0[((self.cur_tick + step) % L0_SPAN) as usize];
            if let Some(min) = slot.iter().map(|e| e.at).min() {
                consider(min);
                break;
            }
        }
        for slot in self.level1.iter().chain(self.level2.iter()) {
            if let Some(min) = slot.iter().map(|e| e.at).min() {
                consider(min);
            }
        }
        if let Some(min) = self.overflow.iter().map(|e| e.at).min() {
            consider(min);
        }
        best
    }

    /// Advances the wheel to `now` and appends every timer with
    /// `deadline <= now` to `out`, in `(deadline, sequence)` order.
    ///
    /// `out` belongs to the caller, which drains it between calls, and
    /// the wheel's own sort and cascade scratch is kept across calls:
    /// once the buffers have grown to the largest batch, a pop
    /// allocates nothing.
    pub(crate) fn pop_expired(&mut self, now: SimTime, out: &mut Vec<T>) {
        if self.len == 0 {
            self.cur_tick = self.cur_tick.max(tick_of(now));
            return;
        }
        let target_tick = tick_of(now);
        let mut fired = std::mem::take(&mut self.fired);
        loop {
            let slot = &mut self.level0[(self.cur_tick % L0_SPAN) as usize];
            if !slot.is_empty() {
                // Entries here share this tick; sub-tick nanoseconds may
                // still put some past `now` on the final tick.
                let mut i = 0;
                while i < slot.len() {
                    if slot[i].at <= now {
                        fired.push(slot.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
            }
            if self.cur_tick >= target_tick {
                break;
            }
            self.cur_tick += 1;
            if self.cur_tick.is_multiple_of(L0_SPAN) {
                let l1_slot = ((self.cur_tick / L0_SPAN) % L1_SLOTS as u64) as usize;
                let entries =
                    std::mem::replace(&mut self.level1[l1_slot], std::mem::take(&mut self.spare));
                self.cascade(entries);
            }
            if self.cur_tick.is_multiple_of(L1_SPAN) {
                let l2_slot = ((self.cur_tick / L1_SPAN) % L2_SLOTS as u64) as usize;
                let entries =
                    std::mem::replace(&mut self.level2[l2_slot], std::mem::take(&mut self.spare));
                self.cascade(entries);
            }
            if self.cur_tick.is_multiple_of(L2_SPAN) {
                let entries =
                    std::mem::replace(&mut self.overflow, std::mem::take(&mut self.spare));
                self.cascade(entries);
            }
        }
        // `(at, seq)` is unique per entry, so the unstable sort yields
        // the one order a stable sort would, without a merge buffer.
        fired.sort_unstable_by_key(|e| (e.at, e.seq));
        self.len -= fired.len();
        self.cache_valid = false;
        out.extend(fired.drain(..).map(|e| e.payload));
        self.fired = fired;
    }

    /// Re-places the entries of a bucket the wheel just turned past,
    /// then keeps the emptied vector as the spare the next turned-past
    /// bucket is swapped for.
    fn cascade(&mut self, mut entries: Vec<Entry<T>>) {
        for e in entries.drain(..) {
            self.place(e);
        }
        self.spare = entries;
    }

    /// Walks the wheel in physical storage order — every slot of every
    /// level, then the overflow list — encoding each payload through
    /// `payload_fn`. Storage order is deterministic (it depends only on
    /// the insert/cascade/pop sequence), so it is replay-stable for the
    /// ledger and, restored verbatim, reproduces the exact firing
    /// order. The ledger names each non-empty slot and skips the empty
    /// ones; a checkpoint carries every slot's length. The
    /// `cached_next`/`cache_valid` pair is in neither: it is a pure
    /// cache whose warmth depends on `next_expiry` *read* patterns, and
    /// reads must never perturb the ledger.
    pub(crate) fn write_state<W: StateWrite>(
        &self,
        w: &mut W,
        mut payload_fn: impl FnMut(&T, &mut W),
    ) {
        let mut entry_fn = |entry: &Entry<T>, w: &mut W| {
            w.write_u64(entry.at.as_nanos());
            w.write_u64(entry.seq);
            payload_fn(&entry.payload, w);
        };
        w.write_u64(self.cur_tick);
        w.write_usize(self.len);
        w.write_u64(self.next_seq);
        w.write_u64(self.scheduled_total);
        for (level_tag, level) in [(0u8, &self.level0), (1, &self.level1), (2, &self.level2)] {
            for (slot_idx, slot) in level.iter().enumerate() {
                if slot.is_empty() {
                    w.snap_only(|w| w.write_usize(0));
                    continue;
                }
                w.hash_only(|h| {
                    h.write_u8(level_tag);
                    h.write_usize(slot_idx);
                });
                w.write_usize(slot.len());
                for entry in slot {
                    entry_fn(entry, w);
                }
            }
        }
        w.write_seq(&self.overflow, |w, entry| entry_fn(entry, w));
    }

    /// Overlays checkpointed wheel state; the expiry cache is
    /// invalidated and recomputed on the next `next_expiry` call.
    pub(crate) fn read_state(
        &mut self,
        r: &mut SnapReader<'_>,
        mut payload_fn: impl FnMut(&mut SnapReader<'_>) -> Result<T, SnapError>,
    ) -> Result<(), SnapError> {
        let mut read_entry = |r: &mut SnapReader<'_>| {
            Ok(Entry {
                at: SimTime::from_nanos(r.read_u64()?),
                seq: r.read_u64()?,
                payload: payload_fn(r)?,
            })
        };
        self.cur_tick = r.read_u64()?;
        self.len = r.read_usize()?;
        self.next_seq = r.read_u64()?;
        self.scheduled_total = r.read_u64()?;
        for level in [&mut self.level0, &mut self.level1, &mut self.level2] {
            for slot in level.iter_mut() {
                *slot = r.read_seq(&mut read_entry)?;
            }
        }
        self.overflow = r.read_seq(&mut read_entry)?;
        self.cached_next = None;
        self.cache_valid = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_state_law, state_bytes, state_hash};
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    impl<T> TimerWheel<T> {
        /// One pop into a fresh buffer.
        fn pop(&mut self, now: SimTime) -> Vec<T> {
            let mut out = Vec::new();
            self.pop_expired(now, &mut out);
            out
        }

        /// `pop_expired` as it was before the caller-owned buffer: a
        /// fresh `Vec` per call, cascades through `mem::take`, a stable
        /// sort. The differential test holds the new pop to it.
        fn pop_returning_vec(&mut self, now: SimTime) -> Vec<T> {
            if self.len == 0 {
                self.cur_tick = self.cur_tick.max(tick_of(now));
                return Vec::new();
            }
            let target_tick = tick_of(now);
            let mut fired: Vec<Entry<T>> = Vec::new();
            loop {
                let slot = &mut self.level0[(self.cur_tick % L0_SPAN) as usize];
                let mut i = 0;
                while i < slot.len() {
                    if slot[i].at <= now {
                        fired.push(slot.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                if self.cur_tick >= target_tick {
                    break;
                }
                self.cur_tick += 1;
                if self.cur_tick.is_multiple_of(L0_SPAN) {
                    let l1_slot = ((self.cur_tick / L0_SPAN) % L1_SLOTS as u64) as usize;
                    for e in std::mem::take(&mut self.level1[l1_slot]) {
                        self.place(e);
                    }
                }
                if self.cur_tick.is_multiple_of(L1_SPAN) {
                    let l2_slot = ((self.cur_tick / L1_SPAN) % L2_SLOTS as u64) as usize;
                    for e in std::mem::take(&mut self.level2[l2_slot]) {
                        self.place(e);
                    }
                }
                if self.cur_tick.is_multiple_of(L2_SPAN) {
                    for e in std::mem::take(&mut self.overflow) {
                        self.place(e);
                    }
                }
            }
            fired.sort_by_key(|e| (e.at, e.seq));
            self.len -= fired.len();
            self.cache_valid = false;
            fired.into_iter().map(|e| e.payload).collect()
        }
    }

    #[test]
    fn reused_buffer_pop_matches_returned_vec_pop() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Horizons by where an insert lands: level 0, level 1, level 2,
        // overflow (level 2 spans about 18 minutes).
        const HORIZONS_MS: [(u64, u64); 4] = [
            (0, 260),
            (300, 16_000),
            (20_000, 1_000_000),
            (1_200_000, 2_400_000),
        ];
        for seed in [1u64, 2, 3] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut new: TimerWheel<u64> = TimerWheel::new();
            let mut old: TimerWheel<u64> = TimerWheel::new();
            let mut horizon_of = Vec::new();
            let mut fired_by_horizon = [0usize; 4];
            let mut out = Vec::new();
            let mut now = SimTime::ZERO;
            while now < t(3 * 3_600_000) {
                for _ in 0..rng.gen_range(0u32..6) {
                    let h = rng.gen_range(0..HORIZONS_MS.len());
                    let (lo, hi) = HORIZONS_MS[h];
                    // Odd nanoseconds split ticks; a burst shares one
                    // deadline, so only the sequence orders it.
                    let mut at = now + SimDuration::from_millis(rng.gen_range(lo..hi));
                    if rng.gen_bool(0.5) {
                        at += SimDuration::from_nanos(rng.gen_range(0..1 << 21));
                    }
                    let burst = if rng.gen_bool(0.1) {
                        rng.gen_range(3u32..40)
                    } else {
                        1
                    };
                    for _ in 0..burst {
                        let id = horizon_of.len() as u64;
                        horizon_of.push(h);
                        new.insert(at, id);
                        old.insert(at, id);
                    }
                }
                now = match new.next_expiry() {
                    Some(next) if rng.gen_bool(0.7) => next.max(now),
                    _ => now + SimDuration::from_millis(rng.gen_range(0..120_000)),
                };
                assert_eq!(new.next_expiry(), old.next_expiry());
                new.pop_expired(now, &mut out);
                let expected = old.pop_returning_vec(now);
                assert_eq!(out, expected, "seed {seed} at {now:?}");
                for &id in &out {
                    fired_by_horizon[horizon_of[id as usize]] += 1;
                }
                out.clear();
                assert_eq!(
                    state_bytes(&new),
                    state_bytes(&old),
                    "seed {seed} at {now:?}"
                );
                assert_eq!(state_hash(&new), state_hash(&old), "seed {seed} at {now:?}");
            }
            assert!(
                fired_by_horizon.iter().all(|&n| n >= 20),
                "every level must cascade timers out: {fired_by_horizon:?}"
            );
        }
    }

    /// The wheel's walk takes its payload codec as an argument; fixing
    /// it to `u64` gives the law harness a plain [`State`] to drive.
    impl mafic_obs::State for TimerWheel<u64> {
        fn write_state<W: StateWrite>(&self, w: &mut W) {
            TimerWheel::write_state(self, w, |p, w| w.write_u64(*p));
        }

        fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            TimerWheel::read_state(self, r, |r| r.read_u64())
        }
    }

    #[test]
    fn fires_in_deadline_then_insertion_order() {
        let mut w = TimerWheel::new();
        w.insert(t(10), "b");
        w.insert(t(5), "a");
        w.insert(t(10), "c");
        assert_eq!(w.next_expiry(), Some(t(5)));
        assert_eq!(w.pop(t(5)), vec!["a"]);
        assert_eq!(w.next_expiry(), Some(t(10)));
        assert_eq!(w.pop(t(10)), vec!["b", "c"]);
        assert_eq!(w.next_expiry(), None);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn sub_tick_deadlines_are_exact() {
        let mut w = TimerWheel::new();
        // Two deadlines inside the same ~1ms tick.
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(900);
        w.insert(b, "late");
        w.insert(a, "early");
        assert_eq!(w.next_expiry(), Some(a));
        assert_eq!(w.pop(a), vec!["early"]);
        assert_eq!(w.next_expiry(), Some(b));
        assert_eq!(w.pop(b), vec!["late"]);
    }

    #[test]
    fn long_horizons_cascade_down_correctly() {
        let mut w = TimerWheel::new();
        // Level 1 (~500 ms), level 2 (~60 s), and overflow (~30 min).
        w.insert(t(500), 1);
        w.insert(t(60_000), 2);
        w.insert(t(30 * 60_000), 3);
        assert_eq!(w.next_expiry(), Some(t(500)));
        assert_eq!(w.pop(t(500)), vec![1]);
        assert_eq!(w.next_expiry(), Some(t(60_000)));
        assert_eq!(w.pop(t(60_000)), vec![2]);
        assert_eq!(w.next_expiry(), Some(t(30 * 60_000)));
        assert_eq!(w.pop(t(30 * 60_000)), vec![3]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn jumping_past_several_deadlines_fires_all_in_order() {
        let mut w = TimerWheel::new();
        for ms in [7u64, 3, 900, 40, 3] {
            w.insert(t(ms), ms);
        }
        let fired = w.pop(t(1_000));
        assert_eq!(fired, vec![3, 3, 7, 40, 900]);
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let mut w = TimerWheel::new();
        let _ = w.pop(t(100)); // advance the wheel
        w.insert(t(50), "stale");
        assert_eq!(w.next_expiry(), Some(t(50)));
        assert_eq!(w.pop(t(100)), vec!["stale"]);
    }

    #[test]
    fn outer_level_entry_nearer_than_level0_wins_next_expiry() {
        // Regression: an entry armed into level 1 can become nearer than
        // every level-0 entry if the wheel advances without crossing the
        // 256-tick cascade boundary; next_expiry must not trust level 0
        // alone.
        let tick = |t: u64| SimTime::from_nanos(t << 20);
        let mut w = TimerWheel::new();
        w.insert(tick(100), "warm");
        assert_eq!(w.pop(tick(100)), vec!["warm"]); // cur_tick = 100
        w.insert(tick(400), "outer"); // delta 300 -> level 1
        let _ = w.pop(tick(200)); // advance; no 256 boundary crossed
        w.insert(tick(420), "inner"); // delta 220 -> level 0
        assert_eq!(w.next_expiry(), Some(tick(400)), "outer entry is nearest");
        assert_eq!(w.pop(tick(400)), vec!["outer"]);
        assert_eq!(w.next_expiry(), Some(tick(420)));
        assert_eq!(w.pop(tick(420)), vec!["inner"]);
    }

    #[test]
    fn next_rotation_entry_in_base_slot_does_not_mask_nearer_slots() {
        // Regression: an entry one full rotation ahead lands in the
        // level's *base* slot; a naive first-non-empty walk would report
        // it as the level minimum and miss a nearer entry in a later
        // slot.
        let tick = |t: u64| SimTime::from_nanos(t << 20);
        let mut w = TimerWheel::new();
        w.insert(tick(100), "warm");
        assert_eq!(w.pop(tick(100)), vec!["warm"]); // cur_tick = 100
        w.insert(tick(16_400), "far"); // delta 16300 -> level-1 slot 0 (next rotation)
        w.insert(tick(400), "near"); // level-1 slot 1, this rotation
        assert_eq!(w.next_expiry(), Some(tick(400)), "near entry wins");
        assert_eq!(w.pop(tick(400)), vec!["near"]);
        assert_eq!(w.next_expiry(), Some(tick(16_400)));
        assert_eq!(w.pop(tick(16_400)), vec!["far"]);
    }

    #[test]
    fn snapshot_round_trips_all_levels() {
        let mut w = TimerWheel::new();
        w.insert(t(3), 1u64);
        w.insert(t(500), 2); // level 1
        w.insert(t(60_000), 3); // level 2
        w.insert(t(30 * 60_000), 4); // overflow
        assert_eq!(w.pop(t(3)), vec![1]);
        assert_state_law(&w, TimerWheel::new);
        let bytes = state_bytes(&w);
        let mut restored: TimerWheel<u64> = TimerWheel::new();
        let mut r = SnapReader::new(&bytes);
        restored.read_state(&mut r, |r| r.read_u64()).unwrap();
        assert!(r.is_empty());
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.scheduled_total(), 4);
        assert_eq!(state_hash(&w), state_hash(&restored));
        assert_eq!(restored.next_expiry(), Some(t(500)));
        assert_eq!(restored.pop(t(30 * 60_000)), vec![2, 3, 4]);
    }

    #[test]
    fn empty_slots_are_saved_but_not_hashed() {
        let w: TimerWheel<u64> = TimerWheel::new();
        let mut sw = mafic_obs::SnapWriter::new();
        w.write_state(&mut sw, |p, sw| sw.write_u64(*p));
        let slots = w.level0.len() + w.level1.len() + w.level2.len();
        assert_eq!(sw.into_bytes().len(), 8 * (4 + slots + 1));
        let mut walked = mafic_obs::HashWriter::new();
        w.write_state(&mut walked, |p, h| h.write_u64(*p));
        let mut header_only = mafic_obs::Fnv64::new();
        for _ in 0..5 {
            header_only.write_u64(0); // four counters, overflow length
        }
        assert_eq!(walked.finish(), header_only.finish());
    }

    #[test]
    fn interleaved_insert_and_pop_keeps_count() {
        let mut w = TimerWheel::new();
        w.insert(t(10), 1);
        assert_eq!(w.pop(t(10)), vec![1]);
        w.insert(t(700), 2); // level 1 relative to tick ~10ms
        w.insert(t(20), 3);
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop(t(700)), vec![3, 2]);
        assert_eq!(w.scheduled_total(), 3);
    }
}
