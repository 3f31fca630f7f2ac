//! The three MAFIC flow tables, stored as one dense slab.
//!
//! * **SFT** — Suspicious Flow Table: flows under probation. Each entry
//!   remembers when the probe started, the pre-probe baseline rate, the
//!   flow's RTT estimate, and the 2×RTT decision deadline.
//! * **NFT** — Nice Flow Table: flows that reduced their rate after the
//!   probe; never dropped again.
//! * **PDT** — Permanently Drop Table: flows whose rate did not respond,
//!   plus flows with illegal source addresses; every packet dropped.
//!
//! Classification state lives in a single [`FlowSlab`] indexed by the
//! interned [`FlowId`]: the packet hot path resolves a flow's standing
//! with **one array probe** ([`FlowTables::state`]) instead of the three
//! hash lookups the label-keyed tables used to pay. All three logical
//! tables remain capacity-bounded with FIFO eviction, matching a router's
//! fixed memory budget.

use mafic_netsim::{read_flow_id, FlowId, FlowKey, FlowSlab, SimTime};
use mafic_obs::{SnapError, SnapReader, State, StateWrite};
use std::collections::VecDeque;

/// Why a flow ended up in the PDT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PdtReason {
    /// The claimed source address is outside every allocated prefix.
    IllegalSource,
    /// The flow failed the probe test (rate did not decrease).
    Unresponsive,
}

impl PdtReason {
    /// Every reason in declaration order: a reason's wire tag is its
    /// index here.
    const ALL: [PdtReason; 2] = [PdtReason::IllegalSource, PdtReason::Unresponsive];
}

/// One probation entry in the SFT.
#[derive(Debug, Clone, PartialEq)]
pub struct SftEntry {
    /// The flow's 4-tuple at insertion time (kept for probe addressing
    /// and statistics notes on the timer path, where no packet is at
    /// hand).
    pub key: FlowKey,
    /// When the probe was issued.
    pub probe_started: SimTime,
    /// Arrival rate (packets/s) measured just before the probe.
    pub baseline_rate: f64,
    /// The flow RTT estimate used for the timer.
    pub rtt_estimate: mafic_netsim::SimDuration,
    /// The decision deadline (`probe_started + mult × RTT`).
    pub deadline: SimTime,
    /// Packets seen since the probe started.
    pub arrivals_since_probe: u64,
}

/// A flow's classification standing — the single-probe answer the packet
/// path branches on.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowState {
    /// On probation (SFT).
    Suspicious(SftEntry),
    /// Passed the probe test (NFT) at the recorded instant; never
    /// dropped again (until optional re-validation).
    Nice {
        /// When the verdict was earned.
        since: SimTime,
    },
    /// Condemned (PDT); every packet dropped.
    Condemned(PdtReason),
}

/// Which logical table a [`FlowState`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Table {
    Sft,
    Nft,
    Pdt,
}

fn table_of(state: &FlowState) -> Table {
    match state {
        FlowState::Suspicious(_) => Table::Sft,
        FlowState::Nice { .. } => Table::Nft,
        FlowState::Condemned(_) => Table::Pdt,
    }
}

/// FIFO occupancy bound for one logical table.
///
/// Because a flow can leave a table and re-enter it later (probation →
/// nice → re-validation → probation again), the order deque may hold
/// stale entries for a flow's *earlier* residence. Each seat therefore
/// carries a stamp, and only the entry matching the flow's live stamp
/// counts — a stale front entry is skipped, never treated as the oldest
/// resident.
#[derive(Debug, Default)]
struct Fifo {
    order: VecDeque<(FlowId, u64)>,
    /// flow → stamp of its live seat in `order`; absent = not resident.
    seats: FlowSlab<u64>,
    capacity: usize,
    next_stamp: u64,
    evictions: u64,
}

impl Fifo {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "table capacity must be positive");
        Fifo {
            order: VecDeque::new(),
            seats: FlowSlab::new(),
            capacity,
            next_stamp: 0,
            evictions: 0,
        }
    }

    fn len(&self) -> usize {
        self.seats.len()
    }

    /// Seats `flow` at the back of the FIFO.
    fn occupy(&mut self, flow: FlowId) {
        // Stale entries are normally reclaimed by `pop_oldest`, which
        // only runs at capacity; below capacity a long transition churn
        // (probation → nice → re-validation → probation …) would grow
        // the deque without bound. Compact once it doubles: retaining
        // the ≤ capacity live seats keeps the amortized cost O(1).
        if self.order.len() >= self.capacity.saturating_mul(2).max(16) {
            let seats = &self.seats;
            self.order
                .retain(|&(flow, stamp)| seats.get(flow) == Some(&stamp));
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.push_back((flow, stamp));
        self.seats.insert(flow, stamp);
    }

    /// Releases `flow`'s seat (its order entry goes stale in place).
    fn release(&mut self, flow: FlowId) {
        self.seats.remove(flow);
    }

    /// Removes and returns the oldest current resident, skipping stale
    /// order entries.
    fn pop_oldest(&mut self) -> Option<FlowId> {
        while let Some((flow, stamp)) = self.order.pop_front() {
            if self.seats.get(flow) == Some(&stamp) {
                self.seats.remove(flow);
                self.evictions += 1;
                return Some(flow);
            }
        }
        None
    }

    fn clear(&mut self) {
        self.order.clear();
        self.seats.clear();
    }
}

/// The complete MAFIC table set: one slab of [`FlowState`] tags plus
/// per-table FIFO occupancy bounds.
#[derive(Debug)]
pub struct FlowTables {
    states: FlowSlab<FlowState>,
    sft: Fifo,
    nft: Fifo,
    pdt: Fifo,
    /// Lifetime peak occupancies — cost accounting that survives the
    /// `PushbackStop` flush (a withdrawn defense still paid for its
    /// tables while it ran).
    peak_sft: usize,
    peak_nft: usize,
    peak_pdt: usize,
}

impl FlowTables {
    /// Creates tables with the given per-table capacities.
    ///
    /// # Panics
    ///
    /// Panics if any capacity is zero.
    #[must_use]
    pub fn new(sft_capacity: usize, nft_capacity: usize, pdt_capacity: usize) -> Self {
        FlowTables {
            states: FlowSlab::new(),
            sft: Fifo::new(sft_capacity),
            nft: Fifo::new(nft_capacity),
            pdt: Fifo::new(pdt_capacity),
            peak_sft: 0,
            peak_nft: 0,
            peak_pdt: 0,
        }
    }

    /// The flow's classification standing, in one slab probe. This is the
    /// per-packet fast path.
    #[must_use]
    pub fn state(&self, flow: FlowId) -> Option<&FlowState> {
        self.states.get(flow)
    }

    fn fifo_mut(&mut self, table: Table) -> &mut Fifo {
        match table {
            Table::Sft => &mut self.sft,
            Table::Nft => &mut self.nft,
            Table::Pdt => &mut self.pdt,
        }
    }

    /// Transitions `flow` into `state`'s logical table, evicting the
    /// FIFO-oldest resident if that table is full. Returns the previous
    /// whole-slab state.
    fn set_state(&mut self, flow: FlowId, state: FlowState) -> Option<FlowState> {
        let target = table_of(&state);
        // Same-table overwrite keeps the original FIFO seat.
        if self.states.get(flow).map(table_of) == Some(target) {
            return self.states.insert(flow, state);
        }
        let victim = {
            let fifo = self.fifo_mut(target);
            if fifo.len() >= fifo.capacity {
                fifo.pop_oldest()
            } else {
                None
            }
        };
        if let Some(victim) = victim {
            self.states.remove(victim);
        }
        self.fifo_mut(target).occupy(flow);
        let old = self.states.insert(flow, state);
        if let Some(ref prev) = old {
            // The flow migrated from another table; release that seat.
            let from = table_of(prev);
            self.fifo_mut(from).release(flow);
        }
        self.peak_sft = self.peak_sft.max(self.sft.len());
        self.peak_nft = self.peak_nft.max(self.nft.len());
        self.peak_pdt = self.peak_pdt.max(self.pdt.len());
        old
    }

    fn take_state(&mut self, flow: FlowId, want: Table) -> Option<FlowState> {
        if self.states.get(flow).map(table_of) != Some(want) {
            return None;
        }
        let old = self.states.remove(flow);
        self.fifo_mut(want).release(flow);
        old
    }

    // --- SFT ---------------------------------------------------------

    /// Inserts a probation entry.
    pub fn sft_insert(&mut self, flow: FlowId, entry: SftEntry) {
        self.set_state(flow, FlowState::Suspicious(entry));
    }

    /// The probation entry for `flow`, if any.
    #[must_use]
    pub fn sft_get(&self, flow: FlowId) -> Option<&SftEntry> {
        match self.states.get(flow) {
            Some(FlowState::Suspicious(entry)) => Some(entry),
            _ => None,
        }
    }

    /// Mutable probation entry.
    pub(crate) fn sft_get_mut(&mut self, flow: FlowId) -> Option<&mut SftEntry> {
        match self.states.get_mut(flow) {
            Some(FlowState::Suspicious(entry)) => Some(entry),
            _ => None,
        }
    }

    /// Removes and returns the probation entry.
    pub(crate) fn sft_remove(&mut self, flow: FlowId) -> Option<SftEntry> {
        match self.take_state(flow, Table::Sft) {
            Some(FlowState::Suspicious(entry)) => Some(entry),
            _ => None,
        }
    }

    /// Number of flows on probation.
    #[must_use]
    pub fn sft_len(&self) -> usize {
        self.sft.len()
    }

    // --- NFT ---------------------------------------------------------

    /// Marks a flow as nice, recording when the verdict was earned (the
    /// re-validation timer checks this to recognise stale fires from a
    /// previous activation).
    pub fn nft_insert(&mut self, flow: FlowId, since: SimTime) {
        self.set_state(flow, FlowState::Nice { since });
    }

    /// True if the flow passed the probe test.
    #[cfg(test)]
    #[must_use]
    pub fn nft_contains(&self, flow: FlowId) -> bool {
        matches!(self.states.get(flow), Some(FlowState::Nice { .. }))
    }

    /// When the flow's current nice verdict was earned, if it has one.
    #[must_use]
    pub(crate) fn nft_since(&self, flow: FlowId) -> Option<SimTime> {
        match self.states.get(flow) {
            Some(FlowState::Nice { since }) => Some(*since),
            _ => None,
        }
    }

    /// Number of nice flows.
    #[must_use]
    pub fn nft_len(&self) -> usize {
        self.nft.len()
    }

    /// Removes a flow from the NFT (re-validation); returns whether it
    /// was present.
    pub(crate) fn nft_remove(&mut self, flow: FlowId) -> bool {
        self.take_state(flow, Table::Nft).is_some()
    }

    // --- PDT ---------------------------------------------------------

    /// Condemns a flow.
    pub fn pdt_insert(&mut self, flow: FlowId, reason: PdtReason) {
        self.set_state(flow, FlowState::Condemned(reason));
    }

    /// The condemnation reason, if the flow is in the PDT.
    #[cfg(test)]
    #[must_use]
    pub fn pdt_get(&self, flow: FlowId) -> Option<PdtReason> {
        match self.states.get(flow) {
            Some(FlowState::Condemned(reason)) => Some(*reason),
            _ => None,
        }
    }

    /// True if every packet of this flow must be dropped.
    #[cfg(test)]
    #[must_use]
    pub fn pdt_contains(&self, flow: FlowId) -> bool {
        matches!(self.states.get(flow), Some(FlowState::Condemned(_)))
    }

    /// Number of condemned flows.
    #[must_use]
    pub fn pdt_len(&self) -> usize {
        self.pdt.len()
    }

    // --- Global ------------------------------------------------------

    /// Flushes all three tables (pushback end — "End dropping & Flush all
    /// tables" in Figure 2). Flow ids remain valid: the interner binding
    /// outlives any flush, only classification state is dropped.
    pub fn flush(&mut self) {
        self.states.clear();
        self.sft.clear();
        self.nft.clear();
        self.pdt.clear();
    }

    /// Approximate resident memory of the three tables in bytes, using
    /// the label storage cost (the paper's motivation for hashing).
    #[must_use]
    pub fn approx_bytes(&self, label_bytes: usize) -> usize {
        Self::bytes_for(self.sft.len(), self.nft.len(), self.pdt.len(), label_bytes)
    }

    /// Approximate **peak** memory the tables ever held, in bytes. Unlike
    /// [`FlowTables::approx_bytes`] this survives a [`FlowTables::flush`],
    /// so a defense that stood down before the end of a run still reports
    /// what its tables cost while it was active.
    #[must_use]
    pub(crate) fn approx_peak_bytes(&self, label_bytes: usize) -> usize {
        Self::bytes_for(self.peak_sft, self.peak_nft, self.peak_pdt, label_bytes)
    }

    fn bytes_for(sft: usize, nft: usize, pdt: usize, label_bytes: usize) -> usize {
        let sft_entry = label_bytes + std::mem::size_of::<SftEntry>();
        let nft_entry = label_bytes;
        let pdt_entry = label_bytes + 1;
        sft * sft_entry + nft * nft_entry + pdt * pdt_entry
    }
}

impl SftEntry {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        self.key.write_state(w);
        w.write_u64(self.probe_started.as_nanos());
        w.write_f64(self.baseline_rate);
        w.write_u64(self.rtt_estimate.as_nanos());
        w.write_u64(self.deadline.as_nanos());
        w.write_u64(self.arrivals_since_probe);
    }
}

fn read_sft_entry(r: &mut SnapReader<'_>) -> Result<SftEntry, SnapError> {
    Ok(SftEntry {
        key: mafic_netsim::read_flow_key(r)?,
        probe_started: SimTime::from_nanos(r.read_u64()?),
        baseline_rate: r.read_f64()?,
        rtt_estimate: mafic_netsim::SimDuration::from_nanos(r.read_u64()?),
        deadline: SimTime::from_nanos(r.read_u64()?),
        arrivals_since_probe: r.read_u64()?,
    })
}

impl FlowState {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        match self {
            FlowState::Suspicious(entry) => {
                w.write_u8(0);
                entry.write_state(w);
            }
            FlowState::Nice { since } => {
                w.write_u8(1);
                w.write_u64(since.as_nanos());
            }
            FlowState::Condemned(reason) => {
                w.write_u8(2);
                w.write_u8(*reason as u8);
            }
        }
    }
}

fn read_flow_state(r: &mut SnapReader<'_>) -> Result<FlowState, SnapError> {
    Ok(match r.read_u8()? {
        0 => FlowState::Suspicious(read_sft_entry(r)?),
        1 => FlowState::Nice {
            since: SimTime::from_nanos(r.read_u64()?),
        },
        2 => FlowState::Condemned(r.read_tag("pdt-reason", &PdtReason::ALL)?),
        tag => return Err(SnapError::Malformed(format!("flow-state tag {tag}"))),
    })
}

impl State for Fifo {
    /// Seat order inside a FIFO is derivable from the stamps, so the
    /// ledger pins the occupancy machinery with the resident count, the
    /// (build-time) capacity, the stamp counter and the evictions,
    /// without walking stale deque entries. A checkpoint carries the
    /// deque verbatim — stale entries included: future evictions and the
    /// compaction trigger depend on it — and the live seats.
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.snap_only(|w| {
            w.write_seq(&self.order, |w, &(flow, stamp)| {
                w.write_usize(flow.index());
                w.write_u64(stamp);
            });
        });
        w.write_usize(self.seats.len());
        w.snap_only(|w| {
            for (flow, &stamp) in self.seats.iter() {
                w.write_usize(flow.index());
                w.write_u64(stamp);
            }
        });
        w.hash_only(|h| h.write_usize(self.capacity));
        w.write_u64(self.next_stamp);
        w.write_u64(self.evictions);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let seat = |r: &mut SnapReader<'_>| Ok((read_flow_id(r)?, r.read_u64()?));
        self.order = r.read_seq(seat)?;
        self.seats = r.read_seq(seat)?;
        self.next_stamp = r.read_u64()?;
        self.evictions = r.read_u64()?;
        Ok(())
    }
}

impl State for FlowTables {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_usize(self.states.len());
        for (id, state) in self.states.iter() {
            w.write_usize(id.index());
            state.write_state(w);
        }
        self.sft.write_state(w);
        self.nft.write_state(w);
        self.pdt.write_state(w);
        w.write_usize(self.peak_sft);
        w.write_usize(self.peak_nft);
        w.write_usize(self.peak_pdt);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.states = r.read_seq(|r| Ok((read_flow_id(r)?, read_flow_state(r)?)))?;
        self.sft.read_state(r)?;
        self.nft.read_state(r)?;
        self.pdt.read_state(r)?;
        self.peak_sft = r.read_usize()?;
        self.peak_nft = r.read_usize()?;
        self.peak_pdt = r.read_usize()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, state_hash};
    use mafic_netsim::{Addr, SimDuration};

    fn flow(n: usize) -> FlowId {
        FlowId::from_index(n)
    }

    /// Evictions across the three tables.
    fn evictions(t: &FlowTables) -> u64 {
        t.sft.evictions + t.nft.evictions + t.pdt.evictions
    }

    fn entry() -> SftEntry {
        SftEntry {
            key: FlowKey::new(Addr::new(1), Addr::new(2), 1, 80),
            probe_started: SimTime::ZERO,
            baseline_rate: 100.0,
            rtt_estimate: SimDuration::from_millis(50),
            deadline: SimTime::ZERO + SimDuration::from_millis(100),
            arrivals_since_probe: 0,
        }
    }

    #[test]
    fn tables_start_empty() {
        let t = FlowTables::new(4, 4, 4);
        assert_eq!(t.sft_len(), 0);
        assert_eq!(t.nft_len(), 0);
        assert_eq!(t.pdt_len(), 0);
        assert_eq!(evictions(&t), 0);
        assert!(t.state(flow(0)).is_none());
    }

    #[test]
    fn sft_round_trip() {
        let mut t = FlowTables::new(4, 4, 4);
        t.sft_insert(flow(1), entry());
        assert!(t.sft_get(flow(1)).is_some());
        t.sft_get_mut(flow(1)).unwrap().arrivals_since_probe = 5;
        assert_eq!(t.sft_get(flow(1)).unwrap().arrivals_since_probe, 5);
        let removed = t.sft_remove(flow(1)).unwrap();
        assert_eq!(removed.arrivals_since_probe, 5);
        assert_eq!(t.sft_len(), 0);
    }

    #[test]
    fn nft_and_pdt_membership() {
        let mut t = FlowTables::new(4, 4, 4);
        t.nft_insert(flow(1), SimTime::ZERO);
        t.pdt_insert(flow(2), PdtReason::Unresponsive);
        t.pdt_insert(flow(3), PdtReason::IllegalSource);
        assert!(t.nft_contains(flow(1)));
        assert!(!t.nft_contains(flow(2)));
        assert_eq!(t.pdt_get(flow(2)), Some(PdtReason::Unresponsive));
        assert_eq!(t.pdt_get(flow(3)), Some(PdtReason::IllegalSource));
        assert!(!t.pdt_contains(flow(1)));
    }

    #[test]
    fn state_is_a_single_probe_classification() {
        let mut t = FlowTables::new(4, 4, 4);
        t.sft_insert(flow(1), entry());
        t.nft_insert(flow(2), SimTime::ZERO);
        t.pdt_insert(flow(3), PdtReason::Unresponsive);
        assert!(matches!(t.state(flow(1)), Some(FlowState::Suspicious(_))));
        assert!(matches!(t.state(flow(2)), Some(FlowState::Nice { .. })));
        assert!(matches!(
            t.state(flow(3)),
            Some(FlowState::Condemned(PdtReason::Unresponsive))
        ));
        assert!(t.state(flow(4)).is_none());
    }

    #[test]
    fn capacity_evicts_fifo() {
        let mut t = FlowTables::new(4, 4, 2);
        t.pdt_insert(flow(1), PdtReason::Unresponsive);
        t.pdt_insert(flow(2), PdtReason::Unresponsive);
        t.pdt_insert(flow(3), PdtReason::Unresponsive);
        assert_eq!(t.pdt_len(), 2);
        assert!(!t.pdt_contains(flow(1)), "oldest evicted first");
        assert!(t.pdt_contains(flow(2)));
        assert!(t.pdt_contains(flow(3)));
        assert_eq!(evictions(&t), 1);
    }

    #[test]
    fn reinsertion_does_not_evict() {
        let mut t = FlowTables::new(4, 4, 2);
        t.pdt_insert(flow(1), PdtReason::Unresponsive);
        t.pdt_insert(flow(1), PdtReason::IllegalSource);
        assert_eq!(t.pdt_len(), 1);
        assert_eq!(t.pdt_get(flow(1)), Some(PdtReason::IllegalSource));
        assert_eq!(evictions(&t), 0);
    }

    #[test]
    fn migration_between_tables_releases_the_old_seat() {
        let mut t = FlowTables::new(2, 2, 2);
        t.sft_insert(flow(1), entry());
        assert_eq!(t.sft_len(), 1);
        // Probation decided: the flow moves SFT → NFT.
        let _ = t.sft_remove(flow(1));
        t.nft_insert(flow(1), SimTime::ZERO);
        assert_eq!(t.sft_len(), 0);
        assert_eq!(t.nft_len(), 1);
        // Direct overwrite (no explicit remove) also releases the seat.
        t.sft_insert(flow(2), entry());
        t.pdt_insert(flow(2), PdtReason::Unresponsive);
        assert_eq!(t.sft_len(), 0);
        assert_eq!(t.pdt_len(), 1);
        assert!(matches!(t.state(flow(2)), Some(FlowState::Condemned(_))));
    }

    #[test]
    fn reentry_after_leaving_does_not_confuse_fifo() {
        // Regression: a flow that left the SFT and re-entered later must
        // not be treated as the oldest resident via its stale order
        // entry.
        let mut t = FlowTables::new(2, 4, 4);
        t.sft_insert(flow(1), entry());
        let _ = t.sft_remove(flow(1));
        t.sft_insert(flow(2), entry());
        t.sft_insert(flow(1), entry()); // re-entry; flow 2 is now oldest
        t.sft_insert(flow(3), entry()); // full: evict flow 2, not flow 1
        assert!(t.sft_get(flow(2)).is_none(), "oldest resident evicted");
        assert!(t.sft_get(flow(1)).is_some(), "re-entered flow survives");
        assert!(t.sft_get(flow(3)).is_some());
        assert_eq!(evictions(&t), 1);
        assert_eq!(t.sft_len(), 2);
    }

    #[test]
    fn flush_empties_everything() {
        let mut t = FlowTables::new(4, 4, 4);
        t.sft_insert(flow(1), entry());
        t.nft_insert(flow(2), SimTime::ZERO);
        t.pdt_insert(flow(3), PdtReason::Unresponsive);
        t.flush();
        assert_eq!(t.sft_len() + t.nft_len() + t.pdt_len(), 0);
        assert!(t.state(flow(1)).is_none());
    }

    #[test]
    fn hashed_labels_cost_less_memory() {
        let mut t = FlowTables::new(64, 64, 64);
        for n in 0..10 {
            t.nft_insert(flow(n), SimTime::ZERO);
        }
        assert!(t.approx_bytes(8) < t.approx_bytes(12));
    }

    #[test]
    fn peak_bytes_survive_a_flush() {
        let mut t = FlowTables::new(64, 64, 64);
        t.sft_insert(flow(1), entry());
        t.nft_insert(flow(2), SimTime::ZERO);
        t.pdt_insert(flow(3), PdtReason::Unresponsive);
        let loaded = t.approx_bytes(8);
        assert_eq!(t.approx_peak_bytes(8), loaded);
        t.flush();
        assert_eq!(t.approx_bytes(8), 0, "resident state is gone");
        assert_eq!(
            t.approx_peak_bytes(8),
            loaded,
            "the peak remembers what the defense cost while active"
        );
        // A smaller re-occupancy never lowers the peak.
        t.nft_insert(flow(4), SimTime::ZERO);
        assert_eq!(t.approx_peak_bytes(8), loaded);
    }

    #[test]
    fn snapshot_round_trips_tables_and_fifo_order() {
        let mut t = FlowTables::new(2, 2, 2);
        t.sft_insert(flow(1), entry());
        t.nft_insert(flow(2), SimTime::from_nanos(5));
        t.pdt_insert(flow(3), PdtReason::Unresponsive);
        assert_state_law(&t, || FlowTables::new(2, 2, 2));
        assert_state_law(&t.sft, || Fifo::new(2));
        let bytes = state_bytes(&t);
        let mut back = FlowTables::new(2, 2, 2);
        let mut r = SnapReader::new(&bytes);
        back.read_state(&mut r).expect("restore");
        assert!(r.is_empty());
        assert_eq!(state_hash(&t), state_hash(&back));
        assert_eq!(back.state(flow(1)), t.state(flow(1)));
        assert_eq!(state_bytes(&back), bytes);
    }

    #[test]
    fn a_stale_deque_entry_is_saved_but_not_hashed() {
        // Same residents, stamps and evictions; `b` additionally holds a
        // dead order entry for a seat that was overwritten in place.
        let mut a = Fifo::new(4);
        a.occupy(flow(1));
        let mut b = Fifo::new(4);
        b.occupy(flow(1));
        b.order.push_front((flow(9), 77));
        assert_eq!(state_hash(&a), state_hash(&b));
        assert_ne!(state_bytes(&a), state_bytes(&b));
        // The capacity is configuration: hashed, not saved.
        let mut c = Fifo::new(5);
        c.occupy(flow(1));
        assert_ne!(state_hash(&a), state_hash(&c));
        assert_eq!(state_bytes(&a), state_bytes(&c));
    }

    #[test]
    fn a_hostile_flow_index_is_malformed_not_a_panic() {
        // Section checksums are recomputable, so the index is attacker
        // controlled: it must neither overflow `FlowId` nor size a slab.
        let mut w = mafic_obs::SnapWriter::new();
        w.write_usize(1); // one state entry
        w.write_u64(1 << 60); // its flow index
        w.write_u8(1); // FlowState::Nice
        w.write_u64(0); // since
        let bytes = w.into_bytes();
        let err = FlowTables::new(4, 4, 4)
            .read_state(&mut SnapReader::new(&bytes))
            .expect_err("no interner ever minted that id");
        assert!(matches!(err, SnapError::Malformed(_)), "{err}");
    }

    #[test]
    fn pdt_reasons_tag_as_their_declaration_index() {
        for (i, reason) in PdtReason::ALL.into_iter().enumerate() {
            let state = FlowState::Condemned(reason);
            let mut w = mafic_obs::SnapWriter::new();
            state.write_state(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(bytes, [2, i as u8]);
            assert_eq!(read_flow_state(&mut SnapReader::new(&bytes)), Ok(state));
        }
        let unused = [2, PdtReason::ALL.len() as u8];
        assert_eq!(
            read_flow_state(&mut SnapReader::new(&unused)),
            Err(SnapError::Malformed("pdt-reason tag 2".to_string()))
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = FlowTables::new(0, 1, 1);
    }
}
