//! The three MAFIC flow tables, stored as one slab.
//!
//! * **SFT** — Suspicious Flow Table: flows under probation. Each entry
//!   remembers when the probe started, the pre-probe baseline rate, the
//!   flow's RTT estimate, and the 2×RTT decision deadline.
//! * **NFT** — Nice Flow Table: flows that reduced their rate after the
//!   probe; never dropped again.
//! * **PDT** — Permanently Drop Table: flows whose rate did not respond,
//!   plus flows with illegal source addresses; every packet dropped.
//!
//! Classification state lives in a single [`FlowSlab`] keyed by the
//! interned [`FlowId`]: the packet hot path resolves a flow's standing
//! with **one slab probe** ([`FlowTables::state`]) instead of the three
//! hash lookups the label-keyed tables used to pay. All three logical
//! tables remain capacity-bounded with FIFO eviction, matching a router's
//! fixed memory budget. A flow sits in exactly one table, the one its
//! [`FlowState`] names, so the stamp of its FIFO seat is kept beside its
//! state in the same slab entry: one index per filter serves the
//! standing and all three tables' seats, and the tables cost what they
//! hold, not the run's whole flow-id space.

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

/// Which logical table a [`FlowState`] belongs to; a table's index in
/// `FlowTables::fifos`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Table {
    Sft,
    Nft,
    Pdt,
}

impl Table {
    const ALL: [Table; 3] = [Table::Sft, Table::Nft, Table::Pdt];
}

fn table_of(state: &FlowState) -> Table {
    match state {
        FlowState::Suspicious(_) => Table::Sft,
        FlowState::Nice { .. } => Table::Nft,
        FlowState::Condemned(_) => Table::Pdt,
    }
}

/// A flow held by the tables: its standing, and the stamp of its live
/// seat in the FIFO of the table that standing names. A flow sits in
/// exactly one table, so one stamp per flow is every seat there is.
#[derive(Debug)]
struct Resident {
    state: FlowState,
    stamp: u64,
}

/// True if `(flow, stamp)` is `table`'s live seat for `flow`.
fn seated(states: &FlowSlab<Resident>, table: Table, flow: FlowId, stamp: u64) -> bool {
    states
        .get(flow)
        .is_some_and(|r| r.stamp == stamp && table_of(&r.state) == table)
}

/// FIFO occupancy bound for one logical table.
///
/// Because a flow can leave a table and re-enter it later (probation →
/// nice → re-validation → probation again), the order deque may hold
/// stale entries for a flow's *earlier* residence. Each seat therefore
/// carries a stamp, and only the entry matching the flow's live stamp
/// (kept on its [`Resident`]) counts — a stale front entry is skipped,
/// never treated as the oldest resident.
#[derive(Debug)]
struct Fifo {
    order: VecDeque<(FlowId, u64)>,
    /// Live seats: the flows whose standing names this table.
    len: usize,
    /// Lifetime peak of `len` — cost accounting that survives the
    /// `PushbackStop` flush (a withdrawn defense still paid for its
    /// tables while it ran).
    peak: usize,
    capacity: usize,
    next_stamp: u64,
    evictions: u64,
}

impl Fifo {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "table capacity must be positive");
        Fifo {
            order: VecDeque::new(),
            len: 0,
            peak: 0,
            capacity,
            next_stamp: 0,
            evictions: 0,
        }
    }

    /// Seats `flow` at the back of `table`'s FIFO and returns the seat's
    /// stamp, which the caller stores on the flow's resident.
    fn occupy(&mut self, table: Table, flow: FlowId, states: &FlowSlab<Resident>) -> u64 {
        // Stale entries are normally reclaimed by `pop_oldest`, which
        // only runs at capacity; below capacity a long transition churn
        // (probation → nice → re-validation → probation …) would grow
        // the deque without bound. Compact once it doubles: retaining
        // the ≤ capacity live seats keeps the amortized cost O(1).
        if self.order.len() >= self.capacity.saturating_mul(2).max(16) {
            self.order
                .retain(|&(flow, stamp)| seated(states, table, flow, stamp));
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.push_back((flow, stamp));
        self.len += 1;
        self.peak = self.peak.max(self.len);
        stamp
    }

    /// Removes and returns the oldest current resident of `table`,
    /// skipping stale order entries. The caller drops its resident.
    fn pop_oldest(&mut self, table: Table, states: &FlowSlab<Resident>) -> Option<FlowId> {
        while let Some((flow, stamp)) = self.order.pop_front() {
            if seated(states, table, flow, stamp) {
                self.len -= 1;
                self.evictions += 1;
                return Some(flow);
            }
        }
        None
    }

    fn clear(&mut self) {
        self.order.clear();
        self.len = 0;
    }
}

/// The complete MAFIC table set: one slab of residents (standing plus
/// seat stamp) and per-table FIFO occupancy bounds.
#[derive(Debug)]
pub struct FlowTables {
    states: FlowSlab<Resident>,
    /// Indexed by [`Table`].
    fifos: [Fifo; 3],
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
            fifos: [
                Fifo::new(sft_capacity),
                Fifo::new(nft_capacity),
                Fifo::new(pdt_capacity),
            ],
        }
    }

    /// The flow's classification standing, in one slab probe. This is the
    /// per-packet fast path.
    #[must_use]
    pub fn state(&self, flow: FlowId) -> Option<&FlowState> {
        self.states.get(flow).map(|r| &r.state)
    }

    fn state_mut(&mut self, flow: FlowId) -> Option<&mut FlowState> {
        self.states.get_mut(flow).map(|r| &mut r.state)
    }

    fn fifo(&self, table: Table) -> &Fifo {
        &self.fifos[table as usize]
    }

    /// Transitions `flow` into `state`'s logical table, evicting the
    /// FIFO-oldest resident if that table is full.
    fn set_state(&mut self, flow: FlowId, state: FlowState) {
        let target = table_of(&state);
        // Same-table overwrite keeps the original FIFO seat.
        if let Some(held) = self.state_mut(flow).filter(|held| table_of(held) == target) {
            *held = state;
            return;
        }
        let fifo = &mut self.fifos[target as usize];
        if fifo.len >= fifo.capacity {
            if let Some(victim) = fifo.pop_oldest(target, &self.states) {
                self.states.remove(victim);
            }
        }
        let stamp = fifo.occupy(target, flow, &self.states);
        if let Some(prev) = self.states.insert(flow, Resident { state, stamp }) {
            // The flow migrated from another table; release that seat.
            self.fifos[table_of(&prev.state) as usize].len -= 1;
        }
    }

    fn take_state(&mut self, flow: FlowId, want: Table) -> Option<FlowState> {
        if self.state(flow).map(table_of) != Some(want) {
            return None;
        }
        self.fifos[want as usize].len -= 1;
        self.states.remove(flow).map(|r| r.state)
    }

    // --- SFT ---------------------------------------------------------

    /// Inserts a probation entry.
    pub fn sft_insert(&mut self, flow: FlowId, entry: SftEntry) {
        self.set_state(flow, FlowState::Suspicious(entry));
    }

    /// The probation entry for `flow`, if any.
    #[must_use]
    pub fn sft_get(&self, flow: FlowId) -> Option<&SftEntry> {
        match self.state(flow) {
            Some(FlowState::Suspicious(entry)) => Some(entry),
            _ => None,
        }
    }

    /// Mutable probation entry.
    pub(crate) fn sft_get_mut(&mut self, flow: FlowId) -> Option<&mut SftEntry> {
        match self.state_mut(flow) {
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
        self.fifo(Table::Sft).len
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
        matches!(self.state(flow), Some(FlowState::Nice { .. }))
    }

    /// When the flow's current nice verdict was earned, if it has one.
    #[must_use]
    pub(crate) fn nft_since(&self, flow: FlowId) -> Option<SimTime> {
        match self.state(flow) {
            Some(FlowState::Nice { since }) => Some(*since),
            _ => None,
        }
    }

    /// Number of nice flows.
    #[must_use]
    pub fn nft_len(&self) -> usize {
        self.fifo(Table::Nft).len
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
        match self.state(flow) {
            Some(FlowState::Condemned(reason)) => Some(*reason),
            _ => None,
        }
    }

    /// True if every packet of this flow must be dropped.
    #[cfg(test)]
    #[must_use]
    pub fn pdt_contains(&self, flow: FlowId) -> bool {
        matches!(self.state(flow), Some(FlowState::Condemned(_)))
    }

    /// Number of condemned flows.
    #[must_use]
    pub fn pdt_len(&self) -> usize {
        self.fifo(Table::Pdt).len
    }

    // --- Global ------------------------------------------------------

    /// Flushes all three tables (pushback end — "End dropping & Flush all
    /// tables" in Figure 2). Flow ids remain valid: the interner binding
    /// outlives any flush, only classification state is dropped.
    pub fn flush(&mut self) {
        self.states.clear();
        for fifo in &mut self.fifos {
            fifo.clear();
        }
    }

    /// Approximate resident memory of the three tables in bytes, using
    /// the label storage cost (the paper's motivation for hashing).
    #[must_use]
    pub fn approx_bytes(&self, label_bytes: usize) -> usize {
        Self::bytes_for(self.sft_len(), self.nft_len(), self.pdt_len(), label_bytes)
    }

    /// Approximate **peak** memory the tables ever held, in bytes. Unlike
    /// [`FlowTables::approx_bytes`] this survives a [`FlowTables::flush`],
    /// so a defense that stood down before the end of a run still reports
    /// what its tables cost while it was active.
    #[must_use]
    pub(crate) fn approx_peak_bytes(&self, label_bytes: usize) -> usize {
        let [sft, nft, pdt] = self.fifos.each_ref().map(|f| f.peak);
        Self::bytes_for(sft, nft, pdt, label_bytes)
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

impl FlowTables {
    /// One table's FIFO machinery. Seat order inside a FIFO is
    /// derivable from the stamps, so the ledger pins it with the
    /// resident count, the (build-time) capacity, the stamp counter and
    /// the evictions, without walking stale deque entries. A checkpoint
    /// carries the deque verbatim — stale entries included: future
    /// evictions and the compaction trigger depend on it — and the live
    /// seats in id order.
    fn write_fifo<W: StateWrite>(&self, table: Table, w: &mut W) {
        let fifo = self.fifo(table);
        w.snap_only(|w| {
            w.write_seq(&fifo.order, |w, &(flow, stamp)| {
                w.write_usize(flow.index());
                w.write_u64(stamp);
            });
        });
        w.write_usize(fifo.len);
        w.snap_only(|w| {
            for (flow, r) in self.states.iter() {
                if table_of(&r.state) == table {
                    w.write_usize(flow.index());
                    w.write_u64(r.stamp);
                }
            }
        });
        w.hash_only(|h| h.write_usize(fifo.capacity));
        w.write_u64(fifo.next_stamp);
        w.write_u64(fifo.evictions);
    }

    /// Restores one table's FIFO onto residents already read. Its seats
    /// must be exactly that table's residents, in ascending id order:
    /// each seat's stamp lands on its resident, so a seat without one, a
    /// repeated seat or a resident left unseated would break the
    /// occupancy count.
    fn read_fifo(&mut self, table: Table, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let seat = |r: &mut SnapReader<'_>| Ok((read_flow_id(r)?, r.read_u64()?));
        let order = r.read_seq(seat)?;
        let n = r.read_len()?;
        let mut last = None;
        for _ in 0..n {
            let (flow, stamp) = seat(r)?;
            match self.states.get_mut(flow) {
                Some(res) if last < Some(flow) && table_of(&res.state) == table => {
                    res.stamp = stamp
                }
                _ => {
                    return Err(SnapError::Malformed(format!(
                        "{table:?} seat for {flow} is not its next resident"
                    )))
                }
            }
            last = Some(flow);
        }
        let residents = |(_, res): &(FlowId, &Resident)| table_of(&res.state) == table;
        if self.states.iter().filter(residents).count() != n {
            return Err(SnapError::Malformed(format!(
                "{table:?}: a resident without a seat"
            )));
        }
        let fifo = &mut self.fifos[table as usize];
        fifo.order = order;
        fifo.len = n;
        fifo.next_stamp = r.read_u64()?;
        fifo.evictions = r.read_u64()?;
        Ok(())
    }
}

impl State for FlowTables {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_usize(self.states.len());
        for (id, r) in self.states.iter() {
            w.write_usize(id.index());
            r.state.write_state(w);
        }
        for table in Table::ALL {
            self.write_fifo(table, w);
        }
        for fifo in &self.fifos {
            w.write_usize(fifo.peak);
        }
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.states = r.read_seq(|r| {
            let flow = read_flow_id(r)?;
            let state = read_flow_state(r)?;
            Ok((flow, Resident { state, stamp: 0 }))
        })?;
        for table in Table::ALL {
            self.read_fifo(table, r)?;
        }
        for fifo in &mut self.fifos {
            fifo.peak = r.read_usize()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, state_hash};
    use mafic_netsim::{Addr, SimDuration};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn flow(n: usize) -> FlowId {
        FlowId::from_index(n)
    }

    /// Evictions across the three tables.
    fn evictions(t: &FlowTables) -> u64 {
        t.fifos.iter().map(|f| f.evictions).sum()
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
        let mut a = FlowTables::new(4, 4, 4);
        a.nft_insert(flow(1), SimTime::ZERO);
        let mut b = FlowTables::new(4, 4, 4);
        b.nft_insert(flow(1), SimTime::ZERO);
        b.fifos[Table::Nft as usize].order.push_front((flow(9), 77));
        assert_eq!(state_hash(&a), state_hash(&b));
        assert_ne!(state_bytes(&a), state_bytes(&b));
        // The capacity is configuration: hashed, not saved.
        let mut c = FlowTables::new(4, 5, 4);
        c.nft_insert(flow(1), SimTime::ZERO);
        assert_ne!(state_hash(&a), state_hash(&c));
        assert_eq!(state_bytes(&a), state_bytes(&c));
    }

    /// The tables as they were before the seat fold: each FIFO kept an
    /// id-indexed seat map of its own beside one map of standings. The
    /// churn test below holds the folded tables to it, seat count for
    /// seat count and byte for byte.
    struct Unfolded {
        states: BTreeMap<usize, FlowState>,
        fifos: [UnfoldedFifo; 3],
    }

    struct UnfoldedFifo {
        order: VecDeque<(usize, u64)>,
        seats: BTreeMap<usize, u64>,
        capacity: usize,
        next_stamp: u64,
        evictions: u64,
        peak: usize,
    }

    impl Unfolded {
        fn new(capacities: [usize; 3]) -> Self {
            Unfolded {
                states: BTreeMap::new(),
                fifos: capacities.map(|capacity| UnfoldedFifo {
                    order: VecDeque::new(),
                    seats: BTreeMap::new(),
                    capacity,
                    next_stamp: 0,
                    evictions: 0,
                    peak: 0,
                }),
            }
        }

        fn set(&mut self, flow: usize, state: FlowState) {
            let target = table_of(&state);
            if self.states.get(&flow).map(table_of) == Some(target) {
                self.states.insert(flow, state);
                return;
            }
            let f = &mut self.fifos[target as usize];
            if f.seats.len() >= f.capacity {
                while let Some((victim, stamp)) = f.order.pop_front() {
                    if f.seats.get(&victim) == Some(&stamp) {
                        f.seats.remove(&victim);
                        f.evictions += 1;
                        self.states.remove(&victim);
                        break;
                    }
                }
            }
            if f.order.len() >= f.capacity.saturating_mul(2).max(16) {
                let seats = &f.seats;
                f.order.retain(|(v, stamp)| seats.get(v) == Some(stamp));
            }
            f.order.push_back((flow, f.next_stamp));
            f.seats.insert(flow, f.next_stamp);
            f.next_stamp += 1;
            if let Some(prev) = self.states.insert(flow, state) {
                self.fifos[table_of(&prev) as usize].seats.remove(&flow);
            }
            for f in &mut self.fifos {
                f.peak = f.peak.max(f.seats.len());
            }
        }

        fn take(&mut self, flow: usize, want: Table) -> Option<FlowState> {
            if self.states.get(&flow).map(table_of) != Some(want) {
                return None;
            }
            self.fifos[want as usize].seats.remove(&flow);
            self.states.remove(&flow)
        }

        fn flush(&mut self) {
            self.states.clear();
            for f in &mut self.fifos {
                f.order.clear();
                f.seats.clear();
            }
        }

        /// The walk the unfolded tables wrote.
        fn write<W: StateWrite>(&self, w: &mut W) {
            w.write_usize(self.states.len());
            for (&id, state) in &self.states {
                w.write_usize(id);
                state.write_state(w);
            }
            for f in &self.fifos {
                w.snap_only(|w| {
                    w.write_seq(&f.order, |w, &(flow, stamp)| {
                        w.write_usize(flow);
                        w.write_u64(stamp);
                    });
                });
                w.write_usize(f.seats.len());
                w.snap_only(|w| {
                    for (&flow, &stamp) in &f.seats {
                        w.write_usize(flow);
                        w.write_u64(stamp);
                    }
                });
                w.hash_only(|h| h.write_usize(f.capacity));
                w.write_u64(f.next_stamp);
                w.write_u64(f.evictions);
            }
            for f in &self.fifos {
                w.write_usize(f.peak);
            }
        }
    }

    #[test]
    fn folded_seats_match_the_unfolded_tables_under_churn() {
        const FLOWS: usize = 32;
        // The NFT stays below capacity, so its stale order entries pile
        // up to the compaction trigger; the others evict.
        let caps = [3, 10, 2];
        let mut rng = SmallRng::seed_from_u64(46);
        let mut t = FlowTables::new(caps[0], caps[1], caps[2]);
        let mut m = Unfolded::new(caps);
        let mut longest_order = 0;
        for step in 0..4_000u64 {
            let n = rng.gen_range(0..FLOWS);
            let f = flow(n);
            let probation = |arrivals| SftEntry {
                arrivals_since_probe: arrivals,
                ..entry()
            };
            match rng.gen_range(0..100u32) {
                // Suspected: onto probation (a re-suspicion overwrites
                // in place and keeps its seat).
                0..=29 => {
                    t.sft_insert(f, probation(step));
                    m.set(n, FlowState::Suspicious(probation(step)));
                }
                // The probe decides: nice or condemned.
                30..=44 => {
                    let decided = t.sft_remove(f);
                    assert_eq!(
                        decided.clone().map(FlowState::Suspicious),
                        m.take(n, Table::Sft)
                    );
                    if decided.is_some() {
                        if rng.gen_bool(0.5) {
                            t.nft_insert(f, SimTime::from_nanos(step));
                            m.set(
                                n,
                                FlowState::Nice {
                                    since: SimTime::from_nanos(step),
                                },
                            );
                        } else {
                            t.pdt_insert(f, PdtReason::Unresponsive);
                            m.set(n, FlowState::Condemned(PdtReason::Unresponsive));
                        }
                    }
                }
                // Re-validation: a nice flow goes back on probation.
                45..=59 => {
                    let was_nice = t.nft_remove(f);
                    assert_eq!(was_nice, m.take(n, Table::Nft).is_some());
                    if was_nice {
                        t.sft_insert(f, probation(step));
                        m.set(n, FlowState::Suspicious(probation(step)));
                    }
                }
                // An illegal source is condemned from any standing.
                60..=74 => {
                    t.pdt_insert(f, PdtReason::IllegalSource);
                    m.set(n, FlowState::Condemned(PdtReason::IllegalSource));
                }
                // A nice verdict overwrites any standing.
                75..=89 => {
                    let since = SimTime::from_nanos(step);
                    t.nft_insert(f, since);
                    m.set(n, FlowState::Nice { since });
                }
                90..=97 => {
                    if let Some(e) = t.sft_get_mut(f) {
                        e.arrivals_since_probe += 1;
                    }
                    if let Some(FlowState::Suspicious(e)) = m.states.get_mut(&n) {
                        e.arrivals_since_probe += 1;
                    }
                }
                _ => {
                    t.flush();
                    m.flush();
                }
            }
            for (fifo, model) in t.fifos.iter().zip(&m.fifos) {
                assert_eq!(fifo.len, model.seats.len(), "step {step}");
                longest_order = longest_order.max(fifo.order.len());
            }
            assert_eq!(
                [t.sft_len(), t.nft_len(), t.pdt_len()],
                m.fifos.each_ref().map(|f| f.seats.len())
            );
            for n in 0..FLOWS {
                assert_eq!(t.state(flow(n)), m.states.get(&n), "step {step} flow {n}");
            }
            let mut want = mafic_obs::SnapWriter::new();
            m.write(&mut want);
            assert_eq!(state_bytes(&t), want.into_bytes(), "step {step}");
            let mut want = mafic_obs::HashWriter::new();
            m.write(&mut want);
            assert_eq!(state_hash(&t), want.finish(), "step {step}");
            if step % 101 == 0 {
                assert_state_law(&t, || FlowTables::new(caps[0], caps[1], caps[2]));
            }
        }
        assert!(evictions(&t) > 0, "the churn reached capacity");
        assert!(
            longest_order >= 16,
            "the churn reached the compaction trigger"
        );
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
    fn seats_that_are_not_the_residents_are_malformed() {
        // One resident, flow 1 in the NFT, and the given seat lists.
        let payload = |sft: &[usize], nft: &[usize]| {
            let mut w = mafic_obs::SnapWriter::new();
            w.write_usize(1); // one state entry
            w.write_usize(1); // its flow index
            w.write_u8(1); // FlowState::Nice
            w.write_u64(0); // since
            for seats in [sft, nft, &[]] {
                w.write_usize(0); // an empty order deque
                w.write_usize(seats.len());
                for &flow in seats {
                    w.write_usize(flow);
                    w.write_u64(0);
                }
                w.write_u64(1); // next stamp
                w.write_u64(0); // evictions
            }
            for _ in 0..3 {
                w.write_usize(1); // peaks
            }
            w.into_bytes()
        };
        let restore =
            |bytes: Vec<u8>| FlowTables::new(4, 4, 4).read_state(&mut SnapReader::new(&bytes));
        let malformed = |why: &str| Err(SnapError::Malformed(why.to_string()));
        assert_eq!(restore(payload(&[], &[1])), Ok(()));
        assert_eq!(
            restore(payload(&[1], &[1])),
            malformed("Sft seat for f1 is not its next resident")
        );
        assert_eq!(
            restore(payload(&[], &[1, 1])),
            malformed("Nft seat for f1 is not its next resident")
        );
        assert_eq!(
            restore(payload(&[], &[])),
            malformed("Nft: a resident without a seat")
        );
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
