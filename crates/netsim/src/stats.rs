//! The global statistics collector.
//!
//! Records per-flow packet accounting (sent / delivered / dropped, broken
//! down by drop reason) plus optional binned time series of deliveries at
//! a watched node (the victim). The metrics crate turns these raw counts
//! into the paper's α, β, θp, θn and Lr.
//!
//! Ground-truth fields (`is_attack`) come from packet [`Provenance`] and
//! are written here and only here — the defense filters cannot see them.

use crate::flows::{read_flow_id, FlowId, FlowInterner, FlowSlab};
use crate::ids::NodeId;
use crate::packet::{DropReason, FlowKey, Packet, Provenance};
use crate::time::{SimDuration, SimTime};
use mafic_obs::{SnapError, SnapReader, State, StateWrite};

/// Per-flow packet accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowRecord {
    /// Ground truth: does this flow belong to the attack?
    pub is_attack: bool,
    /// True if the flow's data packets are TCP segments.
    pub is_tcp: bool,
    /// Data packets injected by the origin agent.
    pub sent: u64,
    /// Data packets delivered to the destination agent.
    pub delivered: u64,
    /// Packets examined by an *active* defense filter (ATR arrivals).
    pub seen_at_atr: u64,
    /// Drops during the probing phase (flow in SFT).
    pub dropped_probing: u64,
    /// Drops because the flow was in the PDT.
    pub dropped_permanent: u64,
    /// Drops because the claimed source address was illegal.
    pub dropped_illegal: u64,
    /// Drops by the proportional baseline policy.
    pub dropped_proportional: u64,
    /// Drops by an aggregate rate-limit policy.
    pub dropped_rate_limited: u64,
    /// Drop-tail queue losses.
    pub dropped_queue: u64,
    /// Any other losses (no-route, hop limit, other filters).
    pub dropped_other: u64,
    /// Probe bursts sent toward this flow's claimed source.
    pub probes_sent: u64,
    /// 1 if the flow was declared nice (NFT), persisted for reporting.
    pub declared_nice: u64,
    /// 1 if the flow was declared malicious (PDT).
    pub declared_malicious: u64,
}

impl FlowRecord {
    /// Total packets dropped by defense filters (any policy).
    #[must_use]
    pub fn dropped_by_filter(&self) -> u64 {
        self.dropped_probing
            + self.dropped_permanent
            + self.dropped_illegal
            + self.dropped_proportional
            + self.dropped_rate_limited
    }

    /// Total packets lost for any reason.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped_by_filter() + self.dropped_queue + self.dropped_other
    }
}

/// One delivery time-series bin at the watched node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VictimBin {
    /// Bytes delivered by legitimate flows in this bin.
    pub legit_bytes: u64,
    /// Bytes delivered by attack flows in this bin.
    pub attack_bytes: u64,
    /// Packets delivered by legitimate flows.
    pub legit_packets: u64,
    /// Packets delivered by attack flows.
    pub attack_packets: u64,
}

impl VictimBin {
    /// Total bytes delivered in this bin.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.legit_bytes + self.attack_bytes
    }
}

/// Configuration of the victim watch time series.
#[derive(Debug, Clone, Copy)]
struct VictimWatch {
    node: NodeId,
    bin: SimDuration,
}

/// Configuration of the arrival (offered-load) watch.
#[derive(Debug, Clone, Copy)]
struct ArrivalWatch {
    node: NodeId,
    dst: crate::ids::Addr,
    bin: SimDuration,
}

/// Global per-run statistics.
///
/// Per-flow records live in a dense [`FlowSlab`] behind the collector's
/// own [`FlowInterner`]: the accounting calls on the packet hot path cost
/// one interner probe plus an array index, and iteration runs in id
/// (first-seen) order — deterministic, unlike the `std` hash map this
/// replaced.
#[derive(Debug)]
pub struct StatsCollector {
    interner: FlowInterner,
    records: FlowSlab<FlowRecord>,
    watch: Option<VictimWatch>,
    bins: Vec<VictimBin>,
    arrival_watch: Option<ArrivalWatch>,
    arrival_bins: Vec<VictimBin>,
    /// Probe packets emitted by filters, domain-wide.
    pub probes_emitted: u64,
    /// Total packets injected by agents.
    pub total_sent: u64,
    /// Total packets delivered to agents.
    pub total_delivered: u64,
}

impl Default for StatsCollector {
    fn default() -> Self {
        StatsCollector::new()
    }
}

impl StatsCollector {
    /// Creates an empty collector with no victim watch.
    #[must_use]
    pub fn new() -> Self {
        StatsCollector {
            interner: FlowInterner::new(),
            records: FlowSlab::new(),
            watch: None,
            bins: Vec::new(),
            arrival_watch: None,
            arrival_bins: Vec::new(),
            probes_emitted: 0,
            total_sent: 0,
            total_delivered: 0,
        }
    }

    /// Starts recording the *offered load*: every packet arriving at
    /// `node` destined to `dst`, binned by `bin`, counted *before* any
    /// filter or queue can drop it. This is the paper's "arrival rate at
    /// the victim" (its Fig. 4 measurements are taken at the last-hop
    /// router, upstream of the bottleneck link).
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn watch_arrivals(&mut self, node: NodeId, dst: crate::ids::Addr, bin: SimDuration) {
        assert!(!bin.is_zero(), "bin width must be positive");
        self.arrival_watch = Some(ArrivalWatch { node, dst, bin });
    }

    /// Starts recording a delivery time series at `node` with bins of
    /// width `bin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn watch_victim(&mut self, node: NodeId, bin: SimDuration) {
        assert!(!bin.is_zero(), "bin width must be positive");
        self.watch = Some(VictimWatch { node, bin });
    }

    /// The record slot for `key`, created on first touch.
    fn entry(&mut self, key: FlowKey) -> &mut FlowRecord {
        let id = self.flow_id(key);
        self.records.get_mut(id).expect("just ensured")
    }

    /// Interns `key` into the collector's id space, creating the record
    /// slot on first touch. The id lets hot-path callers skip re-hashing
    /// the 4-tuple on every subsequent accounting call (the simulator
    /// caches it alongside the in-flight packet).
    pub fn flow_id(&mut self, key: FlowKey) -> FlowId {
        let id = self.interner.intern(key);
        if !self.records.contains(id) {
            self.records.insert(id, FlowRecord::default());
        }
        id
    }

    /// The record slot for an id minted by [`StatsCollector::flow_id`].
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this collector.
    fn entry_id(&mut self, id: FlowId) -> &mut FlowRecord {
        self.records
            .get_mut(id)
            .expect("id minted by this collector")
    }

    fn record_id(&mut self, id: FlowId, provenance: Provenance) -> &mut FlowRecord {
        let rec = self.entry_id(id);
        rec.is_attack |= provenance.is_attack;
        rec
    }

    /// Declares a flow's ground truth. Called by the workload layer when
    /// the flow's agent is created so records exist even for flows whose
    /// every packet is dropped.
    pub fn declare_flow(&mut self, key: FlowKey, is_attack: bool, is_tcp: bool) {
        let rec = self.entry(key);
        rec.is_attack = is_attack;
        rec.is_tcp = is_tcp;
    }

    /// Records a packet injection on flow `id` (minted by
    /// [`StatsCollector::flow_id`]).
    pub fn on_sent_id(&mut self, id: FlowId, packet: &Packet) {
        self.total_sent += 1;
        self.record_id(id, packet.provenance).sent += 1;
    }

    /// Records a packet arriving at `node` (pre-filter, pre-queue).
    pub(crate) fn on_node_arrival(&mut self, packet: &Packet, node: NodeId, now: SimTime) {
        let Some(watch) = self.arrival_watch else {
            return;
        };
        if watch.node != node || packet.key.dst != watch.dst {
            return;
        }
        let idx = (now.as_nanos() / watch.bin.as_nanos()) as usize;
        if idx >= self.arrival_bins.len() {
            self.arrival_bins.resize(idx + 1, VictimBin::default());
        }
        let bin = &mut self.arrival_bins[idx];
        if packet.provenance.is_attack {
            bin.attack_bytes += u64::from(packet.size_bytes);
            bin.attack_packets += 1;
        } else {
            bin.legit_bytes += u64::from(packet.size_bytes);
            bin.legit_packets += 1;
        }
    }

    /// Records a delivery of flow `id` to an agent on `node`.
    pub fn on_delivered_id(&mut self, id: FlowId, packet: &Packet, node: NodeId, now: SimTime) {
        self.total_delivered += 1;
        self.record_id(id, packet.provenance).delivered += 1;
        if let Some(watch) = self.watch {
            if watch.node == node {
                let idx = (now.as_nanos() / watch.bin.as_nanos()) as usize;
                if idx >= self.bins.len() {
                    self.bins.resize(idx + 1, VictimBin::default());
                }
                let bin = &mut self.bins[idx];
                if packet.provenance.is_attack {
                    bin.attack_bytes += u64::from(packet.size_bytes);
                    bin.attack_packets += 1;
                } else {
                    bin.legit_bytes += u64::from(packet.size_bytes);
                    bin.legit_packets += 1;
                }
            }
        }
    }

    /// Records a drop of flow `id` with its reason.
    pub fn on_dropped_id(&mut self, id: FlowId, packet: &Packet, reason: DropReason) {
        let rec = self.record_id(id, packet.provenance);
        match reason {
            DropReason::FilterProbing => rec.dropped_probing += 1,
            DropReason::FilterPermanent => rec.dropped_permanent += 1,
            DropReason::FilterIllegalSource => rec.dropped_illegal += 1,
            DropReason::FilterProportional => rec.dropped_proportional += 1,
            DropReason::FilterRateLimit => rec.dropped_rate_limited += 1,
            DropReason::QueueFull => rec.dropped_queue += 1,
            DropReason::NoRoute | DropReason::HopLimit | DropReason::FilterOther => {
                rec.dropped_other += 1;
            }
        }
    }

    /// Records that an active defense filter examined a packet of `key`.
    pub fn on_atr_seen(&mut self, key: FlowKey) {
        self.entry(key).seen_at_atr += 1;
    }

    /// Records a probe burst toward `key`'s claimed source.
    pub(crate) fn on_probe_sent(&mut self, key: FlowKey) {
        self.probes_emitted += 1;
        self.entry(key).probes_sent += 1;
    }

    /// Records a classification decision for `key`.
    pub fn on_flow_declared(&mut self, key: FlowKey, nice: bool) {
        let rec = self.entry(key);
        if nice {
            rec.declared_nice = 1;
        } else {
            rec.declared_malicious = 1;
        }
    }

    /// The record for `key`, if any packet or declaration touched it.
    #[must_use]
    pub fn flow(&self, key: &FlowKey) -> Option<&FlowRecord> {
        self.interner
            .lookup(*key)
            .and_then(|id| self.records.get(id))
    }

    /// Iterates over all flow records in id (first-seen) order.
    pub fn flows(&self) -> impl Iterator<Item = (FlowKey, &FlowRecord)> {
        self.records
            .iter()
            .map(|(id, rec)| (self.interner.resolve(id), rec))
    }

    /// The victim delivery time series (empty unless a watch was set).
    #[must_use]
    pub fn victim_bins(&self) -> &[VictimBin] {
        &self.bins
    }

    /// Width of the victim series bins, if a watch was configured.
    #[must_use]
    pub fn victim_bin_width(&self) -> Option<SimDuration> {
        self.watch.map(|w| w.bin)
    }

    /// The offered-load time series (empty unless an arrival watch was
    /// set).
    #[must_use]
    pub fn arrival_bins(&self) -> &[VictimBin] {
        &self.arrival_bins
    }

    /// Width of the arrival series bins, if an arrival watch was
    /// configured.
    #[must_use]
    pub fn arrival_bin_width(&self) -> Option<SimDuration> {
        self.arrival_watch.map(|w| w.bin)
    }

    /// Cumulative drop counts by reason group, summed over every flow:
    /// `(probing, permanent, illegal, proportional, rate-limited, queue,
    /// other)` — the ledger's drop-counter snapshot.
    #[must_use]
    pub fn drop_totals(&self) -> [u64; 7] {
        let mut totals = [0u64; 7];
        for (_, rec) in self.records.iter() {
            totals[0] += rec.dropped_probing;
            totals[1] += rec.dropped_permanent;
            totals[2] += rec.dropped_illegal;
            totals[3] += rec.dropped_proportional;
            totals[4] += rec.dropped_rate_limited;
            totals[5] += rec.dropped_queue;
            totals[6] += rec.dropped_other;
        }
        totals
    }
}

impl FlowRecord {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_bool(self.is_attack);
        w.write_bool(self.is_tcp);
        w.write_u64(self.sent);
        w.write_u64(self.delivered);
        w.write_u64(self.seen_at_atr);
        w.write_u64(self.dropped_probing);
        w.write_u64(self.dropped_permanent);
        w.write_u64(self.dropped_illegal);
        w.write_u64(self.dropped_proportional);
        w.write_u64(self.dropped_rate_limited);
        w.write_u64(self.dropped_queue);
        w.write_u64(self.dropped_other);
        w.write_u64(self.probes_sent);
        w.write_u64(self.declared_nice);
        w.write_u64(self.declared_malicious);
    }
}

fn read_flow_record(r: &mut SnapReader<'_>) -> Result<FlowRecord, SnapError> {
    Ok(FlowRecord {
        is_attack: r.read_bool()?,
        is_tcp: r.read_bool()?,
        sent: r.read_u64()?,
        delivered: r.read_u64()?,
        seen_at_atr: r.read_u64()?,
        dropped_probing: r.read_u64()?,
        dropped_permanent: r.read_u64()?,
        dropped_illegal: r.read_u64()?,
        dropped_proportional: r.read_u64()?,
        dropped_rate_limited: r.read_u64()?,
        dropped_queue: r.read_u64()?,
        dropped_other: r.read_u64()?,
        probes_sent: r.read_u64()?,
        declared_nice: r.read_u64()?,
        declared_malicious: r.read_u64()?,
    })
}

fn write_bins<W: StateWrite>(bins: &[VictimBin], w: &mut W) {
    w.write_seq(bins, |w, bin| {
        w.write_u64(bin.legit_bytes);
        w.write_u64(bin.attack_bytes);
        w.write_u64(bin.legit_packets);
        w.write_u64(bin.attack_packets);
    });
}

fn read_bins(r: &mut SnapReader<'_>) -> Result<Vec<VictimBin>, SnapError> {
    r.read_seq(|r| {
        Ok(VictimBin {
            legit_bytes: r.read_u64()?,
            attack_bytes: r.read_u64()?,
            legit_packets: r.read_u64()?,
            attack_packets: r.read_u64()?,
        })
    })
}

impl State for StatsCollector {
    /// Counters, every flow record in id order, and both time series.
    /// A checkpoint also carries the interner's key slab, which the
    /// ledger summarises by length. The watch configurations are
    /// build-time settings (recreated by the scenario builder) and
    /// appear in neither.
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_u64(self.probes_emitted);
        w.write_u64(self.total_sent);
        w.write_u64(self.total_delivered);
        w.hash_only(|h| h.write_usize(self.interner.len()));
        w.snap_only(|w| self.interner.write_state(w));
        w.write_usize(self.records.len());
        for (id, rec) in self.records.iter() {
            w.write_usize(id.index());
            rec.write_state(w);
        }
        write_bins(&self.bins, w);
        write_bins(&self.arrival_bins, w);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.probes_emitted = r.read_u64()?;
        self.total_sent = r.read_u64()?;
        self.total_delivered = r.read_u64()?;
        self.interner.read_state(r)?;
        self.records = r.read_seq(|r| Ok((read_flow_id(r)?, read_flow_record(r)?)))?;
        self.bins = read_bins(r)?;
        self.arrival_bins = read_bins(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Addr, AgentId};
    use crate::packet::PacketKind;
    use crate::testkit::{assert_state_law, state_bytes, state_hash};

    fn pkt(attack: bool) -> Packet {
        Packet {
            id: 1,
            key: FlowKey::new(Addr::new(1), Addr::new(2), 1, 2),
            kind: PacketKind::Udp,
            size_bytes: 500,
            created_at: SimTime::ZERO,
            provenance: Provenance {
                origin: AgentId(0),
                is_attack: attack,
            },
            hops: 0,
        }
    }

    #[test]
    fn accounting_by_reason() {
        let mut s = StatsCollector::new();
        let p = pkt(true);
        let id = s.flow_id(p.key);
        s.on_sent_id(id, &p);
        s.on_dropped_id(id, &p, DropReason::FilterProbing);
        s.on_dropped_id(id, &p, DropReason::FilterPermanent);
        s.on_dropped_id(id, &p, DropReason::QueueFull);
        s.on_dropped_id(id, &p, DropReason::NoRoute);
        let rec = s.flow(&p.key).unwrap();
        assert!(rec.is_attack);
        assert_eq!(rec.sent, 1);
        assert_eq!(rec.dropped_probing, 1);
        assert_eq!(rec.dropped_permanent, 1);
        assert_eq!(rec.dropped_queue, 1);
        assert_eq!(rec.dropped_other, 1);
        assert_eq!(rec.dropped_by_filter(), 2);
        assert_eq!(rec.dropped_total(), 4);
    }

    #[test]
    fn victim_series_bins_by_time_and_class() {
        let mut s = StatsCollector::new();
        s.watch_victim(NodeId(3), SimDuration::from_millis(100));
        let legit = pkt(false);
        let attack = pkt(true);
        let (legit_id, attack_id) = (s.flow_id(legit.key), s.flow_id(attack.key));
        s.on_delivered_id(legit_id, &legit, NodeId(3), SimTime::from_secs_f64(0.05));
        s.on_delivered_id(attack_id, &attack, NodeId(3), SimTime::from_secs_f64(0.25));
        // Delivery at a different node is not binned.
        s.on_delivered_id(legit_id, &legit, NodeId(9), SimTime::from_secs_f64(0.05));
        let bins = s.victim_bins();
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0].legit_bytes, 500);
        assert_eq!(bins[0].attack_bytes, 0);
        assert_eq!(bins[2].attack_packets, 1);
        assert_eq!(bins[2].total_bytes(), 500);
        assert_eq!(s.victim_bin_width(), Some(SimDuration::from_millis(100)));
    }

    #[test]
    fn declare_flow_creates_record_with_truth() {
        let mut s = StatsCollector::new();
        let key = FlowKey::new(Addr::new(9), Addr::new(8), 7, 6);
        s.declare_flow(key, true, false);
        let rec = s.flow(&key).unwrap();
        assert!(rec.is_attack);
        assert!(!rec.is_tcp);
        assert_eq!(rec.sent, 0);
    }

    #[test]
    fn notes_accumulate() {
        let mut s = StatsCollector::new();
        let key = pkt(false).key;
        s.on_atr_seen(key);
        s.on_atr_seen(key);
        s.on_probe_sent(key);
        s.on_flow_declared(key, true);
        let rec = s.flow(&key).unwrap();
        assert_eq!(rec.seen_at_atr, 2);
        assert_eq!(rec.probes_sent, 1);
        assert_eq!(rec.declared_nice, 1);
        assert_eq!(s.probes_emitted, 1);
    }

    #[test]
    fn snapshot_round_trips_records_and_series() {
        let mut s = StatsCollector::new();
        s.watch_victim(NodeId(3), SimDuration::from_millis(100));
        let legit = pkt(false);
        let attack = pkt(true);
        let (legit_id, attack_id) = (s.flow_id(legit.key), s.flow_id(attack.key));
        s.on_sent_id(legit_id, &legit);
        s.on_sent_id(attack_id, &attack);
        s.on_delivered_id(legit_id, &legit, NodeId(3), SimTime::from_secs_f64(0.05));
        s.on_dropped_id(attack_id, &attack, DropReason::FilterProbing);
        s.on_probe_sent(legit.key);
        let bytes = state_bytes(&s);
        // Restore onto a fresh collector carrying the same build-time
        // watch configuration.
        let blank = || {
            let mut blank = StatsCollector::new();
            blank.watch_victim(NodeId(3), SimDuration::from_millis(100));
            blank
        };
        assert_state_law(&s, blank);
        let mut restored = blank();
        let mut r = SnapReader::new(&bytes);
        restored.read_state(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(state_hash(&s), state_hash(&restored));
        assert_eq!(restored.flow(&legit.key).unwrap().delivered, 1);
        assert_eq!(restored.drop_totals(), s.drop_totals());
        // The restored interner mints the next id exactly where the
        // original would.
        let new_key = FlowKey::new(Addr::new(70), Addr::new(71), 1, 2);
        assert_eq!(restored.flow_id(new_key), s.flow_id(new_key));
    }

    #[test]
    fn interned_keys_are_saved_but_only_their_count_is_hashed() {
        let touched = |port: u16| {
            let mut s = StatsCollector::new();
            let _ = s.flow_id(FlowKey::new(Addr::new(1), Addr::new(2), port, 80));
            (state_hash(&s), state_bytes(&s))
        };
        let (hash_a, bytes_a) = touched(1000);
        let (hash_b, bytes_b) = touched(2000);
        assert_eq!(hash_a, hash_b);
        assert_ne!(bytes_a, bytes_b);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_rejected() {
        let mut s = StatsCollector::new();
        s.watch_victim(NodeId(0), SimDuration::ZERO);
    }
}
