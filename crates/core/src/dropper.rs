//! The MAFIC adaptive dropper — the control flow of the paper's Figure 2.
//!
//! Installed as a [`PacketFilter`] on each Attack Transit Router, idle
//! until a `PushbackStart` control message arrives. While active, for
//! every packet destined to the victim:
//!
//! 1. **PDT match** → drop (permanent).
//! 2. **NFT match** → forward (flow already passed the probe test).
//! 3. **SFT match** → update the arrival count; if the 2×RTT timer has
//!    expired, classify (rate decreased → NFT, else → PDT); otherwise
//!    keep dropping with probability `Pd`.
//! 4. **New flow** → illegal source goes straight to the PDT; otherwise
//!    the packet is dropped with probability `Pd`, and on the first such
//!    drop the flow enters the SFT: the router records the pre-drop
//!    baseline rate, issues a duplicate-ACK probe burst toward its
//!    claimed source, and starts a timer of `timer_rtt_multiplier × RTT`
//!    (RTT read from the packet's timestamp option, clamped).
//!
//! The hot path is index-based end to end: the packet's interned
//! [`FlowId`] (minted once by the simulator, delivered in [`PacketEnv`])
//! keys a single-slab [`FlowTables`] probe and a dense
//! [`ArrivalTracker`], and timers ride the netsim timer wheel carrying
//! the id directly — no flow hashing and no token maps anywhere in the
//! filter.
//!
//! On `PushbackStop` all tables are flushed. Flow ids survive the flush
//! (the interner outlives any activation); wheel timers armed before the
//! flush may still fire and are ignored as stale.

use crate::config::{
    AddressValidator, MaficConfig, DECREASE_THRESHOLD, DEFAULT_RTT, MAX_RTT, MIN_RTT,
    PROBE_DUP_ACKS, PROBE_SIZE, RATE_HORIZON, RATE_MAX_FLOWS,
};
use crate::policy::TAG_MAFIC;
use crate::rate::ArrivalTracker;
use crate::tables::{FlowState, FlowTables, PdtReason, SftEntry};
use mafic_netsim::{
    Addr, DropReason, FilterAction, FilterControl, FilterCtx, FlowId, FlowKey, Packet, PacketEnv,
    PacketFilter, PacketKind, SimDuration, SimTime, StatNote,
};
use mafic_obs::{SnapError, SnapReader, State, StateWrite};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Wheel-timer kind: the 2×RTT probation deadline of an SFT flow.
pub const TIMER_PROBATION: u16 = 0;
/// Wheel-timer kind: NFT re-validation (anti-pulsing extension).
pub(crate) const TIMER_REVALIDATE: u16 = 1;

/// Aggregate counters exposed for diagnostics and the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaficCounters {
    /// Packets examined while the defense was active.
    pub examined: u64,
    /// Packets dropped during probing (SFT phase and first-touch drops).
    pub dropped_probing: u64,
    /// Packets dropped by PDT membership.
    pub dropped_permanent: u64,
    /// Packets dropped for illegal source addresses.
    pub dropped_illegal: u64,
    /// Probe bursts emitted.
    pub probes_sent: u64,
    /// Wheel timers armed (probation deadlines + NFT re-validations) —
    /// the filter's per-flow timer cost, reported as a deployment cost
    /// proxy alongside table memory.
    pub timers_armed: u64,
    /// Flows declared nice.
    pub flows_nice: u64,
    /// Flows declared malicious (including illegal-source flows).
    pub flows_malicious: u64,
}

/// The flow's standing at packet time, extracted from the single slab
/// probe so the borrow ends before any mutation.
enum Standing {
    Condemned,
    Nice,
    Suspicious { deadline: SimTime },
    New,
}

/// The MAFIC adaptive dropping filter.
pub struct MaficFilter {
    config: MaficConfig,
    validator: AddressValidator,
    tables: FlowTables,
    tracker: ArrivalTracker,
    rng: SmallRng,
    /// `Some(victim)` while the defense is active.
    active: Option<Addr>,
    counters: MaficCounters,
}

impl std::fmt::Debug for MaficFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaficFilter")
            .field("active", &self.active)
            .field("sft", &self.tables.sft_len())
            .field("nft", &self.tables.nft_len())
            .field("pdt", &self.tables.pdt_len())
            .field("counters", &self.counters)
            .finish()
    }
}

impl MaficFilter {
    /// Creates an (inactive) MAFIC filter.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation — a configuration bug.
    #[must_use]
    pub fn new(config: MaficConfig, validator: AddressValidator) -> Self {
        config.validate().expect("invalid MaficConfig");
        let tables = FlowTables::new(
            config.sft_capacity,
            config.nft_capacity,
            config.pdt_capacity,
        );
        let tracker = ArrivalTracker::new(RATE_HORIZON, RATE_MAX_FLOWS);
        let rng = SmallRng::seed_from_u64(config.seed);
        MaficFilter {
            config,
            validator,
            tables,
            tracker,
            rng,
            active: None,
            counters: MaficCounters::default(),
        }
    }

    /// True while a pushback request is in force.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// The victim address being defended, if active.
    #[must_use]
    pub fn victim(&self) -> Option<Addr> {
        self.active
    }

    /// Aggregate counters.
    #[must_use]
    pub fn counters(&self) -> MaficCounters {
        self.counters
    }

    /// The table set (inspection).
    #[must_use]
    pub fn tables(&self) -> &FlowTables {
        &self.tables
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &MaficConfig {
        &self.config
    }

    /// Approximate **peak** per-flow state this filter ever held, in
    /// bytes (SFT/NFT/PDT under the configured label mode). Survives the
    /// `PushbackStop` flush — the deployment-cost proxy reported by the
    /// workload layer.
    #[must_use]
    pub fn approx_state_bytes(&self) -> usize {
        self.tables
            .approx_peak_bytes(self.config.label_mode.stored_bytes())
    }

    /// Activates the defense for `victim` (equivalent to receiving a
    /// `PushbackStart`; public for direct harness control).
    pub fn activate(&mut self, victim: Addr) {
        self.active = Some(victim);
    }

    /// Deactivates and flushes all tables. Pending wheel timers are left
    /// to fire stale (and be ignored); flow ids stay valid.
    pub(crate) fn deactivate(&mut self) {
        self.active = None;
        self.tables.flush();
        self.tracker.clear();
    }

    /// Per-flow RTT estimate from the packet's timestamp option.
    ///
    /// The sender stamps `ts` at transmission; `now − ts` is the one-way
    /// source→router delay, so the source→router→source round trip the
    /// probe must cover is approximately twice that. Clamped to
    /// `MIN_RTT..=MAX_RTT`; flows without a usable timestamp get
    /// `DEFAULT_RTT`.
    fn estimate_rtt(&self, packet: &Packet, now: SimTime) -> SimDuration {
        let ts = match packet.kind {
            PacketKind::TcpData { ts, .. } | PacketKind::TcpAck { ts, .. } => ts,
            PacketKind::Udp | PacketKind::ProbeDupAck { .. } | PacketKind::Pushback(_) => {
                SimTime::ZERO
            }
        };
        let estimate = if ts == SimTime::ZERO {
            DEFAULT_RTT
        } else {
            now.saturating_since(ts).mul_f64(2.0)
        };
        estimate.max(MIN_RTT).min(MAX_RTT)
    }

    fn coin(&mut self) -> bool {
        self.rng.gen::<f64>() < self.config.drop_probability
    }

    fn emit_probe(&mut self, key: FlowKey, victim: Addr, ctx: &mut FilterCtx<'_>) {
        // Duplicate ACKs claim to come from the destination the flow is
        // sending to (the victim side), addressed to the claimed source.
        ctx.emit(
            FlowKey::new(victim, key.src, key.dst_port, key.src_port),
            PacketKind::ProbeDupAck {
                count: PROBE_DUP_ACKS,
            },
            PROBE_SIZE,
        );
        self.counters.probes_sent += 1;
    }

    /// Applies the probation decision for `flow`: rate decreased → NFT,
    /// otherwise → PDT. Returns `true` if the flow was declared nice.
    ///
    /// The arrival rate over the first half of the probation window is
    /// compared against the second half. A compliant TCP source drains
    /// its in-flight window during the first RTT and then stalls (its
    /// packets are being dropped and the probe told it to back off), so
    /// the second half collapses; an unresponsive zombie keeps both
    /// halves equal. A flow silent in both halves stopped entirely —
    /// maximally responsive.
    fn decide(&mut self, flow: FlowId, now: SimTime, ctx: &mut FilterCtx<'_>) -> bool {
        let Some(entry) = self.tables.sft_remove(flow) else {
            return false;
        };
        let half = entry.deadline.saturating_since(entry.probe_started) / 2;
        let mid = entry.probe_started + half;
        let first = self.tracker.count_in(flow, mid, half);
        let second = self.tracker.count_in(flow, entry.deadline, half);
        let responsive = if first == 0 && second == 0 {
            true
        } else {
            (second as f64) <= DECREASE_THRESHOLD * (first as f64)
        };
        if responsive {
            self.tables.nft_insert(flow, now);
            self.counters.flows_nice += 1;
            ctx.note(StatNote::FlowDeclaredNice, entry.key);
            if let Some(period) = self.config.nft_revalidate_after {
                // Anti-pulsing extension: evict from the NFT later so the
                // next packet re-enters probation.
                ctx.schedule_flow_timer(period, flow, TIMER_REVALIDATE);
                self.counters.timers_armed += 1;
            }
            true
        } else {
            self.tables.pdt_insert(flow, PdtReason::Unresponsive);
            self.counters.flows_malicious += 1;
            ctx.note(StatNote::FlowDeclaredMalicious, entry.key);
            false
        }
    }

    /// Puts a fresh flow on probation: SFT entry + probe + wheel timer.
    fn start_probation(
        &mut self,
        flow: FlowId,
        packet: &Packet,
        victim: Addr,
        ctx: &mut FilterCtx<'_>,
    ) {
        let now = ctx.now();
        let rtt = self.estimate_rtt(packet, now);
        let timer = rtt.mul_f64(self.config.timer_rtt_multiplier);
        // Baseline: the flow's rate over one RTT *before* this packet.
        let baseline_rate = self.tracker.rate_in(flow, now, rtt);
        let entry = SftEntry {
            key: packet.key,
            probe_started: now,
            baseline_rate,
            rtt_estimate: rtt,
            deadline: now + timer,
            arrivals_since_probe: 0,
        };
        self.tables.sft_insert(flow, entry);
        ctx.schedule_flow_timer(timer, flow, TIMER_PROBATION);
        self.counters.timers_armed += 1;
        self.emit_probe(packet.key, victim, ctx);
        ctx.note(StatNote::ProbeSent, packet.key);
    }
}

impl State for MaficFilter {
    /// The RNG is deliberately excluded from the *hash*: its draws only
    /// influence observable state through drop decisions — which the
    /// tables, tracker, and counters already pin, so any draw-sequence
    /// divergence surfaces there on the very next classified packet.
    /// Checkpoints do carry it: a restored run continues the stream
    /// mid-way.
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.hash_only(|h| h.write_u8(TAG_MAFIC));
        w.write_opt(self.active, |w, victim| w.write_u32(victim.as_u32()));
        w.snap_only(|w| w.write_rng(self.rng.state()));
        self.tables.write_state(w);
        self.tracker.write_state(w);
        w.write_u64(self.counters.examined);
        w.write_u64(self.counters.dropped_probing);
        w.write_u64(self.counters.dropped_permanent);
        w.write_u64(self.counters.dropped_illegal);
        w.write_u64(self.counters.probes_sent);
        w.write_u64(self.counters.timers_armed);
        w.write_u64(self.counters.flows_nice);
        w.write_u64(self.counters.flows_malicious);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.active = r.read_opt("mafic-active", |r| r.read_u32().map(Addr::new))?;
        self.rng = r.read_rng(SmallRng::from_state)?;
        self.tables.read_state(r)?;
        self.tracker.read_state(r)?;
        self.counters.examined = r.read_u64()?;
        self.counters.dropped_probing = r.read_u64()?;
        self.counters.dropped_permanent = r.read_u64()?;
        self.counters.dropped_illegal = r.read_u64()?;
        self.counters.probes_sent = r.read_u64()?;
        self.counters.timers_armed = r.read_u64()?;
        self.counters.flows_nice = r.read_u64()?;
        self.counters.flows_malicious = r.read_u64()?;
        Ok(())
    }
}

impl PacketFilter for MaficFilter {
    fn on_packet(
        &mut self,
        packet: &Packet,
        env: &PacketEnv,
        ctx: &mut FilterCtx<'_>,
    ) -> FilterAction {
        let Some(victim) = self.active else {
            return FilterAction::Forward;
        };
        if packet.key.dst != victim {
            return FilterAction::Forward;
        }
        self.counters.examined += 1;
        ctx.note(StatNote::AtrSeen, packet.key);

        let flow = env.flow;
        let now = ctx.now();
        self.tracker.record(flow, now);

        // One slab probe classifies the flow; the borrow is reduced to a
        // copyable standing before any mutation below.
        let standing = match self.tables.state(flow) {
            Some(FlowState::Condemned(_)) => Standing::Condemned,
            Some(FlowState::Nice { .. }) => Standing::Nice,
            Some(FlowState::Suspicious(entry)) => Standing::Suspicious {
                deadline: entry.deadline,
            },
            None => Standing::New,
        };
        match standing {
            // 1. Permanently condemned flows.
            Standing::Condemned => {
                self.counters.dropped_permanent += 1;
                FilterAction::Drop(DropReason::FilterPermanent)
            }
            // 2. Flows that already passed the test.
            Standing::Nice => FilterAction::Forward,
            // 3. Flows on probation.
            Standing::Suspicious { deadline } => {
                if now >= deadline {
                    // Timer expired but the wheel event has not fired yet
                    // (or fires later this instant): classify now.
                    let nice = self.decide(flow, now, ctx);
                    return if nice {
                        FilterAction::Forward
                    } else {
                        self.counters.dropped_permanent += 1;
                        FilterAction::Drop(DropReason::FilterPermanent)
                    };
                }
                if let Some(entry) = self.tables.sft_get_mut(flow) {
                    entry.arrivals_since_probe += 1;
                }
                if self.coin() {
                    self.counters.dropped_probing += 1;
                    FilterAction::Drop(DropReason::FilterProbing)
                } else {
                    FilterAction::Forward
                }
            }
            // 4. New flow.
            Standing::New => {
                if !self.validator.is_legal(packet.key.src) {
                    self.tables.pdt_insert(flow, PdtReason::IllegalSource);
                    self.counters.dropped_illegal += 1;
                    self.counters.flows_malicious += 1;
                    ctx.note(StatNote::FlowDeclaredMalicious, packet.key);
                    return FilterAction::Drop(DropReason::FilterIllegalSource);
                }
                if self.coin() {
                    self.start_probation(flow, packet, victim, ctx);
                    self.counters.dropped_probing += 1;
                    FilterAction::Drop(DropReason::FilterProbing)
                } else {
                    FilterAction::Forward
                }
            }
        }
    }

    fn on_flow_timer(&mut self, flow: FlowId, kind: u16, ctx: &mut FilterCtx<'_>) {
        if self.active.is_none() {
            return; // Stale fire after PushbackStop.
        }
        match kind {
            TIMER_REVALIDATE => {
                // Re-validation: drop the nice verdict so the flow's next
                // packet re-enters the new-flow path and may be re-probed.
                // A timer armed for an *earlier* nice verdict (e.g. before
                // a PushbackStop flush and re-activation) is stale: the
                // current verdict has not yet lived its full period.
                let Some(period) = self.config.nft_revalidate_after else {
                    return;
                };
                if let Some(since) = self.tables.nft_since(flow) {
                    if ctx.now() >= since + period {
                        let _ = self.tables.nft_remove(flow);
                    }
                }
            }
            TIMER_PROBATION => {
                let now = ctx.now();
                if let Some(entry) = self.tables.sft_get(flow) {
                    if now >= entry.deadline {
                        let _ = self.decide(flow, now, ctx);
                    }
                }
                // Absent entry: the packet path classified first, or the
                // tables were flushed — a stale fire either way.
            }
            _ => {}
        }
    }

    fn on_control(&mut self, msg: &FilterControl, _ctx: &mut FilterCtx<'_>) {
        match msg {
            FilterControl::PushbackStart { victim } => self.activate(*victim),
            FilterControl::PushbackStop => self.deactivate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, state_hash, FilterHarness};
    use mafic_netsim::{AgentId, Provenance};

    const VICTIM: Addr = Addr::new(0x0AC8_0001); // 10.200.0.1

    fn config() -> MaficConfig {
        MaficConfig {
            seed: 42,
            ..MaficConfig::default()
        }
    }

    fn filter(pd: f64) -> MaficFilter {
        let mut c = config();
        c.drop_probability = pd;
        MaficFilter::new(c, AddressValidator::AllowAll)
    }

    fn active_filter(pd: f64) -> MaficFilter {
        let mut f = filter(pd);
        f.activate(VICTIM);
        f
    }

    fn pkt(src_port: u16, now: SimTime) -> Packet {
        Packet {
            id: u64::from(src_port) * 1000 + now.as_nanos() % 1000,
            key: FlowKey::new(Addr::from_octets(10, 1, 0, 1), VICTIM, src_port, 80),
            kind: PacketKind::TcpData {
                seq: 0,
                ts: now,
                ts_echo: SimTime::ZERO,
            },
            size_bytes: 500,
            created_at: now,
            provenance: Provenance {
                origin: AgentId::from_index(0),
                is_attack: false,
            },
            hops: 0,
        }
    }

    #[test]
    fn inactive_filter_forwards_everything() {
        let mut h = FilterHarness::new();
        let mut f = filter(1.0);
        let fx = h.offer_transit(&mut f, &pkt(1, h.now));
        assert_eq!(fx.action, Some(FilterAction::Forward));
        assert_eq!(f.counters().examined, 0);
    }

    #[test]
    fn non_victim_traffic_is_untouched() {
        let mut h = FilterHarness::new();
        let mut f = active_filter(1.0);
        let mut p = pkt(1, h.now);
        p.key.dst = Addr::from_octets(10, 1, 0, 2);
        let fx = h.offer_transit(&mut f, &p);
        assert_eq!(fx.action, Some(FilterAction::Forward));
        assert_eq!(f.counters().examined, 0);
    }

    #[test]
    fn first_drop_starts_probation_with_probe_and_timer() {
        let mut h = FilterHarness::new();
        let mut f = active_filter(1.0); // Pd = 1 => deterministic drop
        h.advance(SimDuration::from_millis(10));
        let p = pkt(1, h.now);
        let fx = h.offer_transit(&mut f, &p);
        assert_eq!(
            fx.action,
            Some(FilterAction::Drop(DropReason::FilterProbing))
        );
        assert_eq!(f.tables().sft_len(), 1);
        assert_eq!(fx.emitted.len(), 1, "probe burst emitted");
        let probe = &fx.emitted[0];
        assert_eq!(probe.key.dst, p.key.src, "probe goes to claimed source");
        assert_eq!(probe.key.src, VICTIM, "probe claims to come from victim");
        assert!(matches!(probe.kind, PacketKind::ProbeDupAck { count: 3 }));
        assert_eq!(fx.flow_timers.len(), 1, "wheel timer armed");
        let (delay, flow, kind) = fx.flow_timers[0];
        // RTT from timestamp: now == ts => clamped to MIN_RTT (20 ms), timer 2x.
        assert_eq!(delay, SimDuration::from_millis(40));
        assert_eq!(flow, h.intern(p.key), "timer carries the interned id");
        assert_eq!(kind, TIMER_PROBATION);
        assert!(fx.notes.iter().any(|(n, _)| *n == StatNote::ProbeSent));
    }

    #[test]
    fn pd_zero_never_drops() {
        let mut h = FilterHarness::new();
        let mut f = active_filter(0.0);
        for i in 0..50 {
            let fx = h.offer_transit(&mut f, &pkt(1, h.now));
            assert_eq!(fx.action, Some(FilterAction::Forward), "packet {i}");
        }
        assert_eq!(f.tables().sft_len(), 0, "never sampled into SFT");
    }

    #[test]
    fn illegal_source_goes_straight_to_pdt() {
        let mut h = FilterHarness::new();
        let validator = AddressValidator::Prefixes(vec![(Addr::from_octets(10, 1, 0, 0), 16)]);
        let mut f = MaficFilter::new(config(), validator);
        f.activate(VICTIM);
        let mut p = pkt(1, h.now);
        p.key.src = Addr::from_octets(192, 168, 0, 1);
        let fx = h.offer_transit(&mut f, &p);
        assert_eq!(
            fx.action,
            Some(FilterAction::Drop(DropReason::FilterIllegalSource))
        );
        assert_eq!(f.tables().pdt_len(), 1);
        // Subsequent packets of the same flow die as permanent drops.
        let fx2 = h.offer_transit(&mut f, &p);
        assert_eq!(
            fx2.action,
            Some(FilterAction::Drop(DropReason::FilterPermanent))
        );
    }

    /// Drives a responsive flow: heavy arrivals before the probe, silence
    /// afterwards. It must land in the NFT.
    #[test]
    fn responsive_flow_is_declared_nice() {
        let mut h = FilterHarness::new();
        let mut f = active_filter(1.0);
        // Build up a baseline: Pd=1 means the very first packet starts
        // probation, so feed the baseline *before* activation.
        f.deactivate();
        f.activate(VICTIM);
        let p0 = pkt(1, h.now);
        let fx = h.offer_transit(&mut f, &p0);
        assert_eq!(fx.flow_timers.len(), 1);
        let (delay, flow, kind) = fx.flow_timers[0];
        // No further packets arrive (sender stalled) — rate after probe is 0.
        h.advance(delay);
        let fx2 = h.fire_flow_timer(&mut f, flow, kind);
        assert_eq!(f.tables().nft_len(), 1, "flow declared nice");
        assert_eq!(f.tables().sft_len(), 0);
        assert!(fx2
            .notes
            .iter()
            .any(|(n, _)| *n == StatNote::FlowDeclaredNice));
        // Nice flows now pass freely.
        let fx3 = h.offer_transit(&mut f, &pkt(1, h.now));
        assert_eq!(fx3.action, Some(FilterAction::Forward));
    }

    /// Drives an unresponsive flow: steady arrivals before *and* after
    /// the probe. It must land in the PDT.
    #[test]
    fn unresponsive_flow_is_condemned() {
        let mut h = FilterHarness::new();
        let mut f = active_filter(1.0);
        // Steady 100 pps arrivals for twice the probation window (ts ==
        // ZERO at t=0 gives DEFAULT_RTT, 2x timer); the first packet starts
        // probation and the arrivals continue right through the window, so
        // the decision fires on the packet path once the deadline passes.
        let step = SimDuration::from_millis(10);
        let window = (DEFAULT_RTT * 2).as_nanos() / step.as_nanos();
        let mut all_notes = Vec::new();
        for i in 0..2 * window {
            let fx = h.offer_transit(&mut f, &pkt(1, h.now));
            if i == 0 {
                assert_eq!(fx.flow_timers.len(), 1);
            }
            all_notes.extend(fx.notes);
            h.advance(step);
        }
        assert_eq!(f.tables().pdt_len(), 1, "flow condemned");
        assert!(all_notes
            .iter()
            .any(|(n, _)| *n == StatNote::FlowDeclaredMalicious));
        // All subsequent packets are dropped permanently.
        let fx2 = h.offer_transit(&mut f, &pkt(1, h.now));
        assert_eq!(
            fx2.action,
            Some(FilterAction::Drop(DropReason::FilterPermanent))
        );
    }

    #[test]
    fn packet_path_classifies_after_deadline_without_timer() {
        let mut h = FilterHarness::new();
        let mut f = active_filter(1.0);
        let fx = h.offer_transit(&mut f, &pkt(1, h.now));
        let (delay, _flow, _kind) = fx.flow_timers[0];
        // Advance past the deadline; next packet forces the decision even
        // though the timer never fired. Flow was silent => nice.
        h.advance(delay + SimDuration::from_millis(1));
        let fx2 = h.offer_transit(&mut f, &pkt(1, h.now));
        assert_eq!(f.tables().nft_len(), 1);
        assert_eq!(fx2.action, Some(FilterAction::Forward));
    }

    #[test]
    fn unresponsive_decision_on_packet_path_drops() {
        let mut h = FilterHarness::new();
        let mut f = active_filter(1.0);
        // Continuous 250 pps arrivals straight through the probation window
        // (ts == ZERO at t=0 gives DEFAULT_RTT, 2x timer), five packets
        // past it. The packet arriving after the deadline forces the
        // decision on the packet path, with both window halves equally full.
        let step = SimDuration::from_millis(4);
        let window = (DEFAULT_RTT * 2).as_nanos() / step.as_nanos();
        for _ in 0..window + 5 {
            let _ = h.offer_transit(&mut f, &pkt(1, h.now));
            h.advance(step);
        }
        assert_eq!(f.tables().pdt_len(), 1, "steady flow must be condemned");
        let fx = h.offer_transit(&mut f, &pkt(1, h.now));
        assert_eq!(
            fx.action,
            Some(FilterAction::Drop(DropReason::FilterPermanent))
        );
    }

    #[test]
    fn pushback_stop_flushes_tables() {
        let mut h = FilterHarness::new();
        let mut f = active_filter(1.0);
        let _ = h.offer_transit(&mut f, &pkt(1, h.now));
        assert_eq!(f.tables().sft_len(), 1);
        let _ = h.control(&mut f, &FilterControl::PushbackStop);
        assert!(!f.is_active());
        assert_eq!(f.tables().sft_len(), 0);
        // Inactive again: everything forwards.
        let fx = h.offer_transit(&mut f, &pkt(1, h.now));
        assert_eq!(fx.action, Some(FilterAction::Forward));
    }

    #[test]
    fn pushback_start_control_activates() {
        let mut h = FilterHarness::new();
        let mut f = filter(1.0);
        let _ = h.control(&mut f, &FilterControl::PushbackStart { victim: VICTIM });
        assert!(f.is_active());
        assert_eq!(f.victim(), Some(VICTIM));
        let fx = h.offer_transit(&mut f, &pkt(1, h.now));
        assert!(matches!(fx.action, Some(FilterAction::Drop(_))));
    }

    #[test]
    fn stale_timer_after_decision_is_harmless() {
        let mut h = FilterHarness::new();
        let mut f = active_filter(1.0);
        let fx = h.offer_transit(&mut f, &pkt(1, h.now));
        let (delay, flow, kind) = fx.flow_timers[0];
        h.advance(delay + SimDuration::from_millis(5));
        // Packet path decides first…
        let _ = h.offer_transit(&mut f, &pkt(1, h.now));
        let nice_before = f.counters().flows_nice;
        // …then the wheel timer fires late.
        let _ = h.fire_flow_timer(&mut f, flow, kind);
        assert_eq!(f.counters().flows_nice, nice_before, "no double decision");
    }

    #[test]
    fn stale_timer_after_flush_is_harmless() {
        let mut h = FilterHarness::new();
        let mut f = active_filter(1.0);
        let fx = h.offer_transit(&mut f, &pkt(1, h.now));
        let (delay, flow, kind) = fx.flow_timers[0];
        // Stop and restart the defense: tables flushed, id still valid.
        let _ = h.control(&mut f, &FilterControl::PushbackStop);
        let _ = h.control(&mut f, &FilterControl::PushbackStart { victim: VICTIM });
        h.advance(delay);
        let fx2 = h.fire_flow_timer(&mut f, flow, kind);
        assert_eq!(f.counters().flows_nice, 0, "stale probation fire ignored");
        assert_eq!(f.counters().flows_malicious, 0);
        assert!(fx2.notes.is_empty());
    }

    #[test]
    fn stale_revalidation_from_previous_activation_is_ignored() {
        let mut h = FilterHarness::new();
        let mut c = config();
        c.drop_probability = 1.0;
        c.nft_revalidate_after = Some(SimDuration::from_millis(300));
        let mut f = MaficFilter::new(c, AddressValidator::AllowAll);
        f.activate(VICTIM);
        // First activation: flow goes nice, revalidate timer armed.
        let fx = h.offer_transit(&mut f, &pkt(1, h.now));
        let (delay, flow, kind) = fx.flow_timers[0];
        h.advance(delay);
        let fx2 = h.fire_flow_timer(&mut f, flow, kind);
        let (reval_delay, reval_flow, reval_kind) = fx2.flow_timers[0];
        // Flush and restart the defense; the flow earns a fresh verdict
        // later than the first one.
        let _ = h.control(&mut f, &FilterControl::PushbackStop);
        let _ = h.control(&mut f, &FilterControl::PushbackStart { victim: VICTIM });
        h.advance(SimDuration::from_millis(100));
        let fx3 = h.offer_transit(&mut f, &pkt(1, h.now));
        let (delay2, flow2, kind2) = fx3.flow_timers[0];
        assert_eq!(flow2, flow, "same interned id across activations");
        h.advance(delay2);
        let _ = h.fire_flow_timer(&mut f, flow2, kind2);
        assert_eq!(f.tables().nft_len(), 1, "fresh nice verdict");
        // The stale revalidate timer from the first activation fires now
        // (its absolute deadline precedes the fresh verdict's): ignored.
        let _ = h.fire_flow_timer(&mut f, reval_flow, reval_kind);
        assert_eq!(
            f.tables().nft_len(),
            1,
            "stale revalidation must not evict the fresh verdict"
        );
        // The fresh verdict's own revalidation still works once due.
        h.advance(reval_delay);
        let _ = h.fire_flow_timer(&mut f, reval_flow, reval_kind);
        assert_eq!(f.tables().nft_len(), 0, "live revalidation evicts");
    }

    #[test]
    fn distinct_flows_get_distinct_probation() {
        let mut h = FilterHarness::new();
        let mut f = active_filter(1.0);
        for port in 1..=5 {
            let _ = h.offer_transit(&mut f, &pkt(port, h.now));
        }
        assert_eq!(f.tables().sft_len(), 5);
        assert_eq!(f.counters().probes_sent, 5);
    }

    #[test]
    fn counters_track_examined_packets() {
        let mut h = FilterHarness::new();
        let mut f = active_filter(0.0);
        for _ in 0..7 {
            let _ = h.offer_transit(&mut f, &pkt(1, h.now));
        }
        assert_eq!(f.counters().examined, 7);
    }

    #[test]
    fn revalidation_evicts_nice_flows_for_reprobing() {
        let mut h = FilterHarness::new();
        let mut c = config();
        c.drop_probability = 1.0;
        c.nft_revalidate_after = Some(SimDuration::from_millis(300));
        let mut f = MaficFilter::new(c, AddressValidator::AllowAll);
        f.activate(VICTIM);
        // Probation, then silence => nice.
        let fx = h.offer_transit(&mut f, &pkt(1, h.now));
        let (delay, flow, kind) = fx.flow_timers[0];
        assert_eq!(kind, TIMER_PROBATION);
        h.advance(delay);
        let fx2 = h.fire_flow_timer(&mut f, flow, kind);
        assert_eq!(f.tables().nft_len(), 1);
        // The nice verdict armed a revalidation timer on the wheel.
        let (reval_delay, reval_flow, reval_kind) = fx2.flow_timers[0];
        assert_eq!(reval_delay, SimDuration::from_millis(300));
        assert_eq!(reval_flow, flow, "same interned id across timers");
        assert_eq!(reval_kind, TIMER_REVALIDATE);
        h.advance(reval_delay);
        let _ = h.fire_flow_timer(&mut f, reval_flow, reval_kind);
        assert_eq!(f.tables().nft_len(), 0, "flow evicted for re-probing");
        // Its next packet re-enters the new-flow path: dropped + probed.
        let fx3 = h.offer_transit(&mut f, &pkt(1, h.now));
        assert_eq!(
            fx3.action,
            Some(FilterAction::Drop(DropReason::FilterProbing))
        );
        assert_eq!(fx3.emitted.len(), 1, "fresh probe burst");
        assert_eq!(f.tables().sft_len(), 1);
    }

    #[test]
    fn without_revalidation_nice_flows_stay_nice() {
        let mut h = FilterHarness::new();
        let mut f = active_filter(1.0);
        let fx = h.offer_transit(&mut f, &pkt(1, h.now));
        let (delay, flow, kind) = fx.flow_timers[0];
        h.advance(delay);
        let fx2 = h.fire_flow_timer(&mut f, flow, kind);
        assert!(
            fx2.flow_timers.is_empty(),
            "no revalidation timer by default"
        );
        assert_eq!(f.tables().nft_len(), 1);
    }

    #[test]
    fn snapshot_round_trips_tables_tracker_and_rng() {
        let mut h = FilterHarness::new();
        let mut f = active_filter(0.5);
        // Build up real state: tracked arrivals, SFT entries, timers.
        for port in 1..=6u16 {
            let _ = h.offer_transit(&mut f, &pkt(port, h.now));
            h.advance(SimDuration::from_millis(3));
        }
        let bytes = state_bytes(&f);

        // Restore into a filter built with a different RNG seed to prove
        // the snapshot carries the RNG words, not just the counters.
        let mut c = config();
        c.drop_probability = 0.5;
        c.seed = 777;
        assert_state_law(&f, || {
            MaficFilter::new(c.clone(), AddressValidator::AllowAll)
        });
        let mut g = MaficFilter::new(c, AddressValidator::AllowAll);
        // The RNG is saved, not hashed: before the overlay the two
        // differ only in their seeds.
        let mut fresh = config();
        fresh.drop_probability = 0.5;
        let fresh = MaficFilter::new(fresh, AddressValidator::AllowAll);
        assert_eq!(state_hash(&fresh), state_hash(&g));
        assert_ne!(state_bytes(&fresh), state_bytes(&g));
        let mut r = SnapReader::new(&bytes);
        g.read_state(&mut r).expect("restore");
        assert!(r.is_empty(), "trailing bytes after restore");
        assert_eq!(state_hash(&f), state_hash(&g));

        // Both continue identically: same verdicts, same effects. A
        // fresh harness re-interns the continuation flows in the same
        // order, so the dense ids line up with the restored tables.
        let mut h2 = FilterHarness::new();
        h2.advance(h.now.saturating_since(SimTime::ZERO));
        for port in 1..=12u16 {
            let fx = h.offer_transit(&mut f, &pkt(port, h.now));
            let gx = h2.offer_transit(&mut g, &pkt(port, h2.now));
            assert_eq!(fx.action, gx.action, "diverged at port {port}");
            h.advance(SimDuration::from_millis(2));
            h2.advance(SimDuration::from_millis(2));
        }
        assert_eq!(state_hash(&f), state_hash(&g));
    }
}
