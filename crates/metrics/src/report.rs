//! The per-run metrics report — the paper's α, β, θp, θn and Lr.
//!
//! All rates are computed from the [`StatsCollector`]'s ground-truth flow
//! records, with the "seen at ATR" counters as denominators (packets that
//! crossed the defense line while it was active):
//!
//! * **α** (attacking-packet dropping accuracy) — attack packets dropped
//!   by the defense ÷ attack packets that arrived at the ATRs.
//! * **θn** (false negative rate) — attack packets that crossed the
//!   defense line undropped ÷ attack packets that arrived at the ATRs.
//! * **θp** (false positive rate) — legitimate packets dropped *as
//!   malicious* (PDT / illegal-source verdicts) ÷ all packets that
//!   arrived at the ATRs.
//! * **Lr** (legitimate-packet dropping rate) — legitimate packets
//!   dropped by the defense for any reason, probing included, ÷
//!   legitimate packets that arrived at the ATRs.
//! * **β** (traffic reduction rate) — relative drop of the victim's
//!   arrival rate from just before the pushback trigger to just after.

use mafic_netsim::{BinSeries, SimDuration, SimTime, StatsCollector, VictimBin};
use std::fmt;

/// Measurement windows anchored at the pushback trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureWindows {
    /// When the defense was triggered.
    pub trigger_at: SimTime,
    /// Length of the pre-trigger window used for the "before" rate.
    pub before: SimDuration,
    /// Dead time right after the trigger that is excluded from the
    /// "after" rate (control propagation + probe round trips).
    pub settle: SimDuration,
    /// Length of the post-settle window used for the "after" rate.
    pub after: SimDuration,
    /// Length of the post-settle window used for the **residual attack
    /// rate** (the attack traffic still reaching the victim once the
    /// defense is up). Fixed-length on purpose: bins past the end of a
    /// run count as empty, so runs of slightly different activity never
    /// compare rates over different denominators.
    pub residual: SimDuration,
}

impl Default for MeasureWindows {
    fn default() -> Self {
        MeasureWindows {
            trigger_at: SimTime::ZERO,
            before: SimDuration::from_millis(500),
            settle: SimDuration::from_millis(100),
            after: SimDuration::from_millis(400),
            residual: SimDuration::from_secs(2),
        }
    }
}

/// Flow-level classification tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTally {
    /// Legitimate flows observed at the ATRs.
    pub legit_flows: u64,
    /// Attack flows observed at the ATRs.
    pub attack_flows: u64,
    /// Legitimate flows wrongly condemned (declared malicious).
    pub legit_condemned: u64,
    /// Attack flows correctly condemned.
    pub attack_condemned: u64,
    /// Legitimate flows declared nice.
    pub legit_cleared: u64,
    /// Attack flows wrongly declared nice.
    pub attack_cleared: u64,
}

/// The complete per-run report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricsReport {
    /// α — attack-packet dropping accuracy, percent.
    pub accuracy_pct: f64,
    /// θn — false negative rate, percent.
    pub false_negative_pct: f64,
    /// θp — false positive rate, percent.
    pub false_positive_pct: f64,
    /// Lr — legitimate-packet dropping rate, percent.
    pub legit_drop_pct: f64,
    /// β — traffic reduction rate at the victim, percent.
    pub traffic_reduction_pct: f64,
    /// Attack packets that crossed the defense line while active.
    pub attack_seen: u64,
    /// Attack packets dropped by the defense.
    pub attack_dropped: u64,
    /// Legitimate packets that crossed the defense line while active.
    pub legit_seen: u64,
    /// Legitimate packets dropped by the defense (any reason).
    pub legit_dropped: u64,
    /// Legitimate packets dropped as malicious (PDT verdicts).
    pub legit_dropped_as_malicious: u64,
    /// Victim arrival rate before the trigger (bytes/s).
    pub victim_rate_before: f64,
    /// Victim arrival rate after the trigger (bytes/s).
    pub victim_rate_after: f64,
    /// Residual **attack** arrival rate at the victim over the
    /// post-trigger residual window (bytes/s) — what the whole defense
    /// line, however deep, failed to suppress. Ground truth read by the
    /// metrics layer only.
    pub residual_attack_bps: f64,
    /// Legitimate goodput **delivered** to the victim over the same
    /// residual window (bytes/s). The flip side of collateral damage:
    /// TCP sources on flood-congested paths back off rather than drop,
    /// so relieved congestion shows up here first.
    pub legit_goodput_bps: f64,
    /// Legitimate data packets sent by their origins (whole run).
    pub legit_data_sent: u64,
    /// Legitimate data packets lost anywhere for any reason — defense
    /// drops *and* queue losses on flood-congested links.
    pub legit_data_lost: u64,
    /// Collateral damage: `legit_data_lost / legit_data_sent`, percent.
    /// Unlike `Lr` (defense drops at the ATRs only) this includes the
    /// congestion losses the flood itself inflicts, so it captures what
    /// deeper pushback deployment relieves.
    pub collateral_pct: f64,
    /// Flow-level classification tallies.
    pub flows: FlowTally,
    /// Peak live packets in the simulator's arena over the run — the
    /// same number the benchmark and the run ledger report. Zero
    /// until the runner fills it in ([`MetricsReport::from_stats`] has
    /// no simulator handle).
    pub peak_arena_packets: u64,
    /// Control-channel inbox drains served by the runner's recycled
    /// scratch buffer (allocation-free steady state). Runner-filled.
    pub scratch_inbox_drains: u64,
    /// Sketch-epoch harvests that reused a previously allocated slot
    /// instead of allocating a fresh sketch. Runner-filled.
    pub scratch_sketch_recycles: u64,
    /// Mean per-interval distinct source-address cardinality observed
    /// at the victim domain's taps (LogLog estimate) — the subsidence
    /// guard's secondary evidence surfaced for figures. Runner-filled;
    /// zero until then.
    pub victim_source_cardinality: f64,
}

impl MetricsReport {
    /// Computes the report from a run's statistics.
    ///
    /// `windows` anchors the β measurement; pass the trigger time the
    /// harness observed. If the collector has no victim watch, β is 0.
    #[must_use]
    pub fn from_stats(stats: &StatsCollector, windows: &MeasureWindows) -> Self {
        let mut report = MetricsReport::default();
        for (_key, rec) in stats.flows() {
            // Collateral accounting covers every legitimate data flow,
            // whether or not a defense filter ever saw it: queue losses
            // on flood-congested links hit flows the ATRs never touch.
            if !rec.is_attack && rec.is_tcp && rec.sent > 0 {
                report.legit_data_sent += rec.sent;
                report.legit_data_lost += rec.dropped_total().min(rec.sent);
            }
            if rec.seen_at_atr == 0 {
                continue; // Never crossed the defense line (e.g. ACK path).
            }
            let filter_drops = rec.dropped_by_filter();
            // `seen_at_atr` counts arrivals while active; a flow's drops
            // cannot exceed its sightings.
            let filter_drops = filter_drops.min(rec.seen_at_atr);
            if rec.is_attack {
                report.attack_seen += rec.seen_at_atr;
                report.attack_dropped += filter_drops;
                if rec.declared_malicious > 0 {
                    report.flows.attack_condemned += 1;
                }
                if rec.declared_nice > 0 {
                    report.flows.attack_cleared += 1;
                }
                report.flows.attack_flows += 1;
            } else {
                report.legit_seen += rec.seen_at_atr;
                report.legit_dropped += filter_drops;
                report.legit_dropped_as_malicious +=
                    (rec.dropped_permanent + rec.dropped_illegal).min(rec.seen_at_atr);
                if rec.declared_malicious > 0 {
                    report.flows.legit_condemned += 1;
                }
                if rec.declared_nice > 0 {
                    report.flows.legit_cleared += 1;
                }
                report.flows.legit_flows += 1;
            }
        }
        // Rates at the victim come from the offered-load series (arrivals
        // at its last-hop router, before the defense and the bottleneck
        // act, where the paper measures) when one was recorded, else
        // from the delivery series; goodput always from deliveries.
        let offered = stats.arrival_series().or(stats.victim_series());
        let (before, after) = victim_rates(offered, windows);
        report.victim_rate_before = before;
        report.victim_rate_after = after;
        report.residual_attack_bps = residual_rate(offered, windows, |b| b.attack_bytes);
        report.legit_goodput_bps = residual_rate(stats.victim_series(), windows, |b| b.legit_bytes);
        report.recompute_derived();
        report
    }

    /// Recomputes the derived metrics — α, θn, θp, Lr from the packet
    /// counts and β from the victim rates — in place. This is the single
    /// definition of the five formulas: [`MetricsReport::from_stats`]
    /// and trial aggregation (which sums counts across runs and must
    /// re-derive the percentages from the sums) both go through it.
    pub fn recompute_derived(&mut self) {
        let total_seen = self.attack_seen + self.legit_seen;
        self.accuracy_pct = percent(self.attack_dropped, self.attack_seen);
        self.false_negative_pct = percent(self.attack_seen - self.attack_dropped, self.attack_seen);
        self.false_positive_pct = percent(self.legit_dropped_as_malicious, total_seen);
        self.legit_drop_pct = percent(self.legit_dropped, self.legit_seen);
        self.collateral_pct = percent(self.legit_data_lost, self.legit_data_sent);
        self.traffic_reduction_pct = if self.victim_rate_before > 0.0 {
            ((self.victim_rate_before - self.victim_rate_after) / self.victim_rate_before * 100.0)
                .max(0.0)
        } else {
            0.0
        };
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "MAFIC run metrics")?;
        writeln!(f, "  accuracy (alpha)        : {:7.3} %", self.accuracy_pct)?;
        writeln!(
            f,
            "  false negatives (th_n)  : {:7.3} %",
            self.false_negative_pct
        )?;
        writeln!(
            f,
            "  false positives (th_p)  : {:7.4} %",
            self.false_positive_pct
        )?;
        writeln!(
            f,
            "  legit drops (Lr)        : {:7.3} %",
            self.legit_drop_pct
        )?;
        writeln!(
            f,
            "  traffic reduction (beta): {:7.2} %  ({:.0} -> {:.0} B/s)",
            self.traffic_reduction_pct, self.victim_rate_before, self.victim_rate_after
        )?;
        writeln!(
            f,
            "  residual attack rate    : {:7.0} B/s",
            self.residual_attack_bps
        )?;
        writeln!(
            f,
            "  legit goodput (settled) : {:7.0} B/s",
            self.legit_goodput_bps
        )?;
        writeln!(
            f,
            "  collateral damage       : {:7.3} %  ({}/{} legit data packets lost)",
            self.collateral_pct, self.legit_data_lost, self.legit_data_sent
        )?;
        writeln!(
            f,
            "  packets: attack {}/{} dropped, legit {}/{} dropped",
            self.attack_dropped, self.attack_seen, self.legit_dropped, self.legit_seen
        )?;
        write!(
            f,
            "  flows: {} attack ({} condemned, {} cleared), {} legit ({} condemned)",
            self.flows.attack_flows,
            self.flows.attack_condemned,
            self.flows.attack_cleared,
            self.flows.legit_flows,
            self.flows.legit_condemned
        )
    }
}

fn percent(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64 * 100.0
    }
}

/// Mean victim arrival rates (bytes/s) in the before/after windows of
/// `offered`.
fn victim_rates(offered: Option<&BinSeries>, windows: &MeasureWindows) -> (f64, f64) {
    let Some(series) = offered else {
        return (0.0, 0.0);
    };
    let trigger = windows.trigger_at;
    let since_zero = trigger.saturating_since(SimTime::ZERO);
    let before_start = SimTime::ZERO + (since_zero - since_zero.min(windows.before));
    let before = window_rate(series, before_start, trigger, VictimBin::total_bytes);
    let after_start = trigger + windows.settle;
    let after_end = after_start + windows.after;
    let after = window_rate(series, after_start, after_end, VictimBin::total_bytes);
    (before, after)
}

/// Mean byte rate of `extract`-selected traffic over the fixed-length
/// residual window behind the trigger.
fn residual_rate(
    series: Option<&BinSeries>,
    windows: &MeasureWindows,
    extract: impl Fn(&VictimBin) -> u64,
) -> f64 {
    let Some(series) = series else {
        return 0.0;
    };
    let from = windows.trigger_at + windows.settle;
    from.checked_add(windows.residual)
        .map_or(0.0, |to| window_rate(series, from, to, extract))
}

/// Mean byte rate of `extract`-selected traffic in `series` over
/// `[from, to)`, 0 for an empty window. Bins past the recorded series
/// count as empty, keeping the denominator identical across runs.
fn window_rate(
    series: &BinSeries,
    from: SimTime,
    to: SimTime,
    extract: impl Fn(&VictimBin) -> u64,
) -> f64 {
    if to <= from {
        return 0.0;
    }
    let width = series.width();
    let lo = (from.as_nanos() / width.as_nanos()) as usize;
    let hi = ((to.as_nanos() - 1) / width.as_nanos()) as usize;
    let bins = series.bins();
    let bytes: u64 = (lo..=hi).filter_map(|idx| bins.get(idx)).map(extract).sum();
    bytes as f64 / ((hi - lo + 1) as f64 * width.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::{
        Addr, AgentId, DropReason, FlowKey, NodeId, Packet, PacketKind, Provenance,
    };

    fn key(port: u16) -> FlowKey {
        FlowKey::new(
            Addr::from_octets(10, 1, 0, 1),
            Addr::from_octets(10, 200, 0, 1),
            port,
            80,
        )
    }

    fn pkt(port: u16, attack: bool) -> Packet {
        Packet {
            id: u64::from(port),
            key: key(port),
            kind: PacketKind::Udp,
            size_bytes: 500,
            created_at: SimTime::ZERO,
            provenance: Provenance {
                origin: AgentId::from_index(0),
                is_attack: attack,
            },
            hops: 0,
        }
    }

    /// Collector with one attack flow (90/100 dropped) and one legit flow
    /// (10/100 dropped probing, 2 dropped permanent).
    fn collector() -> StatsCollector {
        let mut s = StatsCollector::new();
        let attack = pkt(1, true);
        let legit = pkt(2, false);
        s.declare_flow(attack.key, true, false);
        s.declare_flow(legit.key, false, true);
        let (attack_id, legit_id) = (s.flow_id(attack.key), s.flow_id(legit.key));
        for _ in 0..100 {
            s.on_atr_seen_id(attack_id);
            s.on_atr_seen_id(legit_id);
        }
        for _ in 0..90 {
            s.on_dropped_id(attack_id, &attack, DropReason::FilterPermanent);
        }
        for _ in 0..10 {
            s.on_dropped_id(legit_id, &legit, DropReason::FilterProbing);
        }
        for _ in 0..2 {
            s.on_dropped_id(legit_id, &legit, DropReason::FilterPermanent);
        }
        s.on_flow_declared_id(attack_id, false);
        s.on_flow_declared_id(legit_id, true);
        s
    }

    #[test]
    fn packet_rates_match_definitions() {
        let r = MetricsReport::from_stats(&collector(), &MeasureWindows::default());
        assert!((r.accuracy_pct - 90.0).abs() < 1e-9);
        assert!((r.false_negative_pct - 10.0).abs() < 1e-9);
        // θp: 2 permanent legit drops over 200 total seen = 1%.
        assert!((r.false_positive_pct - 1.0).abs() < 1e-9);
        // Lr: 12 legit drops over 100 legit seen = 12%.
        assert!((r.legit_drop_pct - 12.0).abs() < 1e-9);
    }

    #[test]
    fn flow_tallies_track_verdicts() {
        let r = MetricsReport::from_stats(&collector(), &MeasureWindows::default());
        assert_eq!(r.flows.attack_flows, 1);
        assert_eq!(r.flows.attack_condemned, 1);
        assert_eq!(r.flows.legit_flows, 1);
        assert_eq!(r.flows.legit_cleared, 1);
        assert_eq!(r.flows.legit_condemned, 0);
    }

    #[test]
    fn flows_never_seen_at_atr_are_excluded() {
        let mut s = collector();
        let stray = pkt(9, false);
        let id = s.flow_id(stray.key);
        s.on_sent_id(id, &stray); // sent but never crossed the defense line
        let r = MetricsReport::from_stats(&s, &MeasureWindows::default());
        assert_eq!(r.flows.legit_flows, 1);
    }

    #[test]
    fn traffic_reduction_from_victim_series() {
        let mut s = StatsCollector::new();
        let victim_node = NodeId::from_index(5);
        s.watch_victim(victim_node, SimDuration::from_millis(100));
        let p = pkt(1, true);
        let id = s.flow_id(p.key);
        // 10 deliveries per 100ms bin before t=1s, 1 per bin after t=1.1s.
        for ms in (0..1000).step_by(10) {
            s.on_delivered_id(
                id,
                &p,
                victim_node,
                SimTime::ZERO + SimDuration::from_millis(ms),
            );
        }
        for ms in (1100..1500).step_by(100) {
            s.on_delivered_id(
                id,
                &p,
                victim_node,
                SimTime::ZERO + SimDuration::from_millis(ms),
            );
        }
        let windows = MeasureWindows {
            trigger_at: SimTime::from_secs_f64(1.0),
            before: SimDuration::from_millis(500),
            settle: SimDuration::from_millis(100),
            after: SimDuration::from_millis(400),
            residual: SimDuration::from_millis(400),
        };
        let r = MetricsReport::from_stats(&s, &windows);
        // Before: 10 pkts × 500 B per 100 ms = 50 kB/s. After: 5 kB/s.
        assert!(
            (r.victim_rate_before - 50_000.0).abs() < 1.0,
            "{}",
            r.victim_rate_before
        );
        assert!(
            (r.victim_rate_after - 5_000.0).abs() < 1.0,
            "{}",
            r.victim_rate_after
        );
        assert!((r.traffic_reduction_pct - 90.0).abs() < 0.1);
        // The delivered flow is an attack flow: the residual window
        // (1.1 s – 1.5 s, 4 bins of 1 packet) sees 5 kB/s of it.
        assert!(
            (r.residual_attack_bps - 5_000.0).abs() < 1.0,
            "{}",
            r.residual_attack_bps
        );
    }

    #[test]
    fn residual_window_counts_missing_bins_as_empty() {
        let mut s = StatsCollector::new();
        let victim_node = NodeId::from_index(5);
        s.watch_victim(victim_node, SimDuration::from_millis(100));
        let p = pkt(1, true);
        // One attack packet right after the trigger, nothing else — the
        // series ends early, but the residual denominator stays fixed.
        let id = s.flow_id(p.key);
        s.on_delivered_id(id, &p, victim_node, SimTime::from_secs_f64(1.15));
        let windows = MeasureWindows {
            trigger_at: SimTime::from_secs_f64(1.0),
            settle: SimDuration::from_millis(100),
            residual: SimDuration::from_secs(1),
            ..MeasureWindows::default()
        };
        let r = MetricsReport::from_stats(&s, &windows);
        // 500 bytes over a fixed 1 s window.
        assert!((r.residual_attack_bps - 500.0).abs() < 1.0, "{r:?}");
    }

    #[test]
    fn collateral_counts_all_legit_data_losses() {
        let mut s = StatsCollector::new();
        let legit = pkt(2, false);
        s.declare_flow(legit.key, false, true);
        let legit_id = s.flow_id(legit.key);
        for _ in 0..100 {
            s.on_sent_id(legit_id, &legit);
        }
        // 10 defense drops + 5 congestion (queue) drops: collateral sees
        // both, even though the flow never crossed an active ATR.
        for _ in 0..10 {
            s.on_dropped_id(legit_id, &legit, DropReason::FilterProbing);
        }
        for _ in 0..5 {
            s.on_dropped_id(legit_id, &legit, DropReason::QueueFull);
        }
        // A UDP "legit" flow (ACK-path record) must not count as data.
        let ack_path = pkt(3, false);
        let id = s.flow_id(ack_path.key);
        s.on_sent_id(id, &ack_path);
        let r = MetricsReport::from_stats(&s, &MeasureWindows::default());
        assert_eq!(r.legit_data_sent, 100);
        assert_eq!(r.legit_data_lost, 15);
        assert!((r.collateral_pct - 15.0).abs() < 1e-9);
    }

    #[test]
    fn empty_collector_yields_zeroes() {
        let r = MetricsReport::from_stats(&StatsCollector::new(), &MeasureWindows::default());
        assert_eq!(r.accuracy_pct, 0.0);
        assert_eq!(r.traffic_reduction_pct, 0.0);
        assert_eq!(r.attack_seen, 0);
    }

    #[test]
    fn display_contains_all_metrics() {
        let r = MetricsReport::from_stats(&collector(), &MeasureWindows::default());
        let text = r.to_string();
        for needle in ["alpha", "th_n", "th_p", "Lr", "beta"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}
