//! Scenario execution with the periodic pushback monitor.
//!
//! The runner steps the simulation in monitor-interval increments. Each
//! step it harvests the per-router LogLog sketch epochs (exactly what the
//! paper's `TrafficMonitor` does), builds the traffic matrix, and feeds
//! the victim detector. On an alarm it sends `PushbackStart` control
//! messages to the identified Attack Transit Routers; the MAFIC filters
//! there take over. At the end it assembles the full [`MetricsReport`].
//!
//! In multi-domain scenarios the same loop also drives the
//! **inter-domain cascade**: every interval it drains each domain's
//! control channel and rate meters, steps the domain coordinators, and
//! applies their actions — activating upstream ATR filters via local
//! control messages and sending `PushbackRequest` / `Refresh` /
//! `Withdraw` upstream **as routed packets** over the inter-domain
//! links (the control plane shares the data plane's deterministic event
//! order; see ARCHITECTURE.md).

use crate::error::WorkloadError;
use crate::scenario::{PushbackPlan, PushbackUpstream, Scenario};
use crate::spec::{DetectionMode, ScenarioSpec};
use mafic::{DefensePolicy, LogLogTap, MaficFilter, ProportionalFilter, RateLimitFilter};
use mafic_adversary::{AdversaryController, AdversaryDirective, SourceFeedback};
use mafic_loglog::{DetectorConfig, RouterSketch, TrafficMatrix, VictimDetector, VictimVerdict};
use mafic_metrics::{
    victim_arrival_series, victim_bandwidth_series, BandwidthPoint, ControlPlaneReport,
    MeasureWindows, MetricsReport, PolicyCostReport,
};
use mafic_netsim::{
    Addr, AgentId, ControlMsg, ControlVerb, FilterControl, FlowKey, NodeId, PacketKind,
    RequesterId, SimDuration, SimTime, Simulator,
};
use mafic_obs::{
    HashWriter, IntervalProbe, LedgerBuilder, LedgerHeader, RunLedger, SnapError, SnapReader,
    Snapshot, SnapshotHeader, State, StateWrite, SNAP_VERSION,
};
use mafic_pushback::{ControlChannel, ControlPlane, LifecycleState, PushbackAction};
use mafic_transport::UnresponsiveSender;

/// Propagation allowance for intra-domain control messages.
const CONTROL_DELAY: SimDuration = SimDuration::from_millis(5);
/// On-wire size of one inter-domain pushback packet.
const PUSHBACK_PACKET_BYTES: u32 = 64;
/// Port used by the coordinator control flows.
const PUSHBACK_PORT: u16 = 9;
/// Victim-bound aggregate (bytes/s) a malicious requester claims in its
/// forged requests — flood-scale by design, so an honest upstream whose
/// own meter sees only normal traffic cannot corroborate it.
const MALICIOUS_CLAIM_BPS: u64 = 8_000_000;
/// In [`DetectionMode::Auto`], if the sketch monitor has not raised the
/// alarm this long after the attack begins, the victim escalates and
/// pushback is forced at every ingress (a victim experiencing collapse
/// notifies its upstreams even without the counting pipeline).
const DETECTION_FALLBACK: SimDuration = SimDuration::from_millis(500);
/// Salt mixed into the run seed for the adversary controller's RNG, so
/// adversary randomness never correlates with workload provisioning
/// (which derives its streams from the raw seed).
const ADVERSARY_SEED_SALT: u64 = 0xAD5E_A57A_7E61_C0DE;

/// Everything a finished run produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// The paper's five metrics for this run (plus residual/collateral).
    pub report: MetricsReport,
    /// Offered-load series at the victim router (the paper's Fig. 4b).
    pub series: Vec<BandwidthPoint>,
    /// Delivered-goodput series at the victim host.
    pub goodput_series: Vec<BandwidthPoint>,
    /// When the pushback was triggered (`None` if never).
    pub triggered_at: Option<SimTime>,
    /// Routers that received a pushback request (every domain), sorted
    /// and deduplicated.
    pub atr_nodes: Vec<NodeId>,
    /// Inter-domain escalations: `(activation time, domain index)` in
    /// [`mafic_topology::Internet::domains`] order. Empty in
    /// single-domain runs.
    pub escalations: Vec<(SimTime, usize)>,
    /// Deepest pushback level whose defense activated (0 = the victim
    /// domain only).
    pub max_pushback_depth: u32,
    /// Deployment-cost proxies per distinct defense policy (table state
    /// bytes, timer events, probes), sorted by policy label. One row per
    /// policy actually deployed; empty only for a scenario with no
    /// defense filters at all.
    pub policy_costs: Vec<PolicyCostReport>,
    /// Control-plane health counters: requests, denials by reason,
    /// forged envelopes, stops, and the stand-down latency. All zeros
    /// in single-domain runs (no inter-domain control plane exists).
    pub control: ControlPlaneReport,
    /// When the victim domain stood its defense down after observing
    /// the flood subside (`None` if it never did).
    pub stood_down_at: Option<SimTime>,
    /// Total packets injected during the run.
    pub packets_sent: u64,
    /// Total packets delivered during the run.
    pub packets_delivered: u64,
    /// The per-interval chained state-hash ledger, recorded when
    /// [`ScenarioSpec::ledger`] is set; `None` otherwise. Two runs of
    /// the same spec must produce byte-identical ledgers — diff them
    /// with [`mafic_obs::diff_ledgers`] to name the first diverging
    /// interval and component.
    pub ledger: Option<RunLedger>,
    /// The last simulator trace events (oldest first), rendered as
    /// display strings. Empty unless [`ScenarioSpec::trace_capacity`]
    /// is positive.
    pub trace_tail: Vec<String>,
    /// The encoded state snapshot captured at the first monitor-interval
    /// boundary at or after [`ScenarioSpec::checkpoint_at`]; `None`
    /// when no checkpoint was requested. Feed the bytes to
    /// [`restore_run`] to rebuild the mid-run scenario.
    pub checkpoint: Option<Vec<u8>>,
}

impl RunOutcome {
    /// Convenience accessor: did the defense ever engage?
    #[must_use]
    pub fn defense_engaged(&self) -> bool {
        self.triggered_at.is_some()
    }
}

/// Sorts and deduplicates instructed routers. The trigger paths (the
/// sketch detector and the victim-escalation fallback) and the
/// inter-domain cascade (which may re-activate a boundary after a lease
/// lapse) each append to the list independently, so the raw log can
/// name a router more than once.
fn sorted_unique(mut nodes: Vec<NodeId>) -> Vec<NodeId> {
    nodes.sort();
    nodes.dedup();
    nodes
}

/// Re-prices a pushback envelope for a target `level_cost` pushback
/// levels away: the coordinator already charged one hop, each *extra*
/// level crossed (skipped non-participating domains) is charged from
/// the carried budget. Returns `None` when the budget cannot cover the
/// distance — the request is not sent and the coverage gap stands.
/// `Withdraw`, `Stop`, and `Deny` carry no budget and always forward.
fn charge_skip_cost(msg: ControlMsg, level_cost: u32) -> Option<ControlMsg> {
    let extra = level_cost.saturating_sub(1);
    if extra == 0 {
        return Some(msg);
    }
    let reprice = |budget: u8| -> Option<u8> {
        (u32::from(budget) >= extra).then(|| budget - u8::try_from(extra).unwrap_or(u8::MAX))
    };
    let verb = match msg.verb {
        ControlVerb::Request {
            victim,
            aggregate_bps,
            budget,
        } => ControlVerb::Request {
            victim,
            aggregate_bps,
            budget: reprice(budget)?,
        },
        ControlVerb::Refresh { victim, budget } => ControlVerb::Refresh {
            victim,
            budget: reprice(budget)?,
        },
        verb @ (ControlVerb::Withdraw { .. }
        | ControlVerb::Stop { .. }
        | ControlVerb::Deny { .. }
        | ControlVerb::Report { .. }) => verb,
    };
    Some(ControlMsg { verb, ..msg })
}

/// The deterministic in-band [`ControlPlane`]: every envelope a
/// coordinator emits is injected as a routed `PacketKind::Pushback`
/// packet at the appropriate local router, then crosses the simulated
/// inter-domain links under the same total event order as the data
/// plane (ARCHITECTURE.md rule 2). Upstream sends fan out over the
/// domain's effective escalation targets (skip costs charged);
/// downstream replies are injected at the domain's gateway and route to
/// the requester's control address.
struct InBandPlane<'a> {
    sim: &'a mut Simulator,
    now: SimTime,
    ctrl_addr: Addr,
    gateway: NodeId,
    upstream: &'a [PushbackUpstream],
    /// Counts every `Request` envelope actually injected (one per
    /// upstream target that the skip-cost pricing admitted) — the
    /// denominator the per-receiver denial tallies are compared
    /// against.
    requests_out: &'a mut u64,
}

impl InBandPlane<'_> {
    fn inject(&mut self, at: NodeId, dst: Addr, msg: ControlMsg) {
        let key = FlowKey::new(self.ctrl_addr, dst, PUSHBACK_PORT, PUSHBACK_PORT);
        self.sim.inject_packet(
            at,
            key,
            PacketKind::Pushback(msg),
            PUSHBACK_PACKET_BYTES,
            false,
            self.now,
        );
    }
}

impl ControlPlane for InBandPlane<'_> {
    fn send_upstream(&mut self, msg: ControlMsg) {
        self.send_upstream_except(msg, &[]);
    }

    fn send_downstream(&mut self, to: RequesterId, msg: ControlMsg) {
        self.inject(self.gateway, to.addr(), msg);
    }

    fn upstream_count(&self) -> usize {
        self.upstream.len().max(1)
    }

    fn send_upstream_except(&mut self, msg: ControlMsg, except: &[RequesterId]) {
        for u in 0..self.upstream.len() {
            let up = self.upstream[u];
            // A target that already denied this victim keeps its
            // refusal: refreshes stop flowing to it while the
            // corroborated siblings keep their leases alive.
            if except.iter().any(|id| id.addr() == up.ctrl_addr) {
                continue;
            }
            // Skipping over non-participating domains costs extra
            // budget — one hop per level crossed. A target too far for
            // the remaining budget gets no envelope at all (the
            // coverage gap holds).
            let Some(msg) = charge_skip_cost(msg, up.level_cost) else {
                continue;
            };
            if matches!(msg.verb, ControlVerb::Request { .. }) {
                *self.requests_out += 1;
            }
            self.inject(up.border, up.ctrl_addr, msg);
        }
    }
}

/// Control-plane bookkeeping the runner accumulates across intervals.
#[derive(Debug, Default)]
struct ControlAccounting {
    /// `Request` envelopes injected into the control plane, honest and
    /// malicious alike (per envelope, not per send decision — a fanout
    /// sends one per admitted upstream target).
    requests_injected: u64,
    /// Forged-request campaigns a malicious domain has run so far
    /// (doubles as its envelope nonce, which must advance per send).
    malicious_requests: u64,
    /// When the victim's coordinator *first* entered `StandingDown`.
    stood_down_at: Option<SimTime>,
    /// First interval boundary at which, after the stand-down, every
    /// coordinator in the chain was idle again (zero live leases).
    teardown_done_at: Option<SimTime>,
    /// Wave-scoped stand-down latch: set when the victim's coordinator
    /// enters `StandingDown`, cleared by the runner when the teardown
    /// reaches `Idle` and the trigger re-arms. While set, the latched
    /// trigger must not restart the coordinator. (Unlike
    /// [`stood_down_at`](ControlAccounting::stood_down_at), which keeps
    /// the first wave's timestamp for reporting, this flag resets every
    /// wave — the fix that lets a second flood re-engage the defense.)
    defense_down: bool,
}

/// Sums the deployment-cost proxies of every defense filter, grouped by
/// policy label (sorted — deterministic output). Reads the filters
/// post-run; every filter type reports its own `approx_state_bytes`
/// (peak state for MAFIC, so a defense that stood down and flushed
/// still reports what it cost while it ran).
fn collect_policy_costs(scenario: &Scenario) -> Vec<PolicyCostReport> {
    use std::collections::BTreeMap;
    // Collateral attribution: legitimate losses split by the policy tier
    // that caused them. The drop reasons map onto policy labels — MAFIC
    // owns probing/permanent-table/illegal drops, the proportional
    // baseline its own bucket, the rate limit its own — while queue
    // overflow belongs to no filter and is reported as shared context.
    let mut legit_mafic = 0u64;
    let mut legit_proportional = 0u64;
    let mut legit_rate_limit = 0u64;
    let mut legit_queue = 0u64;
    for (_key, rec) in scenario.sim.stats().flows() {
        if rec.is_attack {
            continue;
        }
        legit_mafic += rec.dropped_probing + rec.dropped_permanent + rec.dropped_illegal;
        legit_proportional += rec.dropped_proportional;
        legit_rate_limit += rec.dropped_rate_limited;
        legit_queue += rec.dropped_queue;
    }
    let mut rows: BTreeMap<&'static str, PolicyCostReport> = BTreeMap::new();
    let tally = |sim: &Simulator,
                 rows: &mut BTreeMap<&'static str, PolicyCostReport>,
                 policy: DefensePolicy,
                 atrs: &[(NodeId, usize)]| {
        if atrs.is_empty() {
            return;
        }
        let row = rows
            .entry(policy.label())
            .or_insert_with(|| PolicyCostReport {
                policy: policy.label().to_string(),
                domains: 0,
                filters: 0,
                table_bytes: 0,
                timer_events: 0,
                probes_sent: 0,
                legit_drops_filtered: 0,
                legit_drops_queue: legit_queue,
            });
        row.domains += 1;
        row.filters += atrs.len();
        for &(node, idx) in atrs {
            if let Some(f) = sim.filter::<MaficFilter>(node, idx) {
                row.table_bytes += f.approx_state_bytes() as u64;
                row.timer_events += f.counters().timers_armed;
                row.probes_sent += f.counters().probes_sent;
            } else if let Some(f) = sim.filter::<ProportionalFilter>(node, idx) {
                row.table_bytes += f.approx_state_bytes() as u64;
            } else if let Some(f) = sim.filter::<RateLimitFilter>(node, idx) {
                row.table_bytes += f.approx_state_bytes() as u64;
            } else {
                debug_assert!(false, "unaccounted filter type at {node:?}[{idx}]");
            }
        }
    };
    if let Some(plan) = scenario.pushback.as_ref() {
        for d in &plan.domains {
            tally(&scenario.sim, &mut rows, d.policy, &d.atrs);
        }
    } else {
        tally(
            &scenario.sim,
            &mut rows,
            scenario.spec.policy,
            &scenario.droppers,
        );
    }
    for row in rows.values_mut() {
        row.legit_drops_filtered = match row.policy.as_str() {
            "mafic" => legit_mafic,
            "proportional" => legit_proportional,
            "rate-limit" => legit_rate_limit,
            _ => 0,
        };
    }
    rows.into_values().collect()
}

/// Reusable interval-loop buffers. The monitor steps thousands of
/// intervals per run; holding its scratch here (and recycling the tap
/// and channel buffers via the `*_into` drains) keeps the steady-state
/// loop allocation-free — `allocs_per_kpkt` in BENCHMARK.json measures
/// the result end to end.
#[derive(Debug, Default)]
struct StepScratch {
    /// Landing buffer for one domain's drained control-channel inbox.
    inbox: Vec<(SimTime, ControlMsg)>,
    /// One domain's pushback actions for the current interval.
    actions: Vec<PushbackAction>,
    /// Inbox drains served by the recycled `inbox` buffer — exported as
    /// [`MetricsReport::scratch_inbox_drains`] and into the run ledger,
    /// so the benchmark and the ledger read the same number.
    drains: u64,
}

/// The escalation budget carried in envelopes, capped to its wire
/// width. Shared by the honest victim start and the malicious
/// campaign's forged requests.
fn depth_budget(spec: &ScenarioSpec) -> u8 {
    u8::try_from(spec.pushback_depth.min(u32::from(u8::MAX))).expect("capped to u8::MAX")
}

/// Instructs `routers` to start cutting `victim`-bound flows one control
/// delay from now and logs each in the run's ATR list — the one place
/// the runner emits `PushbackStart`. Returns the effective instant, for
/// the callers that latch a trigger or log an escalation on it.
fn instruct(
    sim: &mut Simulator,
    atr_nodes: &mut Vec<NodeId>,
    victim: Addr,
    routers: impl IntoIterator<Item = NodeId>,
) -> SimTime {
    let at = sim.now() + CONTROL_DELAY;
    for node in routers {
        sim.send_control(node, FilterControl::PushbackStart { victim }, at);
        atr_nodes.push(node);
    }
    at
}

/// Phase 4 — one monitor-interval step of the inter-domain cascade (a
/// no-op without a [`PushbackPlan`]). Runs every interval, defending or
/// not, so the meters stay interval-scoped; runs after the harvest so
/// the victim coordinator sees this interval's source cardinality.
fn step_cascade(
    scenario: &mut Scenario,
    state: &mut RunState,
    elapsed: SimDuration,
    victim_cardinality: f64,
) {
    let Some(plan) = scenario.pushback.as_mut() else {
        return;
    };
    // The victim domain's coordinator rides on the local defense: the
    // detector (or its fallback) starts it, with the spec's depth as
    // the escalation budget. Once the victim has stood the defense
    // down (flood subsided), the latched trigger must not restart it —
    // but the latch is per wave, so after the teardown completes and
    // the runner re-arms detection, a fresh trigger starts it again.
    let victim_coordinator = &mut plan.domains[0].coordinator;
    let triggered = state.triggered_at.is_some_and(|t| t <= state.last_stop);
    if triggered && !state.acct.defense_down && !victim_coordinator.is_defending() {
        victim_coordinator.local_start(scenario.domain.victim_addr, depth_budget(&scenario.spec));
    }
    // The victim tap's distinct-source cardinality — the subsidence
    // guard's secondary evidence against adversaries that fake a
    // subsided flood by parking bandwidth on a few surviving sources.
    victim_coordinator.set_observed_sources(victim_cardinality);
    let n_domains = plan.domains.len();
    let interval_secs = elapsed.as_secs_f64();
    for d in 0..n_domains {
        step_domain(scenario, state, d, interval_secs);
    }
    // After the stand-down, the teardown is complete the first interval
    // every coordinator is idle again (zero live leases anywhere).
    if state.acct.stood_down_at.is_some()
        && state.acct.teardown_done_at.is_none()
        && scenario.pushback.as_ref().is_some_and(|plan| {
            plan.domains
                .iter()
                .all(|dom| dom.coordinator.state() == LifecycleState::Idle)
        })
    {
        state.acct.teardown_done_at = Some(scenario.sim.now());
    }
}

/// Domain `d`'s share of [`step_cascade`]: drain the control inbox and
/// the meter windows, then either run the compromised domain's forged
/// campaign or feed the honest coordinator and apply its actions.
fn step_domain(scenario: &mut Scenario, state: &mut RunState, d: usize, interval_secs: f64) {
    let sim = &mut scenario.sim;
    let spec = &scenario.spec;
    let victim = scenario.domain.victim_addr;
    let plan = scenario
        .pushback
        .as_mut()
        .expect("the cascade steps only with a plan");
    // Non-participating domains have no filters, meters, or inbound
    // requests — the cascade treats them as plain forwarders.
    let malicious = spec.malicious_pushback == Some(d);
    if !malicious && !plan.domains[d].policy.participating() {
        return;
    }
    let now = sim.now();
    // 1. Envelopes that arrived over the control channel. (A malicious
    //    domain drains too, so its `Deny` replies stay bounded.)
    sim.agent_mut::<ControlChannel>(plan.domains[d].channel)
        .expect("control channel installed at build time")
        .drain_into(&mut state.scratch.inbox);
    state.scratch.drains += 1;
    // 2. Meter windows first: offered pressure drives escalation
    //    *and* attestation of inbound claims; the residual is
    //    accounting only. The local-ingress component (non-border
    //    meters) feeds the subsidence reconstruction.
    let drained = drain_meters(sim, plan, d);
    let dom = &mut plan.domains[d];
    let mut plane = InBandPlane {
        sim,
        now,
        ctrl_addr: dom.ctrl_addr,
        gateway: dom.gateway,
        upstream: &dom.upstream,
        requests_out: &mut state.acct.requests_injected,
    };
    // A compromised domain runs the malicious-pushback campaign
    // instead of its honest coordinator: every interval once the
    // attack is under way, it asks each of its escalation targets
    // to drop a flood toward the victim that does not exist. Its
    // envelopes are authentic (its own boundary identity, advancing
    // nonces) — only the trust ledgers upstream can stop it.
    if malicious {
        if now >= spec.attack_start {
            state.acct.malicious_requests += 1;
            plane.send_upstream(ControlMsg::new(
                RequesterId::new(dom.ctrl_addr),
                state.acct.malicious_requests,
                ControlVerb::Request {
                    victim,
                    aggregate_bps: MALICIOUS_CLAIM_BPS,
                    budget: depth_budget(spec),
                },
            ));
        }
        return;
    }
    let to_bps = |bytes: u64| {
        if interval_secs > 0.0 {
            bytes as f64 / interval_secs
        } else {
            0.0
        }
    };
    let inflow_bps = to_bps(drained.inflow_bytes);
    // 3. Feed the state machine: inbound envelopes (vetted against
    //    the observed inflow), then the interval tick. Outbound
    //    envelopes go straight through the in-band plane; local
    //    filter effects come back as actions.
    let actions = &mut state.scratch.actions;
    actions.clear();
    for &(_at, msg) in &state.scratch.inbox {
        dom.coordinator
            .on_message(msg, inflow_bps, &mut plane, actions);
    }
    dom.coordinator
        .on_interval(inflow_bps, to_bps(drained.local_bytes), &mut plane, actions);
    // 4. Apply the local actions.
    for action in actions.drain(..) {
        let atrs = dom.atrs.iter().map(|&(node, _)| node);
        match action {
            PushbackAction::ActivateLocal { victim } => {
                let at = instruct(sim, &mut state.atr_nodes, victim, atrs);
                state.escalations.push((at, d));
                state.max_pushback_depth = state.max_pushback_depth.max(dom.level);
            }
            PushbackAction::DeactivateLocal => {
                for node in atrs {
                    sim.send_control(node, FilterControl::PushbackStop, now + CONTROL_DELAY);
                }
            }
        }
    }
    // 5. Lifecycle bookkeeping: latch the wave's stand-down and
    //    timestamp the first one the interval it happens.
    if d == 0 && !state.acct.defense_down && dom.coordinator.state() == LifecycleState::StandingDown
    {
        state.acct.defense_down = true;
        state.acct.stood_down_at.get_or_insert(now);
    }
}

/// One interval's drained meter windows for a domain.
struct DrainedMeters {
    /// Victim-bound bytes offered at every ATR (pre-filter).
    inflow_bytes: u64,
    /// The subset of `inflow_bytes` that entered through non-border
    /// ATRs — the domain's own local-ingress component.
    local_bytes: u64,
}

/// Drains domain `d`'s pre/post meter windows, accumulates the residual
/// and returns the offered totals. Indexed loops — the meter handles
/// are Copy pairs — so draining borrows the plan and the simulator one
/// statement at a time, no clones.
fn drain_meters(sim: &mut Simulator, plan: &mut PushbackPlan, d: usize) -> DrainedMeters {
    let mut inflow_bytes = 0u64;
    let mut local_bytes = 0u64;
    for m in 0..plan.domains[d].pre_meters.len() {
        let (node, idx) = plan.domains[d].pre_meters[m];
        let meter = sim
            .filter_mut::<mafic_pushback::VictimRateMeter>(node, idx)
            .expect("meter installed at build time");
        let bytes = meter.take_window().0;
        inflow_bytes += bytes;
        if plan.domains[d].border_nodes.binary_search(&node).is_err() {
            local_bytes += bytes;
        }
    }
    let mut residual_bytes = 0u64;
    for m in 0..plan.domains[d].post_meters.len() {
        let (node, idx) = plan.domains[d].post_meters[m];
        let meter = sim
            .filter_mut::<mafic_pushback::VictimRateMeter>(node, idx)
            .expect("meter installed at build time");
        residual_bytes += meter.take_window().0;
    }
    plan.domains[d].residual_bytes += residual_bytes;
    DrainedMeters {
        inflow_bytes,
        local_bytes,
    }
}

/// How many trailing trace events the runner surfaces in
/// [`RunOutcome::trace_tail`] and embeds in the ledger.
const TRACE_TAIL_EVENTS: usize = 32;

/// Hashes the filters at `slots` through their own
/// [`mafic_obs::DynState::hash_state`] hooks.
fn hash_filters<'a>(
    sim: &Simulator,
    slots: impl IntoIterator<Item = &'a (NodeId, usize)>,
    h: &mut HashWriter,
) {
    for &(node, idx) in slots {
        sim.filter_dyn(node, idx)
            .expect("filter installed at build time")
            .hash_state(h);
    }
}

/// Probes every state-bearing component of the running scenario: the
/// simulator's own components, then every defense-layer component this
/// scenario owns, then the cumulative counters shared with
/// [`MetricsReport`]. The ledger records one probe per monitor
/// interval; a checkpoint embeds one as its integrity table and the
/// restorer recomputes it to verify the overlay.
///
/// `probe` is rewound first and keeps its label strings and walk buffer,
/// so the ledger path, which hands the same probe in every interval,
/// allocates nothing here once the first interval has named everything.
/// Every component goes into one batch: the netsim walks hash in the
/// lanes the longest defense-layer walk leaves free.
fn compute_probe(scenario: &Scenario, state: &RunState, probe: &mut IntervalProbe) {
    let sim = &scenario.sim;
    probe.rewind();
    probe.batch(|batch| {
        sim.probe_components(batch);
        if let Some(plan) = scenario.pushback.as_ref() {
            for (dom, [coord, trust, filters, meters, channel]) in
                plan.domains.iter().zip(&state.dom_labels)
            {
                batch.component(coord, |h| dom.coordinator.write_state(h));
                batch.component(trust, |h| {
                    dom.coordinator.ledger().write_state(h);
                });
                batch.component(filters, |h| {
                    h.write_usize(dom.atrs.len());
                    hash_filters(sim, &dom.atrs, h);
                });
                batch.component(meters, |h| {
                    hash_filters(sim, dom.pre_meters.iter().chain(&dom.post_meters), h);
                });
                batch.component(channel, |h| {
                    sim.agent::<ControlChannel>(dom.channel)
                        .expect("control channel installed at build time")
                        .write_state(h);
                });
            }
        } else {
            batch.component("victim/filters", |h| {
                h.write_usize(scenario.droppers.len());
                hash_filters(sim, &scenario.droppers, h);
            });
        }
        // Only adversarial runs carry the component: a spec without an
        // adversary produces the same probe stream (and ledger) it
        // always did.
        if let Some(adv) = state.adversary.as_ref() {
            batch.component("adversary", |h| adv.write_state(h));
        }
    });
    let stats = sim.stats();
    let drops = stats.drop_totals();
    for (name, value) in [
        ("drops/probing", drops[0]),
        ("drops/permanent", drops[1]),
        ("drops/illegal", drops[2]),
        ("drops/proportional", drops[3]),
        ("drops/rate-limited", drops[4]),
        ("drops/queue", drops[5]),
        ("drops/other", drops[6]),
    ] {
        probe.counter(name, value);
    }
    let mut ctrl_sent = 0u64;
    let mut denies_received = 0u64;
    let mut denies_issued = 0u64;
    let mut installs_granted = 0u64;
    if let Some(plan) = scenario.pushback.as_ref() {
        for dom in &plan.domains {
            let s = dom.coordinator.stats();
            ctrl_sent += s.requests_sent
                + s.refreshes_sent
                + s.withdraws_sent
                + s.stops_sent
                + s.reports_sent;
            denies_received += s.denies_received;
            let ledger = dom.coordinator.ledger();
            denies_issued += ledger.denies().total();
            installs_granted += ledger.granted_installs();
        }
    }
    probe.counter("ctrl/sent", ctrl_sent);
    probe.counter("ctrl/denies-received", denies_received);
    probe.counter("ctrl/denies-issued", denies_issued);
    probe.counter("ctrl/installs-granted", installs_granted);
    probe.counter("arena/live", sim.packet_arena_live() as u64);
    probe.counter("arena/peak", sim.packet_arena_peak() as u64);
    probe.counter("scratch/inbox-drains", state.scratch.drains);
    probe.counter("scratch/sketch-recycles", state.sketch_recycles);
}

/// Sums the control-plane counters of every coordinator, channel, and
/// the runner's own accounting into the per-run report.
fn collect_control_report(scenario: &Scenario, acct: &ControlAccounting) -> ControlPlaneReport {
    let Some(plan) = scenario.pushback.as_ref() else {
        return ControlPlaneReport::default();
    };
    let mut report = ControlPlaneReport {
        requests_sent: acct.requests_injected,
        ..ControlPlaneReport::default()
    };
    for dom in &plan.domains {
        let stats = dom.coordinator.stats();
        report.stops_sent += stats.stops_sent;
        report.withdraws_sent += stats.withdraws_sent;
        let ledger = dom.coordinator.ledger();
        report.installs_granted += ledger.granted_installs();
        let denies = ledger.denies();
        report.denied_bad_version += denies.bad_version;
        report.denied_untrusted += denies.untrusted;
        report.denied_replayed += denies.replayed;
        report.denied_uncorroborated += denies.uncorroborated;
        report.denied_budget += denies.budget_exhausted;
        if let Some(channel) = scenario.sim.agent::<ControlChannel>(dom.channel) {
            report.forged_dropped += channel.forged_dropped();
        }
    }
    report.stand_down_latency_s = match (acct.stood_down_at, acct.teardown_done_at) {
        (Some(down), Some(done)) => Some(done.saturating_since(down).as_secs_f64()),
        _ => None,
    };
    report
}

/// The runner's live accumulator state between monitor intervals.
///
/// [`run_scenario`] builds one internally; checkpoint restore hands one
/// back so [`resume_scenario`] can continue the loop mid-run. Opaque on
/// purpose: every field is an implementation detail of the monitor
/// loop, and the only supported operations are resuming and dropping.
#[derive(Debug)]
pub struct RunState {
    detector: VictimDetector,
    /// The *current wave's* trigger latch — cleared when the defense
    /// stands down and tears back to `Idle`, so a later flood wave
    /// re-enters detection.
    triggered_at: Option<SimTime>,
    /// The first wave's instant, kept for reporting and the β windows.
    first_triggered_at: Option<SimTime>,
    /// One-shot escalation fallback: consumed when it fires, disarmed
    /// on re-arm (its deadline is anchored to the *first* attack start,
    /// so it would fire instantly — and spuriously — the moment a later
    /// wave re-arms detection).
    fallback: Option<SimDuration>,
    atr_nodes: Vec<NodeId>,
    escalations: Vec<(SimTime, usize)>,
    max_pushback_depth: u32,
    acct: ControlAccounting,
    scratch: StepScratch,
    /// Epoch sketches land in slots reused across intervals: the first
    /// harvest populates the vector, every later one swaps buffers with
    /// the taps — no steady-state allocation in the monitor loop.
    sketches: Vec<RouterSketch>,
    sketch_recycles: u64,
    /// The closed-loop attack controller, present only when the spec
    /// carries an [`mafic_adversary::AdversarySpec`]. It observes its
    /// own sources' delivery feedback each interval and retargets the
    /// attack senders; a `None` here keeps the whole hook behind one
    /// branch per interval.
    adversary: Option<AdversaryController>,
    /// The attack senders the adversary drives, in flow order: feedback
    /// slot and directive source `i` both name entry `i`. Build-time
    /// wiring, so restore rebuilds rather than overlays it; empty
    /// without an adversary.
    attack_sources: Vec<(AgentId, FlowKey)>,
    /// Sum of the victim tap's per-interval distinct-source cardinality
    /// readings, exported as the report's mean.
    cardinality_sum: f64,
    /// Number of cardinality readings behind the sum.
    cardinality_intervals: u64,
    ledger: Option<LedgerBuilder>,
    /// The ledger's probe, reused every interval so its labels are
    /// allocated once per run.
    probe: IntervalProbe,
    /// Per-domain component labels `dom<d>/{coord, trust, filters,
    /// meters, channel}`, built once; empty without a pushback plan.
    dom_labels: Vec<[String; 5]>,
    next_stop: SimTime,
    last_stop: SimTime,
    /// The encoded checkpoint, once captured. Restored runs arrive with
    /// it pre-filled (the bytes they were restored from), which also
    /// keeps the resumed loop from re-capturing.
    checkpoint: Option<Vec<u8>>,
}

impl RunState {
    /// Latches the current wave's trigger at `at`; the first wave's
    /// instant sticks for reporting.
    fn latch_trigger(&mut self, at: SimTime) {
        self.triggered_at = Some(at);
        self.first_triggered_at.get_or_insert(at);
    }

    /// The monitor loop's accumulators — section `workload/run` of a
    /// checkpoint. Never hashed: every decision they feed shows up in a
    /// hashed component within the interval. The adversary and the
    /// ledger builder have sections of their own; `attack_sources` is
    /// build-time wiring.
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        let instant = |w: &mut W, t: SimTime| w.write_u64(t.as_nanos());
        w.write_seq(self.detector.baselines(), |w, b| w.write_f64(*b));
        w.write_u64(self.detector.rounds());
        w.write_opt(self.triggered_at, instant);
        w.write_opt(self.first_triggered_at, instant);
        w.write_opt(self.fallback, |w, d| w.write_u64(d.as_nanos()));
        w.write_seq(&self.atr_nodes, |w, n| w.write_u32(n.index() as u32));
        w.write_seq(&self.escalations, |w, &(at, d)| {
            w.write_u64(at.as_nanos());
            w.write_usize(d);
        });
        w.write_u32(self.max_pushback_depth);
        w.write_u64(self.acct.requests_injected);
        w.write_u64(self.acct.malicious_requests);
        w.write_opt(self.acct.stood_down_at, instant);
        w.write_opt(self.acct.teardown_done_at, instant);
        w.write_bool(self.acct.defense_down);
        w.write_u64(self.scratch.drains);
        w.write_u64(self.sketch_recycles);
        // Harvest slots: contents are dead at a loop-top boundary (the
        // next harvest clears each slot before swapping), but the slot
        // *count* decides push-vs-recycle, which the recycle counter
        // observes.
        w.write_usize(self.sketches.len());
        w.write_u64(self.next_stop.as_nanos());
        w.write_u64(self.last_stop.as_nanos());
        w.write_f64(self.cardinality_sum);
        w.write_u64(self.cardinality_intervals);
    }

    /// Overlays a `workload/run` payload onto the fresh state of the
    /// rebuilt `scenario` (which sizes the harvest slots).
    fn read_state(&mut self, r: &mut SnapReader<'_>, scenario: &Scenario) -> Result<(), SnapError> {
        let instant = |r: &mut SnapReader<'_>| r.read_u64().map(SimTime::from_nanos);
        let baselines = r.read_seq(|r| r.read_f64())?;
        self.detector.restore_parts(baselines, r.read_u64()?);
        self.triggered_at = r.read_opt("triggered-at", instant)?;
        self.first_triggered_at = r.read_opt("first-triggered-at", instant)?;
        self.fallback = r.read_opt("fallback", |r| r.read_u64().map(SimDuration::from_nanos))?;
        self.atr_nodes = r.read_seq(|r| Ok(NodeId::from_index(r.read_u32()? as usize)))?;
        self.escalations = r.read_seq(|r| Ok((instant(r)?, r.read_usize()?)))?;
        self.max_pushback_depth = r.read_u32()?;
        self.acct.requests_injected = r.read_u64()?;
        self.acct.malicious_requests = r.read_u64()?;
        self.acct.stood_down_at = r.read_opt("stood-down-at", instant)?;
        self.acct.teardown_done_at = r.read_opt("teardown-done-at", instant)?;
        self.acct.defense_down = r.read_bool()?;
        self.scratch.drains = r.read_u64()?;
        self.sketch_recycles = r.read_u64()?;
        let n_sketches = r.read_usize()?;
        if n_sketches > scenario.taps.len() {
            return Err(SnapError::Malformed(format!(
                "{n_sketches} harvest slots for {} taps",
                scenario.taps.len()
            )));
        }
        for &(node, idx) in &scenario.taps[..n_sketches] {
            let precision = scenario
                .sim
                .filter::<LogLogTap>(node, idx)
                .expect("tap installed at build time")
                .sketch()
                .source_sketch()
                .precision();
            self.sketches.push(RouterSketch::new(precision));
        }
        self.next_stop = SimTime::from_nanos(r.read_u64()?);
        self.last_stop = SimTime::from_nanos(r.read_u64()?);
        self.cardinality_sum = r.read_f64()?;
        self.cardinality_intervals = r.read_u64()?;
        Ok(())
    }
}

/// Builds the loop state a fresh (pristine, time-zero) run starts from.
fn fresh_state(scenario: &Scenario) -> Result<RunState, WorkloadError> {
    let detector_config = DetectorConfig {
        // Epoch cardinalities are per monitor interval; the victim sees
        // a few hundred distinct packets per 100 ms when healthy.
        min_cardinality: 150.0,
        surge_factor: 1.6,
        baseline_weight: 0.3,
        atr_share: 0.02,
        // Train the baseline through the TCP slow-start ramp (~0.8 s).
        warmup_rounds: (0.8 / scenario.spec.monitor_interval.as_secs_f64()).ceil() as u64,
    };
    let detector = VictimDetector::new(detector_config).map_err(WorkloadError::Detection)?;
    let attack_flows = || scenario.flows.iter().filter(|f| f.is_attack);
    Ok(RunState {
        detector,
        triggered_at: None,
        first_triggered_at: None,
        fallback: Some(DETECTION_FALLBACK),
        atr_nodes: Vec::new(),
        escalations: Vec::new(),
        max_pushback_depth: 0,
        acct: ControlAccounting::default(),
        scratch: StepScratch::default(),
        sketches: Vec::new(),
        sketch_recycles: 0,
        // The controller observes only attacker-side state: the stub
        // index of each attack source (the zombie knows where it sits)
        // and a seed salted off the run seed so adversary randomness
        // never correlates with workload provisioning.
        adversary: scenario.spec.adversary.map(|aspec| {
            let stubs: Vec<u32> = attack_flows()
                .map(|f| u32::try_from(f.stub_index).expect("stub count fits u32"))
                .collect();
            AdversaryController::new(aspec, stubs, scenario.spec.seed ^ ADVERSARY_SEED_SALT)
        }),
        attack_sources: if scenario.spec.adversary.is_some() {
            attack_flows().map(|f| (f.agent, f.key)).collect()
        } else {
            Vec::new()
        },
        cardinality_sum: 0.0,
        cardinality_intervals: 0,
        // Off by default: when `spec.ledger` is false the hot path pays
        // one `Option` check per monitor interval and no state walk
        // ever runs — `cascade_ledger` vs `cascade_d3` in
        // BENCHMARK.json is the measured difference.
        ledger: scenario.spec.ledger.then(|| {
            LedgerBuilder::new(LedgerHeader {
                ledger_version: 0, // the builder stamps the real version
                crate_version: env!("CARGO_PKG_VERSION").to_string(),
                seed: scenario.spec.seed,
                spec_fingerprint: scenario.spec.fingerprint(),
                // Always 0: a run is single-threaded regardless of how
                // many engine workers run *other* specs, so ledgers
                // must be byte-identical at any `MAFIC_JOBS`. The field
                // is informational and never compared by the differ.
                workers: 0,
            })
        }),
        probe: IntervalProbe::new(),
        dom_labels: (0..scenario.pushback.as_ref().map_or(0, |p| p.domains.len()))
            .map(|d| {
                ["coord", "trust", "filters", "meters", "channel"]
                    .map(|part| format!("dom{d}/{part}"))
            })
            .collect(),
        next_stop: SimTime::ZERO + scenario.spec.monitor_interval,
        last_stop: SimTime::ZERO,
        checkpoint: None,
    })
}

/// Runs a scenario to completion. The scenario is borrowed, not
/// consumed, so callers can inspect post-run state (tap epochs, filter
/// tables, stats, pushback residuals) after the outcome is assembled.
///
/// # Errors
///
/// Returns a [`WorkloadError`] if the detection pipeline fails (only
/// possible with a hand-built [`DetectorConfig`]).
pub fn run_scenario(scenario: &mut Scenario) -> Result<RunOutcome, WorkloadError> {
    let mut state = fresh_state(scenario)?;
    drive(scenario, &mut state)
}

/// Continues a restored run (see [`restore_run`]) from its checkpoint
/// instant to the scenario's end, producing the same [`RunOutcome`] a
/// straight run would.
///
/// # Errors
///
/// Returns a [`WorkloadError`] if the detection pipeline fails.
pub fn resume_scenario(
    scenario: &mut Scenario,
    mut state: RunState,
) -> Result<RunOutcome, WorkloadError> {
    drive(scenario, &mut state)
}

/// Phase 1 — captures the checkpoint once the monitor clock has reached
/// the requested instant (and never again — restored runs arrive with
/// the slot pre-filled). Runs only at the top of the monitor loop, so
/// the capture point is always an interval boundary with the previous
/// interval fully processed: the exact state a resumed loop re-enters.
fn maybe_capture(scenario: &Scenario, state: &mut RunState) {
    let Some(at) = scenario.spec.checkpoint_at else {
        return;
    };
    if state.checkpoint.is_some() || state.last_stop < at {
        return;
    }
    // The ledger's probe computes the integrity table: its labels are
    // already allocated.
    let mut probe = std::mem::take(&mut state.probe);
    state.checkpoint = Some(capture(scenario, state, &mut probe));
    state.probe = probe;
}

/// Phase 2 — runs the simulator to the next interval boundary (or the
/// scenario's end) and moves the monitor clock there. Returns the span
/// just simulated. Every later phase sees `sim.now() == state.last_stop`.
fn advance(scenario: &mut Scenario, state: &mut RunState) -> SimDuration {
    let stop = state.next_stop.min(scenario.spec.end);
    scenario.sim.run_until(stop);
    state.next_stop = stop + scenario.spec.monitor_interval;
    let elapsed = stop.saturating_since(state.last_stop);
    state.last_stop = stop;
    elapsed
}

/// Phase 3 — harvests this epoch's sketches in `Domain::routers()`
/// order and returns the victim router's distinct-source estimate.
/// Runs every interval, triggered or not: epochs are defined as one
/// monitor interval, and skipping the drain after the trigger would let
/// them accumulate for the rest of the run, so any later reader
/// (re-detection, telemetry) would see one stale merged epoch instead of
/// an interval's worth of traffic.
fn harvest_taps(scenario: &mut Scenario, state: &mut RunState) -> f64 {
    let mut victim_cardinality = 0.0_f64;
    for (i, &(node, idx)) in scenario.taps.iter().enumerate() {
        let tap = scenario
            .sim
            .filter_mut::<LogLogTap>(node, idx)
            .expect("tap installed at build time");
        // The victim router's distinct-source estimate must be read
        // before the harvest resets the epoch's address sketch.
        if node == scenario.domain.victim_router {
            victim_cardinality = tap.source_address_cardinality();
        }
        if let Some(slot) = state.sketches.get_mut(i) {
            tap.take_epoch_into(slot);
            state.sketch_recycles += 1;
        } else {
            state.sketches.push(tap.take_epoch());
        }
    }
    state.cardinality_sum += victim_cardinality;
    state.cardinality_intervals += 1;
    victim_cardinality
}

/// Phase 5 — re-arms detection after a stand-down: once the victim
/// domain has stood the defense down *and* its coordinator has torn
/// back to `Idle`, the wave is over — clear the trigger latch so a
/// later flood wave goes through detection (and [`step_cascade`]'s
/// restart guard) from scratch. Must follow the cascade step, whose
/// lifecycle transitions it reads.
fn rearm_after_teardown(scenario: &Scenario, state: &mut RunState) {
    if matches!(scenario.spec.detection, DetectionMode::Auto)
        && state.triggered_at.is_some()
        && state.acct.defense_down
        && scenario
            .pushback
            .as_ref()
            .is_some_and(|plan| plan.domains[0].coordinator.state() == LifecycleState::Idle)
    {
        state.triggered_at = None;
        state.fallback = None;
        state.acct.defense_down = false;
    }
}

/// Phase 6 — the closed-loop adversary (a no-op without one) steps once
/// per interval, after the cascade has applied this interval's defense
/// actions. It reads only its own sources' cumulative sent/delivered
/// counters — what each zombie measures from its own ack stream — and
/// retargets the attack senders for the next interval.
fn step_adversary(scenario: &mut Scenario, state: &mut RunState) {
    let Some(adv) = state.adversary.as_mut() else {
        return;
    };
    let mut feedback = adv.take_feedback_buf();
    let stats = scenario.sim.stats();
    for (slot, (_, key)) in feedback.iter_mut().zip(&state.attack_sources) {
        let (sent, delivered) = stats
            .flow(key)
            .map_or((0, 0), |rec| (rec.sent, rec.delivered));
        *slot = SourceFeedback { sent, delivered };
    }
    for &dir in adv.observe_interval(feedback) {
        let source = match dir {
            AdversaryDirective::SetActive { source, .. }
            | AdversaryDirective::SetRateScale { source, .. } => source,
        };
        let (agent, _) = *state
            .attack_sources
            .get(source)
            .expect("directives name sources within the attack set");
        let sender = scenario
            .sim
            .agent_mut::<UnresponsiveSender>(agent)
            .expect("attack sender installed at build time");
        match dir {
            AdversaryDirective::SetActive { active, .. } => sender.set_paused(!active),
            AdversaryDirective::SetRateScale { scale_milli, .. } => {
                sender.set_rate_scale_milli(scale_milli);
            }
        }
    }
}

/// Phase 7 — records this interval's probe into the run ledger (a no-op
/// with the ledger off). Sits after the cascade and the adversary, so
/// the hash covers everything they did this interval, and before
/// [`detect`]: the control messages detection queues are first hashed
/// with the *next* interval (the pinned chains record exactly that),
/// and no early return in the detection tail can decide whether an
/// interval is hashed — every interval is, once, at this loop point.
fn record_ledger(scenario: &Scenario, state: &mut RunState) {
    if state.ledger.is_none() {
        return;
    }
    let mut probe = std::mem::take(&mut state.probe);
    compute_probe(scenario, state, &mut probe);
    if let Some(builder) = state.ledger.as_mut() {
        builder.record_interval(scenario.sim.now().as_nanos(), &probe);
    }
    state.probe = probe;
}

/// Phase 8 — the victim-side detection tail, last in the interval:
/// while automatic detection is armed and no trigger is latched, fire
/// the escalation fallback if its grace period ran out, else feed this
/// epoch's traffic matrix to the detector and instruct the ATRs it
/// names. Each early return ends the interval; nothing runs after it.
fn detect(scenario: &mut Scenario, state: &mut RunState) -> Result<(), WorkloadError> {
    if !matches!(scenario.spec.detection, DetectionMode::Auto) || state.triggered_at.is_some() {
        return Ok(());
    }
    let victim = scenario.domain.victim_addr;
    // Victim escalation fallback: if the counting pipeline has not
    // fired within the grace period, every ingress is instructed.
    if let Some(grace) = state.fallback {
        if scenario.sim.now() >= scenario.spec.attack_start + grace {
            let ingresses = scenario.droppers.iter().map(|&(node, _)| node);
            let at = instruct(&mut scenario.sim, &mut state.atr_nodes, victim, ingresses);
            state.latch_trigger(at);
            state.fallback = None;
            return Ok(());
        }
    }
    let matrix = TrafficMatrix::estimate(&state.sketches)
        .map_err(|e| WorkloadError::Detection(e.to_string()))?;
    let VictimVerdict::UnderAttack(alarm) = state.detector.observe(&matrix) else {
        return Ok(());
    };
    let routers = scenario.domain.routers();
    let victim_router = scenario.domain.victim_router;
    // Only a last-hop alarm for *our* victim counts; ingress routers
    // also have egress traffic (ACKs toward hosts).
    if routers[alarm.victim.0] != victim_router {
        return Ok(());
    }
    // Never instruct the victim's own router; MAFIC runs at the ingress
    // ATRs.
    let atrs = alarm
        .attack_transit_routers
        .iter()
        .map(|&(id, _contribution)| routers[id.0])
        .filter(|&node| node != victim_router);
    let at = instruct(&mut scenario.sim, &mut state.atr_nodes, victim, atrs);
    if !state.atr_nodes.is_empty() {
        state.latch_trigger(at);
    }
    Ok(())
}

/// The monitor loop shared by fresh and resumed runs: eight phases in a
/// fixed order, each documenting the ordering it depends on.
fn drive(scenario: &mut Scenario, state: &mut RunState) -> Result<RunOutcome, WorkloadError> {
    while scenario.sim.now() < scenario.spec.end {
        maybe_capture(scenario, state);
        let elapsed = advance(scenario, state);
        let victim_cardinality = harvest_taps(scenario, state);
        step_cascade(scenario, state, elapsed, victim_cardinality);
        rearm_after_teardown(scenario, state);
        step_adversary(scenario, state);
        record_ledger(scenario, state);
        detect(scenario, state)?;
    }
    // A checkpoint requested inside the final interval lands here: the
    // loop has exited, but the capture (at `end`, trivially resumable)
    // must still happen rather than silently not.
    maybe_capture(scenario, state);
    Ok(assemble_outcome(scenario, state))
}

/// Assembles the finished run's [`RunOutcome`] from the post-run
/// simulator and the loop's accumulators.
fn assemble_outcome(scenario: &Scenario, state: &mut RunState) -> RunOutcome {
    // β windows: "before" covers only the attack-raging period between
    // attack start and the trigger; "after" sits right behind the trigger
    // (the paper reports the cut achieved within ~2×RTT, before the nice
    // flows regain their bandwidth shares).
    let trigger_anchor = state
        .first_triggered_at
        .unwrap_or(scenario.spec.attack_start);
    let raging = trigger_anchor.saturating_since(scenario.spec.attack_start);
    let windows = MeasureWindows {
        trigger_at: trigger_anchor,
        before: raging
            .max(SimDuration::from_millis(50))
            .min(SimDuration::from_millis(500)),
        settle: SimDuration::from_millis(50),
        after: SimDuration::from_millis(200),
        // Fixed-length residual window so per-depth comparisons share a
        // denominator; long enough to cover the whole cascade.
        residual: SimDuration::from_secs(2),
    };
    let stats = scenario.sim.stats();
    let mut report = MetricsReport::from_stats(stats, &windows);
    report.peak_arena_packets = scenario.sim.packet_arena_peak() as u64;
    report.scratch_inbox_drains = state.scratch.drains;
    report.scratch_sketch_recycles = state.sketch_recycles;
    report.victim_source_cardinality = if state.cardinality_intervals > 0 {
        state.cardinality_sum / state.cardinality_intervals as f64
    } else {
        0.0
    };
    let trace_tail = scenario.sim.trace_tail(TRACE_TAIL_EVENTS);
    RunOutcome {
        report,
        series: victim_arrival_series(stats),
        goodput_series: victim_bandwidth_series(stats),
        triggered_at: state.first_triggered_at,
        atr_nodes: sorted_unique(std::mem::take(&mut state.atr_nodes)),
        escalations: std::mem::take(&mut state.escalations),
        max_pushback_depth: state.max_pushback_depth,
        policy_costs: collect_policy_costs(scenario),
        control: collect_control_report(scenario, &state.acct),
        stood_down_at: state.acct.stood_down_at,
        packets_sent: stats.total_sent,
        packets_delivered: stats.total_delivered,
        ledger: state
            .ledger
            .take()
            .map(|builder| builder.finish(trace_tail.clone())),
        trace_tail,
        checkpoint: state.checkpoint.take(),
    }
}

/// Re-runs the full snapshot write — probe, every section, wire
/// encode — over a scenario/state pair (e.g. one [`restore_run`] just
/// produced). This is the capture path [`ScenarioSpec::checkpoint_at`]
/// triggers mid-run, exposed so harnesses can time and size it in
/// isolation.
///
/// Serializes the full run — simulator sections plus the runner's own
/// loop state — into the versioned snapshot format, embedding a freshly
/// computed component-hash table as the restore-time integrity gate.
#[must_use]
pub fn encode_checkpoint(scenario: &Scenario, state: &RunState) -> Vec<u8> {
    capture(scenario, state, &mut IntervalProbe::new())
}

/// [`encode_checkpoint`] computing the integrity table with `probe`.
fn capture(scenario: &Scenario, state: &RunState, probe: &mut IntervalProbe) -> Vec<u8> {
    let spec = &scenario.spec;
    let interval = spec.monitor_interval.as_nanos();
    let mut snapshot = Snapshot::new(SnapshotHeader {
        snap_version: SNAP_VERSION,
        crate_version: env!("CARGO_PKG_VERSION").to_string(),
        seed: spec.seed,
        spec_fingerprint: spec.fingerprint(),
        at_nanos: scenario.sim.now().as_nanos(),
        interval_index: state
            .last_stop
            .as_nanos()
            .checked_div(interval)
            .unwrap_or(0),
    });
    compute_probe(scenario, state, probe);
    snapshot.component_hashes = probe.components().to_vec();
    // The walk buffer is at its largest now and idle until the next
    // interval: free it before any section is written, since the
    // sections and the encoded bytes are the run's heap peak.
    probe.free_buffer();
    scenario.sim.snap_save_into(&mut snapshot);
    snapshot.write_section("workload/run", |w| state.write_state(w));
    if let Some(builder) = state.ledger.as_ref() {
        snapshot.write_section("workload/ledger", |w| builder.write_state(w));
    }
    if let Some(plan) = scenario.pushback.as_ref() {
        for (d, dom) in plan.domains.iter().enumerate() {
            snapshot.write_section(&format!("workload/dom{d}"), |w| {
                dom.coordinator.write_state(w);
                w.write_u64(dom.residual_bytes);
            });
        }
    }
    if let Some(adv) = state.adversary.as_ref() {
        snapshot.write_section("workload/adversary", |w| adv.write_state(w));
    }
    snapshot.encode()
}

/// Rebuilds a mid-run scenario from checkpoint bytes captured by a run
/// of the *same spec*. The returned pair plugs straight into
/// [`resume_scenario`]; the continuation is byte-identical (report,
/// series, run ledger) to the straight run that captured the snapshot.
///
/// Restore is rebuild-plus-overlay: the scenario is built fresh from
/// the spec (all build-time wiring), every snapshot section is overlaid
/// onto it, and then every component's [`State`] hash is
/// recomputed and compared against the table embedded at capture time —
/// a snapshot that does not reproduce the captured state byte-for-byte
/// is rejected with the first offending component named, never loaded
/// silently.
///
/// # Errors
///
/// [`WorkloadError::Snapshot`] when the bytes fail decoding, the header
/// identity (crate version, seed, spec fingerprint) does not match, a
/// needed section is missing, or a recomputed digest mismatches;
/// ordinary build errors propagate as themselves.
pub fn restore_run(
    spec: &ScenarioSpec,
    bytes: &[u8],
) -> Result<(Scenario, RunState), WorkloadError> {
    let snapshot = Snapshot::decode(bytes)?;
    let header = &snapshot.header;
    let crate_version = env!("CARGO_PKG_VERSION");
    if header.crate_version != crate_version {
        return Err(SnapError::HeaderMismatch {
            field: "crate_version",
            expected: crate_version.to_string(),
            found: header.crate_version.clone(),
        }
        .into());
    }
    if header.seed != spec.seed {
        return Err(SnapError::HeaderMismatch {
            field: "seed",
            expected: spec.seed.to_string(),
            found: header.seed.to_string(),
        }
        .into());
    }
    let fingerprint = spec.fingerprint();
    if header.spec_fingerprint != fingerprint {
        return Err(SnapError::HeaderMismatch {
            field: "spec_fingerprint",
            expected: format!("{fingerprint:016x}"),
            found: format!("{:016x}", header.spec_fingerprint),
        }
        .into());
    }
    let mut scenario = Scenario::build(spec.clone())?;
    let mut state = fresh_state(&scenario)?;
    scenario.sim.snap_restore_from(&snapshot)?;
    snapshot.read_section("workload/run", |r| state.read_state(r, &scenario))?;
    if let Some(builder) = state.ledger.as_mut() {
        snapshot.read_section("workload/ledger", |r| builder.read_state(r))?;
    }
    if let Some(plan) = scenario.pushback.as_mut() {
        for (d, dom) in plan.domains.iter_mut().enumerate() {
            snapshot.read_section(&format!("workload/dom{d}"), |r| {
                dom.coordinator.read_state(r)?;
                dom.residual_bytes = r.read_u64()?;
                Ok(())
            })?;
        }
    }
    if let Some(adv) = state.adversary.as_mut() {
        snapshot.read_section("workload/adversary", |r| adv.read_state(r))?;
    }
    // The integrity gate: recompute every component digest over the
    // overlaid state and compare against the capture-time table; a
    // mismatch fails here with the diverging component named.
    let mut probe = IntervalProbe::new();
    compute_probe(&scenario, &state, &mut probe);
    let recomputed = probe.components();
    if recomputed.len() != snapshot.component_hashes.len() {
        return Err(SnapError::Malformed(format!(
            "snapshot hashes {} components, restored scenario probes {}",
            snapshot.component_hashes.len(),
            recomputed.len()
        ))
        .into());
    }
    for ((label, expected), (found_label, found)) in
        snapshot.component_hashes.iter().zip(recomputed)
    {
        if label != found_label {
            return Err(SnapError::Malformed(format!(
                "component order mismatch: snapshot has {label:?}, restore probed {found_label:?}"
            ))
            .into());
        }
        if expected != found {
            return Err(SnapError::StateMismatch {
                component: label.clone(),
                expected: *expected,
                found: *found,
            }
            .into());
        }
    }
    state.checkpoint = Some(bytes.to_vec());
    Ok((scenario, state))
}

/// Builds and runs a scenario in one call, averaging is the caller's job.
///
/// # Errors
///
/// Propagates build and run errors.
pub fn run_spec(spec: crate::spec::ScenarioSpec) -> Result<RunOutcome, WorkloadError> {
    run_scenario(&mut Scenario::build(spec)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use mafic_topology::TransitTopology;

    fn quick_spec() -> ScenarioSpec {
        ScenarioSpec {
            total_flows: 12,
            n_routers: 6,
            attack_start: SimTime::from_secs_f64(0.8),
            end: SimTime::from_secs_f64(3.0),
            ..ScenarioSpec::default()
        }
    }

    fn quick_multi_spec(depth: u32) -> ScenarioSpec {
        ScenarioSpec {
            total_flows: 12,
            n_routers: 6,
            domains: 3,
            transit_topology: TransitTopology::Chain { depth: 1 },
            pushback_depth: depth,
            attack_start: SimTime::from_secs_f64(0.8),
            end: SimTime::from_secs_f64(3.5),
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn auto_detection_triggers_and_cuts_attack() {
        let outcome = run_spec(quick_spec()).unwrap();
        assert!(outcome.defense_engaged(), "detector must fire: {outcome:?}");
        let t = outcome.triggered_at.unwrap();
        assert!(
            t > quick_spec().attack_start,
            "trigger {t} before attack start"
        );
        assert!(
            t < quick_spec().attack_start + SimDuration::from_millis(600),
            "detection too slow: {t}"
        );
        assert!(!outcome.atr_nodes.is_empty());
        // The defense must drop the bulk of the attack.
        assert!(
            outcome.report.accuracy_pct > 90.0,
            "accuracy {:.2}%",
            outcome.report.accuracy_pct
        );
    }

    #[test]
    fn atr_nodes_are_sorted_and_unique() {
        let outcome = run_spec(quick_spec()).unwrap();
        let nodes = &outcome.atr_nodes;
        assert!(!nodes.is_empty());
        assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "atr_nodes must be strictly ascending: {nodes:?}"
        );
    }

    #[test]
    fn sorted_unique_collapses_duplicates_across_paths() {
        // Regression: the fallback and detector paths (and lease-lapse
        // re-activations in the cascade) may both append a router.
        let raw = vec![
            NodeId::from_index(5),
            NodeId::from_index(2),
            NodeId::from_index(5),
            NodeId::from_index(2),
            NodeId::from_index(9),
        ];
        assert_eq!(
            sorted_unique(raw),
            vec![
                NodeId::from_index(2),
                NodeId::from_index(5),
                NodeId::from_index(9)
            ]
        );
    }

    #[test]
    fn detection_off_never_drops() {
        let spec = ScenarioSpec {
            detection: DetectionMode::Off,
            ..quick_spec()
        };
        let outcome = run_spec(spec).unwrap();
        assert!(!outcome.defense_engaged());
        assert_eq!(outcome.report.attack_dropped, 0);
        assert_eq!(outcome.report.attack_seen, 0, "no ATR accounting when idle");
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_spec(quick_spec()).unwrap();
        let b = run_spec(quick_spec()).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.triggered_at, b.triggered_at);
        assert_eq!(a.packets_sent, b.packets_sent);
    }

    #[test]
    fn taps_stay_epoch_scoped_after_trigger() {
        let mut scenario = Scenario::build(quick_spec()).unwrap();
        let outcome = run_scenario(&mut scenario).unwrap();
        assert!(outcome.defense_engaged(), "precondition: defense fired");
        // The monitor drains the taps every interval, triggered or not.
        // The final drain happens at `end`, so a post-run reader sees an
        // interval-scoped (here: empty) epoch — not every packet since
        // the trigger merged into one stale epoch.
        let taps = scenario.taps.clone();
        for (node, idx) in taps {
            let tap = scenario
                .sim
                .filter_mut::<LogLogTap>(node, idx)
                .expect("tap installed at build time");
            let epoch = tap.take_epoch();
            assert_eq!(epoch.source_cardinality(), 0.0, "stale sources at {node:?}");
            assert_eq!(
                epoch.destination_cardinality(),
                0.0,
                "stale destinations at {node:?}"
            );
        }
    }

    #[test]
    fn legit_flows_survive_the_defense() {
        let outcome = run_spec(quick_spec()).unwrap();
        // The whole point of MAFIC: legitimate flows keep most of their
        // packets.
        assert!(
            outcome.report.legit_drop_pct < 20.0,
            "legit drop rate {:.2}%",
            outcome.report.legit_drop_pct
        );
        assert!(
            outcome.report.flows.legit_condemned <= outcome.report.flows.legit_flows / 4,
            "too many legit flows condemned: {:?}",
            outcome.report.flows
        );
    }

    #[test]
    fn depth_zero_multi_domain_never_escalates() {
        let outcome = run_spec(quick_multi_spec(0)).unwrap();
        assert!(outcome.defense_engaged());
        assert_eq!(outcome.max_pushback_depth, 0);
        assert!(
            outcome.escalations.is_empty(),
            "depth 0 must stay victim-domain-only: {:?}",
            outcome.escalations
        );
    }

    #[test]
    fn cascade_escalates_up_to_the_budget() {
        let outcome = run_spec(quick_multi_spec(2)).unwrap();
        assert!(outcome.defense_engaged());
        assert!(
            outcome.max_pushback_depth >= 1,
            "sustained flood must escalate: {:?}",
            outcome.escalations
        );
        assert!(outcome.max_pushback_depth <= 2, "budget caps the cascade");
        // Escalations activate in path order, after the local trigger.
        let trigger = outcome.triggered_at.unwrap();
        for &(at, _) in &outcome.escalations {
            assert!(at > trigger);
        }
    }

    #[test]
    fn charge_skip_cost_prices_levels_and_enforces_budget() {
        let victim = Addr::new(7);
        let requester = RequesterId::new(Addr::new(99));
        let envelope = |verb| ControlMsg::new(requester, 3, verb);
        let req = envelope(ControlVerb::Request {
            victim,
            aggregate_bps: 1000,
            budget: 2,
        });
        // Direct neighbor: unchanged (identity and nonce included).
        assert_eq!(charge_skip_cost(req, 1), Some(req));
        // Two levels away: one extra hop charged; the rest of the
        // envelope survives untouched.
        assert_eq!(
            charge_skip_cost(req, 2),
            Some(envelope(ControlVerb::Request {
                victim,
                aggregate_bps: 1000,
                budget: 1,
            }))
        );
        // Four levels away: budget 2 cannot cover 3 extra hops.
        assert_eq!(charge_skip_cost(req, 4), None);
        // Refresh follows the same pricing.
        let refresh = envelope(ControlVerb::Refresh { victim, budget: 1 });
        assert_eq!(
            charge_skip_cost(refresh, 2),
            Some(envelope(ControlVerb::Refresh { victim, budget: 0 }))
        );
        assert_eq!(charge_skip_cost(refresh, 3), None);
        // Withdraw, Stop, and Deny always forward.
        let withdraw = envelope(ControlVerb::Withdraw { victim });
        assert_eq!(charge_skip_cost(withdraw, 5), Some(withdraw));
        let stop = envelope(ControlVerb::Stop { victim });
        assert_eq!(charge_skip_cost(stop, 5), Some(stop));
        let deny = envelope(ControlVerb::Deny {
            victim,
            reason: mafic_netsim::DenyReason::BudgetExhausted,
        });
        assert_eq!(charge_skip_cost(deny, 5), Some(deny));
    }

    #[test]
    fn policy_costs_cover_every_deployed_policy() {
        use mafic::DefensePolicy;
        let spec = crate::spec::ScenarioSpec {
            transit_policy: Some(DefensePolicy::AggregateRateLimit {
                limit_bytes_per_sec: 250_000.0,
            }),
            ..quick_multi_spec(2)
        };
        let outcome = run_spec(spec).unwrap();
        assert!(outcome.defense_engaged());
        let labels: Vec<&str> = outcome
            .policy_costs
            .iter()
            .map(|c| c.policy.as_str())
            .collect();
        assert_eq!(labels, vec!["mafic", "rate-limit"], "sorted by label");
        let mafic_row = &outcome.policy_costs[0];
        assert!(mafic_row.domains >= 1);
        assert!(mafic_row.filters > 0);
        assert!(mafic_row.table_bytes > 0, "MAFIC keeps per-flow tables");
        assert!(mafic_row.timer_events > 0, "probation timers were armed");
        let rl_row = &outcome.policy_costs[1];
        assert_eq!(rl_row.timer_events, 0, "the bucket keeps no timers");
        let per_bucket = mafic::RateLimitFilter::new(1.0).approx_state_bytes() as u64;
        assert_eq!(rl_row.table_bytes, per_bucket * rl_row.filters as u64);
    }

    #[test]
    fn single_domain_outcome_reports_costs_too() {
        let outcome = run_spec(quick_spec()).unwrap();
        assert_eq!(outcome.policy_costs.len(), 1);
        assert_eq!(outcome.policy_costs[0].policy, "mafic");
        assert_eq!(outcome.policy_costs[0].domains, 1);
    }

    #[test]
    fn zero_participation_keeps_the_defense_at_the_victim_domain() {
        let spec = crate::spec::ScenarioSpec {
            participation_fraction: 0.0,
            ..quick_multi_spec(3)
        };
        let outcome = run_spec(spec).unwrap();
        assert!(outcome.defense_engaged());
        assert_eq!(
            outcome.max_pushback_depth, 0,
            "nobody upstream participates: {:?}",
            outcome.escalations
        );
        // Only the victim domain's boundary ever activates.
        assert!(outcome.escalations.iter().all(|&(_, d)| d == 0));
    }

    #[test]
    fn cross_traffic_counts_as_legitimate_bystander_traffic() {
        let without = run_spec(quick_multi_spec(1)).unwrap();
        let spec = ScenarioSpec {
            cross_traffic_bps: 50_000.0,
            ..quick_multi_spec(1)
        };
        let mut scenario = crate::scenario::Scenario::build(spec).unwrap();
        let with = run_scenario(&mut scenario).unwrap();
        // The background flows are declared legitimate, so the
        // collateral denominator grows and their losses (if any) are
        // visible to the metrics.
        assert!(
            with.report.legit_data_sent > without.report.legit_data_sent,
            "cross traffic must add legitimate data: {} vs {}",
            with.report.legit_data_sent,
            without.report.legit_data_sent
        );
        // The flows actually moved packets across the transit tier.
        let key = scenario.cross_traffic[0];
        let record = scenario
            .sim
            .stats()
            .flow(&key)
            .expect("cross flow is declared");
        assert!(!record.is_attack);
        assert!(record.sent > 0, "cross sender must emit packets");
    }

    #[test]
    fn checkpoint_restore_resumes_byte_identically() {
        let spec = ScenarioSpec {
            checkpoint_at: Some(SimTime::from_secs_f64(1.2)),
            ledger: true,
            ..quick_spec()
        };
        let straight = run_spec(spec.clone()).unwrap();
        let bytes = straight.checkpoint.clone().expect("checkpoint captured");
        let (mut scenario, state) = restore_run(&spec, &bytes).unwrap();
        let resumed = resume_scenario(&mut scenario, state).unwrap();
        assert_eq!(resumed.report, straight.report);
        assert_eq!(resumed.series, straight.series);
        assert_eq!(resumed.goodput_series, straight.goodput_series);
        assert_eq!(resumed.ledger, straight.ledger);
        assert_eq!(resumed.triggered_at, straight.triggered_at);
        assert_eq!(resumed.atr_nodes, straight.atr_nodes);
        assert_eq!(resumed.packets_sent, straight.packets_sent);
        assert_eq!(
            resumed.checkpoint.as_deref(),
            Some(bytes.as_slice()),
            "a resumed run carries the snapshot it was restored from"
        );
    }

    #[test]
    fn multi_domain_checkpoint_covers_the_cascade() {
        let spec = ScenarioSpec {
            checkpoint_at: Some(SimTime::from_secs_f64(1.5)),
            ledger: true,
            ..quick_multi_spec(2)
        };
        let straight = run_spec(spec.clone()).unwrap();
        let bytes = straight.checkpoint.clone().expect("checkpoint captured");
        let (mut scenario, state) = restore_run(&spec, &bytes).unwrap();
        let resumed = resume_scenario(&mut scenario, state).unwrap();
        assert_eq!(resumed.report, straight.report);
        assert_eq!(resumed.escalations, straight.escalations);
        assert_eq!(resumed.control, straight.control);
        assert_eq!(resumed.stood_down_at, straight.stood_down_at);
        assert_eq!(resumed.ledger, straight.ledger);
    }

    #[test]
    fn restore_rejects_the_wrong_seed() {
        let spec = ScenarioSpec {
            checkpoint_at: Some(SimTime::from_secs_f64(1.0)),
            ..quick_spec()
        };
        let bytes = run_spec(spec.clone()).unwrap().checkpoint.unwrap();
        let other = ScenarioSpec { seed: 2, ..spec };
        match restore_run(&other, &bytes) {
            Err(WorkloadError::Snapshot(mafic_obs::SnapError::HeaderMismatch {
                field, ..
            })) => assert_eq!(field, "seed"),
            other => panic!("expected a seed header mismatch, got {other:?}"),
        }
    }

    #[test]
    fn one_batch_probe_equals_each_components_own_hash() {
        // A finished cascade with an adversary: every component kind,
        // walks from a few bytes to tens of kilobytes, all in one batch.
        let spec = ScenarioSpec {
            adversary: Some(mafic_adversary::AdversarySpec::with_strategy(
                mafic_adversary::StrategyKind::SourceRotation {
                    period_intervals: 2,
                    active_fraction: 0.5,
                },
            )),
            ..quick_multi_spec(2)
        };
        let mut scenario = Scenario::build(spec).unwrap();
        let mut state = fresh_state(&scenario).unwrap();
        drive(&mut scenario, &mut state).unwrap();
        let mut probe = IntervalProbe::new();
        compute_probe(&scenario, &state, &mut probe);

        // Every component walked and hashed alone, serially.
        let sim = &scenario.sim;
        let mut expected = mafic_netsim::testkit::component_hashes(sim);
        let alone = |walk: &dyn Fn(&mut HashWriter)| {
            let mut h = HashWriter::new();
            walk(&mut h);
            h.finish()
        };
        let plan = scenario.pushback.as_ref().unwrap();
        for (dom, labels) in plan.domains.iter().zip(&state.dom_labels) {
            let channel = sim.agent::<ControlChannel>(dom.channel).unwrap();
            let hashes = [
                mafic_obs::state_hash(&dom.coordinator),
                mafic_obs::state_hash(dom.coordinator.ledger()),
                alone(&|h| {
                    h.write_usize(dom.atrs.len());
                    hash_filters(sim, &dom.atrs, h);
                }),
                alone(&|h| hash_filters(sim, dom.pre_meters.iter().chain(&dom.post_meters), h)),
                mafic_obs::state_hash(channel),
            ];
            expected.extend(labels.iter().cloned().zip(hashes));
        }
        let adversary = state.adversary.as_ref().unwrap();
        expected.push(("adversary".to_string(), mafic_obs::state_hash(adversary)));
        assert_eq!(probe.components(), expected.as_slice());
    }

    #[test]
    fn multi_domain_runs_are_deterministic() {
        let a = run_spec(quick_multi_spec(2)).unwrap();
        let b = run_spec(quick_multi_spec(2)).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.escalations, b.escalations);
        assert_eq!(a.packets_sent, b.packets_sent);
    }
}
