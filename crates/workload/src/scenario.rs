//! Scenario construction: domain + agents + filters, fully wired.
//!
//! One builder ([`Scenario::build`]), two shapes — they differ only in
//! the topology step and in whether a [`PushbackPlan`] is installed:
//!
//! * **Single-domain** (`spec.domains == 1`) — the paper's Figure 1
//!   scenario: one [`Domain`], droppers on its ingress routers.
//! * **Multi-domain** (`spec.domains >= 2`) — an [`Internet`] of stub
//!   domains and a transit tier. Flows split round-robin over the
//!   stubs, so part of the flood is remote and crosses the inter-domain
//!   links; every *participating* domain boundary gets inactive defense
//!   filters matching its resolved [`DefensePolicy`], rate meters, and
//!   a pushback coordinator (the [`PushbackPlan`]) so the defense can
//!   cascade upstream at run time. Non-participating domains deploy
//!   nothing; escalation requests skip over them to the nearest
//!   participating domain (routing through the gap).

use crate::error::WorkloadError;
use crate::spec::ScenarioSpec;
use mafic::{
    AddressValidator, DefensePolicy, LogLogTap, MaficConfig, MaficFilter, ProportionalFilter,
    RateLimitFilter,
};
use mafic_loglog::Precision;
use mafic_netsim::{
    Addr, AgentId, FlowKey, LinkId, LinkSpec, NodeId, RequesterId, SimDuration, SimTime, Simulator,
};
use mafic_pushback::{ControlChannel, DomainCoordinator, PushbackRole};
use mafic_topology::{AddressSpace, Domain, DomainConfig, Internet, InternetConfig, PREFIX_LEN};
use mafic_transport::{
    CbrConfig, CbrProtocol, TcpConfig, TcpSender, UnresponsiveSender, VictimSink,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Spoofing mode of one attack flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpoofMode {
    /// Uses the zombie's genuine address.
    None,
    /// Claims an unallocated (illegal) address.
    Illegal,
    /// Claims a legal address from another subnet.
    LegalOtherSubnet,
}

/// Ground-truth description of one provisioned flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowInfo {
    /// The flow's wire 4-tuple (claimed source included).
    pub key: FlowKey,
    /// The sending agent.
    pub agent: AgentId,
    /// True for attack flows.
    pub is_attack: bool,
    /// True for flows whose data segments are TCP.
    pub is_tcp: bool,
    /// The spoofing mode (always `None` for legitimate flows).
    pub spoof: SpoofMode,
    /// Index of the ingress router the flow enters through (within its
    /// own stub domain).
    pub ingress_index: usize,
    /// Index of the stub domain hosting the flow's source (0 = the
    /// victim's own domain).
    pub stub_index: usize,
}

/// One upstream escalation target of a domain — the nearest
/// *participating* domain in that direction. When intermediate domains
/// opted out of the federation, the target sits more than one level
/// away and the request packet routes *through* the non-participants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushbackUpstream {
    /// Index of the target domain in [`Internet::domains`].
    pub domain: usize,
    /// Its coordinator's control address.
    pub ctrl_addr: Addr,
    /// The local border router where the message is injected (the
    /// packet then crosses the shared inter-domain link and keeps
    /// routing until it reaches the target's control address).
    pub border: NodeId,
    /// Pushback levels between this domain and the target (1 = direct
    /// neighbor; more when non-participating domains are skipped). Each
    /// level crossed costs one hop of the escalation budget.
    pub level_cost: u32,
}

/// Runtime control state of one domain boundary.
#[derive(Debug)]
pub struct PushbackDomainControl {
    /// The coordinator state machine.
    pub coordinator: DomainCoordinator,
    /// The defense policy this domain deploys. Non-participating
    /// domains carry no filters or meters and are never stepped by the
    /// runner; their coordinator exists but stays idle.
    pub policy: DefensePolicy,
    /// The domain's control-channel agent (bound to `ctrl_addr`).
    pub channel: AgentId,
    /// The domain's control address.
    pub ctrl_addr: Addr,
    /// The domain's gateway router (faces the downstream neighbor) —
    /// where downstream-bound control packets (`Deny`) are injected.
    pub gateway: NodeId,
    /// Pushback level (victim domain = 0).
    pub level: u32,
    /// Upstream neighbors, escalation targets.
    pub upstream: Vec<PushbackUpstream>,
    /// `(router, filter index)` of the domain's ATR defense filters.
    pub atrs: Vec<(NodeId, usize)>,
    /// Border routers among the ATRs (inter-domain links from upstream
    /// terminate here), sorted. Pre-meters at these nodes measure
    /// pass-through traffic an upstream report can cover; the rest is
    /// the domain's own local-ingress component.
    pub border_nodes: Vec<NodeId>,
    /// Pre-dropper meters: offered victim-bound pressure.
    pub pre_meters: Vec<(NodeId, usize)>,
    /// Post-dropper meters: residual leaking past the local defense.
    pub post_meters: Vec<(NodeId, usize)>,
    /// Residual victim-bound bytes accumulated by the runner.
    pub residual_bytes: u64,
}

/// The full pushback control plane of a multi-domain scenario.
#[derive(Debug)]
pub struct PushbackPlan {
    /// Per-domain control state, in [`Internet::domains`] order.
    pub domains: Vec<PushbackDomainControl>,
}

/// A fully wired scenario, ready to run.
pub struct Scenario {
    /// The simulator holding the domain, agents, and filters.
    pub sim: Simulator,
    /// The victim's domain handles (the only domain when
    /// `spec.domains == 1`).
    pub domain: Domain,
    /// The multi-domain topology, when one was built.
    pub internet: Option<Internet>,
    /// The inter-domain pushback control plane, when one was built.
    pub pushback: Option<PushbackPlan>,
    /// The spec this scenario was built from.
    pub spec: ScenarioSpec,
    /// All provisioned flows with ground truth.
    pub flows: Vec<FlowInfo>,
    /// `(router, filter index)` of the defense filter on each of the
    /// victim domain's ingress routers.
    pub droppers: Vec<(NodeId, usize)>,
    /// `(router, filter index)` of the LogLog tap on each victim-domain
    /// router, in [`Domain::routers`] order.
    pub taps: Vec<(NodeId, usize)>,
    /// The victim sink agent.
    pub victim_agent: AgentId,
    /// Flow keys of the background cross-traffic flows through the
    /// transit tier (empty unless `spec.cross_traffic_bps > 0`). These
    /// are legitimate flows not aimed at the victim.
    pub cross_traffic: Vec<FlowKey>,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("flows", &self.flows.len())
            .field("droppers", &self.droppers.len())
            .field("taps", &self.taps.len())
            .field(
                "domains",
                &self.internet.as_ref().map_or(1, |n| n.domains.len()),
            )
            .finish()
    }
}

/// Bandwidth of every inter-domain link (bits/s). Deliberately tighter
/// than the aggregate flood so depth-0 pushback leaves the transit→
/// victim links congested — the collateral deeper deployment relieves.
const INTER_DOMAIN_BANDWIDTH_BPS: f64 = 20e6;
/// Propagation delay of every inter-domain link.
const INTER_DOMAIN_DELAY: SimDuration = SimDuration::from_millis(10);
/// Queue capacity (packets) of every inter-domain link.
const INTER_DOMAIN_QUEUE: usize = 192;
/// LogLog sketch precision of the pushback taps.
const TAP_PRECISION: Precision = Precision::P10;
/// Legitimate flows start at a seeded instant in `[0, LEGIT_START_SPREAD]`.
const LEGIT_START_SPREAD: SimDuration = SimDuration::from_millis(500);
/// Bin width of the victim's time series.
const VICTIM_BIN: SimDuration = SimDuration::from_millis(50);

impl Scenario {
    /// Builds the scenario described by `spec`: one body for both
    /// shapes, in a fixed order — topology, victim endpoint, validator,
    /// taps, defense plane, flows, cross traffic.
    /// The order is part of the behaviour contract: agent ids, filter
    /// chain positions, event sequence numbers and RNG draws all follow
    /// from it, and every pinned digest follows from those.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] if the spec or derived topology is
    /// invalid.
    pub fn build(spec: ScenarioSpec) -> Result<Scenario, WorkloadError> {
        spec.validate().map_err(WorkloadError::Spec)?;
        let mut rng = SmallRng::seed_from_u64(spec.seed.wrapping_mul(0x9E37_79B9));
        let mut sim = Simulator::new(spec.seed);
        if spec.trace_capacity > 0 {
            sim.enable_trace(spec.trace_capacity);
        }

        // Topology: the paper's single domain, or an internet whose
        // first domain is the victim's.
        let (domain, internet) = if spec.domains <= 1 {
            let config = DomainConfig {
                n_routers: spec.n_routers,
                n_hosts: spec.total_flows,
                seed: spec.seed ^ 0xD0_4A1,
                ..DomainConfig::default()
            };
            let domain = Domain::build(&mut sim, &config).map_err(WorkloadError::Topology)?;
            (domain, None)
        } else {
            let internet = Internet::build(&mut sim, &internet_config(&spec))
                .map_err(WorkloadError::Topology)?;
            (internet.domains[0].domain.clone(), Some(internet))
        };

        // Victim endpoint.
        let victim_agent = sim.add_agent(
            domain.victim_host,
            Box::new(VictimSink::default()),
            SimTime::ZERO,
        );
        sim.bind_local_addr(domain.victim_host, domain.victim_addr, victim_agent);
        sim.stats_mut().watch_victim(domain.victim_host, VICTIM_BIN);
        sim.stats_mut()
            .watch_arrivals(domain.victim_router, domain.victim_addr, VICTIM_BIN);

        // One source-legality oracle over every domain's address plan: a
        // remote host's genuine address is legal everywhere.
        let spaces: Vec<&AddressSpace> = match &internet {
            Some(internet) => internet.address_spaces().collect(),
            None => vec![&domain.address_space],
        };
        let validator = AddressValidator::Prefixes(
            spaces
                .into_iter()
                .flat_map(|space| {
                    (0..space.ingress_count())
                        .map(move |i| (space.ingress_prefix(i), PREFIX_LEN))
                        .chain(std::iter::once((space.victim_prefix(), PREFIX_LEN)))
                })
                .collect(),
        );

        // Victim-domain taps feed the detector (tap first on each chain:
        // it counts arrivals before any dropper); border routers also
        // count inter-domain arrivals as domain entries.
        let border_links: Vec<(NodeId, LinkId)> = internet
            .iter()
            .flat_map(|internet| &internet.domains[0].upstream)
            .map(|e| (e.border, e.in_link))
            .collect();
        let taps = install_taps(&mut sim, &domain, &border_links);

        // Defense plane: per-domain filters, meters and coordinators
        // when an internet exists, else just the victim-domain droppers.
        let pushback = internet
            .as_ref()
            .map(|internet| install_pushback_plan(&mut sim, &spec, internet, &validator));
        let droppers = match &pushback {
            Some(plan) => plan.domains[0].atrs.clone(),
            None => install_droppers(
                &mut sim,
                &spec,
                &domain.ingress_routers,
                &validator,
                0,
                spec.policy,
            ),
        };

        // Traffic: one host per flow, legitimate TCP first, zombies
        // last; flow i lives in stub i % n_stubs.
        let n_stubs = spec.domains.max(1);
        let n_transit = spec.transit_topology.domain_count();
        let mut flows = Vec::with_capacity(spec.total_flows);
        for i in 0..spec.total_flows {
            let source = match &internet {
                Some(internet) if i % n_stubs > 0 => {
                    &internet.domains[n_transit + i % n_stubs].domain
                }
                _ => &domain,
            };
            flows.push(provision_flow(
                &mut sim,
                &spec,
                &mut rng,
                i,
                source,
                domain.victim_addr,
            ));
        }

        // Background cross traffic through the transit tier: one
        // long-lived TCP flow per transit domain, host 0 of transit
        // level l toward host 1 of the next transit domain around the
        // tier (itself when the tier has a single domain) — innocent
        // bystander traffic sharing the congested inter-domain links
        // without ever touching the victim.
        let cross_traffic = match &internet {
            Some(internet) if spec.cross_traffic_bps > 0.0 => {
                provision_cross_traffic(&mut sim, &spec, internet, n_transit)
            }
            _ => Vec::new(),
        };

        Ok(Scenario {
            sim,
            domain,
            internet,
            pushback,
            spec,
            flows,
            droppers,
            taps,
            victim_agent,
            cross_traffic,
        })
    }
}

/// The internet a multi-domain spec describes: `spec.domains` stubs
/// (flows split round-robin over them) under the spec's transit tier.
fn internet_config(spec: &ScenarioSpec) -> InternetConfig {
    let n_stubs = spec.domains;
    // Every stub domain must still carry at least one host to be
    // buildable.
    let mut stub_flow_counts = vec![0usize; n_stubs];
    for i in 0..spec.total_flows {
        stub_flow_counts[i % n_stubs] += 1;
    }
    let stubs = (0..n_stubs)
        .map(|s| DomainConfig {
            // The victim's domain keeps the paper's size; source
            // stubs are half-size edge networks.
            n_routers: if s == 0 {
                spec.n_routers
            } else {
                (spec.n_routers / 2).max(6)
            },
            n_hosts: stub_flow_counts[s].max(1),
            seed: spec.seed ^ 0xD0_4A1,
            ..DomainConfig::default()
        })
        .collect();
    InternetConfig {
        stubs,
        transit: spec.transit_topology,
        transit_domain: DomainConfig {
            n_routers: 8,
            // Cross traffic needs a sender (host 0) and a sink (host 1)
            // per transit domain; without it one idle host suffices.
            n_hosts: if spec.cross_traffic_bps > 0.0 { 2 } else { 1 },
            seed: spec.seed ^ 0xD0_4A1,
            ..DomainConfig::default()
        },
        inter_link: LinkSpec::new(
            INTER_DOMAIN_BANDWIDTH_BPS,
            INTER_DOMAIN_DELAY,
            INTER_DOMAIN_QUEUE,
        ),
    }
}

/// Installs the cascaded-pushback control plane: ATR filters, meters, a
/// control channel and a coordinator per domain — heterogeneous per
/// the resolved policy assignment — then the trust wiring between them.
fn install_pushback_plan(
    sim: &mut Simulator,
    spec: &ScenarioSpec,
    internet: &Internet,
    validator: &AddressValidator,
) -> PushbackPlan {
    let victim_addr = internet.domains[0].domain.victim_addr;
    let policies = spec.resolved_policies();
    debug_assert_eq!(policies.len(), internet.domains.len());
    let mut plan_domains = Vec::with_capacity(internet.domains.len());
    let pushback_config = spec.pushback_config();
    for (d, idom) in internet.domains.iter().enumerate() {
        let policy = policies[d];
        let mut border_nodes: Vec<NodeId> = idom.upstream.iter().map(|e| e.border).collect();
        border_nodes.sort();
        border_nodes.dedup();
        // The domain's ATRs: where victim-bound traffic enters it.
        // Non-participating domains deploy nothing at all.
        let atr_routers: Vec<NodeId> = if !policy.participating() {
            Vec::new()
        } else if d == 0 || idom.role == mafic_topology::DomainRole::Stub {
            idom.domain.ingress_routers.clone()
        } else {
            border_nodes.clone()
        };
        // Chain order at each ATR: pre-meter, dropper, post-meter.
        let install_meters = |sim: &mut Simulator| -> Vec<(NodeId, usize)> {
            atr_routers
                .iter()
                .map(|&router| {
                    let meter = mafic_pushback::VictimRateMeter::new(victim_addr);
                    (router, sim.add_filter(router, Box::new(meter)))
                })
                .collect()
        };
        let pre_meters = install_meters(sim);
        let atrs = install_droppers(sim, spec, &atr_routers, validator, d as u64, policy);
        let post_meters = install_meters(sim);

        // Control channel at the gateway router. Installed for every
        // domain so the control address stays bound, but requests are
        // only ever addressed to participating domains.
        let channel = sim.add_agent(idom.gateway, Box::new(ControlChannel::new()), SimTime::ZERO);
        sim.bind_local_addr(idom.gateway, idom.ctrl_addr, channel);

        let role = if d == 0 {
            PushbackRole::Victim
        } else {
            PushbackRole::Upstream
        };
        plan_domains.push(PushbackDomainControl {
            coordinator: DomainCoordinator::new(
                pushback_config,
                role,
                RequesterId::new(idom.ctrl_addr),
            ),
            policy,
            channel,
            ctrl_addr: idom.ctrl_addr,
            gateway: idom.gateway,
            level: idom.level,
            upstream: effective_upstreams(internet, &policies, d),
            border_nodes,
            atrs,
            pre_meters,
            post_meters,
            residual_bytes: 0,
        });
    }

    // Trust wiring: invert the escalation topology. Whoever domain
    // `d` may escalate to must recognize `d`'s boundary identity as
    // an authorized downstream requester — and `d` in turn believes
    // only those targets' replies (`Deny`, `Report`). Everybody
    // else stays untrusted. A compromised-but-authorized domain is
    // then stopped by attestation, not identity.
    let edges: Vec<(usize, usize)> = plan_domains
        .iter()
        .enumerate()
        .flat_map(|(d, dom)| dom.upstream.iter().map(move |up| (d, up.domain)))
        .collect();
    for (requester, target) in edges {
        let requester_id = RequesterId::new(plan_domains[requester].ctrl_addr);
        let target_id = RequesterId::new(plan_domains[target].ctrl_addr);
        plan_domains[target].coordinator.authorize(requester_id);
        plan_domains[requester]
            .coordinator
            .trust_upstream(target_id);
    }
    PushbackPlan {
        domains: plan_domains,
    }
}

/// Port base of the transit cross-traffic flows (clear of the per-flow
/// `1024 + i` range used by the scenario's victim-bound senders).
const CROSS_TRAFFIC_PORT_BASE: u16 = 21000;

/// Provisions one background TCP flow per transit domain (sender at
/// host 0, sink at host 1 of the next transit domain around the tier).
/// The flows are declared legitimate, so their losses show up in the
/// collateral accounting — transit congestion now harms bystanders the
/// metrics can see. `cross_traffic_bps` bounds each flow's rate through
/// its congestion-window cap (approximate: window = rate × an assumed
/// 100 ms RTT).
fn provision_cross_traffic(
    sim: &mut Simulator,
    spec: &ScenarioSpec,
    internet: &Internet,
    n_transit: usize,
) -> Vec<FlowKey> {
    let mut keys = Vec::with_capacity(n_transit);
    let segment_bytes = 500.0;
    let assumed_rtt_s = 0.1;
    let max_cwnd = (spec.cross_traffic_bps * assumed_rtt_s / segment_bytes).clamp(2.0, 64.0);
    for t in 1..=n_transit {
        let dest = if n_transit == 1 {
            t
        } else {
            (t % n_transit) + 1
        };
        let src_host = &internet.domains[t].domain.hosts[0];
        let dst_host = &internet.domains[dest].domain.hosts[1];
        let key = FlowKey::new(
            src_host.addr,
            dst_host.addr,
            CROSS_TRAFFIC_PORT_BASE + t as u16,
            80,
        );
        let sink = sim.add_agent(
            dst_host.node,
            Box::new(VictimSink::default()),
            SimTime::ZERO,
        );
        sim.bind_local_addr(dst_host.node, dst_host.addr, sink);
        let tcp_config = TcpConfig {
            max_cwnd,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(2),
            ..TcpConfig::default()
        };
        let sender = TcpSender::new(key, tcp_config, false);
        let agent = sim.add_agent(src_host.node, Box::new(sender), SimTime::ZERO);
        sim.bind_local_addr(src_host.node, src_host.addr, agent);
        sim.stats_mut().declare_flow(key, false, true);
        keys.push(key);
    }
    keys
}

/// Installs the LogLog taps over the victim domain's routers (in
/// [`Domain::routers`] order). `border_links` lists inter-domain links
/// terminating at victim-domain border routers; their arrivals count as
/// domain entries for the detector's traffic matrix.
fn install_taps(
    sim: &mut Simulator,
    domain: &Domain,
    border_links: &[(NodeId, LinkId)],
) -> Vec<(NodeId, usize)> {
    // What each ingress router fronts: its hosts' uplinks and addresses.
    let mut fronted: Vec<(Vec<LinkId>, Vec<Addr>)> =
        vec![Default::default(); domain.ingress_routers.len()];
    for h in &domain.hosts {
        fronted[h.ingress_index].0.push(h.uplink);
        fronted[h.ingress_index].1.push(h.addr);
    }
    // `Domain::routers` order: last-hop, core, ingress.
    let last_hop = (domain.victim_router, (Vec::new(), vec![domain.victim_addr]));
    let core = domain.core_routers.iter().map(|&r| (r, Default::default()));
    let ingress = domain.ingress_routers.iter().copied().zip(fronted);
    let mut taps = Vec::new();
    for (router, (mut ingress_links, egress_addrs)) in
        std::iter::once(last_hop).chain(core).chain(ingress)
    {
        ingress_links.extend(
            border_links
                .iter()
                .filter(|&&(node, _)| node == router)
                .map(|&(_, link)| link),
        );
        let tap = LogLogTap::new(TAP_PRECISION, ingress_links, egress_addrs);
        let idx = sim.add_filter(router, Box::new(tap));
        taps.push((router, idx));
    }
    taps
}

/// Computes domain `d`'s effective escalation targets: each direct
/// upstream neighbor if it participates, otherwise the nearest
/// participating domains *beyond* it (requests route through the
/// non-participant's links — the coverage gap of partial deployment).
/// The local injection border stays the one facing the skipped
/// neighbor; `level_cost` records how many pushback levels the target
/// sits away, each costing one hop of the escalation budget.
fn effective_upstreams(
    internet: &Internet,
    policies: &[DefensePolicy],
    d: usize,
) -> Vec<PushbackUpstream> {
    let my_level = internet.domains[d].level;
    let mut targets = Vec::new();
    // (candidate domain, local border to inject at), depth-first in
    // construction order so the list is deterministic.
    let mut frontier: Vec<(usize, NodeId)> = internet.domains[d]
        .upstream
        .iter()
        .map(|e| (e.domain, e.border))
        .collect();
    frontier.reverse(); // pop() walks construction order
    while let Some((candidate, border)) = frontier.pop() {
        if policies[candidate].participating() {
            targets.push(PushbackUpstream {
                domain: candidate,
                ctrl_addr: internet.domains[candidate].ctrl_addr,
                border,
                level_cost: internet.domains[candidate].level.saturating_sub(my_level),
            });
        } else {
            for e in internet.domains[candidate].upstream.iter().rev() {
                frontier.push((e.domain, border));
            }
        }
    }
    targets
}

/// Installs one (inactive) defense dropper per router, per the domain's
/// resolved policy. `domain_salt` decorrelates filter RNGs across
/// domains. Non-participating policies install nothing.
fn install_droppers(
    sim: &mut Simulator,
    spec: &ScenarioSpec,
    routers: &[NodeId],
    validator: &AddressValidator,
    domain_salt: u64,
    policy: DefensePolicy,
) -> Vec<(NodeId, usize)> {
    let mut droppers = Vec::new();
    for (i, &router) in routers.iter().enumerate() {
        let filter_seed = spec
            .seed
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(domain_salt.wrapping_mul(0x10_0001))
            .wrapping_add(i as u64);
        let idx = match policy {
            DefensePolicy::FullMafic => {
                let config = MaficConfig {
                    drop_probability: spec.drop_probability,
                    timer_rtt_multiplier: spec.timer_rtt_multiplier,
                    nft_revalidate_after: spec.nft_revalidate_after,
                    seed: filter_seed,
                    ..MaficConfig::default()
                };
                sim.add_filter(
                    router,
                    Box::new(MaficFilter::new(config, validator.clone())),
                )
            }
            DefensePolicy::ProportionalDrop => sim.add_filter(
                router,
                Box::new(ProportionalFilter::new(spec.drop_probability, filter_seed)),
            ),
            DefensePolicy::AggregateRateLimit {
                limit_bytes_per_sec,
            } => sim.add_filter(router, Box::new(RateLimitFilter::new(limit_bytes_per_sec))),
            DefensePolicy::NonParticipating => continue,
        };
        droppers.push((router, idx));
    }
    droppers
}

/// Provisions flow `i` on its host in `source` (its stub domain): a
/// legitimate TCP sender for the first `legit_flow_count` indices, an
/// attack zombie (with the configured spoof and protocol mix) for the
/// rest. Flow `i` lives in stub `i % n_stubs`, on that stub's host
/// `i / n_stubs`.
fn provision_flow(
    sim: &mut Simulator,
    spec: &ScenarioSpec,
    rng: &mut SmallRng,
    i: usize,
    source: &Domain,
    victim_addr: Addr,
) -> FlowInfo {
    let n_stubs = spec.domains.max(1);
    let host = &source.hosts[i / n_stubs];
    let stub_index = i % n_stubs;
    let n_legit = spec.legit_flow_count();
    let n_attack = spec.attack_flow_count();
    let src_port = 1024 + i as u16;
    let is_attack = i >= n_legit;
    if !is_attack {
        let key = FlowKey::new(host.addr, victim_addr, src_port, 80);
        let start = SimTime::ZERO
            + SimDuration::from_nanos(rng.gen_range(0..=LEGIT_START_SPREAD.as_nanos()));
        // Moderate RTO bounds so nice flows regain their share
        // promptly after passing the probe test (Fig. 4b).
        let tcp_config = TcpConfig {
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(2),
            ..TcpConfig::default()
        };
        let sender = TcpSender::new(key, tcp_config, false);
        let agent = sim.add_agent(host.node, Box::new(sender), start);
        sim.bind_local_addr(host.node, host.addr, agent);
        sim.stats_mut().declare_flow(key, false, true);
        return FlowInfo {
            key,
            agent,
            is_attack: false,
            is_tcp: true,
            spoof: SpoofMode::None,
            ingress_index: host.ingress_index,
            stub_index,
        };
    }
    // Attack flow: pick spoofing and protocol by configured mix.
    let attack_rank = i - n_legit;
    let spoof_roll = (attack_rank as f64 + 0.5) / n_attack as f64;
    let spoof = if spoof_roll < spec.spoof_illegal {
        SpoofMode::Illegal
    } else if spoof_roll < spec.spoof_illegal + spec.spoof_legal {
        SpoofMode::LegalOtherSubnet
    } else {
        SpoofMode::None
    };
    let claimed_src = match spoof {
        SpoofMode::None => host.addr,
        SpoofMode::Illegal => source.address_space.random_illegal(rng),
        SpoofMode::LegalOtherSubnet => source
            .address_space
            .random_legal_spoof(host.ingress_index, rng)
            .unwrap_or(host.addr),
    };
    let tcp_like_roll = rng.gen::<f64>();
    let protocol = if tcp_like_roll < spec.attack_tcp_like {
        CbrProtocol::TcpLike
    } else {
        CbrProtocol::Udp
    };
    let key = FlowKey::new(claimed_src, victim_addr, src_port, 80);
    let config = CbrConfig {
        rate_pps: spec.attack_rate_pps(),
        packet_size: 500,
        jitter: 0.2,
        protocol,
    };
    let mut sender = UnresponsiveSender::new(key, config, true, spec.seed ^ (i as u64) << 3);
    sender.set_stop_after(spec.attack_end.unwrap_or(spec.end));
    if let Some((resume, stop)) = spec.second_wave {
        sender.set_second_wave(resume, stop);
    }
    let agent = sim.add_agent(host.node, Box::new(sender), spec.attack_start);
    sim.bind_local_addr(host.node, host.addr, agent);
    sim.stats_mut()
        .declare_flow(key, true, protocol == CbrProtocol::TcpLike);
    FlowInfo {
        key,
        agent,
        is_attack: true,
        is_tcp: protocol == CbrProtocol::TcpLike,
        spoof,
        ingress_index: host.ingress_index,
        stub_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_topology::TransitTopology;

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec {
            total_flows: 10,
            n_routers: 6,
            end: SimTime::from_secs_f64(2.0),
            ..ScenarioSpec::default()
        }
    }

    fn multi_spec() -> ScenarioSpec {
        ScenarioSpec {
            total_flows: 12,
            n_routers: 6,
            domains: 3,
            transit_topology: TransitTopology::Chain { depth: 1 },
            pushback_depth: 2,
            end: SimTime::from_secs_f64(2.0),
            ..ScenarioSpec::default()
        }
    }

    /// Set-up must stay linear in flows. Routing by attachment point
    /// stores routers × destinations table rows plus one uplink per host
    /// and one directory row per destination, so four times the flows
    /// is ≈ 4× the entries; a host route on every node for every
    /// destination (nodes × destinations) was ≈ 15×.
    #[test]
    fn route_entries_grow_linearly_in_flows() {
        let entries = |total_flows| {
            let spec = ScenarioSpec {
                total_flows,
                flow_rate_pps: crate::NominalRate::R100k.pps(),
                ..ScenarioSpec::default()
            };
            Scenario::build(spec).unwrap().sim.route_entries()
        };
        let (at_500, at_2000) = (entries(500), entries(2_000));
        assert!(
            at_2000 * 10 <= at_500 * 45,
            "route entries {at_500} at 500 flows, {at_2000} at 2000: more than 4.5x"
        );
    }

    #[test]
    fn build_provisions_everything() {
        let s = Scenario::build(small_spec()).unwrap();
        assert_eq!(s.flows.len(), 10);
        assert_eq!(s.droppers.len(), s.domain.ingress_routers.len());
        assert_eq!(s.taps.len(), s.domain.routers().len());
        let attackers = s.flows.iter().filter(|f| f.is_attack).count();
        assert_eq!(attackers, small_spec().attack_flow_count());
        assert!(s.internet.is_none());
        assert!(s.pushback.is_none());
    }

    #[test]
    fn legit_flows_use_genuine_addresses() {
        let s = Scenario::build(small_spec()).unwrap();
        for (flow, host) in s.flows.iter().zip(s.domain.hosts.iter()) {
            if !flow.is_attack {
                assert_eq!(flow.key.src, host.addr);
                assert_eq!(flow.spoof, SpoofMode::None);
            }
        }
    }

    #[test]
    fn spoof_mix_is_respected() {
        let spec = ScenarioSpec {
            total_flows: 40,
            tcp_share: 0.5, // 20 attack flows
            spoof_illegal: 0.25,
            spoof_legal: 0.25,
            ..small_spec()
        };
        let s = Scenario::build(spec).unwrap();
        let attack: Vec<_> = s.flows.iter().filter(|f| f.is_attack).collect();
        assert_eq!(attack.len(), 20);
        let illegal = attack
            .iter()
            .filter(|f| f.spoof == SpoofMode::Illegal)
            .count();
        let legal = attack
            .iter()
            .filter(|f| f.spoof == SpoofMode::LegalOtherSubnet)
            .count();
        assert_eq!(illegal, 5, "25% of 20 attack flows");
        assert_eq!(legal, 5);
        for f in &attack {
            match f.spoof {
                SpoofMode::Illegal => {
                    assert!(!s.domain.address_space.is_legal(f.key.src));
                }
                SpoofMode::LegalOtherSubnet => {
                    assert!(s.domain.address_space.is_legal(f.key.src));
                }
                SpoofMode::None => {}
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = Scenario::build(small_spec()).unwrap();
        let b = Scenario::build(small_spec()).unwrap();
        let keys_a: Vec<_> = a.flows.iter().map(|f| f.key).collect();
        let keys_b: Vec<_> = b.flows.iter().map(|f| f.key).collect();
        assert_eq!(keys_a, keys_b);
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let bad = ScenarioSpec {
            total_flows: 0,
            ..ScenarioSpec::default()
        };
        assert!(matches!(Scenario::build(bad), Err(WorkloadError::Spec(_))));
    }

    #[test]
    fn proportional_policy_installs_baseline_filters() {
        let spec = ScenarioSpec {
            policy: DefensePolicy::ProportionalDrop,
            ..small_spec()
        };
        let s = Scenario::build(spec).unwrap();
        let (node, idx) = s.droppers[0];
        assert!(s.sim.filter::<ProportionalFilter>(node, idx).is_some());
    }

    #[test]
    fn multi_domain_build_wires_the_control_plane() {
        let s = Scenario::build(multi_spec()).unwrap();
        let net = s.internet.as_ref().expect("internet built");
        let plan = s.pushback.as_ref().expect("pushback plan built");
        // victim + 1 transit + 2 source stubs.
        assert_eq!(net.domains.len(), 4);
        assert_eq!(plan.domains.len(), 4);
        assert_eq!(plan.domains[0].level, 0);
        assert!(plan.domains[0].upstream.len() == 1, "victim → transit");
        assert_eq!(plan.domains[1].upstream.len(), 2, "transit → 2 stubs");
        assert!(plan.domains[2].upstream.is_empty(), "stubs are the top");
        // Every domain has matching meter/dropper counts.
        for d in &plan.domains {
            assert_eq!(d.atrs.len(), d.pre_meters.len());
            assert_eq!(d.atrs.len(), d.post_meters.len());
            assert!(!d.atrs.is_empty());
        }
        // Upstream ATR filters exist and are inactive.
        let (node, idx) = plan.domains[1].atrs[0];
        let filter = s.sim.filter::<MaficFilter>(node, idx).expect("dropper");
        assert!(!filter.is_active());
    }

    #[test]
    fn multi_domain_flows_spread_over_stubs() {
        let s = Scenario::build(multi_spec()).unwrap();
        let per_stub = |idx: usize| s.flows.iter().filter(|f| f.stub_index == idx).count();
        assert_eq!(per_stub(0), 4);
        assert_eq!(per_stub(1), 4);
        assert_eq!(per_stub(2), 4);
        // Remote hosts use their own domain's (globally legal) addresses.
        let net = s.internet.as_ref().unwrap();
        for f in s.flows.iter().filter(|f| f.spoof == SpoofMode::None) {
            let legal_somewhere = net.address_spaces().any(|a| a.is_legal(f.key.src));
            assert!(legal_somewhere, "{} must be legal", f.key.src);
        }
    }

    #[test]
    fn heterogeneous_policies_install_matching_filter_types() {
        let spec = ScenarioSpec {
            transit_policy: Some(DefensePolicy::AggregateRateLimit {
                limit_bytes_per_sec: 250_000.0,
            }),
            ..multi_spec()
        };
        let s = Scenario::build(spec).unwrap();
        let plan = s.pushback.as_ref().unwrap();
        // Victim domain (0) runs full MAFIC.
        let (node, idx) = plan.domains[0].atrs[0];
        assert!(s.sim.filter::<MaficFilter>(node, idx).is_some());
        // Transit domain (1) runs the rate limiter.
        let (node, idx) = plan.domains[1].atrs[0];
        let rl = s
            .sim
            .filter::<RateLimitFilter>(node, idx)
            .expect("transit ATR carries a rate limiter");
        assert_eq!(rl.limit_bytes_per_sec(), 250_000.0);
        assert!(!rl.is_active());
        // Source stubs (2, 3) run full MAFIC.
        let (node, idx) = plan.domains[2].atrs[0];
        assert!(s.sim.filter::<MaficFilter>(node, idx).is_some());
    }

    #[test]
    fn non_participating_domain_installs_nothing_and_is_skipped() {
        // Chain: victim(0) <- transit(1) <- stubs(2, 3). Two of the three
        // upstream domains participate; take the first seed whose draw
        // opts the transit domain out: the victim's escalation target
        // must jump to the stubs, two levels away.
        let spec = (1..)
            .map(|seed| ScenarioSpec {
                participation_fraction: 2.0 / 3.0,
                seed,
                ..multi_spec()
            })
            .find(|spec| !spec.resolved_policies()[1].participating())
            .expect("some seed opts the transit domain out");
        let s = Scenario::build(spec).unwrap();
        let plan = s.pushback.as_ref().unwrap();
        assert!(plan.domains[1].atrs.is_empty(), "no filters deployed");
        assert!(plan.domains[1].pre_meters.is_empty());
        assert!(plan.domains[1].post_meters.is_empty());
        assert_eq!(plan.domains[1].policy, DefensePolicy::NonParticipating);
        // The victim skips over the transit domain to both stubs.
        let up = &plan.domains[0].upstream;
        let mut targets: Vec<usize> = up.iter().map(|u| u.domain).collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![2, 3]);
        for u in up {
            assert_eq!(u.level_cost, 2, "stubs sit two levels up");
            // Injection still happens at the victim's own border router.
            assert!(s.domain.routers().contains(&u.border));
        }
        // Participating neighbors keep cost 1.
        let baseline = Scenario::build(multi_spec()).unwrap();
        let plan = baseline.pushback.as_ref().unwrap();
        assert!(plan.domains[0]
            .upstream
            .iter()
            .all(|u| u.domain == 1 && u.level_cost == 1));
    }

    #[test]
    fn fully_non_participating_upstream_leaves_no_targets() {
        let spec = ScenarioSpec {
            participation_fraction: 0.0,
            ..multi_spec()
        };
        let s = Scenario::build(spec).unwrap();
        let plan = s.pushback.as_ref().unwrap();
        assert!(
            plan.domains[0].upstream.is_empty(),
            "nobody to escalate to at fraction 0"
        );
        for d in &plan.domains[1..] {
            assert!(d.atrs.is_empty());
        }
    }

    #[test]
    fn cross_traffic_provisions_one_flow_per_transit_domain() {
        let spec = ScenarioSpec {
            cross_traffic_bps: 50_000.0,
            ..multi_spec()
        };
        let s = Scenario::build(spec).unwrap();
        let net = s.internet.as_ref().unwrap();
        // One transit level in multi_spec() → one cross flow.
        assert_eq!(s.cross_traffic.len(), 1);
        let key = s.cross_traffic[0];
        // Sender and sink both live in the transit tier; the victim is
        // never the destination.
        assert_ne!(key.dst, s.domain.victim_addr);
        let transit = &net.domains[1].domain;
        assert!(transit.hosts.iter().any(|h| h.addr == key.src));
        assert!(transit.hosts.iter().any(|h| h.addr == key.dst));
        // Without the knob, transit hosts stay idle and single-homed.
        let off = Scenario::build(multi_spec()).unwrap();
        assert!(off.cross_traffic.is_empty());
        assert_eq!(
            off.internet.as_ref().unwrap().domains[1].domain.hosts.len(),
            1
        );
    }

    #[test]
    fn multi_domain_build_is_deterministic() {
        let a = Scenario::build(multi_spec()).unwrap();
        let b = Scenario::build(multi_spec()).unwrap();
        let keys_a: Vec<_> = a.flows.iter().map(|f| f.key).collect();
        let keys_b: Vec<_> = b.flows.iter().map(|f| f.key).collect();
        assert_eq!(keys_a, keys_b);
        assert_eq!(a.sim.node_count(), b.sim.node_count());
        assert_eq!(a.sim.link_count(), b.sim.link_count());
    }
}
