//! Domain topology builder.
//!
//! Builds the protected domain of the paper's Figure 1 inside a
//! [`Simulator`]: one *last-hop router* fronting the victim host, a small
//! core, and a ring of *ingress routers* with source hosts behind them.
//! Shortest-path routes are installed everywhere (BFS; see
//! [`install_host_routes`]), and every host gets an address from the
//! [`AddressSpace`] plan.
//!
//! Link classes, each fixed by the constants below (Table II's domain;
//! [`DomainConfig`] varies only the size, address base and seed):
//!
//! * access links (host ↔ ingress): moderate bandwidth, per-host random
//!   propagation delay — this is what spreads flow RTTs,
//! * core links (ingress ↔ core ↔ last-hop): fast,
//! * the victim link (last-hop ↔ victim): the bottleneck under attack.

use crate::address::AddressSpace;
use mafic_netsim::{Addr, LinkId, LinkSpec, NodeId, SimDuration, Simulator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Access-link bandwidth (bits/s).
const ACCESS_BANDWIDTH_BPS: f64 = 10e6;
/// Minimum access-link propagation delay.
const ACCESS_DELAY_MIN: SimDuration = SimDuration::from_millis(5);
/// Maximum access-link propagation delay.
const ACCESS_DELAY_MAX: SimDuration = SimDuration::from_millis(40);
/// Core-link bandwidth (bits/s).
const CORE_BANDWIDTH_BPS: f64 = 100e6;
/// Core-link propagation delay.
const CORE_DELAY: SimDuration = SimDuration::from_millis(2);
/// Victim-link bandwidth (bits/s) — the bottleneck. The workload layer
/// derives the pushback rate thresholds from it.
pub const VICTIM_BANDWIDTH_BPS: f64 = 10e6;
/// Victim-link propagation delay.
const VICTIM_DELAY: SimDuration = SimDuration::from_millis(1);
/// Queue capacity (packets) for access and core links.
const QUEUE_CAPACITY: usize = 128;
/// Queue capacity (packets) for the victim link.
const VICTIM_QUEUE_CAPACITY: usize = 128;

/// Parameters of the domain topology. Link bandwidths, delays and
/// queues are the module's constants ([`VICTIM_BANDWIDTH_BPS`] and its
/// private siblings): no caller varies them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainConfig {
    /// Total number of routers `N` (last-hop + core + ingress). Must be ≥ 3.
    pub n_routers: usize,
    /// Number of source hosts to attach (≥ 1), spread round-robin over the
    /// ingress routers.
    pub n_hosts: usize,
    /// Base octet of the domain's address plan (multi-domain topologies
    /// give every domain a distinct base so plans never overlap).
    pub base_octet: u8,
    /// Seed for the per-host delay draws.
    pub seed: u64,
}

impl Default for DomainConfig {
    /// The paper's Table II default domain: `N = 40` routers, with link
    /// parameters chosen so a default flow's RTT falls in 20–100 ms.
    fn default() -> Self {
        DomainConfig {
            n_routers: 40,
            n_hosts: 50,
            base_octet: 10,
            seed: 0,
        }
    }
}

impl DomainConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_routers < 3 {
            return Err(format!("n_routers must be >= 3, got {}", self.n_routers));
        }
        if self.n_hosts == 0 {
            return Err("n_hosts must be >= 1".into());
        }
        if self.base_octet == 0 || self.base_octet == 192 {
            return Err(format!("base_octet {} is reserved", self.base_octet));
        }
        Ok(())
    }

    /// Number of core routers for `n_routers` (at least one).
    #[must_use]
    pub fn core_count(&self) -> usize {
        (self.n_routers.saturating_sub(1) / 5).max(1)
    }

    /// Number of ingress routers.
    #[must_use]
    pub fn ingress_count(&self) -> usize {
        self.n_routers - 1 - self.core_count()
    }
}

/// A source host attached to the domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostInfo {
    /// The host's node in the simulator.
    pub node: NodeId,
    /// Its (genuine) address.
    pub addr: Addr,
    /// Index of the ingress router it attaches to (into
    /// [`Domain::ingress_routers`]).
    pub ingress_index: usize,
    /// The host → ingress simplex link (the "via" link a LogLog tap sees
    /// when the host's packets enter the domain).
    pub uplink: LinkId,
}

/// The built domain: node handles plus the address plan.
#[derive(Debug, Clone)]
pub struct Domain {
    /// The victim's last-hop router.
    pub victim_router: NodeId,
    /// The victim host node.
    pub victim_host: NodeId,
    /// The victim host address.
    pub victim_addr: Addr,
    /// Ingress (edge) routers, in address-plan order.
    pub ingress_routers: Vec<NodeId>,
    /// Core routers.
    pub core_routers: Vec<NodeId>,
    /// Source hosts.
    pub hosts: Vec<HostInfo>,
    /// The address plan (legality oracle for MAFIC's PDT check).
    pub address_space: AddressSpace,
}

impl Domain {
    /// All routers: last-hop, then core, then ingress (the sketch-snapshot
    /// order used by the pushback monitor).
    #[must_use]
    pub fn routers(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(1 + self.core_routers.len() + self.ingress_routers.len());
        v.push(self.victim_router);
        v.extend_from_slice(&self.core_routers);
        v.extend_from_slice(&self.ingress_routers);
        v
    }

    /// Builds the domain into `sim` and installs its intra-domain
    /// shortest-path routes.
    ///
    /// # Errors
    ///
    /// Returns the validation message if `config` is out of range.
    pub fn build(sim: &mut Simulator, config: &DomainConfig) -> Result<Domain, String> {
        let domain = Domain::build_unrouted(sim, config)?;
        install_host_routes(sim, &domain.destinations());
        Ok(domain)
    }

    /// The routable endpoints of this domain: every host plus the victim.
    #[must_use]
    pub fn destinations(&self) -> Vec<(Addr, NodeId)> {
        let mut destinations: Vec<(Addr, NodeId)> =
            self.hosts.iter().map(|h| (h.addr, h.node)).collect();
        destinations.push((self.victim_addr, self.victim_host));
        destinations
    }

    /// Builds the domain's nodes and links into `sim` **without**
    /// installing any routes. Multi-domain builders ([`crate::Internet`])
    /// use this, wire the inter-domain links, and then run one global
    /// [`install_host_routes`] pass over every destination so routes
    /// cross domain boundaries.
    ///
    /// # Errors
    ///
    /// Returns the validation message if `config` is out of range.
    pub fn build_unrouted(sim: &mut Simulator, config: &DomainConfig) -> Result<Domain, String> {
        config.validate()?;
        let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x746F_706F);
        let n_core = config.core_count();
        let n_ingress = config.ingress_count();
        let address_space = AddressSpace::with_base(config.base_octet, n_ingress);

        // --- Routers -----------------------------------------------------
        let victim_router = sim.add_node("last-hop");
        let core_routers: Vec<NodeId> = (0..n_core)
            .map(|i| sim.add_node(format!("core{i}")))
            .collect();
        let ingress_routers: Vec<NodeId> = (0..n_ingress)
            .map(|i| sim.add_node(format!("ingress{i}")))
            .collect();

        let core_spec = LinkSpec::new(CORE_BANDWIDTH_BPS, CORE_DELAY, QUEUE_CAPACITY);
        // Core chain rooted at the last-hop router.
        sim.add_duplex_link(victim_router, core_routers[0], core_spec);
        for w in core_routers.windows(2) {
            sim.add_duplex_link(w[0], w[1], core_spec);
        }
        // Ingress routers hang off the core round-robin.
        for (i, &ingress) in ingress_routers.iter().enumerate() {
            let core = core_routers[i % n_core];
            sim.add_duplex_link(ingress, core, core_spec);
        }

        // --- Victim host ---------------------------------------------------
        let victim_host = sim.add_node("victim");
        let victim_spec = LinkSpec::new(VICTIM_BANDWIDTH_BPS, VICTIM_DELAY, VICTIM_QUEUE_CAPACITY);
        sim.add_duplex_link(victim_router, victim_host, victim_spec);
        let victim_addr = address_space.victim_addr();

        // --- Source hosts ----------------------------------------------------
        let mut hosts = Vec::with_capacity(config.n_hosts);
        let mut per_ingress_count = vec![0u32; n_ingress];
        let delay_range = ACCESS_DELAY_MAX.as_nanos() - ACCESS_DELAY_MIN.as_nanos();
        for h in 0..config.n_hosts {
            let ingress_index = h % n_ingress;
            per_ingress_count[ingress_index] += 1;
            let addr = address_space.host_addr(ingress_index, per_ingress_count[ingress_index]);
            let node = sim.add_node(format!("host{h}"));
            let delay = ACCESS_DELAY_MIN + SimDuration::from_nanos(rng.gen_range(0..=delay_range));
            let access_spec = LinkSpec::new(ACCESS_BANDWIDTH_BPS, delay, QUEUE_CAPACITY);
            let (uplink, _downlink) =
                sim.add_duplex_link(node, ingress_routers[ingress_index], access_spec);
            hosts.push(HostInfo {
                node,
                addr,
                ingress_index,
                uplink,
            });
        }

        let domain = Domain {
            victim_router,
            victim_host,
            victim_addr,
            ingress_routers,
            core_routers,
            hosts,
            address_space,
        };
        Ok(domain)
    }
}

/// Installs shortest-path routes toward every `(address, node)`
/// destination over the **entire** simulator graph — links added after a
/// domain was built (inter-domain wiring) are part of the graph, so one
/// pass after all topology construction routes across domain boundaries.
/// Re-running overwrites existing routes consistently.
///
/// Routing is by attachment point. A destination with a single link is
/// reached through that link's far end — its *anchor* — and every
/// shortest path to it is a shortest path to the anchor plus the last
/// hop, so there is one BFS per distinct anchor (at most one per router)
/// rather than one per destination. Every node with a choice of next hop
/// gets its whole table in one address-sorted batch. A node with a
/// single link has no choice: it stores that link as its uplink and
/// answers from the simulator's destination directory, which holds
/// `destinations` once for all of them. All links come in duplex pairs,
/// so the graph is symmetric and a BFS from the anchor gives the hop
/// distances toward it.
pub fn install_host_routes(sim: &mut Simulator, destinations: &[(Addr, NodeId)]) {
    // Adjacency: for each node, the (neighbor, link) pairs.
    let n = sim.node_count();
    let mut adj: Vec<Vec<(usize, LinkId)>> = vec![Vec::new(); n];
    for l in 0..sim.link_count() {
        let link = LinkId::from_index(l);
        let (from, to) = sim.link_endpoints(link);
        adj[from.index()].push((to.index(), link));
    }

    struct Target {
        addr: Addr,
        node: usize,
        anchor: usize,
    }
    let mut targets: Vec<Target> = destinations
        .iter()
        .map(|&(addr, dst)| {
            let node = dst.index();
            let anchor = match adj[node][..] {
                [(neighbor, _)] => neighbor,
                _ => node,
            };
            Target { addr, node, anchor }
        })
        .collect();
    // Stable: tables come out ascending, and two destinations claiming
    // one address stay in call order (the later one wins, as it did).
    targets.sort_by_key(|t| t.addr);

    // `toward[a][u]`: the link `u` takes toward anchor `a`.
    let mut toward: Vec<Option<Vec<Option<LinkId>>>> = vec![None; n];
    // A single-link node may answer from the directory only if it can
    // reach everything in it; in a partitioned graph it keeps a table,
    // which says `None` for the far side.
    let mut reaches_all = vec![true; n];
    for t in &targets {
        if toward[t.anchor].is_none() {
            let hops = next_hops_toward(&adj, t.anchor);
            for (u, hop) in hops.iter().enumerate() {
                reaches_all[u] &= hop.is_some() || u == t.anchor;
            }
            toward[t.anchor] = Some(hops);
        }
    }

    sim.extend_directory(destinations);
    for u in 0..n {
        let node = NodeId::from_index(u);
        if let ([(_, uplink)], true) = (&adj[u][..], reaches_all[u]) {
            sim.set_uplink(node, *uplink);
            continue;
        }
        // The table lives as long as the simulator: size it once rather
        // than keep whatever slack growing by doubling would leave.
        let mut routes: Vec<(Addr, LinkId)> = Vec::with_capacity(targets.len());
        routes.extend(targets.iter().filter(|t| t.node != u).filter_map(|t| {
            let link = if t.anchor == u {
                // The destination hangs off this node: the last hop.
                let last = adj[u].iter().find(|&&(v, _)| v == t.node);
                last.map(|&(_, link)| link)
            } else {
                toward[t.anchor].as_ref().expect("one BFS per anchor")[u]
            };
            Some((t.addr, link?))
        }));
        sim.add_routes(node, routes);
    }
}

/// For every node, the link it forwards on toward `target`: the one to
/// the neighbor closest to it, the first such in link order on a tie.
/// `None` at `target` itself and at nodes that cannot reach it.
fn next_hops_toward(adj: &[Vec<(usize, LinkId)>], target: usize) -> Vec<Option<LinkId>> {
    let mut dist = vec![usize::MAX; adj.len()];
    let mut queue = std::collections::VecDeque::new();
    dist[target] = 0;
    queue.push_back(target);
    while let Some(u) = queue.pop_front() {
        for &(v, _) in &adj[u] {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    (0..adj.len())
        .map(|u| {
            if u == target || dist[u] == usize::MAX {
                return None;
            }
            adj[u]
                .iter()
                .filter(|&&(v, _)| dist[v] < dist[u])
                .min_by_key(|&&(v, _)| dist[v])
                .map(|&(_, link)| link)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::internet::{route_destinations, Internet, InternetConfig, TransitTopology};
    use mafic_netsim::{CountingSink, FlowKey, PacketKind, SimTime};
    use std::collections::BTreeMap;

    fn small_config() -> DomainConfig {
        DomainConfig {
            n_routers: 8,
            n_hosts: 6,
            seed: 11,
            ..DomainConfig::default()
        }
    }

    #[test]
    fn builds_expected_counts() {
        let mut sim = Simulator::new(1);
        let d = Domain::build(&mut sim, &small_config()).unwrap();
        let cfg = small_config();
        assert_eq!(d.core_routers.len(), cfg.core_count());
        assert_eq!(d.ingress_routers.len(), cfg.ingress_count());
        assert_eq!(
            1 + d.core_routers.len() + d.ingress_routers.len(),
            cfg.n_routers
        );
        assert_eq!(d.hosts.len(), 6);
        assert_eq!(d.routers().len(), cfg.n_routers);
    }

    #[test]
    fn every_host_can_reach_the_victim() {
        let mut sim = Simulator::new(1);
        let d = Domain::build(&mut sim, &small_config()).unwrap();
        let sink = sim.add_agent(d.victim_host, Box::new(CountingSink::new()), SimTime::ZERO);
        sim.bind_local_addr(d.victim_host, d.victim_addr, sink);
        for (i, host) in d.hosts.iter().enumerate() {
            let key = FlowKey::new(host.addr, d.victim_addr, 1000 + i as u16, 80);
            sim.inject_packet(host.node, key, PacketKind::Udp, 500, false, sim.now());
        }
        sim.run_until(SimTime::from_secs_f64(2.0));
        let sink = sim.agent::<CountingSink>(sink).unwrap();
        assert_eq!(sink.delivered() as usize, d.hosts.len());
    }

    #[test]
    fn victim_can_reach_every_host() {
        let mut sim = Simulator::new(1);
        let d = Domain::build(&mut sim, &small_config()).unwrap();
        let mut sinks = Vec::new();
        for host in &d.hosts {
            let sink = sim.add_agent(host.node, Box::new(CountingSink::new()), SimTime::ZERO);
            sim.bind_local_addr(host.node, host.addr, sink);
            sinks.push(sink);
        }
        for host in &d.hosts {
            let key = FlowKey::new(d.victim_addr, host.addr, 80, 2000);
            sim.inject_packet(d.victim_router, key, PacketKind::Udp, 100, false, sim.now());
        }
        sim.run_until(SimTime::from_secs_f64(2.0));
        for sink in sinks {
            assert_eq!(sim.agent::<CountingSink>(sink).unwrap().delivered(), 1);
        }
    }

    #[test]
    fn host_addresses_are_unique_and_legal() {
        let mut sim = Simulator::new(1);
        let d = Domain::build(&mut sim, &small_config()).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for h in &d.hosts {
            assert!(seen.insert(h.addr), "duplicate host address {}", h.addr);
            assert!(d.address_space.is_legal(h.addr));
        }
    }

    #[test]
    fn access_delays_vary_between_hosts() {
        let mut sim = Simulator::new(1);
        let cfg = DomainConfig {
            n_hosts: 20,
            ..small_config()
        };
        let _ = Domain::build(&mut sim, &cfg).unwrap();
        // Indirect check: the build is deterministic per seed; different
        // seeds give different topologies-but we can at least assert the
        // same seed replays identically.
        let mut sim2 = Simulator::new(1);
        let _ = Domain::build(&mut sim2, &cfg).unwrap();
        assert_eq!(sim.link_count(), sim2.link_count());
        assert_eq!(sim.node_count(), sim2.node_count());
    }

    #[test]
    fn validation_rejects_tiny_domains() {
        let mut sim = Simulator::new(1);
        let bad = DomainConfig {
            n_routers: 2,
            ..DomainConfig::default()
        };
        assert!(Domain::build(&mut sim, &bad).is_err());
    }

    #[test]
    fn default_matches_paper_table_ii() {
        let cfg = DomainConfig::default();
        assert_eq!(cfg.n_routers, 40);
        assert_eq!(cfg.n_hosts, 50);
    }

    /// The reference: one BFS per destination and a host route on every
    /// node that can reach it, as `install_host_routes` did before it
    /// routed by attachment point. Returns the routes instead of
    /// installing them.
    fn oracle_routes(
        sim: &Simulator,
        destinations: &[(Addr, NodeId)],
    ) -> BTreeMap<(NodeId, Addr), LinkId> {
        let n = sim.node_count();
        let mut adj: Vec<Vec<(usize, LinkId)>> = vec![Vec::new(); n];
        for l in 0..sim.link_count() {
            let link = LinkId::from_index(l);
            let (from, to) = sim.link_endpoints(link);
            adj[from.index()].push((to.index(), link));
        }
        let mut routes = BTreeMap::new();
        for &(addr, dst) in destinations {
            let mut dist = vec![usize::MAX; n];
            let mut queue = std::collections::VecDeque::new();
            dist[dst.index()] = 0;
            queue.push_back(dst.index());
            while let Some(u) = queue.pop_front() {
                for &(v, _) in &adj[u] {
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            for u in 0..n {
                if u == dst.index() || dist[u] == usize::MAX {
                    continue;
                }
                let best = adj[u]
                    .iter()
                    .filter(|&&(v, _)| dist[v] < dist[u])
                    .min_by_key(|&&(v, _)| dist[v]);
                if let Some(&(_, link)) = best {
                    routes.insert((NodeId::from_index(u), addr), link);
                }
            }
        }
        routes
    }

    /// Every node's answer for every destination address and every
    /// `stray` one must be the oracle's, `None`s included.
    fn assert_routes_match_oracle(
        sim: &Simulator,
        destinations: &[(Addr, NodeId)],
        stray: &[Addr],
    ) {
        let oracle = oracle_routes(sim, destinations);
        let addrs: Vec<Addr> = destinations
            .iter()
            .map(|&(addr, _)| addr)
            .chain(stray.iter().copied())
            .collect();
        for u in 0..sim.node_count() {
            let node = NodeId::from_index(u);
            for &addr in &addrs {
                assert_eq!(
                    sim.route(node, addr),
                    oracle.get(&(node, addr)).copied(),
                    "route at {node} toward {addr}"
                );
            }
        }
    }

    /// Addresses nothing is attached to: outside every plan, the
    /// illegal-spoof pool, and legal-but-unassigned ones a spoofing
    /// zombie draws (an ACK toward any of them must find no route).
    fn stray_addrs(space: &AddressSpace) -> Vec<Addr> {
        vec![
            Addr::new(1),
            Addr::from_octets(192, 168, 3, 4),
            Addr::from_octets(space.base_octet(), 250, 0, 1),
            Addr::new(space.victim_prefix().as_u32() | 77),
            space.host_addr(0, 0x9000),
            space.host_addr(space.ingress_count() - 1, 0xFFFE),
        ]
    }

    #[test]
    fn domain_routes_match_the_per_destination_oracle() {
        for n_hosts in [50, 500] {
            let mut sim = Simulator::new(1);
            let cfg = DomainConfig {
                n_hosts,
                ..DomainConfig::default()
            };
            let d = Domain::build(&mut sim, &cfg).unwrap();
            assert_routes_match_oracle(&sim, &d.destinations(), &stray_addrs(&d.address_space));
        }
    }

    #[test]
    fn meshed_graph_routes_match_the_per_destination_oracle() {
        // The builders only make trees, where shortest paths are unique.
        // Close the core chain into a ring and chain the ingress routers
        // so equal-cost next hops exist and the tie-break is on trial.
        let mut sim = Simulator::new(1);
        let cfg = DomainConfig {
            n_routers: 16,
            n_hosts: 24,
            ..DomainConfig::default()
        };
        let d = Domain::build_unrouted(&mut sim, &cfg).unwrap();
        let spec = LinkSpec::default();
        let last_core = *d.core_routers.last().unwrap();
        sim.add_duplex_link(last_core, d.victim_router, spec);
        for pair in d.ingress_routers.windows(2) {
            sim.add_duplex_link(pair[1], pair[0], spec);
        }
        install_host_routes(&mut sim, &d.destinations());
        assert_routes_match_oracle(&sim, &d.destinations(), &stray_addrs(&d.address_space));
    }

    #[test]
    fn partitioned_graph_routes_match_the_per_destination_oracle() {
        // Two domains nobody linked: hosts of one must have no route
        // toward the other, so they cannot answer from the directory.
        let mut sim = Simulator::new(1);
        let mut destinations = Vec::new();
        for base_octet in [10, 11] {
            let cfg = DomainConfig {
                base_octet,
                ..small_config()
            };
            destinations.extend(
                Domain::build_unrouted(&mut sim, &cfg)
                    .unwrap()
                    .destinations(),
            );
        }
        install_host_routes(&mut sim, &destinations);
        assert_routes_match_oracle(&sim, &destinations, &[Addr::new(1)]);
    }

    #[test]
    fn internet_routes_match_the_per_destination_oracle() {
        let stub = DomainConfig {
            n_routers: 6,
            n_hosts: 4,
            seed: 5,
            ..DomainConfig::default()
        };
        // One idle host per transit domain: a destination no agent binds.
        let transit_domain = DomainConfig {
            n_routers: 5,
            n_hosts: 1,
            ..DomainConfig::default()
        };
        for transit in [
            TransitTopology::Chain { depth: 2 },
            TransitTopology::Tree {
                depth: 2,
                fanout: 2,
            },
        ] {
            let mut sim = Simulator::new(1);
            let config = InternetConfig {
                stubs: vec![stub; 6],
                transit,
                transit_domain,
                inter_link: LinkSpec::new(20e6, SimDuration::from_millis(10), 256),
            };
            let net = Internet::build(&mut sim, &config).unwrap();
            let destinations = route_destinations(&net.domains);
            // Control addresses are destinations at gateway routers.
            assert!(destinations.contains(&(net.domains[1].ctrl_addr, net.domains[1].gateway)));
            let mut stray = stray_addrs(&net.domains[0].domain.address_space);
            stray.extend(stray_addrs(&net.domains[3].domain.address_space));
            stray.retain(|a| destinations.iter().all(|(d, _)| d != a));
            assert_routes_match_oracle(&sim, &destinations, &stray);
        }
    }
}
