//! Multi-domain internet builder.
//!
//! Wires several stub domains and a configurable transit tier into one
//! simulator — the substrate for *inter-domain cascaded pushback*. The
//! victim's stub domain sits at the bottom; provider (transit) domains
//! stack upstream of it as a chain; the remaining stub domains (where
//! remote zombies and remote legitimate clients live) hang off the
//! deepest transit domain. Every domain reuses the single-domain
//! [`Domain`] builder with its own non-overlapping address base, and the
//! inter-domain links have their own bandwidth/delay/queue class.
//!
//! Terminology (all relative to the victim):
//!
//! * **downstream** — one hop toward the victim domain,
//! * **upstream** — one hop toward the traffic sources,
//! * **gateway** — the router of a domain facing its downstream neighbor,
//! * **border** — the router of a domain where an upstream neighbor's
//!   link terminates; these are the domain's Attack Transit Routers when
//!   a pushback request escalates to it.
//!
//! Each domain also gets a **control address** (`base.250.0.1`, bound by
//! the workload layer at the gateway router) so inter-domain pushback
//! messages travel as routed packets over the same links as the flood —
//! never as an instantaneous side channel.

use crate::domain::{install_host_routes, Domain, DomainConfig};
use mafic_netsim::{Addr, LinkId, LinkSpec, NodeId, Simulator};

/// Shape of the transit (provider) tier upstream of the victim domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitTopology {
    /// `depth` provider domains in a single path: the victim's provider,
    /// its provider, and so on. `depth = 0` attaches the source stubs
    /// directly to the victim domain.
    Chain {
        /// Number of provider domains on the path.
        depth: usize,
    },
}

impl TransitTopology {
    /// Total number of provider domains this topology creates.
    #[must_use]
    pub fn domain_count(&self) -> usize {
        let TransitTopology::Chain { depth } = *self;
        depth
    }

    /// Validates the topology parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        // The whole internet is capped at MAX_DOMAINS: reject an
        // out-of-range tier here, before anyone adds the stub count to
        // it, with an error instead of an overflow.
        let count = self.domain_count();
        if count > MAX_DOMAINS {
            return Err(format!(
                "transit tier of {count} provider domains exceeds the {MAX_DOMAINS}-domain cap"
            ));
        }
        Ok(())
    }
}

/// What part a domain plays in the internet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainRole {
    /// The stub domain hosting the victim.
    Victim,
    /// A provider domain on the pushback path.
    Transit,
    /// A source stub domain (remote clients and zombies).
    Stub,
}

/// One inter-domain link arriving from an upstream neighbor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpstreamEdge {
    /// Index of the upstream domain in [`Internet::domains`].
    pub domain: usize,
    /// The local border router terminating the link — an ATR candidate.
    pub border: NodeId,
    /// The simplex link carrying upstream→local (victim-bound) traffic.
    pub in_link: LinkId,
}

/// One domain of the built internet, with its pushback-path wiring.
#[derive(Debug, Clone)]
pub struct InternetDomain {
    /// The domain itself (nodes, hosts, address plan).
    pub domain: Domain,
    /// The domain's role.
    pub role: DomainRole,
    /// Hops from the victim domain along the pushback path (victim = 0).
    pub level: u32,
    /// Index of the downstream neighbor (`None` for the victim domain).
    pub downstream: Option<usize>,
    /// Upstream neighbors, in construction order.
    pub upstream: Vec<UpstreamEdge>,
    /// The router facing the downstream neighbor (the domain's last-hop
    /// router; unused as a gateway on the victim domain itself).
    pub gateway: NodeId,
    /// The simplex link gateway → downstream border, if any.
    pub egress_link: Option<LinkId>,
    /// The domain coordinator's control address (routable to the
    /// gateway router; the workload layer binds the receiving agent).
    pub ctrl_addr: Addr,
}

/// Parameters of the multi-domain internet.
#[derive(Debug, Clone, PartialEq)]
pub struct InternetConfig {
    /// Stub domain configurations; index 0 is the victim's domain. Base
    /// octets and seeds are overridden per domain by the builder.
    pub stubs: Vec<DomainConfig>,
    /// Shape of the transit tier.
    pub transit: TransitTopology,
    /// Template for every transit domain.
    pub transit_domain: DomainConfig,
    /// Link class of every inter-domain link.
    pub inter_link: LinkSpec,
}

/// The built internet: domains in pushback-path order.
///
/// `domains[0]` is the victim stub; transit domains follow in level
/// order; source stubs come last.
#[derive(Debug, Clone)]
pub struct Internet {
    /// All domains, victim first.
    pub domains: Vec<InternetDomain>,
}

/// Most domains one internet holds: each takes an address base octet.
pub const MAX_DOMAINS: usize = 100;

/// Base octet of domain `index` (victim = 10, then 11, 12, …).
fn base_octet(index: usize) -> u8 {
    10 + index as u8
}

/// Per-domain control address under the domain's base octet.
fn ctrl_addr(index: usize) -> Addr {
    Addr::from_octets(base_octet(index), 250, 0, 1)
}

/// What the global route pass covers: the hosts of every domain, the
/// victim endpoint, and every control address (bound at the gateway
/// routers by the workload layer).
pub(crate) fn route_destinations(domains: &[InternetDomain]) -> Vec<(Addr, NodeId)> {
    let mut destinations: Vec<(Addr, NodeId)> = Vec::new();
    for (i, d) in domains.iter().enumerate() {
        for h in &d.domain.hosts {
            destinations.push((h.addr, h.node));
        }
        if i == 0 {
            destinations.push((d.domain.victim_addr, d.domain.victim_host));
        }
        destinations.push((d.ctrl_addr, d.gateway));
    }
    destinations
}

impl Internet {
    /// Builds the internet into `sim`: every domain via the single-domain
    /// builder, the inter-domain links, and one global route pass over
    /// all hosts, the victim, and the control addresses.
    ///
    /// # Errors
    ///
    /// Returns a message if the configuration or any domain is invalid.
    pub fn build(sim: &mut Simulator, config: &InternetConfig) -> Result<Internet, String> {
        if config.stubs.is_empty() {
            return Err("internet needs at least the victim stub domain".into());
        }
        config.transit.validate()?;
        let n_transit = config.transit.domain_count();
        let n_total = config.stubs.len() + n_transit;
        if n_total > MAX_DOMAINS {
            return Err(format!(
                "at most {MAX_DOMAINS} domains supported (address bases), got {n_total}"
            ));
        }

        // --- Build every domain, unrouted -------------------------------
        let mut domains: Vec<InternetDomain> = Vec::with_capacity(n_total);
        let build_one = |sim: &mut Simulator,
                         template: &DomainConfig,
                         index: usize,
                         role: DomainRole,
                         level: u32|
         -> Result<InternetDomain, String> {
            let cfg = DomainConfig {
                base_octet: base_octet(index),
                seed: template
                    .seed
                    .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ..*template
            };
            let domain = Domain::build_unrouted(sim, &cfg)?;
            let gateway = domain.victim_router;
            Ok(InternetDomain {
                domain,
                role,
                level,
                downstream: None,
                upstream: Vec::new(),
                gateway,
                egress_link: None,
                ctrl_addr: ctrl_addr(index),
            })
        };

        domains.push(build_one(sim, &config.stubs[0], 0, DomainRole::Victim, 0)?);
        // Transit domain `l` sits at level `l`, so its index is its level.
        for l in 1..=n_transit {
            domains.push(build_one(
                sim,
                &config.transit_domain,
                l,
                DomainRole::Transit,
                l as u32,
            )?);
        }
        let stub_level = n_transit as u32 + 1;
        for s in 1..config.stubs.len() {
            let index = domains.len();
            domains.push(build_one(
                sim,
                &config.stubs[s],
                index,
                DomainRole::Stub,
                stub_level,
            )?);
        }

        // --- Inter-domain links ------------------------------------------
        // Round-robin border selection per parent keeps borders spread
        // over a parent's ingress routers deterministically.
        let mut border_rr = vec![0usize; n_total];
        let mut attach = |sim: &mut Simulator,
                          domains: &mut Vec<InternetDomain>,
                          child: usize,
                          parent: usize| {
            let child_gw = domains[child].gateway;
            let borders = &domains[parent].domain.ingress_routers;
            let border = borders[border_rr[parent] % borders.len()];
            border_rr[parent] += 1;
            let (up_link, _down_link) = sim.add_duplex_link(child_gw, border, config.inter_link);
            domains[child].downstream = Some(parent);
            domains[child].egress_link = Some(up_link);
            domains[parent].upstream.push(UpstreamEdge {
                domain: child,
                border,
                in_link: up_link,
            });
        };
        // Each transit domain attaches to the one below it; the source
        // stubs all attach to the deepest (the victim domain when there
        // is no transit tier).
        for child in 1..=n_transit {
            attach(sim, &mut domains, child, child - 1);
        }
        for child in 1 + n_transit..n_total {
            attach(sim, &mut domains, child, n_transit);
        }

        install_host_routes(sim, &route_destinations(&domains));

        Ok(Internet { domains })
    }

    /// Deepest pushback level in this internet (source stubs included).
    #[cfg(test)]
    #[must_use]
    pub fn max_level(&self) -> u32 {
        self.domains.iter().map(|d| d.level).max().unwrap_or(0)
    }

    /// Iterates over every domain's address space (for building a
    /// global source-address legality oracle).
    pub fn address_spaces(&self) -> impl Iterator<Item = &crate::AddressSpace> {
        self.domains.iter().map(|d| &d.domain.address_space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::{CountingSink, FlowKey, PacketKind, SimDuration, SimTime};

    fn stub_cfg(hosts: usize) -> DomainConfig {
        DomainConfig {
            n_routers: 6,
            n_hosts: hosts,
            seed: 5,
            ..DomainConfig::default()
        }
    }

    fn transit_cfg() -> DomainConfig {
        DomainConfig {
            n_routers: 5,
            n_hosts: 1,
            ..DomainConfig::default()
        }
    }

    fn chain_config(stubs: usize, depth: usize) -> InternetConfig {
        InternetConfig {
            stubs: (0..stubs).map(|_| stub_cfg(4)).collect(),
            transit: TransitTopology::Chain { depth },
            transit_domain: transit_cfg(),
            inter_link: LinkSpec::new(20e6, SimDuration::from_millis(10), 256),
        }
    }

    #[test]
    fn chain_builds_expected_domain_count_and_levels() {
        let mut sim = Simulator::new(1);
        let net = Internet::build(&mut sim, &chain_config(3, 2)).unwrap();
        assert_eq!(net.domains.len(), 5); // victim + 2 transit + 2 stubs
        assert_eq!(net.domains[0].role, DomainRole::Victim);
        assert_eq!(net.domains[0].level, 0);
        assert_eq!(net.domains[1].role, DomainRole::Transit);
        assert_eq!(net.domains[1].level, 1);
        assert_eq!(net.domains[2].level, 2);
        assert_eq!(net.domains[3].role, DomainRole::Stub);
        assert_eq!(net.domains[3].level, 3);
        assert_eq!(net.max_level(), 3);
        // Chain wiring: 1 → 0, 2 → 1, stubs → 2.
        assert_eq!(net.domains[1].downstream, Some(0));
        assert_eq!(net.domains[2].downstream, Some(1));
        assert_eq!(net.domains[3].downstream, Some(2));
        assert_eq!(net.domains[4].downstream, Some(2));
        assert_eq!(net.domains[0].upstream.len(), 1);
        assert_eq!(net.domains[2].upstream.len(), 2);
    }

    #[test]
    fn zero_depth_chain_attaches_stubs_to_the_victim_domain() {
        let mut sim = Simulator::new(1);
        let net = Internet::build(&mut sim, &chain_config(3, 0)).unwrap();
        assert_eq!(net.domains.len(), 3);
        assert_eq!(net.domains[1].downstream, Some(0));
        assert_eq!(net.domains[2].downstream, Some(0));
        assert_eq!(net.domains[0].upstream.len(), 2);
        assert_eq!(net.max_level(), 1);
    }

    #[test]
    fn address_plans_never_overlap() {
        let mut sim = Simulator::new(1);
        let net = Internet::build(&mut sim, &chain_config(3, 1)).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for d in &net.domains {
            for h in &d.domain.hosts {
                assert!(seen.insert(h.addr), "duplicate host address {}", h.addr);
            }
            assert!(seen.insert(d.ctrl_addr), "duplicate ctrl addr");
        }
        // A host of one domain is illegal under every other domain's plan.
        let remote_host = net.domains[2].domain.hosts[0].addr;
        assert!(!net.domains[0].domain.address_space.is_legal(remote_host));
    }

    #[test]
    fn remote_hosts_reach_the_victim_across_domains() {
        let mut sim = Simulator::new(1);
        let net = Internet::build(&mut sim, &chain_config(3, 2)).unwrap();
        let victim = &net.domains[0].domain;
        let sink = sim.add_agent(
            victim.victim_host,
            Box::new(CountingSink::new()),
            SimTime::ZERO,
        );
        sim.bind_local_addr(victim.victim_host, victim.victim_addr, sink);
        let mut expected = 0;
        for d in &net.domains {
            for (i, host) in d.domain.hosts.iter().enumerate() {
                let key = FlowKey::new(host.addr, victim.victim_addr, 2000 + i as u16, 80);
                sim.inject_packet(host.node, key, PacketKind::Udp, 500, false, sim.now());
                expected += 1;
            }
        }
        sim.run_until(SimTime::from_secs_f64(3.0));
        let sink = sim.agent::<CountingSink>(sink).unwrap();
        assert_eq!(sink.delivered() as usize, expected);
    }

    #[test]
    fn control_addresses_are_routable_between_neighbors() {
        let mut sim = Simulator::new(1);
        let net = Internet::build(&mut sim, &chain_config(2, 1)).unwrap();
        // Victim's gateway → transit ctrl addr (the escalation direction).
        let transit = &net.domains[1];
        let sink = sim.add_agent(
            transit.gateway,
            Box::new(CountingSink::new()),
            SimTime::ZERO,
        );
        sim.bind_local_addr(transit.gateway, transit.ctrl_addr, sink);
        let from = net.domains[0].upstream[0].border;
        let key = FlowKey::new(net.domains[0].ctrl_addr, transit.ctrl_addr, 9, 9);
        sim.inject_packet(from, key, PacketKind::Udp, 64, false, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.agent::<CountingSink>(sink).unwrap().delivered(), 1);
    }

    #[test]
    fn build_is_deterministic() {
        let build = || {
            let mut sim = Simulator::new(1);
            let net = Internet::build(&mut sim, &chain_config(3, 2)).unwrap();
            (sim.node_count(), sim.link_count(), net.domains.len())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut sim = Simulator::new(1);
        let empty = InternetConfig {
            stubs: Vec::new(),
            ..chain_config(2, 0)
        };
        assert!(Internet::build(&mut sim, &empty).is_err());
        // A tier past the cap is rejected before the stubs are added to
        // it, even at a depth where that sum would overflow.
        for depth in [MAX_DOMAINS + 1, usize::MAX] {
            let oversized = chain_config(2, depth);
            let err = Internet::build(&mut sim, &oversized).expect_err("oversized tier");
            assert!(err.contains("100-domain cap"), "{err}");
        }
        assert!(TransitTopology::Chain { depth: MAX_DOMAINS }
            .validate()
            .is_ok());
    }

    #[test]
    fn topology_counts() {
        assert_eq!(TransitTopology::Chain { depth: 3 }.domain_count(), 3);
    }
}
