//! Nodes: routers and hosts.
//!
//! A node owns its routing state — exact-match host routes on a router,
//! a single uplink gated by the simulator-wide destination directory on
//! a leaf — a set of locally attached addresses (delivered up to
//! agents), and an ordered chain of packet filters — the hook the MAFIC
//! dropper and the LogLog taps attach to, mirroring the NS-2 `Connector`
//! objects the paper inserts at link heads.
//!
//! The per-packet path does not search either table: a packet's flow
//! caches the directory slot of its destination, and a router answers
//! from a next-hop row per slot, rebuilt whenever its routes or the
//! directory change. Only addresses outside the directory (hand-wired
//! host routes, filter probes) still search the route table.

use crate::filter::PacketFilter;
use crate::ids::{Addr, AgentId, LinkId, NodeId};

/// A `hops` entry for a directory slot this node has no route for.
const NO_HOP: u32 = u32::MAX;

/// A router or host in the simulated domain.
///
/// The host routes and local bindings are address-sorted `Vec`s, so
/// every table walk is deterministic — the simulation crates ban
/// `std::collections::HashMap` (see `clippy.toml`).
pub(crate) struct Node {
    pub(crate) id: NodeId,
    pub(crate) name: String,
    /// Host routes, sorted by destination address.
    routes: Vec<(Addr, LinkId)>,
    /// A leaf's only way out. Every destination the directory attaches
    /// to *another* node leaves through it, so a leaf stores this one
    /// link instead of a row per destination.
    uplink: Option<LinkId>,
    /// What [`Node::lookup`] answers for each directory slot's address,
    /// as a link index ([`NO_HOP`]: none). Empty while the node has no
    /// host routes: the uplink rule then answers straight from the
    /// directory. A pure cache, rebuilt by [`Node::reindex`].
    hops: Vec<u32>,
    /// Locally attached addresses, sorted; hosts carry one or two entries.
    local: Vec<(Addr, AgentId)>,
    pub(crate) filters: Vec<Box<dyn PacketFilter>>,
}

impl Node {
    pub(crate) fn new(id: NodeId, name: String) -> Self {
        Node {
            id,
            name,
            routes: Vec::new(),
            uplink: None,
            hops: Vec::new(),
            local: Vec::new(),
            filters: Vec::new(),
        }
    }

    /// Installs or replaces a host route. The caller reindexes.
    pub(crate) fn add_route(&mut self, dst: Addr, via: LinkId) {
        match self.routes.binary_search_by_key(&dst, |&(a, _)| a) {
            Ok(i) => self.routes[i].1 = via,
            Err(i) => self.routes.insert(i, (dst, via)),
        }
    }

    /// Installs `routes` as repeated [`Node::add_route`] calls would. A
    /// strictly ascending batch into an empty table — what the topology
    /// builders hand every router — becomes the table as it stands, with
    /// no search or shift per entry. The caller reindexes.
    pub(crate) fn add_routes(&mut self, routes: Vec<(Addr, LinkId)>) {
        if self.routes.is_empty() && routes.windows(2).all(|w| w[0].0 < w[1].0) {
            self.routes = routes;
        } else {
            for (dst, via) in routes {
                self.add_route(dst, via);
            }
        }
    }

    /// Routes this node by attachment point: `via` carries every
    /// directory destination attached elsewhere. The caller reindexes.
    pub(crate) fn set_uplink(&mut self, via: LinkId) {
        self.uplink = Some(via);
    }

    /// Rebuilds the per-slot next hops against `directory` (sorted by
    /// address): one merge walk of the two sorted tables, answering as
    /// [`Node::lookup`] would for every slot.
    pub(crate) fn reindex(&mut self, directory: &[(Addr, NodeId)]) {
        self.hops.clear();
        if self.routes.is_empty() {
            return;
        }
        // The row lives as long as the topology: no doubling slack.
        self.hops.reserve_exact(directory.len());
        let mut rows = self.routes.iter().peekable();
        for &(addr, at) in directory {
            while rows.next_if(|&&(dst, _)| dst < addr).is_some() {}
            let hop = match rows.peek() {
                Some(&&(dst, via)) if dst == addr => Some(via),
                _ => self.uplink.filter(|_| at != self.id),
            };
            self.hops.push(hop.map_or(NO_HOP, |via| via.0));
        }
    }

    /// Stored route entries: table rows plus the uplink.
    pub(crate) fn route_entries(&self) -> usize {
        self.routes.len() + usize::from(self.uplink.is_some())
    }

    /// Next-hop link for `dst`, if any: a host route if one matches,
    /// else the uplink when `directory` (sorted by address) attaches
    /// `dst` to some other node. Unknown addresses and the node's own
    /// have no route — a spoofed source's ACK must drop here, and an
    /// unbound host must not bounce its own address off its router.
    pub(crate) fn lookup(&self, dst: Addr, directory: &[(Addr, NodeId)]) -> Option<LinkId> {
        if let Ok(i) = self.routes.binary_search_by_key(&dst, |&(a, _)| a) {
            return Some(self.routes[i].1);
        }
        let uplink = self.uplink?;
        let i = directory.binary_search_by_key(&dst, |&(a, _)| a).ok()?;
        (directory[i].1 != self.id).then_some(uplink)
    }

    /// [`Node::lookup`] for the address in directory slot `slot`, by
    /// index: no search.
    #[inline]
    pub(crate) fn hop_at(&self, slot: usize, directory: &[(Addr, NodeId)]) -> Option<LinkId> {
        match self.hops.get(slot) {
            Some(&hop) => (hop != NO_HOP).then_some(LinkId(hop)),
            None => self.uplink.filter(|_| directory[slot].1 != self.id),
        }
    }

    /// Binds a local address to an agent (delivery up the stack).
    pub(crate) fn bind_local(&mut self, addr: Addr, agent: AgentId) {
        match self.local.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(i) => self.local[i].1 = agent,
            Err(i) => self.local.insert(i, (addr, agent)),
        }
    }

    /// The agent bound to `addr` on this node, if any.
    pub(crate) fn local_agent(&self, addr: Addr) -> Option<AgentId> {
        // Hosts carry one or two bindings; a linear scan beats a binary
        // search's branch setup at these sizes.
        self.local
            .iter()
            .find(|&&(a, _)| a == addr)
            .map(|&(_, agent)| agent)
    }

    /// True if `addr` is attached to this node.
    pub(crate) fn is_local(&self, addr: Addr) -> bool {
        self.local.iter().any(|&(a, _)| a == addr)
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("routes", &self.routes.len())
            .field("uplink", &self.uplink)
            .field("local", &self.local.len())
            .field("filters", &self.filters.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_routes_directory_addresses_attached_elsewhere() {
        let mut n = Node::new(NodeId(0), "h0".into());
        let own = Addr::from_octets(10, 0, 0, 1);
        let other = Addr::from_octets(10, 0, 0, 2);
        let directory = [(own, NodeId(0)), (other, NodeId(4))];
        n.set_uplink(LinkId(9));
        assert_eq!(n.lookup(other, &directory), Some(LinkId(9)));
        assert_eq!(n.lookup(own, &directory), None);
        assert_eq!(n.lookup(Addr::from_octets(10, 0, 0, 3), &directory), None);
        n.reindex(&directory);
        assert_eq!(
            [0, 1].map(|slot| n.hop_at(slot, &directory)),
            [None, Some(LinkId(9))]
        );
        // A hand-wired host route still answers first.
        n.add_route(own, LinkId(3));
        assert_eq!(n.lookup(own, &directory), Some(LinkId(3)));
        n.reindex(&directory);
        assert_eq!(n.hop_at(0, &directory), Some(LinkId(3)));
        assert_eq!(n.route_entries(), 2);
    }

    #[test]
    fn no_route_without_a_table_or_uplink() {
        let n = Node::new(NodeId(0), "r0".into());
        assert_eq!(n.lookup(Addr::new(5), &[(Addr::new(5), NodeId(1))]), None);
    }

    #[test]
    fn bulk_routes_behave_like_repeated_add_route() {
        let mut n = Node::new(NodeId(0), "r0".into());
        n.add_routes(vec![(Addr::new(1), LinkId(1)), (Addr::new(2), LinkId(2))]);
        assert_eq!(n.lookup(Addr::new(2), &[]), Some(LinkId(2)));
        // Into a non-empty table, out of order: later entries win.
        n.add_routes(vec![(Addr::new(3), LinkId(3)), (Addr::new(1), LinkId(4))]);
        assert_eq!(n.lookup(Addr::new(1), &[]), Some(LinkId(4)));
        assert_eq!(n.lookup(Addr::new(2), &[]), Some(LinkId(2)));
        assert_eq!(n.lookup(Addr::new(3), &[]), Some(LinkId(3)));
        assert_eq!(n.route_entries(), 3);
    }

    #[test]
    fn local_binding() {
        let mut n = Node::new(NodeId(0), "h0".into());
        let a = Addr::from_octets(10, 0, 0, 1);
        assert!(!n.is_local(a));
        n.bind_local(a, AgentId(7));
        assert!(n.is_local(a));
        assert_eq!(n.local_agent(a), Some(AgentId(7)));
        assert_eq!(n.local_agent(Addr::new(1)), None);
    }

    #[test]
    fn debug_shows_counts() {
        let mut n = Node::new(NodeId(1), "r1".into());
        n.add_route(Addr::new(1), LinkId(0));
        let text = format!("{n:?}");
        assert!(text.contains("r1"));
        assert!(text.contains("routes: 1"));
    }
}
