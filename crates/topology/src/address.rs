//! The domain address plan.
//!
//! Each ingress router owns a /16 prefix; hosts behind it draw addresses
//! from that prefix, and the victim network owns its own /16. The plan is
//! what gives "illegal / unreachable source address" a precise meaning:
//! an address outside every allocated prefix. MAFIC sends such packets
//! straight to the Permanently Drop Table.

use mafic_netsim::Addr;
use rand::Rng;

/// Prefix length used for every allocated network.
pub const PREFIX_LEN: u8 = 16;

/// The allocation of address prefixes within the protected domain.
///
/// # Example
///
/// ```
/// use mafic_topology::AddressSpace;
///
/// let space = AddressSpace::new(4);
/// let host = space.host_addr(0, 1);
/// assert!(space.is_legal(host));
/// assert!(space.is_legal(space.victim_addr()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressSpace {
    base_octet: u8,
    ingress_prefixes: Vec<Addr>,
    victim_prefix: Addr,
}

impl AddressSpace {
    /// Creates a plan with one /16 per ingress router under the default
    /// `10.0.0.0/8`-style base.
    ///
    /// # Panics
    ///
    /// Panics if `n_ingress` exceeds 180 (the 10.1.0.0 … 10.180.0.0 pool).
    #[must_use]
    pub fn new(n_ingress: usize) -> Self {
        AddressSpace::with_base(10, n_ingress)
    }

    /// Creates a plan rooted at `base_octet.0.0.0`: ingress `i` owns
    /// `base.(i+1).0.0/16` and the victim network owns `base.200.0.0/16`.
    ///
    /// Multi-domain topologies give every domain its own base octet so
    /// the per-domain plans never overlap (and `192.x` stays reserved
    /// for guaranteed-illegal spoofed sources).
    ///
    /// # Panics
    ///
    /// Panics if `n_ingress` exceeds 180, or if `base_octet` is 0 or 192
    /// (reserved for the unspecified address and illegal spoofs).
    #[must_use]
    pub(crate) fn with_base(base_octet: u8, n_ingress: usize) -> Self {
        assert!(
            n_ingress <= 180,
            "address pool supports at most 180 ingresses"
        );
        assert!(
            base_octet != 0 && base_octet != 192,
            "base octet {base_octet} is reserved"
        );
        let ingress_prefixes = (0..n_ingress)
            .map(|i| Addr::from_octets(base_octet, (i + 1) as u8, 0, 0))
            .collect();
        AddressSpace {
            base_octet,
            ingress_prefixes,
            victim_prefix: Addr::from_octets(base_octet, 200, 0, 0),
        }
    }

    /// The base octet this plan is rooted at.
    #[must_use]
    pub fn base_octet(&self) -> u8 {
        self.base_octet
    }

    /// Number of ingress prefixes.
    #[must_use]
    pub fn ingress_count(&self) -> usize {
        self.ingress_prefixes.len()
    }

    /// The prefix owned by ingress `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn ingress_prefix(&self, i: usize) -> Addr {
        self.ingress_prefixes[i]
    }

    /// Address of host `h` behind ingress `i` (h starts at 1).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `h` does not fit the /16.
    #[must_use]
    pub fn host_addr(&self, i: usize, h: u32) -> Addr {
        assert!(h > 0 && h < (1 << 16), "host index {h} out of /16 range");
        Addr::new(self.ingress_prefixes[i].as_u32() | h)
    }

    /// The victim network prefix.
    #[must_use]
    pub fn victim_prefix(&self) -> Addr {
        self.victim_prefix
    }

    /// The victim host address.
    #[must_use]
    pub fn victim_addr(&self) -> Addr {
        Addr::new(self.victim_prefix.as_u32() | 1)
    }

    /// True if `addr` belongs to an allocated prefix ("legitimate" in the
    /// paper's sense — a valid address of some subnet, not necessarily the
    /// true sender).
    #[must_use]
    pub fn is_legal(&self, addr: Addr) -> bool {
        addr.in_prefix(self.victim_prefix, PREFIX_LEN)
            || self
                .ingress_prefixes
                .iter()
                .any(|&p| addr.in_prefix(p, PREFIX_LEN))
    }

    /// Draws an address guaranteed to be outside every allocated prefix
    /// (for illegal-source spoofing).
    pub fn random_illegal(&self, rng: &mut impl Rng) -> Addr {
        // 192.168.0.0/16 is never allocated by this plan.
        let addr = Addr::from_octets(192, 168, rng.gen(), rng.gen());
        debug_assert!(!self.is_legal(addr));
        addr
    }

    /// Draws a *legal* address from some ingress prefix other than
    /// `avoid` (for "legitimately spoofed" sources). Returns `None` when
    /// only one prefix exists.
    pub fn random_legal_spoof(&self, avoid: usize, rng: &mut impl Rng) -> Option<Addr> {
        if self.ingress_prefixes.len() < 2 {
            return None;
        }
        let mut i = rng.gen_range(0..self.ingress_prefixes.len());
        if i == avoid {
            i = (i + 1) % self.ingress_prefixes.len();
        }
        // High host numbers avoid colliding with genuinely attached hosts.
        let h = rng.gen_range(0x8000u32..0xFFFF);
        Some(Addr::new(self.ingress_prefixes[i].as_u32() | h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn host_addresses_fall_in_their_prefix() {
        let space = AddressSpace::new(3);
        for i in 0..3 {
            let a = space.host_addr(i, 7);
            assert!(a.in_prefix(space.ingress_prefix(i), PREFIX_LEN));
            assert!(space.is_legal(a));
        }
    }

    #[test]
    fn victim_addr_is_legal_and_distinct() {
        let space = AddressSpace::new(3);
        assert!(space.is_legal(space.victim_addr()));
        for i in 0..3 {
            assert!(!space
                .victim_addr()
                .in_prefix(space.ingress_prefix(i), PREFIX_LEN));
        }
    }

    #[test]
    fn illegal_addresses_never_validate() {
        let space = AddressSpace::new(5);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(!space.is_legal(space.random_illegal(&mut rng)));
        }
    }

    #[test]
    fn legal_spoofs_avoid_the_caller_prefix() {
        let space = AddressSpace::new(4);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..100 {
            let a = space.random_legal_spoof(2, &mut rng).unwrap();
            assert!(space.is_legal(a));
            assert!(!a.in_prefix(space.ingress_prefix(2), PREFIX_LEN));
        }
    }

    #[test]
    fn single_prefix_cannot_spoof_legally() {
        let space = AddressSpace::new(1);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(space.random_legal_spoof(0, &mut rng).is_none());
    }

    #[test]
    #[should_panic(expected = "at most 180")]
    fn too_many_ingresses_rejected() {
        let _ = AddressSpace::new(200);
    }

    #[test]
    fn distinct_bases_never_overlap() {
        let a = AddressSpace::with_base(10, 4);
        let b = AddressSpace::with_base(11, 4);
        assert_eq!(a.base_octet(), 10);
        for i in 0..4 {
            assert!(!b.is_legal(a.host_addr(i, 1)));
            assert!(!a.is_legal(b.host_addr(i, 1)));
        }
        assert!(!b.is_legal(a.victim_addr()));
        assert_ne!(a.victim_addr(), b.victim_addr());
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn illegal_spoof_base_rejected() {
        let _ = AddressSpace::with_base(192, 2);
    }

    #[test]
    #[should_panic(expected = "out of /16 range")]
    fn host_zero_rejected() {
        let _ = AddressSpace::new(1).host_addr(0, 0);
    }
}
