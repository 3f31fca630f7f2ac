//! Identifier newtypes used across the simulator.
//!
//! Arena indices are wrapped in newtypes ([`NodeId`], [`LinkId`],
//! [`AgentId`]) so a link index can never be used where a node index is
//! expected. [`Addr`] is an IPv4-like 32-bit address assigned by the
//! topology layer; the simulator itself treats it as opaque.

use std::fmt;

/// Index of a node (router or host) in the simulator arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

/// Index of a simplex link in the simulator arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) u32);

/// Index of a traffic agent in the simulator arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentId(pub(crate) u32);

/// An IPv4-like 32-bit network address.
///
/// # Example
///
/// ```
/// use mafic_netsim::Addr;
///
/// let a = Addr::from_octets(10, 0, 1, 7);
/// assert_eq!(a.to_string(), "10.0.1.7");
/// assert_eq!(Addr::new(a.as_u32()), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u32);

impl NodeId {
    /// Raw arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a node id from a raw index.
    ///
    /// Only topology builders should need this; passing an id that was not
    /// handed out by the simulator panics at use time.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index fits u32"))
    }
}

impl LinkId {
    /// Raw arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a link id from a raw index (topology builders only).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        LinkId(u32::try_from(index).expect("link index fits u32"))
    }
}

impl AgentId {
    /// Raw arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs an agent id from a raw index (test harnesses only).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        AgentId(u32::try_from(index).expect("agent index fits u32"))
    }
}

impl Addr {
    /// The unspecified address (`0.0.0.0`).
    #[cfg(test)]
    pub const UNSPECIFIED: Addr = Addr(0);

    /// Constructs an address from its raw 32-bit value.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        Addr(raw)
    }

    /// Constructs an address from dotted-quad octets.
    #[must_use]
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The raw 32-bit value.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// True if this address lies within `prefix/len`.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    #[must_use]
    pub fn in_prefix(self, prefix: Addr, len: u8) -> bool {
        assert!(len <= 32, "prefix length {len} out of range");
        if len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - u32::from(len));
        (self.0 & mask) == (prefix.0 & mask)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}",
            self.0 >> 24,
            (self.0 >> 16) & 0xFF,
            (self.0 >> 8) & 0xFF,
            self.0 & 0xFF
        )
    }
}

impl From<u32> for Addr {
    fn from(raw: u32) -> Self {
        Addr(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_octets_round_trip() {
        let a = Addr::from_octets(192, 168, 1, 42);
        assert_eq!(a.to_string(), "192.168.1.42");
        assert_eq!(a.as_u32(), 0xC0A8_012A);
    }

    #[test]
    fn prefix_membership() {
        let net = Addr::from_octets(10, 1, 0, 0);
        assert!(Addr::from_octets(10, 1, 0, 5).in_prefix(net, 16));
        assert!(Addr::from_octets(10, 1, 255, 5).in_prefix(net, 16));
        assert!(!Addr::from_octets(10, 2, 0, 5).in_prefix(net, 16));
        assert!(
            Addr::from_octets(99, 0, 0, 1).in_prefix(net, 0),
            "len 0 matches all"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prefix_length_validated() {
        let _ = Addr::UNSPECIFIED.in_prefix(Addr::UNSPECIFIED, 40);
    }

    #[test]
    fn id_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(LinkId(4).to_string(), "l4");
        assert_eq!(AgentId(5).to_string(), "a5");
    }

    #[test]
    fn node_id_from_index_round_trips() {
        assert_eq!(NodeId::from_index(7).index(), 7);
    }
}
