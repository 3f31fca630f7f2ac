//! # mafic-topology
//!
//! Builders for the protected domain of the MAFIC paper (its Figure 1):
//! a victim host behind a *last-hop router*, a fast core, and a ring of
//! *ingress routers* with source hosts behind them — the routers that
//! become Attack Transit Routers when zombies flood through them.
//!
//! The crate also owns the [`AddressSpace`] plan that gives MAFIC's
//! "illegal / unreachable source address" check its meaning: a /16 per
//! ingress network plus a victim /16; anything outside is illegal.
//!
//! # Example
//!
//! ```
//! use mafic_netsim::Simulator;
//! use mafic_topology::{Domain, DomainConfig};
//!
//! let mut sim = Simulator::new(1);
//! let domain = Domain::build(&mut sim, &DomainConfig {
//!     n_routers: 10,
//!     n_hosts: 8,
//!     ..DomainConfig::default()
//! }).unwrap();
//! assert_eq!(domain.hosts.len(), 8);
//! assert!(domain.address_space.is_legal(domain.hosts[0].addr));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_docs)]

pub mod address;
pub mod domain;
pub mod internet;

pub use address::{AddressSpace, PREFIX_LEN};
pub use domain::{install_host_routes, Domain, DomainConfig, HostInfo, VICTIM_BANDWIDTH_BPS};
pub use internet::{
    DomainRole, Internet, InternetConfig, InternetDomain, TransitTopology, UpstreamEdge,
    MAX_DOMAINS,
};
