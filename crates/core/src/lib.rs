//! # mafic
//!
//! MAFIC — **MA**licious **F**low **I**dentification and **C**utoff — the
//! adaptive packet-dropping defense of Chen, Kwok & Hwang (ICDCSW 2005),
//! reimplemented as a router-resident packet filter for the
//! `mafic-netsim` simulator.
//!
//! When a victim's last-hop router detects a flooding attack (see the
//! `mafic-loglog` set-union counting pipeline), the Attack Transit
//! Routers receive a pushback request and activate the [`MaficFilter`]:
//!
//! * packets of new victim-bound flows are dropped with probability `Pd`,
//! * each sampled flow enters the **Suspicious Flow Table** and is probed
//!   with a burst of duplicate ACKs toward its claimed source,
//! * flows whose arrival rate falls within `2 × RTT` are "nice" (moved to
//!   the **NFT**, never dropped again); unresponsive flows are condemned
//!   to the **PDT** and cut off completely,
//! * flows with illegal (unallocated) source addresses are condemned
//!   immediately.
//!
//! The crate also provides the [`ProportionalFilter`] baseline (uniform
//! dropping, the approach MAFIC improves upon), the [`RateLimitFilter`]
//! aggregate token bucket (the cheapest policy a transit AS can deploy),
//! the [`DefensePolicy`] surface naming what one domain boundary runs in
//! heterogeneous deployments, and the [`LogLogTap`] sketch connector
//! used by the pushback monitor.
//!
//! # Example
//!
//! ```
//! use mafic::{AddressValidator, MaficConfig, MaficFilter};
//! use mafic_netsim::Addr;
//!
//! let mut filter = MaficFilter::new(MaficConfig::default(), AddressValidator::AllowAll);
//! assert!(!filter.is_active());
//! filter.activate(Addr::from_octets(10, 200, 0, 1));
//! assert!(filter.is_active());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unreachable_pub)]

mod baseline;
mod config;
mod dropper;
mod label;
mod policy;
mod rate;
mod ratelimit;
mod tables;
mod tap;

pub use baseline::ProportionalFilter;
pub use config::{AddressValidator, ConfigError, MaficConfig};
pub use dropper::{MaficCounters, MaficFilter, TIMER_PROBATION};
pub use label::LabelMode;
pub use policy::DefensePolicy;
pub use ratelimit::RateLimitFilter;
pub use tables::{FlowState, FlowTables, PdtReason, SftEntry};
pub use tap::LogLogTap;
