//! # mafic-metrics
//!
//! Turns the raw per-flow accounting of a `mafic-netsim` run into the
//! five metrics the MAFIC paper evaluates:
//!
//! | Symbol | Meaning | Figure |
//! |--------|---------|--------|
//! | α      | attack-packet dropping accuracy | Fig. 3 |
//! | β      | traffic reduction rate at the victim | Fig. 4a |
//! | θp     | false positive rate | Fig. 5 |
//! | θn     | false negative rate | Fig. 6 |
//! | Lr     | legitimate-packet dropping rate | Fig. 7 |
//!
//! plus the victim-side bandwidth time series of Fig. 4b, the residual
//! attack rate / legitimate goodput / collateral damage of the
//! multi-domain scenarios, the per-policy deployment-cost proxies
//! ([`PolicyCostReport`]: table state bytes, timer events) of the
//! heterogeneous partial-deployment studies, and the control-plane
//! health counters ([`ControlPlaneReport`]: denials by reason, forged
//! envelopes, stand-down latency) of the trust-aware pushback
//! protocol.
//!
//! # Example
//!
//! ```
//! use mafic_metrics::{MeasureWindows, MetricsReport};
//! use mafic_netsim::StatsCollector;
//!
//! let report = MetricsReport::from_stats(&StatsCollector::new(), &MeasureWindows::default());
//! assert_eq!(report.attack_seen, 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unreachable_pub)]

mod control;
mod cost;
mod report;
mod series;

pub use control::{control_table, ControlPlaneReport};
pub use cost::{cost_table, PolicyCostReport};
pub use report::{FlowTally, MeasureWindows, MetricsReport};
pub use series::{downsample, victim_arrival_series, victim_bandwidth_series, BandwidthPoint};
