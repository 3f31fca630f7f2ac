//! # mafic-suite
//!
//! Facade crate bundling the complete MAFIC reproduction (Chen, Kwok &
//! Hwang, "MAFIC: Adaptive Packet Dropping for Cutting Malicious Flows
//! to Push Back DDoS Attacks", ICDCSW 2005):
//!
//! * [`netsim`] — the deterministic discrete-event network simulator,
//! * [`transport`] — TCP Reno-style senders/sinks and unresponsive
//!   attack zombies,
//! * [`topology`] — protected-domain builders and the address plan,
//! * [`loglog`] — LogLog sketches and the set-union counting pushback
//!   pipeline,
//! * [`core`] — the MAFIC algorithm (SFT/NFT/PDT, probing, adaptive
//!   dropping) plus the proportional baseline, the aggregate rate
//!   limiter, and the per-domain [`core::DefensePolicy`] surface,
//! * [`pushback`] — inter-domain cascaded pushback: per-domain
//!   coordinators, rate meters, and the packet-borne control channel
//!   (heterogeneous policies and partial deployment included),
//! * [`metrics`] — the paper's α/β/θp/θn/Lr metrics, plus residual
//!   attack rate and collateral damage for the multi-domain scenarios,
//! * [`obs`] — the run ledger: per-interval chained state hashes,
//!   JSONL export, and the divergence differ behind `mafic_trace`,
//! * [`workload`] — scenario generation and the experiment runner,
//! * [`adversary`] — closed-loop adaptive attack strategies (source
//!   rotation, attestation shaping, pulse tuning, carpet bombing)
//!   red-teaming the defense from the attacker's side,
//! * [`experiments`] — per-figure regeneration harnesses.
//!
//! # Quickstart
//!
//! ```no_run
//! use mafic_suite::workload::{run_spec, ScenarioSpec};
//!
//! let outcome = run_spec(ScenarioSpec::default()).unwrap();
//! assert!(outcome.report.accuracy_pct > 99.0);
//! println!("{}", outcome.report);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unreachable_pub)]

pub use mafic as core;
pub use mafic_adversary as adversary;
pub use mafic_experiments as experiments;
pub use mafic_loglog as loglog;
pub use mafic_metrics as metrics;
pub use mafic_netsim as netsim;
pub use mafic_obs as obs;
pub use mafic_pushback as pushback;
pub use mafic_topology as topology;
pub use mafic_transport as transport;
pub use mafic_workload as workload;
