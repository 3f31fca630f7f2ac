//! # mafic-pushback
//!
//! Inter-domain **cascaded pushback**: the control plane that carries a
//! victim domain's defense one hop upstream at a time, so MAFIC's
//! suppression moves toward the zombies instead of ending at the victim
//! domain's own ingress routers (the literal "push back" of the paper's
//! title, in the spirit of El Defrawy et al.'s filter placement and
//! Li et al.'s adaptive distributed filtering).
//!
//! Five pieces, each deliberately simulator-agnostic:
//!
//! * [`DomainCoordinator`] — the per-domain lifecycle state machine
//!   (idle → defending → escalated → standing-down → idle). It watches
//!   the victim-bound aggregate entering the domain boundary and, when
//!   its local MAFIC deployment cannot stop the flood at the source
//!   (sustained pressure for [`TRIGGER_INTERVALS`] monitor intervals),
//!   escalates one hop upstream with a depth budget. Upstream defenses
//!   are soft-state leases: renewed (or re-installed after a lost
//!   request / lapsed lease) by full-state `Refresh` envelopes, torn
//!   down by `Withdraw`, victim-initiated `Stop`, or expiry after
//!   [`HOLD_INTERVALS`] silent intervals, so a vanished requester cannot
//!   leave stale drops behind.
//! * [`TrustLedger`] — the per-requester trust state every upstream
//!   coordinator vets envelopes against: protocol version, authorized
//!   downstream identity, replay nonce, attestation of the claimed
//!   aggregate against the domain's own meter, and a per-requester
//!   install budget. Failed vetting answers with `Deny{reason}` — the
//!   defense against *malicious pushback* (an attacker asking an
//!   upstream to drop a victim's legitimate traffic).
//! * [`ControlPlane`] — the transport abstraction the coordinator sends
//!   envelopes through: a skip-list upstream send, a downstream send
//!   and an upstream target count. The workload runner implements it
//!   over routed simulator packets (the deterministic in-band channel);
//!   the [`BufferedPlane`] records envelopes in memory for tests and
//!   out-of-simulator hosts.
//! * [`VictimRateMeter`] — a passive packet filter measuring the
//!   victim-bound byte rate at an Attack Transit Router, windowed per
//!   monitor interval. Installed before the dropper it measures offered
//!   pressure (also the attestation evidence); installed after it
//!   measures the residual that leaks through.
//! * [`ControlChannel`] — the agent bound to a domain's control address.
//!   Envelopes arrive **as simulated packets** over the inter-domain
//!   links (deterministically ordered with all other traffic, never a
//!   side channel); the channel authenticates the claimed requester
//!   against the packet source and queues survivors for the coordinator
//!   to drain once per monitor interval.
//!
//! The coordinator is policy-agnostic: `ActivateLocal` instructs
//! whatever defense filters the domain's resolved
//! `mafic::DefensePolicy` installed at its ATRs (full MAFIC, the
//! proportional baseline, or an aggregate rate limit). Domains that do
//! not participate have no coordinator activity at all — the workload
//! layer routes escalation requests *through* them to the nearest
//! participating domain, charging the escalation budget one hop per
//! level crossed.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unreachable_pub)]

mod channel;
mod coordinator;
mod meter;
mod plane;
mod trust;

pub use channel::ControlChannel;
pub use coordinator::{
    CoordinatorStats, DomainCoordinator, LifecycleState, PushbackAction, PushbackConfig,
    PushbackConfigError, PushbackRole, HOLD_INTERVALS, TRIGGER_INTERVALS,
};
pub use meter::VictimRateMeter;
pub use plane::{BufferedPlane, ControlPlane};
pub use trust::{DenyTally, TrustConfig, TrustLedger};
