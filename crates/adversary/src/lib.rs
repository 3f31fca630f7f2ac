//! Closed-loop adaptive attack strategies — the red team of the MAFIC
//! reproduction.
//!
//! Every scenario up through fig10 faces *open-loop* attackers: CBR
//! floods and fixed pulse trains that never react to being dropped.
//! Real DDoS sources observe their own loss and adapt (Argyraki &
//! Cheriton's threat model), which is exactly what this crate supplies:
//! an [`AdversaryController`] that, once per monitor interval, digests
//! per-source delivered-vs-sent feedback and retargets its sources
//! through the strategy its [`StrategyKind`] names — churning the
//! active source set faster than the defense's lease expiry
//! ([`StrategyKind::SourceRotation`]), shaping the aggregate under the
//! attestation floor ([`StrategyKind::AttestationShaping`]),
//! period-locking pulses to the coordinator's K-interval hysteresis
//! ([`StrategyKind::PulseTuning`]), or rotating the flood across sibling
//! stubs to dilute per-requester install budgets
//! ([`StrategyKind::CarpetBombing`]).
//!
//! # Observability boundary
//!
//! The controller is *in-band*: its decisions may only use
//!
//! 1. its own seeded RNG,
//! 2. state observable at the attacker's own nodes — the per-source
//!    cumulative sent/delivered counters a real zombie could measure
//!    from its own acknowledgement stream, folded into per-interval
//!    deltas and a loss rate, and
//! 3. *public* protocol constants carried in [`AdversarySpec`]
//!    (Kerckhoffs's principle: the defense's lease length and
//!    hysteresis window are published defaults, not secrets).
//!
//! It never reads defender runtime state (coordinator lifecycle, trust
//! ledgers, filter tables). Determinism rule 5 therefore holds: the
//! control loop is pure state + seeded RNG, hashed into the run ledger
//! and serialized into checkpoints like every other component.
//!
//! # Equal-budget contract
//!
//! Every strategy preserves the attacker's aggregate budget: when a
//! cohort pauses, the surviving active sources scale up so the summed
//! nominal rate stays at the open-loop level (`Σ scale ≈ 1000 × n`).
//! Comparisons against the open-loop baseline are therefore
//! like-for-like — adaptivity, not extra volume, explains any extra
//! residual.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unreachable_pub)]

mod controller;
mod spec;
mod strategies;

pub use controller::{AdversaryController, AdversaryDirective, SourceFeedback};
pub use spec::{AdversarySpec, StrategyKind};
