//! Deterministic observability for MAFIC simulation runs.
//!
//! This crate sits *below* `mafic-netsim` in the layering DAG and has no
//! dependencies at all: it defines the vocabulary every other layer uses
//! to describe its own state — 64-bit FNV-1a ([`Fnv64`], [`fnv64`]), the
//! one-walk [`State`] contract with its two sinks ([`StateWrite`]:
//! [`HashWriter`] and [`SnapWriter`]) and its object-safe face
//! ([`DynState`]), and
//! the **run ledger**: a build-metadata header plus one chained
//! per-component state hash per monitor interval, exported as JSONL and
//! diffable down to the first diverging interval and component.
//!
//! The ledger exists so a determinism failure is *bisectable*: instead
//! of "whole-run digests differ", the differ answers "interval 17,
//! component `dom3/coord`". Recording is strictly opt-in — when a run
//! does not ask for a ledger nothing in this crate executes on the hot
//! path (one branch per monitor interval, zero per packet).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod diff;
mod fnv;
mod json;
mod ledger;
mod snap;
mod state;

pub use diff::{diff_ledgers, Divergence, DivergenceReport};
pub use fnv::{fnv64, Fnv64, HashWriter};
pub use json::{parse_json_line, JsonValue};
pub use ledger::{
    IntervalProbe, IntervalRecord, LedgerBuilder, LedgerHeader, ProbeBatch, RunLedger,
};
pub use snap::{
    SnapError, SnapReader, SnapWriter, Snapshot, SnapshotHeader, SNAP_MAGIC, SNAP_VERSION,
};
pub use state::{assert_state_law, state_bytes, state_hash, DynState, State, StateWrite};

/// Ledger wire-format version; bump on any incompatible JSONL change.
pub const LEDGER_VERSION: u32 = 1;
