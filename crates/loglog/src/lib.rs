//! # mafic-loglog
//!
//! Cardinality sketches and set-union traffic-matrix estimation used by the
//! MAFIC pushback pipeline.
//!
//! The MAFIC paper (Chen, Kwok, Hwang, ICDCSW 2005) identifies *Attack
//! Transit Routers* (ATRs) with the set-union counting technique of its
//! companion report: every router keeps a [`LogLog`] sketch of the distinct
//! packets it injects into the domain (`S_i`) and of the distinct packets
//! that leave the domain through it (`D_j`). Because LogLog registers are
//! max-merged, the union cardinality `|S_i ∪ D_j|` is computable without any
//! extra per-packet state, and the traffic matrix follows from the
//! inclusion–exclusion identity
//!
//! ```text
//! a_ij = |S_i ∩ D_j| = |S_i| + |D_j| − |S_i ∪ D_j|
//! ```
//!
//! This crate provides:
//!
//! * [`LogLog`] — the Durand–Flajolet LogLog counter (`O(log log n)` space),
//! * [`RouterSketch`] — the per-router `(S, D)` pair,
//! * [`TrafficMatrix`] — the estimated `a_ij` matrix with victim detection
//!   and ATR identification ([`AtrReport`]),
//! * [`mix64`] / [`mix2`] — the 64-bit mixing/hashing helpers shared
//!   across the workspace.
//!
//! # Example
//!
//! ```
//! use mafic_loglog::{LogLog, Precision};
//!
//! let mut sketch = LogLog::new(Precision::P10);
//! for packet_id in 0u64..50_000 {
//!     sketch.insert_u64(packet_id);
//! }
//! let estimate = sketch.estimate();
//! let err = (estimate - 50_000.0).abs() / 50_000.0;
//! assert!(err < 0.10, "LogLog estimate off by {err}");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unreachable_pub)]

mod detector;
mod hash;
mod loglog;
mod matrix;
mod setunion;

pub use detector::{AtrReport, DetectorConfig, VictimDetector, VictimVerdict};
pub use hash::{mix2, mix64};
pub use loglog::{LogLog, Precision, SketchError};
pub use matrix::{RouterSketchId, TrafficMatrix};
pub use setunion::RouterSketch;
