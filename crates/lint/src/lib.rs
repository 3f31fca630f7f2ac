//! # mafic-lint
//!
//! Self-contained static analysis enforcing the workspace's replay,
//! layering, and no-unsafe contracts — the rules ARCHITECTURE.md
//! states in prose, checked mechanically before a digest gate can
//! flicker with nothing to bisect.
//!
//! The pass lexes every in-scope Rust file into a token stream (an
//! in-house lexer handling raw strings, nested block comments, and the
//! `'a`-lifetime vs `'x'`-char ambiguity, so rules never fire inside
//! strings or comments) and feeds a rule engine:
//!
//! | rule id         | contract |
//! |-----------------|----------|
//! | `nondet`        | no wall clocks, threads, ambient env/RNG, random hasher state, pointer formatting, or hash-container dodges outside sanctioned files |
//! | `stdout-purity` | no `println!`/`print!` in library crates (figure stdout is byte-compared in CI) |
//! | `float-ord`     | no `partial_cmp` on sort/event keys; use `total_cmp` |
//! | `unsafe-code`   | no `unsafe` anywhere |
//! | `layering`      | manifest dependency sections must match the crate DAG (no back-edges) |
//! | `lib-attrs`     | crate roots pin `#![forbid(unsafe_code)]`, `#![deny(missing_docs)]` and `#![deny(unreachable_pub)]`, and no later `warn`/`allow` lowers them |
//! | `dead-pub`      | every `pub` item is named by some user outside its crate (another crate, a bin, `tests/`, `examples/`, `benchmark/`, a doc-test) or by the public signature of a live item; items under `#[cfg(test)]` are skipped. Workspace-level, and no pragma suppresses it |
//! | `pragma`        | suppressions must be well-formed and actually used |
//!
//! A finding is suppressed only by a justified inline pragma on the
//! same line or the line above:
//!
//! ```text
//! // mafic-lint: allow(float-ord) -- keys proven finite and distinct here
//! ```
//!
//! Every pragma is inventoried in the report, and an unused pragma is
//! itself a finding, so the suppression surface stays auditable.
//!
//! The pass runs three ways: `cargo run -p mafic-lint -- --ci` (the CI
//! job), the workspace test `tests/lint_clean.rs` (tier-1 catches
//! violations offline), and as a library for fixture tests.
//!
//! ## Example
//!
//! ```
//! use mafic_lint::{lint_source, LintConfig, RuleId};
//!
//! let cfg = LintConfig::workspace();
//! let src = "fn t() { let _ = std::time::Instant::now(); }";
//! let (findings, _) = lint_source("crates/netsim/src/sim.rs", src, &cfg);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, RuleId::Nondet);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unreachable_pub)]

mod config;
mod lexer;
mod report;
mod rules;
mod surface;
mod walk;

pub use config::{CrateLayer, LintConfig};
pub use report::{Finding, LintReport, PragmaEntry, RuleId};
pub use rules::{lint_manifest, lint_source};
pub use surface::dead_pub;
pub use walk::lint_workspace;
