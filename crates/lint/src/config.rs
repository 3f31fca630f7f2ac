//! Linter policy: sanctioned files, the crate-layering DAG, and file
//! classification.
//!
//! The defaults encode *this workspace's* contracts (ARCHITECTURE.md
//! "Static guarantees"); tests construct custom configs to exercise the
//! rule engine in isolation.

/// How a source file participates in the workspace, which decides which
/// rules apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileClass {
    /// Library source: `crates/*/src/**` (excluding `src/bin/**` and a
    /// crate-root `src/main.rs`) plus the facade's `src/**`. Subject to
    /// every source rule, including stdout purity.
    Library,
    /// Binary source: `src/bin/**` or a crate-root `src/main.rs`.
    /// Figure binaries *own* stdout, so the purity rule does not apply.
    Binary,
    /// Integration tests (`tests/**`), examples, and benches. stdout is
    /// theirs; determinism rules still apply.
    Harness,
}

/// Classify a workspace-relative path (forward slashes) into a
/// [`FileClass`].
#[must_use]
pub(crate) fn classify(rel_path: &str) -> FileClass {
    let is_bin = rel_path.contains("/src/bin/") || rel_path.ends_with("/src/main.rs");
    if is_bin {
        return FileClass::Binary;
    }
    let is_harness = rel_path.starts_with("tests/")
        || rel_path.starts_with("examples/")
        || rel_path.contains("/tests/")
        || rel_path.contains("/examples/")
        || rel_path.contains("/benches/");
    if is_harness {
        return FileClass::Harness;
    }
    FileClass::Library
}

/// One crate's layering contract: which workspace crates (and vendored
/// stand-ins) its `[dependencies]` section may name.
#[derive(Debug, Clone)]
pub struct CrateLayer {
    /// Package name as written in the manifest (`mafic-netsim`, ...).
    pub name: &'static str,
    /// Layer rank; `[dev-dependencies]` may reach any strictly lower
    /// rank, which keeps test-only conveniences from becoming covert
    /// back-edges in the compiled library graph.
    pub rank: u8,
    /// Exact allowlist for the `[dependencies]` section.
    pub deps: &'static [&'static str],
}

/// The linter's complete policy.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Files (workspace-relative) where the nondeterminism-source ban
    /// does not apply, with the reason each is sanctioned.
    pub sanctioned_nondet: Vec<(String, String)>,
    /// `lib.rs` files exempt from the required crate attributes.
    pub lib_attr_exempt: Vec<String>,
    /// The crate DAG, one entry per workspace crate.
    pub layers: Vec<CrateLayer>,
    /// Dependency names that are not workspace crates but are allowed
    /// anywhere (the vendored, registry-free stand-ins).
    pub external_allowed: Vec<&'static str>,
}

impl LintConfig {
    /// The workspace policy enforced in CI.
    #[must_use]
    pub fn workspace() -> Self {
        Self {
            sanctioned_nondet: vec![
                (
                    "crates/experiments/src/engine.rs".into(),
                    "experiment engine: the std::thread job pool and MAFIC_JOBS/MAFIC_TRIALS \
                     env parsing are the sanctioned nondeterminism boundary"
                        .into(),
                ),
                (
                    "crates/lint/src/main.rs".into(),
                    "linter CLI: std::env::args and process exit codes".into(),
                ),
                (
                    "crates/obs/src/bin/mafic_trace.rs".into(),
                    "trace inspector CLI: std::env::args, ledger file IO, and process \
                     exit codes"
                        .into(),
                ),
                (
                    "crates/experiments/src/bin/run_ledger.rs".into(),
                    "ledger emitter CLI: std::env::args and process exit codes (runs \
                     themselves stay deterministic — that is what the CI gate checks)"
                        .into(),
                ),
                (
                    "crates/experiments/src/bin/checkpoint.rs".into(),
                    "checkpoint gate CLI: std::env::args and process exit codes (the \
                     round trip it gates is itself byte-deterministic)"
                        .into(),
                ),
                (
                    "crates/experiments/src/bin/figures.rs".into(),
                    "figures CLI: std::env::args names the panels to print (the runs \
                     themselves stay deterministic — the CI 1-vs-4-worker diffs check it)"
                        .into(),
                ),
            ],
            lib_attr_exempt: Vec::new(),
            layers: vec![
                // mafic-obs sits below netsim: the ledger primitives
                // (FNV chain, probe, differ) must never see simulator
                // types, so every layer can implement `State`.
                CrateLayer {
                    name: "mafic-obs",
                    rank: 0,
                    deps: &[],
                },
                CrateLayer {
                    name: "mafic-loglog",
                    rank: 0,
                    deps: &[],
                },
                CrateLayer {
                    name: "mafic-lint",
                    rank: 0,
                    deps: &[],
                },
                CrateLayer {
                    name: "mafic-netsim",
                    rank: 1,
                    deps: &["mafic-obs"],
                },
                // The adversary engine sees only what an attacker can:
                // its own RNG and snapshot plumbing. No simulator,
                // transport, or pushback types may leak in — the
                // observability boundary is a layering contract, not
                // just a doc comment.
                CrateLayer {
                    name: "mafic-adversary",
                    rank: 1,
                    deps: &["mafic-obs", "rand"],
                },
                CrateLayer {
                    name: "mafic-metrics",
                    rank: 2,
                    deps: &["mafic-netsim"],
                },
                CrateLayer {
                    name: "mafic-pushback",
                    rank: 2,
                    deps: &["mafic-netsim", "mafic-obs"],
                },
                CrateLayer {
                    name: "mafic-topology",
                    rank: 2,
                    deps: &["mafic-netsim", "rand"],
                },
                CrateLayer {
                    name: "mafic-transport",
                    rank: 2,
                    deps: &["mafic-netsim", "rand"],
                },
                CrateLayer {
                    name: "mafic",
                    rank: 2,
                    deps: &["mafic-loglog", "mafic-netsim", "mafic-obs", "rand"],
                },
                CrateLayer {
                    name: "mafic-workload",
                    rank: 3,
                    deps: &[
                        "mafic",
                        "mafic-adversary",
                        "mafic-loglog",
                        "mafic-metrics",
                        "mafic-netsim",
                        "mafic-obs",
                        "mafic-pushback",
                        "mafic-topology",
                        "mafic-transport",
                        "rand",
                    ],
                },
                CrateLayer {
                    name: "mafic-experiments",
                    rank: 4,
                    deps: &[
                        "mafic",
                        "mafic-adversary",
                        "mafic-loglog",
                        "mafic-metrics",
                        "mafic-netsim",
                        "mafic-obs",
                        "mafic-topology",
                        "mafic-workload",
                    ],
                },
                CrateLayer {
                    name: "mafic-suite",
                    rank: 5,
                    deps: &[
                        "mafic",
                        "mafic-adversary",
                        "mafic-experiments",
                        "mafic-loglog",
                        "mafic-metrics",
                        "mafic-netsim",
                        "mafic-obs",
                        "mafic-pushback",
                        "mafic-topology",
                        "mafic-transport",
                        "mafic-workload",
                    ],
                },
            ],
            external_allowed: vec!["rand"],
        }
    }

    /// Reason `rel_path` is sanctioned for the nondeterminism ban, if
    /// it is.
    #[must_use]
    pub(crate) fn nondet_sanction(&self, rel_path: &str) -> Option<&str> {
        self.sanctioned_nondet
            .iter()
            .find(|(p, _)| p == rel_path)
            .map(|(_, r)| r.as_str())
    }

    /// Look up a crate's layer entry by package name.
    #[must_use]
    pub(crate) fn layer(&self, name: &str) -> Option<&CrateLayer> {
        self.layers.iter().find(|l| l.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(classify("crates/netsim/src/sim.rs"), FileClass::Library);
        assert_eq!(classify("src/lib.rs"), FileClass::Library);
        assert_eq!(
            classify("crates/experiments/src/bin/figures.rs"),
            FileClass::Binary
        );
        assert_eq!(classify("crates/lint/src/main.rs"), FileClass::Binary);
        assert_eq!(classify("tests/determinism.rs"), FileClass::Harness);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Harness);
        assert_eq!(
            classify("crates/netsim/benches/scheduler.rs"),
            FileClass::Harness
        );
    }

    #[test]
    fn workspace_dag_is_acyclic_and_rank_consistent() {
        let cfg = LintConfig::workspace();
        for layer in &cfg.layers {
            for dep in layer.deps {
                if let Some(dep_layer) = cfg.layer(dep) {
                    assert!(
                        dep_layer.rank < layer.rank,
                        "{} (rank {}) depends on {} (rank {}): not a DAG edge",
                        layer.name,
                        layer.rank,
                        dep,
                        dep_layer.rank
                    );
                } else {
                    assert!(
                        cfg.external_allowed.contains(dep),
                        "{dep} is neither a workspace crate nor vendored"
                    );
                }
            }
        }
    }
}
