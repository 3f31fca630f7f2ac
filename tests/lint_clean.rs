//! Tier-1 gate: the workspace determinism linter must pass on this
//! tree.
//!
//! This is the offline counterpart of the `lint-static` CI job — a
//! contributor who only runs `cargo test` still cannot land a wall
//! clock, a stdout leak in a library crate, a `partial_cmp` sort key,
//! an unsanctioned `unsafe`, a crate-graph back-edge, or a change in
//! code size, public items, config fields or enum variants that does
//! not move its pin in `LintConfig::workspace()`.

use mafic_lint::{lint_workspace, LintConfig};
use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root, &LintConfig::workspace()).expect("workspace walk succeeds");
    assert!(
        report.files_scanned > 50,
        "walker found only {} files — scope regressed",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "mafic-lint found violations:\n{}",
        report.render()
    );
}

#[test]
fn suppression_inventory_is_fully_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root, &LintConfig::workspace()).expect("workspace walk succeeds");
    for pragma in &report.pragmas {
        assert!(
            pragma.used,
            "unused pragma at {}:{} allow({})",
            pragma.path, pragma.line, pragma.rule
        );
    }
}
