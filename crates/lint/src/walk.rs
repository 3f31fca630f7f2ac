//! Deterministic workspace traversal.
//!
//! The linter's own report must replay byte-identically, so file
//! discovery is explicit about scope and order: the scanned roots are
//! fixed, directory entries are collected and sorted, and paths are
//! normalized to forward slashes before they reach any rule.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::LintConfig;
use crate::report::LintReport;
use crate::rules::{lint_manifest, lint_source};
use crate::size::size;
use crate::surface::dead_pub;

/// Recursively collect `*.rs` files under `dir`, sorted by path.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The source roots scanned for Rust files, relative to the workspace
/// root. `vendor/` (third-party stand-ins) and `target/` are outside
/// all of them by construction.
const SOURCE_ROOTS: &[&str] = &["src", "tests", "examples"];

/// Roots read only as users of public items by the `dead-pub` rule.
const USER_ROOTS: &[&str] = &["benchmark/src", "benchmark/tests"];

/// Per-crate subdirectories scanned inside each `crates/*` entry.
const CRATE_ROOTS: &[&str] = &["src", "tests", "benches"];

/// Lint the whole workspace rooted at `root`: every in-scope `.rs`
/// file plus the root and per-crate manifests, in sorted order, then
/// the workspace-level `dead-pub` and `size` passes over all of them
/// and a check that every sanctioned file is among them.
///
/// # Errors
/// Propagates I/O errors from directory traversal or file reads.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> io::Result<LintReport> {
    let mut report = LintReport::default();

    // Rust sources.
    let mut files = Vec::new();
    for sub in SOURCE_ROOTS {
        collect_rs(&root.join(sub), &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        crate_dirs.sort();
        for crate_dir in crate_dirs.into_iter().filter(|p| p.is_dir()) {
            for sub in CRATE_ROOTS {
                collect_rs(&crate_dir.join(sub), &mut files)?;
            }
        }
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let (rel_path, source) = (rel(root, path), fs::read_to_string(path)?);
        let (findings, pragmas) = lint_source(&rel_path, &source, cfg);
        report.findings.extend(findings);
        report.pragmas.extend(pragmas);
        report.files_scanned += 1;
        sources.push((rel_path, source));
    }
    let walked: Vec<&str> = sources.iter().map(|(path, _)| path.as_str()).collect();
    report.findings.extend(cfg.stale_sanctions(&walked));
    report.findings.extend(size(&sources, cfg));

    // The public surface: the benchmark is read as a user of the
    // workspace's items but is not itself linted.
    let mut bench = Vec::new();
    for sub in USER_ROOTS {
        collect_rs(&root.join(sub), &mut bench)?;
    }
    bench.sort();
    for path in &bench {
        sources.push((rel(root, path), fs::read_to_string(path)?));
    }
    report.findings.extend(dead_pub(&sources));

    // Manifests: root first, then crates/*/Cargo.toml sorted.
    let mut manifests = vec![root.join("Cargo.toml")];
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            let manifest = crate_dir.join("Cargo.toml");
            if manifest.is_file() {
                manifests.push(manifest);
            }
        }
    }
    for path in &manifests {
        let source = fs::read_to_string(path)?;
        report
            .findings
            .extend(lint_manifest(&rel(root, path), &source, cfg));
        report.files_scanned += 1;
    }

    Ok(report)
}
