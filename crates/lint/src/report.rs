//! Findings, suppression pragmas, and the rendered report.

use std::fmt;

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Nondeterminism-source ban (`Instant`, `std::thread`, `std::env`,
    /// ambient RNGs, `RandomState`, pointer formatting, hash-container
    /// dodges).
    Nondet,
    /// `println!`/`print!` in library crates (figure stdout is
    /// byte-compared by the CI diff gates).
    StdoutPurity,
    /// Float comparisons without a total order (`partial_cmp` on event
    /// or sort keys).
    FloatOrd,
    /// Any `unsafe` token.
    UnsafeCode,
    /// Crate-graph back-edge or unknown dependency in a manifest.
    Layering,
    /// A crate root missing one of its pinned lint attributes, or
    /// lowering one with a later `warn`/`allow`.
    LibAttrs,
    /// A `pub` item that no file outside its crate names.
    DeadPub,
    /// Malformed or unused suppression pragma.
    Pragma,
}

impl RuleId {
    /// Stable rule id string (used in pragmas and reports).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::Nondet => "nondet",
            RuleId::StdoutPurity => "stdout-purity",
            RuleId::FloatOrd => "float-ord",
            RuleId::UnsafeCode => "unsafe-code",
            RuleId::Layering => "layering",
            RuleId::LibAttrs => "lib-attrs",
            RuleId::DeadPub => "dead-pub",
            RuleId::Pragma => "pragma",
        }
    }

    /// Parse a rule id string as written in an allow pragma.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "nondet" => RuleId::Nondet,
            "stdout-purity" => RuleId::StdoutPurity,
            "float-ord" => RuleId::FloatOrd,
            "unsafe-code" => RuleId::UnsafeCode,
            "layering" => RuleId::Layering,
            "lib-attrs" => RuleId::LibAttrs,
            "dead-pub" => RuleId::DeadPub,
            "pragma" => RuleId::Pragma,
            _ => return None,
        })
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// The rule that fired.
    pub rule: RuleId,
    /// Human-readable rationale for this specific occurrence.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// One suppression pragma found in the tree
/// (`// mafic-lint: allow(<rule>) -- <reason>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaEntry {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line the pragma comment sits on.
    pub line: u32,
    /// The rule it suppresses.
    pub rule: RuleId,
    /// The justification after `--`.
    pub reason: String,
    /// Whether the pragma actually suppressed a finding this run.
    pub used: bool,
}

/// Full result of a linter run: surviving findings plus the inventory
/// of every suppression in the tree.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Violations that were not suppressed.
    pub findings: Vec<Finding>,
    /// Every pragma encountered, used or not.
    pub pragmas: Vec<PragmaEntry>,
    /// Number of files scanned (sources + manifests).
    pub files_scanned: usize,
}

impl LintReport {
    /// True when the tree is clean (no surviving findings).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render the report in the stable, line-oriented format the CI job
    /// greps and humans read.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "mafic-lint: scanned {} file(s), {} finding(s), {} suppression(s)\n",
            self.files_scanned,
            self.findings.len(),
            self.pragmas.len()
        ));
        for f in &self.findings {
            out.push_str(&format!("  FINDING {f}\n"));
        }
        if !self.pragmas.is_empty() {
            out.push_str("suppression inventory:\n");
            for p in &self.pragmas {
                out.push_str(&format!(
                    "  PRAGMA {}:{} allow({}) -- {}{}\n",
                    p.path,
                    p.line,
                    p.rule,
                    p.reason,
                    if p.used { "" } else { " [UNUSED]" }
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_id_round_trip() {
        for rule in [
            RuleId::Nondet,
            RuleId::StdoutPurity,
            RuleId::FloatOrd,
            RuleId::UnsafeCode,
            RuleId::Layering,
            RuleId::LibAttrs,
            RuleId::DeadPub,
            RuleId::Pragma,
        ] {
            assert_eq!(RuleId::parse(rule.as_str()), Some(rule));
        }
        assert_eq!(RuleId::parse("no-such-rule"), None);
    }

    #[test]
    fn render_marks_unused_pragmas() {
        let report = LintReport {
            findings: vec![],
            pragmas: vec![PragmaEntry {
                path: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: RuleId::Nondet,
                reason: "test".into(),
                used: false,
            }],
            files_scanned: 1,
        };
        assert!(report.render().contains("[UNUSED]"));
    }
}
