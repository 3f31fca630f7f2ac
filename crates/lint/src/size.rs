//! The workspace-level `size` rule: the code-size ratchet.
//!
//! Each library crate (`crates/<name>/src`, its bins included, the
//! linter itself excluded) and their total are measured in code lines
//! (lines holding part of a non-comment token) and `pub` items (`pub`
//! directly followed by an item keyword, so `pub(crate)` is not one).
//! The public fields of the config structs and the variants of the
//! spec-facing enums are counted too: a knob exists only when some
//! non-test caller gives it a different value. Every measure reads the
//! same non-test view as `dead-pub`, so exactly the items
//! `#[cfg(test)]` annotates are left out.
//!
//! Each measure is pinned to its exact value in
//! [`LintConfig::workspace`]. One above its pin is growth to justify;
//! one below is a cut the pin must lock in. Either is a finding, so the
//! ratchet has no slack, and no pragma suppresses it.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use crate::config::LintConfig;
use crate::lexer::{lex, Token, TokenKind};
use crate::report::{Finding, RuleId};
use crate::surface::non_test;

/// Item keywords a counted `pub` item starts with.
const ITEM_KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use",
];

/// The crate directory left out of every measure: the linter is the
/// tool that takes the measures, not part of the simulator.
const UNMEASURED: &str = "lint";

/// The library crate directory name of a workspace-relative path
/// under `crates/<name>/src/`, unless it is [`UNMEASURED`].
fn measured_crate(rel_path: &str) -> Option<&str> {
    let (name, tail) = rel_path.strip_prefix("crates/")?.split_once('/')?;
    (tail.starts_with("src/") && name != UNMEASURED).then_some(name)
}

/// Lines holding part of one of `code`'s tokens.
fn code_lines(code: &[&Token]) -> usize {
    let mut lines = BTreeSet::new();
    for tok in code {
        let spanned = tok.text.matches('\n').count() as u32;
        lines.extend(tok.line..=tok.line + spanned);
    }
    lines.len()
}

/// `pub` tokens directly followed by an item keyword.
fn pub_items(code: &[&Token]) -> usize {
    code.windows(2)
        .filter(|w| w[0].text == "pub" && ITEM_KINDS.contains(&w[1].text.as_str()))
        .count()
}

/// The line, measure and count of the braced struct or enum `name` in
/// `code`: a struct's `pub name:` fields, or an enum's variants (the
/// first identifier of each comma-separated entry). Both are read at
/// the body's own depth only.
fn type_count(code: &[&Token], name: &str) -> Option<(u32, &'static str, usize)> {
    let at = code
        .windows(2)
        .position(|w| matches!(w[0].text.as_str(), "struct" | "enum") && w[1].text == name)?;
    let open = at
        + code[at..]
            .iter()
            .position(|t| matches!(t.text.as_str(), "{" | ";" | "("))?;
    if code[open].text != "{" {
        return None;
    }
    let is_struct = code[at].text == "struct";
    let measure = if is_struct { "pub fields" } else { "variants" };
    let (mut depth, mut count, mut entry_start) = (0usize, 0, true);
    for (i, tok) in code.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some((code[at].line, measure, count));
                }
            }
            "," if depth == 1 => entry_start = true,
            "pub" if depth == 1 && is_struct => {
                count += usize::from(code.get(i + 2).is_some_and(|t| t.text == ":"));
            }
            _ if depth == 1 && !is_struct && entry_start && tok.kind == TokenKind::Ident => {
                count += 1;
                entry_start = false;
            }
            _ => {}
        }
    }
    None
}

/// A `size` finding.
fn finding(path: &str, line: u32, message: String) -> Finding {
    Finding {
        path: path.to_string(),
        line,
        rule: RuleId::Size,
        message,
    }
}

/// One measure against its pin: a finding naming both unless equal.
fn check(path: &str, line: u32, what: &str, value: usize, pin: usize) -> Option<Finding> {
    let message = match value.cmp(&pin) {
        Ordering::Equal => return None,
        Ordering::Greater => format!(
            "{what} is {value}, above its pin {pin}: justify the growth and raise the \
             pin in `LintConfig::workspace()`"
        ),
        Ordering::Less => format!(
            "{what} is {value}, below its pin {pin}: lower the pin in \
             `LintConfig::workspace()` to lock the cut in"
        ),
    };
    Some(finding(path, line, message))
}

/// Workspace-level `size` pass over `(path, source)` pairs of
/// workspace-relative paths: every measure of the files under
/// `crates/<name>/src/` against the pins in `cfg.code_size` and
/// `cfg.type_size`.
#[must_use]
pub fn size(files: &[(String, String)], cfg: &LintConfig) -> Vec<Finding> {
    // Crate -> (code lines, pub items); pinned type -> where, what, count.
    let mut crates: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    let mut types: BTreeMap<&str, (&str, u32, &str, usize)> = BTreeMap::new();
    for (path, source) in files {
        let Some(name) = measured_crate(path) else {
            continue;
        };
        let tokens = lex(source);
        let code = non_test(&tokens);
        let measures = crates.entry(name).or_default();
        measures.0 += code_lines(&code);
        measures.1 += pub_items(&code);
        for &(ty, _) in &cfg.type_size {
            if let Some((line, measure, count)) = type_count(&code, ty) {
                types.insert(ty, (path, line, measure, count));
            }
        }
    }

    let mut findings = Vec::new();
    let total = crates
        .values()
        .fold((0, 0), |(l, p), (lines, pubs)| (l + lines, p + pubs));
    for &(name, lines, pubs) in &cfg.code_size {
        let (path, measured) = if name == "total" {
            ("crates".to_string(), Some(total))
        } else {
            (format!("crates/{name}/src"), crates.get(name).copied())
        };
        let Some((measured_lines, measured_pubs)) = measured else {
            let message = format!("crate `{name}` is pinned but has no library sources");
            findings.push(finding(&path, 0, message));
            continue;
        };
        let what = |measure: &str| format!("`{name}` {measure}");
        findings.extend(check(&path, 0, &what("code lines"), measured_lines, lines));
        findings.extend(check(&path, 0, &what("pub items"), measured_pubs, pubs));
    }
    for name in crates.keys() {
        if !cfg.code_size.iter().any(|(pinned, _, _)| pinned == name) {
            let message = format!("crate `{name}` has no size pin in `LintConfig::workspace()`");
            findings.push(finding(&format!("crates/{name}/src"), 0, message));
        }
    }
    for &(ty, pin) in &cfg.type_size {
        match types.get(ty) {
            Some(&(path, line, measure, value)) => {
                findings.extend(check(path, line, &format!("`{ty}` {measure}"), value, pin));
            }
            None => findings.push(finding(
                "crates",
                0,
                format!("type `{ty}` is pinned but no library crate defines it"),
            )),
        }
    }
    findings
}
