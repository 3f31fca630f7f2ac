//! The rule engine: token-stream rules for source files and a
//! section-aware dependency check for manifests.

use crate::config::{classify, FileClass, LintConfig};
use crate::lexer::{lex, Token, TokenKind};
use crate::report::{Finding, PragmaEntry, RuleId};

/// A banned token sequence (matched over code tokens only) plus the
/// canonical name reported for it.
struct BannedSeq {
    seq: &'static [&'static str],
    name: &'static str,
    why: &'static str,
}

/// The nondeterminism-source ban list. Longest sequences first so the
/// greedy matcher reports `std::time::Instant` once, not once per
/// suffix.
const NONDET_SEQS: &[BannedSeq] = &[
    BannedSeq {
        seq: &["std", ":", ":", "time", ":", ":", "Instant"],
        name: "std::time::Instant",
        why: "wall-clock reads differ across runs; simulated time only",
    },
    BannedSeq {
        seq: &["std", ":", ":", "time", ":", ":", "SystemTime"],
        name: "std::time::SystemTime",
        why: "wall-clock reads differ across runs; simulated time only",
    },
    BannedSeq {
        seq: &["Instant", ":", ":", "now"],
        name: "Instant::now",
        why: "wall-clock reads differ across runs; simulated time only",
    },
    BannedSeq {
        seq: &["SystemTime", ":", ":", "now"],
        name: "SystemTime::now",
        why: "wall-clock reads differ across runs; simulated time only",
    },
    BannedSeq {
        seq: &["std", ":", ":", "thread"],
        name: "std::thread",
        why: "scheduling order is nondeterministic; the experiments engine owns the only pool",
    },
    BannedSeq {
        seq: &["std", ":", ":", "env"],
        name: "std::env",
        why: "ambient environment makes replay depend on the shell; EngineConfig owns env parsing",
    },
    BannedSeq {
        seq: &["thread_rng"],
        name: "rand::thread_rng",
        why: "ambient OS-seeded RNG; all randomness must flow from the scenario seed",
    },
    BannedSeq {
        seq: &["rand", ":", ":", "random"],
        name: "rand::random",
        why: "ambient OS-seeded RNG; all randomness must flow from the scenario seed",
    },
    BannedSeq {
        seq: &["RandomState"],
        name: "RandomState",
        why: "per-process random hasher state; use FlowSlab/BTreeMap per the interning contract",
    },
    BannedSeq {
        seq: &["hash_map", ":", ":"],
        name: "hash_map::",
        why: "std hash containers iterate in RandomState order; clippy's type ban must not be dodged via module paths",
    },
    BannedSeq {
        seq: &["hashbrown"],
        name: "hashbrown",
        why: "hash containers iterate in hasher order; use FlowSlab/BTreeMap",
    },
];

/// Doc comments (`///`, `//!`, `/**`, `/*!`) document; they cannot
/// carry pragmas. Suppressions are implementation comments, so prose
/// *about* the pragma grammar never parses as a pragma.
fn is_doc_comment(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
}

/// Collect suppression pragmas from non-doc comment tokens, reporting
/// malformed ones as findings.
///
/// Grammar: `mafic-lint: allow(<rule-id>) -- <non-empty reason>`
/// anywhere inside a plain line or block comment.
fn collect_pragmas(
    rel_path: &str,
    tokens: &[Token],
    findings: &mut Vec<Finding>,
) -> Vec<PragmaEntry> {
    let mut pragmas = Vec::new();
    for tok in tokens
        .iter()
        .filter(|t| t.is_comment() && !is_doc_comment(&t.text))
    {
        let Some(at) = tok.text.find("mafic-lint:") else {
            continue;
        };
        let rest = tok.text[at + "mafic-lint:".len()..].trim_start();
        let parsed = (|| {
            let body = rest.strip_prefix("allow(")?;
            let close = body.find(')')?;
            let rule = RuleId::parse(&body[..close])?;
            let after = body[close + 1..].trim_start();
            let reason = after.strip_prefix("--")?.trim();
            if reason.is_empty() {
                return None;
            }
            Some((rule, reason.to_string()))
        })();
        match parsed {
            Some((rule @ (RuleId::DeadPub | RuleId::Size), _)) => findings.push(Finding {
                path: rel_path.to_string(),
                line: tok.line,
                rule: RuleId::Pragma,
                message: format!("`{rule}` is workspace-level: no pragma suppresses it"),
            }),
            Some((rule, reason)) => pragmas.push(PragmaEntry {
                path: rel_path.to_string(),
                line: tok.line,
                rule,
                reason,
                used: false,
            }),
            None => findings.push(Finding {
                path: rel_path.to_string(),
                line: tok.line,
                rule: RuleId::Pragma,
                message: format!(
                    "malformed suppression pragma (expected `mafic-lint: \
                     allow(<rule>) -- <reason>`): `{}`",
                    rest.lines().next().unwrap_or(rest).trim()
                ),
            }),
        }
    }
    pragmas
}

/// Greedy banned-sequence scan over the code-token view.
fn scan_nondet(rel_path: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i < code.len() {
        let mut matched = false;
        for banned in NONDET_SEQS {
            if banned.seq.len() <= code.len() - i
                && banned
                    .seq
                    .iter()
                    .zip(&code[i..])
                    .all(|(want, tok)| tok.text == *want)
            {
                findings.push(Finding {
                    path: rel_path.to_string(),
                    line: code[i].line,
                    rule: RuleId::Nondet,
                    message: format!("forbidden `{}`: {}", banned.name, banned.why),
                });
                i += banned.seq.len();
                matched = true;
                break;
            }
        }
        if !matched {
            i += 1;
        }
    }
}

/// `{:p}` (pointer formatting) inside string literals — addresses vary
/// per run under ASLR, so they must never reach figure output.
fn scan_pointer_format(rel_path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    // mafic-lint: allow(nondet) -- the scanner must name the pattern it scans for
    let needle = ":p}";
    for tok in tokens.iter().filter(|t| t.kind == TokenKind::Str) {
        if tok.text.contains(needle) {
            findings.push(Finding {
                path: rel_path.to_string(),
                line: tok.line,
                rule: RuleId::Nondet,
                // mafic-lint: allow(nondet) -- the finding message must name the banned pattern
                message: "pointer formatting `{:p}` in a format string: addresses are nondeterministic under ASLR".to_string(),
            });
        }
    }
}

/// `println!`/`print!` in library sources: figure stdout is
/// byte-compared by the CI diff gates, so libraries must stay silent
/// (progress goes to stderr, results go through return values).
fn scan_stdout_purity(rel_path: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    for pair in code.windows(2) {
        if (pair[0].text == "println" || pair[0].text == "print") && pair[1].text == "!" {
            findings.push(Finding {
                path: rel_path.to_string(),
                line: pair[0].line,
                rule: RuleId::StdoutPurity,
                message: format!(
                    "`{}!` in a library crate: figure stdout is byte-compared in CI; \
                     print from binaries only (stderr via `eprintln!` is fine)",
                    pair[0].text
                ),
            });
        }
    }
}

/// `partial_cmp` is a replay hazard on float keys: it is not a total
/// order, and the customary `.unwrap()`/`.expect(...)` escape hatch
/// panics on NaN while silently depending on sort stability for
/// `-0.0`/`0.0`. Require `f64::total_cmp` (or integer keys).
fn scan_float_ord(rel_path: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    for tok in code {
        if tok.text == "partial_cmp" {
            findings.push(Finding {
                path: rel_path.to_string(),
                line: tok.line,
                rule: RuleId::FloatOrd,
                message: "`partial_cmp` on sort/event keys is not a total order; use \
                          `total_cmp` or integer keys"
                    .to_string(),
            });
        }
    }
}

/// `unsafe` tokens are banned everywhere: the workspace has no code
/// that needs one, and every crate root forbids them to the compiler
/// too (`lib-attrs`).
fn scan_unsafe(rel_path: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    for tok in code {
        if tok.text == "unsafe" {
            findings.push(Finding {
                path: rel_path.to_string(),
                line: tok.line,
                rule: RuleId::UnsafeCode,
                message: "`unsafe` is banned in this workspace; use a safe construction"
                    .to_string(),
            });
        }
    }
}

/// The `(level, lint)` pairs every crate root pins.
const PINNED_LINTS: &[(&str, &str)] = &[
    ("forbid", "unsafe_code"),
    ("deny", "missing_docs"),
    ("deny", "unreachable_pub"),
];

/// Crate roots must pin `#![forbid(unsafe_code)]`,
/// `#![deny(missing_docs)]` and `#![deny(unreachable_pub)]` so the
/// compiler itself enforces the contracts between linter runs. A later
/// `warn`/`allow`/`expect` of a pinned lint wins over the pin, so it
/// is a finding too.
fn scan_lib_attrs(rel_path: &str, cfg: &LintConfig, code: &[&Token], findings: &mut Vec<Finding>) {
    let is_lib_root = rel_path == "src/lib.rs"
        || (rel_path.starts_with("crates/") && rel_path.ends_with("/src/lib.rs"));
    if !is_lib_root || cfg.lib_attr_exempt.iter().any(|p| p == rel_path) {
        return;
    }
    // Every `(level, lint, line)` named by an inner `#![level(...)]`.
    let mut levels: Vec<(&str, &str, u32)> = Vec::new();
    for (i, w) in code.windows(5).enumerate() {
        if w[0].text != "#" || w[1].text != "!" || w[2].text != "[" || w[4].text != "(" {
            continue;
        }
        let level = w[3].text.as_str();
        if !matches!(level, "forbid" | "deny" | "warn" | "allow" | "expect") {
            continue;
        }
        for tok in code[i + 5..].iter().take_while(|t| t.text != ")") {
            if tok.kind == TokenKind::Ident {
                levels.push((level, tok.text.as_str(), tok.line));
            }
        }
    }
    for &(pinned, lint) in PINNED_LINTS {
        let mut named = levels.iter().filter(|(_, l, _)| *l == lint);
        // `any` stops at the pin, so `find` sees only what follows it.
        if !named.any(|(level, _, _)| *level == pinned) {
            findings.push(Finding {
                path: rel_path.to_string(),
                line: 1,
                rule: RuleId::LibAttrs,
                message: format!("crate root is missing `#![{pinned}({lint})]`"),
            });
        } else if let Some((level, _, line)) =
            named.find(|(level, _, _)| matches!(*level, "warn" | "allow" | "expect"))
        {
            findings.push(Finding {
                path: rel_path.to_string(),
                line: *line,
                rule: RuleId::LibAttrs,
                message: format!(
                    "`#![{level}({lint})]` after `#![{pinned}({lint})]` lowers the pinned \
                     level (the later attribute wins); delete it"
                ),
            });
        }
    }
}

/// Apply suppression pragmas: a finding is suppressed by a pragma for
/// the same rule in the same file on the same line or the line directly
/// above. Unused pragmas become findings themselves — suppressions must
/// stay anchored to the code they excuse.
fn apply_pragmas(findings: Vec<Finding>, pragmas: &mut [PragmaEntry]) -> Vec<Finding> {
    let mut surviving = Vec::new();
    for finding in findings {
        let mut suppressed = false;
        for pragma in pragmas.iter_mut() {
            if pragma.rule == finding.rule
                && pragma.path == finding.path
                && (pragma.line == finding.line || pragma.line + 1 == finding.line)
            {
                pragma.used = true;
                suppressed = true;
                break;
            }
        }
        if !suppressed {
            surviving.push(finding);
        }
    }
    for pragma in pragmas.iter().filter(|p| !p.used) {
        surviving.push(Finding {
            path: pragma.path.clone(),
            line: pragma.line,
            rule: RuleId::Pragma,
            message: format!(
                "unused suppression pragma allow({}); remove it or move it next to \
                 the code it excuses",
                pragma.rule
            ),
        });
    }
    surviving
}

/// Lint one source file. Returns surviving findings plus the pragma
/// inventory (with usage marked).
#[must_use]
pub fn lint_source(
    rel_path: &str,
    source: &str,
    cfg: &LintConfig,
) -> (Vec<Finding>, Vec<PragmaEntry>) {
    let tokens = lex(source);
    let code: Vec<&Token> = tokens.iter().filter(|t| t.is_code()).collect();
    let class = classify(rel_path);

    let mut findings = Vec::new();
    let mut pragmas = collect_pragmas(rel_path, &tokens, &mut findings);

    if cfg.nondet_sanction(rel_path).is_none() {
        scan_nondet(rel_path, &code, &mut findings);
        scan_pointer_format(rel_path, &tokens, &mut findings);
    }
    if class == FileClass::Library {
        scan_stdout_purity(rel_path, &code, &mut findings);
    }
    scan_float_ord(rel_path, &code, &mut findings);
    scan_unsafe(rel_path, &code, &mut findings);
    scan_lib_attrs(rel_path, cfg, &code, &mut findings);

    let mut surviving = apply_pragmas(findings, &mut pragmas);
    surviving.sort_by_key(|f| (f.line, f.rule));
    (surviving, pragmas)
}

/// Extract the dependency name from one line of a `[dependencies]`
/// section (`mafic-netsim.workspace = true`, `rand = { path = ... }`).
fn dep_name(line: &str) -> Option<&str> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') || line.starts_with('[') {
        return None;
    }
    let name = line
        .split(|c: char| c == '.' || c == '=' || c.is_whitespace())
        .next()?
        .trim();
    (!name.is_empty()).then_some(name)
}

/// Lint one `Cargo.toml` against the crate-layering DAG.
///
/// `[dependencies]` must match the crate's exact allowlist;
/// `[dev-dependencies]` may additionally reach any crate of strictly
/// lower rank (test conveniences must not become compiled back-edges).
/// Any dependency that is neither a workspace crate nor a vendored
/// stand-in is rejected outright: the build environment is offline.
#[must_use]
pub fn lint_manifest(rel_path: &str, source: &str, cfg: &LintConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut section = String::new();
    let mut package_name = String::new();

    // First pass: find the package name.
    for line in source.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            section = trimmed.trim_matches(['[', ']']).to_string();
        } else if section == "package" && trimmed.starts_with("name") {
            if let Some(v) = trimmed.split('"').nth(1) {
                package_name = v.to_string();
            }
        }
    }
    let Some(layer) = cfg.layer(&package_name) else {
        findings.push(Finding {
            path: rel_path.to_string(),
            line: 1,
            rule: RuleId::Layering,
            message: format!(
                "package `{package_name}` is not in the crate-layering DAG; add it to \
                 the lint config with its rank and dependency allowlist"
            ),
        });
        return findings;
    };

    section.clear();
    for (idx, line) in source.lines().enumerate() {
        let line_no = u32::try_from(idx + 1).unwrap_or(u32::MAX);
        let trimmed = line.trim();
        let mut dotted_dep: Option<(&str, bool)> = None;
        if trimmed.starts_with('[') {
            section = trimmed.trim_matches(['[', ']']).to_string();
            // Dotted table form: `[dependencies.foo]` / the
            // `[dev-dependencies.foo]` variant declare a dep too.
            dotted_dep = section
                .strip_prefix("dependencies.")
                .map(|n| (n, false))
                .or_else(|| section.strip_prefix("dev-dependencies.").map(|n| (n, true)));
            if dotted_dep.is_none() {
                continue;
            }
        }
        let (name, is_dev) = if let Some((name, is_dev)) = dotted_dep {
            (name, is_dev)
        } else {
            let is_dev = match section.as_str() {
                "dependencies" => false,
                "dev-dependencies" => true,
                _ => continue,
            };
            let Some(name) = dep_name(trimmed) else {
                continue;
            };
            (name, is_dev)
        };
        let allowed = if is_dev {
            cfg.external_allowed.contains(&name)
                || cfg.layer(name).is_some_and(|dep| dep.rank < layer.rank)
        } else {
            layer.deps.contains(&name)
        };
        if !allowed {
            let kind = if is_dev {
                "dev-dependency"
            } else {
                "dependency"
            };
            findings.push(Finding {
                path: rel_path.to_string(),
                line: line_no,
                rule: RuleId::Layering,
                message: format!(
                    "{kind} `{name}` is not allowed for `{package_name}` by the crate \
                     DAG (back-edge, unknown crate, or non-vendored external)"
                ),
            });
        }
    }
    findings
}
