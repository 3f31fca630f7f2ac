//! The workspace-level `dead-pub` rule: a `pub` item that no file
//! outside its crate names.
//!
//! `#![deny(unreachable_pub)]` lets the compiler catch a `pub` item no
//! crate root exports; it cannot see whether any *other* crate uses an
//! exported one. This pass closes that side by name: it collects every
//! identifier token of every file outside a crate's library sources
//! (other crates, bins, `tests/`, `examples/`, the benchmark, and
//! every doc-test, which rustdoc compiles as a crate of its own) and
//! reports each `pub` item of the crate whose name is not among them.
//! Exactly the item each `#[cfg(test)]` annotates is skipped, so a
//! test module's helpers are never findings and an item after one
//! still is.
//!
//! Matching by name over-approximates use (a method named `new` is
//! always "used"), so the rule never fires on a live item; what it
//! reports has no user outside its crate and should be `pub(crate)`.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Token, TokenKind};
use crate::report::{Finding, RuleId};

/// Item keywords whose `pub` form the rule audits.
const ITEM_KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

/// The library crate a workspace-relative path belongs to (`crates/x`,
/// or `""` for the facade's `src/`), or `None` for a file that can
/// only use items: bins, tests, examples, benches, the benchmark.
fn owner(rel_path: &str) -> Option<&str> {
    if rel_path.contains("/bin/") || rel_path.ends_with("/main.rs") {
        return None;
    }
    if rel_path.starts_with("src/") {
        return Some("");
    }
    let rest = rel_path.strip_prefix("crates/")?;
    let name = rest.split('/').next()?;
    rest[name.len()..]
        .starts_with("/src/")
        .then(|| &rel_path[.."crates/".len() + name.len()])
}

/// Index just past the balanced group opening at `code[open]`.
fn skip_group(code: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, tok) in code.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// Keywords that start an item once its visibility is skipped.
const ITEM_STARTS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "union",
    "trait",
    "type",
    "const",
    "static",
    "mod",
    "impl",
    "use",
    "extern",
    "unsafe",
    "async",
    "macro_rules",
];

/// Index just past the entry starting at `code[at]`, outer attributes
/// included. An item (an [`ITEM_STARTS`] keyword after any visibility)
/// ends at a `;` outside any group or with its first top-level
/// `{ ... }` block. Any other entry — a field, a variant, a match arm,
/// a statement — ends after its first `,` or `;` outside any group or
/// type's `<...>`, or just before the closer of the group it sits in.
fn skip_item(code: &[&Token], mut at: usize) -> usize {
    while at + 1 < code.len() && code[at].text == "#" && code[at + 1].text == "[" {
        at = skip_group(code, at + 1);
    }
    let mut head = at;
    if code.get(head).is_some_and(|t| t.text == "pub") {
        head += 1;
        if code.get(head).is_some_and(|t| t.text == "(") {
            head = skip_group(code, head);
        }
    }
    let is_item = code
        .get(head)
        .is_some_and(|t| ITEM_STARTS.contains(&t.text.as_str()));
    // Open `<`s of a type such as `BTreeMap<K, V>`.
    let mut angles = 0usize;
    while at < code.len() {
        match code[at].text.as_str() {
            ";" => return at + 1,
            "{" if is_item => return skip_group(code, at),
            "(" | "[" | "{" => at = skip_group(code, at),
            ")" | "]" | "}" => return at,
            "," if !is_item && angles == 0 => return at + 1,
            "<" => {
                angles += 1;
                at += 1;
            }
            ">" if code[at - 1].text != "-" => {
                angles = angles.saturating_sub(1);
                at += 1;
            }
            _ => at += 1,
        }
    }
    at
}

/// Does `code[at..]` start with the tokens of `seq`?
fn starts_with(code: &[&Token], at: usize, seq: &[&str]) -> bool {
    seq.len() <= code.len() - at && seq.iter().zip(&code[at..]).all(|(s, t)| t.text == *s)
}

/// One `pub` item: its name, line, and the identifiers of its public
/// signature (a fn's header, a struct's header and `pub` fields, the
/// whole of an enum, trait, type alias, const or static).
struct PubItem<'t> {
    name: &'t str,
    line: u32,
    signature: Vec<&'t str>,
}

/// The identifiers of the public signature of the item whose `kind`
/// keyword sits at `code[at]`.
fn signature<'t>(code: &[&'t Token], at: usize) -> Vec<&'t str> {
    let kind = code[at].text.as_str();
    let end = match kind {
        "mod" => at,
        "fn" => (at..code.len())
            .find(|&i| matches!(code[i].text.as_str(), "{" | ";"))
            .unwrap_or(code.len()),
        _ => skip_item(code, at),
    };
    let mut idents = Vec::new();
    // A struct's body counts only inside `pub` fields.
    let (mut depth, mut in_pub_field) = (0usize, false);
    for (i, tok) in code.iter().enumerate().take(end).skip(at + 2) {
        match tok.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ">" if code[i - 1].text == "-" => {} // `->`
            ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
            "," if depth == 1 => in_pub_field = false,
            "pub" if depth == 1 => {
                in_pub_field = code.get(i + 1).is_some_and(|t| t.text != "(");
            }
            _ => {}
        }
        if tok.kind == TokenKind::Ident && (kind != "struct" || depth == 0 || in_pub_field) {
            idents.push(tok.text.as_str());
        }
    }
    idents
}

/// One file's non-comment tokens less exactly the items `#[cfg(test)]`
/// annotates (and none at all under `#![cfg(test)]`).
/// `dead-pub` and `size` both read this view, so they agree on what
/// test code is.
pub(crate) fn non_test(tokens: &[Token]) -> Vec<&Token> {
    const CFG_TEST: &[&str] = &["[", "cfg", "(", "test", ")", "]"];
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut kept = Vec::with_capacity(code.len());
    let mut i = 0;
    while i < code.len() {
        if code[i].text == "#" {
            if starts_with(&code, i + 1, CFG_TEST) {
                i = skip_item(&code, i + 1 + CFG_TEST.len());
                continue;
            }
            if code.get(i + 1).is_some_and(|t| t.text == "!") && starts_with(&code, i + 2, CFG_TEST)
            {
                return Vec::new();
            }
        }
        kept.push(code[i]);
        i += 1;
    }
    kept
}

/// Every `pub` item in one file's [`non_test`] tokens.
fn pub_items<'t>(code: &[&'t Token]) -> Vec<PubItem<'t>> {
    let mut items = Vec::new();
    for (i, tok) in code.iter().enumerate() {
        if tok.text == "pub" {
            let mut k = i + 1;
            // `pub const fn`, `pub async fn`, `pub unsafe fn`.
            if code.get(k + 1).is_some_and(|t| t.text == "fn")
                && matches!(code[k].text.as_str(), "const" | "async" | "unsafe")
            {
                k += 1;
            }
            if let (Some(kind), Some(name)) = (code.get(k), code.get(k + 1)) {
                if ITEM_KINDS.contains(&kind.text.as_str()) && name.text != "_" {
                    items.push(PubItem {
                        name: &name.text,
                        line: tok.line,
                        signature: signature(code, k),
                    });
                }
            }
        }
    }
    items
}

/// The Rust code of the doc-tests in one file's doc comments, one line
/// per line (fences tagged `text` or another language are skipped).
fn doctest_source(tokens: &[Token]) -> String {
    let is_rust = |info: &str| {
        info.split(',').all(|tag| {
            matches!(
                tag.trim(),
                "" | "rust" | "no_run" | "should_panic" | "ignore" | "compile_fail"
            )
        })
    };
    let mut out = String::new();
    let mut fence: Option<bool> = None;
    for tok in tokens.iter().filter(|t| t.kind == TokenKind::LineComment) {
        let Some(line) = tok
            .text
            .strip_prefix("///")
            .or(tok.text.strip_prefix("//!"))
        else {
            continue;
        };
        if let Some(info) = line.trim_start().strip_prefix("```") {
            fence = match fence {
                None => Some(is_rust(info)),
                Some(_) => None,
            };
        } else if fence == Some(true) {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Workspace-level `dead-pub` pass over `(path, source)` pairs of
/// workspace-relative paths. Only files of a library crate define
/// findings; every other file (the benchmark's included) is read as a
/// user.
///
/// An item is live when a file outside its crate names it, or when the
/// public signature of a live item of the same crate names it (a type
/// that callers reach only through a live method's return value stays
/// `pub`, as the compiler's `private_interfaces` lint requires).
#[must_use]
pub fn dead_pub(files: &[(String, String)]) -> Vec<Finding> {
    let lexed: Vec<(&str, Vec<Token>)> = files
        .iter()
        .map(|(path, src)| (path.as_str(), lex(src)))
        .collect();
    let doctests: Vec<Vec<Token>> = lexed.iter().map(|(_, t)| lex(&doctest_source(t))).collect();
    // Identifier -> the owners of the files naming it (`None` = a
    // file outside every library crate, or a doc-test).
    let mut named_in: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    for ((path, tokens), doctest) in lexed.iter().zip(&doctests) {
        for tok in tokens.iter().filter(|t| t.is_code()) {
            named_in.entry(&tok.text).or_default().insert(owner(path));
        }
        for tok in doctest.iter().filter(|t| t.is_code()) {
            named_in.entry(&tok.text).or_default().insert(None);
        }
    }
    // Every audited item, with its file and crate, in walk order.
    let mut items = Vec::new();
    for (path, tokens) in &lexed {
        let Some(krate) = owner(path) else { continue };
        items.extend(
            pub_items(&non_test(tokens))
                .into_iter()
                .map(|it| (*path, krate, it)),
        );
    }
    let mut by_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (idx, (_, krate, it)) in items.iter().enumerate() {
        by_name.entry((krate, it.name)).or_default().push(idx);
    }
    let mut live: Vec<bool> = items
        .iter()
        .map(|(_, krate, it)| {
            named_in
                .get(it.name)
                .is_some_and(|owners| owners.iter().any(|o| *o != Some(*krate)))
        })
        .collect();
    let mut work: Vec<usize> = (0..items.len()).filter(|&i| live[i]).collect();
    while let Some(idx) = work.pop() {
        let (_, krate, it) = &items[idx];
        for name in &it.signature {
            for &j in by_name.get(&(*krate, *name)).into_iter().flatten() {
                if !live[j] {
                    live[j] = true;
                    work.push(j);
                }
            }
        }
    }
    items
        .iter()
        .zip(live)
        .filter(|(_, live)| !live)
        .map(|((path, _, it), _)| Finding {
            path: (*path).to_string(),
            line: it.line,
            rule: RuleId::DeadPub,
            message: format!(
                "`pub` item `{}` is named by no file outside its crate nor by a live \
                 signature; make it `pub(crate)` or private",
                it.name
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<(String, u32)> {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
            .collect();
        dead_pub(&files)
            .into_iter()
            .map(|f| (f.path, f.line))
            .collect()
    }

    #[test]
    fn owners() {
        assert_eq!(owner("crates/netsim/src/sim.rs"), Some("crates/netsim"));
        assert_eq!(owner("crates/netsim/src/bin/x.rs"), None);
        assert_eq!(owner("crates/lint/src/main.rs"), None);
        assert_eq!(owner("crates/lint/tests/fixtures.rs"), None);
        assert_eq!(owner("src/lib.rs"), Some(""));
        assert_eq!(owner("tests/ledger.rs"), None);
        assert_eq!(owner("benchmark/src/drivers.rs"), None);
    }

    #[test]
    fn item_named_only_inside_its_crate_is_dead() {
        let found = run(&[
            (
                "crates/a/src/lib.rs",
                "pub fn lonely() {}\npub fn shared() { lonely() }\n",
            ),
            ("crates/a/src/other.rs", "fn f() { lonely(); }\n"),
            ("tests/t.rs", "fn g() { shared(); }\n"),
        ]);
        assert_eq!(found, vec![("crates/a/src/lib.rs".to_string(), 1)]);
    }

    #[test]
    fn restricted_visibility_and_re_exports_are_not_audited() {
        let src = "pub(crate) fn a() {}\npub use x::b;\npub(super) struct C;\n";
        assert!(run(&[("crates/a/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn cfg_test_skips_exactly_the_annotated_item() {
        // An item after a test module is still audited.
        let src = "#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n\
                   #[cfg(test)]\n#[allow(x)]\npub fn only_tests(a: [u8; 2]) {}\n\
                   pub fn after() {}\n";
        assert_eq!(
            run(&[("crates/a/src/sim.rs", src)]),
            vec![("crates/a/src/sim.rs".to_string(), 8)]
        );
    }

    #[test]
    fn cfg_test_field_skips_only_the_field() {
        let src = "pub struct S {\n    #[cfg(test)]\n    pub a: u8,\n}\npub fn after() {}\n";
        let found = run(&[
            ("crates/a/src/sim.rs", src),
            ("tests/t.rs", "fn t(s: S) {}"),
        ]);
        assert_eq!(found, vec![("crates/a/src/sim.rs".to_string(), 5)]);
    }

    #[test]
    fn a_live_signature_keeps_its_types_live() {
        let src = "pub struct Out { pub f: Box<dyn Fn() -> Stats>, hidden: Hidden }\n\
                   pub struct Stats;\npub struct Hidden;\n\
                   pub fn run(cfg: &Config) -> Out { todo!() }\npub struct Config;\n\
                   pub fn dead(x: Orphan) {}\npub struct Orphan;\n";
        let found = run(&[
            ("crates/a/src/lib.rs", src),
            ("tests/t.rs", "fn t() { run(); }"),
        ]);
        let lines: Vec<u32> = found.iter().map(|(_, l)| *l).collect();
        assert_eq!(lines, vec![3, 6, 7], "Hidden, dead and Orphan");
    }

    #[test]
    fn doctests_are_users_but_text_fences_are_not() {
        let src = "/// ```\n/// let e = Estimator::new();\n/// ```\npub struct Estimator;\n\
                   /// ```text\n/// Prose::new()\n/// ```\npub struct Prose;\n";
        assert_eq!(
            run(&[("crates/a/src/rtt.rs", src)]),
            vec![("crates/a/src/rtt.rs".to_string(), 8)]
        );
    }

    #[test]
    fn qualified_fn_forms_are_audited() {
        let src = "pub const fn a() {}\npub const B: u8 = 0;\npub unsafe fn c() {}\n";
        assert_eq!(run(&[("crates/a/src/lib.rs", src)]).len(), 3);
    }
}
