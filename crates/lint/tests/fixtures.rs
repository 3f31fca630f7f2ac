//! Fixture corpus for the determinism linter: each known-bad snippet
//! fires its rule exactly once, allow-pragmas are honored (and audited
//! when unused), and the lexer edge cases that motivated a real lexer
//! never produce false positives.
//!
//! Every snippet lives in a raw string, which is itself a living proof
//! of the lexer contract: this file is scanned by the workspace pass,
//! and none of the "violations" below may fire here.

use mafic_lint::{dead_pub, lint_manifest, lint_source, size, Finding, LintConfig, RuleId};

/// Lint a snippet as if it were the named workspace file, returning
/// only the findings.
fn findings(path: &str, src: &str) -> Vec<(RuleId, u32)> {
    let cfg = LintConfig::workspace();
    let (found, _) = lint_source(path, src, &cfg);
    found.into_iter().map(|f| (f.rule, f.line)).collect()
}

/// Assert the snippet yields exactly one finding of `rule`.
fn fires_once(path: &str, src: &str, rule: RuleId) {
    let found = findings(path, src);
    assert_eq!(
        found.len(),
        1,
        "expected exactly one finding in {path}, got {found:?}\nsource:\n{src}"
    );
    assert_eq!(found[0].0, rule, "wrong rule for {path}: {found:?}");
}

const LIB: &str = "crates/netsim/src/sim.rs";

// ---------------------------------------------------------------- nondet

#[test]
fn nondet_instant_now_fires_once() {
    fires_once(
        LIB,
        r#"fn t() { let _start = std::time::Instant::now(); }"#,
        RuleId::Nondet,
    );
}

#[test]
fn nondet_system_time_fires_once() {
    fires_once(
        LIB,
        r#"use std::time::SystemTime; fn t() {}"#,
        RuleId::Nondet,
    );
}

#[test]
fn nondet_bare_instant_now_fires_once() {
    fires_once(LIB, r#"fn t() { let _ = Instant::now(); }"#, RuleId::Nondet);
}

#[test]
fn nondet_std_thread_fires_once() {
    fires_once(
        LIB,
        r#"fn t() { std::thread::yield_now(); }"#,
        RuleId::Nondet,
    );
}

#[test]
fn nondet_std_env_fires_once() {
    fires_once(
        LIB,
        r#"fn t() -> Option<String> { std::env::var("MAFIC_JOBS").ok() }"#,
        RuleId::Nondet,
    );
}

#[test]
fn nondet_thread_rng_fires_once() {
    fires_once(
        LIB,
        r#"fn t() { let mut rng = rand::thread_rng(); }"#,
        RuleId::Nondet,
    );
}

#[test]
fn nondet_rand_random_fires_once() {
    fires_once(LIB, r#"fn t() -> f64 { rand::random() }"#, RuleId::Nondet);
}

#[test]
fn nondet_random_state_fires_once() {
    fires_once(
        LIB,
        r#"fn t(s: RandomState) { let _ = s; }"#,
        RuleId::Nondet,
    );
}

#[test]
fn nondet_hash_map_module_path_fires_once() {
    fires_once(
        LIB,
        r#"fn t(e: hash_map::Entry<u32, u32>) {}"#,
        RuleId::Nondet,
    );
}

#[test]
fn nondet_hashbrown_fires_once() {
    fires_once(
        LIB,
        r#"fn t(m: hashbrown::HashMap<u32, u32>) {}"#,
        RuleId::Nondet,
    );
}

#[test]
fn nondet_pointer_format_fires_once() {
    fires_once(
        LIB,
        // mafic-lint: allow(nondet) -- fixture: the banned pattern under test lives in this string
        r#"fn t(x: &u32) { eprintln!("at {:p}", x); }"#,
        RuleId::Nondet,
    );
}

#[test]
fn nondet_sanctioned_file_is_exempt() {
    let src = r#"fn pool() { std::thread::scope(|_| {}); let _ = std::env::var("MAFIC_JOBS"); }"#;
    assert!(
        findings("crates/experiments/src/engine.rs", src).is_empty(),
        "engine.rs is the sanctioned nondeterminism boundary"
    );
    // The same source in any other file fires (twice: thread + env).
    assert_eq!(findings(LIB, src).len(), 2);
}

// --------------------------------------------------------- stdout purity

#[test]
fn stdout_println_in_library_fires_once() {
    fires_once(
        LIB,
        r#"fn report() { println!("interval done"); }"#,
        RuleId::StdoutPurity,
    );
}

#[test]
fn stdout_print_in_library_fires_once() {
    fires_once(LIB, r#"fn report() { print!("x"); }"#, RuleId::StdoutPurity);
}

#[test]
fn stdout_println_in_binary_is_fine() {
    let src = r#"fn main() { println!("fig3 row"); }"#;
    assert!(findings("crates/experiments/src/bin/figures.rs", src).is_empty());
}

#[test]
fn stdout_println_in_tests_and_examples_is_fine() {
    let src = r#"fn main() { println!("demo"); }"#;
    assert!(findings("examples/quickstart.rs", src).is_empty());
    assert!(findings("tests/determinism.rs", src).is_empty());
}

#[test]
fn stderr_eprintln_is_always_fine() {
    let src = r#"fn progress() { eprintln!("job 3/10"); }"#;
    assert!(findings(LIB, src).is_empty());
}

// ------------------------------------------------------------- float-ord

#[test]
fn float_partial_cmp_unwrap_fires_once() {
    fires_once(
        LIB,
        r#"fn t(xs: &mut Vec<f64>) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }"#,
        RuleId::FloatOrd,
    );
}

#[test]
fn float_total_cmp_is_fine() {
    let src = r#"fn t(xs: &mut Vec<f64>) { xs.sort_by(f64::total_cmp); }"#;
    assert!(findings(LIB, src).is_empty());
}

// ----------------------------------------------------------- unsafe-code

#[test]
fn unsafe_fires_once_in_any_file() {
    fires_once(
        LIB,
        r#"fn t(p: *const u8) -> u8 { unsafe { *p } }"#,
        RuleId::UnsafeCode,
    );
}

// ------------------------------------------------------------- lib-attrs

#[test]
fn lib_rs_missing_every_attr_fires_once_per_attr() {
    let found = findings("crates/netsim/src/lib.rs", r#"pub fn x() {}"#);
    assert_eq!(found.len(), 3, "{found:?}");
    assert!(found.iter().all(|(r, _)| *r == RuleId::LibAttrs));
}

/// The three pinned crate-root attributes.
const PINS: &str = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n#![deny(unreachable_pub)]\n";

#[test]
fn lib_rs_with_every_attr_is_clean() {
    let src = format!("{PINS}pub fn x() {{}}\n");
    assert!(findings("crates/netsim/src/lib.rs", &src).is_empty());
    let grouped = "#![forbid(unsafe_code)]\n#![deny(missing_docs, unreachable_pub)]\n";
    assert!(findings("src/lib.rs", grouped).is_empty());
}

#[test]
fn lib_rs_lowering_a_pinned_lint_fires_at_the_lowering() {
    // The later attribute wins, so a `warn` after the `deny` is a
    // crate that only warns.
    let src = format!("{PINS}#![warn(missing_docs)]\npub fn x() {{}}\n");
    assert_eq!(
        findings("crates/netsim/src/lib.rs", &src),
        vec![(RuleId::LibAttrs, 4)]
    );
    let src = format!("{PINS}#![allow(unreachable_pub)]\n");
    assert_eq!(findings("src/lib.rs", &src), vec![(RuleId::LibAttrs, 4)]);
}

#[test]
fn non_lib_files_skip_the_attr_rule() {
    assert!(findings("crates/netsim/src/sim.rs", r#"pub fn x() {}"#).is_empty());
}

// --------------------------------------------------------------- pragmas

#[test]
fn allow_pragma_suppresses_and_is_inventoried_as_used() {
    let cfg = LintConfig::workspace();
    let src = "fn report() {\n    // mafic-lint: allow(stdout-purity) -- doctest capture needs stdout here\n    println!(\"x\");\n}\n";
    let (found, pragmas) = lint_source(LIB, src, &cfg);
    assert!(found.is_empty(), "{found:?}");
    assert_eq!(pragmas.len(), 1);
    assert!(pragmas[0].used);
    assert_eq!(pragmas[0].rule, RuleId::StdoutPurity);
    assert_eq!(pragmas[0].reason, "doctest capture needs stdout here");
}

#[test]
fn same_line_pragma_suppresses() {
    let src = "fn report() { println!(\"x\"); // mafic-lint: allow(stdout-purity) -- demo\n}\n";
    assert!(findings(LIB, src).is_empty());
}

#[test]
fn pragma_for_wrong_rule_does_not_suppress() {
    let src =
        "fn report() {\n    // mafic-lint: allow(nondet) -- wrong rule\n    println!(\"x\");\n}\n";
    let found = findings(LIB, src);
    // The stdout finding survives AND the pragma is flagged unused.
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found.iter().any(|(r, _)| *r == RuleId::StdoutPurity));
    assert!(found.iter().any(|(r, _)| *r == RuleId::Pragma));
}

#[test]
fn pragma_without_reason_is_malformed() {
    fires_once(
        LIB,
        "fn x() {}\n// mafic-lint: allow(nondet)\n",
        RuleId::Pragma,
    );
}

#[test]
fn pragma_with_unknown_rule_is_malformed() {
    fires_once(
        LIB,
        "fn x() {}\n// mafic-lint: allow(no-such-rule) -- why\n",
        RuleId::Pragma,
    );
}

#[test]
fn unused_pragma_is_a_finding() {
    fires_once(
        LIB,
        "fn x() {}\n// mafic-lint: allow(float-ord) -- nothing here needs it\n",
        RuleId::Pragma,
    );
}

// ------------------------------------------------------ lexer edge cases

#[test]
fn println_inside_raw_string_never_fires() {
    let src = r##"fn fixture() -> &'static str { r#"println!("x"); print!("y");"# }"##;
    assert!(findings(LIB, src).is_empty());
}

#[test]
fn banned_path_inside_plain_string_never_fires() {
    let src = r#"fn doc() -> &'static str { "call std::time::Instant::now() for wall time" }"#;
    assert!(findings(LIB, src).is_empty());
}

#[test]
fn banned_path_inside_nested_block_comment_never_fires() {
    let src = "/* outer /* std::time::Instant::now() */ still comment println! */ fn x() {}\n";
    assert!(findings(LIB, src).is_empty());
}

#[test]
fn banned_path_inside_doc_comment_never_fires() {
    let src = "/// Unlike `std::time::Instant`, sim time is replayable.\npub fn x() {}\n";
    assert!(findings(LIB, src).is_empty());
}

#[test]
fn lifetime_vs_char_literal_disambiguation() {
    // `'a` lifetimes must not confuse the lexer into treating the rest
    // of the file as a char literal (which would hide violations).
    let src = "fn f<'a>(x: &'a str) -> char { let c = 'x'; let _n = '\\n'; c }\nfn bad() { println!(\"leak\"); }\n";
    let found = findings(LIB, src);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, RuleId::StdoutPurity);
}

#[test]
fn string_with_escaped_quote_does_not_desync_lexer() {
    let src =
        "fn f() -> &'static str { \"esc \\\" quote\" }\nfn bad() { let _ = Instant::now(); }\n";
    let found = findings(LIB, src);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, RuleId::Nondet);
}

// ------------------------------------------------------------- manifests

#[test]
fn manifest_back_edge_fires() {
    let cfg = LintConfig::workspace();
    let src = "[package]\nname = \"mafic-netsim\"\n\n[dependencies]\nmafic-experiments.workspace = true\n";
    let found = lint_manifest("crates/netsim/Cargo.toml", src, &cfg);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, RuleId::Layering);
    assert!(found[0].message.contains("mafic-experiments"));
}

#[test]
fn manifest_dotted_table_back_edge_fires() {
    let cfg = LintConfig::workspace();
    let src = "[package]\nname = \"mafic-netsim\"\n\n[dependencies.mafic-experiments]\nworkspace = true\n";
    let found = lint_manifest("crates/netsim/Cargo.toml", src, &cfg);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, RuleId::Layering);
    assert!(found[0].message.contains("mafic-experiments"));
}

#[test]
fn manifest_unknown_external_dep_fires() {
    let cfg = LintConfig::workspace();
    let src = "[package]\nname = \"mafic-metrics\"\n\n[dependencies]\nserde = \"1\"\n";
    let found = lint_manifest("crates/metrics/Cargo.toml", src, &cfg);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, RuleId::Layering);
}

#[test]
fn manifest_allowed_edges_are_clean() {
    let cfg = LintConfig::workspace();
    let src = "[package]\nname = \"mafic-workload\"\n\n[dependencies]\nmafic.workspace = true\nmafic-netsim.workspace = true\nrand.workspace = true\n";
    assert!(lint_manifest("crates/workload/Cargo.toml", src, &cfg).is_empty());
}

#[test]
fn manifest_dev_dep_may_reach_lower_rank_only() {
    let cfg = LintConfig::workspace();
    // experiments (rank 4) may dev-depend on pushback (rank 2)...
    let ok = "[package]\nname = \"mafic-experiments\"\n\n[dev-dependencies]\nmafic-pushback.workspace = true\nrand.workspace = true\n";
    assert!(lint_manifest("crates/experiments/Cargo.toml", ok, &cfg).is_empty());
    // ...but metrics (rank 2) may not dev-depend on workload (rank 3).
    let bad = "[package]\nname = \"mafic-metrics\"\n\n[dev-dependencies]\nmafic-workload.workspace = true\n";
    let found = lint_manifest("crates/metrics/Cargo.toml", bad, &cfg);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, RuleId::Layering);
}

#[test]
fn manifest_unknown_package_fires() {
    let cfg = LintConfig::workspace();
    let src = "[package]\nname = \"mafic-rogue\"\n";
    let found = lint_manifest("crates/rogue/Cargo.toml", src, &cfg);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, RuleId::Layering);
}

// -------------------------------------------------------------- dead-pub

/// Run the workspace-level `dead-pub` pass over `(path, source)` files.
fn surface(files: &[(&str, &str)]) -> Vec<(RuleId, u32)> {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
        .collect();
    dead_pub(&files)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn dead_pub_cannot_be_suppressed() {
    let src = "// mafic-lint: allow(dead-pub) -- wanted\npub fn x() {}\n";
    assert_eq!(findings(LIB, src), vec![(RuleId::Pragma, 1)]);
    // Nor can `size`, the other workspace-level rule.
    let src = src.replace("dead-pub", "size");
    assert_eq!(findings(LIB, &src), vec![(RuleId::Pragma, 1)]);
}

// ------------------------------------------------------------------ size

/// Run the workspace-level `size` pass over `(path, source)` files
/// against only the given pins.
fn size_pass(
    files: &[(&str, &str)],
    code_size: Vec<(&'static str, usize, usize)>,
    type_size: Vec<(&'static str, usize)>,
) -> Vec<Finding> {
    let cfg = LintConfig {
        code_size,
        type_size,
        ..LintConfig::workspace()
    };
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
        .collect();
    let found = size(&files, &cfg);
    assert!(found.iter().all(|f| f.rule == RuleId::Size), "{found:?}");
    found
}

/// The `size` messages for one fixture crate `crates/a` pinned at
/// `(code lines, pub items)` for both itself and the total.
fn sized(src: &str, pin: (usize, usize), types: &[(&'static str, usize)]) -> Vec<String> {
    let pins = vec![("a", pin.0, pin.1), ("total", pin.0, pin.1)];
    size_pass(&[("crates/a/src/lib.rs", src)], pins, types.to_vec())
        .into_iter()
        .map(|f| f.message)
        .collect()
}

#[test]
fn size_counts_lines_holding_code_tokens_and_pub_items() {
    // Comment-only lines do not count; each line a string spans does.
    let src = "/* block\n   comment */\npub fn a() -> &'static str {\n    // note\n    \"two\n     lines\"\n}\n";
    assert_eq!(sized(src, (4, 1), &[]), Vec::<String>::new());
}

#[test]
fn size_fires_above_and_below_its_pin() {
    let src = "pub fn a() {}\npub fn b() {}\n";
    assert!(sized(src, (2, 2), &[]).is_empty());
    let above = sized(src, (1, 2), &[]);
    assert_eq!(above.len(), 2, "the crate and the total: {above:?}");
    assert_eq!(above[0], "`a` code lines is 2, above its pin 1: justify the growth and raise the pin in `LintConfig::workspace()`");
    let below = sized(src, (2, 3), &[]);
    assert_eq!(below.len(), 2, "{below:?}");
    assert!(
        below[0].starts_with("`a` pub items is 2, below its pin 3"),
        "{}",
        below[0]
    );
}

#[test]
fn size_skips_a_cfg_test_method_inside_an_impl() {
    let src = "impl S {\n    pub fn a() {}\n    #[cfg(test)]\n    pub fn helper() {}\n}\n";
    assert!(sized(src, (3, 1), &[]).is_empty());
}

#[test]
fn size_ends_a_cfg_test_field_at_its_comma() {
    // The skipped field stops at its own comma, not at the next item's
    // block: the `pub fn` after the struct is still measured.
    let src =
        "pub struct S {\n    #[cfg(test)]\n    a: BTreeMap<u8, u8>,\n    b: u8,\n}\npub fn f() {}\n";
    assert_eq!(sized(src, (4, 2), &[]), Vec::<String>::new());
}

#[test]
fn size_ends_a_cfg_test_variant_before_its_closer() {
    // A last variant without a comma stops before the enum's `}`.
    let src = "pub enum E {\n    A,\n    #[cfg(test)]\n    B(u8)\n}\npub fn g() {}\n";
    assert_eq!(sized(src, (4, 2), &[]), Vec::<String>::new());
}

#[test]
fn size_skips_a_whole_cfg_test_generic_fn() {
    // A generic's comma does not end an item: the whole fn is skipped.
    let src = "#[cfg(test)]\nfn f<A, B>() {}\npub fn h() {}\n";
    assert_eq!(sized(src, (1, 1), &[]), Vec::<String>::new());
}

#[test]
fn size_does_not_count_restricted_visibility() {
    let src = "pub(crate) fn a() {}\npub(super) struct B;\npub use c::D;\n";
    assert!(sized(src, (3, 1), &[]).is_empty());
}

#[test]
fn size_counts_pub_fields_and_variants_of_pinned_types() {
    let fields = "pub struct Cfg {\n    pub a: u8,\n    b: u8,\n    pub(crate) c: u8,\n}\n";
    let variants =
        "pub enum Mode {\n    #[default]\n    A,\n    B(u8, u16),\n    C { x: u8, y: u8 },\n}\n";
    let src = format!("{fields}{variants}");
    let types = [("Cfg", 1), ("Mode", 3)];
    assert!(sized(&src, (11, 2), &types).is_empty());
    // A new `pub` field is a new knob: the pin must move with it.
    let src = src.replace("    b: u8,", "    pub b: u8,");
    assert_eq!(
        sized(&src, (11, 2), &types),
        vec!["`Cfg` pub fields is 2, above its pin 1: justify the growth and raise the pin in `LintConfig::workspace()`"]
    );
}

#[test]
fn size_flags_an_unpinned_crate_and_an_unmatched_pin() {
    let found = sized("pub fn a() {}\n", (1, 1), &[("Gone", 1)]);
    assert_eq!(
        found,
        vec!["type `Gone` is pinned but no library crate defines it"]
    );
    let files = [("crates/a/src/lib.rs", "pub fn a() {}\n")];
    let found: Vec<String> = size_pass(&files, vec![("total", 1, 1), ("b", 1, 1)], vec![])
        .into_iter()
        .map(|f| f.message)
        .collect();
    assert_eq!(
        found,
        vec![
            "crate `b` is pinned but has no library sources",
            "crate `a` has no size pin in `LintConfig::workspace()`"
        ]
    );
}

// ----------------------------------------------- each rule class, end-to-end

#[test]
fn every_rule_class_has_a_firing_fixture() {
    // Belt-and-braces: one fixture per RuleId (except none can be
    // missing from this file). Mirrors the --ci exit-code contract:
    // each violation class must be detectable on its own.
    let cases: Vec<(RuleId, Vec<(RuleId, u32)>)> = vec![
        (
            RuleId::Nondet,
            findings(LIB, "fn t() { let _ = Instant::now(); }"),
        ),
        (
            RuleId::StdoutPurity,
            findings(LIB, "fn t() { println!(\"x\"); }"),
        ),
        (
            RuleId::FloatOrd,
            findings(LIB, "fn t(a: f64, b: f64) { let _ = a.partial_cmp(&b); }"),
        ),
        (
            RuleId::UnsafeCode,
            findings(LIB, "fn t(p: *const u8) -> u8 { unsafe { *p } }"),
        ),
        (
            RuleId::LibAttrs,
            findings(
                "crates/netsim/src/lib.rs",
                "#![forbid(unsafe_code)]\n#![deny(unreachable_pub)]\npub fn x() {}",
            ),
        ),
        (RuleId::DeadPub, surface(&[(LIB, "pub fn only_here() {}")])),
        (
            RuleId::Size,
            size_pass(&[(LIB, "pub fn a() {}")], vec![("netsim", 1, 0)], vec![])
                .into_iter()
                .map(|f| (f.rule, f.line))
                .collect(),
        ),
        (
            RuleId::Pragma,
            findings(LIB, "fn x() {}\n// mafic-lint: allow(nondet)\n"),
        ),
    ];
    for (rule, found) in cases {
        assert_eq!(found.len(), 1, "{rule}: {found:?}");
        assert_eq!(found[0].0, rule);
    }
}
