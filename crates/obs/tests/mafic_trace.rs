//! `mafic_trace diff` on malformed ledgers: a file the reader rejects
//! exits 2 with the offending line named, never a panic (exit 101) and
//! never a clean diff.

use std::path::PathBuf;
use std::process::Command;

/// A two-component ledger whose one interval carries `hashes`.
fn ledger(hashes: &[&str]) -> String {
    let hashes: Vec<String> = hashes.iter().map(|h| format!("\"{h}\"")).collect();
    format!(
        "{{\"type\":\"header\",\"ledger_version\":1,\"crate_version\":\"0.1.0\",\"seed\":1,\
         \"spec_fingerprint\":\"00000000deadbeef\",\"workers\":0,\"components\":[\"a\",\"b\"],\
         \"counters\":[]}}\n\
         {{\"type\":\"interval\",\"index\":0,\"at_nanos\":100,\"hashes\":[{}],\"counters\":[]}}\n",
        hashes.join(",")
    )
}

/// Runs `mafic_trace diff` on two ledgers written to temporary files:
/// its exit code, then its stdout and stderr together.
fn diff(name: &str, left: &str, right: &str) -> (Option<i32>, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (l, r) = (
        dir.join(format!("{name}_l.jsonl")),
        dir.join(format!("{name}_r.jsonl")),
    );
    std::fs::write(&l, left).unwrap();
    std::fs::write(&r, right).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mafic_trace"))
        .arg("diff")
        .args([&l, &r])
        .output()
        .expect("mafic_trace runs");
    let text = [out.stdout, out.stderr].concat();
    (
        out.status.code(),
        String::from_utf8_lossy(&text).into_owned(),
    )
}

const H1: &str = "0000000000000001";
const H2: &str = "0000000000000002";
const HF: &str = "00000000000000ff";

#[test]
fn diff_exits_2_on_a_hash_count_that_is_not_the_component_count() {
    for (name, left, right) in [
        ("three", ledger(&[H1, H2, H2]), ledger(&[H1, H2, HF])),
        ("one", ledger(&[H1]), ledger(&[H1, HF])),
    ] {
        let (code, out) = diff(name, &left, &right);
        assert_eq!(code, Some(2), "{name}: {out}");
        assert!(out.contains("line 2:"), "{name}: {out}");
    }
    // The well-formed pair still diffs, and names the second component.
    let (code, out) = diff("whole", &ledger(&[H1, H2]), &ledger(&[H1, HF]));
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("interval 0 (t=0.000s), component b"), "{out}");
}
