//! The ledger differ must be able to fail: `run_ledger`'s first grid
//! entry at two seeds gives two ledgers, and `diff_ledgers` must name
//! the first interval at which they diverge. A differ that silently
//! compared nothing would report them identical.

use mafic_obs::{diff_ledgers, Divergence, RunLedger};
use std::process::Command;

/// The ledger `run_ledger --only 0 --seed <seed>` prints.
fn ledger(seed: u64) -> RunLedger {
    let out = Command::new(env!("CARGO_BIN_EXE_run_ledger"))
        .args(["--only", "0", "--seed", &seed.to_string()])
        .env("MAFIC_JOBS", "1")
        .output()
        .expect("run_ledger starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "run_ledger --seed {seed}: {stderr}");
    let jsonl = String::from_utf8(out.stdout).expect("run_ledger prints UTF-8");
    RunLedger::from_jsonl(&jsonl).expect("run_ledger prints one ledger")
}

#[test]
fn a_perturbed_seed_is_a_named_first_divergence() {
    let report = diff_ledgers(&ledger(1), &ledger(2));
    assert!(
        matches!(report.finding, Divergence::FirstDivergence { .. }),
        "seeds 1 and 2 must diverge at a named interval, got:\n{report}"
    );
    assert!(
        report.to_string().contains("first divergence: interval"),
        "{report}"
    );
}
