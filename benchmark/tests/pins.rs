//! The output check must be able to fail: one short workload run at
//! seed 7 against the seed-6 pins has to report failed operations and
//! exit non-zero, while the same run at seed 6 passes.

use std::path::Path;
use std::process::Command;

/// Runs the benchmark binary on `bare_forward` with one warm-up and one
/// timed repetition; returns `(exit ok, last stdout line)`.
fn run(seed: &str, expected: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mafic-benchmark"))
        .args([
            "--workload",
            "bare_forward",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .args(["--seed", seed, "--expected"])
        .arg(expected)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

#[test]
fn pins_pass_at_their_seed_and_fail_at_another() {
    let pins = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    let (ok, line) = run("6", &pins);
    assert!(ok, "seed 6 against its own pins: {line}");
    assert!(
        line.contains("\"correct\":true") && line.contains("\"failed\":0,"),
        "{line}"
    );

    // The same pins, relabelled as if they had been recorded at seed 7.
    let text = std::fs::read_to_string(&pins).unwrap();
    assert!(text.contains("\"seed\": 6"));
    let relabelled = Path::new(env!("CARGO_TARGET_TMPDIR")).join("expected_seed7.json");
    std::fs::write(&relabelled, text.replace("\"seed\": 6", "\"seed\": 7")).unwrap();
    let (ok, line) = run("7", &relabelled);
    assert!(!ok, "seed 7 against seed-6 pins must exit non-zero: {line}");
    assert!(line.contains("\"correct\":false"), "{line}");
    assert!(!line.contains("\"failed\":0,"), "{line}");
}
