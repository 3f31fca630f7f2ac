//! `mafic_trace` — run-ledger inspector.
//!
//! ```text
//! mafic_trace show <ledger.jsonl>            pretty-print a ledger
//! mafic_trace diff <left.jsonl> <right.jsonl>  first diverging interval/component
//! mafic_trace tail <ledger.jsonl> [n]        last n embedded trace events
//! mafic_trace snapshot <file.snap>           checkpoint header + hash table
//! ```
//!
//! `diff` exits 1 when the ledgers diverge (and prints each ledger's
//! embedded trace tail around the divergence point), 0 when identical,
//! 2 on usage or I/O errors or a malformed ledger (the error names the
//! offending line) — so CI can gate on it directly.
//! `snapshot` exits 1 when the bytes fail to decode (truncation, bad
//! magic, checksum mismatch — the error names the offending section).

use mafic_obs::{diff_ledgers, Divergence, RunLedger, Snapshot};
use std::fmt::Write as _;
use std::process::ExitCode;

fn load(path: &str) -> Result<RunLedger, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    RunLedger::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

fn show(ledger: &RunLedger) {
    let h = &ledger.header;
    println!(
        "ledger v{} · crate {} · seed {} · spec {:016x} · workers {}",
        h.ledger_version, h.crate_version, h.seed, h.spec_fingerprint, h.workers
    );
    println!(
        "{} components, {} counters, {} intervals, {} trace lines",
        ledger.components.len(),
        ledger.counters.len(),
        ledger.intervals.len(),
        ledger.trace_tail.len()
    );
    println!("components: {}", ledger.components.join(", "));
    if !ledger.counters.is_empty() {
        println!("counters:   {}", ledger.counters.join(", "));
    }
    for rec in &ledger.intervals {
        let mut line = format!(
            "interval {:>4} t={:>8.3}s",
            rec.index,
            rec.at_nanos as f64 / 1e9
        );
        for (name, hash) in ledger.components.iter().zip(&rec.hashes) {
            line.push_str(&format!("  {name}={hash:016x}"));
        }
        println!("{line}");
        if !rec.counters.is_empty() {
            let counters: Vec<String> = ledger
                .counters
                .iter()
                .zip(&rec.counters)
                .map(|(n, v)| format!("{n}={v}"))
                .collect();
            println!("              {}", counters.join(" "));
        }
    }
}

fn tail(ledger: &RunLedger, n: usize) {
    if ledger.trace_tail.is_empty() {
        println!("(no embedded trace — record the run with tracing enabled)");
        return;
    }
    let start = ledger.trace_tail.len().saturating_sub(n);
    for line in &ledger.trace_tail[start..] {
        println!("{line}");
    }
}

fn diff(left: &RunLedger, right: &RunLedger) -> ExitCode {
    let report = diff_ledgers(left, right);
    print!("{report}");
    if report.is_identical() {
        println!("({} intervals compared)", left.intervals.len());
        return ExitCode::SUCCESS;
    }
    if let Divergence::FirstDivergence { at_nanos, .. } = report.finding {
        // Show each side's trace tail around the divergence point so the
        // first wrong event is one read away.
        for (name, ledger) in [("left", left), ("right", right)] {
            let around: Vec<&String> = ledger
                .trace_tail
                .iter()
                .filter(|line| {
                    trace_line_nanos(line).is_none_or(|t| t <= at_nanos.saturating_add(1))
                })
                .collect();
            if !around.is_empty() {
                println!("--- {name} trace tail up to divergence ---");
                for line in around.iter().rev().take(16).rev() {
                    println!("{line}");
                }
            }
        }
    }
    ExitCode::FAILURE
}

/// Renders a decoded checkpoint: the identity header, then the
/// embedded per-component hash table restore verifies against, then
/// the payload sections actually present.
fn render_snapshot(snap: &Snapshot) -> String {
    let h = &snap.header;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "snapshot v{} · crate {} · seed {} · spec {:016x}",
        h.snap_version, h.crate_version, h.seed, h.spec_fingerprint
    );
    let _ = writeln!(
        out,
        "captured at t={:.3}s (interval {})",
        h.at_nanos as f64 / 1e9,
        h.interval_index
    );
    let _ = writeln!(
        out,
        "{} component hashes, {} sections",
        snap.component_hashes.len(),
        snap.section_labels().len()
    );
    for (label, hash) in &snap.component_hashes {
        let _ = writeln!(out, "  {label:<24} {hash:016x}");
    }
    let _ = writeln!(out, "sections: {}", snap.section_labels().join(", "));
    out
}

/// Best-effort parse of the `t=<secs>` prefix the netsim trace renderer
/// emits; `None` keeps the line (unknown format beats a dropped clue).
fn trace_line_nanos(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("t=")?;
    let end = rest.find(|c: char| !c.is_ascii_digit() && c != '.')?;
    let secs: f64 = rest[..end].parse().ok()?;
    Some((secs * 1e9) as u64)
}

fn usage() -> ExitCode {
    eprintln!("usage: mafic_trace show <ledger.jsonl>");
    eprintln!("       mafic_trace diff <left.jsonl> <right.jsonl>");
    eprintln!("       mafic_trace tail <ledger.jsonl> [n]");
    eprintln!("       mafic_trace snapshot <file.snap>");
    ExitCode::from(2)
}

/// Loads, decodes, and prints a checkpoint file. Decode failures exit 1
/// with the typed [`mafic_obs::SnapError`] (which names the corrupt
/// section), I/O failures exit 2 like every other subcommand.
fn snapshot_cmd(path: &str) -> Result<ExitCode, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    match Snapshot::decode(&bytes) {
        Ok(snap) => {
            print!("{}", render_snapshot(&snap));
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("mafic_trace: {path}: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("show") => match args.get(1) {
            Some(path) => load(path).map(|l| {
                show(&l);
                ExitCode::SUCCESS
            }),
            None => return usage(),
        },
        Some("tail") => match args.get(1) {
            Some(path) => {
                let n = args
                    .get(2)
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or(32);
                load(path).map(|l| {
                    tail(&l, n);
                    ExitCode::SUCCESS
                })
            }
            None => return usage(),
        },
        Some("snapshot") => match args.get(1) {
            Some(path) => snapshot_cmd(path),
            None => return usage(),
        },
        Some("diff") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => match (load(a), load(b)) {
                (Ok(l), Ok(r)) => Ok(diff(&l, &r)),
                (Err(e), _) | (_, Err(e)) => Err(e),
            },
            _ => return usage(),
        },
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mafic_trace: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_obs::SnapshotHeader;

    fn fixture() -> Snapshot {
        let mut snap = Snapshot::new(SnapshotHeader {
            snap_version: 1,
            crate_version: "0.1.0".to_string(),
            seed: 77,
            spec_fingerprint: 0x00AB_CDEF_0000_0001,
            at_nanos: 1_200_000_000,
            interval_index: 12,
        });
        snap.component_hashes
            .push(("netsim/core".to_string(), 0xDEAD_BEEF_0000_0001));
        snap.component_hashes
            .push(("dom0/coord".to_string(), 0x0123_4567_89AB_CDEF));
        snap.add_section("netsim/core", vec![1, 2, 3]);
        snap.add_section("workload/run", vec![4, 5]);
        snap
    }

    #[test]
    fn render_prints_header_identity_and_capture_instant() {
        let out = render_snapshot(&fixture());
        assert!(out.contains("snapshot v1 · crate 0.1.0 · seed 77"), "{out}");
        assert!(out.contains("spec 00abcdef00000001"), "{out}");
        assert!(out.contains("captured at t=1.200s (interval 12)"), "{out}");
    }

    #[test]
    fn render_lists_every_component_hash_and_section() {
        let out = render_snapshot(&fixture());
        assert!(out.contains("2 component hashes, 2 sections"), "{out}");
        assert!(out.contains("netsim/core"), "{out}");
        assert!(out.contains("deadbeef00000001"), "{out}");
        assert!(out.contains("dom0/coord"), "{out}");
        assert!(out.contains("0123456789abcdef"), "{out}");
        assert!(out.contains("sections: netsim/core, workload/run"), "{out}");
    }

    #[test]
    fn render_round_trips_through_the_wire_format() {
        let snap = fixture();
        let decoded = Snapshot::decode(&snap.encode()).expect("fixture decodes");
        assert_eq!(render_snapshot(&snap), render_snapshot(&decoded));
    }
}
