//! Differential suite for checkpoint/restore: a restored run must be
//! byte-identical to the straight run it branched from — report, both
//! bandwidth series, the full chained run ledger, the escalation log —
//! at every tested checkpoint instant; and every corrupted snapshot in
//! the fixture corpus must be *rejected by name* (component or header
//! field), never silently loaded.

use mafic_suite::netsim::SimTime;
use mafic_suite::obs::{SnapError, Snapshot};
use mafic_suite::topology::TransitTopology;
use mafic_suite::workload::{
    encode_checkpoint, restore_run, resume_scenario, run_spec, RunOutcome, ScenarioSpec,
    WorkloadError,
};

/// The corpus scenario: a three-domain flood over a transit chain whose
/// attack ends mid-run, so the timeline offers a pristine start, a
/// mid-flood cascade, and a post-stand-down tail to checkpoint in.
fn flood_spec(checkpoint_at: Option<SimTime>) -> ScenarioSpec {
    ScenarioSpec {
        total_flows: 12,
        n_routers: 6,
        domains: 3,
        transit_topology: TransitTopology::Chain { depth: 1 },
        pushback_depth: 2,
        attack_end: Some(SimTime::from_secs_f64(2.2)),
        end: SimTime::from_secs_f64(3.5),
        ledger: true,
        trace_capacity: 32,
        checkpoint_at,
        seed: 7,
        ..ScenarioSpec::default()
    }
}

fn assert_outcomes_identical(straight: &RunOutcome, resumed: &RunOutcome, ctx: &str) {
    assert_eq!(straight.report, resumed.report, "{ctx}: report");
    assert_eq!(
        straight.series, resumed.series,
        "{ctx}: offered-load series"
    );
    assert_eq!(
        straight.goodput_series, resumed.goodput_series,
        "{ctx}: goodput series"
    );
    assert_eq!(
        straight.triggered_at, resumed.triggered_at,
        "{ctx}: trigger instant"
    );
    assert_eq!(straight.atr_nodes, resumed.atr_nodes, "{ctx}: ATR nodes");
    assert_eq!(
        straight.escalations, resumed.escalations,
        "{ctx}: escalation log"
    );
    assert_eq!(straight.control, resumed.control, "{ctx}: control plane");
    assert_eq!(
        straight.stood_down_at, resumed.stood_down_at,
        "{ctx}: stand-down instant"
    );
    assert_eq!(
        straight.packets_sent, resumed.packets_sent,
        "{ctx}: packets sent"
    );
    let jsonl = |o: &RunOutcome| o.ledger.as_ref().expect("ledger enabled").to_jsonl();
    assert_eq!(jsonl(straight), jsonl(resumed), "{ctx}: run ledger");
    assert_eq!(
        straight.checkpoint, resumed.checkpoint,
        "{ctx}: re-surfaced checkpoint bytes"
    );
}

#[test]
fn restore_is_byte_identical_at_every_tested_instant() {
    // k=0 (pristine, pre-attack), mid-flood (the cascade is live), and
    // post-stand-down (the defense has already wound down).
    for secs in [0.0, 1.5, 3.2] {
        let spec = flood_spec(Some(SimTime::from_secs_f64(secs)));
        let straight = run_spec(spec.clone()).expect("straight run");
        let bytes = straight.checkpoint.as_ref().expect("checkpoint captured");
        // What is saved is what is restored: re-encoding the restored
        // pair reproduces the captured bytes exactly.
        let (mut scenario, state) = restore_run(&spec, bytes).expect("restore verifies");
        assert_eq!(
            &encode_checkpoint(&scenario, &state),
            bytes,
            "re-encode after restore at {secs}s"
        );
        let resumed = resume_scenario(&mut scenario, state).expect("resumed run completes");
        assert_outcomes_identical(&straight, &resumed, &format!("checkpoint at {secs}s"));
    }
}

/// Captures the corpus checkpoint once per corruption test.
fn captured() -> (ScenarioSpec, Vec<u8>) {
    let spec = flood_spec(Some(SimTime::from_secs_f64(1.5)));
    let bytes = run_spec(spec.clone())
        .expect("straight run")
        .checkpoint
        .expect("checkpoint captured");
    (spec, bytes)
}

fn snap_err(
    result: Result<
        (
            mafic_suite::workload::Scenario,
            mafic_suite::workload::RunState,
        ),
        WorkloadError,
    >,
) -> SnapError {
    match result {
        Err(WorkloadError::Snapshot(e)) => e,
        Ok(_) => panic!("corrupted snapshot was accepted"),
        Err(other) => panic!("expected a snapshot error, got {other}"),
    }
}

#[test]
fn truncated_snapshot_is_rejected() {
    let (spec, bytes) = captured();
    for keep in [4, bytes.len() / 2, bytes.len() - 9] {
        let e = snap_err(restore_run(&spec, &bytes[..keep]));
        assert_eq!(e, SnapError::Truncated, "kept {keep} of {}", bytes.len());
    }
}

fn u64_at(bytes: &[u8], pos: &mut usize) -> u64 {
    let v = u64::from_le_bytes(bytes[*pos..*pos + 8].try_into().expect("8 bytes"));
    *pos += 8;
    v
}

fn str_at(bytes: &[u8], pos: &mut usize) -> String {
    let n = u64_at(bytes, pos) as usize;
    let s = String::from_utf8(bytes[*pos..*pos + n].to_vec()).expect("UTF-8 label");
    *pos += n;
    s
}

/// Walks the snapshot wire format (labels can also occur *inside*
/// payloads — the embedded ledger serializes component names — so
/// byte-searching for them is not an option) and returns every
/// section's `(label, payload offset, payload length)`.
fn section_payload_offsets(bytes: &[u8]) -> Vec<(String, usize, usize)> {
    let mut pos = 8 + 4; // magic + format version
    let _crate_version = str_at(bytes, &mut pos);
    pos += 8 * 4; // seed, fingerprint, at_nanos, interval index
    let n_hashes = u64_at(bytes, &mut pos) as usize;
    for _ in 0..n_hashes {
        let _label = str_at(bytes, &mut pos);
        pos += 8; // component hash
    }
    pos += 8; // header checksum
    let n_sections = u64_at(bytes, &mut pos) as usize;
    let mut out = Vec::with_capacity(n_sections);
    for _ in 0..n_sections {
        let label = str_at(bytes, &mut pos);
        pos += 8; // payload checksum
        let len = u64_at(bytes, &mut pos) as usize;
        out.push((label, pos, len));
        pos += len;
    }
    assert_eq!(pos, bytes.len(), "walk must consume the whole snapshot");
    out
}

#[test]
fn flipped_byte_in_every_section_names_that_section() {
    let (spec, bytes) = captured();
    let sections = section_payload_offsets(&bytes);
    assert!(
        sections.len() >= 13,
        "corpus covers the full stack: {sections:?}"
    );
    for (label, payload_start, payload_len) in &sections {
        assert!(
            *payload_len > 0,
            "{label}: empty payloads would dodge the flip"
        );
        let mut bad = bytes.clone();
        bad[*payload_start] ^= 0x40;
        let e = snap_err(restore_run(&spec, &bad));
        assert_eq!(
            e,
            SnapError::Corrupt {
                section: label.clone()
            },
            "flip in {label}"
        );
    }
}

#[test]
fn doctored_payload_with_fixed_checksums_names_the_component() {
    // Re-encoding after the flip recomputes the wire checksums, so only
    // the state-hash verification stands between a doctored snapshot
    // and a silently wrong resume.
    let (spec, bytes) = captured();
    let snap = Snapshot::decode(&bytes).expect("decodes");
    let mut doctored = Snapshot::new(snap.header.clone());
    doctored.component_hashes.clone_from(&snap.component_hashes);
    for label in snap.section_labels() {
        let mut payload = snap.section(label).expect("listed").to_vec();
        if label == "netsim/stats" {
            *payload.last_mut().expect("non-empty") ^= 0x01;
        }
        doctored.add_section(label, payload);
    }
    let e = snap_err(restore_run(&spec, &doctored.encode()));
    match e {
        SnapError::StateMismatch { component, .. } => assert_eq!(component, "netsim/stats"),
        other => panic!("expected a state-hash mismatch, got {other}"),
    }
}

#[test]
fn format_version_mismatch_is_rejected() {
    let (spec, bytes) = captured();
    // Layout: 8 magic bytes, then the u32 format version.
    let mut bad = bytes.clone();
    bad[8..12].copy_from_slice(&99u32.to_le_bytes());
    let e = snap_err(restore_run(&spec, &bad));
    assert_eq!(e, SnapError::Version { found: 99 });
}

#[test]
fn wrong_seed_and_wrong_fingerprint_are_rejected_by_field() {
    let (spec, bytes) = captured();
    let reseeded = ScenarioSpec {
        seed: spec.seed + 1,
        ..spec.clone()
    };
    match snap_err(restore_run(&reseeded, &bytes)) {
        SnapError::HeaderMismatch { field, .. } => assert_eq!(field, "seed"),
        other => panic!("expected a seed mismatch, got {other}"),
    }
    // Same seed, different spec: the fingerprint gate catches it first.
    let stretched = ScenarioSpec {
        end: SimTime::from_secs_f64(4.0),
        ..spec.clone()
    };
    match snap_err(restore_run(&stretched, &bytes)) {
        SnapError::HeaderMismatch { field, .. } => assert_eq!(field, "spec_fingerprint"),
        other => panic!("expected a fingerprint mismatch, got {other}"),
    }
}
