//! Pins the arena-backed batched data path to the *pre-arena* replay
//! digests: the packet-arena / link-delivery-batching rework must be a
//! pure representation change, observably identical to the original
//! one-event-per-packet path. The constants below were captured from
//! the last pre-arena build on the exact same specs; any divergence
//! means the refactor changed simulation behavior, not just layout.

use mafic_suite::experiments::engine::run_specs;
use mafic_suite::netsim::SimTime;
use mafic_suite::workload::{run_spec, RunOutcome, ScenarioSpec};

/// The determinism-suite spec (identical to `tests/determinism.rs`).
fn determinism_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        total_flows: 14,
        n_routers: 7,
        end: SimTime::from_secs_f64(3.0),
        seed,
        ..ScenarioSpec::default()
    }
}

/// The end-to-end scenario the pre-arena and arena builds were timed
/// on (PR 6); its digest stays pinned as a second single-domain shape.
fn bench_e2e_spec() -> ScenarioSpec {
    ScenarioSpec {
        total_flows: 40,
        n_routers: 20,
        end: SimTime::from_secs_f64(8.0),
        seed: 6,
        ..ScenarioSpec::default()
    }
}

/// A multi-domain cascade point, so the pinned surface also covers
/// pushback control packets riding the arena path.
fn cascade_spec() -> ScenarioSpec {
    ScenarioSpec {
        domains: 4,
        pushback_depth: 2,
        total_flows: 24,
        n_routers: 8,
        end: SimTime::from_secs_f64(3.0),
        seed: 9,
        ..ScenarioSpec::default()
    }
}

/// Renders the report exactly as its derived `Debug` did when the
/// pre-arena constants were captured — i.e. *without* the
/// observability fields added later (`peak_arena_packets`,
/// `scratch_inbox_drains`, `scratch_sketch_recycles`). Those are
/// runner-side instrumentation, not simulated behavior, so the pinned
/// digests deliberately exclude them; every simulated field is still
/// byte-compared.
fn report_digest(r: &mafic_suite::metrics::MetricsReport) -> String {
    format!(
        "MetricsReport {{ accuracy_pct: {:?}, false_negative_pct: {:?}, \
         false_positive_pct: {:?}, legit_drop_pct: {:?}, \
         traffic_reduction_pct: {:?}, attack_seen: {:?}, attack_dropped: {:?}, \
         legit_seen: {:?}, legit_dropped: {:?}, legit_dropped_as_malicious: {:?}, \
         victim_rate_before: {:?}, victim_rate_after: {:?}, \
         residual_attack_bps: {:?}, legit_goodput_bps: {:?}, \
         legit_data_sent: {:?}, legit_data_lost: {:?}, collateral_pct: {:?}, \
         flows: {:?} }}",
        r.accuracy_pct,
        r.false_negative_pct,
        r.false_positive_pct,
        r.legit_drop_pct,
        r.traffic_reduction_pct,
        r.attack_seen,
        r.attack_dropped,
        r.legit_seen,
        r.legit_dropped,
        r.legit_dropped_as_malicious,
        r.victim_rate_before,
        r.victim_rate_after,
        r.residual_attack_bps,
        r.legit_goodput_bps,
        r.legit_data_sent,
        r.legit_data_lost,
        r.collateral_pct,
        r.flows,
    )
}

/// Same digest composition as `tests/determinism.rs`.
fn digest(outcome: &RunOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!("{}\n", report_digest(&outcome.report)));
    out.push_str(&format!("{:?}\n", outcome.triggered_at));
    out.push_str(&format!("{:?}\n", outcome.atr_nodes));
    out.push_str(&format!(
        "sent={} delivered={}\n",
        outcome.packets_sent, outcome.packets_delivered
    ));
    for p in &outcome.series {
        out.push_str(&format!("{p:?}\n"));
    }
    for p in &outcome.goodput_series {
        out.push_str(&format!("{p:?}\n"));
    }
    out
}

/// FNV-1a over the digest bytes: compresses the multi-kilobyte digest
/// string into one pinnable constant.
fn digest_hash(outcome: &RunOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in digest(outcome).as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn run_hash(spec: ScenarioSpec) -> u64 {
    digest_hash(&run_spec(spec).expect("run"))
}

/// Digest hashes captured from the last pre-arena build (one event per
/// packet, `Packet` by value in the heap). The arena path must
/// reproduce them bit for bit.
const PRE_ARENA_DETERMINISM_SEED1: u64 = 0xf63d_783d_f461_c260;
const PRE_ARENA_DETERMINISM_SEED77: u64 = 0x2e4e_0933_7a5e_cc81;
const PRE_ARENA_BENCH_E2E: u64 = 0x4af8_4c44_0f16_3301;
const PRE_ARENA_CASCADE: u64 = 0x3ab7_d362_a1aa_803d;

#[test]
fn determinism_scenarios_match_pre_arena_digests() {
    assert_eq!(run_hash(determinism_spec(1)), PRE_ARENA_DETERMINISM_SEED1);
    assert_eq!(run_hash(determinism_spec(77)), PRE_ARENA_DETERMINISM_SEED77);
}

#[test]
fn bench_scenario_matches_pre_arena_digest() {
    assert_eq!(run_hash(bench_e2e_spec()), PRE_ARENA_BENCH_E2E);
}

#[test]
fn cascade_scenario_matches_pre_arena_digest() {
    assert_eq!(run_hash(cascade_spec()), PRE_ARENA_CASCADE);
}

/// The timed scenario replays byte-identically whether the grid runs
/// serially or on four workers.
#[test]
fn bench_scenario_one_vs_four_workers() {
    let specs = vec![bench_e2e_spec(), cascade_spec()];
    let serial = run_specs(specs.clone(), 1).expect("serial");
    let parallel = run_specs(specs, 4).expect("parallel");
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(digest(s), digest(p), "worker count must not perturb runs");
    }
}
