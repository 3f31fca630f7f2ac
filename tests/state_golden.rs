//! Byte-identity gate for the state walk: the run ledger (every
//! interval's every chained component hash and counter) and the
//! `MAFICSNP` checkpoint bytes of three short runs are pinned to the
//! values the formats had when this file landed. Any reordered,
//! dropped or added write in a component's state walk — on the hash
//! side or the snapshot side — moves one of these digests.
//!
//! The restore-time rehash (`restore_run` recomputes every component
//! digest) checks that *restore* inverts *save*; this file checks that
//! neither format moved at all.

use mafic_suite::netsim::SimTime;
use mafic_suite::obs::fnv64;
use mafic_suite::topology::TransitTopology;
use mafic_suite::workload::{run_spec, AdversarySpec, ScenarioSpec, StrategyKind};

/// What one pinned run must reproduce.
struct Golden {
    ledger_fnv: u64,
    intervals: usize,
    components: usize,
    snapshot_fnv: u64,
    snapshot_len: usize,
}

fn assert_golden(name: &str, spec: ScenarioSpec, want: &Golden) {
    let outcome = run_spec(spec).expect("golden spec runs");
    let ledger = outcome.ledger.as_ref().expect("spec sets ledger: true");
    let checkpoint = outcome
        .checkpoint
        .as_ref()
        .expect("spec sets checkpoint_at");
    assert_eq!(ledger.intervals.len(), want.intervals, "{name}: intervals");
    assert_eq!(
        ledger.components.len(),
        want.components,
        "{name}: components"
    );
    assert_eq!(
        format!("{:016x}", fnv64(ledger.to_jsonl().as_bytes())),
        format!("{:016x}", want.ledger_fnv),
        "{name}: run ledger moved (components: {:?})",
        ledger.components
    );
    assert_eq!(checkpoint.len(), want.snapshot_len, "{name}: snapshot size");
    assert_eq!(
        format!("{:016x}", fnv64(checkpoint)),
        format!("{:016x}", want.snapshot_fnv),
        "{name}: snapshot bytes moved"
    );
}

#[test]
fn single_domain_ledger_and_snapshot_are_pinned() {
    let spec = ScenarioSpec {
        total_flows: 12,
        n_routers: 6,
        end: SimTime::from_secs_f64(2.5),
        ledger: true,
        trace_capacity: 32,
        checkpoint_at: Some(SimTime::from_secs_f64(1.7)),
        seed: 11,
        ..ScenarioSpec::default()
    };
    assert_golden(
        "single",
        spec,
        &Golden {
            ledger_fnv: 0x6c85_661f_97fe_6ba3,
            intervals: 25,
            components: 7,
            snapshot_fnv: 0xbf79_4196_3c81_ab64,
            snapshot_len: 70_086,
        },
    );
}

#[test]
fn cascade_ledger_and_snapshot_are_pinned() {
    let spec = ScenarioSpec {
        total_flows: 12,
        n_routers: 6,
        domains: 3,
        transit_topology: TransitTopology::Chain { depth: 1 },
        pushback_depth: 2,
        attack_end: Some(SimTime::from_secs_f64(2.2)),
        end: SimTime::from_secs_f64(3.5),
        ledger: true,
        trace_capacity: 32,
        checkpoint_at: Some(SimTime::from_secs_f64(1.9)),
        seed: 7,
        ..ScenarioSpec::default()
    };
    assert_golden(
        "cascade",
        spec,
        &Golden {
            ledger_fnv: 0x2f68_f00e_2390_cd64,
            intervals: 35,
            components: 26,
            snapshot_fnv: 0x6900_eb87_f7fa_084b,
            snapshot_len: 95_274,
        },
    );
}

#[test]
fn adversary_ledger_and_snapshot_are_pinned() {
    let spec = ScenarioSpec {
        total_flows: 24,
        n_routers: 6,
        domains: 3,
        transit_topology: TransitTopology::Chain { depth: 1 },
        pushback_depth: 2,
        subsidence_source_floor: 6.0,
        adversary: Some(AdversarySpec {
            strategy: StrategyKind::SourceRotation {
                period_intervals: 4,
                active_fraction: 0.5,
            },
        }),
        end: SimTime::from_secs_f64(3.5),
        ledger: true,
        checkpoint_at: Some(SimTime::from_secs_f64(2.1)),
        seed: 41,
        ..ScenarioSpec::default()
    };
    assert_golden(
        "adversary",
        spec,
        &Golden {
            ledger_fnv: 0x5205_8f03_2720_055a,
            intervals: 35,
            components: 27,
            snapshot_fnv: 0xd8d9_1bc0_009f_fe8d,
            snapshot_len: 92_766,
        },
    );
}
