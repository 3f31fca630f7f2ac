//! Acceptance tests for the adaptive adversary engine (the Fig. 11
//! scenario): every closed-loop strategy must do at least as much
//! damage as the open-loop flood it adapts from at equal budget (and
//! source rotation faster than the lease expiry must do strictly
//! more); rotation *no faster* than the lease must degenerate to a run
//! byte-identical to the open-loop baseline; the whole grid must be
//! deterministic at any engine worker count; and a checkpoint taken
//! mid-engagement must restore the controller and resume
//! byte-identically.

use mafic_suite::experiments::figures::{
    adversary_strategy_series, fig11_spec, run_adaptive_adversary_grid, trust_budget_axis,
};
use mafic_suite::experiments::run_specs;
use mafic_suite::experiments::EngineConfig;
use mafic_suite::netsim::SimTime;
use mafic_suite::workload::{
    restore_run, resume_scenario, run_spec, AdversarySpec, RunOutcome, ScenarioSpec, StrategyKind,
};

#[test]
fn every_adaptive_strategy_at_least_matches_open_loop_at_equal_budget() {
    let cells =
        run_adaptive_adversary_grid(&EngineConfig { jobs: 4, trials: 1 }).expect("fig11 grid runs");
    for &budget in &trust_budget_axis() {
        let residual = |label: &str| {
            cells
                .iter()
                .find(|c| c.label == label && c.budget == budget)
                .unwrap_or_else(|| panic!("cell {label}@{budget} missing"))
                .outcome
                .report
                .residual_attack_bps
        };
        let open = residual("open loop");
        for (label, strategy) in adversary_strategy_series() {
            if strategy.is_none() {
                continue;
            }
            let adaptive = residual(&label);
            // Equal budget is part of the strategies' contract, so a
            // closed loop below the open loop would mean adapting
            // *helped the defense* — the one outcome Fig. 11 exists to
            // rule out.
            assert!(
                adaptive >= open - 1e-6,
                "{label} fell below open loop at budget {budget}: {adaptive:.1} < {open:.1} B/s"
            );
        }
        // Rotation inside the lease must demonstrably degrade the
        // defense, not just match it: paused cohorts drain the meters
        // into a stand-down and resume against flushed tables.
        let rotation = residual("rotation");
        assert!(
            rotation > open * 1.05,
            "rotation must strictly beat open loop at budget {budget}: \
             {rotation:.1} vs {open:.1} B/s"
        );
    }
}

/// Everything a run reports except the ledger (which, when enabled,
/// intentionally grows an `adversary` component for armed runs).
fn assert_runs_identical(a: &RunOutcome, b: &RunOutcome, ctx: &str) {
    assert_eq!(a.report, b.report, "{ctx}: report");
    assert_eq!(a.series, b.series, "{ctx}: offered-load series");
    assert_eq!(a.goodput_series, b.goodput_series, "{ctx}: goodput series");
    assert_eq!(a.triggered_at, b.triggered_at, "{ctx}: trigger instant");
    assert_eq!(a.atr_nodes, b.atr_nodes, "{ctx}: ATR nodes");
    assert_eq!(a.escalations, b.escalations, "{ctx}: escalation log");
    assert_eq!(
        a.max_pushback_depth, b.max_pushback_depth,
        "{ctx}: pushback depth"
    );
    assert_eq!(a.control, b.control, "{ctx}: control plane");
    assert_eq!(a.stood_down_at, b.stood_down_at, "{ctx}: stand-down");
    assert_eq!(a.packets_sent, b.packets_sent, "{ctx}: packets sent");
    assert_eq!(
        a.packets_delivered, b.packets_delivered,
        "{ctx}: packets delivered"
    );
}

#[test]
fn rotation_no_faster_than_the_lease_is_identical_to_open_loop() {
    // The defense's soft state outlives every pause, so the strategy's
    // own best response is to never rotate: the controller emits zero
    // directives and the armed run must reproduce the adversary-free
    // run exactly.
    let open = run_spec(fig11_spec(None, 2)).expect("open-loop run");
    let lease = AdversarySpec::default().lease_intervals;
    let inert = run_spec(fig11_spec(
        Some(StrategyKind::SourceRotation {
            period_intervals: lease,
            active_fraction: 0.5,
        }),
        2,
    ))
    .expect("inert rotation run");
    assert_runs_identical(&open, &inert, "lease-gated rotation");
}

#[test]
fn fig11_grid_is_identical_at_one_and_four_workers() {
    let mut specs = Vec::new();
    for (_, strategy) in adversary_strategy_series() {
        for &budget in &trust_budget_axis() {
            specs.push(fig11_spec(strategy, budget as u32));
        }
    }
    let serial = run_specs(specs.clone(), 1).expect("serial grid");
    let parallel = run_specs(specs, 4).expect("parallel grid");
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_runs_identical(s, p, "1-vs-4-worker cell");
    }
}

#[test]
fn checkpoint_roundtrips_the_adversary_mid_engagement() {
    // Capture while the rotation loop is live (attack starts at 1.0s,
    // the lease-churning cohort switches every 4 monitor intervals) so
    // the snapshot must carry real controller state — cohort index,
    // interval counters, RNG — for the resumed run to agree.
    let spec = ScenarioSpec {
        checkpoint_at: Some(SimTime::from_secs_f64(3.0)),
        ledger: true,
        ..fig11_spec(adversary_strategy_series()[1].1, 2)
    };
    let straight = run_spec(spec.clone()).expect("straight run");
    let bytes = straight.checkpoint.as_ref().expect("checkpoint captured");
    let (mut scenario, state) = restore_run(&spec, bytes).expect("restore verifies");
    let resumed = resume_scenario(&mut scenario, state).expect("resumed run completes");
    assert_runs_identical(&straight, &resumed, "adversary checkpoint");
    // With the ledger on, the armed run probes the controller as its
    // own component every interval; the chained hashes must agree too.
    let jsonl = |o: &RunOutcome| o.ledger.as_ref().expect("ledger enabled").to_jsonl();
    assert_eq!(
        jsonl(&straight),
        jsonl(&resumed),
        "adversary checkpoint: run ledger"
    );
}
