//! Acceptance tests for heterogeneous per-domain defenses under
//! partial deployment (the Fig. 9 scenario): the victim's residual
//! attack rate must be monotonically non-increasing as the
//! participation fraction grows (coverage can only help), the
//! full-participation all-MAFIC assignment must reproduce the
//! homogeneous path byte-for-byte, coverage gaps must be real (nobody
//! to escalate to at fraction zero), and the whole grid must be
//! deterministic at any engine worker count.

use mafic_suite::core::DefensePolicy;
use mafic_suite::experiments::figures::{
    fig8_spec, fig9_spec, participation_axis, transit_policy_series, FIG9_RATE_LIMIT_BPS,
};
use mafic_suite::experiments::run_specs;
use mafic_suite::workload::{run_spec, RunOutcome, ScenarioSpec};

fn run_fraction(fraction: f64) -> RunOutcome {
    run_spec(fig9_spec(fraction, DefensePolicy::FullMafic)).expect("fig9 scenario runs")
}

#[test]
fn residual_attack_rate_is_monotone_non_increasing_in_participation() {
    let mut last = f64::INFINITY;
    for &fraction in &[0.0, 0.5, 1.0] {
        let outcome = run_fraction(fraction);
        let residual = outcome.report.residual_attack_bps;
        assert!(
            residual <= last + 1e-6,
            "residual rose from {last:.1} to {residual:.1} B/s at fraction {fraction}"
        );
        // Collateral stays reported at every coverage level.
        assert!(outcome.report.legit_data_sent > 0);
        assert!(outcome.report.collateral_pct.is_finite());
        last = residual;
    }
}

#[test]
fn full_participation_all_mafic_matches_the_homogeneous_path() {
    // The homogeneous path: every domain implicitly runs the spec's
    // drop policy (full MAFIC).
    let homogeneous = fig8_spec(2);
    // The same deployment, spelled out through the heterogeneous
    // surface: full participation and the transit default pinned to
    // FullMafic.
    let explicit = ScenarioSpec {
        participation_fraction: 1.0,
        transit_policy: Some(DefensePolicy::FullMafic),
        ..homogeneous.clone()
    };
    let a = run_spec(homogeneous).expect("homogeneous run");
    let b = run_spec(explicit).expect("explicit run");
    assert_eq!(a.report, b.report, "reports must be byte-identical");
    assert_eq!(a.triggered_at, b.triggered_at);
    assert_eq!(a.escalations, b.escalations);
    assert_eq!(a.max_pushback_depth, b.max_pushback_depth);
    assert_eq!(a.atr_nodes, b.atr_nodes);
    assert_eq!(a.policy_costs, b.policy_costs);
    assert_eq!(a.packets_sent, b.packets_sent);
    assert_eq!(a.packets_delivered, b.packets_delivered);
}

#[test]
fn zero_participation_is_a_real_coverage_gap() {
    let outcome = run_fraction(0.0);
    assert!(outcome.defense_engaged(), "victim still defends itself");
    assert_eq!(
        outcome.max_pushback_depth, 0,
        "no participating domain upstream: {:?}",
        outcome.escalations
    );
    assert!(outcome.escalations.iter().all(|&(_, d)| d == 0));
    // Only the victim domain's policy shows up in the cost report.
    assert_eq!(outcome.policy_costs.len(), 1);
    assert_eq!(outcome.policy_costs[0].policy, "mafic");
    assert_eq!(outcome.policy_costs[0].domains, 1);
}

#[test]
fn heterogeneous_transit_policies_engage_and_report_costs() {
    let outcome = run_spec(fig9_spec(
        1.0,
        DefensePolicy::AggregateRateLimit {
            limit_bytes_per_sec: FIG9_RATE_LIMIT_BPS,
        },
    ))
    .expect("rate-limit transit scenario runs");
    assert!(outcome.defense_engaged());
    let labels: Vec<&str> = outcome
        .policy_costs
        .iter()
        .map(|c| c.policy.as_str())
        .collect();
    assert_eq!(labels, vec!["mafic", "rate-limit"]);
    // The stateless bucket arms no timers and keeps O(1) state.
    let rl = &outcome.policy_costs[1];
    assert_eq!(rl.timer_events, 0);
    let per_bucket = mafic_suite::core::RateLimitFilter::new(1.0).approx_state_bytes() as u64;
    assert_eq!(rl.table_bytes, per_bucket * rl.filters as u64);
    // Full MAFIC pays for its tables and timers.
    let mafic = &outcome.policy_costs[0];
    assert!(mafic.table_bytes > 0);
    assert!(mafic.timer_events > 0);
}

#[test]
fn fig9_grid_is_identical_at_one_and_four_workers() {
    // A reduced grid (one policy per kind at the extreme fractions)
    // keeps the test affordable while still crossing the worker pool.
    let mut specs = Vec::new();
    for (_, transit) in transit_policy_series() {
        for &fraction in &[participation_axis()[0], participation_axis()[4]] {
            specs.push(fig9_spec(fraction, transit));
        }
    }
    let serial = run_specs(specs.clone(), 1).expect("serial grid");
    let parallel = run_specs(specs, 4).expect("parallel grid");
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.report, p.report);
        assert_eq!(s.triggered_at, p.triggered_at);
        assert_eq!(s.escalations, p.escalations);
        assert_eq!(s.max_pushback_depth, p.max_pushback_depth);
        assert_eq!(s.policy_costs, p.policy_costs);
        assert_eq!(s.packets_sent, p.packets_sent);
    }
}
