//! Acceptance tests for the inter-domain cascaded pushback: on the
//! default multi-domain flood (the Fig. 8 scenario), the victim's
//! residual attack rate must be monotonically non-increasing as
//! `pushback_depth` grows from 0 (victim-domain-only, today's
//! single-domain behaviour) through the transit tier into the source
//! stubs, with collateral damage reported at every depth — and the
//! whole sweep must be deterministic at any engine worker count.

use mafic_suite::experiments::figures::{depth_axis, fig8_spec};
use mafic_suite::experiments::run_specs;
use mafic_suite::workload::{run_spec, RunOutcome};

fn run_depth(depth: u32) -> RunOutcome {
    run_spec(fig8_spec(depth)).expect("fig8 scenario runs")
}

#[test]
fn residual_attack_rate_is_monotone_non_increasing_in_depth() {
    let mut last = f64::INFINITY;
    for &depth in &[0u32, 1, 2, 3] {
        let outcome = run_depth(depth);
        let residual = outcome.report.residual_attack_bps;
        assert!(
            residual <= last + 1e-6,
            "residual rose from {last:.1} to {residual:.1} B/s at depth {depth}"
        );
        // Collateral damage is reported at every depth.
        assert!(
            outcome.report.legit_data_sent > 0,
            "collateral denominator empty at depth {depth}"
        );
        assert!(outcome.report.collateral_pct.is_finite());
        last = residual;
    }
}

#[test]
fn depth_zero_matches_the_uncascaded_defense() {
    let outcome = run_depth(0);
    assert!(outcome.defense_engaged());
    assert_eq!(outcome.max_pushback_depth, 0);
    assert!(outcome.escalations.is_empty());
}

#[test]
fn cascade_reaches_the_budgeted_depth_under_a_sustained_flood() {
    let outcome = run_depth(3);
    assert!(outcome.defense_engaged());
    assert_eq!(
        outcome.max_pushback_depth, 3,
        "the default flood must drive the cascade into the source stubs: {:?}",
        outcome.escalations
    );
    // Escalations activate outward: levels never skip.
    let mut seen_levels: Vec<usize> = outcome.escalations.iter().map(|&(_, d)| d).collect();
    seen_levels.sort_unstable();
    seen_levels.dedup();
    assert!(seen_levels.len() >= 3, "transit tier + stubs all activate");
}

#[test]
fn depth_axis_spans_victim_to_source_stubs() {
    assert_eq!(depth_axis().first(), Some(&0.0));
    assert_eq!(depth_axis().last(), Some(&3.0));
}

#[test]
fn fig8_grid_is_identical_at_one_and_four_workers() {
    let specs: Vec<_> = depth_axis().iter().map(|&d| fig8_spec(d as u32)).collect();
    let serial = run_specs(specs.clone(), 1).expect("serial grid");
    let parallel = run_specs(specs, 4).expect("parallel grid");
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.report, p.report);
        assert_eq!(s.triggered_at, p.triggered_at);
        assert_eq!(s.escalations, p.escalations);
        assert_eq!(s.max_pushback_depth, p.max_pushback_depth);
        assert_eq!(s.packets_sent, p.packets_sent);
    }
}
