//! Acceptance tests for the trust-aware control plane under attack
//! (the Fig. 10 scenario): a compromised-but-authorized domain forging
//! escalation requests against the victim's legitimate traffic is
//! denied by attestation and measurably does not reduce legitimate
//! goodput — while the honest cascade on the same topology still
//! drives the residual attack rate monotonically down as the trust
//! budget admits it. The whole grid is deterministic at any engine
//! worker count.

use mafic_suite::experiments::figures::{
    fig10_honest_spec, fig10_malicious_spec, trust_budget_axis,
};
use mafic_suite::experiments::run_specs;
use mafic_suite::workload::run_spec;

#[test]
fn malicious_pushback_is_denied_and_does_not_hurt_goodput() {
    let attacked = run_spec(fig10_malicious_spec(4, true)).expect("malicious scenario runs");
    // The forged requests were denied — by attestation, not identity:
    // the compromised provider *is* an authorized requester.
    assert!(
        attacked.control.denied_uncorroborated > 0,
        "attestation must deny the forged claims: {}",
        attacked.control
    );
    assert_eq!(
        attacked.control.installs_granted, 0,
        "no filter install may result from forged requests: {}",
        attacked.control
    );
    assert_eq!(attacked.max_pushback_depth, 0, "no defense ever activates");
    // And the victim's legitimate goodput is indistinguishable from the
    // same scenario without the attacker.
    let baseline_spec = mafic_suite::workload::ScenarioSpec {
        malicious_pushback: None,
        ..fig10_malicious_spec(4, true)
    };
    let baseline = run_spec(baseline_spec).expect("baseline runs");
    let loss = 1.0 - attacked.report.legit_goodput_bps / baseline.report.legit_goodput_bps;
    assert!(
        loss.abs() < 0.01,
        "denied malicious pushback must not move goodput: attacked {:.0} vs baseline {:.0}",
        attacked.report.legit_goodput_bps,
        baseline.report.legit_goodput_bps
    );
}

#[test]
fn unguarded_ledger_lets_malicious_pushback_do_harm() {
    // With attestation disabled (the unguarded legacy behaviour) the
    // same forged requests are believed, filters install against the
    // victim's legitimate aggregate, and goodput measurably drops —
    // the damage the trust ledger exists to prevent.
    let guarded = run_spec(fig10_malicious_spec(4, true)).expect("guarded runs");
    let unguarded = run_spec(fig10_malicious_spec(4, false)).expect("unguarded runs");
    assert!(
        unguarded.control.installs_granted >= 1,
        "{}",
        unguarded.control
    );
    assert!(
        unguarded.report.legit_goodput_bps < guarded.report.legit_goodput_bps,
        "a believed forgery must cost goodput: unguarded {:.0} vs guarded {:.0}",
        unguarded.report.legit_goodput_bps,
        guarded.report.legit_goodput_bps
    );
    assert!(
        unguarded.report.legit_drop_pct > guarded.report.legit_drop_pct,
        "legit drops must rise under the forged defense"
    );
}

#[test]
fn trust_budget_zero_denies_even_the_honest_cascade() {
    let outcome = run_spec(fig10_honest_spec(0)).expect("runs");
    assert!(outcome.defense_engaged());
    assert_eq!(
        outcome.max_pushback_depth, 0,
        "budget 0 keeps the defense in the victim domain"
    );
    assert!(outcome.control.denied_budget >= 1, "{}", outcome.control);
    assert_eq!(outcome.control.installs_granted, 0);
}

#[test]
fn honest_residual_is_monotone_non_increasing_in_trust_budget() {
    let mut last = f64::INFINITY;
    for &budget in &trust_budget_axis() {
        let outcome = run_spec(fig10_honest_spec(budget as u32)).expect("runs");
        let residual = outcome.report.residual_attack_bps;
        assert!(
            residual <= last + 1e-6,
            "residual rose from {last:.1} to {residual:.1} B/s at budget {budget}"
        );
        if budget as u32 >= 1 {
            assert!(
                outcome.max_pushback_depth >= 1,
                "a positive budget must admit the cascade at budget {budget}"
            );
            assert!(outcome.control.installs_granted >= 1);
        }
        last = residual;
    }
}

#[test]
fn fig10_grid_is_identical_at_one_and_four_workers() {
    let mut specs = Vec::new();
    for &budget in &trust_budget_axis() {
        specs.push(fig10_honest_spec(budget as u32));
        specs.push(fig10_malicious_spec(budget as u32, true));
        specs.push(fig10_malicious_spec(budget as u32, false));
    }
    let serial = run_specs(specs.clone(), 1).expect("serial grid");
    let parallel = run_specs(specs, 4).expect("parallel grid");
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.report, p.report);
        assert_eq!(s.control, p.control);
        assert_eq!(s.triggered_at, p.triggered_at);
        assert_eq!(s.stood_down_at, p.stood_down_at);
        assert_eq!(s.escalations, p.escalations);
        assert_eq!(s.packets_sent, p.packets_sent);
    }
}
