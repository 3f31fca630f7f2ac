//! End-to-end integration tests spanning every crate: the full pipeline
//! from topology construction through attack, detection, probing, and
//! metric extraction.

use mafic_suite::core::DefensePolicy;
use mafic_suite::netsim::{SimDuration, SimTime};
use mafic_suite::workload::{run_spec, DetectionMode, ScenarioSpec};

/// A small but complete scenario that runs in well under a second.
fn small_spec() -> ScenarioSpec {
    ScenarioSpec {
        total_flows: 16,
        n_routers: 8,
        end: SimTime::from_secs_f64(4.0),
        ..ScenarioSpec::default()
    }
}

#[test]
fn full_pipeline_detects_and_cuts_the_attack() {
    let outcome = run_spec(small_spec()).expect("scenario runs");
    assert!(outcome.defense_engaged(), "pushback must trigger");
    let trigger = outcome.triggered_at.unwrap();
    assert!(trigger > small_spec().attack_start);
    assert!(
        trigger < small_spec().attack_start + SimDuration::from_millis(700),
        "detection latency too high: {trigger}"
    );
    // Headline claims of the paper, as wide bands.
    assert!(
        outcome.report.accuracy_pct > 97.0,
        "accuracy {:.3}%",
        outcome.report.accuracy_pct
    );
    assert!(
        outcome.report.false_negative_pct < 3.0,
        "theta_n {:.3}%",
        outcome.report.false_negative_pct
    );
    assert!(
        outcome.report.legit_drop_pct < 15.0,
        "Lr {:.3}%",
        outcome.report.legit_drop_pct
    );
    assert!(
        outcome.report.traffic_reduction_pct > 50.0,
        "beta {:.2}%",
        outcome.report.traffic_reduction_pct
    );
}

#[test]
fn all_attack_flows_end_up_condemned() {
    let outcome = run_spec(small_spec()).expect("scenario runs");
    let flows = outcome.report.flows;
    assert!(flows.attack_flows > 0);
    assert_eq!(
        flows.attack_condemned, flows.attack_flows,
        "every zombie should land in the PDT: {flows:?}"
    );
    assert_eq!(flows.attack_cleared, 0, "no zombie may pass the probe test");
}

#[test]
fn mafic_beats_proportional_on_collateral_damage() {
    let mafic = run_spec(small_spec()).expect("mafic run");
    let prop = run_spec(ScenarioSpec {
        policy: DefensePolicy::ProportionalDrop,
        ..small_spec()
    })
    .expect("baseline run");
    assert!(
        mafic.report.legit_drop_pct < prop.report.legit_drop_pct / 4.0,
        "MAFIC Lr {:.2}% should be far below proportional Lr {:.2}%",
        mafic.report.legit_drop_pct,
        prop.report.legit_drop_pct
    );
    // And MAFIC must not pay for that with worse attack suppression.
    assert!(
        mafic.report.accuracy_pct > prop.report.accuracy_pct,
        "MAFIC alpha {:.2}% vs proportional {:.2}%",
        mafic.report.accuracy_pct,
        prop.report.accuracy_pct
    );
}

#[test]
fn undefended_run_floods_the_victim() {
    let defended = run_spec(small_spec()).expect("defended run");
    let undefended = run_spec(ScenarioSpec {
        detection: DetectionMode::Off,
        ..small_spec()
    })
    .expect("undefended run");
    assert!(!undefended.defense_engaged());
    // Without the defense, far more attack bytes reach the victim.
    let attack_delivered = |o: &mafic_suite::workload::RunOutcome| {
        o.goodput_series.iter().map(|p| p.attack_bps).sum::<f64>()
    };
    assert!(
        attack_delivered(&undefended) > 5.0 * attack_delivered(&defended),
        "defense should cut attack goodput by >5x"
    );
}

#[test]
fn determinism_across_identical_runs() {
    let a = run_spec(small_spec()).expect("run a");
    let b = run_spec(small_spec()).expect("run b");
    assert_eq!(a.report, b.report);
    assert_eq!(a.triggered_at, b.triggered_at);
    assert_eq!(a.packets_sent, b.packets_sent);
    assert_eq!(a.packets_delivered, b.packets_delivered);
    assert_eq!(a.series.len(), b.series.len());
}

#[test]
fn different_seeds_produce_different_runs() {
    let a = run_spec(small_spec()).expect("run a");
    let b = run_spec(ScenarioSpec {
        seed: 999,
        ..small_spec()
    })
    .expect("run b");
    assert_ne!(
        a.packets_sent, b.packets_sent,
        "different seeds should perturb the run"
    );
}

#[test]
fn legit_flows_recover_after_passing_the_probe() {
    let outcome = run_spec(ScenarioSpec {
        end: SimTime::from_secs_f64(8.0),
        ..small_spec()
    })
    .expect("scenario runs");
    let trigger = outcome.triggered_at.unwrap().as_secs_f64();
    // Legit offered load just after the cut vs late in the run.
    let mean_legit = |from: f64, to: f64| {
        let pts: Vec<f64> = outcome
            .series
            .iter()
            .filter(|p| p.time_s >= from && p.time_s < to)
            .map(|p| p.legit_bps)
            .collect();
        pts.iter().sum::<f64>() / pts.len().max(1) as f64
    };
    let suppressed = mean_legit(trigger + 0.05, trigger + 0.3);
    let recovered = mean_legit(6.0, 8.0);
    assert!(
        recovered > 1.5 * suppressed,
        "legit flows should regain bandwidth: {suppressed:.0} -> {recovered:.0} B/s"
    );
}

#[test]
fn higher_pd_cuts_harder() {
    let low = run_spec(ScenarioSpec {
        drop_probability: 0.5,
        ..small_spec()
    })
    .expect("low pd");
    let high = run_spec(ScenarioSpec {
        drop_probability: 0.95,
        ..small_spec()
    })
    .expect("high pd");
    // Nothing before the trigger reads `Pd`, so both runs must trigger
    // at the same instant: the comparison below is of the cut alone.
    assert!(low.defense_engaged(), "pushback must trigger");
    assert_eq!(low.triggered_at, high.triggered_at);
    assert!(
        high.report.traffic_reduction_pct > low.report.traffic_reduction_pct,
        "beta must grow with Pd: {:.2}% vs {:.2}%",
        high.report.traffic_reduction_pct,
        low.report.traffic_reduction_pct
    );
    assert!(
        high.report.false_negative_pct < low.report.false_negative_pct,
        "theta_n must shrink with Pd"
    );
}
