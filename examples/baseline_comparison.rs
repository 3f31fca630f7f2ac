//! MAFIC vs proportional dropping — the motivating comparison.
//!
//! The authors' earlier pushback work dropped every victim-bound packet
//! with the same probability, so legitimate flows paid the same price as
//! zombies. This example runs identical attack scenarios under both
//! policies and prints the collateral-damage contrast side by side.
//!
//! ```text
//! cargo run --release --example baseline_comparison
//! ```

use mafic_suite::core::DefensePolicy;
use mafic_suite::workload::{run_spec, ScenarioSpec};

fn main() -> Result<(), mafic_suite::workload::WorkloadError> {
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "policy", "alpha %", "theta_n %", "theta_p %", "Lr %", "beta %"
    );
    for pd in [0.7, 0.8, 0.9] {
        for (label, policy) in [
            ("MAFIC", DefensePolicy::FullMafic),
            ("proportional", DefensePolicy::ProportionalDrop),
        ] {
            let spec = ScenarioSpec {
                policy,
                drop_probability: pd,
                seed: 7,
                ..ScenarioSpec::default()
            };
            let outcome = run_spec(spec)?;
            let r = outcome.report;
            println!(
                "{:>11} {:>2.0}% {:>10.3} {:>10.3} {:>10.4} {:>10.3} {:>10.2}",
                label,
                pd * 100.0,
                r.accuracy_pct,
                r.false_negative_pct,
                r.false_positive_pct,
                r.legit_drop_pct,
                r.traffic_reduction_pct
            );
        }
    }
    println!();
    println!("Note the Lr column: proportional dropping destroys ~Pd of the");
    println!("legitimate traffic for the whole defense window, while MAFIC's");
    println!("collateral damage stays within a few percent (paper Fig. 7).");
    Ok(())
}
