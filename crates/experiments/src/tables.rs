//! Tables I and II of the paper: notation and default parameters,
//! printed next to the values this reproduction actually uses, plus a
//! measured default-configuration run.

use crate::engine::{run_specs, EngineConfig};
use mafic_workload::ScenarioSpec;

/// Renders Table I (notation) as text.
#[must_use]
pub(crate) fn table_i() -> String {
    let rows: &[(&str, &str)] = &[
        ("Pd", "SFT packet dropping probability"),
        ("R", "Flow rate (packets/second)"),
        ("Vt", "Traffic volume (total number of flows)"),
        ("Gamma", "Percentage of TCP flows"),
        ("alpha", "Attacking packets dropping accuracy"),
        ("N", "Domain size (number of routers)"),
        ("beta", "Traffic reduction rate"),
        ("theta_p", "False positive rate"),
        ("theta_n", "False negative rate"),
        (
            "Lr",
            "Legitimate packets dropped rate in identifying malicious flows",
        ),
    ];
    let mut out = String::from("=== Table I — notation ===\n");
    for (sym, def) in rows {
        out.push_str(&format!("{sym:>8}  {def}\n"));
    }
    out
}

/// Renders Table II (default parameters) with the paper's value and the
/// value this reproduction uses.
#[must_use]
pub(crate) fn table_ii() -> String {
    let spec = ScenarioSpec::default();
    let rows = [
        (
            "Pd",
            "90%".to_string(),
            format!("{:.0}%", spec.drop_probability * 100.0),
        ),
        (
            "R",
            "1e6 packets/second".to_string(),
            format!(
                "{} packets/s per source (see DESIGN.md on the paper's unit clash)",
                spec.flow_rate_pps
            ),
        ),
        (
            "Vt",
            "50 flows".to_string(),
            format!("{} flows", spec.total_flows),
        ),
        (
            "Gamma",
            "95%".to_string(),
            format!("{:.0}%", spec.tcp_share * 100.0),
        ),
        (
            "N",
            "40 routers".to_string(),
            format!("{} routers", spec.n_routers),
        ),
    ];
    let mut out = String::from("=== Table II — default parameters (paper vs this run) ===\n");
    out.push_str(&format!(
        "{:>8}  {:>22}  {}\n",
        "param", "paper", "reproduction"
    ));
    for (name, paper, ours) in rows {
        out.push_str(&format!("{name:>8}  {paper:>22}  {ours}\n"));
    }
    out
}

/// Runs the default configuration once (through the engine, like every
/// other experiment entrypoint) and renders its metrics.
///
/// # Errors
///
/// Propagates build/run errors.
pub(crate) fn default_run_summary(cfg: &EngineConfig) -> Result<String, String> {
    let outcome = run_specs(vec![ScenarioSpec::default()], cfg.jobs)?
        .pop()
        .expect("one spec in, one outcome out");
    let mut out = String::from("=== Default-configuration run ===\n");
    out.push_str(&outcome.report.to_string());
    out.push('\n');
    match outcome.triggered_at {
        Some(t) => out.push_str(&format!(
            "pushback triggered at {t} via {} ATRs\n",
            outcome.atr_nodes.len()
        )),
        None => out.push_str("pushback never triggered\n"),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_lists_all_symbols() {
        let t = table_i();
        for sym in ["Pd", "Vt", "alpha", "beta", "theta_p", "theta_n", "Lr"] {
            assert!(t.contains(sym), "missing {sym}");
        }
    }

    #[test]
    fn table_ii_shows_paper_and_ours() {
        let t = table_ii();
        assert!(t.contains("90%"));
        assert!(t.contains("40 routers"));
        assert!(t.contains("paper"));
        assert!(t.contains("reproduction"));
    }
}
