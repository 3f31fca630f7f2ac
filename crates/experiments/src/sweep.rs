//! Parameter sweeps with trial averaging, executed on the parallel
//! engine: a sweep flattens its `series × x × trial` grid into one flat
//! job list, fans it across the worker pool, and reassembles points in
//! grid order — so output is byte-identical at any worker count.

use crate::engine::{run_jobs, EngineConfig};
use mafic_metrics::MetricsReport;
use mafic_netsim::SimTime;
use mafic_workload::{restore_branch, resume_scenario, run_spec, ScenarioSpec};

/// Derives the spec for trial `t` of `base` (per-trial seed decorrelated
/// with a SplitMix64 increment).
fn trial_spec(base: &ScenarioSpec, t: u64) -> ScenarioSpec {
    ScenarioSpec {
        seed: base
            .seed
            .wrapping_add(t.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ..base.clone()
    }
}

/// Aggregates several reports as if their runs were one pooled run:
/// counts are summed and every percent metric is **recomputed from the
/// summed counts** (ratio of sums). Averaging the per-trial percentages
/// instead (mean of ratios) silently overweights small trials when trial
/// sizes differ, and leaves the printed counts inconsistent with the
/// percentages beside them. The victim rates are per-run intensities
/// with no pooled denominator, so they stay plain means, and β is
/// re-derived from those mean rates.
///
/// # Panics
///
/// Panics if `reports` is empty.
#[must_use]
pub fn average_reports(reports: &[MetricsReport]) -> MetricsReport {
    assert!(!reports.is_empty(), "cannot average zero reports");
    let n = reports.len() as f64;
    let mut out = MetricsReport::default();
    for r in reports {
        out.victim_rate_before += r.victim_rate_before;
        out.victim_rate_after += r.victim_rate_after;
        out.residual_attack_bps += r.residual_attack_bps;
        out.legit_goodput_bps += r.legit_goodput_bps;
        out.legit_data_sent += r.legit_data_sent;
        out.legit_data_lost += r.legit_data_lost;
        out.attack_seen += r.attack_seen;
        out.attack_dropped += r.attack_dropped;
        out.legit_seen += r.legit_seen;
        out.legit_dropped += r.legit_dropped;
        out.legit_dropped_as_malicious += r.legit_dropped_as_malicious;
        out.flows.legit_flows += r.flows.legit_flows;
        out.flows.attack_flows += r.flows.attack_flows;
        out.flows.legit_condemned += r.flows.legit_condemned;
        out.flows.attack_condemned += r.flows.attack_condemned;
        out.flows.legit_cleared += r.flows.legit_cleared;
        out.flows.attack_cleared += r.flows.attack_cleared;
        // Peak occupancy has no pooled denominator: the worst trial is
        // the honest summary. The scratch-recycle tallies are plain
        // event counts, so they pool by summing like the packet counts.
        out.peak_arena_packets = out.peak_arena_packets.max(r.peak_arena_packets);
        out.scratch_inbox_drains += r.scratch_inbox_drains;
        out.scratch_sketch_recycles += r.scratch_sketch_recycles;
        out.victim_source_cardinality += r.victim_source_cardinality;
    }
    out.victim_rate_before /= n;
    out.victim_rate_after /= n;
    out.residual_attack_bps /= n;
    out.legit_goodput_bps /= n;
    out.victim_source_cardinality /= n;
    // One shared definition of the five formulas (mafic-metrics owns it).
    out.recompute_derived();
    out
}

/// Runs every spec on the engine keeping only the reports — grid runs
/// discard the (much larger) time series immediately, so peak memory
/// stays proportional to the grid count, not to full [`RunOutcome`]s.
fn run_reports(specs: Vec<ScenarioSpec>, jobs: usize) -> Result<Vec<MetricsReport>, String> {
    run_jobs(specs, jobs, |spec| {
        run_spec(spec).map(|o| o.report).map_err(|e| e.to_string())
    })
}

/// Runs `base` once per trial seed (fanned across the engine's workers)
/// and aggregates the reports.
///
/// # Errors
///
/// Propagates the first build/run error by trial index.
pub fn run_averaged(base: &ScenarioSpec, cfg: &EngineConfig) -> Result<MetricsReport, String> {
    let specs = (0..cfg.trials).map(|t| trial_spec(base, t)).collect();
    Ok(average_reports(&run_reports(specs, cfg.jobs)?))
}

/// Reads one plotted number off a report.
pub type Metric = fn(&MetricsReport) -> f64;

/// One point of a sweep: the x value and its averaged report.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept x value.
    pub x: f64,
    /// The trial-averaged report at this point.
    pub report: MetricsReport,
}

/// One swept series: a legend label plus its points.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSeries {
    /// Legend label.
    pub label: String,
    /// Points in sweep order.
    pub points: Vec<SweepPoint>,
}

impl SweepSeries {
    /// Extracts `(x, metric)` pairs via an accessor.
    #[must_use]
    pub fn extract(&self, metric: Metric) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.x, metric(&p.report)))
            .collect()
    }
}

/// Runs a two-dimensional sweep: for each `(series value, x value)` pair
/// `make_spec` produces the scenario, which is run `cfg.trials` times.
/// The whole `series × x × trial` grid is one flat job list on the
/// engine, so every run — not just runs within one point — proceeds in
/// parallel; reassembly follows grid order.
///
/// # Errors
///
/// Propagates the first build/run error by grid index.
pub fn sweep<S: Clone + std::fmt::Debug>(
    series_values: &[(String, S)],
    x_values: &[f64],
    cfg: &EngineConfig,
    make_spec: impl Fn(&S, f64) -> ScenarioSpec,
) -> Result<Vec<SweepSeries>, String> {
    let trials = cfg.trials as usize;
    let mut specs = Vec::with_capacity(series_values.len() * x_values.len() * trials);
    for (_, sv) in series_values {
        for &x in x_values {
            let base = make_spec(sv, x);
            for t in 0..cfg.trials {
                specs.push(trial_spec(&base, t));
            }
        }
    }
    let mut reports = run_reports(specs, cfg.jobs)?.into_iter();
    let mut out = Vec::with_capacity(series_values.len());
    for (label, _) in series_values {
        let mut points = Vec::with_capacity(x_values.len());
        for &x in x_values {
            let point_reports: Vec<MetricsReport> = reports.by_ref().take(trials).collect();
            points.push(SweepPoint {
                x,
                report: average_reports(&point_reports),
            });
        }
        out.push(SweepSeries {
            label: label.clone(),
            points,
        });
    }
    Ok(out)
}

/// Runs the same grid as [`sweep`], warm-started: within each
/// `(series, trial)` group only the **first x cell** runs from time
/// zero — capturing a verified checkpoint at `branch_at` on the way
/// through — and every other cell restores that checkpoint
/// ([`restore_branch`]) and resumes, skipping the shared prefix
/// entirely. Points reassemble in the exact grid order of [`sweep`],
/// so output is byte-identical to the cold sweep at any worker count.
///
/// Only sweeps whose x knob is inert before `branch_at` are eligible
/// (for MAFIC figures: knobs that first matter when the defense
/// triggers, branched before the attack begins). Eligibility is
/// *checked, not assumed*: restore re-verifies every component's state
/// digest against the branch cell's freshly built scenario, so a knob
/// that does perturb the prefix fails loudly with a named component
/// instead of silently producing wrong data.
///
/// # Errors
///
/// Propagates the first build/run/restore error by grid index (donor
/// cells first, then branch cells).
pub fn sweep_warm<S: Clone + std::fmt::Debug>(
    series_values: &[(String, S)],
    x_values: &[f64],
    cfg: &EngineConfig,
    branch_at: SimTime,
    make_spec: impl Fn(&S, f64) -> ScenarioSpec,
) -> Result<Vec<SweepSeries>, String> {
    let trials = cfg.trials as usize;
    let Some((&x0, rest_xs)) = x_values.split_first() else {
        return Ok(series_values
            .iter()
            .map(|(label, _)| SweepSeries {
                label: label.clone(),
                points: Vec::new(),
            })
            .collect());
    };
    // Phase 1 — donors: the first x cell of every (series, trial) runs
    // cold with the checkpoint capture armed.
    let mut donor_specs = Vec::with_capacity(series_values.len() * trials);
    for (_, sv) in series_values {
        let base = make_spec(sv, x0);
        for t in 0..cfg.trials {
            donor_specs.push(ScenarioSpec {
                checkpoint_at: Some(branch_at),
                ..trial_spec(&base, t)
            });
        }
    }
    let donors = run_jobs(donor_specs, cfg.jobs, |spec| {
        let outcome = run_spec(spec).map_err(|e| e.to_string())?;
        let bytes = outcome
            .checkpoint
            .ok_or_else(|| "donor run captured no checkpoint".to_string())?;
        Ok((outcome.report, bytes))
    })?;
    // Phase 2 — branches: every remaining cell overlays its trial's
    // donor checkpoint and resumes mid-run. Cells within one trial
    // share the donor because `trial_spec` gives every cell of a trial
    // the same decorrelated seed — which restore also enforces.
    let mut branch_inputs = Vec::with_capacity(series_values.len() * rest_xs.len() * trials);
    for (s_idx, (_, sv)) in series_values.iter().enumerate() {
        for &x in rest_xs {
            let base = make_spec(sv, x);
            for t in 0..cfg.trials {
                let spec = ScenarioSpec {
                    checkpoint_at: Some(branch_at),
                    ..trial_spec(&base, t)
                };
                branch_inputs.push((s_idx * trials + t as usize, spec));
            }
        }
    }
    let branch_reports = run_jobs(branch_inputs, cfg.jobs, |(donor_idx, spec)| {
        let (mut scenario, state) =
            restore_branch(&spec, &donors[donor_idx].1).map_err(|e| e.to_string())?;
        resume_scenario(&mut scenario, state)
            .map(|o| o.report)
            .map_err(|e| e.to_string())
    })?;
    // Reassemble in [`sweep`] grid order: donor reports fill x₀, branch
    // reports fill the remaining columns.
    let mut branches = branch_reports.into_iter();
    let mut out = Vec::with_capacity(series_values.len());
    for (s_idx, (label, _)) in series_values.iter().enumerate() {
        let mut points = Vec::with_capacity(x_values.len());
        let donor_reports: Vec<MetricsReport> =
            (0..trials).map(|t| donors[s_idx * trials + t].0).collect();
        points.push(SweepPoint {
            x: x0,
            report: average_reports(&donor_reports),
        });
        for &x in rest_xs {
            let point_reports: Vec<MetricsReport> = branches.by_ref().take(trials).collect();
            points.push(SweepPoint {
                x,
                report: average_reports(&point_reports),
            });
        }
        out.push(SweepSeries {
            label: label.clone(),
            points,
        });
    }
    Ok(out)
}

/// Builds a [`crate::FigureData`] from sweep output and a metric accessor.
#[must_use]
pub fn figure_from_sweep(
    id: &str,
    title: &str,
    x_label: &str,
    y_label: &str,
    sweeps: &[SweepSeries],
    metric: Metric,
) -> crate::FigureData {
    let mut fig = crate::FigureData::new(id, title, x_label, y_label);
    for s in sweeps {
        fig.push_series(s.label.clone(), s.extract(metric));
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averaging_recomputes_percentages_from_summed_counts() {
        let a = MetricsReport {
            accuracy_pct: 90.0,
            attack_seen: 100,
            attack_dropped: 90,
            ..MetricsReport::default()
        };
        let b = MetricsReport {
            accuracy_pct: 100.0,
            attack_seen: 50,
            attack_dropped: 50,
            ..MetricsReport::default()
        };
        let avg = average_reports(&[a, b]);
        // Ratio of sums: 140/150, not the mean of ratios (95%).
        assert!((avg.accuracy_pct - 140.0 / 150.0 * 100.0).abs() < 1e-9);
        assert!((avg.false_negative_pct - 10.0 / 150.0 * 100.0).abs() < 1e-9);
        assert_eq!(avg.attack_seen, 150);
        assert_eq!(avg.attack_dropped, 140);
    }

    #[test]
    fn averaged_percentages_stay_consistent_with_counts() {
        let a = MetricsReport {
            attack_seen: 1000,
            attack_dropped: 900,
            legit_seen: 1000,
            legit_dropped: 120,
            legit_dropped_as_malicious: 20,
            ..MetricsReport::default()
        };
        let b = MetricsReport {
            attack_seen: 10,
            attack_dropped: 1,
            legit_seen: 10,
            legit_dropped: 10,
            legit_dropped_as_malicious: 10,
            ..MetricsReport::default()
        };
        let avg = average_reports(&[a, b]);
        let expect_acc = avg.attack_dropped as f64 / avg.attack_seen as f64 * 100.0;
        let expect_lr = avg.legit_dropped as f64 / avg.legit_seen as f64 * 100.0;
        let expect_fpr = avg.legit_dropped_as_malicious as f64
            / (avg.attack_seen + avg.legit_seen) as f64
            * 100.0;
        assert!((avg.accuracy_pct - expect_acc).abs() < 1e-9);
        assert!((avg.legit_drop_pct - expect_lr).abs() < 1e-9);
        assert!((avg.false_positive_pct - expect_fpr).abs() < 1e-9);
    }

    #[test]
    fn victim_rates_average_and_beta_follows() {
        let a = MetricsReport {
            victim_rate_before: 100.0,
            victim_rate_after: 40.0,
            ..MetricsReport::default()
        };
        let b = MetricsReport {
            victim_rate_before: 200.0,
            victim_rate_after: 20.0,
            ..MetricsReport::default()
        };
        let avg = average_reports(&[a, b]);
        assert!((avg.victim_rate_before - 150.0).abs() < 1e-9);
        assert!((avg.victim_rate_after - 30.0).abs() < 1e-9);
        assert!((avg.traffic_reduction_pct - 80.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot average zero reports")]
    fn empty_average_rejected() {
        let _ = average_reports(&[]);
    }

    #[test]
    fn warm_sweep_matches_cold_sweep() {
        // The depth knob is inert until the defense triggers, so
        // branching at the attack instant must reproduce the cold grid
        // byte-for-byte — donors, branches, and trial averaging alike.
        let series = vec![("chain".to_string(), ())];
        let xs = vec![0.0, 1.0];
        let cfg = EngineConfig { jobs: 2, trials: 2 };
        let make = |_: &(), depth: f64| ScenarioSpec {
            total_flows: 12,
            n_routers: 6,
            domains: 3,
            transit_topology: mafic_topology::TransitTopology::Chain { depth: 1 },
            pushback_depth: depth as u32,
            attack_start: SimTime::from_secs_f64(0.8),
            end: SimTime::from_secs_f64(3.0),
            ..ScenarioSpec::default()
        };
        let cold = sweep(&series, &xs, &cfg, make).unwrap();
        let warm = sweep_warm(&series, &xs, &cfg, SimTime::from_secs_f64(0.8), make).unwrap();
        assert_eq!(cold, warm);
    }

    #[test]
    fn warm_sweep_with_empty_axis_yields_empty_series() {
        let series = vec![("s".to_string(), ())];
        let cfg = EngineConfig { jobs: 1, trials: 1 };
        let warm = sweep_warm(&series, &[], &cfg, SimTime::ZERO, |(), _| {
            ScenarioSpec::default()
        })
        .unwrap();
        assert_eq!(warm.len(), 1);
        assert!(warm[0].points.is_empty());
    }

    #[test]
    fn sweep_runs_tiny_grid() {
        let series = vec![("Pd=90%".to_string(), 0.9f64)];
        let xs = vec![8.0];
        let cfg = EngineConfig { jobs: 2, trials: 1 };
        let sweeps = sweep(&series, &xs, &cfg, |&pd, x| ScenarioSpec {
            total_flows: x as usize,
            n_routers: 5,
            drop_probability: pd,
            end: mafic_netsim::SimTime::from_secs_f64(2.5),
            ..ScenarioSpec::default()
        })
        .unwrap();
        assert_eq!(sweeps.len(), 1);
        assert_eq!(sweeps[0].points.len(), 1);
        let fig = figure_from_sweep("T", "t", "x", "y", &sweeps, |r| r.accuracy_pct);
        assert_eq!(fig.series.len(), 1);
    }
}
