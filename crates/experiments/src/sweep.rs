//! Parameter sweeps with trial averaging, executed on the parallel
//! engine: a sweep flattens its `series × x × trial` grid into one flat
//! job list, fans it across the worker pool, and reassembles points in
//! grid order — so output is byte-identical at any worker count.

use crate::engine::{run_jobs, EngineConfig};
use mafic_metrics::{ControlPlaneReport, MetricsReport, PolicyCostReport};
use mafic_netsim::SimTime;
use mafic_workload::{run_spec, ScenarioSpec};

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
fn average_reports(reports: &[MetricsReport]) -> MetricsReport {
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

/// Reads one plotted number off a report.
pub(crate) type Metric = fn(&MetricsReport) -> f64;

/// One point of a sweep: the x value, its averaged report, and what the
/// text blocks read off the point's first trial.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept x value.
    pub x: f64,
    /// The trial-averaged report at this point.
    pub report: MetricsReport,
    /// Trial 0's control-plane counters: denials and stand-down latency
    /// are not trial-averageable.
    pub control: ControlPlaneReport,
    /// Trial 0's deployment-cost proxies, one row per policy.
    pub policy_costs: Vec<PolicyCostReport>,
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

/// A sweep before it runs: per series, its label and one base spec per
/// x value, and the seeds each point averages.
#[derive(Debug)]
pub(crate) struct SweepPlan {
    pub(crate) series: Vec<(String, Vec<(f64, ScenarioSpec)>)>,
    pub(crate) trials: u64,
}

impl SweepPlan {
    /// The `series × x` grid whose cell `(s, x)` is `make_spec(s, x)`.
    pub(crate) fn new<S>(
        series_values: &[(String, S)],
        x_values: &[f64],
        trials: u64,
        make_spec: impl Fn(&S, f64) -> ScenarioSpec,
    ) -> Self {
        let series = series_values
            .iter()
            .map(|(label, sv)| {
                let cells = x_values.iter().map(|&x| (x, make_spec(sv, x))).collect();
                (label.clone(), cells)
            })
            .collect();
        SweepPlan { series, trials }
    }

    /// Every run of the plan in grid order: each base spec once per
    /// trial seed.
    pub(crate) fn jobs(&self) -> Vec<ScenarioSpec> {
        self.series
            .iter()
            .flat_map(|(_, cells)| cells)
            .flat_map(|(_, base)| (0..self.trials).map(|t| trial_spec(base, t)))
            .collect()
    }

    /// Runs the whole `series × x × trial` grid as one flat job list on
    /// the engine, so every run — not just runs within one point —
    /// proceeds in parallel; reassembly follows grid order. Each run's
    /// time series is dropped as it finishes, so peak memory follows
    /// the grid's size, not that of its full
    /// [`RunOutcome`](mafic_workload::RunOutcome)s.
    pub(crate) fn run(self, jobs: usize) -> Result<Vec<SweepSeries>, String> {
        let mut runs = run_jobs(self.jobs(), jobs, |spec| {
            run_spec(spec)
                .map(|o| (o.report, o.control, o.policy_costs))
                .map_err(|e| e.to_string())
        })?
        .into_iter();
        let trials = self.trials as usize;
        let mut out = Vec::with_capacity(self.series.len());
        for (label, cells) in self.series {
            let mut points = Vec::with_capacity(cells.len());
            for (x, _) in cells {
                let mut point_runs = runs.by_ref().take(trials);
                let (first, control, policy_costs) = point_runs
                    .next()
                    .expect("a sweep point runs at least one trial");
                let mut reports = vec![first];
                reports.extend(point_runs.map(|(report, ..)| report));
                points.push(SweepPoint {
                    x,
                    report: average_reports(&reports),
                    control,
                    policy_costs,
                });
            }
            out.push(SweepSeries { label, points });
        }
        Ok(out)
    }
}

/// Runs a two-dimensional sweep: for each `(series value, x value)` pair
/// `make_spec` produces the scenario, which is run `cfg.trials` times.
/// The whole `series × x × trial` grid is one flat job list on the
/// engine; reassembly follows grid order.
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
    SweepPlan::new(series_values, x_values, cfg.trials, make_spec).run(cfg.jobs)
}

/// [`sweep`] under the name of the retired warm-started sweep, kept only
/// because the benchmark package still calls it: `_branch_at` is
/// ignored and every cell runs from time zero, so the grid is exactly
/// [`sweep`]'s.
///
/// # Errors
///
/// As [`sweep`].
pub fn sweep_warm<S: Clone + std::fmt::Debug>(
    series_values: &[(String, S)],
    x_values: &[f64],
    cfg: &EngineConfig,
    _branch_at: SimTime,
    make_spec: impl Fn(&S, f64) -> ScenarioSpec,
) -> Result<Vec<SweepSeries>, String> {
    sweep(series_values, x_values, cfg, make_spec)
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
        assert_eq!(sweeps[0].extract(|r| r.accuracy_pct).len(), 1);
    }
}
