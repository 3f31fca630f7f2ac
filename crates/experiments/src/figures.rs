//! The paper's figures: spec builders and axes, the sweeps that run
//! them, and the panel table the `figures` binary prints from.
//!
//! The first half builds scenarios; the second half (`PANELS`) lists
//! every printed block once — its id, the sweep it draws from, and the
//! metrics or text builder that renders it. The absolute numbers come
//! from our simulator, not the authors' NS-2 testbed; what must match
//! is the *shape* — who wins, the bands, the trends (see EXPERIMENTS.md
//! for the side-by-side record).

use crate::engine::{run_specs, EngineConfig};
use crate::figure::FigureData;
use crate::sweep::{Metric, SweepPlan, SweepSeries};
use crate::{ablations, tables};
use mafic::DefensePolicy;
use mafic_adversary::{AdversarySpec, StrategyKind};
use mafic_metrics::MetricsReport;
use mafic_netsim::SimTime;
use mafic_topology::TransitTopology;
use mafic_workload::{DetectionMode, NominalRate, ScenarioSpec};
use std::collections::btree_map::{BTreeMap, Entry};

/// The traffic-volume axis used by Figs. 3(a), 4(a), 5(a), 6(a), 7.
#[must_use]
pub fn vt_axis() -> Vec<f64> {
    vec![10.0, 30.0, 50.0, 70.0, 90.0, 110.0]
}

/// The TCP-share axis of Figs. 5(b)/6(b) (percent of flows that are TCP).
#[must_use]
pub(crate) fn gamma_axis() -> Vec<f64> {
    vec![35.0, 55.0, 75.0, 95.0]
}

/// The domain-size axis of Figs. 5(c)/6(c).
#[must_use]
pub(crate) fn domain_axis() -> Vec<f64> {
    vec![20.0, 40.0, 80.0, 120.0, 160.0]
}

/// The paper's three drop probabilities.
#[must_use]
pub fn pd_series() -> Vec<(String, f64)> {
    vec![
        ("Pd=90%".to_string(), 0.9),
        ("Pd=80%".to_string(), 0.8),
        ("Pd=70%".to_string(), 0.7),
    ]
}

fn lr(r: &MetricsReport) -> f64 {
    r.legit_drop_pct
}

/// Fig. 4(b): victim-side flow bandwidth over time, one series per `Vt`.
///
/// The paper plots seconds 1–3, bracketing the attack (t = 1 s) and the
/// MAFIC response; we emit the offered-load series at the victim's
/// last-hop router over the same span.
///
/// # Errors
///
/// Propagates build/run errors.
pub(crate) fn fig4b(cfg: &EngineConfig) -> Result<FigureData, String> {
    let mut fig = FigureData::new(
        "Fig. 4(b)",
        "Flow bandwidth at the victim over time",
        "time (s)",
        "bandwidth (B/s)",
    );
    let vts = [10usize, 30, 50];
    let specs = vts
        .iter()
        .map(|&vt| ScenarioSpec {
            total_flows: vt,
            seed: 23,
            ..ScenarioSpec::default()
        })
        .collect();
    for (vt, outcome) in vts.iter().zip(run_specs(specs, cfg.jobs)?) {
        let points = outcome
            .series
            .iter()
            .filter(|p| p.time_s >= 1.0 && p.time_s <= 3.0)
            .map(|p| (p.time_s, p.total_bps()))
            .collect();
        fig.push_series(format!("Vt={vt}"), points);
    }
    Ok(fig)
}

/// The pushback-depth axis of Fig. 8: 0 (victim-domain-only, today's
/// single-domain behaviour) through the transit tier to the source
/// stubs.
#[must_use]
pub fn depth_axis() -> Vec<f64> {
    vec![0.0, 1.0, 2.0, 3.0]
}

/// The default multi-domain flood behind Fig. 8: three stub domains
/// (the victim's plus two remote) over a two-level transit chain, so
/// depth 3 pushes the defense all the way into the zombies' own stubs.
#[must_use]
pub fn fig8_spec(depth: u32) -> ScenarioSpec {
    ScenarioSpec {
        total_flows: 36,
        tcp_share: 0.85,
        domains: 3,
        transit_topology: TransitTopology::Chain { depth: 2 },
        pushback_depth: depth,
        end: SimTime::from_secs_f64(6.0),
        seed: 29,
        ..ScenarioSpec::default()
    }
}

/// The participation-fraction axis of Fig. 9: from a victim-domain-only
/// deployment (nobody upstream cooperates) to the full federation.
#[must_use]
pub fn participation_axis() -> Vec<f64> {
    vec![0.0, 0.25, 0.5, 0.75, 1.0]
}

/// The victim-bound byte-rate cap of the Fig. 9 rate-limit transit
/// policy: 250 kB/s, one tenth of an inter-domain link.
pub const FIG9_RATE_LIMIT_BPS: f64 = 250_000.0;

/// The transit-tier policies compared by Fig. 9: stubs always run full
/// MAFIC; transit ASes run the full dropper, the proportional baseline,
/// or the O(1) aggregate rate limit.
#[must_use]
pub fn transit_policy_series() -> Vec<(String, DefensePolicy)> {
    vec![
        ("transit=mafic".to_string(), DefensePolicy::FullMafic),
        (
            "transit=proportional".to_string(),
            DefensePolicy::ProportionalDrop,
        ),
        (
            "transit=rate-limit".to_string(),
            DefensePolicy::AggregateRateLimit {
                limit_bytes_per_sec: FIG9_RATE_LIMIT_BPS,
            },
        ),
    ]
}

/// The partial-deployment flood behind Fig. 9: the Fig. 8 multi-domain
/// scenario with the full escalation budget, a per-domain transit
/// policy, and the given fraction of non-victim domains participating.
#[must_use]
pub fn fig9_spec(fraction: f64, transit: DefensePolicy) -> ScenarioSpec {
    ScenarioSpec {
        pushback_depth: 3,
        participation_fraction: fraction,
        transit_policy: Some(transit),
        seed: 31,
        ..fig8_spec(3)
    }
}

/// The trust-budget axis of Fig. 10: fresh installs each requester may
/// cause at an upstream domain, from "trust nobody" to generous.
#[must_use]
pub fn trust_budget_axis() -> Vec<f64> {
    vec![0.0, 1.0, 2.0, 4.0]
}

/// The honest Fig. 10 scenario: the Fig. 8 multi-domain flood with the
/// full escalation budget, swept over the upstream trust budget. At
/// budget 0 every escalation is denied (the defense stays in the victim
/// domain); any positive budget admits the honest cascade.
#[must_use]
pub fn fig10_honest_spec(trust_budget: u32) -> ScenarioSpec {
    ScenarioSpec {
        trust_budget,
        ..fig8_spec(3)
    }
}

/// The malicious Fig. 10 scenario — same topology, no real flood: the
/// victim's own provider (domain 1) is compromised and spams forged
/// `Request` envelopes at its upstream, claiming a flood toward the
/// victim that does not exist, trying to get the victim's legitimate
/// traffic dropped. The zombies only trickle (5% load, below every
/// threshold) and detection is off, so whatever legitimate goodput the
/// victim loses is the malicious pushback's doing. With `attested` the
/// trust ledgers corroborate claims against their own meters (the
/// defended configuration); without, any authorized requester is
/// believed — the unguarded legacy behaviour whose goodput damage the
/// figure exposes.
#[must_use]
pub fn fig10_malicious_spec(trust_budget: u32, attested: bool) -> ScenarioSpec {
    ScenarioSpec {
        trust_budget,
        attestation_fraction: if attested { 0.25 } else { 0.0 },
        attack_load_factor: 0.05,
        detection: DetectionMode::Off,
        malicious_pushback: Some(1),
        seed: 37,
        ..fig8_spec(3)
    }
}

/// The three Fig. 10 configurations: the honest cascade (`None`) and
/// the malicious requester, attested or not.
fn fig10_series() -> Vec<(String, Option<bool>)> {
    vec![
        ("honest cascade".to_string(), None),
        ("malicious, attested".to_string(), Some(true)),
        ("malicious, unguarded".to_string(), Some(false)),
    ]
}

/// The closed-loop strategies Fig. 11 sweeps, plus the open-loop
/// baseline (`None`): every adaptive series must do at least as much
/// damage as the static flood it adapts from, at the same send budget.
#[must_use]
pub fn adversary_strategy_series() -> Vec<(String, Option<StrategyKind>)> {
    vec![
        ("open loop".to_string(), None),
        (
            "rotation".to_string(),
            // Churns cohorts every 4 intervals — well inside the
            // defense's 12-interval lease, so paused cohorts drain the
            // meters into a stand-down and resume against a flushed
            // filter table.
            Some(StrategyKind::SourceRotation {
                period_intervals: 4,
                active_fraction: 0.5,
            }),
        ),
        (
            "attestation".to_string(),
            // Steps the aggregate down toward the attestation floor
            // whenever losses bite, trading rate for corroboration
            // failures upstream.
            Some(StrategyKind::AttestationShaping {
                step_milli: 150,
                floor_milli: 250,
            }),
        ),
        (
            "pulse".to_string(),
            // Period-locked to the trigger hysteresis: one dark
            // interval per K-interval cycle, survivors boosted to keep
            // the budget flat.
            Some(StrategyKind::PulseTuning { boost_milli: 0 }),
        ),
        (
            "carpet".to_string(),
            // Concentrates the whole budget on one sibling stub at a
            // time, rotating before any single ingress profile settles.
            Some(StrategyKind::CarpetBombing {
                period_intervals: 2,
            }),
        ),
    ]
}

/// The Fig. 11 scenario: the Fig. 8 multi-domain flood under a given
/// trust budget, with the subsidence guard's source floor armed and an
/// optional closed-loop adversary driving the attack sources. `None`
/// keeps the open-loop senders untouched — byte-identical to a
/// pre-adversary run of the same spec.
#[must_use]
pub fn fig11_spec(strategy: Option<StrategyKind>, trust_budget: u32) -> ScenarioSpec {
    ScenarioSpec {
        trust_budget,
        // A healthy victim interval sees well over 20 distinct sources
        // here (36 flows plus ACK traffic); an evasion cohort parks the
        // flood on a handful. Positive floor = secondary evidence armed.
        subsidence_source_floor: 6.0,
        adversary: strategy.map(AdversarySpec::with_strategy),
        seed: 41,
        ..fig8_spec(3)
    }
}

/// A shared run that one or more panels draw from: series × x axis ×
/// trials, run at most once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sweep {
    /// `(Pd × Vt)`: Figs. 3(a), 4(a), 5(a), 6(a), 7.
    PdVt,
    /// `(R × Vt)`: Fig. 3(b).
    RateVt,
    /// `(Vt × Γ)`: Figs. 5(b)/6(b).
    VtGamma,
    /// `(Γ × N)`: Figs. 5(c)/6(c).
    GammaDomain,
    /// Pushback depth: both Fig. 8 panels.
    Depth,
    /// Participation fraction × transit policy: Fig. 9.
    Partial,
    /// Requester honesty × trust budget: Fig. 10.
    Trust,
    /// Attack strategy × trust budget: Fig. 11.
    Adaptive,
    /// Probe-timer multiplier, 1×, 2× (paper), 4× RTT, plus the
    /// proportional baseline at 2×: Ablations A and B.
    Timer,
}

impl Sweep {
    /// The run's cells and trial count. Figs. 10 and 11 run one trial
    /// whatever `cfg.trials` says: their control-plane counters (denials
    /// by reason, stand-down latency) are not trial-averageable, and the
    /// closed feedback loop makes each Fig. 11 trial a different *game*,
    /// not a noisy sample of one.
    pub(crate) fn plan(self, cfg: &EngineConfig) -> SweepPlan {
        let trials = cfg.trials;
        match self {
            Sweep::PdVt => {
                SweepPlan::new(&pd_series(), &vt_axis(), trials, |&pd, vt| ScenarioSpec {
                    total_flows: vt as usize,
                    drop_probability: pd,
                    seed: 11,
                    ..ScenarioSpec::default()
                })
            }
            Sweep::RateVt => {
                let rates = [NominalRate::R100k, NominalRate::R500k, NominalRate::R1M]
                    .map(|r| (r.label().to_string(), r));
                SweepPlan::new(&rates, &vt_axis(), trials, |&rate, vt| ScenarioSpec {
                    total_flows: vt as usize,
                    flow_rate_pps: rate.pps(),
                    seed: 13,
                    ..ScenarioSpec::default()
                })
            }
            Sweep::VtGamma => {
                let vts = [30usize, 70, 100].map(|v| (format!("Vt={v}"), v));
                SweepPlan::new(&vts, &gamma_axis(), trials, |&vt, gamma_pct| ScenarioSpec {
                    total_flows: vt,
                    tcp_share: gamma_pct / 100.0,
                    seed: 17,
                    ..ScenarioSpec::default()
                })
            }
            Sweep::GammaDomain => {
                let gammas = [95.0f64, 75.0, 55.0, 35.0].map(|g| (format!("TCP={g:.0}%"), g));
                SweepPlan::new(&gammas, &domain_axis(), trials, |&gamma_pct, n| {
                    ScenarioSpec {
                        total_flows: 50,
                        tcp_share: gamma_pct / 100.0,
                        n_routers: n as usize,
                        seed: 19,
                        ..ScenarioSpec::default()
                    }
                })
            }
            Sweep::Depth => {
                let series = [("chain(2)+stubs".to_string(), ())];
                SweepPlan::new(&series, &depth_axis(), trials, |(), depth| {
                    fig8_spec(depth as u32)
                })
            }
            Sweep::Partial => SweepPlan::new(
                &transit_policy_series(),
                &participation_axis(),
                trials,
                |&transit, fraction| fig9_spec(fraction, transit),
            ),
            Sweep::Trust => SweepPlan::new(
                &fig10_series(),
                &trust_budget_axis(),
                1,
                |&attested, budget| match attested {
                    None => fig10_honest_spec(budget as u32),
                    Some(attested) => fig10_malicious_spec(budget as u32, attested),
                },
            ),
            Sweep::Adaptive => SweepPlan::new(
                &adversary_strategy_series(),
                &trust_budget_axis(),
                1,
                |&strategy, budget| fig11_spec(strategy, budget as u32),
            ),
            Sweep::Timer => {
                let timer = |&policy: &DefensePolicy, mult| ScenarioSpec {
                    policy,
                    timer_rtt_multiplier: mult,
                    ..ScenarioSpec::default()
                };
                let mafic = [(String::new(), DefensePolicy::FullMafic)];
                let mut plan = SweepPlan::new(&mafic, &[1.0, 2.0, 4.0], trials, timer);
                // Ablation A's baseline, at the paper's 2x only.
                let baseline = [("proportional".to_string(), DefensePolicy::ProportionalDrop)];
                plan.series
                    .extend(SweepPlan::new(&baseline, &[2.0], trials, timer).series);
                plan
            }
        }
    }

    /// The x axis every panel of this run is plotted against: the
    /// phrase a panel title ends on (`None`: the plot's title stands
    /// alone) and the axis label.
    fn x_axis(self) -> (Option<&'static str>, &'static str) {
        match self {
            Sweep::PdVt | Sweep::RateVt => (Some("traffic volume"), "Vt (flows)"),
            Sweep::VtGamma => (Some("percentage of TCP traffic"), "TCP share (%)"),
            Sweep::GammaDomain => (Some("domain size"), "N (routers)"),
            Sweep::Depth => (Some("pushback depth"), "pushback depth (domains upstream)"),
            Sweep::Partial => (Some("participation fraction"), "participation fraction"),
            Sweep::Trust | Sweep::Adaptive => (None, "trust budget (installs per requester)"),
            Sweep::Timer => (None, "timer (x RTT)"),
        }
    }
}

/// What a sweep-backed panel plots.
#[derive(Debug, Clone, Copy)]
pub struct Plot {
    /// The panel title, followed by ` vs <x phrase>` when the run's x
    /// axis has one.
    pub title: &'static str,
    /// Y-axis label.
    pub y_label: &'static str,
    /// One curve per drawn series and entry: the suffix appended to the
    /// series label, and the metric read off each point's report.
    pub curves: &'static [(&'static str, Metric)],
    /// The series drawn, by label; empty draws every series of the run.
    pub series: &'static [&'static str],
}

const ALPHA: Plot = Plot {
    title: "Attack packet dropping accuracy",
    y_label: "accuracy alpha (%)",
    curves: &[("", |r| r.accuracy_pct)],
    series: &[],
};
const BETA: Plot = Plot {
    title: "Traffic reduction rate",
    y_label: "traffic reduction beta (%)",
    curves: &[("", |r| r.traffic_reduction_pct)],
    series: &[],
};
const THETA_P: Plot = Plot {
    title: "False positive rate",
    y_label: "false positive rate (%)",
    curves: &[("", |r| r.false_positive_pct)],
    series: &[],
};
const THETA_N: Plot = Plot {
    title: "False negative rate",
    y_label: "false negative rate (%)",
    curves: &[("", |r| r.false_negative_pct)],
    series: &[],
};
const LR: Plot = Plot {
    title: "Legitimate packet dropping rate",
    y_label: "legit packet dropping rate Lr (%)",
    curves: &[("", lr)],
    series: &[],
};
/// The residual attack rate (suppression β's complement, non-increasing
/// in depth) beside the legitimate goodput (which rises as deeper
/// deployment decongests the transit links).
const VICTIM_RATES: Plot = Plot {
    title: "Victim-side rates",
    y_label: "rate at the victim (B/s)",
    curves: &[
        (" residual attack", |r| r.residual_attack_bps),
        (" legit goodput", |r| r.legit_goodput_bps),
    ],
    series: &[],
};
/// Total legitimate data loss (defense drops + flood-congestion queue
/// losses) beside the paper's ATR-only `Lr`.
const COLLATERAL: Plot = Plot {
    title: "Collateral damage",
    y_label: "legitimate loss (%)",
    curves: &[(" collateral", |r| r.collateral_pct), (" Lr", lr)],
    series: &[],
};
/// The honest cascade under trust budgets: residual attack rate (every
/// escalation denied at budget 0; non-increasing as budget admits the
/// cascade) beside the victim's legitimate goodput.
const HONEST_CASCADE: Plot = Plot {
    title: "Honest cascade vs upstream trust budget",
    series: &["honest cascade"],
    ..VICTIM_RATES
};
/// Malicious pushback vs attestation: the victim's legitimate goodput
/// with the trust ledgers corroborating claims (flat: forged requests
/// are denied) against the unguarded configuration (goodput falls once
/// the budget lets the forged install through).
const MALICIOUS_PUSHBACK: Plot = Plot {
    title: "Victim goodput under malicious pushback",
    y_label: "legit goodput at the victim (B/s)",
    curves: &[(" goodput", |r| r.legit_goodput_bps), (" Lr", lr)],
    series: &["malicious, attested", "malicious, unguarded"],
};
/// Residual attack rate per strategy: every adaptive series sits at or
/// above the open-loop baseline; the gap is what closing the loop buys
/// the attacker.
const ADAPTIVE_RESIDUAL: Plot = Plot {
    title: "Residual attack rate per adaptive strategy",
    y_label: "residual attack at the victim (B/s)",
    curves: &[(" residual attack", |r| r.residual_attack_bps)],
    series: &[],
};
/// What the adaptation costs the bystanders: the victim's legitimate
/// goodput per strategy beside the mean distinct-source cardinality its
/// flood presents (the subsidence guard's secondary evidence; rotation
/// parks it low).
const ADAPTIVE_GOODPUT: Plot = Plot {
    title: "Victim goodput and observed sources per adaptive strategy",
    y_label: "legit goodput (B/s) / distinct sources",
    curves: &[
        (" goodput", |r| r.legit_goodput_bps),
        (" sources", |r| r.victim_source_cardinality),
    ],
    series: &[],
};
/// Ablation B: one curve per metric of the run's MAFIC series (the
/// unlabelled one).
const TIMER: Plot = Plot {
    title: "Probation timer length vs classification quality",
    y_label: "percent",
    curves: &[
        ("alpha", |r| r.accuracy_pct),
        ("Lr", lr),
        ("theta_p", |r| r.false_positive_pct),
    ],
    series: &[""],
};

/// Plots a finished sweep as the figure called `name`.
fn plot_sweep(name: &str, key: Sweep, plot: &Plot, sweeps: &[SweepSeries]) -> FigureData {
    let (x_title, x_label) = key.x_axis();
    let title = match x_title {
        Some(x_title) => format!("{} vs {x_title}", plot.title),
        None => plot.title.to_string(),
    };
    let mut fig = FigureData::new(name, title, x_label, plot.y_label);
    let drawn = sweeps
        .iter()
        .filter(|s| plot.series.is_empty() || plot.series.contains(&s.label.as_str()));
    for s in drawn {
        for &(suffix, metric) in plot.curves {
            fig.push_series(format!("{}{suffix}", s.label), s.extract(metric));
        }
    }
    fig
}

/// The per-policy deployment-cost table at full participation, read off
/// the Fig. 9 run's last column: table state bytes and timer events per
/// policy label.
fn fig9_cost_summary(sweeps: &[SweepSeries]) -> String {
    let mut out = String::new();
    for s in sweeps {
        for p in s.points.iter().filter(|p| p.x == 1.0) {
            out.push_str(&mafic_metrics::cost_table(
                &format!("Policy cost proxies @ full participation, {}", s.label),
                &p.policy_costs,
            ));
        }
    }
    out
}

/// The control-plane denial tables of Fig. 10: requests, denials by
/// reason, installs granted, and the stand-down latency per cell.
fn fig10_denial_summary(sweeps: &[SweepSeries]) -> String {
    let mut out = String::new();
    for s in sweeps {
        for p in &s.points {
            out.push_str(&mafic_metrics::control_table(
                &format!("Control plane @ {}, budget {}", s.label, p.x),
                &p.control,
            ));
        }
    }
    out
}

/// The best-response table of Fig. 11: per trust budget, the strategy
/// that leaves the most attack traffic standing at the victim, with its
/// margin over the open-loop baseline.
fn fig11_best_response_summary(sweeps: &[SweepSeries]) -> String {
    let mut out = String::from("Attacker best response per trust budget\n");
    for &budget in &trust_budget_axis() {
        let at_budget = || {
            sweeps.iter().filter_map(move |s| {
                let p = s.points.iter().find(|p| p.x == budget)?;
                Some((s.label.as_str(), p.report.residual_attack_bps))
            })
        };
        let open_loop = at_budget()
            .find(|&(label, _)| label == "open loop")
            .map_or(0.0, |(_, residual)| residual);
        if let Some((label, residual)) = at_budget().max_by(|a, b| a.1.total_cmp(&b.1)) {
            out.push_str(&format!(
                "  budget {budget:>3}: {label:<12} {residual:>10.0} B/s residual \
                 (open loop {open_loop:>10.0} B/s, margin {:>+8.0} B/s)\n",
                residual - open_loop,
            ));
        }
    }
    out
}

/// The per-policy cost tables (with the collateral attribution columns)
/// for every Fig. 11 series at the largest trust budget — the
/// configuration where the defense fights hardest and the split between
/// filter-caused and congestion-caused legitimate losses matters most.
fn fig11_cost_summary(sweeps: &[SweepSeries]) -> String {
    let max_budget = trust_budget_axis().last().copied().unwrap_or_default();
    let mut out = String::new();
    for s in sweeps {
        for p in s.points.iter().filter(|p| p.x == max_budget) {
            out.push_str(&mafic_metrics::cost_table(
                &format!(
                    "Policy costs @ {}, budget {} (filtered vs queue legit drops)",
                    s.label, p.x
                ),
                &p.policy_costs,
            ));
        }
    }
    out
}

/// How a [`Panel`] is produced: from which shared run, by which plot or
/// text builder.
#[derive(Debug, Clone, Copy)]
pub enum Render {
    /// A figure plotted from a finished sweep.
    Plot(Sweep, Plot),
    /// A text block built from a finished sweep.
    Text(Sweep, fn(&[SweepSeries]) -> String),
    /// A figure that shares no run with another panel.
    Own(fn(&EngineConfig) -> Result<FigureData, String>),
    /// A text block that shares no run with another panel.
    OwnText(fn(&EngineConfig) -> Result<String, String>),
}

/// One block of the `figures` binary's output.
#[derive(Debug, Clone, Copy)]
pub struct Panel {
    /// The command-line id the block prints under (`fig3`, `tables`, …).
    pub id: &'static str,
    /// What the block is (`Fig. 3(a)`, `Table I`, …); figures carry it
    /// as their [`FigureData::id`].
    pub name: &'static str,
    /// How the block is produced.
    pub render: Render,
}

impl Panel {
    /// Whether the block is free text rather than a figure. Every block
    /// is followed by a blank line, except a text block that ends the
    /// output.
    #[must_use]
    pub fn is_text(&self) -> bool {
        matches!(self.render, Render::Text(..) | Render::OwnText(_))
    }
}

/// The id whose panels a bare `figures` run leaves out.
const ABLATIONS: &str = "ablations";

/// Every block `figures` can print, in paper order. A panel is added
/// here and nowhere else.
pub(crate) const PANELS: &[Panel] = &[
    Panel {
        id: "tables",
        name: "Table I",
        render: Render::OwnText(|_| Ok(tables::table_i())),
    },
    Panel {
        id: "tables",
        name: "Table II",
        render: Render::OwnText(|_| Ok(tables::table_ii())),
    },
    Panel {
        id: "tables",
        name: "Default run",
        render: Render::OwnText(tables::default_run_summary),
    },
    Panel {
        id: "fig3",
        name: "Fig. 3(a)",
        render: Render::Plot(Sweep::PdVt, ALPHA),
    },
    Panel {
        id: "fig3",
        name: "Fig. 3(b)",
        render: Render::Plot(Sweep::RateVt, ALPHA),
    },
    Panel {
        id: "fig4",
        name: "Fig. 4(a)",
        render: Render::Plot(Sweep::PdVt, BETA),
    },
    Panel {
        id: "fig4",
        name: "Fig. 4(b)",
        render: Render::Own(fig4b),
    },
    Panel {
        id: "fig5",
        name: "Fig. 5(a)",
        render: Render::Plot(Sweep::PdVt, THETA_P),
    },
    Panel {
        id: "fig5",
        name: "Fig. 5(b)",
        render: Render::Plot(Sweep::VtGamma, THETA_P),
    },
    Panel {
        id: "fig5",
        name: "Fig. 5(c)",
        render: Render::Plot(Sweep::GammaDomain, THETA_P),
    },
    Panel {
        id: "fig6",
        name: "Fig. 6(a)",
        render: Render::Plot(Sweep::PdVt, THETA_N),
    },
    Panel {
        id: "fig6",
        name: "Fig. 6(b)",
        render: Render::Plot(Sweep::VtGamma, THETA_N),
    },
    Panel {
        id: "fig6",
        name: "Fig. 6(c)",
        render: Render::Plot(Sweep::GammaDomain, THETA_N),
    },
    Panel {
        id: "fig7",
        name: "Fig. 7",
        render: Render::Plot(Sweep::PdVt, LR),
    },
    Panel {
        id: "fig8",
        name: "Fig. 8(a)",
        render: Render::Plot(Sweep::Depth, VICTIM_RATES),
    },
    Panel {
        id: "fig8",
        name: "Fig. 8(b)",
        render: Render::Plot(Sweep::Depth, COLLATERAL),
    },
    Panel {
        id: "fig9",
        name: "Fig. 9(a)",
        render: Render::Plot(Sweep::Partial, VICTIM_RATES),
    },
    Panel {
        id: "fig9",
        name: "Fig. 9(b)",
        render: Render::Plot(Sweep::Partial, COLLATERAL),
    },
    Panel {
        id: "fig9",
        name: "Fig. 9 policy costs",
        render: Render::Text(Sweep::Partial, fig9_cost_summary),
    },
    Panel {
        id: "fig10",
        name: "Fig. 10(a)",
        render: Render::Plot(Sweep::Trust, HONEST_CASCADE),
    },
    Panel {
        id: "fig10",
        name: "Fig. 10(b)",
        render: Render::Plot(Sweep::Trust, MALICIOUS_PUSHBACK),
    },
    Panel {
        id: "fig10",
        name: "Fig. 10 denials",
        render: Render::Text(Sweep::Trust, fig10_denial_summary),
    },
    Panel {
        id: "fig11",
        name: "Fig. 11(a)",
        render: Render::Plot(Sweep::Adaptive, ADAPTIVE_RESIDUAL),
    },
    Panel {
        id: "fig11",
        name: "Fig. 11(b)",
        render: Render::Plot(Sweep::Adaptive, ADAPTIVE_GOODPUT),
    },
    Panel {
        id: "fig11",
        name: "Fig. 11 best response",
        render: Render::Text(Sweep::Adaptive, fig11_best_response_summary),
    },
    Panel {
        id: "fig11",
        name: "Fig. 11 policy costs",
        render: Render::Text(Sweep::Adaptive, fig11_cost_summary),
    },
    Panel {
        id: ABLATIONS,
        name: "Ablation A",
        render: Render::Text(Sweep::Timer, ablations::policy_comparison),
    },
    Panel {
        id: ABLATIONS,
        name: "Ablation B",
        render: Render::Plot(Sweep::Timer, TIMER),
    },
    Panel {
        id: ABLATIONS,
        name: "Ablation C",
        render: Render::Own(|_| Ok(ablations::label_mode())),
    },
    Panel {
        id: ABLATIONS,
        name: "Ablation D",
        render: Render::Own(|_| Ok(ablations::sketch_precision())),
    },
];

/// The distinct panel ids, in table order.
#[must_use]
pub(crate) fn panel_ids() -> Vec<&'static str> {
    let mut ids: Vec<&str> = PANELS.iter().map(|p| p.id).collect();
    ids.dedup();
    ids
}

/// The panels the given command-line ids select, in table order
/// whatever the argument order. No ids selects the paper's tables and
/// Figs. 3–11 — everything but the ablations.
///
/// # Errors
///
/// Names the first id no panel carries, and lists the valid ones.
pub fn select_panels(ids: &[String]) -> Result<Vec<&'static Panel>, String> {
    if let Some(unknown) = ids.iter().find(|id| !PANELS.iter().any(|p| p.id == **id)) {
        return Err(format!(
            "unknown id {unknown:?}; valid ids: {}",
            panel_ids().join(" ")
        ));
    }
    Ok(PANELS
        .iter()
        .filter(|p| {
            if ids.is_empty() {
                p.id != ABLATIONS
            } else {
                ids.iter().any(|id| id == p.id)
            }
        })
        .collect())
}

/// Renders panels, keeping every finished [`Sweep`] so that each runs
/// at most once per process however many panels draw from it.
#[derive(Debug)]
pub struct PanelRuns {
    cfg: EngineConfig,
    sweeps: BTreeMap<Sweep, Vec<SweepSeries>>,
}

impl PanelRuns {
    /// Nothing run yet.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        PanelRuns {
            cfg,
            sweeps: BTreeMap::new(),
        }
    }

    fn sweep(&mut self, key: Sweep) -> Result<&[SweepSeries], String> {
        Ok(match self.sweeps.entry(key) {
            Entry::Occupied(done) => done.into_mut(),
            Entry::Vacant(slot) => slot.insert(key.plan(&self.cfg).run(self.cfg.jobs)?),
        })
    }

    /// Renders one panel as printed, running its sweep if no earlier
    /// panel did.
    ///
    /// # Errors
    ///
    /// Propagates build/run errors.
    pub fn render(&mut self, panel: &Panel) -> Result<String, String> {
        Ok(match panel.render {
            Render::Plot(key, plot) => {
                plot_sweep(panel.name, key, &plot, self.sweep(key)?).to_string()
            }
            Render::Text(key, build) => build(self.sweep(key)?),
            Render::Own(build) => build(&self.cfg)?.to_string(),
            Render::OwnText(build) => build(&self.cfg)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axes_match_paper_ranges() {
        assert_eq!(vt_axis().first(), Some(&10.0));
        assert_eq!(vt_axis().last(), Some(&110.0));
        assert_eq!(gamma_axis(), vec![35.0, 55.0, 75.0, 95.0]);
        assert_eq!(domain_axis().last(), Some(&160.0));
        assert_eq!(pd_series().len(), 3);
        assert_eq!(depth_axis(), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn fig8_spec_is_a_valid_multi_domain_flood() {
        for depth in 0..=3 {
            let spec = fig8_spec(depth);
            assert!(spec.validate().is_ok(), "depth {depth}");
            assert_eq!(spec.domains, 3);
            assert_eq!(spec.pushback_depth, depth);
        }
    }

    #[test]
    fn fig9_specs_are_valid_across_the_whole_grid() {
        assert_eq!(participation_axis().first(), Some(&0.0));
        assert_eq!(participation_axis().last(), Some(&1.0));
        assert_eq!(transit_policy_series().len(), 3);
        for (label, transit) in transit_policy_series() {
            for &fraction in &participation_axis() {
                let spec = fig9_spec(fraction, transit);
                assert!(
                    spec.validate().is_ok(),
                    "{label} at fraction {fraction} must validate"
                );
                assert_eq!(spec.pushback_depth, 3, "full escalation budget");
                assert_eq!(spec.transit_policy, Some(transit));
            }
        }
    }

    #[test]
    fn fig10_specs_are_valid_across_the_whole_grid() {
        assert_eq!(trust_budget_axis().first(), Some(&0.0));
        for &budget in &trust_budget_axis() {
            let honest = fig10_honest_spec(budget as u32);
            assert!(honest.validate().is_ok(), "honest @ {budget}");
            assert_eq!(honest.trust_budget, budget as u32);
            assert!(honest.malicious_pushback.is_none());
            for attested in [true, false] {
                let malicious = fig10_malicious_spec(budget as u32, attested);
                assert!(malicious.validate().is_ok(), "malicious @ {budget}");
                assert_eq!(malicious.malicious_pushback, Some(1));
                assert_eq!(malicious.detection, DetectionMode::Off);
                assert_eq!(
                    malicious.attestation_fraction > 0.0,
                    attested,
                    "attestation flag must map to the fraction"
                );
            }
        }
    }

    #[test]
    fn fig11_specs_are_valid_across_the_whole_grid() {
        let series = adversary_strategy_series();
        assert_eq!(series.len(), 5, "open loop + four adaptive strategies");
        assert_eq!(series[0].1, None, "the baseline comes first");
        for (label, strategy) in &series {
            for &budget in &trust_budget_axis() {
                let spec = fig11_spec(*strategy, budget as u32);
                assert!(spec.validate().is_ok(), "{label} @ {budget} must validate");
                assert_eq!(spec.adversary.is_some(), strategy.is_some());
                assert!(
                    spec.subsidence_source_floor > 0.0,
                    "the source floor arms the subsidence guard"
                );
            }
        }
        // Every adaptive cell rides the same workload spec as the open
        // loop — only the adversary block differs, so residual deltas
        // are attributable to the closed loop alone.
        let mut open = fig11_spec(None, 2);
        let rotation = fig11_spec(series[1].1, 2);
        open.adversary = rotation.adversary;
        assert_eq!(open, rotation);
    }

    #[test]
    fn panel_table_is_ordered_complete_and_consistent() {
        // Ids are contiguous and in paper order; names are unique.
        assert_eq!(
            panel_ids().join(" "),
            "tables fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 ablations"
        );
        let mut names: Vec<&str> = PANELS.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PANELS.len());

        // A bare run is what `all_figures` printed: these blocks, in
        // this order, and none of the ablations.
        let names = |ids: &[&str]| -> String {
            let ids: Vec<String> = ids.iter().map(ToString::to_string).collect();
            let panels = select_panels(&ids).expect("known ids");
            panels.iter().map(|p| p.name).collect::<Vec<_>>().join(", ")
        };
        assert_eq!(
            names(&[]),
            "Table I, Table II, Default run, Fig. 3(a), Fig. 3(b), Fig. 4(a), Fig. 4(b), \
             Fig. 5(a), Fig. 5(b), Fig. 5(c), Fig. 6(a), Fig. 6(b), Fig. 6(c), Fig. 7, \
             Fig. 8(a), Fig. 8(b), Fig. 9(a), Fig. 9(b), Fig. 9 policy costs, \
             Fig. 10(a), Fig. 10(b), Fig. 10 denials, \
             Fig. 11(a), Fig. 11(b), Fig. 11 best response, Fig. 11 policy costs"
        );
        // Ids select in table order whatever the argument order.
        assert_eq!(names(&["fig7", "fig3"]), "Fig. 3(a), Fig. 3(b), Fig. 7");
        assert_eq!(
            names(&["ablations"]),
            "Ablation A, Ablation B, Ablation C, Ablation D"
        );

        // An unknown id is a usage error that lists the valid ones.
        let err = select_panels(&["fig3".to_string(), "fig12".to_string()]).unwrap_err();
        assert!(err.contains("\"fig12\""), "{err}");
        assert!(err.contains(&panel_ids().join(" ")), "{err}");

        // Sweep keys are enum variants, so the compiler checks that each
        // resolves to a run. What it cannot check, it is checked here
        // from the plans alone, without running a scenario.
        let cfg = EngineConfig { jobs: 1, trials: 3 };
        for panel in PANELS {
            if let Render::Plot(key, plot) = panel.render {
                let plan = key.plan(&cfg);
                for name in plot.series {
                    assert!(
                        plan.series.iter().any(|(label, _)| label == name),
                        "{} draws {name:?}, which {key:?} does not run",
                        panel.name
                    );
                }
            }
        }
        // Figs. 10 and 11 stay at one trial whatever `MAFIC_TRIALS` says.
        assert_eq!(Sweep::Trust.plan(&cfg).jobs().len(), 3 * 4);
        assert_eq!(Sweep::Adaptive.plan(&cfg).jobs().len(), 5 * 4);
        // Ablation A's baseline is one cell, beside Ablation B's 2x.
        let timer = Sweep::Timer.plan(&cfg);
        let baseline: Vec<f64> = timer
            .series
            .iter()
            .filter(|(label, _)| label == "proportional")
            .flat_map(|(_, cells)| cells.iter().map(|(x, _)| *x))
            .collect();
        assert_eq!(baseline, vec![2.0]);
        // Nothing runs twice in a bare pass or in `figures ablations`:
        // no base spec appears in two cells of the runs behind it.
        for ids in [&[][..], &["ablations".to_string()][..]] {
            let mut keys: Vec<Sweep> = select_panels(ids)
                .expect("known ids")
                .iter()
                .filter_map(|p| match p.render {
                    Render::Plot(key, _) | Render::Text(key, _) => Some(key),
                    Render::Own(_) | Render::OwnText(_) => None,
                })
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let mut bases: Vec<(Sweep, f64, ScenarioSpec)> = Vec::new();
            for key in keys {
                for (_, cells) in key.plan(&cfg).series {
                    for (x, spec) in cells {
                        if let Some((other, other_x, _)) = bases.iter().find(|(.., b)| *b == spec) {
                            panic!("{key:?} at x = {x} reruns {other:?} at x = {other_x}");
                        }
                        bases.push((key, x, spec));
                    }
                }
            }
        }
    }

    // Full-figure runs live in the integration tests and binaries; here
    // we only verify the smallest panel end to end.
    #[test]
    fn fig4b_produces_time_series_between_1_and_3_seconds() {
        let fig = fig4b(&EngineConfig::default()).unwrap();
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            assert!(!s.points.is_empty(), "series {} empty", s.label);
            for &(t, _) in &s.points {
                assert!((1.0..=3.0).contains(&t));
            }
        }
    }
}
