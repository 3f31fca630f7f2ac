//! The paper's figures: spec builders and axes, the sweeps and grids
//! that run them, and the panel table the `figures` binary prints from.
//!
//! The first half builds scenarios and runs them; the second half
//! ([`PANELS`]) lists every printed block once — its id, the sweep or
//! grid it draws from, and the metric or builder that renders it. The
//! absolute numbers come from our simulator, not the authors' NS-2
//! testbed; what must match is the *shape* — who wins, the bands, the
//! trends (see EXPERIMENTS.md for the side-by-side record).

use crate::engine::{run_specs, EngineConfig};
use crate::figure::FigureData;
use crate::sweep::{sweep, Metric, SweepSeries};
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
pub fn gamma_axis() -> Vec<f64> {
    vec![35.0, 55.0, 75.0, 95.0]
}

/// The domain-size axis of Figs. 5(c)/6(c).
#[must_use]
pub fn domain_axis() -> Vec<f64> {
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

fn spec_with_vt_pd(pd: f64, vt: f64, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        total_flows: vt as usize,
        drop_probability: pd,
        seed,
        ..ScenarioSpec::default()
    }
}

/// Runs the `(Pd × Vt)` sweep shared by Figs. 3(a), 4(a), 5(a), 6(a), 7.
///
/// # Errors
///
/// Propagates build/run errors.
pub fn sweep_pd_vt(cfg: &EngineConfig) -> Result<Vec<SweepSeries>, String> {
    sweep(&pd_series(), &vt_axis(), cfg, |&pd, vt| {
        spec_with_vt_pd(pd, vt, 11)
    })
}

/// Runs the `(R × Vt)` sweep of Fig. 3(b).
///
/// # Errors
///
/// Propagates build/run errors.
pub fn sweep_rate_vt(cfg: &EngineConfig) -> Result<Vec<SweepSeries>, String> {
    let rates = [NominalRate::R100k, NominalRate::R500k, NominalRate::R1M]
        .map(|r| (r.label().to_string(), r));
    sweep(&rates, &vt_axis(), cfg, |&rate, vt| ScenarioSpec {
        total_flows: vt as usize,
        flow_rate_pps: rate.pps(),
        seed: 13,
        ..ScenarioSpec::default()
    })
}

/// Runs the `(Vt × Γ)` sweep of Figs. 5(b)/6(b).
///
/// # Errors
///
/// Propagates build/run errors.
pub fn sweep_vt_gamma(cfg: &EngineConfig) -> Result<Vec<SweepSeries>, String> {
    let vts = [30usize, 70, 100].map(|v| (format!("Vt={v}"), v));
    sweep(&vts, &gamma_axis(), cfg, |&vt, gamma_pct| ScenarioSpec {
        total_flows: vt,
        tcp_share: gamma_pct / 100.0,
        seed: 17,
        ..ScenarioSpec::default()
    })
}

/// Runs the `(Γ × N)` sweep of Figs. 5(c)/6(c).
///
/// # Errors
///
/// Propagates build/run errors.
pub fn sweep_gamma_domain(cfg: &EngineConfig) -> Result<Vec<SweepSeries>, String> {
    let gammas = [95.0f64, 75.0, 55.0, 35.0].map(|g| (format!("TCP={g:.0}%"), g));
    sweep(&gammas, &domain_axis(), cfg, |&gamma_pct, n| ScenarioSpec {
        total_flows: 50,
        tcp_share: gamma_pct / 100.0,
        n_routers: n as usize,
        seed: 19,
        ..ScenarioSpec::default()
    })
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
pub fn fig4b(cfg: &EngineConfig) -> Result<FigureData, String> {
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

/// Runs the pushback-depth sweep shared by both Fig. 8 panels.
///
/// # Errors
///
/// Propagates build/run errors.
pub fn sweep_pushback_depth(cfg: &EngineConfig) -> Result<Vec<SweepSeries>, String> {
    let series = vec![("chain(2)+stubs".to_string(), ())];
    sweep(&series, &depth_axis(), cfg, |(), depth| {
        fig8_spec(depth as u32)
    })
}

/// Builds Fig. 8(a) — victim-side rates vs deployment depth — from a
/// finished depth sweep: the residual attack rate (suppression β's
/// complement, non-increasing in depth) beside the legitimate goodput
/// (which rises as deeper deployment decongests the transit links).
/// The warm-vs-cold sweep tests compare figures through this.
#[must_use]
pub fn fig8a_from_sweep(sweeps: &[SweepSeries]) -> FigureData {
    plot_sweep("Fig. 8(a)", Sweep::Depth, &VICTIM_RATES, sweeps)
}

/// Builds Fig. 8(b) — collateral damage vs deployment depth — from a
/// finished depth sweep: total legitimate data loss (defense drops +
/// flood-congestion queue losses) beside the paper's ATR-only `Lr`.
#[must_use]
pub fn fig8b_from_sweep(sweeps: &[SweepSeries]) -> FigureData {
    plot_sweep("Fig. 8(b)", Sweep::Depth, &COLLATERAL, sweeps)
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

/// Runs the participation-fraction × transit-policy sweep shared by
/// both Fig. 9 panels.
///
/// # Errors
///
/// Propagates build/run errors.
pub fn sweep_partial_deployment(cfg: &EngineConfig) -> Result<Vec<SweepSeries>, String> {
    sweep(
        &transit_policy_series(),
        &participation_axis(),
        cfg,
        |&transit, fraction| fig9_spec(fraction, transit),
    )
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

/// The three Fig. 10 configurations, as `(label, spec builder input)`.
fn fig10_series() -> Vec<(String, Fig10Series)> {
    vec![
        ("honest cascade".to_string(), Fig10Series::Honest),
        (
            "malicious, attested".to_string(),
            Fig10Series::Malicious { attested: true },
        ),
        (
            "malicious, unguarded".to_string(),
            Fig10Series::Malicious { attested: false },
        ),
    ]
}

/// One Fig. 10 series selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fig10Series {
    Honest,
    Malicious { attested: bool },
}

fn fig10_spec(series: Fig10Series, trust_budget: u32) -> ScenarioSpec {
    match series {
        Fig10Series::Honest => fig10_honest_spec(trust_budget),
        Fig10Series::Malicious { attested } => fig10_malicious_spec(trust_budget, attested),
    }
}

/// One evaluated cell of a single-seed `(series × trust budget)` grid
/// (Figs. 10 and 11).
#[derive(Debug)]
pub struct GridCell {
    /// Series label (`honest cascade`, `rotation`, …).
    pub label: String,
    /// The swept trust budget.
    pub budget: f64,
    /// The cell's full run outcome (report + control-plane counters).
    pub outcome: mafic_workload::RunOutcome,
}

/// Runs one spec per `(series, trust budget)` cell, in grid order.
fn run_budget_grid<S>(
    series: &[(String, S)],
    cfg: &EngineConfig,
    make_spec: impl Fn(&S, u32) -> ScenarioSpec,
) -> Result<Vec<GridCell>, String> {
    let budgets = trust_budget_axis();
    let mut meta = Vec::new();
    let mut specs = Vec::new();
    for (label, s) in series {
        for &budget in &budgets {
            meta.push((label.clone(), budget));
            specs.push(make_spec(s, budget as u32));
        }
    }
    let outcomes = run_specs(specs, cfg.jobs)?;
    Ok(meta
        .into_iter()
        .zip(outcomes)
        .map(|((label, budget), outcome)| GridCell {
            label,
            budget,
            outcome,
        })
        .collect())
}

/// Extracts `(budget, metric)` points for one series label.
fn grid_points(cells: &[GridCell], label: &str, metric: Metric) -> Vec<(f64, f64)> {
    cells
        .iter()
        .filter(|c| c.label == label)
        .map(|c| (c.budget, metric(&c.outcome.report)))
        .collect()
}

/// Runs the `(requester honesty × trust budget)` grid once — both
/// Fig. 10 panels and the denial tables derive from the same outcomes.
/// One deterministic run per cell: the control-plane counters (denials
/// by reason, stand-down latency) are not trial-averageable, so
/// Fig. 10 is a single-seed figure; the engine still fans the grid
/// across `MAFIC_JOBS` workers, byte-identical at any count.
///
/// # Errors
///
/// Propagates build/run errors.
pub fn run_malicious_pushback_grid(cfg: &EngineConfig) -> Result<Vec<GridCell>, String> {
    run_budget_grid(&fig10_series(), cfg, |&s, budget| fig10_spec(s, budget))
}

/// Builds Fig. 10(a) — the honest cascade under trust budgets — from a
/// finished grid: residual attack rate (every escalation denied at
/// budget 0; non-increasing as budget admits the cascade) beside the
/// victim's legitimate goodput.
#[must_use]
pub fn fig10a_from_grid(cells: &[GridCell]) -> FigureData {
    let mut fig = FigureData::new(
        "Fig. 10(a)",
        "Honest cascade vs upstream trust budget",
        "trust budget (installs per requester)",
        "rate at the victim (B/s)",
    );
    let label = "honest cascade";
    fig.push_series(
        format!("{label} residual attack"),
        grid_points(cells, label, |r| r.residual_attack_bps),
    );
    fig.push_series(
        format!("{label} legit goodput"),
        grid_points(cells, label, |r| r.legit_goodput_bps),
    );
    fig
}

/// Builds Fig. 10(b) — malicious pushback vs attestation — from a
/// finished grid: the victim's legitimate goodput with the trust
/// ledgers corroborating claims (flat: forged requests are denied)
/// against the unguarded configuration (goodput falls once the budget
/// lets the forged install through).
#[must_use]
pub fn fig10b_from_grid(cells: &[GridCell]) -> FigureData {
    let mut fig = FigureData::new(
        "Fig. 10(b)",
        "Victim goodput under malicious pushback",
        "trust budget (installs per requester)",
        "legit goodput at the victim (B/s)",
    );
    for label in ["malicious, attested", "malicious, unguarded"] {
        fig.push_series(
            format!("{label} goodput"),
            grid_points(cells, label, |r| r.legit_goodput_bps),
        );
        fig.push_series(format!("{label} Lr"), grid_points(cells, label, lr));
    }
    fig
}

/// Renders the control-plane denial tables of Fig. 10 from the same
/// grid the panels use: requests, denials by reason, installs granted,
/// and the stand-down latency per cell.
#[must_use]
pub fn fig10_denial_summary(cells: &[GridCell]) -> String {
    let mut out = String::new();
    for cell in cells {
        out.push_str(&mafic_metrics::control_table(
            &format!("Control plane @ {}, budget {}", cell.label, cell.budget),
            &cell.outcome.control,
        ));
    }
    out
}

/// Renders the per-policy deployment-cost table at full participation:
/// one fully deployed run per transit policy (fanned across the
/// engine), each reporting table state bytes and timer events per
/// policy label.
///
/// # Errors
///
/// Propagates build/run errors.
pub fn fig9_cost_summary(cfg: &EngineConfig) -> Result<String, String> {
    let series = transit_policy_series();
    let specs = series
        .iter()
        .map(|&(_, transit)| fig9_spec(1.0, transit))
        .collect();
    let outcomes = run_specs(specs, cfg.jobs)?;
    let mut out = String::new();
    for ((label, _), outcome) in series.iter().zip(&outcomes) {
        out.push_str(&mafic_metrics::cost_table(
            &format!("Policy cost proxies @ full participation, {label}"),
            &outcome.policy_costs,
        ));
    }
    Ok(out)
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

/// Runs the `(attack strategy × trust budget)` grid once — both Fig. 11
/// panels, the best-response summary, and the collateral cost tables
/// derive from the same outcomes. Single-seed per cell, like Fig. 10:
/// the closed feedback loop makes per-trial outcomes non-averageable
/// (each trial is a different *game*, not a noisy sample of one), and
/// the engine still fans the grid across `MAFIC_JOBS` workers,
/// byte-identical at any count.
///
/// # Errors
///
/// Propagates build/run errors.
pub fn run_adaptive_adversary_grid(cfg: &EngineConfig) -> Result<Vec<GridCell>, String> {
    run_budget_grid(&adversary_strategy_series(), cfg, |&strategy, budget| {
        fig11_spec(strategy, budget)
    })
}

/// Builds Fig. 11(a) — the residual-attack surface — from a finished
/// grid: residual attack rate at the victim per strategy, across the
/// trust budget. Every adaptive series sits at or above the open-loop
/// baseline; the gap is what closing the loop buys the attacker.
#[must_use]
pub fn fig11a_from_grid(cells: &[GridCell]) -> FigureData {
    let mut fig = FigureData::new(
        "Fig. 11(a)",
        "Residual attack rate per adaptive strategy",
        "trust budget (installs per requester)",
        "residual attack at the victim (B/s)",
    );
    for (label, _) in adversary_strategy_series() {
        fig.push_series(
            format!("{label} residual attack"),
            grid_points(cells, &label, |r| r.residual_attack_bps),
        );
    }
    fig
}

/// Builds Fig. 11(b) — what the adaptation costs the bystanders — from
/// a finished grid: the victim's legitimate goodput per strategy beside
/// the mean distinct-source cardinality its flood presents (the
/// subsidence guard's secondary evidence; rotation parks it low).
#[must_use]
pub fn fig11b_from_grid(cells: &[GridCell]) -> FigureData {
    let mut fig = FigureData::new(
        "Fig. 11(b)",
        "Victim goodput and observed sources per adaptive strategy",
        "trust budget (installs per requester)",
        "legit goodput (B/s) / distinct sources",
    );
    for (label, _) in adversary_strategy_series() {
        fig.push_series(
            format!("{label} goodput"),
            grid_points(cells, &label, |r| r.legit_goodput_bps),
        );
        fig.push_series(
            format!("{label} sources"),
            grid_points(cells, &label, |r| r.victim_source_cardinality),
        );
    }
    fig
}

/// Renders the best-response table of Fig. 11 from the grid: per trust
/// budget, the strategy that leaves the most attack traffic standing at
/// the victim, with its margin over the open-loop baseline.
#[must_use]
pub fn fig11_best_response_summary(cells: &[GridCell]) -> String {
    let mut out = String::from("Attacker best response per trust budget\n");
    for &budget in &trust_budget_axis() {
        let open_loop = cells
            .iter()
            .find(|c| c.label == "open loop" && c.budget == budget)
            .map_or(0.0, |c| c.outcome.report.residual_attack_bps);
        let best = cells.iter().filter(|c| c.budget == budget).max_by(|a, b| {
            a.outcome
                .report
                .residual_attack_bps
                .total_cmp(&b.outcome.report.residual_attack_bps)
        });
        if let Some(best) = best {
            let residual = best.outcome.report.residual_attack_bps;
            out.push_str(&format!(
                "  budget {budget:>3}: {:<12} {residual:>10.0} B/s residual \
                 (open loop {open_loop:>10.0} B/s, margin {:>+8.0} B/s)\n",
                best.label,
                residual - open_loop,
            ));
        }
    }
    out
}

/// Renders the per-policy cost tables (with the collateral attribution
/// columns) for every Fig. 11 cell at the largest trust budget — the
/// configuration where the defense fights hardest and the split between
/// filter-caused and congestion-caused legitimate losses matters most.
#[must_use]
pub fn fig11_cost_summary(cells: &[GridCell]) -> String {
    let max_budget = trust_budget_axis().last().copied().unwrap_or_default();
    let mut out = String::new();
    for cell in cells.iter().filter(|c| c.budget == max_budget) {
        out.push_str(&mafic_metrics::cost_table(
            &format!(
                "Policy costs @ {}, budget {} (filtered vs queue legit drops)",
                cell.label, cell.budget
            ),
            &cell.outcome.policy_costs,
        ));
    }
    out
}

/// A trial-averaged sweep that several panels draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sweep {
    /// [`sweep_pd_vt`].
    PdVt,
    /// [`sweep_rate_vt`].
    RateVt,
    /// [`sweep_vt_gamma`].
    VtGamma,
    /// [`sweep_gamma_domain`].
    GammaDomain,
    /// [`sweep_pushback_depth`].
    Depth,
    /// [`sweep_partial_deployment`].
    Partial,
}

impl Sweep {
    /// The x axis every panel of this sweep is plotted against: the
    /// phrase its title ends on and the axis label.
    fn x_axis(self) -> (&'static str, &'static str) {
        match self {
            Sweep::PdVt | Sweep::RateVt => ("traffic volume", "Vt (flows)"),
            Sweep::VtGamma => ("percentage of TCP traffic", "TCP share (%)"),
            Sweep::GammaDomain => ("domain size", "N (routers)"),
            Sweep::Depth => ("pushback depth", "pushback depth (domains upstream)"),
            Sweep::Partial => ("participation fraction", "participation fraction"),
        }
    }
}

/// A single-seed grid of full outcomes that several panels draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Grid {
    /// [`run_malicious_pushback_grid`].
    Trust,
    /// [`run_adaptive_adversary_grid`].
    Adaptive,
}

/// What a sweep-backed panel plots.
#[derive(Debug, Clone, Copy)]
pub struct Plot {
    /// The plotted quantity; the panel title is `<title> vs <x axis>`.
    pub title: &'static str,
    /// Y-axis label.
    pub y_label: &'static str,
    /// One curve per sweep series and entry: the suffix appended to the
    /// series label, and the metric read off each point's report.
    pub curves: &'static [(&'static str, Metric)],
}

const ALPHA: Plot = Plot {
    title: "Attack packet dropping accuracy",
    y_label: "accuracy alpha (%)",
    curves: &[("", |r| r.accuracy_pct)],
};
const BETA: Plot = Plot {
    title: "Traffic reduction rate",
    y_label: "traffic reduction beta (%)",
    curves: &[("", |r| r.traffic_reduction_pct)],
};
const THETA_P: Plot = Plot {
    title: "False positive rate",
    y_label: "false positive rate (%)",
    curves: &[("", |r| r.false_positive_pct)],
};
const THETA_N: Plot = Plot {
    title: "False negative rate",
    y_label: "false negative rate (%)",
    curves: &[("", |r| r.false_negative_pct)],
};
const LR: Plot = Plot {
    title: "Legitimate packet dropping rate",
    y_label: "legit packet dropping rate Lr (%)",
    curves: &[("", lr)],
};
const VICTIM_RATES: Plot = Plot {
    title: "Victim-side rates",
    y_label: "rate at the victim (B/s)",
    curves: &[
        (" residual attack", |r| r.residual_attack_bps),
        (" legit goodput", |r| r.legit_goodput_bps),
    ],
};
const COLLATERAL: Plot = Plot {
    title: "Collateral damage",
    y_label: "legitimate loss (%)",
    curves: &[(" collateral", |r| r.collateral_pct), (" Lr", lr)],
};

/// Plots a finished sweep as the figure called `name`.
fn plot_sweep(name: &str, key: Sweep, plot: &Plot, sweeps: &[SweepSeries]) -> FigureData {
    let (x_title, x_label) = key.x_axis();
    let title = format!("{} vs {x_title}", plot.title);
    let mut fig = FigureData::new(name, title, x_label, plot.y_label);
    for s in sweeps {
        for &(suffix, metric) in plot.curves {
            fig.push_series(format!("{}{suffix}", s.label), s.extract(metric));
        }
    }
    fig
}

/// How a [`Panel`] is produced: from which shared sweep or grid, by
/// which plot or builder.
#[derive(Debug, Clone, Copy)]
pub enum Render {
    /// A figure plotted from a finished sweep.
    Plot(Sweep, Plot),
    /// A figure built from a finished grid.
    FromGrid(Grid, fn(&[GridCell]) -> FigureData),
    /// A text block built from a finished grid.
    GridText(Grid, fn(&[GridCell]) -> String),
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
        matches!(self.render, Render::GridText(..) | Render::OwnText(_))
    }
}

/// The id whose panels a bare `figures` run leaves out.
const ABLATIONS: &str = "ablations";

/// Every block `figures` can print, in paper order. A panel is added
/// here and nowhere else.
pub const PANELS: &[Panel] = &[
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
        render: Render::OwnText(fig9_cost_summary),
    },
    Panel {
        id: "fig10",
        name: "Fig. 10(a)",
        render: Render::FromGrid(Grid::Trust, fig10a_from_grid),
    },
    Panel {
        id: "fig10",
        name: "Fig. 10(b)",
        render: Render::FromGrid(Grid::Trust, fig10b_from_grid),
    },
    Panel {
        id: "fig10",
        name: "Fig. 10 denials",
        render: Render::GridText(Grid::Trust, fig10_denial_summary),
    },
    Panel {
        id: "fig11",
        name: "Fig. 11(a)",
        render: Render::FromGrid(Grid::Adaptive, fig11a_from_grid),
    },
    Panel {
        id: "fig11",
        name: "Fig. 11(b)",
        render: Render::FromGrid(Grid::Adaptive, fig11b_from_grid),
    },
    Panel {
        id: "fig11",
        name: "Fig. 11 best response",
        render: Render::GridText(Grid::Adaptive, fig11_best_response_summary),
    },
    Panel {
        id: "fig11",
        name: "Fig. 11 policy costs",
        render: Render::GridText(Grid::Adaptive, fig11_cost_summary),
    },
    Panel {
        id: ABLATIONS,
        name: "Ablation A",
        render: Render::Own(ablations::policy_comparison),
    },
    Panel {
        id: ABLATIONS,
        name: "Ablation B",
        render: Render::Own(ablations::timer_multiplier),
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
pub fn panel_ids() -> Vec<&'static str> {
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

/// Renders panels, keeping every finished [`Sweep`] and [`Grid`] so that
/// each runs at most once per process however many panels draw from it.
#[derive(Debug)]
pub struct PanelRuns {
    cfg: EngineConfig,
    sweeps: BTreeMap<Sweep, Vec<SweepSeries>>,
    grids: BTreeMap<Grid, Vec<GridCell>>,
}

impl PanelRuns {
    /// Nothing run yet.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        PanelRuns {
            cfg,
            sweeps: BTreeMap::new(),
            grids: BTreeMap::new(),
        }
    }

    fn sweep(&mut self, key: Sweep) -> Result<&[SweepSeries], String> {
        let cfg = &self.cfg;
        Ok(match self.sweeps.entry(key) {
            Entry::Occupied(done) => done.into_mut(),
            Entry::Vacant(slot) => slot.insert(match key {
                Sweep::PdVt => sweep_pd_vt(cfg)?,
                Sweep::RateVt => sweep_rate_vt(cfg)?,
                Sweep::VtGamma => sweep_vt_gamma(cfg)?,
                Sweep::GammaDomain => sweep_gamma_domain(cfg)?,
                Sweep::Depth => sweep_pushback_depth(cfg)?,
                Sweep::Partial => sweep_partial_deployment(cfg)?,
            }),
        })
    }

    fn grid(&mut self, key: Grid) -> Result<&[GridCell], String> {
        let cfg = &self.cfg;
        Ok(match self.grids.entry(key) {
            Entry::Occupied(done) => done.into_mut(),
            Entry::Vacant(slot) => slot.insert(match key {
                Grid::Trust => run_malicious_pushback_grid(cfg)?,
                Grid::Adaptive => run_adaptive_adversary_grid(cfg)?,
            }),
        })
    }

    /// Renders one panel as printed, running its sweep or grid if no
    /// earlier panel did.
    ///
    /// # Errors
    ///
    /// Propagates build/run/restore errors.
    pub fn render(&mut self, panel: &Panel) -> Result<String, String> {
        Ok(match panel.render {
            Render::Plot(sweep, plot) => {
                plot_sweep(panel.name, sweep, &plot, self.sweep(sweep)?).to_string()
            }
            Render::FromGrid(grid, build) => build(self.grid(grid)?).to_string(),
            Render::GridText(grid, build) => build(self.grid(grid)?),
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

        // Sweep and grid keys are enum variants, so the compiler checks
        // that each resolves to a run. What it cannot check: a grid row
        // points at the builder of the figure it names, and the Fig. 8
        // builders the checkpoint tests call are the Fig. 8 rows.
        for panel in PANELS {
            match (panel.name, panel.render) {
                (name, Render::FromGrid(_, build)) => assert_eq!(build(&[]).id, name),
                (name, Render::Plot(Sweep::Depth, plot)) => {
                    let build = match name {
                        "Fig. 8(a)" => fig8a_from_sweep,
                        _ => fig8b_from_sweep,
                    };
                    assert_eq!(build(&[]), plot_sweep(name, Sweep::Depth, &plot, &[]));
                }
                _ => {}
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
