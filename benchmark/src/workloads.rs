//! The seven pinned workloads.
//!
//! Every workload is closed loop on one simulation thread. `end` is the
//! only sizing dial: each repetition is sized to about two host seconds
//! so five repetitions fit the run budget frozen in `BENCHMARK.json`.

use mafic_adversary::{AdversarySpec, StrategyKind};
use mafic_experiments::figures::{
    adversary_strategy_series, depth_axis, fig10_honest_spec, fig10_malicious_spec, fig11_spec,
    fig8_spec, fig9_spec, participation_axis, pd_series, transit_policy_series, trust_budget_axis,
    vt_axis,
};
use mafic_netsim::SimTime;
use mafic_topology::TransitTopology;
use mafic_workload::{DetectionMode, NominalRate, ScenarioSpec};

/// The seed at which `expected.json` pins digests and exact counters.
pub const PIN_SEED: u64 = 6;

/// Trials per tier. One seed fixes one topology and with it the
/// per-packet cost for a whole run (events per packet differ by 10 %
/// between seeds, heap by 5x), so a repetition covers this many seeds
/// and the reported metrics belong to the scenario, not to one draw.
pub const TRIALS: u64 = 12;

/// Simulated seconds per trial. The sizing dial: a repetition of every
/// workload takes about two host seconds.
const SINGLE_END_S: f64 = 18.0;
const FLOWS_10X_END_S: f64 = 12.0;
const CASCADE_END_S: f64 = 7.0;
/// `figure_grid` cells run this share of the figure builders' own `end`.
const GRID_END_SCALE: f64 = 0.5;

/// One benchmark workload: a name, the reason it exists, and its specs.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `Some(true)`: every repetition must engage the defense;
    /// `Some(false)`: none may; `None`: mixed cells, not checked.
    pub engages: Option<bool>,
    /// A grid runs through the experiments engine and is timed as one
    /// `run_jobs` call, builds included; a trial tier is timed around
    /// each `run_scenario` alone.
    pub grid: bool,
    /// The trials of a tier (one spec over consecutive seeds), or the
    /// 65 cells of `figure_grid`.
    pub specs: Vec<ScenarioSpec>,
}

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

/// Table II defaults held in steady state under an active defense.
fn paper_single() -> ScenarioSpec {
    ScenarioSpec {
        end: secs(SINGLE_END_S),
        seed: 6,
        ..ScenarioSpec::default()
    }
}

/// The fig 8/9 shape scaled up: six stubs over a two-level transit
/// chain, the full escalation budget, and cross traffic.
fn cascade_d3() -> ScenarioSpec {
    ScenarioSpec {
        total_flows: 96,
        tcp_share: 0.85,
        domains: 6,
        transit_topology: TransitTopology::Chain { depth: 2 },
        pushback_depth: 3,
        cross_traffic_bps: 125_000.0,
        end: secs(CASCADE_END_S),
        seed: 29,
        ..ScenarioSpec::default()
    }
}

/// The 65 short runs a user regenerating figs 3-11 pays for, one trial
/// each, built from the public figure builders.
fn figure_grid() -> Vec<ScenarioSpec> {
    let mut cells = Vec::new();
    for (_, pd) in pd_series() {
        for vt in vt_axis() {
            cells.push(ScenarioSpec {
                total_flows: vt as usize,
                drop_probability: pd,
                seed: 11,
                ..ScenarioSpec::default()
            });
        }
    }
    for depth in depth_axis() {
        cells.push(fig8_spec(depth as u32));
    }
    for (_, policy) in transit_policy_series() {
        for fraction in participation_axis() {
            cells.push(fig9_spec(fraction, policy));
        }
    }
    for budget in trust_budget_axis() {
        cells.push(fig10_honest_spec(budget as u32));
        cells.push(fig10_malicious_spec(budget as u32, true));
    }
    for (_, strategy) in adversary_strategy_series() {
        for budget in trust_budget_axis() {
            cells.push(fig11_spec(strategy, budget as u32));
        }
    }
    for cell in &mut cells {
        cell.end = secs(cell.end.as_secs_f64() * GRID_END_SCALE);
    }
    cells
}

/// A trial tier: `base` over `TRIALS` consecutive seeds.
fn tier(name: &'static str, why: &'static str, engages: bool, base: ScenarioSpec) -> Workload {
    Workload {
        name,
        why,
        engages: Some(engages),
        grid: false,
        specs: (0..TRIALS)
            .map(|trial| ScenarioSpec {
                seed: base.seed + trial,
                ..base.clone()
            })
            .collect(),
    }
}

/// All workloads at `seed`, in reporting order. Seeds of different
/// `--seed` values never overlap: each value owns a block of `TRIALS`.
pub fn all(seed: u64) -> Vec<Workload> {
    let mut workloads = vec![
        tier(
            "paper_single",
            "figs 3-7 scenario in steady state under an active defense; netsim, core and transport share the work",
            true,
            paper_single(),
        ),
        tier(
            "bare_forward",
            "detection off, no dropper ever activates: netsim does nearly all the work; the no-change tier for dropper, table and pushback work",
            false,
            ScenarioSpec {
                detection: DetectionMode::Off,
                // Which zombies send TCP-looking segments is a per-seed
                // draw over two or three flows, and the victim buffers
                // their never-repaired holes without bound: undefended,
                // that draw alone moves heap 2x and allocations 5x.
                attack_tcp_like: 0.0,
                ..paper_single()
            },
        ),
        tier(
            "cascade_d3",
            "fig 8/9 shape scaled up: more hops, per-domain filters and meters, coordinators stepping every interval; pushback and the monitor loop show here",
            true,
            cascade_d3(),
        ),
        tier(
            "adversarial_rotation",
            "fig 11 non-inert closed loop: repeated stand-down, flush and re-detect; the write side of the core tables plus the adversary step",
            true,
            ScenarioSpec {
                subsidence_source_floor: 6.0,
                adversary: Some(AdversarySpec::with_strategy(StrategyKind::SourceRotation {
                    period_intervals: 4,
                    active_fraction: 0.5,
                })),
                seed: 41,
                ..cascade_d3()
            },
        ),
        tier(
            "flows_10x",
            "ten times the flow state of paper_single at the same aggregate packet rate and topology; the gap is working-set size",
            true,
            ScenarioSpec {
                total_flows: 500,
                flow_rate_pps: NominalRate::R100k.pps(),
                end: secs(FLOWS_10X_END_S),
                ..paper_single()
            },
        ),
        tier(
            "cascade_ledger",
            "cascade_d3 with the run ledger on and one checkpoint: obs does the extra work; predicts no change on cascade_d3",
            true,
            ScenarioSpec {
                ledger: true,
                checkpoint_at: Some(secs(CASCADE_END_S / 2.0)),
                ..cascade_d3()
            },
        ),
        Workload {
            name: "figure_grid",
            why: "65 short runs from the public figure builders through run_jobs: set-up, transients and report assembly paid 65 times",
            engages: None,
            grid: true,
            specs: figure_grid(),
        },
    ];
    let shift = seed.wrapping_sub(PIN_SEED).wrapping_mul(TRIALS);
    for w in &mut workloads {
        for spec in &mut w.specs {
            spec.seed = spec.seed.wrapping_add(shift);
        }
    }
    workloads
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_spec_validates_and_the_grid_has_65_cells() {
        let workloads = all(PIN_SEED);
        assert_eq!(workloads.len(), 7);
        for w in &workloads {
            for spec in &w.specs {
                spec.validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            }
            let cells = if w.grid { 65 } else { TRIALS as usize };
            assert_eq!(w.specs.len(), cells, "{}", w.name);
        }
        assert_eq!(workloads.iter().filter(|w| w.grid).count(), 1);
    }

    #[test]
    fn the_ledger_tier_is_the_cascade_tier_observed() {
        let workloads = all(PIN_SEED);
        let find = |name| workloads.iter().find(|w| w.name == name).unwrap();
        for (plain, observed) in find("cascade_d3")
            .specs
            .iter()
            .zip(&find("cascade_ledger").specs)
        {
            assert!(observed.ledger && observed.checkpoint_at.is_some());
            let unobserved = ScenarioSpec {
                ledger: false,
                checkpoint_at: None,
                ..observed.clone()
            };
            assert_eq!(&unobserved, plain);
        }
    }

    #[test]
    fn seeds_are_a_function_of_the_seed_and_blocks_never_overlap() {
        let seeds = |seed| -> Vec<Vec<u64>> {
            all(seed)
                .iter()
                .map(|w| w.specs.iter().map(|s| s.seed).collect())
                .collect()
        };
        assert_eq!(seeds(9), seeds(9));
        // At the pin seed the first trial is the tier's own base seed.
        assert_eq!(seeds(PIN_SEED)[0][0], 6);
        for (a, b) in seeds(6).iter().zip(seeds(7)).take(6) {
            let a: BTreeSet<u64> = a.iter().copied().collect();
            assert!(b.iter().all(|seed| !a.contains(seed)));
        }
        // Seeds below the pin seed wrap instead of underflowing.
        assert_eq!(all(0).len(), 7);
    }
}
