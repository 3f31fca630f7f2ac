//! Emits run ledgers for a fixed spec grid as JSONL on stdout.
//!
//! Every run is single-threaded internally and outcomes return in spec
//! order, so the output is byte-identical at any `MAFIC_JOBS`;
//! `tests/parallel_determinism.rs` holds the grid's multi-domain spec
//! to that. Ledgers for the grid's specs are concatenated in order,
//! separated by a `# run <n>` comment line (ignored by
//! `mafic_obs::RunLedger::from_jsonl`).
//!
//! Usage: `run_ledger [--seed N] [--only I]` — `--seed` perturbs the
//! whole grid (`tests/seeded_divergence.rs` uses it to prove the
//! differ fails on real divergence); `--only` emits a single grid
//! entry so `mafic_trace diff` gets a one-ledger file.

use mafic_experiments::{run_specs, EngineConfig};
use mafic_netsim::SimTime;
use mafic_topology::TransitTopology;
use mafic_workload::ScenarioSpec;

fn grid(seed: u64) -> Vec<ScenarioSpec> {
    let single = ScenarioSpec {
        total_flows: 12,
        n_routers: 6,
        end: SimTime::from_secs_f64(2.5),
        ledger: true,
        trace_capacity: 64,
        seed,
        ..ScenarioSpec::default()
    };
    let multi = ScenarioSpec {
        domains: 3,
        transit_topology: TransitTopology::Chain { depth: 1 },
        pushback_depth: 2,
        end: SimTime::from_secs_f64(3.0),
        seed: seed ^ 0x5eed,
        ..single.clone()
    };
    vec![single, multi]
}

fn main() {
    let mut seed = 1u64;
    let mut only: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut numeric = |name: &str| -> u64 {
            let value = args.next().and_then(|v| v.parse().ok());
            let Some(value) = value else {
                eprintln!("{name} needs a non-negative integer");
                std::process::exit(2);
            };
            value
        };
        match arg.as_str() {
            "--seed" => seed = numeric("--seed"),
            "--only" => only = Some(numeric("--only") as usize),
            other => {
                eprintln!("unknown argument {other:?}; usage: run_ledger [--seed N] [--only I]");
                std::process::exit(2);
            }
        }
    }
    let mut specs = grid(seed);
    if let Some(i) = only {
        if i >= specs.len() {
            eprintln!("--only {i} out of range (grid has {} specs)", specs.len());
            std::process::exit(2);
        }
        specs = vec![specs.swap_remove(i)];
    }
    let cfg = EngineConfig::from_env_or_exit();
    match run_specs(specs, cfg.jobs) {
        Ok(outcomes) => {
            for (i, outcome) in outcomes.iter().enumerate() {
                let ledger = outcome
                    .ledger
                    .as_ref()
                    .expect("grid specs all set `ledger: true`");
                println!("# run {}", only.unwrap_or(i));
                print!("{}", ledger.to_jsonl());
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
