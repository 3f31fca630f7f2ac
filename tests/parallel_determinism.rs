//! Determinism rule 5 (ARCHITECTURE.md): parallelism must never change
//! results. The experiment engine fans scenario runs across worker
//! threads but reassembles in job-index order, so a sweep's output must
//! be **byte-identical** at any worker count. These tests pin that
//! contract at the `FigureData`/`MetricsReport` level — the exact bytes
//! the figure binaries print.

use mafic_suite::experiments::FigureData;
use mafic_suite::experiments::{run_averaged, sweep, SweepSeries};
use mafic_suite::experiments::{run_specs, EngineConfig};
use mafic_suite::netsim::SimTime;
use mafic_suite::obs::diff_ledgers;
use mafic_suite::workload::ScenarioSpec;

/// A reduced but non-trivial grid: 2 series × 2 x values × 2 trials =
/// 8 independent runs, enough for workers to interleave freely.
fn tiny_sweep(cfg: &EngineConfig) -> Vec<SweepSeries> {
    let series = vec![
        ("Pd=90%".to_string(), 0.9f64),
        ("Pd=70%".to_string(), 0.7f64),
    ];
    let xs = vec![8.0, 12.0];
    sweep(&series, &xs, cfg, |&pd, x| ScenarioSpec {
        total_flows: x as usize,
        n_routers: 5,
        drop_probability: pd,
        end: SimTime::from_secs_f64(2.5),
        ..ScenarioSpec::default()
    })
    .expect("sweep runs")
}

#[test]
fn sweep_grid_is_byte_identical_serial_vs_parallel() {
    let serial = tiny_sweep(&EngineConfig::serial(2));
    let parallel = tiny_sweep(&EngineConfig { jobs: 4, trials: 2 });

    // Reports first (precise failure location)...
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.label, p.label);
        for (sp, pp) in s.points.iter().zip(&p.points) {
            assert_eq!(sp.report, pp.report, "point x={} of {}", sp.x, s.label);
        }
    }
    // ...then the exact rendered bytes the binaries would print.
    let render = |sweeps: &[SweepSeries]| {
        let mut fig = FigureData::new("Fig. T", "t", "x", "y");
        for s in sweeps {
            fig.push_series(s.label.clone(), s.extract(|r| r.accuracy_pct));
        }
        format!("{fig}\n{sweeps:?}")
    };
    assert_eq!(render(&serial), render(&parallel));
}

#[test]
fn sweep_respects_mafic_jobs_from_env() {
    // CI runs this test with MAFIC_JOBS=4 set; locally it falls back to
    // `available_parallelism()`. Either way the output must match the
    // single-worker reference exactly. Trials are pinned so a stray
    // MAFIC_TRIALS cannot change the grid under comparison.
    let env_jobs = EngineConfig::from_env().expect("valid engine env").jobs;
    let serial = tiny_sweep(&EngineConfig::serial(2));
    let parallel = tiny_sweep(&EngineConfig {
        jobs: env_jobs,
        trials: 2,
    });
    assert_eq!(
        format!("{serial:?}"),
        format!("{parallel:?}"),
        "jobs={env_jobs} diverged from serial"
    );
}

#[test]
fn run_averaged_is_identical_at_any_worker_count() {
    let base = ScenarioSpec {
        total_flows: 10,
        n_routers: 5,
        end: SimTime::from_secs_f64(2.5),
        seed: 77,
        ..ScenarioSpec::default()
    };
    let serial = run_averaged(&base, &EngineConfig::serial(3)).unwrap();
    let parallel = run_averaged(&base, &EngineConfig { jobs: 3, trials: 3 }).unwrap();
    assert_eq!(serial, parallel);
}

/// The run ledger must be byte-identical at any worker count: each run
/// is single-threaded internally, so `MAFIC_JOBS` may change scheduling
/// of *whole runs* but must never leak into per-interval state hashes.
/// This is the in-process twin of the CI `run_ledger` 1-vs-4 cmp gate;
/// on mismatch the differ names the first diverging interval+component.
#[test]
fn ledgers_are_byte_identical_at_jobs_1_and_4() {
    let specs: Vec<ScenarioSpec> = [3u64, 9]
        .iter()
        .map(|&seed| ScenarioSpec {
            total_flows: 10,
            n_routers: 5,
            end: SimTime::from_secs_f64(2.5),
            ledger: true,
            trace_capacity: 32,
            seed,
            ..ScenarioSpec::default()
        })
        .collect();
    let serial = run_specs(specs.clone(), 1).unwrap();
    let parallel = run_specs(specs, 4).unwrap();
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        let (ls, lp) = (
            s.ledger.as_ref().expect("ledger on"),
            p.ledger.as_ref().expect("ledger on"),
        );
        let report = diff_ledgers(ls, lp);
        assert!(
            report.is_identical(),
            "run {i}: jobs=4 diverged from jobs=1:\n{report}"
        );
        assert_eq!(
            ls.to_jsonl(),
            lp.to_jsonl(),
            "run {i}: ledger bytes differ across worker counts"
        );
    }
}

#[test]
fn run_specs_preserves_spec_order() {
    let specs: Vec<ScenarioSpec> = [0.7, 0.8, 0.9, 1.0]
        .iter()
        .enumerate()
        .map(|(i, &pd)| ScenarioSpec {
            total_flows: 8 + i,
            n_routers: 5,
            drop_probability: pd,
            end: SimTime::from_secs_f64(2.0),
            seed: 100 + i as u64,
            ..ScenarioSpec::default()
        })
        .collect();
    let serial = run_specs(specs.clone(), 1).unwrap();
    let parallel = run_specs(specs, 4).unwrap();
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.report, p.report, "outcome {i} out of order or diverged");
        assert_eq!(s.packets_sent, p.packets_sent, "outcome {i}");
        assert_eq!(s.triggered_at, p.triggered_at, "outcome {i}");
    }
}
