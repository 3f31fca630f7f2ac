//! Deterministic multi-threaded experiment engine.
//!
//! Every figure and table walks a grid of independent [`ScenarioSpec`]
//! runs. Each [`mafic_workload::Scenario`] owns its simulator, interner,
//! and seeded RNGs, so two runs share no state whatsoever — fanning them
//! across threads cannot violate the determinism rules (ARCHITECTURE.md
//! rule 5). The engine exploits exactly that: a job pool hands specs to
//! `available_parallelism()` workers (override with `MAFIC_JOBS`),
//! reassembles outcomes **in job-index order**, and propagates the first
//! error by job index — so output is byte-identical to the serial path
//! regardless of worker count or completion order.
//!
//! Std-only by design: the build environment has no registry access, so
//! the pool is `std::thread::scope` + a `Mutex`-guarded queue and result
//! slots, nothing else.

use mafic_workload::{run_spec, RunOutcome, ScenarioSpec};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Jobs below this count run without progress lines; small grids (unit
/// tests, single runs) should not chatter on stderr.
const PROGRESS_MIN_JOBS: usize = 16;

/// Parsed once from the environment: how wide to fan out and how many
/// trials each sweep point averages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker-thread count (`MAFIC_JOBS`; default `available_parallelism()`).
    pub jobs: usize,
    /// Seeds averaged per sweep point (`MAFIC_TRIALS`; default 3).
    pub trials: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: default_jobs(),
            trials: 3,
        }
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl EngineConfig {
    /// Reads `MAFIC_JOBS` and `MAFIC_TRIALS` from the process
    /// environment. Call once at entry and pass the struct down; the
    /// experiment layer itself never re-reads the environment.
    ///
    /// # Errors
    ///
    /// Unset variables fall back to defaults; set-but-invalid values
    /// (unparsable or zero) are rejected with a message naming the
    /// variable — a typoed `MAFIC_TRIALS=O3` must fail loudly, not
    /// silently average 3 trials.
    pub fn from_env() -> Result<Self, String> {
        Self::from_lookup(|key| std::env::var(key).ok())
    }

    /// [`EngineConfig::from_env`] for binary entrypoints: prints the
    /// error and exits with status 2 on an invalid environment.
    #[must_use]
    pub fn from_env_or_exit() -> Self {
        Self::from_env().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// [`EngineConfig::from_env`] with an injectable variable source, so
    /// tests can exercise the parsing hermetically (no process-global
    /// environment mutation).
    ///
    /// # Errors
    ///
    /// Same contract as [`EngineConfig::from_env`].
    pub(crate) fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let jobs = match lookup("MAFIC_JOBS") {
            None => default_jobs(),
            Some(raw) => raw
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("MAFIC_JOBS must be a positive integer, got {raw:?}"))?,
        };
        let trials =
            match lookup("MAFIC_TRIALS") {
                None => 3,
                Some(raw) => raw.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                    format!("MAFIC_TRIALS must be a positive integer, got {raw:?}")
                })?,
            };
        Ok(EngineConfig { jobs, trials })
    }

    /// A serial configuration (1 worker, `trials` seeds) — the reference
    /// path the determinism tests compare against.
    #[must_use]
    pub fn serial(trials: u64) -> Self {
        EngineConfig { jobs: 1, trials }
    }
}

/// Runs `worker` over `inputs` on a pool of `jobs` threads and returns
/// the outputs **in input order**. On failures, the error of the
/// lowest-indexed failing job is returned — the same error the serial
/// loop would have hit first — regardless of completion order.
///
/// Workers pull the next job index from a shared counter (dynamic load
/// balancing: grid points vary widely in cost) and file each result in
/// its job's slot; the calling thread assembles the slots in index
/// order, so ordering never depends on scheduling. After the first error arrives,
/// workers stop claiming new jobs (in-flight jobs still finish), so a
/// failing grid returns about as fast as the serial loop would have.
///
/// # Errors
///
/// Propagates the first `worker` error by job index.
pub fn run_jobs<I, O, F>(inputs: Vec<I>, jobs: usize, worker: F) -> Result<Vec<O>, String>
where
    I: Send,
    O: Send,
    F: Fn(I) -> Result<O, String> + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = jobs.clamp(1, n);
    // The job queue: workers claim `(index, input)` pairs in ascending
    // index order. One lock per claim — each job is a whole simulator
    // run, so contention is irrelevant.
    let queue = Mutex::new(inputs.into_iter().enumerate());
    let cancelled = AtomicBool::new(false);
    // Each worker files its result in the job's own slot. The calling
    // thread only waits for the workers, so it allocates nothing while
    // jobs run: a caller that watches the heap around each job (the
    // benchmark's per-cell peak) sees that job's allocations alone.
    let mut slots: Vec<Option<Result<O, String>>> = Vec::new();
    slots.resize_with(n, || None);
    let slots = Mutex::new(slots);
    let done = AtomicUsize::new(0);
    // Coarse progress for big grids. Progress goes to stderr only —
    // stdout stays reserved for figure data and byte-identical across
    // worker counts.
    let progress_every = n.div_ceil(10);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if cancelled.load(Ordering::Relaxed) {
                    break; // Fail fast: an earlier job already errored.
                }
                let Some((idx, input)) = queue.lock().expect("job queue poisoned").next() else {
                    break;
                };
                let result = worker(input);
                if result.is_err() {
                    cancelled.store(true, Ordering::Relaxed);
                }
                slots.lock().expect("result slots poisoned")[idx] = Some(result);
                let done = done.fetch_add(1, Ordering::Relaxed) + 1;
                if n >= PROGRESS_MIN_JOBS && (done.is_multiple_of(progress_every) || done == n) {
                    eprintln!("[engine] {done}/{n} runs complete ({workers} workers)");
                }
            });
        }
    });

    // Indexes are claimed in ascending order, so every job below a
    // failing one was claimed, ran, and reported: scanning in index
    // order always hits the lowest-indexed error before any job left
    // unclaimed by the fail-fast cancellation. That makes the returned
    // error deterministic even though *which* later jobs got skipped is
    // scheduling-dependent.
    let mut out = Vec::with_capacity(n);
    for result in slots.into_inner().expect("result slots poisoned") {
        match result {
            Some(Ok(o)) => out.push(o),
            Some(Err(e)) => return Err(e),
            None => return Err("job cancelled after an earlier failure".to_string()),
        }
    }
    Ok(out)
}

/// Fans independent scenario runs across the pool; outcomes come back in
/// `specs` order, so callers see exactly the serial semantics, faster.
///
/// # Errors
///
/// Propagates the first build/run error by job index (the typed
/// `WorkloadError` is rendered to the engine's string error domain).
pub fn run_specs(specs: Vec<ScenarioSpec>, jobs: usize) -> Result<Vec<RunOutcome>, String> {
    run_jobs(specs, jobs, |spec| {
        run_spec(spec).map_err(|e| e.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn outputs_come_back_in_input_order() {
        for jobs in [1, 2, 4, 9] {
            let inputs: Vec<usize> = (0..23).collect();
            let out = run_jobs(inputs, jobs, |i| Ok(i * 10)).unwrap();
            assert_eq!(out, (0..23).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = run_jobs(Vec::<u32>::new(), 4, Ok).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn first_error_by_job_index_wins() {
        // Jobs 3 and 7 fail; job 7 finishes long before job 3 under any
        // scheduling, yet job 3's error must be the one reported.
        for jobs in [1, 2, 4] {
            let inputs: Vec<usize> = (0..10).collect();
            let err = run_jobs(inputs, jobs, |i| {
                if i == 3 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    Err("boom at 3".to_string())
                } else if i == 7 {
                    Err("boom at 7".to_string())
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, "boom at 3", "jobs={jobs}");
        }
    }

    #[test]
    fn failure_cancels_unclaimed_jobs() {
        // With one worker the claim order is the job order, so after job
        // 0 errors no later job may run at all.
        let ran = AtomicUsize::new(0);
        let inputs: Vec<usize> = (0..50).collect();
        let err = run_jobs(inputs, 1, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                Err("boom at 0".to_string())
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, "boom at 0");
        assert_eq!(ran.load(Ordering::Relaxed), 1, "later jobs must not run");
    }

    #[test]
    fn config_defaults_without_env() {
        let cfg = EngineConfig::from_lookup(|_| None).unwrap();
        assert_eq!(cfg.trials, 3);
        assert!(cfg.jobs >= 1);
    }

    #[test]
    fn config_parses_explicit_values() {
        let cfg = EngineConfig::from_lookup(|key| match key {
            "MAFIC_JOBS" => Some("4".to_string()),
            "MAFIC_TRIALS" => Some("7".to_string()),
            _ => None,
        })
        .unwrap();
        assert_eq!(cfg, EngineConfig { jobs: 4, trials: 7 });
    }

    #[test]
    fn config_rejects_invalid_values() {
        for (key, raw) in [
            ("MAFIC_TRIALS", "O3"),
            ("MAFIC_TRIALS", "0"),
            ("MAFIC_TRIALS", "-1"),
            ("MAFIC_JOBS", "fast"),
            ("MAFIC_JOBS", "0"),
        ] {
            let err = EngineConfig::from_lookup(|k| (k == key).then(|| raw.to_string()))
                .expect_err(&format!("{key}={raw} must be rejected"));
            assert!(err.contains(key), "error must name {key}: {err}");
            assert!(err.contains(raw), "error must echo the value: {err}");
        }
    }

    #[test]
    fn serial_config_pins_one_worker() {
        let cfg = EngineConfig::serial(2);
        assert_eq!(cfg.jobs, 1);
        assert_eq!(cfg.trials, 2);
    }

    #[test]
    fn parallel_specs_match_serial_specs() {
        let specs: Vec<ScenarioSpec> = (0..3)
            .map(|i| ScenarioSpec {
                total_flows: 10 + i,
                n_routers: 5,
                end: mafic_netsim::SimTime::from_secs_f64(2.0),
                seed: 40 + i as u64,
                ..ScenarioSpec::default()
            })
            .collect();
        let serial = run_specs(specs.clone(), 1).unwrap();
        let parallel = run_specs(specs, 3).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.report, p.report);
            assert_eq!(s.triggered_at, p.triggered_at);
            assert_eq!(s.packets_sent, p.packets_sent);
        }
    }
}
