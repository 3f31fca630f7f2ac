//! The untraced pass: end-to-end metrics and output checks.
//!
//! Timed repetitions are interleaved round-robin across the selected
//! workloads (repetition 1 of every workload, then repetition 2, ...),
//! so a slow host period lands on all workloads alike; the `setup_s`
//! batches are taken in the same rounds.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mafic_experiments::run_jobs;
use mafic_obs::Fnv64;
use mafic_workload::{run_scenario, RunOutcome, Scenario, ScenarioSpec};

use crate::alloc;
use crate::drivers::timed_value;
use crate::host::calib_mops;
use crate::workloads::Workload;

/// Names of the exact (deterministic, zero-tolerance) counters read
/// from public post-run state, in [`Cell::exact`] order.
pub const EXACT: [&str; 14] = [
    "packets_sent",
    "packets_delivered",
    "events_processed",
    "intervals",
    "arena_peak_pkts",
    "drops_queue",
    "drops_filter",
    "conservation_gap",
    "timers_armed",
    "probes_sent",
    "table_peak_bytes",
    "requests",
    "denials",
    "escalations",
];

pub type Exact = [i64; EXACT.len()];

/// What one build-and-run of one spec produced.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Everything the run reported, folded into one pinned value: the
    /// report, the exact counters, the drop totals, the ledger's final
    /// chained hashes and the checkpoint length.
    pub digest: u64,
    /// The `MetricsReport` alone: what must not move when the ledger or
    /// a checkpoint merely observes the run.
    pub report_digest: u64,
    pub exact: Exact,
    pub engaged: bool,
    pub build_s: f64,
    pub run_s: f64,
    /// High-water mark of live heap bytes over build and run.
    pub peak_bytes: u64,
    /// Allocator calls across `run_scenario`.
    pub alloc_calls: u64,
}

/// Position of exact counter `name` in [`Cell::exact`].
pub fn exact_index(name: &str) -> usize {
    EXACT
        .iter()
        .position(|n| *n == name)
        .expect("known exact counter")
}

/// The value of exact counter `name` summed over `cells`.
pub fn exact_total(cells: &[Cell], name: &str) -> i64 {
    let at = exact_index(name);
    cells.iter().map(|c| c.exact[at]).sum()
}

/// Folds a finished run into `(digest, report digest, exact counters)`.
pub fn observe(scenario: &mut Scenario, outcome: &RunOutcome) -> (u64, u64, Exact) {
    // A run to "now" processes nothing and returns the loop totals.
    let events = scenario.sim.run_until(scenario.sim.now()).events_processed;
    let sim = &scenario.sim;
    let drops = sim.stats().drop_totals();
    let [probing, permanent, illegal, proportional, rate_limited, queue, other] = drops;
    let filter = probing + permanent + illegal + proportional + rate_limited;
    let gap = outcome.packets_sent as i64
        - outcome.packets_delivered as i64
        - (filter + queue + other) as i64
        - sim.packet_arena_live() as i64;
    let spec = &scenario.spec;
    let cost = |f: fn(&mafic_metrics::PolicyCostReport) -> u64| -> i64 {
        outcome.policy_costs.iter().map(f).sum::<u64>() as i64
    };
    let exact = [
        outcome.packets_sent as i64,
        outcome.packets_delivered as i64,
        events as i64,
        spec.end
            .as_nanos()
            .div_ceil(spec.monitor_interval.as_nanos()) as i64,
        sim.packet_arena_peak() as i64,
        queue as i64,
        filter as i64,
        gap,
        cost(|c| c.timer_events),
        cost(|c| c.probes_sent),
        cost(|c| c.table_bytes),
        outcome.control.requests_sent as i64,
        outcome.control.denied_total() as i64,
        outcome.escalations.len() as i64,
    ];

    let report = format!("{:?}", outcome.report);
    let mut h = Fnv64::new();
    h.write_str(&report);
    for v in exact {
        h.write_u64(v as u64);
    }
    for d in drops {
        h.write_u64(d);
    }
    if let Some(last) = outcome.ledger.as_ref().and_then(|l| l.intervals.last()) {
        for &chain in &last.hashes {
            h.write_u64(chain);
        }
    }
    if let Some(bytes) = &outcome.checkpoint {
        h.write_usize(bytes.len());
    }
    (h.finish(), mafic_obs::fnv64(report.as_bytes()), exact)
}

/// Builds and runs one spec under the heap watch.
pub fn run_cell(spec: &ScenarioSpec) -> Result<Cell, String> {
    let (result, peak_bytes) = alloc::peak_during(|| {
        let (scenario, build) = timed_value(|| Scenario::build(spec.clone()));
        let mut scenario = scenario.map_err(|e| e.to_string())?;
        let calls = alloc::calls();
        let (outcome, run) = timed_value(|| run_scenario(&mut scenario));
        let alloc_calls = alloc::calls() - calls;
        let outcome = outcome.map_err(|e| e.to_string())?;
        let (digest, report_digest, exact) = observe(&mut scenario, &outcome);
        Ok::<_, String>(Cell {
            digest,
            report_digest,
            exact,
            engaged: outcome.defense_engaged(),
            build_s: build.as_secs_f64(),
            run_s: run.as_secs_f64(),
            peak_bytes: 0,
            alloc_calls,
        })
    });
    result.map(|cell| Cell { peak_bytes, ..cell })
}

/// One repetition of a workload: every cell once, and the wall time
/// `sim_pps` divides by. A grid is one `run_jobs` call on one worker,
/// timed as a whole, builds included; the trial tiers are timed around
/// `run_scenario` alone.
pub fn repetition(w: &Workload) -> Result<(Vec<Cell>, f64), String> {
    if w.grid {
        let (cells, wall) = timed_value(|| run_jobs(w.specs.clone(), 1, |spec| run_cell(&spec)));
        Ok((cells?, wall.as_secs_f64()))
    } else {
        let cells = w
            .specs
            .iter()
            .map(run_cell)
            .collect::<Result<Vec<_>, _>>()?;
        let wall = cells.iter().map(|c| c.run_s).sum();
        Ok((cells, wall))
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; `why` is asked only when it failed.
    pub fn attempt(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }
}

/// One operation per cell: it fails when its digest is not the
/// reference one (the pin at the pin seed, else the warm-up's), or when
/// the defense engaged on a workload where it must not (or the reverse).
pub fn check_cells(w: &Workload, cells: &[Cell], reference: Option<&[u64]>, ops: &mut Ops) {
    for (i, cell) in cells.iter().enumerate() {
        let want = reference.map(|r| r.get(i).copied());
        if want.is_some_and(|want| want != Some(cell.digest)) {
            ops.attempt(false, || {
                format!(
                    "cell {i}: digest {:016x}, expected {:016x?}",
                    cell.digest,
                    want.flatten()
                )
            });
        } else {
            ops.attempt(w.engages.is_none_or(|e| e == cell.engaged), || {
                format!("cell {i}: defense_engaged = {}", cell.engaged)
            });
        }
    }
}

/// The host speed `sim_pps` and `setup_s` are reported at, in
/// `host_calib_mops`: the sizing host between its fast periods.
pub const REFERENCE_MOPS: f64 = 30.0;

/// Each `setup_s` sample is at least this much consecutive building.
const SETUP_BATCH: Duration = Duration::from_millis(20);
/// `setup_s` is the median of at least this many batch samples.
const SETUP_MIN_SAMPLES: usize = 15;
/// Batches taken after each timed repetition.
const SETUP_PER_ROUND: usize = 4;

/// One `setup_s` sample: seconds to build every spec of the workload
/// once, from a batch of consecutive builds that carries on through the
/// specs where the previous batch stopped. A grid's cells differ in
/// size, so its batches are whole passes; a tier's trials are alike.
fn setup_batch(w: &Workload, next: &mut usize) -> f64 {
    let unit = if w.grid { w.specs.len() } else { 1 };
    let started = Instant::now();
    let mut builds = 0usize;
    while started.elapsed() < SETUP_BATCH {
        for _ in 0..unit {
            let spec = &w.specs[*next % w.specs.len()];
            black_box(Scenario::build(spec.clone()).expect("spec built in the warm-up"));
            *next += 1;
        }
        builds += unit;
    }
    started.elapsed().as_secs_f64() / builds as f64 * w.specs.len() as f64
}

/// Everything the untraced pass learned about one workload.
#[derive(Default)]
pub struct Measured {
    /// The warm-up repetition: reference digests and the exact heap and
    /// allocation numbers.
    pub reference: Vec<Cell>,
    /// `sim_pps` of each timed repetition, at the reference host speed.
    pub pps: Vec<f64>,
    /// `setup_s` batch samples, at the reference host speed.
    pub setup_s: Vec<f64>,
    /// Packets per host second of each timed repetition, as clocked.
    pub raw_pps: Vec<f64>,
    /// `host_calib_mops` around each timed repetition (the mean of the
    /// readings before and after it).
    pub host_mops: Vec<f64>,
    /// One operation is one cell of one repetition, warm-up included.
    pub ops: Ops,
    timed_s: f64,
    last_rep_s: f64,
    next_setup: usize,
}

impl Measured {
    /// Mean over the cells of the per-cell heap high-water mark, MB.
    pub fn peak_heap_mb(&self) -> f64 {
        let total: u64 = self.reference.iter().map(|c| c.peak_bytes).sum();
        total as f64 / 1e6 / self.reference.len() as f64
    }

    /// Allocator calls per 1000 packets sent, over all cells.
    pub fn allocs_per_kpkt(&self) -> f64 {
        let calls: u64 = self.reference.iter().map(|c| c.alloc_calls).sum();
        calls as f64 * 1e3 / exact_total(&self.reference, "packets_sent") as f64
    }

    /// Runs one repetition and checks it against `reference` digests.
    /// Returns its cells and, unless the run failed, its packets per
    /// host second as clocked.
    fn rep(&mut self, w: &Workload, reference: Option<&[u64]>) -> (Vec<Cell>, Option<f64>) {
        match repetition(w) {
            Ok((cells, wall)) => {
                check_cells(w, &cells, reference, &mut self.ops);
                let pps = exact_total(&cells, "packets_sent") as f64 / wall;
                (cells, Some(pps))
            }
            Err(e) => {
                for _ in &w.specs {
                    self.ops.attempt(false, || format!("run failed: {e}"));
                }
                (Vec::new(), None)
            }
        }
    }

    /// Whether the next repetition would overrun the budget by more
    /// than stopping now undershoots it.
    fn done(&self, seconds: f64) -> bool {
        self.last_rep_s > 0.0 && self.timed_s + self.last_rep_s / 2.0 >= seconds
    }
}

/// Measures `workloads` for about `seconds` of timed repetitions each.
/// `pins(name)` yields the pinned per-cell digests, when they apply.
pub fn measure(
    workloads: &[Workload],
    seconds: f64,
    pins: impl Fn(&str) -> Option<Vec<u64>>,
) -> Vec<Measured> {
    let mut references = Vec::new();
    let mut all: Vec<Measured> = workloads
        .iter()
        .map(|w| {
            let mut m = Measured::default();
            // The warm-up is checked against the pins too; without pins
            // it is the reference the timed repetitions must agree with.
            let pinned = pins(w.name);
            (m.reference, _) = m.rep(w, pinned.as_deref());
            references
                .push(pinned.unwrap_or_else(|| m.reference.iter().map(|c| c.digest).collect()));
            m
        })
        .collect();
    // This host runs a quarter faster for tens of seconds at a time, so
    // every repetition is bracketed by two readings of the calibration
    // kernel and reports its times at the reference host speed.
    let mut before = calib_mops();
    loop {
        let mut ran = false;
        for ((w, m), reference) in workloads.iter().zip(&mut all).zip(&references) {
            if m.reference.is_empty() || m.done(seconds) {
                continue;
            }
            ran = true;
            let started = Instant::now();
            let (_, raw_pps) = m.rep(w, Some(reference));
            m.last_rep_s = started.elapsed().as_secs_f64();
            m.timed_s += m.last_rep_s;
            let after = calib_mops();
            let mops = (before + after) / 2.0;
            before = after;
            if let Some(raw_pps) = raw_pps {
                m.raw_pps.push(raw_pps);
                m.host_mops.push(mops);
                m.pps.push(raw_pps * REFERENCE_MOPS / mops);
            }
            for _ in 0..SETUP_PER_ROUND {
                m.setup_s
                    .push(setup_batch(w, &mut m.next_setup) * after / REFERENCE_MOPS);
            }
        }
        if !ran {
            break;
        }
    }
    for (w, m) in workloads.iter().zip(&mut all) {
        while !m.reference.is_empty() && m.setup_s.len() < SETUP_MIN_SAMPLES {
            let speed = calib_mops() / REFERENCE_MOPS;
            for _ in 0..SETUP_PER_ROUND {
                m.setup_s.push(setup_batch(w, &mut m.next_setup) * speed);
            }
        }
    }
    all
}
