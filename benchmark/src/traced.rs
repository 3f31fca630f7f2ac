//! The traced pass: per-layer numbers for one workload.
//!
//! Every cell runs with `checkpoint_at = end / 2`, then goes through
//! `Snapshot::decode`, `restore_run`, `encode_checkpoint` and
//! `resume_scenario`; the resumed outcome must equal the straight
//! run's. Spans are recorded here, around the calls into each crate's
//! public functions, never inside the program. End-to-end numbers never
//! come from this pass.

use std::hint::black_box;

use mafic::{LogLogTap, MaficFilter, ProportionalFilter, RateLimitFilter};
use mafic_experiments::figures::{depth_axis, fig8_spec};
use mafic_experiments::{run_jobs, sweep, sweep_warm, EngineConfig};
use mafic_loglog::{DetectorConfig, RouterSketch, TrafficMatrix, VictimDetector};
use mafic_metrics::{victim_bandwidth_series, MeasureWindows, MetricsReport};
use mafic_netsim::{SimDuration, SimTime};
use mafic_obs::{diff_ledgers, IntervalProbe, RunLedger, Snapshot};
use mafic_workload::{
    encode_checkpoint, restore_run, resume_scenario, run_scenario, run_spec, DetectionMode,
    Scenario, ScenarioSpec,
};

use crate::drivers::timed_value;
use crate::measure::{
    check_cells, exact_index, exact_total, observe, repetition, run_cell, Cell, Ops,
};
use crate::spans::Tracer;
use crate::stats::{high_percentile, median};
use crate::workloads::Workload;

/// Counts taken at the same boundaries as the spans, summed over cells.
#[derive(Default)]
struct Counts {
    /// Events the bare simulator processed from the checkpoint to `end`.
    insitu_events: u64,
    /// Events `resume_scenario` processed over the same span.
    resumed_events: u64,
    snapshot_bytes: u64,
    ledger_components: usize,
    tap_packets: u64,
    mafic_examined: u64,
    proportional_examined: u64,
    rate_limit_examined: u64,
    /// Monitor intervals that ran the detection pipeline (those before
    /// the first trigger, under automatic detection).
    detect_intervals: u64,
    /// Coordinators stepped per monitor interval, summed over cells.
    coordinators: u64,
    adversary_sources: u64,
}

/// What the traced pass learned about one workload.
#[derive(Default)]
pub struct Traced {
    /// `(per-layer metric, value)`; names absent here were not
    /// exercised by this workload and read 0.
    pub values: Vec<(&'static str, f64)>,
    pub ops: Ops,
    /// The untraced reference repetition.
    pub reference: Vec<Cell>,
    /// Samples behind `experiments.cell_ms_hi`, and its percentile.
    pub cell_hi: Option<(u32, usize)>,
}

fn us(seconds: &[f64]) -> f64 {
    if seconds.is_empty() {
        0.0
    } else {
        median(seconds) * 1e6
    }
}

/// The tap sketches of one monitor interval, the first of the attack:
/// what the detection pipeline digests when it raises the alarm. (The
/// monitor loop drains the finished run's own every interval.)
fn first_attack_epoch(spec: &ScenarioSpec) -> Result<Vec<RouterSketch>, String> {
    let mut scenario = Scenario::build(spec.clone()).map_err(|e| e.to_string())?;
    let mut harvest = |until: SimTime| -> Vec<RouterSketch> {
        scenario.sim.run_until(until);
        let taps = scenario.taps.clone();
        taps.iter()
            .map(|&(node, index)| {
                scenario
                    .sim
                    .filter_mut::<LogLogTap>(node, index)
                    .expect("tap installed at build time")
                    .take_epoch()
            })
            .collect()
    };
    harvest(spec.attack_start);
    Ok(harvest(spec.attack_start + spec.monitor_interval))
}

/// Times the ledger's serialization and the differ on `ledger`.
fn ledger_round_trip(
    ledger: &RunLedger,
    tr: &mut Tracer,
    counts: &mut Counts,
    ops: &mut Ops,
) -> Result<(), String> {
    counts.ledger_components = ledger.components.len();
    let jsonl = tr.span("ledger_to_jsonl", |_| ledger.to_jsonl());
    let back = tr.span("ledger_from_jsonl", |_| RunLedger::from_jsonl(&jsonl))?;
    let identical = tr.span("diff_ledgers", |_| {
        diff_ledgers(ledger, &back).is_identical()
    });
    ops.attempt(identical, || {
        "ledger changed across its JSONL round trip".to_string()
    });
    Ok(())
}

/// One cell of the traced repetition.
fn trace_cell(
    spec: &ScenarioSpec,
    reference: &Cell,
    tr: &mut Tracer,
    counts: &mut Counts,
    ops: &mut Ops,
) -> Result<(), String> {
    let text = |e: &dyn std::fmt::Display| e.to_string();
    let spec = ScenarioSpec {
        checkpoint_at: Some(SimTime::from_nanos(spec.end.as_nanos() / 2)),
        ..spec.clone()
    };
    let mut scenario = tr
        .span("build", |_| Scenario::build(spec.clone()))
        .map_err(|e| text(&e))?;
    let outcome = tr
        .span("run_scenario", |_| run_scenario(&mut scenario))
        .map_err(|e| text(&e))?;
    let (digest, report_digest, exact) = observe(&mut scenario, &outcome);
    ops.attempt(
        report_digest == reference.report_digest && exact == reference.exact,
        || "capturing a checkpoint perturbed the run".to_string(),
    );

    let bytes = outcome
        .checkpoint
        .as_deref()
        .ok_or("no checkpoint captured")?;
    counts.snapshot_bytes += bytes.len() as u64;
    let snapshot = tr
        .span("snapshot_decode", |_| Snapshot::decode(bytes))
        .map_err(|e| text(&e))?;
    let reencoded = tr.span("snapshot_encode", |_| snapshot.encode());
    let (mut resumed, state) = tr
        .span("restore_run", |_| restore_run(&spec, bytes))
        .map_err(|e| text(&e))?;
    let recaptured = tr.span("encode_checkpoint", |_| encode_checkpoint(&resumed, &state));
    ops.attempt(reencoded == bytes && recaptured == bytes, || {
        "checkpoint bytes changed across decode/encode or restore/capture".to_string()
    });
    let resumed_outcome = tr
        .span("resume_scenario", |_| resume_scenario(&mut resumed, state))
        .map_err(|e| text(&e))?;
    let (resumed_digest, _, _) = observe(&mut resumed, &resumed_outcome);
    ops.attempt(resumed_digest == digest, || {
        format!("resumed digest {resumed_digest:016x}, straight run {digest:016x}")
    });

    // The same second half on the bare simulator: no monitor loop, so
    // no defense either and a different event count; the two are
    // compared per event.
    let (mut bare, _state) = restore_run(&spec, bytes).map_err(|e| text(&e))?;
    let before = bare.sim.run_until(bare.sim.now()).events_processed;
    let after = tr
        .span("sim_run_until", |_| bare.sim.run_until(spec.end))
        .events_processed;
    counts.insitu_events += after - before;
    counts.resumed_events += exact[exact_index("events_processed")] as u64 - before;

    // Post-run probes over the finished straight run.
    let sim = &scenario.sim;
    tr.span("hash_components", |_| {
        let mut probe = IntervalProbe::new();
        sim.hash_components(&mut probe);
        black_box(probe);
    });
    tr.span("snap_save_into", |_| {
        let mut copy = Snapshot::new(snapshot.header.clone());
        sim.snap_save_into(&mut copy);
        black_box(copy);
    });
    let windows = MeasureWindows {
        trigger_at: outcome.triggered_at.unwrap_or(spec.attack_start),
        before: SimDuration::from_millis(500),
        settle: SimDuration::from_millis(50),
        after: SimDuration::from_millis(200),
        residual: SimDuration::from_secs(2),
    };
    tr.span("from_stats", |_| {
        black_box(MetricsReport::from_stats(sim.stats(), &windows));
    });
    tr.span("series", |_| {
        black_box(victim_bandwidth_series(sim.stats()));
    });

    let taps = scenario.taps.iter().map(|&(node, index)| {
        sim.filter::<LogLogTap>(node, index)
            .expect("tap installed at build time")
    });
    counts.tap_packets += taps.map(LogLogTap::packets_seen).sum::<u64>();

    // The detection pipeline over this scenario's own sketches.
    let sketches = first_attack_epoch(&spec)?;
    let matrix = tr
        .span("matrix_estimate", |_| TrafficMatrix::estimate(&sketches))
        .map_err(|e| text(&e))?;
    let mut detector = VictimDetector::new(DetectorConfig::default())?;
    tr.span("detector_observe", |_| {
        black_box(detector.observe(&matrix));
    });

    if let Some(ledger) = &outcome.ledger {
        ledger_round_trip(ledger, tr, counts, ops)?;
    }

    // Counts for the attribution model.
    let defense_filters = scenario.droppers.iter().chain(
        scenario
            .pushback
            .iter()
            .flat_map(|plan| plan.domains.iter().skip(1).flat_map(|d| d.atrs.iter())),
    );
    for &(node, index) in defense_filters {
        if let Some(f) = sim.filter::<MaficFilter>(node, index) {
            counts.mafic_examined += f.counters().examined;
        } else if let Some(f) = sim.filter::<ProportionalFilter>(node, index) {
            counts.proportional_examined += f.examined();
        } else if let Some(f) = sim.filter::<RateLimitFilter>(node, index) {
            counts.rate_limit_examined += f.examined();
        }
    }
    if spec.detection == DetectionMode::Auto {
        let searching = outcome.triggered_at.unwrap_or(spec.end).min(spec.end);
        counts.detect_intervals += searching.as_nanos() / spec.monitor_interval.as_nanos();
    }
    counts.coordinators += scenario.pushback.as_ref().map_or(0, |p| p.domains.len()) as u64;
    counts.adversary_sources +=
        spec.adversary
            .map_or(0, |_| scenario.flows.iter().filter(|f| f.is_attack).count()) as u64;
    Ok(())
}

/// The ledger's price and its promise, for workloads that record one:
/// the same specs with ledger and checkpoint off (that is `cascade_d3`
/// for `cascade_ledger`) must report the same packets, events and
/// report digest. Returns `ledger_overhead_pct`.
fn ledger_overhead(
    w: &Workload,
    reference: &[Cell],
    wall: f64,
    ops: &mut Ops,
) -> Result<f64, String> {
    let plain = Workload {
        specs: w
            .specs
            .iter()
            .map(|spec| ScenarioSpec {
                ledger: false,
                checkpoint_at: None,
                ..spec.clone()
            })
            .collect(),
        ..*w
    };
    let (cells, plain_wall) = repetition(&plain)?;
    for (with, without) in reference.iter().zip(&cells) {
        ops.attempt(
            with.report_digest == without.report_digest && with.exact == without.exact,
            || "the ledger or checkpoint perturbed the run it observes".to_string(),
        );
    }
    Ok((wall / plain_wall - 1.0) * 100.0)
}

/// `experiments.*`: the engine's own costs, measured on the grid.
fn experiments(
    w: &Workload,
    reference: &[Cell],
    serial_wall: f64,
    ops: &mut Ops,
    values: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    // The only multi-threaded measurement: the grid at nproc workers
    // against the one-worker reference repetition.
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (parallel, parallel_wall) =
        timed_value(|| run_jobs(w.specs.clone(), nproc, |spec| run_cell(&spec)));
    for (serial, cell) in reference.iter().zip(parallel?) {
        ops.attempt(serial.digest == cell.digest, || {
            format!("cell digest differs at {nproc} workers")
        });
    }
    values.push((
        "experiments.parallel_efficiency",
        serial_wall / parallel_wall.as_secs_f64() / nproc as f64,
    ));

    let series = [("chain".to_string(), ())];
    let cfg = EngineConfig { jobs: 1, trials: 1 };
    let make = |(): &(), depth: f64| fig8_spec(depth as u32);
    let (cold, cold_wall) = timed_value(|| sweep(&series, &depth_axis(), &cfg, make));
    let branch_at = fig8_spec(0).attack_start;
    let (warm, warm_wall) =
        timed_value(|| sweep_warm(&series, &depth_axis(), &cfg, branch_at, make));
    ops.attempt(cold? == warm?, || {
        "warm sweep diverged from cold sweep".to_string()
    });
    values.push((
        "experiments.warm_sweep_speedup",
        cold_wall.as_secs_f64() / warm_wall.as_secs_f64(),
    ));
    Ok(())
}

/// Traces one workload. `drivers` are the isolated per-layer costs the
/// attribution model multiplies counts by.
pub fn trace(
    w: &Workload,
    tr: &mut Tracer,
    drivers: &[(&'static str, f64)],
    pins: Option<Vec<u64>>,
) -> Traced {
    tr.set_workload(w.name);
    let mut t = Traced::default();
    if let Err(e) = trace_into(w, tr, drivers, pins, &mut t) {
        t.ops.attempt(false, || format!("traced pass failed: {e}"));
    }
    t
}

fn trace_into(
    w: &Workload,
    tr: &mut Tracer,
    drivers: &[(&'static str, f64)],
    pins: Option<Vec<u64>>,
    t: &mut Traced,
) -> Result<(), String> {
    let Traced {
        values,
        ops,
        reference,
        cell_hi,
    } = t;
    // Untraced reference repetition: the outputs the traced run must
    // reproduce, and the wall time tracing overhead is measured against.
    let untraced_wall;
    (*reference, untraced_wall) = repetition(w)?;
    let reference = &*reference;
    check_cells(w, reference, pins.as_deref(), ops);

    let mut counts = Counts::default();
    tr.span("workload", |tr| {
        w.specs.iter().zip(reference).try_for_each(|(spec, cell)| {
            tr.span("cell", |tr| trace_cell(spec, cell, tr, &mut counts, ops))
        })
    })?;

    // The `obs.ledger_*` lines need a ledger; a workload that records
    // none lends its first cell for one untimed ledger-on run.
    let records_ledger = w.specs.iter().any(|spec| spec.ledger);
    if !records_ledger {
        let with_ledger = ScenarioSpec {
            ledger: true,
            ..w.specs[0].clone()
        };
        let outcome = run_spec(with_ledger).map_err(|e| e.to_string())?;
        let ledger = outcome.ledger.as_ref().ok_or("no ledger recorded")?;
        ledger_round_trip(ledger, tr, &mut counts, ops)?;
    }

    let sum = |name: &str| tr.seconds(name).iter().sum::<f64>();
    let mid = |name: &str| us(&tr.seconds(name));
    let total = |name: &str| exact_total(reference, name) as f64;
    let peak = |name: &str| {
        let at = exact_index(name);
        reference.iter().map(|c| c.exact[at]).max().unwrap_or(0) as f64
    };
    let cells = w.specs.len() as f64;
    let run_s = sum("run_scenario");
    let traced_wall = if w.grid { run_s + sum("build") } else { run_s };
    let insitu_ns_per_event = sum("sim_run_until") * 1e9 / counts.insitu_events as f64;
    // Per-cell wall times of every build-and-run this process made of
    // the workload's cells: the reference and the traced repetition.
    let cell_ms: Vec<f64> = reference
        .iter()
        .map(|c| c.build_s + c.run_s)
        .chain(
            tr.seconds("build")
                .iter()
                .zip(tr.seconds("run_scenario"))
                .map(|(build, run)| build + run),
        )
        .map(|s| s * 1e3)
        .collect();
    if let Some((percentile, value)) = high_percentile(&cell_ms) {
        values.push(("experiments.cell_ms_hi", value));
        *cell_hi = Some((percentile, cell_ms.len()));
    }
    values.extend([
        ("experiments.cell_ms_p50", median(&cell_ms)),
        (
            "netsim.events_per_pkt",
            total("events_processed") / total("packets_sent"),
        ),
        ("netsim.ns_per_event_insitu", insitu_ns_per_event),
        ("netsim.arena_peak_pkts", peak("arena_peak_pkts")),
        ("netsim.drops_queue", total("drops_queue")),
        ("netsim.drops_filter", total("drops_filter")),
        ("netsim.conservation_gap", total("conservation_gap")),
        ("netsim.probe_us", mid("hash_components")),
        ("netsim.snap_save_us", mid("snap_save_into")),
        ("core.timers_armed", total("timers_armed")),
        ("core.probes_sent", total("probes_sent")),
        ("core.table_peak_bytes", peak("table_peak_bytes")),
        ("loglog.estimate_us", mid("matrix_estimate")),
        ("loglog.observe_us", mid("detector_observe")),
        ("pushback.requests", total("requests")),
        ("pushback.denials", total("denials")),
        ("pushback.escalations", total("escalations")),
        ("obs.snapshot_encode_us", mid("snapshot_encode")),
        ("obs.snapshot_decode_us", mid("snapshot_decode")),
        ("obs.snapshot_bytes", counts.snapshot_bytes as f64 / cells),
        ("obs.ledger_to_jsonl_ms", mid("ledger_to_jsonl") / 1e3),
        ("obs.ledger_from_jsonl_ms", mid("ledger_from_jsonl") / 1e3),
        ("obs.diff_ms", mid("diff_ledgers") / 1e3),
        ("obs.ledger_components", counts.ledger_components as f64),
        ("metrics.from_stats_us", mid("from_stats")),
        ("metrics.series_us", mid("series")),
        ("workload.build_us", mid("build")),
        ("workload.run_s", run_s),
        (
            "workload.encode_checkpoint_ms",
            mid("encode_checkpoint") / 1e3,
        ),
        ("workload.restore_ms", mid("restore_run") / 1e3),
        ("workload.resume_s", sum("resume_scenario")),
        (
            "workload.monitor_share_pct",
            (1.0 - insitu_ns_per_event * counts.resumed_events as f64
                / 1e9
                / sum("resume_scenario"))
                * 100.0,
        ),
        ("workload.intervals", total("intervals")),
        (
            "workload.pkts_per_interval",
            total("packets_sent") / total("intervals"),
        ),
        (
            "trace_overhead_pct",
            (traced_wall / untraced_wall - 1.0) * 100.0,
        ),
    ]);

    // What the isolated drivers explain of the run: count x driver ns.
    let driver = |name: &str| {
        drivers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, ns)| ns)
    };
    let intervals_per_cell = total("intervals") / cells;
    let per_interval_ns = counts.coordinators as f64 * driver("pushback.on_interval_ns_defending")
        + counts.adversary_sources as f64 * driver("adversary.observe_ns_per_source_14")
        + if counts.ledger_components > 0 {
            cells * mid("hash_components") * 1e3
        } else {
            0.0
        };
    let attributed_ns = total("events_processed") * driver("netsim.ns_per_event_forward")
        + counts.tap_packets as f64 * driver("core.ns_per_tap")
        + counts.mafic_examined as f64 * driver("core.ns_per_decision_nft")
        + counts.proportional_examined as f64 * driver("core.ns_per_proportional")
        + counts.rate_limit_examined as f64 * driver("core.ns_per_ratelimit")
        + total("packets_delivered")
            * (driver("transport.ns_per_ack") + driver("transport.ns_per_segment"))
            / 2.0
        + counts.detect_intervals as f64 * (mid("matrix_estimate") + mid("detector_observe")) * 1e3
        + intervals_per_cell * per_interval_ns;
    values.push((
        "workload.unattributed_pct",
        (1.0 - attributed_ns / 1e9 / run_s) * 100.0,
    ));

    if records_ledger {
        let overhead = ledger_overhead(w, reference, untraced_wall, ops)?;
        values.push(("workload.ledger_overhead_pct", overhead));
    }
    if w.grid {
        experiments(w, reference, untraced_wall, ops, values)?;
    }
    Ok(())
}
