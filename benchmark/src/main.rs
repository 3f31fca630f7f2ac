//! The repo benchmark. See `README.md` beside this crate.
//!
//! ```text
//! mafic-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!                 [--bless] [--expected PATH]
//! mafic-benchmark --compare a.json b.json
//! ```
//!
//! Without `--workload` every workload runs, interleaved. With it, the
//! last line of standard output is the driver's JSON result line.

// Sanctioned wall-clock user (the repo's `clippy.toml` bans
// `Instant::now` for simulation code): measuring host time is this
// crate's purpose, and nothing it measures feeds back into a run.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod compare;
mod drivers;
mod host;
mod json;
mod measure;
mod metrics;
mod pins;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use json::Json;
use measure::{exact_total, Cell, Ops};
use metrics::{END_TO_END, PER_LAYER};
use stats::Summary;
use workloads::{Workload, PIN_SEED};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measuring time per workload when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Share of `--seconds` the traced pass spends in the isolated drivers.
const DRIVER_SHARE: f64 = 0.3;
/// Isolated drivers sharing that time (those of `drivers::run`).
const DRIVERS: f64 = 30.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
    expected: PathBuf,
    compare: Option<(String, String)>,
}

fn parse_args(benchmark_dir: &Path) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: PIN_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        bless: false,
        expected: benchmark_dir.join("expected.json"),
        compare: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err("--seconds must lie in 0..=3600".to_string());
                }
            }
            // `--trace` alone means 1; the driver always passes 0 or 1.
            "--trace" => {
                args.trace = argv.next_if(|v| v == "0" || v == "1").as_deref() != Some("0");
            }
            "--bless" => args.bless = true,
            "--expected" => args.expected = PathBuf::from(value("a path")?),
            "--compare" => args.compare = Some((value("two paths")?, value("two paths")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.bless && args.workload.is_some() {
        return Err("--bless rewrites every pin: drop --workload".to_string());
    }
    Ok(args)
}

/// One workload's results, in the shape both passes report.
struct Report<'a> {
    workload: &'a Workload,
    ops: &'a Ops,
    reference: &'a [Cell],
    /// End-to-end metrics (untraced pass): `(value, samples)` in
    /// `END_TO_END` order.
    end_to_end: Vec<(f64, Vec<f64>)>,
    /// Per-layer metrics (traced pass), in `PER_LAYER` order.
    layers: Vec<f64>,
    /// Percentile and sample count behind `experiments.cell_ms_hi`.
    cell_hi: Option<(u32, usize)>,
    /// Untraced pass: packets per host second as clocked, and the
    /// calibration readings `sim_pps` was scaled by.
    raw_pps: &'a [f64],
    host_mops: &'a [f64],
}

impl Report<'_> {
    /// One value over all cell digests, for result files.
    fn digest(&self) -> String {
        let mut h = mafic_obs::Fnv64::new();
        for cell in self.reference {
            h.write_u64(cell.digest);
        }
        format!("{:016x}", h.finish())
    }

    fn print(&self) {
        println!("{}: {}", self.workload.name, self.workload.why);
        for (e, (value, samples)) in END_TO_END.iter().zip(&self.end_to_end) {
            print!("  {:<36} {value:>16.6} {:<7}", e.name, e.unit);
            if samples.len() > 1 {
                let s = Summary::of(samples);
                print!(
                    " n {} min {:.6} q1 {:.6} q3 {:.6} max {:.6} spread {:.2}%",
                    s.n,
                    s.min,
                    s.q1,
                    s.q3,
                    s.max,
                    s.spread() * 100.0
                );
            }
            println!();
        }
        for ((name, unit, _), value) in PER_LAYER.iter().zip(&self.layers) {
            print!("  {name:<36} {value:>16.4} {unit:<7}");
            if let (&"experiments.cell_ms_hi", Some((p, n))) = (name, self.cell_hi) {
                print!(" p{p} of n {n}");
            }
            println!();
        }
        if !self.raw_pps.is_empty() {
            println!(
                "  as clocked: {:.0} pkt/s at host_calib_mops {:.2} (reported at {})",
                stats::median(self.raw_pps),
                stats::median(self.host_mops),
                measure::REFERENCE_MOPS
            );
        }
        println!(
            "  ops {} ops_failed {} packets_sent {} events_processed {}",
            self.ops.attempted,
            self.ops.failed,
            exact_total(self.reference, "packets_sent"),
            exact_total(self.reference, "events_processed"),
        );
        for why in &self.ops.failures {
            println!("  FAILED {why}");
        }
    }

    fn to_json(&self) -> Json {
        let nums = |values: &[f64]| Json::Arr(values.iter().map(|&v| Json::Num(v)).collect());
        let metrics = END_TO_END
            .iter()
            .zip(&self.end_to_end)
            .map(|(e, (value, samples))| {
                let mut fields = vec![("value", Json::Num(*value)), ("unit", Json::str(e.unit))];
                if samples.len() > 1 {
                    fields.push(("samples", nums(samples)));
                }
                (e.name, Json::obj(fields))
            });
        let layers = PER_LAYER
            .iter()
            .zip(&self.layers)
            .map(|((name, _, _), value)| (*name, Json::Num(*value)));
        Json::obj([
            ("ops", Json::Num(self.ops.attempted as f64)),
            ("ops_failed", Json::Num(self.ops.failed as f64)),
            ("digest", Json::Str(self.digest())),
            ("exact", pins::exact_totals(self.reference)),
            ("metrics", Json::obj(metrics)),
            ("layers", Json::obj(layers)),
            ("raw_pps", nums(self.raw_pps)),
            ("host_mops", nums(self.host_mops)),
        ])
    }

    /// The driver's result line.
    fn result_line(&self) -> String {
        let pair = |value: f64, unit: &str| {
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        let metrics: Vec<(&str, Json)> = if self.layers.is_empty() {
            END_TO_END
                .iter()
                .zip(&self.end_to_end)
                .map(|(e, (value, _))| (e.name, pair(*value, e.unit)))
                .collect()
        } else {
            PER_LAYER
                .iter()
                .zip(&self.layers)
                .map(|((name, unit, _), value)| (*name, pair(*value, unit)))
                .collect()
        };
        Json::obj([
            (
                "correct",
                Json::Bool(self.ops.failed == 0 && self.ops.attempted > 0),
            ),
            ("attempted", Json::Num(self.ops.attempted.max(1) as f64)),
            ("failed", Json::Num(self.ops.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }
}

fn write_out(benchmark_dir: &Path, file: &str, doc: &Json) -> Result<(), String> {
    let out = benchmark_dir.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let path = out.join(file);
    std::fs::write(&path, doc.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Runs the benchmark; `Ok(true)` when every operation succeeded.
fn run() -> Result<bool, String> {
    let benchmark_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let args = parse_args(benchmark_dir)?;
    if let Some((a, b)) = &args.compare {
        return compare::compare(a, b);
    }
    host::check_profile_parity(benchmark_dir)?;
    let host = host::fingerprint(benchmark_dir);
    for (key, value) in host.fields() {
        println!(
            "host.{key:<16} {}",
            value
                .as_str()
                .map_or_else(|| value.compact(), str::to_string)
        );
    }

    let workloads: Vec<Workload> = workloads::all(args.seed)
        .into_iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    if workloads.is_empty() {
        return Err(format!(
            "unknown workload {:?}",
            args.workload.unwrap_or_default()
        ));
    }
    // Pins apply at their own seed only; elsewhere the check is that
    // repetitions agree with each other. Blessing records, never checks.
    let pins = (!args.bless)
        .then(|| pins::Pins::load(&args.expected))
        .transpose()?
        .filter(|pins| pins.seed == args.seed);
    let pinned = |name: &str| pins.as_ref().map(|p| p.digests(name));

    let measured;
    let traced: Vec<traced::Traced>;
    let mut tracer = spans::Tracer::new();
    let reports: Vec<Report> = if args.trace {
        let bench = drivers::Bench {
            slice: Duration::from_secs_f64(args.seconds * DRIVER_SHARE / DRIVERS),
        };
        let driver_values = tracer.span("drivers", |_| drivers::run(&bench));
        traced = workloads
            .iter()
            .map(|w| traced::trace(w, &mut tracer, &driver_values, pinned(w.name)))
            .collect();
        workloads
            .iter()
            .zip(&traced)
            .map(|(w, t)| Report {
                workload: w,
                ops: &t.ops,
                reference: &t.reference,
                end_to_end: Vec::new(),
                layers: PER_LAYER
                    .iter()
                    .map(|(name, _, _)| {
                        t.values
                            .iter()
                            .chain(&driver_values)
                            .find(|(n, _)| n == name)
                            .map_or(0.0, |&(_, value)| value)
                    })
                    .collect(),
                cell_hi: t.cell_hi,
                raw_pps: &[],
                host_mops: &[],
            })
            .collect()
    } else {
        measured = measure::measure(&workloads, args.seconds, pinned);
        workloads
            .iter()
            .zip(&measured)
            .map(|(w, m)| Report {
                workload: w,
                ops: &m.ops,
                reference: &m.reference,
                end_to_end: if m.pps.is_empty() {
                    Vec::new()
                } else {
                    vec![
                        (stats::median(&m.pps), m.pps.clone()),
                        (stats::median(&m.setup_s), m.setup_s.clone()),
                        (m.peak_heap_mb(), Vec::new()),
                        (m.allocs_per_kpkt(), Vec::new()),
                    ]
                },
                layers: Vec::new(),
                cell_hi: None,
                raw_pps: &m.raw_pps,
                host_mops: &m.host_mops,
            })
            .collect()
    };

    for report in &reports {
        report.print();
        if let Some(pins) = &pins {
            for moved in pins.moved(report.workload.name, report.reference) {
                println!("  MOVED {moved}");
            }
        }
    }
    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host", host),
        (
            "workloads",
            Json::obj(reports.iter().map(|r| (r.workload.name, r.to_json()))),
        ),
    ]);
    if args.trace {
        write_out(benchmark_dir, "result_trace.json", &doc)?;
        write_out(
            benchmark_dir,
            "trace.json",
            &Json::obj([("spans", tracer.to_json())]),
        )?;
    } else {
        write_out(benchmark_dir, "result.json", &doc)?;
    }
    if args.bless {
        let run: Vec<(&Workload, &[Cell])> =
            reports.iter().map(|r| (r.workload, r.reference)).collect();
        pins::bless(&args.expected, args.seed, &run)?;
        eprintln!("blessed {}", args.expected.display());
    }
    if args.workload.is_some() {
        println!("{}", reports[0].result_line());
    }
    Ok(reports
        .iter()
        .all(|r| r.ops.failed == 0 && r.ops.attempted > 0))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
