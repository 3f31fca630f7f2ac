//! `--compare a.json b.json`: the agreement check between two result
//! files, `a` the baseline and `b` the candidate.
//!
//! Per workload and end-to-end metric it prints both medians, the
//! delta, the bound and a verdict. A metric whose spread between
//! repetitions exceeds its bound is `unresolved`, not `ok`, unless
//! every repetition of `b` reads better than every repetition of `a`
//! (choosing-metrics section 6.5). Digests and exact counters must be
//! identical. Per-layer metrics carry no bound and are listed only.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// One side of a comparison: the reported value and, when the metric is
/// sampled, the samples behind it.
pub struct Side<'a> {
    pub value: f64,
    pub samples: &'a [f64],
}

impl Side<'_> {
    fn spread(&self) -> f64 {
        if self.samples.len() < 2 {
            0.0
        } else {
            Summary::of(self.samples).spread()
        }
    }
}

/// Share of `a` by which `b` is worse (negative when better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    delta / a.abs()
}

pub fn verdict(a: &Side, b: &Side, higher_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let separated = !a.samples.is_empty()
        && !b.samples.is_empty()
        && b.samples
            .iter()
            .all(|&x| a.samples.iter().all(|&y| better(x, y)));
    if a.spread().max(b.spread()) > bound && !separated {
        Verdict::Unresolved
    } else if worse_by(a.value, b.value, higher_is_better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn samples(metric: &Json) -> Vec<f64> {
    metric
        .get("samples")
        .and_then(Json::as_arr)
        .map_or(Vec::new(), |s| s.iter().filter_map(Json::as_f64).collect())
}

/// Prints the comparison; `Ok(true)` when every pair agrees.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .map_or(Vec::new(), |w| w.fields().to_vec())
    };
    let mut agree = true;
    println!(
        "{:<22} {:<34} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "delta", "bound"
    );
    for (name, wa) in workloads(&a) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(&name)) else {
            println!("{name:<22} missing from {path_b}");
            agree = false;
            continue;
        };
        let metric = |w: &Json, m: &str| w.get("metrics").and_then(|ms| ms.get(m)).cloned();
        for e in &END_TO_END {
            let (Some(ma), Some(mb)) = (metric(&wa, e.name), metric(wb, e.name)) else {
                continue;
            };
            let value = |m: &Json| m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let (sa, sb) = (samples(&ma), samples(&mb));
            let side_a = Side {
                value: value(&ma),
                samples: &sa,
            };
            let side_b = Side {
                value: value(&mb),
                samples: &sb,
            };
            let v = verdict(&side_a, &side_b, e.higher_is_better, e.bound);
            agree &= v == Verdict::Ok;
            println!(
                "{name:<22} {:<34} {:>14.6} {:>14.6} {:>+7.2}% {:>5.0}%  {}",
                format!("{} [{}]", e.name, e.unit),
                side_a.value,
                side_b.value,
                -worse_by(side_a.value, side_b.value, e.higher_is_better) * 100.0,
                e.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for exact in ["digest", "exact"] {
            let same = wa.get(exact) == wb.get(exact);
            agree &= same;
            println!(
                "{name:<22} {exact:<34} {:>46}",
                if same { "identical" } else { "DIFFERS" }
            );
        }
        // Per-layer metrics (traced result files): listed, not judged.
        for (layer_metric, ma) in wa.get("layers").map_or(&[][..], Json::fields) {
            let Some(mb) = wb.get("layers").and_then(|l| l.get(layer_metric)) else {
                continue;
            };
            let (va, vb) = (
                ma.as_f64().unwrap_or(f64::NAN),
                mb.as_f64().unwrap_or(f64::NAN),
            );
            let delta = if va == vb {
                0.0
            } else {
                (vb - va) / va.abs() * 100.0
            };
            println!("{name:<22} {layer_metric:<34} {va:>14.4} {vb:>14.4} {delta:>+7.2}%");
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(samples: &[f64]) -> Side<'_> {
        Side {
            value: crate::stats::median(samples),
            samples,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound either way: ok.
        let slightly_lower = [97.0, 98.0, 96.0, 97.5, 96.5];
        assert_eq!(
            verdict(&side(&steady_a), &side(&slightly_lower), true, 0.08),
            Verdict::Ok
        );
        // 15 % lower throughput, tight spreads: regressed.
        let lower = [85.0, 86.0, 84.0, 85.5, 84.5];
        assert_eq!(
            verdict(&side(&steady_a), &side(&lower), true, 0.08),
            Verdict::Regressed
        );
        // The same samples read as a cost (lower is better): an improvement.
        assert_eq!(
            verdict(&side(&steady_a), &side(&lower), false, 0.08),
            Verdict::Ok
        );
        // Spread wider than the bound and overlapping: unresolved, even
        // though the medians agree.
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(
            verdict(&side(&steady_a), &side(&noisy), true, 0.08),
            Verdict::Unresolved
        );
        // Wide spread but every run of b beats every run of a: resolved.
        let noisy_but_faster = [150.0, 200.0, 170.0, 260.0, 140.0];
        assert_eq!(
            verdict(&side(&steady_a), &side(&noisy_but_faster), true, 0.08),
            Verdict::Ok
        );
        // Exact metrics carry no samples: the bound alone decides.
        let exact = |value| Side {
            value,
            samples: &[],
        };
        assert_eq!(
            verdict(&exact(10.0), &exact(10.05), false, 0.01),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&exact(10.0), &exact(10.2), false, 0.01),
            Verdict::Regressed
        );
    }

    #[test]
    fn worse_by_is_signed_by_direction() {
        assert!((worse_by(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, false) + 0.10).abs() < 1e-12);
    }
}
