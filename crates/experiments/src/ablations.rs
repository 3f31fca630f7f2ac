//! Ablation studies beyond the paper's figures.
//!
//! These quantify the design choices DESIGN.md calls out:
//!
//! * MAFIC vs the proportional baseline (the motivating comparison),
//!   read off the probe-timer run's 2× column, which carries the
//!   baseline beside the default scenario,
//! * probe timer multiplier (1×, 2×, 4× RTT; a plot row of the panel
//!   table),
//!
//! both drawn from `figures::Sweep::Timer`, and two that run no
//! scenario:
//!
//! * hashed vs full flow labels (memory and collision cost),
//! * LogLog precision vs traffic-matrix accuracy.

use crate::figure::FigureData;
use crate::sweep::SweepSeries;
use mafic::LabelMode;
use mafic_loglog::{LogLog, Precision};

/// MAFIC vs proportional baseline across the paper's metrics: one
/// column per series of the probe-timer run at its 2× (paper) point.
/// The timer curves' series has the empty label; it is MAFIC's.
pub(crate) fn policy_comparison(sweeps: &[SweepSeries]) -> String {
    let mut fig = FigureData::new(
        "Ablation A",
        "MAFIC vs proportional dropping (the [2] baseline)",
        "metric index (1=alpha 2=theta_n 3=theta_p 4=Lr 5=beta)",
        "percent",
    );
    for s in sweeps {
        let label = if s.label.is_empty() {
            "MAFIC"
        } else {
            &s.label
        };
        for report in s.points.iter().filter(|p| p.x == 2.0).map(|p| &p.report) {
            fig.push_series(
                label,
                vec![
                    (1.0, report.accuracy_pct),
                    (2.0, report.false_negative_pct),
                    (3.0, report.false_positive_pct),
                    (4.0, report.legit_drop_pct),
                    (5.0, report.traffic_reduction_pct),
                ],
            );
        }
    }
    fig.to_string()
}

/// Hashed vs full flow labels — modeled router table memory.
///
/// Since the interned-FlowId refactor, classification state is keyed by
/// exact dense ids in *both* modes, so hashed-label collisions can no
/// longer merge two flows' verdicts (a strict improvement over the
/// paper's hashed tables; the old behavioral comparison would now chart
/// two identical runs). What survives of the paper's trade-off is the
/// storage cost of the label a router keeps per table entry for
/// reporting: 8 bytes hashed vs 12 bytes full. This ablation charts the
/// modeled resident memory of a populated SFT/NFT/PDT set under each
/// label size, across table occupancy.
#[must_use]
pub(crate) fn label_mode() -> FigureData {
    use mafic::{FlowTables, PdtReason, SftEntry};
    use mafic_netsim::{Addr, FlowId, FlowKey, SimDuration, SimTime};

    let mut fig = FigureData::new(
        "Ablation C",
        "Hashed vs full flow labels (modeled table memory)",
        "resident flows",
        "table bytes",
    );
    let occupancies = [256usize, 1024, 4096, 16384, 65536];
    let label_bytes = |mode: LabelMode| mode.stored_bytes();
    struct ModeSeries {
        label: &'static str,
        mode: LabelMode,
        points: Vec<(f64, f64)>,
    }
    let mut series = [
        ModeSeries {
            label: "hashed",
            mode: LabelMode::Hashed,
            points: Vec::new(),
        },
        ModeSeries {
            label: "full",
            mode: LabelMode::Full,
            points: Vec::new(),
        },
    ];
    for &n in &occupancies {
        let mut tables = FlowTables::new(n, n, n);
        for i in 0..n {
            let id = FlowId::from_index(i);
            let key = FlowKey::new(Addr::new(i as u32), Addr::new(2), 80, 80);
            match i % 3 {
                0 => tables.sft_insert(
                    id,
                    SftEntry {
                        key,
                        probe_started: SimTime::ZERO,
                        baseline_rate: 0.0,
                        rtt_estimate: SimDuration::from_millis(50),
                        deadline: SimTime::ZERO + SimDuration::from_millis(100),
                        arrivals_since_probe: 0,
                    },
                ),
                1 => tables.nft_insert(id, SimTime::ZERO),
                _ => tables.pdt_insert(id, PdtReason::Unresponsive),
            }
        }
        for s in &mut series {
            s.points
                .push((n as f64, tables.approx_bytes(label_bytes(s.mode)) as f64));
        }
    }
    for s in series {
        fig.push_series(s.label, s.points);
    }
    fig
}

/// LogLog precision vs cardinality estimation error (pure sketch study —
/// the memory/accuracy trade-off behind the pushback traffic matrix).
#[must_use]
pub(crate) fn sketch_precision() -> FigureData {
    let mut fig = FigureData::new(
        "Ablation D",
        "LogLog precision vs estimation error (50k distinct items)",
        "registers (bytes)",
        "relative error (%)",
    );
    let truth = 50_000u64;
    let mut points = Vec::new();
    for p in Precision::all() {
        let mut sketch = LogLog::new(p);
        for i in 0..truth {
            sketch.insert_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        let err = (sketch.estimate() - truth as f64).abs() / truth as f64 * 100.0;
        points.push((p.registers() as f64, err));
    }
    fig.push_series("LogLog", points);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepPoint;
    use mafic_metrics::{ControlPlaneReport, MetricsReport};

    #[test]
    fn policy_comparison_reads_each_series_at_2x_only() {
        // Metric k of a point reads `base + k - 1`, so every cell names
        // the point and the metric it came from.
        let point = |x: f64, base: f64| SweepPoint {
            x,
            report: MetricsReport {
                accuracy_pct: base,
                false_negative_pct: base + 1.0,
                false_positive_pct: base + 2.0,
                legit_drop_pct: base + 3.0,
                traffic_reduction_pct: base + 4.0,
                ..MetricsReport::default()
            },
            control: ControlPlaneReport::default(),
            policy_costs: Vec::new(),
        };
        let sweeps = [
            SweepSeries {
                label: String::new(),
                points: vec![point(1.0, 70.0), point(2.0, 10.0), point(4.0, 80.0)],
            },
            SweepSeries {
                label: "proportional".to_string(),
                points: vec![point(2.0, 40.0)],
            },
        ];
        let text = policy_comparison(&sweeps);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            3 + 5,
            "title, y label, header, five metrics:\n{text}"
        );
        assert!(
            lines[2].ends_with("          MAFIC   proportional"),
            "{text}"
        );
        for (k, row) in lines[3..].iter().enumerate() {
            let cells: Vec<f64> = row
                .split_whitespace()
                .map(|c| c.parse().expect("numeric cell"))
                .collect();
            let k = k as f64;
            assert_eq!(
                cells,
                vec![k + 1.0, 10.0 + k, 40.0 + k],
                "metric {}",
                k + 1.0
            );
        }
    }

    #[test]
    fn sketch_precision_error_shrinks_with_registers() {
        let fig = sketch_precision();
        let points = &fig.series[0].points;
        assert_eq!(points.len(), Precision::all().len());
        // Error at the largest precision must undercut the smallest.
        let first = points.first().unwrap().1;
        let last = points.last().unwrap().1;
        assert!(
            last < first,
            "error did not shrink: {first:.2}% -> {last:.2}%"
        );
    }
}
