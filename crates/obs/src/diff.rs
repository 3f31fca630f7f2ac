//! The ledger differ: find the first diverging interval and component.

use crate::ledger::RunLedger;
use std::fmt;

/// What the differ found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// Every shared field matched and both ledgers have the same length.
    Identical,
    /// The ledgers disagree structurally (different component or counter
    /// name sets) — interval comparison is meaningless.
    Structural(String),
    /// The first interval at which any component's chained hash (or any
    /// counter) disagrees.
    FirstDivergence {
        /// Zero-based interval index.
        interval: u64,
        /// Simulation nanos at the end of that interval (left ledger).
        at_nanos: u64,
        /// The first diverging component label (or `counter:<name>`).
        component: String,
        /// Left ledger's chained hash (or counter value).
        left: u64,
        /// Right ledger's chained hash (or counter value).
        right: u64,
        /// Human-readable counter deltas at the diverging interval.
        counter_deltas: Vec<String>,
    },
    /// All shared intervals match but one ledger has more of them.
    Truncated {
        /// Interval count of the left ledger.
        left_intervals: u64,
        /// Interval count of the right ledger.
        right_intervals: u64,
    },
}

/// A full diff result: non-fatal header notes plus the finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// Header-field mismatches (seed, fingerprint, versions). These are
    /// notes, not findings: a perturbed-seed pair *should* still get its
    /// first diverging interval named.
    pub header_notes: Vec<String>,
    /// The finding.
    pub finding: Divergence,
}

impl DivergenceReport {
    /// True if the ledgers were identical (header notes may still be
    /// present, e.g. differing worker counts, which are informational).
    #[must_use]
    pub fn is_identical(&self) -> bool {
        matches!(self.finding, Divergence::Identical)
    }
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for note in &self.header_notes {
            writeln!(f, "note: {note}")?;
        }
        match &self.finding {
            Divergence::Identical => writeln!(f, "ledgers identical"),
            Divergence::Structural(why) => writeln!(f, "structural divergence: {why}"),
            Divergence::FirstDivergence {
                interval,
                at_nanos,
                component,
                left,
                right,
                counter_deltas,
            } => {
                writeln!(
                    f,
                    "first divergence: interval {interval} (t={:.3}s), component {component}",
                    *at_nanos as f64 / 1e9
                )?;
                writeln!(f, "  left  {left:016x}")?;
                writeln!(f, "  right {right:016x}")?;
                for delta in counter_deltas {
                    writeln!(f, "  counter {delta}")?;
                }
                Ok(())
            }
            Divergence::Truncated {
                left_intervals,
                right_intervals,
            } => writeln!(
                f,
                "truncated: shared intervals identical, but left has {left_intervals} \
                 intervals and right has {right_intervals}"
            ),
        }
    }
}

/// Compares two ledgers and reports the first diverging interval and
/// component.
///
/// Header mismatches (seed, spec fingerprint, versions) are reported as
/// notes and never abort the interval walk — a deliberately perturbed
/// pair is exactly the case where naming the first diverging interval
/// matters most. The `workers` field is informational and not compared:
/// `MAFIC_JOBS=1` and `MAFIC_JOBS=4` runs of the same spec must diff
/// clean.
#[must_use]
pub fn diff_ledgers(left: &RunLedger, right: &RunLedger) -> DivergenceReport {
    let mut notes = Vec::new();
    if left.header.ledger_version != right.header.ledger_version {
        notes.push(format!(
            "ledger versions differ: {} vs {}",
            left.header.ledger_version, right.header.ledger_version
        ));
    }
    if left.header.crate_version != right.header.crate_version {
        notes.push(format!(
            "crate versions differ: {} vs {}",
            left.header.crate_version, right.header.crate_version
        ));
    }
    if left.header.seed != right.header.seed {
        notes.push(format!(
            "seeds differ: {} vs {}",
            left.header.seed, right.header.seed
        ));
    }
    if left.header.spec_fingerprint != right.header.spec_fingerprint {
        notes.push(format!(
            "spec fingerprints differ: {:016x} vs {:016x}",
            left.header.spec_fingerprint, right.header.spec_fingerprint
        ));
    }

    if left.components != right.components {
        return DivergenceReport {
            header_notes: notes,
            finding: Divergence::Structural(format!(
                "component sets differ: {:?} vs {:?}",
                left.components, right.components
            )),
        };
    }
    if left.counters != right.counters {
        return DivergenceReport {
            header_notes: notes,
            finding: Divergence::Structural(format!(
                "counter sets differ: {:?} vs {:?}",
                left.counters, right.counters
            )),
        };
    }

    for (l, r) in left.intervals.iter().zip(&right.intervals) {
        let mut first: Option<(String, u64, u64)> = None;
        if l.at_nanos != r.at_nanos {
            first = Some(("interval-clock".to_string(), l.at_nanos, r.at_nanos));
        }
        if first.is_none() {
            for (i, (lh, rh)) in l.hashes.iter().zip(&r.hashes).enumerate() {
                if lh != rh {
                    first = Some((left.components[i].clone(), *lh, *rh));
                    break;
                }
            }
        }
        if first.is_none() {
            for (i, (lc, rc)) in l.counters.iter().zip(&r.counters).enumerate() {
                if lc != rc {
                    first = Some((format!("counter:{}", left.counters[i]), *lc, *rc));
                    break;
                }
            }
        }
        if let Some((component, lv, rv)) = first {
            let counter_deltas = left
                .counters
                .iter()
                .zip(l.counters.iter().zip(&r.counters))
                .filter(|(_, (lc, rc))| lc != rc)
                .map(|(name, (lc, rc))| format!("{name}: {lc} vs {rc}"))
                .collect();
            return DivergenceReport {
                header_notes: notes,
                finding: Divergence::FirstDivergence {
                    interval: l.index,
                    at_nanos: l.at_nanos,
                    component,
                    left: lv,
                    right: rv,
                    counter_deltas,
                },
            };
        }
    }

    if left.intervals.len() != right.intervals.len() {
        return DivergenceReport {
            header_notes: notes,
            finding: Divergence::Truncated {
                left_intervals: left.intervals.len() as u64,
                right_intervals: right.intervals.len() as u64,
            },
        };
    }

    DivergenceReport {
        header_notes: notes,
        finding: Divergence::Identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{IntervalProbe, LedgerBuilder, LedgerHeader};
    use crate::StateWrite as _;

    fn build(seed: u64, per_interval: &[&[(&str, u64)]], counters: &[&[(&str, u64)]]) -> RunLedger {
        let mut b = LedgerBuilder::new(LedgerHeader {
            ledger_version: 0,
            crate_version: "0.1.0".into(),
            seed,
            spec_fingerprint: 0xfeed,
            workers: 0,
        });
        for (i, comps) in per_interval.iter().enumerate() {
            let mut p = IntervalProbe::new();
            p.batch(|b| {
                for &(name, v) in comps.iter() {
                    b.component(name, |h| h.write_u64(v));
                }
            });
            for &(name, v) in counters[i].iter() {
                p.counter(name, v);
            }
            b.record_interval((i as u64 + 1) * 100_000_000, &p);
        }
        b.finish(Vec::new())
    }

    #[test]
    fn identical_ledgers_have_no_finding() {
        let a = build(1, &[&[("x", 1)], &[("x", 2)]], &[&[("c", 1)], &[("c", 2)]]);
        let b = build(1, &[&[("x", 1)], &[("x", 2)]], &[&[("c", 1)], &[("c", 2)]]);
        let report = diff_ledgers(&a, &b);
        assert!(report.is_identical());
        assert!(report.header_notes.is_empty());
    }

    #[test]
    fn first_diverging_interval_and_component_are_named() {
        let a = build(
            1,
            &[&[("x", 1), ("y", 1)], &[("x", 2), ("y", 2)]],
            &[&[], &[]],
        );
        let b = build(
            1,
            &[&[("x", 1), ("y", 1)], &[("x", 2), ("y", 9)]],
            &[&[], &[]],
        );
        let report = diff_ledgers(&a, &b);
        match report.finding {
            Divergence::FirstDivergence {
                interval,
                component,
                ..
            } => {
                assert_eq!(interval, 1);
                assert_eq!(component, "y");
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn perturbed_seed_notes_header_and_still_walks_intervals() {
        let a = build(1, &[&[("x", 1)]], &[&[]]);
        let b = build(2, &[&[("x", 5)]], &[&[]]);
        let report = diff_ledgers(&a, &b);
        assert!(report.header_notes.iter().any(|n| n.contains("seeds")));
        assert!(matches!(
            report.finding,
            Divergence::FirstDivergence { interval: 0, .. }
        ));
    }

    #[test]
    fn truncation_is_reported_when_prefix_matches() {
        let a = build(1, &[&[("x", 1)], &[("x", 2)]], &[&[], &[]]);
        let b = build(1, &[&[("x", 1)]], &[&[]]);
        let report = diff_ledgers(&a, &b);
        assert_eq!(
            report.finding,
            Divergence::Truncated {
                left_intervals: 2,
                right_intervals: 1
            }
        );
    }

    #[test]
    fn counter_only_divergence_is_caught() {
        let a = build(1, &[&[("x", 1)]], &[&[("drops", 3)]]);
        let b = build(1, &[&[("x", 1)]], &[&[("drops", 4)]]);
        let report = diff_ledgers(&a, &b);
        match report.finding {
            Divergence::FirstDivergence {
                ref component,
                left,
                right,
                ..
            } => {
                assert_eq!(component, "counter:drops");
                assert_eq!((left, right), (3, 4));
            }
            ref other => panic!("expected counter divergence, got {other:?}"),
        }
    }

    #[test]
    fn display_names_interval_and_component() {
        let a = build(3, &[&[("dom3/coord", 1)]], &[&[]]);
        let b = build(3, &[&[("dom3/coord", 2)]], &[&[]]);
        let text = diff_ledgers(&a, &b).to_string();
        assert!(text.contains("interval 0"), "{text}");
        assert!(text.contains("dom3/coord"), "{text}");
    }
}
