//! Adversary configuration — the attacker-side parameter surface.

/// Which closed-loop strategy drives the controller's retargeting.
///
/// Pausing a cohort scales the survivors up toward the open-loop
/// baseline's aggregate nominal rate (the crate docs' equal-budget
/// contract). Source rotation holds that rate only when its cohort count
/// divides the source count; otherwise its turns alternate above and
/// below it (see [`StrategyKind::SourceRotation`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyKind {
    /// Churn the botnet's active source cohort faster than the
    /// defense's lease expiry: a paused cohort stops feeding the
    /// upstream meters, the defense stands down and flushes, and the
    /// cohort returns to a clean slate before re-detection completes.
    ///
    /// When `period_intervals` is *not* shorter than the published
    /// lease (the coordinator's `HOLD_INTERVALS`), rotation cannot
    /// outrun the soft state and the strategy's own best response is to
    /// not rotate at all — it emits no directives and the run is
    /// behaviorally identical to the open-loop baseline.
    ///
    /// Each active source sends at `cohorts × nominal`, which breaks
    /// the equal budget when the cohorts are uneven: 5 sources in 2
    /// cohorts send 3 × 2000 = 6000, then 2 × 2000 = 4000 milli-units,
    /// against the baseline's 5000.
    SourceRotation {
        /// Monitor intervals between cohort switches.
        period_intervals: u32,
        /// Fraction of sources active at once, in `(0, 1]`; the cohort
        /// count is `round(1 / active_fraction)`.
        active_fraction: f64,
    },
    /// Hold the aggregate just under the attestation floor: on
    /// observing engagement-level loss, step every source's rate down
    /// toward the floor so upstream boundary meters never corroborate
    /// a flood-scale claim; step back up once the loss subsides.
    AttestationShaping {
        /// Per-interval rate step, in thousandths of the nominal rate.
        step_milli: u32,
        /// Lowest rate the shaping will hold, in thousandths.
        floor_milli: u32,
    },
    /// Period-lock pulses to the coordinator's K-interval hysteresis:
    /// transmit boosted for `K - 1` intervals, then go dark for one —
    /// the dip resets the escalation counter (the coordinator's
    /// `TRIGGER_INTERVALS` consecutive hot intervals are required), so
    /// upstream escalation never fires.
    PulseTuning {
        /// Active-phase rate in thousandths of nominal. `0` derives the
        /// equal-budget boost `1000 × K / (K - 1)` from the published
        /// hysteresis window.
        boost_milli: u32,
    },
    /// Rotate the whole flood across sibling stub domains: each period
    /// only one stub's sources transmit (each at `n / |stub's sources|`
    /// × nominal, exactly the full budget), so
    /// every upstream trust ledger keeps paying fresh install costs for
    /// a different requester — per-target install budgets dilute.
    CarpetBombing {
        /// Monitor intervals between stub switches.
        period_intervals: u32,
    },
}

impl StrategyKind {
    /// Stable display label (figure legends, ledger components).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::SourceRotation { .. } => "rotation",
            StrategyKind::AttestationShaping { .. } => "attestation",
            StrategyKind::PulseTuning { .. } => "pulse",
            StrategyKind::CarpetBombing { .. } => "carpet",
        }
    }

    /// Snapshot discriminant — a restored controller must carry the
    /// same strategy shape it was captured with.
    #[must_use]
    pub(crate) fn tag(self) -> u8 {
        match self {
            StrategyKind::SourceRotation { .. } => 0,
            StrategyKind::AttestationShaping { .. } => 1,
            StrategyKind::PulseTuning { .. } => 2,
            StrategyKind::CarpetBombing { .. } => 3,
        }
    }
}

/// Full description of one adaptive adversary: the strategy it runs.
///
/// The protocol constants the strategies read (the defense's lease
/// length and escalation hysteresis window) are *public* defense
/// parameters — the published defaults of the pushback configuration —
/// not leaked runtime state, so they are constants of this crate; see
/// the crate-level observability-boundary discussion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversarySpec {
    /// The closed-loop strategy to run.
    pub strategy: StrategyKind,
}

impl AdversarySpec {
    /// An [`AdversarySpec`] running `strategy`.
    #[must_use]
    pub fn with_strategy(strategy: StrategyKind) -> Self {
        AdversarySpec { strategy }
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        match self.strategy {
            StrategyKind::SourceRotation {
                period_intervals,
                active_fraction,
            } => {
                if period_intervals == 0 {
                    return Err("SourceRotation period_intervals must be >= 1".into());
                }
                if !(active_fraction > 0.0 && active_fraction <= 1.0) {
                    return Err(format!(
                        "SourceRotation active_fraction must be in (0, 1], got {active_fraction}"
                    ));
                }
            }
            StrategyKind::AttestationShaping {
                step_milli,
                floor_milli,
            } => {
                if step_milli == 0 {
                    return Err("AttestationShaping step_milli must be >= 1".into());
                }
                if floor_milli == 0 || floor_milli > 1000 {
                    return Err(format!(
                        "AttestationShaping floor_milli must be in [1, 1000], got {floor_milli}"
                    ));
                }
            }
            StrategyKind::PulseTuning { boost_milli } => {
                if boost_milli != 0 && boost_milli < 1000 {
                    return Err(format!(
                        "PulseTuning boost_milli must be 0 (derive) or >= 1000, got {boost_milli}"
                    ));
                }
            }
            StrategyKind::CarpetBombing { period_intervals } => {
                if period_intervals == 0 {
                    return Err("CarpetBombing period_intervals must be >= 1".into());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_match_published_constants() {
        let rotation = StrategyKind::SourceRotation {
            period_intervals: 4,
            active_fraction: 0.5,
        };
        assert!(AdversarySpec::with_strategy(rotation).validate().is_ok());
        // The coordinator's `HOLD_INTERVALS` and `TRIGGER_INTERVALS`.
        assert_eq!(crate::strategies::LEASE_INTERVALS, 12);
        assert_eq!(crate::strategies::TRIGGER_INTERVALS, 4);
    }

    #[test]
    fn labels_and_tags_are_distinct() {
        let kinds = [
            StrategyKind::SourceRotation {
                period_intervals: 4,
                active_fraction: 0.5,
            },
            StrategyKind::AttestationShaping {
                step_milli: 200,
                floor_milli: 200,
            },
            StrategyKind::PulseTuning { boost_milli: 0 },
            StrategyKind::CarpetBombing {
                period_intervals: 4,
            },
        ];
        for (i, a) in kinds.iter().enumerate() {
            for (j, b) in kinds.iter().enumerate() {
                if i != j {
                    assert_ne!(a.label(), b.label());
                    assert_ne!(a.tag(), b.tag());
                }
            }
        }
    }

    #[test]
    fn validation_catches_bad_specs() {
        for (label, bad) in [
            (
                "zero rotation period",
                AdversarySpec::with_strategy(StrategyKind::SourceRotation {
                    period_intervals: 0,
                    active_fraction: 0.5,
                }),
            ),
            (
                "rotation fraction above 1",
                AdversarySpec::with_strategy(StrategyKind::SourceRotation {
                    period_intervals: 4,
                    active_fraction: 1.5,
                }),
            ),
            (
                "zero shaping step",
                AdversarySpec::with_strategy(StrategyKind::AttestationShaping {
                    step_milli: 0,
                    floor_milli: 200,
                }),
            ),
            (
                "shaping floor above nominal",
                AdversarySpec::with_strategy(StrategyKind::AttestationShaping {
                    step_milli: 200,
                    floor_milli: 1500,
                }),
            ),
            (
                "pulse boost below nominal",
                AdversarySpec::with_strategy(StrategyKind::PulseTuning { boost_milli: 500 }),
            ),
            (
                "zero carpet period",
                AdversarySpec::with_strategy(StrategyKind::CarpetBombing {
                    period_intervals: 0,
                }),
            ),
        ] {
            assert!(bad.validate().is_err(), "{label} must be rejected");
        }
    }
}
