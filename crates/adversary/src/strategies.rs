//! The [`AttackStrategy`] trait and the four built-in closed-loop
//! strategies.
//!
//! A strategy is a deterministic state machine driven once per monitor
//! interval by the [`AdversaryController`](crate::AdversaryController).
//! It sees only the [`StrategyCtx`] — per-source deltas, the aggregate
//! loss rate, the controller's seeded RNG, and the public protocol
//! constants — and answers with directives retargeting the attacker's
//! own sources. Strategies hash into the run ledger and serialize into
//! checkpoints exactly like defender components.

use mafic_obs::{SnapError, SnapReader, StateWrite};
use rand::rngs::SmallRng;

use crate::controller::{AdversaryDirective, SourceObs};
use crate::spec::{AdversarySpec, StrategyKind};

/// Nominal per-source rate scale, in thousandths (the open-loop level).
pub(crate) const NOMINAL_MILLI: u32 = 1000;

/// Everything a strategy may legally observe in one monitor interval.
///
/// This struct *is* the observability boundary: per-source send/ack
/// deltas measured at the attacker's own nodes, an aggregate loss rate
/// derived from them, the controller's seeded RNG, and the public
/// [`AdversarySpec`] constants. Nothing here comes from defender
/// runtime state.
pub struct StrategyCtx<'a> {
    /// Zero-based monitor interval index (0 = first observation).
    pub interval: u64,
    /// Per-source observations for the interval just ended, in stable
    /// source order.
    pub sources: &'a [SourceObs],
    /// Aggregate loss rate over all sources for the interval, in
    /// `[0, 1]`; `0.0` when nothing was sent.
    pub loss_rate: f64,
    /// The controller's seeded RNG — the only randomness a strategy may
    /// use (determinism rule 5).
    pub rng: &'a mut SmallRng,
    /// Public protocol constants and strategy parameters.
    pub spec: &'a AdversarySpec,
}

/// A closed-loop attack strategy.
///
/// Implementations must be pure functions of their own state, the
/// [`StrategyCtx`], and the seeded RNG: no wall-clock, no global state,
/// no defender internals. The `write_state`/`read_state` pair keeps the
/// strategy inside the run-ledger and checkpoint contracts.
pub trait AttackStrategy: std::fmt::Debug {
    /// Stable label for ledger components and figure legends.
    fn label(&self) -> &'static str;

    /// Observe one monitor interval and append retargeting directives.
    fn on_interval(&mut self, ctx: &mut StrategyCtx<'_>, out: &mut Vec<AdversaryDirective>);

    /// Writes the strategy's decision state — the one walk behind both
    /// its ledger hash and its checkpoint payload (the
    /// [`mafic_obs::State`] contract; `dyn` because strategies are boxed
    /// and the walk is a handful of words per monitor interval).
    fn write_state(&self, w: &mut dyn StateWrite);

    /// Restores the strategy's decision state.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncated or malformed payloads.
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Builds the strategy named by `spec.strategy` for a botnet whose
/// per-source stub indices are `stubs`.
#[must_use]
pub fn build_strategy(spec: &AdversarySpec, stubs: &[u32]) -> Box<dyn AttackStrategy> {
    match spec.strategy {
        StrategyKind::SourceRotation {
            period_intervals,
            active_fraction,
        } => Box::new(SourceRotation::new(
            period_intervals,
            active_fraction,
            stubs.len(),
        )),
        StrategyKind::AttestationShaping {
            step_milli,
            floor_milli,
        } => Box::new(AttestationShaping::new(step_milli, floor_milli)),
        StrategyKind::PulseTuning { boost_milli } => Box::new(PulseTuning::new(boost_milli)),
        StrategyKind::CarpetBombing { period_intervals } => {
            Box::new(CarpetBombing::new(period_intervals, stubs))
        }
    }
}

/// Churn the active source cohort faster than the defense's lease.
///
/// Sources are partitioned round-robin into `cohorts` cohorts; only the
/// cursor cohort transmits, scaled up by the cohort count to preserve
/// the aggregate budget. A paused cohort's meters drain, the victim
/// coordinator observes subsidence and stands its filters down, and by
/// the time the cohort returns its soft state has been flushed — so the
/// defense keeps paying the full detection-and-install latency against
/// a perpetually fresh source set.
#[derive(Debug)]
struct SourceRotation {
    period_intervals: u32,
    cohorts: u32,
    n_sources: usize,
    /// Rotation only pays off when it outruns the lease; see
    /// [`StrategyKind::SourceRotation`]. Latched at construction.
    effective: bool,
    engaged: bool,
    cursor: u32,
    since_rotate: u32,
}

impl SourceRotation {
    fn new(period_intervals: u32, active_fraction: f64, n_sources: usize) -> Self {
        let cohorts = (1.0 / active_fraction).round().max(1.0) as u32;
        SourceRotation {
            period_intervals,
            cohorts,
            n_sources,
            effective: true,
            engaged: false,
            cursor: 0,
            since_rotate: 0,
        }
    }

    /// Emits directives activating cohort `cursor` and pausing all
    /// others, scaled for equal budget.
    fn retarget(&self, out: &mut Vec<AdversaryDirective>) {
        for src in 0..self.n_sources {
            let active = (src as u32) % self.cohorts == self.cursor;
            out.push(AdversaryDirective::SetActive {
                source: src,
                active,
            });
            if active {
                out.push(AdversaryDirective::SetRateScale {
                    source: src,
                    scale_milli: NOMINAL_MILLI * self.cohorts,
                });
            }
        }
    }
}

impl AttackStrategy for SourceRotation {
    fn label(&self) -> &'static str {
        "rotation"
    }

    fn on_interval(&mut self, ctx: &mut StrategyCtx<'_>, out: &mut Vec<AdversaryDirective>) {
        if !self.effective || self.cohorts < 2 || self.n_sources == 0 {
            return;
        }
        if !self.engaged {
            if ctx.loss_rate > ctx.spec.engage_loss {
                self.engaged = true;
                self.since_rotate = 0;
                self.retarget(out);
            }
            return;
        }
        self.since_rotate += 1;
        if self.since_rotate >= self.period_intervals {
            self.since_rotate = 0;
            self.cursor = (self.cursor + 1) % self.cohorts;
            self.retarget(out);
        }
    }

    fn write_state(&self, w: &mut dyn StateWrite) {
        w.write_bool(self.effective);
        w.write_bool(self.engaged);
        w.write_u32(self.cursor);
        w.write_u32(self.since_rotate);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.effective = r.read_bool()?;
        self.engaged = r.read_bool()?;
        self.cursor = r.read_u32()?;
        self.since_rotate = r.read_u32()?;
        Ok(())
    }
}

/// Hold the aggregate just under the attestation floor.
///
/// On engagement-level loss the shaper steps every source's rate down
/// toward `floor_milli`; upstream boundary meters then see a stream too
/// small to corroborate a flood-scale claim, so attestation-gated
/// escalation starves. When loss falls below half the engage threshold
/// the shaper probes back up toward nominal.
#[derive(Debug)]
struct AttestationShaping {
    step_milli: u32,
    floor_milli: u32,
    scale_milli: u32,
}

impl AttestationShaping {
    fn new(step_milli: u32, floor_milli: u32) -> Self {
        AttestationShaping {
            step_milli,
            floor_milli,
            scale_milli: NOMINAL_MILLI,
        }
    }
}

impl AttackStrategy for AttestationShaping {
    fn label(&self) -> &'static str {
        "attestation"
    }

    fn on_interval(&mut self, ctx: &mut StrategyCtx<'_>, out: &mut Vec<AdversaryDirective>) {
        let prev = self.scale_milli;
        if ctx.loss_rate > ctx.spec.engage_loss {
            self.scale_milli = self
                .scale_milli
                .saturating_sub(self.step_milli)
                .max(self.floor_milli);
        } else if ctx.loss_rate < ctx.spec.engage_loss * 0.5 && self.scale_milli < NOMINAL_MILLI {
            self.scale_milli = (self.scale_milli + self.step_milli).min(NOMINAL_MILLI);
        }
        if self.scale_milli != prev {
            for src in 0..ctx.sources.len() {
                out.push(AdversaryDirective::SetRateScale {
                    source: src,
                    scale_milli: self.scale_milli,
                });
            }
        }
    }

    fn write_state(&self, w: &mut dyn StateWrite) {
        w.write_u32(self.scale_milli);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.scale_milli = r.read_u32()?;
        Ok(())
    }
}

/// Period-lock pulses to the coordinator's K-interval hysteresis.
///
/// Once engaged the botnet transmits boosted for `K - 1` intervals and
/// goes dark for one: the dark interval resets the coordinator's
/// consecutive-hot counter, so the K-in-a-row condition for escalation
/// is never met while the time-averaged rate matches the open-loop
/// budget.
#[derive(Debug)]
struct PulseTuning {
    boost_milli: u32,
    engaged: bool,
    phase: u32,
}

impl PulseTuning {
    fn new(boost_milli: u32) -> Self {
        PulseTuning {
            boost_milli,
            engaged: false,
            phase: 0,
        }
    }

    /// Equal-budget active-phase boost for a K-interval period with one
    /// dark phase.
    fn boost(&self, k: u32) -> u32 {
        if self.boost_milli != 0 {
            self.boost_milli
        } else {
            NOMINAL_MILLI * k / (k - 1).max(1)
        }
    }
}

impl AttackStrategy for PulseTuning {
    fn label(&self) -> &'static str {
        "pulse"
    }

    fn on_interval(&mut self, ctx: &mut StrategyCtx<'_>, out: &mut Vec<AdversaryDirective>) {
        let k = ctx.spec.trigger_intervals.max(2);
        if !self.engaged {
            if ctx.loss_rate > ctx.spec.engage_loss {
                self.engaged = true;
                self.phase = 0;
            } else {
                return;
            }
        } else {
            self.phase = (self.phase + 1) % k;
        }
        let dark = self.phase == k - 1;
        let boost = self.boost(k);
        for src in 0..ctx.sources.len() {
            out.push(AdversaryDirective::SetActive {
                source: src,
                active: !dark,
            });
            if !dark {
                out.push(AdversaryDirective::SetRateScale {
                    source: src,
                    scale_milli: boost,
                });
            }
        }
    }

    fn write_state(&self, w: &mut dyn StateWrite) {
        w.write_bool(self.engaged);
        w.write_u32(self.phase);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.engaged = r.read_bool()?;
        self.phase = r.read_u32()?;
        Ok(())
    }
}

/// Rotate the whole flood across sibling stub domains.
///
/// Each period only the cursor stub's sources transmit, scaled to the
/// full budget. Every upstream trust ledger then keeps paying fresh
/// install costs for a different requesting domain, diluting per-target
/// install budgets across the sibling set.
#[derive(Debug)]
struct CarpetBombing {
    period_intervals: u32,
    /// Distinct stub indices hosting at least one source, sorted.
    stubs: Vec<u32>,
    /// Per-source stub index, in stable source order.
    source_stub: Vec<u32>,
    engaged: bool,
    cursor: u32,
    since_rotate: u32,
}

impl CarpetBombing {
    fn new(period_intervals: u32, source_stub: &[u32]) -> Self {
        let mut stubs: Vec<u32> = source_stub.to_vec();
        stubs.sort_unstable();
        stubs.dedup();
        CarpetBombing {
            period_intervals,
            stubs,
            source_stub: source_stub.to_vec(),
            engaged: false,
            cursor: 0,
            since_rotate: 0,
        }
    }

    fn retarget(&self, out: &mut Vec<AdversaryDirective>) {
        let active_stub = self.stubs[self.cursor as usize % self.stubs.len()];
        let active_count = self
            .source_stub
            .iter()
            .filter(|&&s| s == active_stub)
            .count()
            .max(1);
        let scale = NOMINAL_MILLI * (self.source_stub.len() as u32) / (active_count as u32);
        for (src, &stub) in self.source_stub.iter().enumerate() {
            let active = stub == active_stub;
            out.push(AdversaryDirective::SetActive {
                source: src,
                active,
            });
            if active {
                out.push(AdversaryDirective::SetRateScale {
                    source: src,
                    scale_milli: scale,
                });
            }
        }
    }
}

impl AttackStrategy for CarpetBombing {
    fn label(&self) -> &'static str {
        "carpet"
    }

    fn on_interval(&mut self, ctx: &mut StrategyCtx<'_>, out: &mut Vec<AdversaryDirective>) {
        // A single stub leaves nothing to rotate across.
        if self.stubs.len() < 2 {
            return;
        }
        if !self.engaged {
            if ctx.loss_rate > ctx.spec.engage_loss {
                self.engaged = true;
                self.since_rotate = 0;
                self.retarget(out);
            }
            return;
        }
        self.since_rotate += 1;
        if self.since_rotate >= self.period_intervals {
            self.since_rotate = 0;
            self.cursor = (self.cursor + 1) % (self.stubs.len() as u32);
            self.retarget(out);
        }
    }

    fn write_state(&self, w: &mut dyn StateWrite) {
        w.write_bool(self.engaged);
        w.write_u32(self.cursor);
        w.write_u32(self.since_rotate);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.engaged = r.read_bool()?;
        self.cursor = r.read_u32()?;
        self.since_rotate = r.read_u32()?;
        Ok(())
    }
}

/// Marks a freshly built [`SourceRotation`] ineffective when its period
/// cannot outrun the published lease; called by the controller at
/// construction so the latch is part of deterministic init, not
/// per-interval branching.
pub(crate) fn apply_lease_gate(strategy: &mut Box<dyn AttackStrategy>, spec: &AdversarySpec) {
    if let StrategyKind::SourceRotation {
        period_intervals, ..
    } = spec.strategy
    {
        if period_intervals >= spec.lease_intervals {
            // Rebuild as a permanently idle rotation: rotating slower
            // than the lease cannot evade, so the best response is the
            // open-loop baseline (pinned byte-identical by tests).
            if let StrategyKind::SourceRotation {
                period_intervals,
                active_fraction,
            } = spec.strategy
            {
                let mut idle = SourceRotation::new(period_intervals, active_fraction, 0);
                idle.effective = false;
                *strategy = Box::new(idle);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn obs(n: usize) -> Vec<SourceObs> {
        (0..n)
            .map(|i| SourceObs {
                sent_delta: 100,
                delivered_delta: 20,
                stub_index: (i % 3) as u32,
            })
            .collect()
    }

    fn ctx_parts() -> (AdversarySpec, SmallRng) {
        (AdversarySpec::default(), SmallRng::seed_from_u64(7))
    }

    fn drive(
        strategy: &mut dyn AttackStrategy,
        spec: &AdversarySpec,
        rng: &mut SmallRng,
        sources: &[SourceObs],
        interval: u64,
        loss_rate: f64,
    ) -> Vec<AdversaryDirective> {
        let mut out = Vec::new();
        let mut ctx = StrategyCtx {
            interval,
            sources,
            loss_rate,
            rng,
            spec,
        };
        strategy.on_interval(&mut ctx, &mut out);
        out
    }

    /// Sums the nominal-scale budget implied by a directive batch over
    /// `n` sources that all start active at `NOMINAL_MILLI`.
    fn budget_after(n: usize, directives: &[AdversaryDirective]) -> u32 {
        let mut active = vec![true; n];
        let mut scale = vec![NOMINAL_MILLI; n];
        for d in directives {
            match *d {
                AdversaryDirective::SetActive { source, active: a } => active[source] = a,
                AdversaryDirective::SetRateScale {
                    source,
                    scale_milli,
                } => scale[source] = scale_milli,
            }
        }
        (0..n).map(|i| if active[i] { scale[i] } else { 0 }).sum()
    }

    #[test]
    fn rotation_engages_rotates_and_preserves_budget() {
        let (spec, mut rng) = ctx_parts();
        let sources = obs(8);
        let mut s = SourceRotation::new(2, 0.5, sources.len());
        // Quiet interval: no directives before engagement.
        assert!(drive(&mut s, &spec, &mut rng, &sources, 0, 0.1).is_empty());
        // Heavy loss engages and retargets to cohort 0.
        let first = drive(&mut s, &spec, &mut rng, &sources, 1, 0.9);
        assert!(!first.is_empty());
        assert_eq!(budget_after(sources.len(), &first), 8 * NOMINAL_MILLI);
        // One interval later: no rotation yet (period 2).
        assert!(drive(&mut s, &spec, &mut rng, &sources, 2, 0.9).is_empty());
        // Second interval: cohort advances.
        let second = drive(&mut s, &spec, &mut rng, &sources, 3, 0.9);
        assert!(!second.is_empty());
        assert_eq!(budget_after(sources.len(), &second), 8 * NOMINAL_MILLI);
        assert_ne!(first, second, "rotation must move the active cohort");
    }

    #[test]
    fn rotation_cohort_membership_is_round_robin() {
        let (spec, mut rng) = ctx_parts();
        let sources = obs(4);
        let mut s = SourceRotation::new(1, 0.5, sources.len());
        let first = drive(&mut s, &spec, &mut rng, &sources, 0, 0.9);
        // Cohort 0 of 2 = sources 0 and 2 active.
        let mut active = vec![false; 4];
        for d in &first {
            if let AdversaryDirective::SetActive { source, active: a } = *d {
                active[source] = a;
            }
        }
        assert_eq!(active, vec![true, false, true, false]);
    }

    #[test]
    fn lease_gate_disables_slow_rotation_permanently() {
        let spec = AdversarySpec {
            strategy: StrategyKind::SourceRotation {
                period_intervals: 12,
                active_fraction: 0.5,
            },
            ..AdversarySpec::default()
        };
        let mut strategy = build_strategy(&spec, &[0, 0, 1, 1]);
        apply_lease_gate(&mut strategy, &spec);
        let mut rng = SmallRng::seed_from_u64(7);
        let sources = obs(4);
        for i in 0..40 {
            let out = drive(&mut *strategy, &spec, &mut rng, &sources, i, 0.95);
            assert!(out.is_empty(), "gated rotation must never emit directives");
        }
    }

    #[test]
    fn shaping_steps_down_to_floor_then_recovers() {
        let (spec, mut rng) = ctx_parts();
        let sources = obs(3);
        let mut s = AttestationShaping::new(300, 200);
        // Three hot intervals: 1000 -> 700 -> 400 -> 200 (floored).
        for (i, want) in [(0u64, 700u32), (1, 400), (2, 200)] {
            let out = drive(&mut s, &spec, &mut rng, &sources, i, 0.9);
            assert_eq!(out.len(), sources.len());
            assert!(out.iter().all(|d| matches!(
                d,
                AdversaryDirective::SetRateScale { scale_milli, .. } if *scale_milli == want
            )));
        }
        // Still hot at the floor: no change, no directives.
        assert!(drive(&mut s, &spec, &mut rng, &sources, 3, 0.9).is_empty());
        // Loss subsides: steps back up.
        let up = drive(&mut s, &spec, &mut rng, &sources, 4, 0.1);
        assert!(up.iter().all(|d| matches!(
            d,
            AdversaryDirective::SetRateScale { scale_milli, .. } if *scale_milli == 500
        )));
    }

    #[test]
    fn pulse_goes_dark_once_per_hysteresis_window() {
        let (spec, mut rng) = ctx_parts();
        let sources = obs(2);
        let mut s = PulseTuning::new(0);
        // Engage; K = 4 so the cycle is 3 hot + 1 dark.
        let mut dark_count = 0;
        let mut hot_count = 0;
        let _ = drive(&mut s, &spec, &mut rng, &sources, 0, 0.9);
        for i in 1..=8 {
            let out = drive(&mut s, &spec, &mut rng, &sources, i, 0.9);
            let dark = out
                .iter()
                .any(|d| matches!(d, AdversaryDirective::SetActive { active: false, .. }));
            if dark {
                dark_count += 1;
            } else {
                hot_count += 1;
            }
        }
        assert_eq!(dark_count, 2, "one dark interval per 4-interval window");
        assert_eq!(hot_count, 6);
        // Equal-budget boost: 1000 * 4 / 3 = 1333.
        assert_eq!(s.boost(4), 1333);
    }

    #[test]
    fn carpet_rotates_across_stubs_with_full_budget() {
        let (spec, mut rng) = ctx_parts();
        let sources = obs(6); // stubs 0,1,2,0,1,2
        let mut s = CarpetBombing::new(1, &[0, 1, 2, 0, 1, 2]);
        let first = drive(&mut s, &spec, &mut rng, &sources, 0, 0.9);
        assert_eq!(budget_after(sources.len(), &first), 6 * NOMINAL_MILLI);
        let second = drive(&mut s, &spec, &mut rng, &sources, 1, 0.9);
        assert_ne!(first, second, "carpet must move to the next stub");
        assert_eq!(budget_after(sources.len(), &second), 6 * NOMINAL_MILLI);
    }

    #[test]
    fn carpet_single_stub_is_inert() {
        let (spec, mut rng) = ctx_parts();
        let sources = obs(4);
        let mut s = CarpetBombing::new(1, &[0, 0, 0, 0]);
        for i in 0..10 {
            assert!(drive(&mut s, &spec, &mut rng, &sources, i, 0.95).is_empty());
        }
    }

    #[test]
    fn strategies_snapshot_round_trip() {
        let (spec, mut rng) = ctx_parts();
        let sources = obs(6);
        let stubs = [0u32, 1, 2, 0, 1, 2];
        for kind in [
            StrategyKind::SourceRotation {
                period_intervals: 2,
                active_fraction: 0.5,
            },
            StrategyKind::AttestationShaping {
                step_milli: 300,
                floor_milli: 200,
            },
            StrategyKind::PulseTuning { boost_milli: 0 },
            StrategyKind::CarpetBombing {
                period_intervals: 1,
            },
        ] {
            let spec = AdversarySpec {
                strategy: kind,
                ..spec
            };
            let mut a = build_strategy(&spec, &stubs);
            // Advance through engagement plus a few intervals.
            for i in 0..5 {
                let _ = drive(&mut *a, &spec, &mut rng, &sources, i, 0.9);
            }
            let mut w = mafic_obs::SnapWriter::new();
            a.write_state(&mut w);
            let bytes = w.into_bytes();
            let mut b = build_strategy(&spec, &stubs);
            let mut r = SnapReader::new(&bytes);
            b.read_state(&mut r).expect("restore");
            assert!(r.is_empty(), "strategy payload fully consumed");
            let mut ha = mafic_obs::HashWriter::new();
            let mut hb = mafic_obs::HashWriter::new();
            a.write_state(&mut ha);
            b.write_state(&mut hb);
            assert_eq!(ha.finish(), hb.finish(), "{}", a.label());
        }
    }
}
