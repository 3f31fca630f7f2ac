//! The four built-in closed-loop strategies and the [`Strategy`] enum
//! that dispatches between them. Source rotation and carpet bombing are
//! one [`CohortRotation`] built two ways.
//!
//! A strategy is a deterministic state machine driven once per monitor
//! interval by the [`AdversaryController`](crate::AdversaryController).
//! It sees only the [`StrategyCtx`] — the source count, the aggregate
//! loss rate, and the public protocol constants — and answers with
//! directives retargeting the attacker's own sources. Strategies hash
//! into the run ledger and serialize into checkpoints exactly like
//! defender components.

use mafic_obs::{SnapError, SnapReader, State, StateWrite};

use crate::controller::AdversaryDirective;
use crate::spec::{AdversarySpec, StrategyKind};

/// Nominal per-source rate scale, in thousandths (the open-loop level).
pub(crate) const NOMINAL_MILLI: u32 = 1000;

/// The defense's published soft-state lease, in monitor intervals
/// (`mafic_pushback::HOLD_INTERVALS`).
pub(crate) const LEASE_INTERVALS: u32 = 12;

/// The defense's published escalation hysteresis window, in monitor
/// intervals (`mafic_pushback::TRIGGER_INTERVALS`). A pulse
/// needs one dark interval in it, so it is at least 2.
pub(crate) const TRIGGER_INTERVALS: u32 = 4;
const _: () = assert!(TRIGGER_INTERVALS >= 2);

/// Aggregate loss rate above which the attacker reads the defense as
/// engaged.
const ENGAGE_LOSS: f64 = 0.5;

/// Everything a strategy may legally observe in one monitor interval.
///
/// This struct and the published protocol constants above are the
/// observability boundary: the size of the attacker's own botnet and
/// the aggregate loss rate derived from the send/ack counts measured at
/// its nodes. Nothing here comes from defender runtime state.
pub(crate) struct StrategyCtx {
    /// Number of sources under control.
    pub(crate) sources: usize,
    /// Aggregate loss rate over all sources for the interval, in
    /// `[0, 1]`; `0.0` when nothing was sent.
    pub(crate) loss_rate: f64,
}

/// The strategy named by an [`AdversarySpec`]: a pure function of its
/// own state and the [`StrategyCtx`] — no wall-clock, no global state,
/// no defender internals.
#[derive(Debug)]
pub(crate) enum Strategy {
    Rotation(CohortRotation),
    Shaping(AttestationShaping),
    Pulse(PulseTuning),
    Carpet(CohortRotation),
}

impl Strategy {
    /// Builds the strategy named by `spec.strategy` for a botnet whose
    /// per-source stub indices are `stubs`.
    pub(crate) fn new(spec: &AdversarySpec, stubs: &[u32]) -> Self {
        match spec.strategy {
            StrategyKind::SourceRotation {
                period_intervals,
                active_fraction,
            } => {
                // Rotating no faster than the published lease cannot
                // evade, so the best response is the open-loop
                // baseline (pinned byte-identical by tests): a
                // permanently idle rotation, latched here at
                // construction rather than branched on per interval.
                let mut rotation =
                    CohortRotation::round_robin(period_intervals, active_fraction, stubs.len());
                rotation.effective = period_intervals < LEASE_INTERVALS;
                Strategy::Rotation(rotation)
            }
            StrategyKind::AttestationShaping {
                step_milli,
                floor_milli,
            } => Strategy::Shaping(AttestationShaping::new(step_milli, floor_milli)),
            StrategyKind::PulseTuning { boost_milli } => {
                Strategy::Pulse(PulseTuning::new(boost_milli))
            }
            StrategyKind::CarpetBombing { period_intervals } => {
                Strategy::Carpet(CohortRotation::by_stub(period_intervals, stubs))
            }
        }
    }

    /// Observes one monitor interval and appends retargeting directives.
    pub(crate) fn on_interval(&mut self, ctx: &StrategyCtx, out: &mut Vec<AdversaryDirective>) {
        match self {
            Strategy::Rotation(s) | Strategy::Carpet(s) => s.on_interval(ctx, out),
            Strategy::Shaping(s) => s.on_interval(ctx, out),
            Strategy::Pulse(s) => s.on_interval(ctx, out),
        }
    }
}

/// The strategy's decision state — the one walk behind both its ledger
/// hash and its checkpoint payload. No tag: the controller validates
/// the strategy shape against its spec.
impl State for Strategy {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        match self {
            Strategy::Rotation(s) => {
                w.write_bool(s.effective);
                s.write_turn(w);
            }
            Strategy::Shaping(s) => w.write_u32(s.scale_milli),
            Strategy::Pulse(s) => {
                w.write_bool(s.engaged);
                w.write_u32(s.phase);
            }
            Strategy::Carpet(s) => s.write_turn(w),
        }
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        match self {
            Strategy::Rotation(s) => {
                s.effective = r.read_bool()?;
                s.read_turn(r)?;
            }
            Strategy::Shaping(s) => s.scale_milli = r.read_u32()?,
            Strategy::Pulse(s) => {
                s.engaged = r.read_bool()?;
                s.phase = r.read_u32()?;
            }
            Strategy::Carpet(s) => s.read_turn(r)?,
        }
        Ok(())
    }
}

/// Rotate the transmitting cohort: once engaged, only the cursor
/// cohort's sources send, each at its cohort's rate scale, and the
/// cursor advances every `period_intervals`.
///
/// Two strategies are this one machine with different cohorts:
///
/// * **Source rotation** ([`CohortRotation::round_robin`]) churns the
///   active cohort faster than the defense's lease. A paused cohort's
///   meters drain, the victim coordinator observes subsidence and stands
///   its filters down, and by the time the cohort returns its soft state
///   has been flushed — so the defense keeps paying the full
///   detection-and-install latency against a perpetually fresh source
///   set.
/// * **Carpet bombing** ([`CohortRotation::by_stub`]) rotates the whole
///   flood across sibling stub domains. Every upstream trust ledger then
///   keeps paying fresh install costs for a different requesting domain,
///   diluting per-target install budgets across the sibling set.
#[derive(Debug)]
pub(crate) struct CohortRotation {
    period_intervals: u32,
    /// Per-source cohort index, in stable source order.
    cohort_of: Vec<u32>,
    /// Per-cohort rate scale of its active sources, in thousandths.
    scale_milli: Vec<u32>,
    /// Source rotation only pays off when it outruns the lease; see
    /// [`StrategyKind::SourceRotation`]. Latched at construction.
    effective: bool,
    engaged: bool,
    cursor: u32,
    since_rotate: u32,
}

impl CohortRotation {
    /// Source rotation: source `src` joins cohort `src % c` of
    /// `c = round(1 / active_fraction)`, and every cohort sends at
    /// `c × nominal`. That keeps the budget only when `c` divides the
    /// source count: with 5 sources in 2 cohorts, the turns send 6 and
    /// 4 nominal units against the baseline's 5.
    fn round_robin(period_intervals: u32, active_fraction: f64, n_sources: usize) -> Self {
        let cohorts = (1.0 / active_fraction).round().max(1.0) as u32;
        let cohort_of = (0..n_sources).map(|src| src as u32 % cohorts).collect();
        let scale_milli = vec![NOMINAL_MILLI * cohorts; cohorts as usize];
        CohortRotation::new(period_intervals, cohort_of, scale_milli)
    }

    /// Carpet bombing: one cohort per distinct stub, in stub order, each
    /// sending at `n / |cohort| × nominal` — exactly the full budget.
    fn by_stub(period_intervals: u32, source_stub: &[u32]) -> Self {
        let mut stubs: Vec<u32> = source_stub.to_vec();
        stubs.sort_unstable();
        stubs.dedup();
        let rank = |stub| stubs.binary_search(&stub).expect("stub listed") as u32;
        let cohort_of: Vec<u32> = source_stub.iter().map(|&stub| rank(stub)).collect();
        let n = source_stub.len() as u32;
        let scale_milli = (0..stubs.len() as u32)
            .map(|c| {
                let members = cohort_of.iter().filter(|&&k| k == c).count();
                NOMINAL_MILLI * n / members as u32
            })
            .collect();
        CohortRotation::new(period_intervals, cohort_of, scale_milli)
    }

    fn new(period_intervals: u32, cohort_of: Vec<u32>, scale_milli: Vec<u32>) -> Self {
        CohortRotation {
            period_intervals,
            cohort_of,
            scale_milli,
            effective: true,
            engaged: false,
            cursor: 0,
            since_rotate: 0,
        }
    }

    /// The rotation's turn state: engaged, cursor and interval count.
    fn write_turn<W: StateWrite>(&self, w: &mut W) {
        w.write_bool(self.engaged);
        w.write_u32(self.cursor);
        w.write_u32(self.since_rotate);
    }

    /// Reads [`CohortRotation::write_turn`]'s fields, rejecting a cursor
    /// past the last cohort.
    fn read_turn(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.engaged = r.read_bool()?;
        self.cursor = r.read_u32()?;
        self.since_rotate = r.read_u32()?;
        if self.cursor as usize >= self.scale_milli.len().max(1) {
            return Err(SnapError::Malformed(format!(
                "rotation cursor {} past {} cohorts",
                self.cursor,
                self.scale_milli.len()
            )));
        }
        Ok(())
    }

    /// Emits directives activating cohort `cursor` and pausing all
    /// others.
    fn retarget(&self, out: &mut Vec<AdversaryDirective>) {
        let scale_milli = self.scale_milli[self.cursor as usize];
        for (src, &cohort) in self.cohort_of.iter().enumerate() {
            let active = cohort == self.cursor;
            out.push(AdversaryDirective::SetActive {
                source: src,
                active,
            });
            if active {
                out.push(AdversaryDirective::SetRateScale {
                    source: src,
                    scale_milli,
                });
            }
        }
    }

    fn on_interval(&mut self, ctx: &StrategyCtx, out: &mut Vec<AdversaryDirective>) {
        // Fewer than two cohorts, or no sources, leave nothing to rotate.
        let cohorts = self.scale_milli.len() as u32;
        if !self.effective || cohorts < 2 || self.cohort_of.is_empty() {
            return;
        }
        if !self.engaged {
            if ctx.loss_rate > ENGAGE_LOSS {
                self.engaged = true;
                self.since_rotate = 0;
                self.retarget(out);
            }
            return;
        }
        self.since_rotate += 1;
        if self.since_rotate >= self.period_intervals {
            self.since_rotate = 0;
            self.cursor = (self.cursor + 1) % cohorts;
            self.retarget(out);
        }
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
pub(crate) struct AttestationShaping {
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

    fn on_interval(&mut self, ctx: &StrategyCtx, out: &mut Vec<AdversaryDirective>) {
        let prev = self.scale_milli;
        if ctx.loss_rate > ENGAGE_LOSS {
            self.scale_milli = self
                .scale_milli
                .saturating_sub(self.step_milli)
                .max(self.floor_milli);
        } else if ctx.loss_rate < ENGAGE_LOSS * 0.5 && self.scale_milli < NOMINAL_MILLI {
            self.scale_milli = (self.scale_milli + self.step_milli).min(NOMINAL_MILLI);
        }
        if self.scale_milli != prev {
            for src in 0..ctx.sources {
                out.push(AdversaryDirective::SetRateScale {
                    source: src,
                    scale_milli: self.scale_milli,
                });
            }
        }
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
pub(crate) struct PulseTuning {
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

    fn on_interval(&mut self, ctx: &StrategyCtx, out: &mut Vec<AdversaryDirective>) {
        let k = TRIGGER_INTERVALS;
        if !self.engaged {
            if ctx.loss_rate > ENGAGE_LOSS {
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
        for src in 0..ctx.sources {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(strategy: &mut Strategy, sources: usize, loss_rate: f64) -> Vec<AdversaryDirective> {
        let mut out = Vec::new();
        let ctx = StrategyCtx { sources, loss_rate };
        strategy.on_interval(&ctx, &mut out);
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
        let sources = 8;
        let mut s = Strategy::Rotation(CohortRotation::round_robin(2, 0.5, sources));
        // Quiet interval: no directives before engagement.
        assert!(drive(&mut s, sources, 0.1).is_empty());
        // Heavy loss engages and retargets to cohort 0.
        let first = drive(&mut s, sources, 0.9);
        assert!(!first.is_empty());
        assert_eq!(budget_after(sources, &first), 8 * NOMINAL_MILLI);
        // One interval later: no rotation yet (period 2).
        assert!(drive(&mut s, sources, 0.9).is_empty());
        // Second interval: cohort advances.
        let second = drive(&mut s, sources, 0.9);
        assert!(!second.is_empty());
        assert_eq!(budget_after(sources, &second), 8 * NOMINAL_MILLI);
        assert_ne!(first, second, "rotation must move the active cohort");
    }

    #[test]
    fn rotation_cohort_membership_is_round_robin() {
        let mut s = Strategy::Rotation(CohortRotation::round_robin(1, 0.5, 4));
        let first = drive(&mut s, 4, 0.9);
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
        let spec = AdversarySpec::with_strategy(StrategyKind::SourceRotation {
            period_intervals: 12,
            active_fraction: 0.5,
        });
        let mut strategy = Strategy::new(&spec, &[0, 0, 1, 1]);
        for _ in 0..40 {
            let out = drive(&mut strategy, 4, 0.95);
            assert!(out.is_empty(), "gated rotation must never emit directives");
        }
    }

    #[test]
    fn shaping_steps_down_to_floor_then_recovers() {
        let sources = 3;
        let mut s = Strategy::Shaping(AttestationShaping::new(300, 200));
        // Three hot intervals: 1000 -> 700 -> 400 -> 200 (floored).
        for want in [700u32, 400, 200] {
            let out = drive(&mut s, sources, 0.9);
            assert_eq!(out.len(), sources);
            assert!(out.iter().all(|d| matches!(
                d,
                AdversaryDirective::SetRateScale { scale_milli, .. } if *scale_milli == want
            )));
        }
        // Still hot at the floor: no change, no directives.
        assert!(drive(&mut s, sources, 0.9).is_empty());
        // Loss subsides: steps back up.
        let up = drive(&mut s, sources, 0.1);
        assert!(up.iter().all(|d| matches!(
            d,
            AdversaryDirective::SetRateScale { scale_milli, .. } if *scale_milli == 500
        )));
    }

    #[test]
    fn pulse_goes_dark_once_per_hysteresis_window() {
        let mut s = Strategy::Pulse(PulseTuning::new(0));
        // Engage; K = 4 so the cycle is 3 hot + 1 dark.
        let mut dark_count = 0;
        let mut hot_count = 0;
        let _ = drive(&mut s, 2, 0.9);
        for _ in 1..=8 {
            let out = drive(&mut s, 2, 0.9);
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
        let Strategy::Pulse(pulse) = &s else {
            unreachable!("built as a pulse")
        };
        assert_eq!(pulse.boost(4), 1333);
    }

    #[test]
    fn carpet_rotates_across_stubs_with_full_budget() {
        let mut s = Strategy::Carpet(CohortRotation::by_stub(1, &[0, 1, 2, 0, 1, 2]));
        let first = drive(&mut s, 6, 0.9);
        assert_eq!(budget_after(6, &first), 6 * NOMINAL_MILLI);
        let second = drive(&mut s, 6, 0.9);
        assert_ne!(first, second, "carpet must move to the next stub");
        assert_eq!(budget_after(6, &second), 6 * NOMINAL_MILLI);
    }

    /// Rotation's `c × nominal` keeps the budget only when the cohort
    /// count divides the sources; carpet's `n / |cohort|` always does.
    /// Fig. 11's five sources in two cohorts overshoot, then undershoot.
    #[test]
    fn rotation_budget_drifts_on_uneven_cohorts_where_carpet_holds() {
        let stubs = [1u32, 2, 0, 1, 2];
        let n = stubs.len();
        let mut rotation = Strategy::Rotation(CohortRotation::round_robin(1, 0.5, n));
        let mut carpet = Strategy::Carpet(CohortRotation::by_stub(1, &stubs));
        let turns = |s: &mut Strategy| -> Vec<u32> {
            (0..4).map(|_| budget_after(n, &drive(s, n, 0.9))).collect()
        };
        assert_eq!(turns(&mut rotation), [6000, 4000, 6000, 4000]);
        assert_eq!(turns(&mut carpet), [5000; 4]);
    }

    #[test]
    fn restore_rejects_a_cursor_past_the_last_cohort() {
        let spec = AdversarySpec::with_strategy(StrategyKind::CarpetBombing {
            period_intervals: 1,
        });
        let stubs = [0u32, 1, 0];
        let mut w = mafic_obs::SnapWriter::new();
        w.write_bool(true);
        w.write_u32(2);
        w.write_u32(0);
        let bytes = w.into_bytes();
        let mut s = Strategy::new(&spec, &stubs);
        let err = s.read_state(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapError::Malformed(_)), "{err}");
    }

    #[test]
    fn carpet_single_stub_is_inert() {
        let mut s = Strategy::Carpet(CohortRotation::by_stub(1, &[0, 0, 0, 0]));
        for _ in 0..10 {
            assert!(drive(&mut s, 4, 0.95).is_empty());
        }
    }

    #[test]
    fn strategies_snapshot_round_trip() {
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
            let spec = AdversarySpec::with_strategy(kind);
            let mut a = Strategy::new(&spec, &stubs);
            // Advance through engagement plus a few intervals.
            for _ in 0..5 {
                let _ = drive(&mut a, stubs.len(), 0.9);
            }
            mafic_obs::assert_state_law(&a, || Strategy::new(&spec, &stubs));
            let mut w = mafic_obs::SnapWriter::new();
            a.write_state(&mut w);
            let bytes = w.into_bytes();
            let mut b = Strategy::new(&spec, &stubs);
            let mut r = SnapReader::new(&bytes);
            b.read_state(&mut r).expect("restore");
            assert!(r.is_empty(), "strategy payload fully consumed");
            let mut ha = mafic_obs::HashWriter::new();
            let mut hb = mafic_obs::HashWriter::new();
            a.write_state(&mut ha);
            b.write_state(&mut hb);
            assert_eq!(ha.finish(), hb.finish(), "{}", kind.label());
        }
    }
}
