//! The [`AdversaryController`] — the per-run closed-loop brain wiring
//! per-source feedback into the strategy its [`AdversarySpec`] names.

use mafic_obs::{SnapError, SnapReader, State, StateWrite};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::spec::AdversarySpec;
use crate::strategies::{Strategy, StrategyCtx};

/// One retargeting command for a single attack source, identified by
/// its stable index in the botnet's source order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryDirective {
    /// Pause (`active = false`) or resume a source's transmissions.
    SetActive {
        /// Index of the source in the controller's stable order.
        source: usize,
        /// Whether the source should transmit.
        active: bool,
    },
    /// Scale a source's nominal rate, in thousandths (1000 = nominal).
    SetRateScale {
        /// Index of the source in the controller's stable order.
        source: usize,
        /// New rate scale in thousandths of the configured rate.
        scale_milli: u32,
    },
}

/// Cumulative per-source counters sampled at the attacker's own node:
/// packets handed to the wire and acknowledgements seen back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceFeedback {
    /// Cumulative packets sent by this source.
    pub sent: u64,
    /// Cumulative packets confirmed delivered to the victim.
    pub delivered: u64,
}

/// Closed-loop controller for one run's attack sources.
///
/// Call [`take_feedback_buf`](Self::take_feedback_buf) each monitor
/// interval, fill it with cumulative per-source counters in stable
/// source order, and hand it back to
/// [`observe_interval`](Self::observe_interval); the returned directive
/// slice retargets the sources for the next interval. The buffer
/// round-trip keeps the per-interval path allocation-free after the
/// first interval.
#[derive(Debug)]
pub struct AdversaryController {
    spec: AdversarySpec,
    /// The only randomness a strategy may use (determinism rule 5).
    /// No built-in strategy draws from it; it is saved in checkpoints
    /// so the snapshot layout holds when one does.
    rng: SmallRng,
    /// Monitor intervals observed so far.
    interval: u64,
    /// Previous cumulative (sent, delivered) per source.
    prev: Vec<(u64, u64)>,
    /// Per-source stub indices, fixed at construction.
    stubs: Vec<u32>,
    /// Loaned-out feedback buffer (empty while on loan).
    feedback: Vec<SourceFeedback>,
    directives: Vec<AdversaryDirective>,
    strategy: Strategy,
}

impl AdversaryController {
    /// Builds a controller for a botnet of `stubs.len()` sources whose
    /// per-source stub indices are `stubs`, seeded by `seed`.
    #[must_use]
    pub fn new(spec: AdversarySpec, stubs: Vec<u32>, seed: u64) -> Self {
        let strategy = Strategy::new(&spec, &stubs);
        let n = stubs.len();
        AdversaryController {
            spec,
            rng: SmallRng::seed_from_u64(seed),
            interval: 0,
            prev: vec![(0, 0); n],
            stubs,
            feedback: vec![SourceFeedback::default(); n],
            directives: Vec::new(),
            strategy,
        }
    }

    /// Number of sources under control.
    #[must_use]
    pub fn sources(&self) -> usize {
        self.stubs.len()
    }

    /// The specification the controller was built from.
    #[must_use]
    pub fn spec(&self) -> &AdversarySpec {
        &self.spec
    }

    /// Borrows the pre-sized feedback buffer for the caller to fill.
    ///
    /// The buffer comes back cleared and resized to
    /// [`sources`](Self::sources); return it via
    /// [`observe_interval`](Self::observe_interval).
    #[must_use]
    pub fn take_feedback_buf(&mut self) -> Vec<SourceFeedback> {
        let mut buf = std::mem::take(&mut self.feedback);
        buf.clear();
        buf.resize(self.stubs.len(), SourceFeedback::default());
        buf
    }

    /// Digests one monitor interval of cumulative per-source feedback
    /// and returns the strategy's retargeting directives.
    ///
    /// `feedback` must be the buffer from
    /// [`take_feedback_buf`](Self::take_feedback_buf), filled in stable
    /// source order with cumulative counters.
    pub fn observe_interval(&mut self, feedback: Vec<SourceFeedback>) -> &[AdversaryDirective] {
        debug_assert_eq!(feedback.len(), self.stubs.len());
        let mut sent_total = 0u64;
        let mut delivered_total = 0u64;
        for (i, fb) in feedback.iter().enumerate() {
            let (prev_sent, prev_delivered) = self.prev[i];
            let sent_delta = fb.sent.saturating_sub(prev_sent);
            let delivered_delta = fb.delivered.saturating_sub(prev_delivered);
            sent_total += sent_delta;
            delivered_total += delivered_delta;
            self.prev[i] = (fb.sent, fb.delivered);
        }
        let loss_rate = if sent_total == 0 {
            0.0
        } else {
            1.0 - (delivered_total as f64) / (sent_total as f64)
        };
        self.directives.clear();
        let ctx = StrategyCtx {
            sources: self.stubs.len(),
            loss_rate,
        };
        self.strategy.on_interval(&ctx, &mut self.directives);
        self.interval += 1;
        self.feedback = feedback;
        &self.directives
    }
}

impl State for AdversaryController {
    /// The controller's decision state. The ledger names the strategy
    /// by label, a checkpoint by tag (validated on restore). The RNG
    /// internals are saved, not hashed: the hash captures
    /// decision-relevant state, and the RNG is restored bit-exactly by
    /// the snapshot path instead.
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.hash_only(|h| h.write_str(self.spec.strategy.label()));
        w.snap_only(|w| w.write_rng(self.rng.state()));
        w.write_u64(self.interval);
        w.snap_only(|w| w.write_u8(self.spec.strategy.tag()));
        w.write_seq(&self.prev, |w, &(sent, delivered)| {
            w.write_u64(sent);
            w.write_u64(delivered);
        });
        self.strategy.write_state(w);
    }

    /// The controller must have been built from the same spec and
    /// source set it was captured with; the strategy tag and source
    /// count are validated (a mismatch is [`SnapError::Malformed`]).
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rng = r.read_rng(SmallRng::from_state)?;
        self.interval = r.read_u64()?;
        let tag = r.read_u8()?;
        if tag != self.spec.strategy.tag() {
            return Err(SnapError::Malformed(format!(
                "adversary strategy tag mismatch: snapshot {tag}, spec {}",
                self.spec.strategy.tag()
            )));
        }
        let n = r.read_usize()?;
        if n != self.prev.len() {
            return Err(SnapError::Malformed(format!(
                "adversary source count mismatch: snapshot {n}, controller {}",
                self.prev.len()
            )));
        }
        for slot in &mut self.prev {
            *slot = (r.read_u64()?, r.read_u64()?);
        }
        self.strategy.read_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::StrategyKind;
    use mafic_obs::{HashWriter, SnapWriter};

    fn rotation_spec() -> AdversarySpec {
        AdversarySpec::with_strategy(StrategyKind::SourceRotation {
            period_intervals: 2,
            active_fraction: 0.5,
        })
    }

    fn feed(ctl: &mut AdversaryController, sent: u64, delivered: u64) -> Vec<AdversaryDirective> {
        let mut buf = ctl.take_feedback_buf();
        let n = buf.len() as u64;
        for (i, fb) in buf.iter_mut().enumerate() {
            // Spread cumulative counters so deltas are per-source even.
            fb.sent = sent * (i as u64 + 1) / n.max(1);
            fb.delivered = delivered * (i as u64 + 1) / n.max(1);
        }
        ctl.observe_interval(buf).to_vec()
    }

    #[test]
    fn loss_rate_gates_engagement() {
        let mut ctl = AdversaryController::new(rotation_spec(), vec![0, 0, 1, 1], 11);
        // Low loss: quiescent.
        assert!(feed(&mut ctl, 1000, 900).is_empty());
        // High loss: engages and retargets.
        assert!(!feed(&mut ctl, 2000, 1000).is_empty());
    }

    #[test]
    fn zero_sent_interval_reads_as_zero_loss() {
        let mut ctl = AdversaryController::new(rotation_spec(), vec![0, 1], 11);
        assert!(feed(&mut ctl, 0, 0).is_empty());
        assert_eq!(ctl.interval, 1);
    }

    #[test]
    fn feedback_buffer_round_trips_without_growth() {
        let mut ctl = AdversaryController::new(rotation_spec(), vec![0, 0, 1, 1], 11);
        let buf = ctl.take_feedback_buf();
        assert_eq!(buf.len(), 4);
        let cap = buf.capacity();
        let _ = ctl.observe_interval(buf);
        let again = ctl.take_feedback_buf();
        assert_eq!(again.capacity(), cap, "buffer must be recycled");
        let _ = ctl.observe_interval(again);
    }

    #[test]
    fn snapshot_round_trips_mid_engagement() {
        let mut a = AdversaryController::new(rotation_spec(), vec![0, 0, 1, 1], 11);
        let _ = feed(&mut a, 1000, 100);
        let _ = feed(&mut a, 3000, 400);
        let _ = feed(&mut a, 6000, 900);
        mafic_obs::assert_state_law(&a, || {
            AdversaryController::new(rotation_spec(), vec![0, 0, 1, 1], 99)
        });
        let mut w = SnapWriter::new();
        a.write_state(&mut w);
        let bytes = w.into_bytes();

        let mut b = AdversaryController::new(rotation_spec(), vec![0, 0, 1, 1], 99);
        let mut r = SnapReader::new(&bytes);
        b.read_state(&mut r).expect("restore");
        assert!(r.is_empty());

        let mut ha = HashWriter::new();
        let mut hb = HashWriter::new();
        a.write_state(&mut ha);
        b.write_state(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
        // The RNG is saved, not hashed: a same-history controller on
        // another seed hashes alike and snapshots differently.
        let mut c = AdversaryController::new(rotation_spec(), vec![0, 0, 1, 1], 99);
        for (sent, delivered) in [(1000, 100), (3000, 400), (6000, 900)] {
            let _ = feed(&mut c, sent, delivered);
        }
        let mut hc = HashWriter::new();
        c.write_state(&mut hc);
        assert_eq!(ha.finish(), hc.finish());
        let mut wc = SnapWriter::new();
        c.write_state(&mut wc);
        assert_ne!(wc.into_bytes(), bytes);

        // Both copies must keep deciding identically.
        let da = feed(&mut a, 9000, 1500);
        let db = feed(&mut b, 9000, 1500);
        assert_eq!(da, db);
    }

    #[test]
    fn snapshot_rejects_strategy_mismatch() {
        let mut a = AdversaryController::new(rotation_spec(), vec![0, 1], 11);
        let mut w = SnapWriter::new();
        a.write_state(&mut w);
        let bytes = w.into_bytes();

        let pulse = AdversarySpec::with_strategy(StrategyKind::PulseTuning { boost_milli: 0 });
        let mut b = AdversaryController::new(pulse, vec![0, 1], 11);
        let mut r = SnapReader::new(&bytes);
        assert!(b.read_state(&mut r).is_err());
        let _ = feed(&mut a, 100, 50);
    }

    #[test]
    fn snapshot_rejects_source_count_mismatch() {
        let a = AdversaryController::new(rotation_spec(), vec![0, 1], 11);
        let mut w = SnapWriter::new();
        a.write_state(&mut w);
        let bytes = w.into_bytes();

        let mut b = AdversaryController::new(rotation_spec(), vec![0, 1, 2], 11);
        let mut r = SnapReader::new(&bytes);
        assert!(b.read_state(&mut r).is_err());
    }
}
