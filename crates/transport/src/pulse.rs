//! Pulsing (on/off) attack senders — the shrew-style adversary the
//! paper's HAWK reference targets, and a known blind spot of
//! probe-based classification.
//!
//! A [`PulsedSender`] alternates between a high-rate burst phase and a
//! silent phase. If the silent phase happens to cover MAFIC's 2×RTT
//! probation window, the flow's arrival rate *does* decrease after the
//! probe and the zombie is declared nice — a structural false negative
//! the paper leaves to future work. The workspace `pulse_evasion`
//! integration tests demonstrate the evasion and the `nft_revalidate_after`
//! counter-measure.

use mafic_netsim::{
    Agent, AgentCtx, FlowKey, Packet, PacketKind, Provenance, SimDuration, SimTime, SnapError,
    SnapReader, State, StateWrite,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tunables for [`PulsedSender`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulseConfig {
    /// Sending rate during the burst phase (packets/s).
    pub burst_rate_pps: f64,
    /// Burst phase length.
    pub burst_len: SimDuration,
    /// Silent phase length.
    pub idle_len: SimDuration,
    /// Packet size in bytes.
    pub packet_size: u32,
    /// Random phase offset applied to the first burst (fraction of the
    /// full period, `0.0..1.0` sampled per seed) so a fleet of pulsers
    /// does not synchronize.
    pub randomize_phase: bool,
}

impl Default for PulseConfig {
    fn default() -> Self {
        PulseConfig {
            burst_rate_pps: 2_000.0,
            burst_len: SimDuration::from_millis(150),
            idle_len: SimDuration::from_millis(350),
            packet_size: 500,
            randomize_phase: true,
        }
    }
}

impl PulseConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.burst_rate_pps.is_finite() && self.burst_rate_pps > 0.0) {
            return Err("burst_rate_pps must be positive".into());
        }
        if self.burst_len.is_zero() {
            return Err("burst_len must be positive".into());
        }
        if self.packet_size == 0 {
            return Err("packet_size must be positive".into());
        }
        Ok(())
    }

    /// The full on+off period.
    #[must_use]
    pub fn period(&self) -> SimDuration {
        self.burst_len + self.idle_len
    }

    /// Average rate over a full period (packets/s).
    #[cfg(test)]
    #[must_use]
    pub fn mean_rate_pps(&self) -> f64 {
        let period = self.period().as_secs_f64();
        if period == 0.0 {
            return 0.0;
        }
        self.burst_rate_pps * self.burst_len.as_secs_f64() / period
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Bursting,
    Idle,
}

/// An on/off zombie: floods during bursts, vanishes in between, and
/// ignores all feedback (ACKs and probes alike).
#[derive(Debug)]
pub struct PulsedSender {
    key: FlowKey,
    config: PulseConfig,
    rng: SmallRng,
    phase: Phase,
    seq: u64,
    sent: u64,
    bursts_completed: u64,
    stop_after: Option<SimTime>,
    timer_token: u64,
    burst_deadline: Option<SimTime>,
}

impl PulsedSender {
    /// Creates a pulsing sender for `key` (always an attack flow).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation — a configuration bug.
    #[must_use]
    pub fn new(key: FlowKey, config: PulseConfig, seed: u64) -> Self {
        config.validate().expect("invalid PulseConfig");
        PulsedSender {
            key,
            config,
            rng: SmallRng::seed_from_u64(seed),
            phase: Phase::Idle,
            seq: 0,
            sent: 0,
            bursts_completed: 0,
            stop_after: None,
            timer_token: 0,
            burst_deadline: None,
        }
    }

    /// Stops transmitting after the given instant.
    pub fn set_stop_after(&mut self, at: SimTime) {
        self.stop_after = Some(at);
    }

    /// Packets transmitted.
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Completed burst phases.
    #[must_use]
    pub fn bursts_completed(&self) -> u64 {
        self.bursts_completed
    }

    fn stopped(&self, now: SimTime) -> bool {
        self.stop_after.is_some_and(|t| now >= t)
    }

    fn send_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.config.burst_rate_pps)
    }

    fn emit(&mut self, ctx: &mut AgentCtx<'_>) {
        let pkt = Packet {
            id: ctx.fresh_packet_id(),
            key: self.key,
            kind: PacketKind::Udp,
            size_bytes: self.config.packet_size,
            created_at: ctx.now(),
            provenance: Provenance {
                origin: ctx.agent_id(),
                is_attack: true,
            },
            hops: 0,
        };
        ctx.send_packet(pkt);
        self.seq += 1;
        self.sent += 1;
    }

    fn arm(&mut self, delay: SimDuration, ctx: &mut AgentCtx<'_>) {
        self.timer_token += 1;
        ctx.schedule_in(delay, self.timer_token);
    }
}

impl Agent for PulsedSender {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        let offset = if self.config.randomize_phase {
            self.config.period().mul_f64(self.rng.gen::<f64>())
        } else {
            SimDuration::ZERO
        };
        self.phase = Phase::Idle;
        // The first timer flips us into the burst phase after the offset.
        self.arm(offset, ctx);
    }

    fn on_packet(&mut self, _packet: Packet, _ctx: &mut AgentCtx<'_>) {
        // Unresponsive by design.
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AgentCtx<'_>) {
        if token != self.timer_token || self.stopped(ctx.now()) {
            return;
        }
        match self.phase {
            Phase::Idle => {
                // Enter a burst: send immediately and schedule the stream.
                self.phase = Phase::Bursting;
                self.emit(ctx);
                self.arm(self.send_interval(), ctx);
                // Remember when this burst must end.
                self.burst_deadline = Some(ctx.now() + self.config.burst_len);
            }
            Phase::Bursting => {
                if self
                    .burst_deadline
                    .is_some_and(|deadline| ctx.now() >= deadline)
                {
                    self.phase = Phase::Idle;
                    self.bursts_completed += 1;
                    self.burst_deadline = None;
                    self.arm(self.config.idle_len, ctx);
                } else {
                    self.emit(ctx);
                    self.arm(self.send_interval(), ctx);
                }
            }
        }
    }
}

impl State for PulsedSender {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_rng(self.rng.state());
        w.write_u8(match self.phase {
            Phase::Bursting => 0,
            Phase::Idle => 1,
        });
        w.write_u64(self.seq);
        w.write_u64(self.sent);
        w.write_u64(self.bursts_completed);
        w.write_opt(self.stop_after, |w, t| w.write_u64(t.as_nanos()));
        w.write_u64(self.timer_token);
        w.write_opt(self.burst_deadline, |w, t| w.write_u64(t.as_nanos()));
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let instant = |r: &mut SnapReader<'_>| r.read_u64().map(SimTime::from_nanos);
        self.rng = r.read_rng(SmallRng::from_state)?;
        self.phase = match r.read_u8()? {
            0 => Phase::Bursting,
            1 => Phase::Idle,
            tag => return Err(SnapError::Malformed(format!("pulse-phase tag {tag}"))),
        };
        self.seq = r.read_u64()?;
        self.sent = r.read_u64()?;
        self.bursts_completed = r.read_u64()?;
        self.stop_after = r.read_opt("stop-after", instant)?;
        self.timer_token = r.read_u64()?;
        self.burst_deadline = r.read_opt("burst-deadline", instant)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, AgentHarness};
    use mafic_netsim::Addr;

    fn key() -> FlowKey {
        FlowKey::new(
            Addr::from_octets(10, 2, 0, 1),
            Addr::from_octets(10, 200, 0, 1),
            7000,
            80,
        )
    }

    fn config() -> PulseConfig {
        PulseConfig {
            burst_rate_pps: 100.0,
            burst_len: SimDuration::from_millis(100),
            idle_len: SimDuration::from_millis(100),
            packet_size: 500,
            randomize_phase: false,
        }
    }

    #[test]
    fn mean_rate_reflects_duty_cycle() {
        let c = config();
        // 50% duty cycle at 100 pps => 50 pps mean.
        assert!((c.mean_rate_pps() - 50.0).abs() < 1e-9);
        assert_eq!(c.period(), SimDuration::from_millis(200));
    }

    #[test]
    fn alternates_between_phases() {
        let mut h = AgentHarness::new();
        let mut s = PulsedSender::new(key(), config(), 3);
        let fx = h.start(&mut s);
        assert!(fx.sent.is_empty(), "idle until the phase timer");
        let mut token = fx.timers[0].1;
        let mut total_sent = 0usize;
        // Drive 100 timer firings and verify bursts complete.
        for _ in 0..100 {
            h.advance(SimDuration::from_millis(10));
            let fx = h.fire_timer(&mut s, token);
            total_sent += fx.sent.len();
            if let Some(&(_, t)) = fx.timers.first() {
                token = t;
            }
        }
        assert!(total_sent > 0);
        assert!(s.bursts_completed() > 0, "bursts must cycle");
    }

    #[test]
    fn ignores_probes() {
        let mut h = AgentHarness::new();
        let mut s = PulsedSender::new(key(), config(), 3);
        let _ = h.start(&mut s);
        let probe = Packet {
            id: 1,
            key: key().reversed(),
            kind: PacketKind::ProbeDupAck { count: 3 },
            size_bytes: 40,
            created_at: h.now,
            provenance: Provenance::infrastructure(),
            hops: 0,
        };
        let fx = h.deliver(&mut s, probe);
        assert!(fx.sent.is_empty());
    }

    #[test]
    fn stop_after_ends_the_pulse_train() {
        let mut h = AgentHarness::new();
        let mut s = PulsedSender::new(key(), config(), 3);
        let fx = h.start(&mut s);
        s.set_stop_after(SimTime::ZERO);
        h.advance(SimDuration::from_millis(10));
        let fx2 = h.fire_timer(&mut s, fx.timers[0].1);
        assert!(fx2.sent.is_empty());
        assert!(fx2.timers.is_empty());
    }

    #[test]
    fn snapshot_round_trips_mid_burst() {
        let mut h = AgentHarness::new();
        let mut s = PulsedSender::new(key(), config(), 3);
        s.set_stop_after(SimTime::from_secs_f64(9.0));
        let fx = h.start(&mut s);
        // The first timer opens a burst; two more ticks send inside it.
        let mut token = fx.timers[0].1;
        for _ in 0..3 {
            h.advance(SimDuration::from_millis(10));
            token = h.fire_timer(&mut s, token).timers[0].1;
        }
        assert_eq!(s.phase, Phase::Bursting);
        assert!(s.burst_deadline.is_some() && s.sent == 3);
        assert_state_law(&s, || PulsedSender::new(key(), config(), 99));

        let mut restored = PulsedSender::new(key(), config(), 99);
        let bytes = state_bytes(&s);
        restored.read_state(&mut SnapReader::new(&bytes)).unwrap();
        // Both finish the burst on the same tick and go idle together.
        for _ in 0..12 {
            h.advance(SimDuration::from_millis(10));
            let a = h.fire_timer(&mut s, token);
            let b = h.fire_timer(&mut restored, token);
            assert_eq!(a.sent.len(), b.sent.len());
            assert_eq!(a.timers, b.timers);
            token = a.timers[0].1;
        }
        assert_eq!(restored.bursts_completed(), 1);
        assert_eq!(state_bytes(&restored), state_bytes(&s));
    }

    #[test]
    fn config_validation() {
        assert!(PulseConfig {
            burst_rate_pps: 0.0,
            ..config()
        }
        .validate()
        .is_err());
        assert!(PulseConfig {
            burst_len: SimDuration::ZERO,
            ..config()
        }
        .validate()
        .is_err());
        assert!(PulseConfig {
            packet_size: 0,
            ..config()
        }
        .validate()
        .is_err());
        assert!(config().validate().is_ok());
    }
}
