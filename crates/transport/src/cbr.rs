//! Unresponsive constant-rate senders — attack zombies and plain UDP
//! sources.
//!
//! An [`UnresponsiveSender`] transmits at a fixed packet rate (with
//! optional jitter) and ignores every incoming packet: genuine ACKs,
//! losses, and — decisively for MAFIC — the duplicate-ACK probe bursts.
//! Its arrival rate at the ATR therefore never decreases during the
//! probing window, and the flow lands in the Permanently Drop Table.
//!
//! The claimed source address in the flow key may be *spoofed*: the
//! workload layer can label packets with another host's legitimate
//! address or with an unallocated (illegal) address while the true origin
//! is recorded only in the packet provenance.

use mafic_netsim::{
    Agent, AgentCtx, FlowKey, Packet, PacketKind, SimDuration, SimTime, SnapError, SnapReader,
    State, StateWrite,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Wire format the unresponsive sender emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CbrProtocol {
    /// Plain UDP datagrams.
    Udp,
    /// TCP-looking data segments (SYN-flood-style zombies): carry sequence
    /// numbers and timestamps so they are indistinguishable from TCP at
    /// the router, but the sender never reacts to feedback.
    TcpLike,
}

/// Tunables for [`UnresponsiveSender`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CbrConfig {
    /// Average sending rate in packets per second.
    pub rate_pps: f64,
    /// Packet size in bytes.
    pub packet_size: u32,
    /// Inter-packet jitter as a fraction of the nominal interval
    /// (0 = perfectly periodic, 0.5 = ±50%).
    pub jitter: f64,
    /// Wire format.
    pub protocol: CbrProtocol,
}

impl Default for CbrConfig {
    fn default() -> Self {
        CbrConfig {
            rate_pps: 125.0,
            packet_size: 500,
            jitter: 0.2,
            protocol: CbrProtocol::Udp,
        }
    }
}

impl CbrConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.rate_pps.is_finite() && self.rate_pps > 0.0) {
            return Err(format!("rate_pps must be positive, got {}", self.rate_pps));
        }
        if self.packet_size == 0 {
            return Err("packet_size must be positive".into());
        }
        if !(0.0..1.0).contains(&self.jitter) {
            return Err(format!("jitter must be in [0, 1), got {}", self.jitter));
        }
        Ok(())
    }
}

/// A constant-rate sender that ignores all feedback.
#[derive(Debug)]
pub struct UnresponsiveSender {
    key: FlowKey,
    config: CbrConfig,
    is_attack: bool,
    rng: SmallRng,
    seq: u64,
    sent: u64,
    ignored_inbound: u64,
    stop_after: Option<SimTime>,
    second_wave: Option<(SimTime, SimTime)>,
    timer_token: u64,
    /// Adversary-controller retargeting: while paused the timer chain
    /// keeps ticking (so the RNG stream and resume latency stay
    /// deterministic) but nothing is emitted.
    paused: bool,
    /// Rate multiplier in thousandths of the configured rate
    /// (1000 = nominal). The open-loop default leaves the inter-packet
    /// interval computation bit-identical to the pre-adversary path.
    rate_scale_milli: u32,
}

impl UnresponsiveSender {
    /// Creates a sender for `key`.
    ///
    /// `key.src` is the *claimed* source address — spoofing is expressed
    /// by passing a key whose source differs from the host the agent is
    /// attached to. `seed` derives the jitter sequence deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation — a configuration bug.
    #[must_use]
    pub fn new(key: FlowKey, config: CbrConfig, is_attack: bool, seed: u64) -> Self {
        config.validate().expect("invalid CbrConfig");
        UnresponsiveSender {
            key,
            config,
            is_attack,
            rng: SmallRng::seed_from_u64(seed),
            seq: 0,
            sent: 0,
            ignored_inbound: 0,
            stop_after: None,
            second_wave: None,
            timer_token: 0,
            paused: false,
            rate_scale_milli: 1000,
        }
    }

    /// Stops transmitting after the given instant.
    pub fn set_stop_after(&mut self, at: SimTime) {
        self.stop_after = Some(at);
    }

    /// Arms a second transmission wave: after the sender goes quiet at
    /// its [`set_stop_after`](UnresponsiveSender::set_stop_after)
    /// instant, it wakes again at `resume` and transmits until `stop`.
    /// The resume ride the same timer chain (token-staleness semantics
    /// unchanged), so the whole two-wave schedule stays deterministic.
    pub fn set_second_wave(&mut self, resume: SimTime, stop: SimTime) {
        self.second_wave = Some((resume, stop));
    }

    /// Pauses or resumes transmission. A paused sender keeps its timer
    /// chain alive so a later resume takes effect within one interval.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Whether the sender is currently paused by its controller.
    #[must_use]
    pub fn paused(&self) -> bool {
        self.paused
    }

    /// Scales the sending rate, in thousandths of the configured
    /// nominal rate (1000 = nominal, 2000 = double).
    ///
    /// # Panics
    ///
    /// Panics on a zero scale — a controller bug; pausing is expressed
    /// via [`set_paused`](UnresponsiveSender::set_paused), not a zero
    /// rate.
    pub fn set_rate_scale_milli(&mut self, scale_milli: u32) {
        assert!(scale_milli > 0, "rate scale must be positive");
        self.rate_scale_milli = scale_milli;
    }

    /// Packets transmitted.
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// The flow key this sender transmits on.
    #[must_use]
    pub fn flow_key(&self) -> FlowKey {
        self.key
    }

    fn interval(&mut self) -> SimDuration {
        let mut nominal = 1.0 / self.config.rate_pps;
        if self.rate_scale_milli != 1000 {
            nominal = nominal * 1000.0 / f64::from(self.rate_scale_milli);
        }
        let jitter = if self.config.jitter > 0.0 {
            1.0 + self.config.jitter * (self.rng.gen::<f64>() * 2.0 - 1.0)
        } else {
            1.0
        };
        SimDuration::from_secs_f64(nominal * jitter)
    }

    fn emit(&mut self, ctx: &mut AgentCtx<'_>) {
        let kind = match self.config.protocol {
            CbrProtocol::Udp => PacketKind::Udp,
            CbrProtocol::TcpLike => PacketKind::TcpData {
                seq: self.seq,
                ts: ctx.now(),
                ts_echo: SimTime::ZERO,
            },
        };
        ctx.send(self.key, kind, self.config.packet_size, self.is_attack);
        self.seq += 1;
        self.sent += 1;
    }

    fn schedule_next(&mut self, ctx: &mut AgentCtx<'_>) {
        let delay = self.interval();
        self.timer_token += 1;
        ctx.schedule_in(delay, self.timer_token);
    }
}

impl Agent for UnresponsiveSender {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        if !self.paused {
            self.emit(ctx);
        }
        self.schedule_next(ctx);
    }

    fn on_packet(&mut self, _packet: Packet, _ctx: &mut AgentCtx<'_>) {
        // The defining behaviour: feedback is ignored entirely.
        self.ignored_inbound += 1;
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AgentCtx<'_>) {
        if token != self.timer_token {
            return;
        }
        if let Some(stop) = self.stop_after {
            if ctx.now() >= stop {
                // End of the current wave. If a second wave is armed,
                // sleep until its resume instant instead of letting the
                // timer chain end; the resume wake re-enters this
                // handler past the (now-swapped) stop check and emits.
                if let Some((resume, next_stop)) = self.second_wave.take() {
                    self.stop_after = Some(next_stop);
                    self.timer_token += 1;
                    ctx.schedule_in(resume.saturating_since(ctx.now()), self.timer_token);
                }
                return;
            }
        }
        if !self.paused {
            self.emit(ctx);
        }
        self.schedule_next(ctx);
    }
}

impl State for UnresponsiveSender {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_rng(self.rng.state());
        w.write_u64(self.seq);
        w.write_u64(self.sent);
        w.write_u64(self.ignored_inbound);
        w.write_opt(self.stop_after, |w, t| w.write_u64(t.as_nanos()));
        w.write_opt(self.second_wave, |w, (resume, stop)| {
            w.write_u64(resume.as_nanos());
            w.write_u64(stop.as_nanos());
        });
        w.write_u64(self.timer_token);
        w.write_bool(self.paused);
        w.write_u32(self.rate_scale_milli);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let instant = |r: &mut SnapReader<'_>| r.read_u64().map(SimTime::from_nanos);
        self.rng = r.read_rng(SmallRng::from_state)?;
        self.seq = r.read_u64()?;
        self.sent = r.read_u64()?;
        self.ignored_inbound = r.read_u64()?;
        self.stop_after = r.read_opt("stop-after", instant)?;
        self.second_wave = r.read_opt("second-wave", |r| Ok((instant(r)?, instant(r)?)))?;
        self.timer_token = r.read_u64()?;
        self.paused = r.read_bool()?;
        self.rate_scale_milli = r.read_u32()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, AgentHarness};
    use mafic_netsim::{Addr, Provenance};

    fn key() -> FlowKey {
        FlowKey::new(
            Addr::from_octets(10, 0, 0, 9),
            Addr::from_octets(10, 9, 0, 1),
            6000,
            80,
        )
    }

    fn sender(protocol: CbrProtocol, jitter: f64) -> UnresponsiveSender {
        UnresponsiveSender::new(
            key(),
            CbrConfig {
                rate_pps: 100.0,
                packet_size: 400,
                jitter,
                protocol,
            },
            true,
            7,
        )
    }

    #[test]
    fn start_emits_and_schedules() {
        let mut h = AgentHarness::new();
        let mut s = sender(CbrProtocol::Udp, 0.0);
        let fx = h.start(&mut s);
        assert_eq!(fx.sent.len(), 1);
        assert_eq!(fx.sent[0].kind, PacketKind::Udp);
        assert!(fx.sent[0].provenance.is_attack);
        assert_eq!(fx.timers.len(), 1);
        // Zero jitter => exactly the nominal 10 ms interval.
        assert_eq!(fx.timers[0].0, SimDuration::from_millis(10));
    }

    #[test]
    fn timer_chain_sustains_rate() {
        let mut h = AgentHarness::new();
        let mut s = sender(CbrProtocol::Udp, 0.0);
        let fx = h.start(&mut s);
        let mut token = fx.timers[0].1;
        for _ in 0..9 {
            h.advance(SimDuration::from_millis(10));
            let fx = h.fire_timer(&mut s, token);
            assert_eq!(fx.sent.len(), 1);
            token = fx.timers[0].1;
        }
        assert_eq!(s.sent(), 10);
    }

    #[test]
    fn probes_are_ignored() {
        let mut h = AgentHarness::new();
        let mut s = sender(CbrProtocol::Udp, 0.0);
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
        assert!(fx.sent.is_empty(), "no reaction to probes");
        assert_eq!(s.ignored_inbound, 1);
    }

    #[test]
    fn tcp_like_zombie_emits_tcp_data() {
        let mut h = AgentHarness::new();
        let mut s = sender(CbrProtocol::TcpLike, 0.0);
        let fx = h.start(&mut s);
        assert!(matches!(
            fx.sent[0].kind,
            PacketKind::TcpData { seq: 0, .. }
        ));
    }

    #[test]
    fn jitter_varies_intervals_deterministically() {
        let run = || {
            let mut h = AgentHarness::new();
            let mut s = sender(CbrProtocol::Udp, 0.5);
            let fx = h.start(&mut s);
            let mut intervals = vec![fx.timers[0].0];
            let mut token = fx.timers[0].1;
            for _ in 0..5 {
                h.advance(SimDuration::from_millis(10));
                let fx = h.fire_timer(&mut s, token);
                intervals.push(fx.timers[0].0);
                token = fx.timers[0].1;
            }
            intervals
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same jitter sequence");
        assert!(a.iter().any(|&d| d != a[0]), "jitter should vary intervals");
    }

    #[test]
    fn stop_after_halts_transmission() {
        let mut h = AgentHarness::new();
        let mut s = sender(CbrProtocol::Udp, 0.0);
        let fx = h.start(&mut s);
        s.set_stop_after(SimTime::from_secs_f64(0.005));
        h.advance(SimDuration::from_millis(10));
        let fx2 = h.fire_timer(&mut s, fx.timers[0].1);
        assert!(fx2.sent.is_empty());
        assert!(fx2.timers.is_empty(), "chain ends");
    }

    #[test]
    fn second_wave_resumes_after_the_gap() {
        let mut h = AgentHarness::new();
        let mut s = sender(CbrProtocol::Udp, 0.0);
        let fx = h.start(&mut s);
        s.set_stop_after(SimTime::from_secs_f64(0.005));
        s.set_second_wave(SimTime::from_secs_f64(0.100), SimTime::from_secs_f64(0.105));
        // First wave ends: the 10 ms tick lands past stop_after, emits
        // nothing, and instead schedules the resume wake at 100 ms.
        h.advance(SimDuration::from_millis(10));
        let fx2 = h.fire_timer(&mut s, fx.timers[0].1);
        assert!(fx2.sent.is_empty(), "quiet during the gap");
        assert_eq!(fx2.timers.len(), 1, "resume wake armed");
        assert_eq!(fx2.timers[0].0, SimDuration::from_millis(90));
        // Resume wake: the sender emits again and re-arms its chain.
        h.advance(SimDuration::from_millis(90));
        let fx3 = h.fire_timer(&mut s, fx2.timers[0].1);
        assert_eq!(fx3.sent.len(), 1, "second wave transmits");
        assert_eq!(fx3.timers.len(), 1);
        // Second stop: past 105 ms the chain ends for good.
        h.advance(SimDuration::from_millis(10));
        let fx4 = h.fire_timer(&mut s, fx3.timers[0].1);
        assert!(fx4.sent.is_empty());
        assert!(fx4.timers.is_empty(), "no third wave");
    }

    #[test]
    fn stale_timer_tokens_ignored() {
        let mut h = AgentHarness::new();
        let mut s = sender(CbrProtocol::Udp, 0.0);
        let _ = h.start(&mut s);
        let fx = h.fire_timer(&mut s, 999);
        assert!(fx.sent.is_empty());
    }

    #[test]
    fn paused_sender_keeps_chain_alive_and_resumes() {
        let mut h = AgentHarness::new();
        let mut s = sender(CbrProtocol::Udp, 0.0);
        let fx = h.start(&mut s);
        s.set_paused(true);
        // Two quiet ticks: nothing emitted, chain keeps ticking.
        let mut token = fx.timers[0].1;
        for _ in 0..2 {
            h.advance(SimDuration::from_millis(10));
            let fx = h.fire_timer(&mut s, token);
            assert!(fx.sent.is_empty(), "paused sender must stay quiet");
            assert_eq!(fx.timers.len(), 1, "timer chain stays alive");
            token = fx.timers[0].1;
        }
        // Resume: the very next tick transmits again.
        s.set_paused(false);
        h.advance(SimDuration::from_millis(10));
        let fx = h.fire_timer(&mut s, token);
        assert_eq!(fx.sent.len(), 1);
        assert_eq!(s.sent(), 2);
    }

    #[test]
    fn rate_scale_shortens_intervals_and_default_is_nominal() {
        let mut h = AgentHarness::new();
        let mut s = sender(CbrProtocol::Udp, 0.0);
        let fx = h.start(&mut s);
        assert_eq!(fx.timers[0].0, SimDuration::from_millis(10));
        // Double rate => half the interval.
        s.set_rate_scale_milli(2000);
        h.advance(SimDuration::from_millis(10));
        let fx2 = h.fire_timer(&mut s, fx.timers[0].1);
        assert_eq!(fx2.timers[0].0, SimDuration::from_millis(5));
    }

    #[test]
    fn pause_and_scale_snapshot_round_trip() {
        let mut h = AgentHarness::new();
        let mut s = sender(CbrProtocol::Udp, 0.2);
        let _ = h.start(&mut s);
        s.set_paused(true);
        s.set_rate_scale_milli(1500);
        s.set_stop_after(SimTime::from_secs_f64(2.0));
        s.set_second_wave(SimTime::from_secs_f64(3.0), SimTime::from_secs_f64(4.0));
        assert_state_law(&s, || sender(CbrProtocol::Udp, 0.2));
        let bytes = state_bytes(&s);
        let mut restored = sender(CbrProtocol::Udp, 0.2);
        let mut r = mafic_netsim::SnapReader::new(&bytes);
        restored.read_state(&mut r).expect("restore");
        assert!(r.is_empty());
        assert!(restored.paused());
        assert_eq!(restored.rate_scale_milli, 1500);
    }

    #[test]
    fn config_validation() {
        assert!(CbrConfig {
            rate_pps: 0.0,
            ..CbrConfig::default()
        }
        .validate()
        .is_err());
        assert!(CbrConfig {
            packet_size: 0,
            ..CbrConfig::default()
        }
        .validate()
        .is_err());
        assert!(CbrConfig {
            jitter: 1.0,
            ..CbrConfig::default()
        }
        .validate()
        .is_err());
        assert!(CbrConfig::default().validate().is_ok());
    }
}
