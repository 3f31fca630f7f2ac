//! A TCP Reno-style sender agent.
//!
//! Implements the congestion-control behaviours MAFIC's probing relies on:
//! slow start, additive increase, fast retransmit on three duplicate ACKs,
//! multiplicative decrease, retransmission timeouts with exponential
//! backoff, and — crucially — a compliant response to MAFIC's
//! [`PacketKind::ProbeDupAck`] bursts: a probe counts as a loss signal, so
//! the sender halves its window and its arrival rate at the router drops
//! within one RTT, which is exactly the "TCP-friendly" behaviour the SFT
//! timer checks for.
//!
//! The sender models an infinite-backlog application (FTP-like) sending
//! fixed-size segments; sequence numbers count segments, not bytes.

use crate::rtt::RttEstimator;
use mafic_netsim::{
    Agent, AgentCtx, FlowKey, Packet, PacketKind, SimDuration, SimTime, SnapError, SnapReader,
    State, StateWrite,
};

/// Segment size in bytes (data packets).
const SEGMENT_SIZE: u32 = 500;
/// Initial congestion window (segments).
const INITIAL_CWND: f64 = 2.0;
/// Initial slow-start threshold (segments).
const INITIAL_SSTHRESH: f64 = 32.0;
/// Initial retransmission timeout before any RTT sample.
const INITIAL_RTO: SimDuration = SimDuration::from_millis(1000);
/// Lower bound for the RTO.
const MIN_RTO: SimDuration = SimDuration::from_millis(200);

/// Tunables for [`TcpSender`]. The values no caller varies are this
/// module's constants: the segment size (`SEGMENT_SIZE`), the initial
/// window, slow-start threshold and RTO (`INITIAL_CWND`,
/// `INITIAL_SSTHRESH`, `INITIAL_RTO`) and the RTO floor (`MIN_RTO`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// ACK size in bytes.
    pub ack_size: u32,
    /// Upper bound on the congestion window (receiver window stand-in).
    pub max_cwnd: f64,
    /// Upper bound for the RTO.
    pub max_rto: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            ack_size: 40,
            max_cwnd: 64.0,
            max_rto: SimDuration::from_secs(8),
        }
    }
}

impl TcpConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_cwnd.is_nan() || self.max_cwnd < INITIAL_CWND {
            return Err(format!(
                "max_cwnd must be >= the initial window ({INITIAL_CWND} segments)"
            ));
        }
        if self.max_rto < MIN_RTO {
            return Err(format!("max_rto must be >= the RTO floor ({MIN_RTO})"));
        }
        Ok(())
    }
}

/// Congestion-control phase, exposed for tests and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpPhase {
    /// Exponential window growth below `ssthresh`.
    SlowStart,
    /// Additive increase above `ssthresh`.
    CongestionAvoidance,
    /// Between a fast retransmit and the ACK covering `recover`.
    FastRecovery,
}

/// A TCP Reno-style bulk sender.
pub struct TcpSender {
    key: FlowKey,
    config: TcpConfig,
    is_attack: bool,
    started: bool,
    stop_after: Option<SimTime>,
    // Sliding window state (segment granularity).
    next_seq: u64,
    snd_una: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    recover: u64,
    in_fast_recovery: bool,
    // RTT machinery.
    rtt: RttEstimator,
    last_peer_ts: SimTime,
    rto_generation: u64,
    // Counters.
    data_sent: u64,
    retransmits: u64,
    timeouts: u64,
    probes_received: u64,
}

impl std::fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSender")
            .field("key", &self.key)
            .field("cwnd", &self.cwnd)
            .field("ssthresh", &self.ssthresh)
            .field("snd_una", &self.snd_una)
            .field("next_seq", &self.next_seq)
            .field("phase", &self.phase())
            .finish()
    }
}

impl TcpSender {
    /// Creates a sender for `key`.
    ///
    /// `is_attack` is ground truth recorded on every emitted packet; a
    /// compliant TCP attack flow would be throttled like any other TCP
    /// flow, so attack zombies normally use `UnresponsiveSender` instead.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation — a configuration bug.
    #[must_use]
    pub fn new(key: FlowKey, config: TcpConfig, is_attack: bool) -> Self {
        config.validate().expect("invalid TcpConfig");
        TcpSender {
            key,
            config,
            is_attack,
            started: false,
            stop_after: None,
            next_seq: 0,
            snd_una: 0,
            cwnd: INITIAL_CWND,
            ssthresh: INITIAL_SSTHRESH,
            dup_acks: 0,
            recover: 0,
            in_fast_recovery: false,
            rtt: RttEstimator::new(INITIAL_RTO, MIN_RTO, config.max_rto),
            last_peer_ts: SimTime::ZERO,
            rto_generation: 0,
            data_sent: 0,
            retransmits: 0,
            timeouts: 0,
            probes_received: 0,
        }
    }

    /// Stops sending new data after the given instant (retransmissions of
    /// in-flight data continue).
    pub fn set_stop_after(&mut self, at: SimTime) {
        self.stop_after = Some(at);
    }

    /// Current congestion window in segments.
    #[must_use]
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// The congestion-control phase.
    #[must_use]
    pub fn phase(&self) -> TcpPhase {
        if self.in_fast_recovery {
            TcpPhase::FastRecovery
        } else if self.cwnd < self.ssthresh {
            TcpPhase::SlowStart
        } else {
            TcpPhase::CongestionAvoidance
        }
    }

    /// The flow key this sender transmits on.
    #[must_use]
    pub fn flow_key(&self) -> FlowKey {
        self.key
    }

    fn sending_allowed(&self, now: SimTime) -> bool {
        match self.stop_after {
            Some(t) => now < t,
            None => true,
        }
    }

    fn send_segment(&self, seq: u64, ctx: &mut AgentCtx<'_>) {
        let kind = PacketKind::TcpData {
            seq,
            ts: ctx.now(),
            ts_echo: self.last_peer_ts,
        };
        ctx.send(self.key, kind, SEGMENT_SIZE, self.is_attack);
    }

    fn send_window(&mut self, ctx: &mut AgentCtx<'_>) {
        if !self.sending_allowed(ctx.now()) {
            return;
        }
        let window = self.cwnd.floor().max(1.0) as u64;
        while self.next_seq < self.snd_una + window {
            self.send_segment(self.next_seq, ctx);
            self.next_seq += 1;
            self.data_sent += 1;
        }
    }

    fn retransmit_head(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.snd_una >= self.next_seq {
            return;
        }
        self.send_segment(self.snd_una, ctx);
        self.data_sent += 1;
        self.retransmits += 1;
    }

    fn arm_rto(&mut self, ctx: &mut AgentCtx<'_>) {
        self.rto_generation += 1;
        ctx.schedule_in(self.rtt.rto(), self.rto_generation);
    }

    /// Shared multiplicative-decrease entry point for both genuine loss
    /// signals (three duplicate ACKs) and MAFIC probe bursts.
    fn enter_fast_recovery(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.in_fast_recovery {
            return;
        }
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
        self.in_fast_recovery = true;
        self.recover = self.next_seq;
        self.retransmit_head(ctx);
    }

    fn on_ack(&mut self, ack: u64, ts: SimTime, ts_echo: SimTime, ctx: &mut AgentCtx<'_>) {
        self.last_peer_ts = ts;
        if ack > self.snd_una {
            let newly_acked = ack - self.snd_una;
            self.snd_una = ack;
            self.dup_acks = 0;
            if ts_echo != SimTime::ZERO {
                let rtt = ctx.now().saturating_since(ts_echo);
                if !rtt.is_zero() {
                    self.rtt.sample(rtt);
                }
            }
            if self.in_fast_recovery {
                if ack >= self.recover {
                    self.in_fast_recovery = false;
                    self.cwnd = self.ssthresh;
                }
            } else if self.cwnd < self.ssthresh {
                // Slow start: one segment per ACKed segment.
                self.cwnd = (self.cwnd + newly_acked as f64).min(self.config.max_cwnd);
            } else {
                // Congestion avoidance: ~1 segment per RTT.
                self.cwnd = (self.cwnd + newly_acked as f64 / self.cwnd).min(self.config.max_cwnd);
            }
            self.arm_rto(ctx);
            self.send_window(ctx);
        } else if ack == self.snd_una && self.snd_una < self.next_seq {
            self.dup_acks += 1;
            if self.dup_acks == 3 {
                self.enter_fast_recovery(ctx);
            }
        }
    }
}

impl Agent for TcpSender {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        self.started = true;
        self.send_window(ctx);
        self.arm_rto(ctx);
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
        match packet.kind {
            PacketKind::TcpAck { ack, ts, ts_echo } => self.on_ack(ack, ts, ts_echo, ctx),
            PacketKind::ProbeDupAck { count } => {
                self.probes_received += 1;
                // A compliant source treats a duplicate-ACK burst as
                // congestion feedback: multiplicative decrease.
                if count >= 3 {
                    self.enter_fast_recovery(ctx);
                } else {
                    self.dup_acks += u32::from(count);
                    if self.dup_acks >= 3 {
                        self.enter_fast_recovery(ctx);
                    }
                }
            }
            // Data, UDP, or control addressed to a sender: ignore.
            PacketKind::TcpData { .. } | PacketKind::Udp | PacketKind::Pushback(_) => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AgentCtx<'_>) {
        if token != self.rto_generation {
            return; // Stale timer from a superseded schedule.
        }
        if self.snd_una >= self.next_seq {
            // Nothing outstanding; idle restart keeps the timer armed only
            // if data remains to be sent.
            if self.sending_allowed(ctx.now()) {
                self.send_window(ctx);
                self.arm_rto(ctx);
            }
            return;
        }
        // Retransmission timeout.
        self.timeouts += 1;
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dup_acks = 0;
        self.in_fast_recovery = false;
        self.rtt.backoff();
        self.retransmit_head(ctx);
        self.arm_rto(ctx);
    }
}

impl State for TcpSender {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_bool(self.started);
        w.write_opt(self.stop_after, |w, t| w.write_u64(t.as_nanos()));
        w.write_u64(self.next_seq);
        w.write_u64(self.snd_una);
        w.write_f64(self.cwnd);
        w.write_f64(self.ssthresh);
        w.write_u32(self.dup_acks);
        w.write_u64(self.recover);
        w.write_bool(self.in_fast_recovery);
        self.rtt.write_state(w);
        w.write_u64(self.last_peer_ts.as_nanos());
        w.write_u64(self.rto_generation);
        w.write_u64(self.data_sent);
        w.write_u64(self.retransmits);
        w.write_u64(self.timeouts);
        w.write_u64(self.probes_received);
    }

    /// The window fields size the burst `send_window` emits, so they are
    /// held to what the sender's own arithmetic can produce: `cwnd` in
    /// `[1, max(max_cwnd, 2)]`, `ssthresh` likewise or still at its
    /// initial value, and `snd_una <= next_seq`.
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let window = |r: &mut SnapReader<'_>, what: &str, max: f64| {
            let v = r.read_f64()?;
            if (1.0..=max).contains(&v) {
                return Ok(v);
            }
            Err(SnapError::Malformed(format!(
                "{what} {v} outside [1, {max}]"
            )))
        };
        let max_cwnd = self.config.max_cwnd.max(2.0);
        self.started = r.read_bool()?;
        self.stop_after = r.read_opt("stop-after", |r| r.read_u64().map(SimTime::from_nanos))?;
        self.next_seq = r.read_u64()?;
        self.snd_una = r.read_u64()?;
        if self.snd_una > self.next_seq {
            return Err(SnapError::Malformed(format!(
                "snd_una {} beyond next_seq {}",
                self.snd_una, self.next_seq
            )));
        }
        self.cwnd = window(r, "cwnd", max_cwnd)?;
        self.ssthresh = window(r, "ssthresh", max_cwnd.max(INITIAL_SSTHRESH))?;
        self.dup_acks = r.read_u32()?;
        self.recover = r.read_u64()?;
        self.in_fast_recovery = r.read_bool()?;
        self.rtt.read_state(r)?;
        self.last_peer_ts = SimTime::from_nanos(r.read_u64()?);
        self.rto_generation = r.read_u64()?;
        self.data_sent = r.read_u64()?;
        self.retransmits = r.read_u64()?;
        self.timeouts = r.read_u64()?;
        self.probes_received = r.read_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, AgentHarness};
    use mafic_netsim::{Addr, AgentId, Provenance};

    fn key() -> FlowKey {
        FlowKey::new(
            Addr::from_octets(10, 0, 0, 1),
            Addr::from_octets(10, 9, 0, 1),
            4000,
            80,
        )
    }

    fn ack_packet(ack: u64, now: SimTime) -> Packet {
        Packet {
            id: 999,
            key: key().reversed(),
            kind: PacketKind::TcpAck {
                ack,
                ts: now,
                ts_echo: SimTime::ZERO,
            },
            size_bytes: 40,
            created_at: now,
            provenance: Provenance {
                origin: AgentId::from_index(1),
                is_attack: false,
            },
            hops: 0,
        }
    }

    fn probe_packet(count: u8, now: SimTime) -> Packet {
        Packet {
            id: 998,
            key: key().reversed(),
            kind: PacketKind::ProbeDupAck { count },
            size_bytes: 40,
            created_at: now,
            provenance: Provenance::infrastructure(),
            hops: 0,
        }
    }

    fn sender() -> TcpSender {
        TcpSender::new(key(), TcpConfig::default(), false)
    }

    #[test]
    fn start_sends_initial_window() {
        let mut h = AgentHarness::new();
        let mut s = sender();
        let fx = h.start(&mut s);
        assert_eq!(fx.sent.len(), 2, "initial cwnd is 2 segments");
        assert!(matches!(
            fx.sent[0].kind,
            PacketKind::TcpData { seq: 0, .. }
        ));
        assert!(matches!(
            fx.sent[1].kind,
            PacketKind::TcpData { seq: 1, .. }
        ));
        assert_eq!(fx.timers.len(), 1, "RTO armed at start");
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let mut h = AgentHarness::new();
        let mut s = sender();
        let _ = h.start(&mut s);
        h.advance(SimDuration::from_millis(50));
        let fx = h.deliver(&mut s, ack_packet(2, h.now));
        assert_eq!(s.cwnd(), 4.0);
        assert_eq!(fx.sent.len(), 4);
        assert_eq!(s.phase(), TcpPhase::SlowStart);
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let mut h = AgentHarness::new();
        let mut s = sender();
        let _ = h.start(&mut s);
        h.advance(SimDuration::from_millis(20));
        let _ = h.deliver(&mut s, ack_packet(2, h.now));
        let _ = h.deliver(&mut s, ack_packet(3, h.now));
        let before = s.cwnd();
        let _ = h.deliver(&mut s, ack_packet(3, h.now));
        let _ = h.deliver(&mut s, ack_packet(3, h.now));
        let fx = h.deliver(&mut s, ack_packet(3, h.now));
        assert_eq!(s.phase(), TcpPhase::FastRecovery);
        assert!(s.cwnd() < before, "window must shrink on loss");
        assert_eq!(s.retransmits, 1);
        assert_eq!(fx.sent.len(), 1, "head-of-line retransmission");
        assert!(matches!(
            fx.sent[0].kind,
            PacketKind::TcpData { seq: 3, .. }
        ));
    }

    #[test]
    fn probe_burst_halves_window() {
        let mut h = AgentHarness::new();
        let mut s = sender();
        let _ = h.start(&mut s);
        h.advance(SimDuration::from_millis(20));
        let _ = h.deliver(&mut s, ack_packet(2, h.now));
        let _ = h.deliver(&mut s, ack_packet(4, h.now));
        let before = s.cwnd();
        let fx = h.deliver(&mut s, probe_packet(3, h.now));
        assert_eq!(s.probes_received, 1);
        assert_eq!(s.phase(), TcpPhase::FastRecovery);
        assert!(s.cwnd() <= before / 2.0 + 1e-9);
        assert_eq!(fx.sent.len(), 1, "probe also triggers a retransmission");
    }

    #[test]
    fn small_probe_bursts_accumulate() {
        let mut h = AgentHarness::new();
        let mut s = sender();
        let _ = h.start(&mut s);
        h.advance(SimDuration::from_millis(20));
        let _ = h.deliver(&mut s, ack_packet(2, h.now));
        let _ = h.deliver(&mut s, probe_packet(1, h.now));
        assert_ne!(s.phase(), TcpPhase::FastRecovery);
        let _ = h.deliver(&mut s, probe_packet(1, h.now));
        let _ = h.deliver(&mut s, probe_packet(1, h.now));
        assert_eq!(s.phase(), TcpPhase::FastRecovery);
    }

    #[test]
    fn rto_collapses_window_to_one() {
        let mut h = AgentHarness::new();
        let mut s = sender();
        let _ = h.start(&mut s);
        // Fire the armed RTO (generation 1) without any ACK.
        let fx = h.fire_timer(&mut s, 1);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(s.timeouts, 1);
        assert_eq!(fx.sent.len(), 1);
        assert!(matches!(
            fx.sent[0].kind,
            PacketKind::TcpData { seq: 0, .. }
        ));
    }

    #[test]
    fn stale_timer_is_ignored() {
        let mut h = AgentHarness::new();
        let mut s = sender();
        let _ = h.start(&mut s);
        h.advance(SimDuration::from_millis(10));
        let _ = h.deliver(&mut s, ack_packet(2, h.now)); // re-arms => generation 2
        let fx = h.fire_timer(&mut s, 1);
        assert!(fx.sent.is_empty());
        assert_eq!(s.timeouts, 0);
    }

    #[test]
    fn recovery_exits_on_covering_ack() {
        let mut h = AgentHarness::new();
        let mut s = sender();
        let _ = h.start(&mut s);
        h.advance(SimDuration::from_millis(20));
        let _ = h.deliver(&mut s, ack_packet(2, h.now));
        let _ = h.deliver(&mut s, probe_packet(3, h.now));
        assert_eq!(s.phase(), TcpPhase::FastRecovery);
        let recover_point = s.next_seq;
        let _ = h.deliver(&mut s, ack_packet(recover_point, h.now));
        assert_ne!(s.phase(), TcpPhase::FastRecovery);
    }

    #[test]
    fn rtt_sample_updates_estimator() {
        let mut h = AgentHarness::new();
        let mut s = sender();
        let _ = h.start(&mut s);
        h.advance(SimDuration::from_millis(80));
        // ts_echo carries the original send timestamp.
        let ack = Packet {
            id: 997,
            key: key().reversed(),
            kind: PacketKind::TcpAck {
                ack: 1,
                ts: h.now,
                ts_echo: SimTime::ZERO + SimDuration::from_millis(10),
            },
            size_bytes: 40,
            created_at: h.now,
            provenance: Provenance::infrastructure(),
            hops: 0,
        };
        let _ = h.deliver(&mut s, ack);
        // RTT sample = 80ms - 10ms = 70ms.
        assert!(s.rtt.srtt().is_some());
        assert_eq!(s.rtt.srtt().unwrap(), SimDuration::from_millis(70));
        // With a sample taken the estimator's option is `Some`.
        assert_state_law(&s.rtt, || sender().rtt);
        assert_state_law(&s, sender);
    }

    #[test]
    fn stop_after_halts_new_data() {
        let mut h = AgentHarness::new();
        let mut s = sender();
        s.set_stop_after(SimTime::from_secs_f64(0.5));
        let _ = h.start(&mut s);
        h.now = SimTime::from_secs_f64(1.0);
        let fx = h.deliver(&mut s, ack_packet(2, h.now));
        assert!(fx.sent.is_empty(), "no new data after stop_after");
    }

    #[test]
    fn cwnd_is_capped() {
        let mut h = AgentHarness::new();
        let mut s = sender();
        let _ = h.start(&mut s);
        let mut acked = 0u64;
        for _ in 0..50 {
            h.advance(SimDuration::from_millis(10));
            acked = s.next_seq;
            let _ = h.deliver(&mut s, ack_packet(acked, h.now));
        }
        assert!(s.cwnd() <= TcpConfig::default().max_cwnd);
        assert!(acked > 0);
    }

    #[test]
    fn snapshot_round_trips_window_and_rtt_state() {
        let mut h = AgentHarness::new();
        let mut s = sender();
        let _ = h.start(&mut s);
        h.advance(SimDuration::from_millis(50));
        let _ = h.deliver(&mut s, ack_packet(2, h.now));
        let _ = h.deliver(&mut s, probe_packet(3, h.now));
        assert_state_law(&s, sender);
        let bytes = state_bytes(&s);

        let mut g = sender();
        let mut r = mafic_netsim::SnapReader::new(&bytes);
        g.read_state(&mut r).expect("restore");
        assert!(r.is_empty(), "trailing bytes");
        assert_eq!(g.cwnd(), s.cwnd());
        assert_eq!(g.ssthresh, s.ssthresh);
        assert_eq!(g.phase(), TcpPhase::FastRecovery);
        assert_eq!(g.probes_received, 1);
        assert_eq!(g.rtt.srtt(), s.rtt.srtt());
        // Both exit recovery on the same covering ACK and resume in step.
        let recover_point = s.next_seq;
        let mut h2 = AgentHarness::new();
        h2.advance(h.now.saturating_since(SimTime::ZERO));
        let fx = h.deliver(&mut s, ack_packet(recover_point, h.now));
        let gx = h2.deliver(&mut g, ack_packet(recover_point, h2.now));
        assert_eq!(fx.sent.len(), gx.sent.len());
        assert_eq!(s.cwnd(), g.cwnd());
    }

    #[test]
    fn restore_rejects_a_window_the_sender_could_not_have_produced() {
        let mut h = AgentHarness::new();
        let mut s = sender();
        let _ = h.start(&mut s);
        let honest = state_bytes(&s);
        // Payload layout: started (1 byte), stop-after tag (1),
        // next_seq, snd_una, cwnd, ssthresh (8 each).
        let (snd_una, cwnd, ssthresh) = (10, 18, 26);
        for (at, value, field) in [
            // A restored 1e12-segment window made `send_window` emit
            // packets until the allocator gave up.
            (cwnd, 1e12f64.to_bits(), "cwnd"),
            (cwnd, f64::NAN.to_bits(), "cwnd"),
            (cwnd, 0.5f64.to_bits(), "cwnd"),
            (ssthresh, f64::INFINITY.to_bits(), "ssthresh"),
            (snd_una, u64::MAX, "snd_una"),
        ] {
            let mut doctored = honest.clone();
            doctored[at..at + 8].copy_from_slice(&value.to_le_bytes());
            match sender().read_state(&mut SnapReader::new(&doctored)) {
                Err(SnapError::Malformed(why)) => assert!(why.contains(field), "{why}"),
                other => panic!("doctored {field} at byte {at}: {other:?}"),
            }
        }
        sender()
            .read_state(&mut SnapReader::new(&honest))
            .expect("the honest payload still restores");
        // A window capped below the default initial ssthresh (cross
        // traffic is built that way) is honest and must restore.
        let capped = || {
            let config = TcpConfig {
                max_cwnd: 2.0,
                ..TcpConfig::default()
            };
            TcpSender::new(key(), config, false)
        };
        let mut slow = capped();
        let _ = h.start(&mut slow);
        assert_state_law(&slow, capped);
    }

    #[test]
    fn config_validation() {
        assert!(TcpConfig {
            max_cwnd: 1.0,
            ..TcpConfig::default()
        }
        .validate()
        .is_err());
        assert!(TcpConfig {
            max_rto: MIN_RTO / 2,
            ..TcpConfig::default()
        }
        .validate()
        .is_err());
        assert!(TcpConfig::default().validate().is_ok());
    }
}
