//! The aggregate rate-limit policy — the cheapest transit-AS defense.
//!
//! A single token bucket caps the victim-bound *aggregate* byte rate:
//! no per-flow tables, no probes, no timers — O(1) state and O(1) work
//! per packet. It is deliberately crude (it cannot tell a zombie from a
//! compliant source inside the capped aggregate), which is exactly the
//! trade-off the heterogeneous-deployment experiments quantify against
//! full MAFIC and the proportional baseline.

use crate::policy::TAG_RATE_LIMIT;
use mafic_netsim::{
    Addr, DropReason, FilterAction, FilterControl, FilterCtx, Packet, PacketEnv, PacketFilter,
    SimTime, StatNote,
};
use mafic_obs::{SnapError, SnapReader, State, StateWrite};

/// How much burst the bucket tolerates, as seconds of the sustained
/// limit. 100 ms absorbs one monitor interval's worth of jitter without
/// letting a pulse through undiminished.
const BURST_SECONDS: f64 = 0.1;

/// Token-bucket rate limiter for victim-bound traffic.
///
/// Idle until a `PushbackStart` control message arrives (like every
/// defense filter). While active, a packet destined to the victim is
/// forwarded only if the bucket holds enough tokens for its size;
/// otherwise it is dropped with [`DropReason::FilterRateLimit`]. The
/// bucket refills continuously at the configured byte rate and holds at
/// most `BURST_SECONDS` worth of tokens. Refill arithmetic is plain
/// `f64` evaluated in a fixed order, so replays are bit-identical.
#[derive(Debug)]
pub struct RateLimitFilter {
    limit_bytes_per_sec: f64,
    burst_bytes: f64,
    tokens: f64,
    last_refill: SimTime,
    active: Option<Addr>,
    examined: u64,
    dropped: u64,
}

impl RateLimitFilter {
    /// Creates an inactive rate limiter admitting `limit_bytes_per_sec`
    /// of victim-bound traffic once activated.
    ///
    /// # Panics
    ///
    /// Panics if the limit is not finite and positive — a configuration
    /// bug (the workload layer validates specs before building).
    #[must_use]
    pub fn new(limit_bytes_per_sec: f64) -> Self {
        assert!(
            limit_bytes_per_sec.is_finite() && limit_bytes_per_sec > 0.0,
            "rate limit {limit_bytes_per_sec} must be finite and positive"
        );
        let burst_bytes = (limit_bytes_per_sec * BURST_SECONDS).max(1500.0);
        RateLimitFilter {
            limit_bytes_per_sec,
            burst_bytes,
            tokens: burst_bytes,
            last_refill: SimTime::ZERO,
            active: None,
            examined: 0,
            dropped: 0,
        }
    }

    /// True while a pushback request is in force.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// The sustained victim-bound byte rate admitted while active.
    #[must_use]
    pub fn limit_bytes_per_sec(&self) -> f64 {
        self.limit_bytes_per_sec
    }

    /// Packets examined while active.
    #[must_use]
    pub fn examined(&self) -> u64 {
        self.examined
    }

    /// Packets dropped by the bucket.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// State held by this filter, in bytes: the whole struct — one
    /// token bucket, no per-flow tables (the policy's selling point).
    #[must_use]
    pub fn approx_state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    /// Activates the defense for `victim` with a full bucket.
    pub fn activate(&mut self, victim: Addr, now: SimTime) {
        self.active = Some(victim);
        self.tokens = self.burst_bytes;
        self.last_refill = now;
    }

    /// Deactivates the defense.
    pub fn deactivate(&mut self) {
        self.active = None;
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.limit_bytes_per_sec).min(self.burst_bytes);
        self.last_refill = now;
    }
}

impl State for RateLimitFilter {
    /// The limit and burst are build-time configuration: hashed, not
    /// saved.
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.hash_only(|h| {
            h.write_u8(TAG_RATE_LIMIT);
            h.write_f64(self.limit_bytes_per_sec);
            h.write_f64(self.burst_bytes);
        });
        w.write_f64(self.tokens);
        w.write_u64(self.last_refill.as_nanos());
        w.write_opt(self.active, |w, victim| w.write_u32(victim.as_u32()));
        w.write_u64(self.examined);
        w.write_u64(self.dropped);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.tokens = r.read_f64()?;
        self.last_refill = SimTime::from_nanos(r.read_u64()?);
        self.active = r.read_opt("ratelimit-active", |r| r.read_u32().map(Addr::new))?;
        self.examined = r.read_u64()?;
        self.dropped = r.read_u64()?;
        Ok(())
    }
}

impl PacketFilter for RateLimitFilter {
    fn on_packet(
        &mut self,
        packet: &Packet,
        _env: &PacketEnv,
        ctx: &mut FilterCtx<'_>,
    ) -> FilterAction {
        let Some(victim) = self.active else {
            return FilterAction::Forward;
        };
        if packet.key.dst != victim {
            return FilterAction::Forward;
        }
        self.examined += 1;
        ctx.note(StatNote::AtrSeen, Some(packet));
        self.refill(ctx.now());
        let size = f64::from(packet.size_bytes);
        if self.tokens >= size {
            self.tokens -= size;
            FilterAction::Forward
        } else {
            self.dropped += 1;
            FilterAction::Drop(DropReason::FilterRateLimit)
        }
    }

    fn on_control(&mut self, msg: &FilterControl, ctx: &mut FilterCtx<'_>) {
        match msg {
            FilterControl::PushbackStart { victim } => self.activate(*victim, ctx.now()),
            FilterControl::PushbackStop => self.deactivate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, state_hash, FilterHarness};
    use mafic_netsim::{FlowKey, PacketKind, Provenance, SimDuration};

    const VICTIM: Addr = Addr::new(0x0AC8_0001);

    fn pkt(dst: Addr, size: u32) -> Packet {
        Packet {
            id: 1,
            key: FlowKey::new(Addr::from_octets(10, 1, 0, 1), dst, 5, 80),
            kind: PacketKind::Udp,
            size_bytes: size,
            created_at: SimTime::ZERO,
            provenance: Provenance::infrastructure(),
            hops: 0,
        }
    }

    #[test]
    fn inactive_filter_forwards_everything() {
        let mut h = FilterHarness::new();
        let mut f = RateLimitFilter::new(1000.0);
        let fx = h.offer_transit(&mut f, &pkt(VICTIM, 500));
        assert_eq!(fx.action, Some(FilterAction::Forward));
        assert_eq!(f.examined(), 0);
    }

    #[test]
    fn other_destinations_are_untouched() {
        let mut h = FilterHarness::new();
        let mut f = RateLimitFilter::new(1000.0);
        f.activate(VICTIM, h.now);
        let fx = h.offer_transit(&mut f, &pkt(Addr::new(9), 500));
        assert_eq!(fx.action, Some(FilterAction::Forward));
        assert_eq!(f.examined(), 0);
    }

    #[test]
    fn burst_passes_then_bucket_drops() {
        let mut h = FilterHarness::new();
        // 10 kB/s => burst clamps up to one MTU-and-a-half (1500 bytes).
        let mut f = RateLimitFilter::new(10_000.0);
        f.activate(VICTIM, h.now);
        // Three 500-byte packets drain the bucket; the fourth dies.
        for _ in 0..3 {
            let fx = h.offer_transit(&mut f, &pkt(VICTIM, 500));
            assert_eq!(fx.action, Some(FilterAction::Forward));
        }
        let fx = h.offer_transit(&mut f, &pkt(VICTIM, 500));
        assert_eq!(
            fx.action,
            Some(FilterAction::Drop(DropReason::FilterRateLimit))
        );
        assert_eq!(f.dropped(), 1);
        assert_eq!(f.examined(), 4);
    }

    #[test]
    fn tokens_refill_over_time() {
        let mut h = FilterHarness::new();
        let mut f = RateLimitFilter::new(10_000.0);
        f.activate(VICTIM, h.now);
        for _ in 0..3 {
            let _ = h.offer_transit(&mut f, &pkt(VICTIM, 500));
        }
        // Bucket empty. 50 ms at 10 kB/s refills 500 bytes.
        h.advance(SimDuration::from_millis(50));
        let fx = h.offer_transit(&mut f, &pkt(VICTIM, 500));
        assert_eq!(fx.action, Some(FilterAction::Forward));
        // Immediately after, the bucket is dry again.
        let fx = h.offer_transit(&mut f, &pkt(VICTIM, 500));
        assert_eq!(
            fx.action,
            Some(FilterAction::Drop(DropReason::FilterRateLimit))
        );
    }

    #[test]
    fn sustained_rate_approximates_the_limit() {
        let mut h = FilterHarness::new();
        // 50 kB/s against a 500 kB/s offered load of 500-byte packets.
        let mut f = RateLimitFilter::new(50_000.0);
        f.activate(VICTIM, h.now);
        let mut forwarded = 0u64;
        for _ in 0..1000 {
            if h.offer_transit(&mut f, &pkt(VICTIM, 500)).action == Some(FilterAction::Forward) {
                forwarded += 1;
            }
            h.advance(SimDuration::from_millis(1));
        }
        // 1 s of 50 kB/s admits ~100 packets of 500 B (+ the burst).
        assert!(
            (90..=220).contains(&forwarded),
            "expected ~100-200 forwarded, got {forwarded}"
        );
    }

    #[test]
    fn control_messages_toggle_and_refill() {
        let mut h = FilterHarness::new();
        let mut f = RateLimitFilter::new(10_000.0);
        let _ = h.control(&mut f, &FilterControl::PushbackStart { victim: VICTIM });
        assert!(f.is_active());
        for _ in 0..2 {
            let _ = h.offer_transit(&mut f, &pkt(VICTIM, 500));
        }
        let _ = h.control(&mut f, &FilterControl::PushbackStop);
        assert!(!f.is_active());
        // Re-activation starts with a full bucket.
        let _ = h.control(&mut f, &FilterControl::PushbackStart { victim: VICTIM });
        let fx = h.offer_transit(&mut f, &pkt(VICTIM, 500));
        assert_eq!(fx.action, Some(FilterAction::Forward));
    }

    #[test]
    #[should_panic(expected = "must be finite and positive")]
    fn zero_limit_is_rejected() {
        let _ = RateLimitFilter::new(0.0);
    }

    #[test]
    fn snapshot_round_trips_bucket_state() {
        let mut h = FilterHarness::new();
        let mut f = RateLimitFilter::new(10_000.0);
        f.activate(VICTIM, h.now);
        for _ in 0..2 {
            let _ = h.offer_transit(&mut f, &pkt(VICTIM, 500));
        }
        assert_state_law(&f, || RateLimitFilter::new(10_000.0));
        let bytes = state_bytes(&f);

        let mut g = RateLimitFilter::new(10_000.0);
        let mut r = SnapReader::new(&bytes);
        g.read_state(&mut r).expect("restore");
        assert!(r.is_empty());
        assert!(g.is_active());
        assert_eq!(g.examined(), 2);
        // The drained bucket carries over: a third packet still passes
        // (500 B left of the 1500 B burst), the fourth dies — identical
        // verdicts from the original and the restored filter.
        for _ in 0..2 {
            let fx = h.offer_transit(&mut f, &pkt(VICTIM, 500));
            let mut h2 = FilterHarness::new();
            h2.advance(h.now.saturating_since(SimTime::ZERO));
            let gx = h2.offer_transit(&mut g, &pkt(VICTIM, 500));
            assert_eq!(fx.action, gx.action);
        }
    }

    #[test]
    fn the_limit_is_hashed_but_not_saved() {
        let (a, b) = (
            RateLimitFilter::new(10_000.0),
            RateLimitFilter::new(20_000.0),
        );
        assert_ne!(state_hash(&a), state_hash(&b));
        // tokens, last_refill, inactive tag, two counters — no config.
        assert_eq!((state_bytes(&a).len(), state_bytes(&b).len()), (33, 33));
    }
}
