//! Packets, flow keys, and drop accounting.
//!
//! The flow label follows the paper: the 4-tuple
//! `{source IP, destination IP, source port, destination port}` identifies
//! a flow even when the source address is spoofed — spoofed packets with
//! the same claimed tuple form one flow, which is exactly the granularity
//! MAFIC's tables operate on.
//!
//! Every packet additionally carries [`Provenance`] — the *ground truth*
//! about who really sent it and whether it belongs to an attack. Only the
//! metrics layer may read provenance; the algorithm under test never does.

use crate::ids::{Addr, AgentId};
use crate::time::SimTime;
use mafic_obs::{SnapError, SnapReader, StateWrite};
use std::fmt;

/// The 4-tuple flow label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Claimed source address (possibly spoofed).
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Claimed source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl FlowKey {
    /// Creates a flow key.
    #[must_use]
    pub fn new(src: Addr, dst: Addr, src_port: u16, dst_port: u16) -> Self {
        FlowKey {
            src,
            dst,
            src_port,
            dst_port,
        }
    }

    /// The key of the reverse direction (ACK path).
    #[must_use]
    pub fn reversed(self) -> FlowKey {
        FlowKey {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// Packs the tuple into a 96-bit-equivalent pair for hashing.
    #[must_use]
    pub(crate) fn as_words(self) -> (u64, u64) {
        (
            (u64::from(self.src.as_u32()) << 32) | u64::from(self.dst.as_u32()),
            (u64::from(self.src_port) << 16) | u64::from(self.dst_port),
        )
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}->{}:{}",
            self.src, self.src_port, self.dst, self.dst_port
        )
    }
}

/// Version of the inter-domain pushback control protocol carried by
/// every [`ControlMsg`] envelope. Receivers deny envelopes from any
/// other version ([`DenyReason::BadVersion`]) instead of guessing at
/// their field semantics.
pub const CONTROL_PROTOCOL_VERSION: u8 = 2;

/// The authenticated identity of a pushback requester: the control
/// address of the domain boundary the message originated from.
///
/// The receiving control channel checks that the carrying packet's
/// source address matches the envelope's claimed requester, so a domain
/// cannot speak for another domain's boundary; the trust ledger then
/// decides whether that (authentic) requester is *authorized* to ask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequesterId(Addr);

impl RequesterId {
    /// Identity of the domain whose boundary owns `ctrl_addr`.
    #[must_use]
    pub fn new(ctrl_addr: Addr) -> Self {
        RequesterId(ctrl_addr)
    }

    /// The control address this identity is bound to.
    #[must_use]
    pub fn addr(self) -> Addr {
        self.0
    }
}

impl fmt::Display for RequesterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "requester({})", self.0)
    }
}

/// Why an upstream refused a pushback request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenyReason {
    /// The envelope carries an unknown protocol version.
    BadVersion,
    /// The requester is authentic but not authorized to ask this
    /// domain for drops (it is not a downstream neighbor on any
    /// victim-bound path through here).
    UntrustedRequester,
    /// The envelope's nonce did not advance past the last one accepted
    /// from this requester — a replayed or reordered message.
    Replayed,
    /// The claimed victim-bound aggregate is not corroborated by this
    /// domain's own boundary meter: the "victim" is observed receiving
    /// normal traffic, so installing drops would only cut legitimate
    /// flows (malicious pushback).
    Uncorroborated,
    /// The requester's install budget at this domain is exhausted.
    BudgetExhausted,
}

impl fmt::Display for DenyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DenyReason::BadVersion => "bad-version",
            DenyReason::UntrustedRequester => "untrusted-requester",
            DenyReason::Replayed => "replayed",
            DenyReason::Uncorroborated => "uncorroborated",
            DenyReason::BudgetExhausted => "budget-exhausted",
        };
        f.write_str(s)
    }
}

/// One verb of the inter-domain pushback protocol (see [`ControlMsg`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlVerb {
    /// Ask the upstream domain to install the defense for `victim`.
    Request {
        /// Address of the victim host under attack.
        victim: Addr,
        /// Victim-bound aggregate the requester observes entering its
        /// boundary (bytes/s) — the load its own deployment cannot stop
        /// at the source. The receiver corroborates this claim against
        /// its own meter before installing anything.
        aggregate_bps: u64,
        /// Escalation hops the receiver may still spend (depth cap).
        budget: u8,
    },
    /// Renew the lease on a previously requested defense. Carries the
    /// full lease state (RSVP-style soft-state refresh): a receiver
    /// whose lease lapsed — or that never saw the original request
    /// because the packet was lost on a congested link — re-installs
    /// the defense from the refresh alone (re-vetted like a request).
    Refresh {
        /// The victim the lease protects.
        victim: Addr,
        /// Escalation hops the receiver may still spend.
        budget: u8,
    },
    /// Tear the defense down (the requester stood down or its own
    /// lease lapsed). Cascades hop by hop toward the sources.
    Withdraw {
        /// The victim the defense protected.
        victim: Addr,
    },
    /// Victim-initiated stand-down: the victim domain observed healthy
    /// boundary traffic for its configured number of consecutive
    /// intervals and ends the conversation. Receivers tear down like a
    /// withdrawal and forward `Withdraw` to anyone *they* escalated to.
    Stop {
        /// The victim whose defense is ending.
        victim: Addr,
    },
    /// Upstream refusal, sent back downstream to the requester.
    Deny {
        /// The victim the refused request named.
        victim: Addr,
        /// Why the request was refused.
        reason: DenyReason,
    },
    /// Upstream status report, sent downstream to the requester that
    /// installed the defense. A chain-top defender is the only party
    /// that observes the *raw* victim-bound aggregate (nothing deeper
    /// is cutting it); each leased defender periodically reports its
    /// effective view — its own boundary inflow or the sum of its own
    /// upstreams' fresh reports, whichever is larger — so the victim
    /// can reconstruct the true flood scale. The victim's boundary
    /// meter alone cannot tell "flood ended" from "flood cut upstream"
    /// and must not stand the defense down on local evidence while
    /// escalated.
    Report {
        /// The victim the defense protects.
        victim: Addr,
        /// The reporter's effective victim-bound aggregate (bytes/s).
        aggregate_bps: u64,
    },
}

impl ControlVerb {
    /// The victim address this verb is about.
    #[must_use]
    pub fn victim(self) -> Addr {
        match self {
            ControlVerb::Request { victim, .. }
            | ControlVerb::Refresh { victim, .. }
            | ControlVerb::Withdraw { victim }
            | ControlVerb::Stop { victim }
            | ControlVerb::Deny { victim, .. }
            | ControlVerb::Report { victim, .. } => victim,
        }
    }
}

/// The versioned, identity-carrying envelope of the inter-domain
/// pushback control plane.
///
/// Every coordinator-to-coordinator message rides in one envelope:
/// protocol version, authenticated [`RequesterId`] (the originating
/// domain's boundary), a per-sender monotone nonce for replay
/// suppression, and the [`ControlVerb`]. Envelopes are **not** a side
/// channel: they travel inside [`PacketKind::Pushback`] packets over
/// the inter-domain links — serialized, delayed, queued, and ordered by
/// the deterministic event rules like any other traffic.
///
/// # Examples
///
/// Constructing a version-current request envelope:
///
/// ```
/// use mafic_netsim::{
///     Addr, ControlMsg, ControlVerb, RequesterId, CONTROL_PROTOCOL_VERSION,
/// };
///
/// let victim = Addr::from_octets(10, 200, 0, 1);
/// let me = RequesterId::new(Addr::from_octets(10, 250, 0, 1));
/// let msg = ControlMsg::new(
///     me,
///     1, // first nonce from this boundary
///     ControlVerb::Request { victim, aggregate_bps: 2_000_000, budget: 2 },
/// );
/// assert_eq!(msg.version, CONTROL_PROTOCOL_VERSION);
/// assert_eq!(msg.requester, me);
/// assert_eq!(msg.verb.victim(), victim);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlMsg {
    /// Protocol version ([`CONTROL_PROTOCOL_VERSION`] when built by
    /// [`ControlMsg::new`]).
    pub version: u8,
    /// Authenticated identity of the originating domain boundary.
    pub requester: RequesterId,
    /// Per-sender monotone sequence number (replay suppression).
    pub nonce: u64,
    /// What the sender asks for.
    pub verb: ControlVerb,
}

impl ControlMsg {
    /// Builds a version-current envelope.
    #[must_use]
    pub fn new(requester: RequesterId, nonce: u64, verb: ControlVerb) -> Self {
        ControlMsg {
            version: CONTROL_PROTOCOL_VERSION,
            requester,
            nonce,
            verb,
        }
    }
}

/// Transport-level content of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A TCP data segment.
    TcpData {
        /// Sequence number (in packets, not bytes — the simulator sends
        /// fixed-size segments).
        seq: u64,
        /// Sender timestamp option (TSval).
        ts: SimTime,
        /// Echoed peer timestamp (TSecr); `SimTime::ZERO` when none.
        ts_echo: SimTime,
    },
    /// A cumulative TCP acknowledgement.
    TcpAck {
        /// Next expected sequence number.
        ack: u64,
        /// Sender timestamp option.
        ts: SimTime,
        /// Echoed peer timestamp.
        ts_echo: SimTime,
    },
    /// A UDP datagram (no feedback loop).
    Udp,
    /// A MAFIC probe: a burst of duplicated ACKs addressed to the claimed
    /// flow source. `count` is the number of duplicate ACKs the burst
    /// represents (≥ 3 triggers fast retransmit in a compliant sender).
    ProbeDupAck {
        /// Number of duplicate ACKs in the burst.
        count: u8,
    },
    /// An inter-domain pushback control envelope in flight between two
    /// domain coordinators (see [`ControlMsg`]).
    Pushback(ControlMsg),
}

impl PacketKind {
    /// True for TCP data or ACK segments (used for the Γ share metrics).
    #[must_use]
    pub fn is_tcp(self) -> bool {
        matches!(self, PacketKind::TcpData { .. } | PacketKind::TcpAck { .. })
    }

    /// True for TCP data segments.
    #[cfg(test)]
    #[must_use]
    pub fn is_tcp_data(self) -> bool {
        matches!(self, PacketKind::TcpData { .. })
    }

    /// True for probe packets.
    #[cfg(test)]
    #[must_use]
    pub fn is_probe(self) -> bool {
        matches!(self, PacketKind::ProbeDupAck { .. })
    }

    /// True for inter-domain pushback control packets.
    #[cfg(test)]
    #[must_use]
    pub fn is_pushback(self) -> bool {
        matches!(self, PacketKind::Pushback(_))
    }
}

/// Ground truth about the real origin of a packet.
///
/// Carried for measurement only: drop decisions must never consult it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// The agent that truly generated the packet.
    pub origin: AgentId,
    /// True if the packet belongs to an attack flow.
    pub is_attack: bool,
}

impl Provenance {
    /// Provenance for infrastructure-generated packets (probes, control).
    #[must_use]
    pub fn infrastructure() -> Self {
        Provenance {
            origin: AgentId(u32::MAX),
            is_attack: false,
        }
    }
}

/// A simulated packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Domain-unique packet identifier (used by the LogLog sketches).
    pub id: u64,
    /// The flow 4-tuple.
    pub key: FlowKey,
    /// Transport payload description.
    pub kind: PacketKind,
    /// On-wire size in bytes (headers included).
    pub size_bytes: u32,
    /// Instant the packet was created by its sender.
    pub created_at: SimTime,
    /// Ground truth (metrics only).
    pub provenance: Provenance,
    /// Hops traversed so far; packets exceeding `Packet::MAX_HOPS` are
    /// dropped to keep misconfigured routing from looping forever.
    pub hops: u8,
}

impl Packet {
    /// Hop limit after which a packet is discarded.
    pub(crate) const MAX_HOPS: u8 = 64;

    /// A new packet at hop 0, numbered with the next id from `next_id`
    /// — the one place outside tests that builds a header, so no agent
    /// or filter chooses its own id, time or [`Provenance`].
    pub(crate) fn stamp(
        next_id: &mut u64,
        key: FlowKey,
        kind: PacketKind,
        size_bytes: u32,
        created_at: SimTime,
        provenance: Provenance,
    ) -> Packet {
        let id = *next_id;
        *next_id += 1;
        Packet {
            id,
            key,
            kind,
            size_bytes,
            created_at,
            provenance,
            hops: 0,
        }
    }

    /// True if this packet has exceeded its hop budget.
    #[must_use]
    pub(crate) fn hop_limit_exceeded(&self) -> bool {
        self.hops >= Self::MAX_HOPS
    }
}

/// Why a packet was dropped — the accounting backbone of every metric in
/// the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Drop-tail queue overflow on a link.
    QueueFull,
    /// No route toward the destination.
    NoRoute,
    /// Hop limit exceeded (routing loop guard).
    HopLimit,
    /// Random drop during MAFIC's probing phase (flow in SFT).
    FilterProbing,
    /// Drop because the flow is in the Permanently Drop Table.
    FilterPermanent,
    /// Immediate drop: claimed source address is illegal/unreachable.
    FilterIllegalSource,
    /// Drop by the proportional (baseline) policy.
    FilterProportional,
    /// Drop by an aggregate rate-limit policy (token bucket exhausted).
    FilterRateLimit,
    /// Drop by some other filter policy.
    FilterOther,
}

impl DropReason {
    /// True if the drop was decided by a defense filter rather than by the
    /// network itself.
    #[cfg(test)]
    #[must_use]
    pub fn is_filter_drop(self) -> bool {
        matches!(
            self,
            DropReason::FilterProbing
                | DropReason::FilterPermanent
                | DropReason::FilterIllegalSource
                | DropReason::FilterProportional
                | DropReason::FilterRateLimit
                | DropReason::FilterOther
        )
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DropReason::QueueFull => "queue-full",
            DropReason::NoRoute => "no-route",
            DropReason::HopLimit => "hop-limit",
            DropReason::FilterProbing => "filter-probing",
            DropReason::FilterPermanent => "filter-permanent",
            DropReason::FilterIllegalSource => "filter-illegal-source",
            DropReason::FilterProportional => "filter-proportional",
            DropReason::FilterRateLimit => "filter-rate-limit",
            DropReason::FilterOther => "filter-other",
        };
        f.write_str(s)
    }
}

impl FlowKey {
    /// Writes the 4-tuple: field by field into a checkpoint, as the two
    /// packed `FlowKey::as_words` into the ledger hash (the formats
    /// predate the shared walk and are pinned).
    pub fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.hash_only(|h| {
            let (a, b) = self.as_words();
            h.write_u64(a);
            h.write_u64(b);
        });
        w.snap_only(|w| {
            w.write_u32(self.src.as_u32());
            w.write_u32(self.dst.as_u32());
            w.write_u16(self.src_port);
            w.write_u16(self.dst_port);
        });
    }
}

/// Reads a flow key written by [`FlowKey::write_state`].
///
/// # Errors
///
/// [`SnapError::Truncated`] when the payload ends early.
pub fn read_flow_key(r: &mut SnapReader<'_>) -> Result<FlowKey, SnapError> {
    Ok(FlowKey {
        src: Addr::new(r.read_u32()?),
        dst: Addr::new(r.read_u32()?),
        src_port: r.read_u16()?,
        dst_port: r.read_u16()?,
    })
}

impl DenyReason {
    /// Every variant in declaration order: a reason's wire tag is its
    /// index here.
    pub(crate) const ALL: [DenyReason; 5] = [
        DenyReason::BadVersion,
        DenyReason::UntrustedRequester,
        DenyReason::Replayed,
        DenyReason::Uncorroborated,
        DenyReason::BudgetExhausted,
    ];

    fn write_state<W: StateWrite>(self, w: &mut W) {
        w.write_u8(self as u8);
    }
}

fn read_deny_reason(r: &mut SnapReader<'_>) -> Result<DenyReason, SnapError> {
    r.read_tag("deny-reason", &DenyReason::ALL)
}

impl ControlVerb {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        match self {
            ControlVerb::Request {
                victim,
                aggregate_bps,
                budget,
            } => {
                w.write_u8(0);
                w.write_u32(victim.as_u32());
                w.write_u64(*aggregate_bps);
                w.write_u8(*budget);
            }
            ControlVerb::Refresh { victim, budget } => {
                w.write_u8(1);
                w.write_u32(victim.as_u32());
                w.write_u8(*budget);
            }
            ControlVerb::Withdraw { victim } => {
                w.write_u8(2);
                w.write_u32(victim.as_u32());
            }
            ControlVerb::Stop { victim } => {
                w.write_u8(3);
                w.write_u32(victim.as_u32());
            }
            ControlVerb::Deny { victim, reason } => {
                w.write_u8(4);
                w.write_u32(victim.as_u32());
                reason.write_state(w);
            }
            ControlVerb::Report {
                victim,
                aggregate_bps,
            } => {
                w.write_u8(5);
                w.write_u32(victim.as_u32());
                w.write_u64(*aggregate_bps);
            }
        }
    }
}

fn read_control_verb(r: &mut SnapReader<'_>) -> Result<ControlVerb, SnapError> {
    Ok(match r.read_u8()? {
        0 => ControlVerb::Request {
            victim: Addr::new(r.read_u32()?),
            aggregate_bps: r.read_u64()?,
            budget: r.read_u8()?,
        },
        1 => ControlVerb::Refresh {
            victim: Addr::new(r.read_u32()?),
            budget: r.read_u8()?,
        },
        2 => ControlVerb::Withdraw {
            victim: Addr::new(r.read_u32()?),
        },
        3 => ControlVerb::Stop {
            victim: Addr::new(r.read_u32()?),
        },
        4 => ControlVerb::Deny {
            victim: Addr::new(r.read_u32()?),
            reason: read_deny_reason(r)?,
        },
        5 => ControlVerb::Report {
            victim: Addr::new(r.read_u32()?),
            aggregate_bps: r.read_u64()?,
        },
        tag => return Err(SnapError::Malformed(format!("control-verb tag {tag}"))),
    })
}

impl ControlMsg {
    /// Writes the full envelope (ledger hash and checkpoint alike).
    pub fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_u8(self.version);
        w.write_u32(self.requester.addr().as_u32());
        w.write_u64(self.nonce);
        self.verb.write_state(w);
    }
}

/// Reads a control envelope written by [`ControlMsg::write_state`].
///
/// # Errors
///
/// [`SnapError::Truncated`] on early end of payload,
/// [`SnapError::Malformed`] on an unknown verb tag.
pub fn read_control_msg(r: &mut SnapReader<'_>) -> Result<ControlMsg, SnapError> {
    Ok(ControlMsg {
        version: r.read_u8()?,
        requester: RequesterId::new(Addr::new(r.read_u32()?)),
        nonce: r.read_u64()?,
        verb: read_control_verb(r)?,
    })
}

impl PacketKind {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        match self {
            PacketKind::TcpData { seq, ts, ts_echo } => {
                w.write_u8(0);
                w.write_u64(*seq);
                w.write_u64(ts.as_nanos());
                w.write_u64(ts_echo.as_nanos());
            }
            PacketKind::TcpAck { ack, ts, ts_echo } => {
                w.write_u8(1);
                w.write_u64(*ack);
                w.write_u64(ts.as_nanos());
                w.write_u64(ts_echo.as_nanos());
            }
            PacketKind::Udp => w.write_u8(2),
            PacketKind::ProbeDupAck { count } => {
                w.write_u8(3);
                w.write_u8(*count);
            }
            PacketKind::Pushback(msg) => {
                w.write_u8(4);
                msg.write_state(w);
            }
        }
    }
}

fn read_packet_kind(r: &mut SnapReader<'_>) -> Result<PacketKind, SnapError> {
    Ok(match r.read_u8()? {
        0 => PacketKind::TcpData {
            seq: r.read_u64()?,
            ts: SimTime::from_nanos(r.read_u64()?),
            ts_echo: SimTime::from_nanos(r.read_u64()?),
        },
        1 => PacketKind::TcpAck {
            ack: r.read_u64()?,
            ts: SimTime::from_nanos(r.read_u64()?),
            ts_echo: SimTime::from_nanos(r.read_u64()?),
        },
        2 => PacketKind::Udp,
        3 => PacketKind::ProbeDupAck {
            count: r.read_u8()?,
        },
        4 => PacketKind::Pushback(read_control_msg(r)?),
        tag => return Err(SnapError::Malformed(format!("packet-kind tag {tag}"))),
    })
}

impl Packet {
    /// Writes the packet's full contents.
    pub(crate) fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_u64(self.id);
        self.key.write_state(w);
        self.kind.write_state(w);
        w.write_u32(self.size_bytes);
        w.write_u64(self.created_at.as_nanos());
        w.write_u32(self.provenance.origin.0);
        w.write_bool(self.provenance.is_attack);
        w.write_u8(self.hops);
    }
}

pub(crate) fn read_packet(r: &mut SnapReader<'_>) -> Result<Packet, SnapError> {
    Ok(Packet {
        id: r.read_u64()?,
        key: read_flow_key(r)?,
        kind: read_packet_kind(r)?,
        size_bytes: r.read_u32()?,
        created_at: SimTime::from_nanos(r.read_u64()?),
        provenance: Provenance {
            origin: AgentId(r.read_u32()?),
            is_attack: r.read_bool()?,
        },
        hops: r.read_u8()?,
    })
}

impl DropReason {
    /// Every variant in declaration order: a reason's wire tag is its
    /// index here.
    pub(crate) const ALL: [DropReason; 9] = [
        DropReason::QueueFull,
        DropReason::NoRoute,
        DropReason::HopLimit,
        DropReason::FilterProbing,
        DropReason::FilterPermanent,
        DropReason::FilterIllegalSource,
        DropReason::FilterProportional,
        DropReason::FilterRateLimit,
        DropReason::FilterOther,
    ];

    pub(crate) fn write_state<W: StateWrite>(self, w: &mut W) {
        w.write_u8(self as u8);
    }
}

pub(crate) fn read_drop_reason(r: &mut SnapReader<'_>) -> Result<DropReason, SnapError> {
    r.read_tag("drop-reason", &DropReason::ALL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_obs::SnapWriter;

    fn key() -> FlowKey {
        FlowKey::new(
            Addr::from_octets(10, 0, 0, 1),
            Addr::from_octets(10, 9, 0, 1),
            1234,
            80,
        )
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let k = key();
        let r = k.reversed();
        assert_eq!(r.src, k.dst);
        assert_eq!(r.dst, k.src);
        assert_eq!(r.src_port, k.dst_port);
        assert_eq!(r.dst_port, k.src_port);
        assert_eq!(r.reversed(), k);
    }

    #[test]
    fn words_distinguish_flows() {
        let a = key().as_words();
        let mut other = key();
        other.src_port = 1235;
        assert_ne!(a, other.as_words());
    }

    #[test]
    fn kind_predicates() {
        let data = PacketKind::TcpData {
            seq: 0,
            ts: SimTime::ZERO,
            ts_echo: SimTime::ZERO,
        };
        let ack = PacketKind::TcpAck {
            ack: 0,
            ts: SimTime::ZERO,
            ts_echo: SimTime::ZERO,
        };
        assert!(data.is_tcp() && data.is_tcp_data());
        assert!(ack.is_tcp() && !ack.is_tcp_data());
        assert!(!PacketKind::Udp.is_tcp());
        assert!(PacketKind::ProbeDupAck { count: 3 }.is_probe());
        let push = PacketKind::Pushback(ControlMsg::new(
            RequesterId::new(Addr::new(9)),
            1,
            ControlVerb::Refresh {
                victim: Addr::new(7),
                budget: 2,
            },
        ));
        assert!(push.is_pushback());
        assert!(!push.is_tcp() && !push.is_probe());
        assert!(!PacketKind::Udp.is_pushback());
    }

    #[test]
    fn drop_reason_classification() {
        assert!(DropReason::FilterProbing.is_filter_drop());
        assert!(DropReason::FilterPermanent.is_filter_drop());
        assert!(!DropReason::QueueFull.is_filter_drop());
        assert!(!DropReason::NoRoute.is_filter_drop());
    }

    #[test]
    fn display_formats() {
        assert_eq!(key().to_string(), "10.0.0.1:1234->10.9.0.1:80");
        assert_eq!(DropReason::QueueFull.to_string(), "queue-full");
    }

    #[test]
    fn snap_codecs_round_trip() {
        let kinds = [
            PacketKind::TcpData {
                seq: 7,
                ts: SimTime::from_nanos(11),
                ts_echo: SimTime::from_nanos(13),
            },
            PacketKind::TcpAck {
                ack: 9,
                ts: SimTime::from_nanos(17),
                ts_echo: SimTime::ZERO,
            },
            PacketKind::Udp,
            PacketKind::ProbeDupAck { count: 3 },
            PacketKind::Pushback(ControlMsg::new(
                RequesterId::new(Addr::new(9)),
                42,
                ControlVerb::Deny {
                    victim: Addr::new(7),
                    reason: DenyReason::Uncorroborated,
                },
            )),
        ];
        for (i, kind) in kinds.iter().enumerate() {
            let packet = Packet {
                id: 100 + i as u64,
                key: key(),
                kind: *kind,
                size_bytes: 500,
                created_at: SimTime::from_nanos(999),
                provenance: Provenance {
                    origin: AgentId(3),
                    is_attack: i % 2 == 0,
                },
                hops: 5,
            };
            let mut w = SnapWriter::new();
            packet.write_state(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            assert_eq!(read_packet(&mut r).unwrap(), packet);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn flow_key_hashes_as_words_and_snapshots_as_fields() {
        let mut w = SnapWriter::new();
        key().write_state(&mut w);
        assert_eq!(w.into_bytes().len(), 12, "two addresses, two ports");
        let mut walked = mafic_obs::HashWriter::new();
        key().write_state(&mut walked);
        let (a, b) = key().as_words();
        let mut words = mafic_obs::Fnv64::new();
        words.write_u64(a);
        words.write_u64(b);
        assert_eq!(walked.finish(), words.finish());
    }

    #[test]
    fn drop_and_deny_reasons_tag_as_their_declaration_index() {
        for (i, reason) in DropReason::ALL.into_iter().enumerate() {
            let mut w = SnapWriter::new();
            reason.write_state(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(bytes, [i as u8]);
            assert_eq!(read_drop_reason(&mut SnapReader::new(&bytes)), Ok(reason));
        }
        for (i, reason) in DenyReason::ALL.into_iter().enumerate() {
            let mut w = SnapWriter::new();
            reason.write_state(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(bytes, [i as u8]);
            assert_eq!(read_deny_reason(&mut SnapReader::new(&bytes)), Ok(reason));
        }
        let unused = [DropReason::ALL.len() as u8];
        assert_eq!(
            read_drop_reason(&mut SnapReader::new(&unused)),
            Err(SnapError::Malformed("drop-reason tag 9".to_string()))
        );
        let unused = [DenyReason::ALL.len() as u8];
        assert_eq!(
            read_deny_reason(&mut SnapReader::new(&unused)),
            Err(SnapError::Malformed("deny-reason tag 5".to_string()))
        );
    }

    #[test]
    fn snap_codec_rejects_unknown_tags() {
        let mut w = SnapWriter::new();
        w.write_u8(200);
        let bytes = w.into_bytes();
        assert!(matches!(
            read_drop_reason(&mut SnapReader::new(&bytes)),
            Err(SnapError::Malformed(_))
        ));
        assert!(matches!(
            read_packet_kind(&mut SnapReader::new(&bytes)),
            Err(SnapError::Malformed(_))
        ));
        assert!(matches!(
            read_control_verb(&mut SnapReader::new(&bytes)),
            Err(SnapError::Malformed(_))
        ));
    }

    #[test]
    fn hop_limit() {
        let mut p = Packet {
            id: 1,
            key: key(),
            kind: PacketKind::Udp,
            size_bytes: 500,
            created_at: SimTime::ZERO,
            provenance: Provenance::infrastructure(),
            hops: 0,
        };
        assert!(!p.hop_limit_exceeded());
        p.hops = Packet::MAX_HOPS;
        assert!(p.hop_limit_exceeded());
    }
}
