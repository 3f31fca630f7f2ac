//! # mafic-transport
//!
//! Transport-layer agents for the MAFIC network simulator: the traffic
//! sources and sinks whose reaction (or non-reaction) to packet loss is
//! what MAFIC's probing discriminates on.
//!
//! * [`TcpSender`] / [`TcpSink`] — a Reno-style TCP pair: slow start,
//!   congestion avoidance, fast retransmit on three duplicate ACKs, RTO
//!   with backoff, and timestamp echoing. A compliant sender halves its
//!   window on a MAFIC probe burst, making its arrival rate drop within
//!   one RTT — the signature of a "nice" flow.
//! * [`UnresponsiveSender`] — constant-rate UDP or TCP-looking senders
//!   that ignore all feedback: the attack zombies (and the occasional
//!   legitimate-but-unresponsive source whose collateral cost the paper
//!   accepts).
//! * [`RttEstimator`] — Jacobson/Karels RTT smoothing shared by the TCP
//!   machinery.
//!
//! # Example
//!
//! ```
//! use mafic_transport::{TcpConfig, TcpSender};
//! use mafic_netsim::{Addr, FlowKey};
//!
//! let key = FlowKey::new(
//!     Addr::from_octets(10, 0, 0, 1),
//!     Addr::from_octets(10, 9, 0, 1),
//!     5000,
//!     80,
//! );
//! let sender = TcpSender::new(key, TcpConfig::default(), false);
//! assert_eq!(sender.cwnd(), 2.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unreachable_pub)]

mod cbr;
mod rtt;
mod sink;
mod tcp;
mod victim;
mod window;

pub use cbr::{CbrConfig, CbrProtocol, UnresponsiveSender};
pub use rtt::RttEstimator;
pub use sink::TcpSink;
pub use tcp::{TcpConfig, TcpPhase, TcpSender};
pub use victim::VictimSink;
