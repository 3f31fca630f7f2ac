//! The control-plane transport abstraction.
//!
//! A [`crate::DomainCoordinator`] decides *what* to say; a
//! [`ControlPlane`] decides *how it travels*. The workload runner's
//! implementation injects every envelope as a routed
//! `PacketKind::Pushback` packet over the simulated inter-domain links
//! (the deterministic in-band channel — see ARCHITECTURE.md); the
//! [`BufferedPlane`] here just records envelopes, which is all the unit
//! tests (and any out-of-simulator host) need.

use mafic_netsim::{ControlMsg, RequesterId};

/// Where a coordinator's outbound envelopes go.
///
/// Two directions, mirroring the pushback topology: `send_upstream`
/// fans an envelope out to every upstream escalation target (toward the
/// traffic sources); `send_downstream` answers one specific requester
/// (toward the victim — the only downstream party a coordinator ever
/// addresses is someone who just asked it for something).
pub trait ControlPlane {
    /// Sends `msg` to every upstream escalation target of this domain.
    fn send_upstream(&mut self, msg: ControlMsg);

    /// Sends `msg` back downstream to the requester it answers.
    fn send_downstream(&mut self, to: RequesterId, msg: ControlMsg);

    /// How many distinct upstream targets `send_upstream` fans out to.
    ///
    /// A coordinator only abandons escalation once *every* target has
    /// denied it; planes with one anonymous target keep the default.
    fn upstream_count(&self) -> usize {
        1
    }

    /// Sends `msg` upstream, skipping the targets in `except` (parents
    /// that already denied this victim). The default ignores the skip
    /// list: a single-target plane that reaches this path has an empty
    /// list, because one denial already ends escalation.
    fn send_upstream_except(&mut self, msg: ControlMsg, _except: &[RequesterId]) {
        self.send_upstream(msg);
    }
}

/// A [`ControlPlane`] that buffers envelopes in memory.
///
/// The reference non-packet implementation: unit tests assert on the
/// buffers, and a host embedding the coordinator outside the simulator
/// can drain them into whatever transport it owns.
#[derive(Debug, Default)]
pub struct BufferedPlane {
    /// Envelopes sent upstream, in send order.
    pub upstream: Vec<ControlMsg>,
    /// Envelopes sent downstream, with their addressee, in send order.
    pub downstream: Vec<(RequesterId, ControlMsg)>,
    /// Named upstream targets. Empty means one anonymous target (the
    /// default single-parent chain); naming them makes
    /// [`ControlPlane::upstream_count`] and the per-send skip lists
    /// observable in tests.
    pub upstream_targets: Vec<RequesterId>,
    /// Skip list attached to each `upstream` send, index-aligned with
    /// [`BufferedPlane::upstream`] (empty for unfiltered sends).
    pub upstream_skips: Vec<Vec<RequesterId>>,
}

impl BufferedPlane {
    /// Creates an empty plane with one anonymous upstream target.
    #[must_use]
    pub fn new() -> Self {
        BufferedPlane::default()
    }

    /// Drops everything buffered so far (targets are kept).
    pub fn clear(&mut self) {
        self.upstream.clear();
        self.downstream.clear();
        self.upstream_skips.clear();
    }
}

impl ControlPlane for BufferedPlane {
    fn send_upstream(&mut self, msg: ControlMsg) {
        self.upstream.push(msg);
        self.upstream_skips.push(Vec::new());
    }

    fn send_downstream(&mut self, to: RequesterId, msg: ControlMsg) {
        self.downstream.push((to, msg));
    }

    fn upstream_count(&self) -> usize {
        self.upstream_targets.len().max(1)
    }

    fn send_upstream_except(&mut self, msg: ControlMsg, except: &[RequesterId]) {
        self.upstream.push(msg);
        self.upstream_skips.push(except.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::{Addr, ControlVerb};

    #[test]
    fn buffered_plane_records_both_directions() {
        let me = RequesterId::new(Addr::new(1));
        let peer = RequesterId::new(Addr::new(2));
        let msg = ControlMsg::new(
            me,
            1,
            ControlVerb::Withdraw {
                victim: Addr::new(9),
            },
        );
        let mut plane = BufferedPlane::new();
        plane.send_upstream(msg);
        plane.send_downstream(peer, msg);
        assert_eq!(plane.upstream, vec![msg]);
        assert_eq!(plane.downstream, vec![(peer, msg)]);
        plane.clear();
        assert!(plane.upstream.is_empty() && plane.downstream.is_empty());
    }
}
