//! The per-domain pushback coordinator state machine.
//!
//! One coordinator sits at every domain boundary. Driven once per
//! monitor interval with the victim-bound aggregate entering the
//! domain's Attack Transit Routers, it decides when to escalate the
//! defense one hop upstream, when to renew the resulting lease, when to
//! refuse someone else's request, and when to tear everything down. The
//! machine is pure — local effects come out as [`PushbackAction`]s and
//! every inter-domain envelope goes through the caller's
//! [`ControlPlane`] — so the same logic drives the workload runner and
//! the unit tests below.
//!
//! ## Lifecycle
//!
//! ```text
//!          local_start / granted Request      sustained pressure
//!   Idle ───────────────────────────▶ Defending ───────────────▶ Escalated
//!    ▲                                   │  ▲                        │
//!    │        (one interval later)       │  │ Deny received          │
//!    └──────────── StandingDown ◀────────┴──┴────────────────────────┘
//!                      subsidence (victim) / Stop / Withdraw / lease expiry
//! ```
//!
//! * **Idle** — no defense. A victim-domain coordinator waits for
//!   [`DomainCoordinator::local_start`]; an upstream one for a vetted
//!   `Request`.
//! * **Defending** — the local ATR filters are active.
//! * **Escalated** — defending, plus a soft-state lease held one hop
//!   upstream (kept alive by periodic `Refresh`).
//! * **StandingDown** — teardown was initiated this interval (the local
//!   deactivation and any upstream `Stop`/`Withdraw` are already out);
//!   the next interval returns to **Idle**. Upstream coordinators whose
//!   teardown is externally driven (a `Withdraw`, a lapsed lease) skip
//!   the marker state and return to Idle directly — StandingDown exists
//!   so the *initiator* of a stand-down is observable for one tick.
//!
//! ## Protocol
//!
//! Every envelope is vetted by the domain's [`TrustLedger`] before it
//! can touch the filters — version, authenticated requester, replay
//! nonce, attestation against the domain's own boundary meter, and the
//! per-requester install budget (see [`crate::trust`]). A failed vetting
//! of a `Request`/`Refresh` answers the requester with `Deny{reason}`;
//! a coordinator whose own request was denied falls back to Defending
//! and never re-escalates (the upstream said no — asking again with the
//! same evidence would only burn its budget).
//!
//! * **Escalation (with hysteresis).** While defending, if the observed
//!   inflow stays above `threshold_bps` for [`TRIGGER_INTERVALS`]
//!   *consecutive* intervals (any dip resets the counter) and budget
//!   remains, send `Request{budget-1}` upstream.
//! * **Leases (soft state).** An upstream defense installed by a
//!   request lives only while `Refresh` envelopes keep arriving: the
//!   requester refreshes every `REFRESH_INTERVALS`; a receiver that
//!   hears nothing for [`HOLD_INTERVALS`] stands down on its own and
//!   forwards `Withdraw` to anyone *it* escalated to. Refreshes carry
//!   the full lease state (victim + budget, RSVP-style), so a receiver
//!   that missed the original request — or whose lease lapsed —
//!   re-installs from the next refresh (re-vetted like a request).
//! * **Withdrawal.** `Withdraw` (or lease expiry) cascades teardown
//!   upstream hop by hop.
//! * **Status reports.** Every leased defender periodically sends
//!   `Report{aggregate}` downstream to its lessor: its own boundary
//!   inflow or the sum of its upstreams' fresh reports, whichever is
//!   larger. Chain tops see the *raw* flood (nothing deeper cuts it),
//!   so the victim can reconstruct the true flood scale however deep
//!   the defense sits.
//! * **Stand-down (`Stop`).** A victim-domain coordinator with
//!   `subsidence_intervals > 0` watches the effective flood scale
//!   while defending — its boundary inflow when the defense is local,
//!   the report-reconstructed aggregate once escalated (a quiet local
//!   boundary could just mean the upstream defense works). Once the
//!   effective scale stays at or below `healthy_bps` for that many
//!   consecutive intervals, the flood has subsided — the victim
//!   deactivates the local defense, sends `Stop` upstream, and the
//!   teardown cascades as withdrawals through the whole chain.

use crate::plane::ControlPlane;
use crate::trust::{TrustConfig, TrustLedger};
use mafic_netsim::{Addr, ControlMsg, ControlVerb, DenyReason, RequesterId};
use mafic_obs::{SnapError, SnapReader, State, StateWrite};
use std::collections::BTreeMap;
use std::fmt;

/// Why a [`PushbackConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PushbackConfigError {
    /// `threshold_bps` was non-finite or not positive.
    NonPositiveThreshold(f64),
    /// `healthy_bps` was non-finite or not positive.
    NonPositiveHealthyRate(f64),
    /// `subsidence_source_floor` was non-finite or negative.
    NegativeSourceFloor(f64),
    /// `trust.attestation_fraction` was outside `[0, 1]`.
    AttestationFractionOutOfRange(f64),
}

impl fmt::Display for PushbackConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PushbackConfigError::NonPositiveThreshold(v) => {
                write!(f, "threshold_bps must be finite and > 0, got {v}")
            }
            PushbackConfigError::NonPositiveHealthyRate(v) => {
                write!(f, "healthy_bps must be finite and > 0, got {v}")
            }
            PushbackConfigError::NegativeSourceFloor(v) => {
                write!(
                    f,
                    "subsidence_source_floor must be finite and >= 0, got {v}"
                )
            }
            PushbackConfigError::AttestationFractionOutOfRange(v) => {
                write!(f, "trust.attestation_fraction must be in [0, 1], got {v}")
            }
        }
    }
}

impl std::error::Error for PushbackConfigError {}

/// Consecutive intervals above threshold before escalating.
pub const TRIGGER_INTERVALS: u32 = 4;
/// Send a lease `Refresh` upstream (and a `Report` downstream) every
/// this many intervals.
const REFRESH_INTERVALS: u32 = 5;
/// Stand down after this many intervals without hearing from the
/// downstream requester (upstream domains only); upstream reports
/// older than this are stale.
pub const HOLD_INTERVALS: u32 = 12;
// A healthy lease must outlive the gap between its own refreshes.
const _: () = assert!(HOLD_INTERVALS > REFRESH_INTERVALS);

/// Tunables of a domain coordinator.
///
/// Only values some caller varies are fields. The values nobody varies
/// are the constants in this module: the escalation trigger
/// ([`TRIGGER_INTERVALS`]), the lease refresh period
/// (`REFRESH_INTERVALS`) and the lease itself ([`HOLD_INTERVALS`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushbackConfig {
    /// Escalate while the victim-bound inflow exceeds this (bytes/s).
    pub threshold_bps: f64,
    /// Boundary inflow at or below this (bytes/s) counts as a healthy
    /// interval for the victim's subsidence detector. Sits above the
    /// escalation threshold on purpose: normal legitimate load fills
    /// the victim link, so "healthy" means *not overloaded*, not
    /// *quiet*.
    pub healthy_bps: f64,
    /// Consecutive healthy intervals after which a victim-domain
    /// coordinator stands the whole defense down (`Stop` upstream).
    /// `0` disables subsidence detection.
    pub subsidence_intervals: u32,
    /// Secondary subsidence evidence: when the victim-side distinct
    /// source-address cardinality (fed via
    /// [`DomainCoordinator::set_observed_sources`]) is positive and at
    /// or below this floor, the interval counts as healthy even above
    /// `healthy_bps` — a handful of senders saturating the link is
    /// aggressive-but-legit load, not a flood. `0` disables the guard.
    pub subsidence_source_floor: f64,
    /// Per-requester trust knobs (install budget, attestation).
    pub trust: TrustConfig,
}

impl Default for PushbackConfig {
    fn default() -> Self {
        PushbackConfig {
            // Standalone defaults sized for the stock 10 Mbit/s victim
            // link. This crate deliberately knows nothing about
            // topology; the workload layer derives both rate knobs from
            // the *actual* victim link (`ScenarioSpec::pushback_config`
            // is authoritative there), so these literals only serve
            // direct library users and tests.
            //
            // A quarter of the victim link, in bytes/s.
            threshold_bps: 312_500.0,
            // 1.5x the same victim link: offered load above this means
            // the link is overloaded beyond what TCP alone produces.
            healthy_bps: 1_875_000.0,
            subsidence_intervals: 8,
            subsidence_source_floor: 0.0,
            trust: TrustConfig::default(),
        }
    }
}

impl PushbackConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the [`PushbackConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), PushbackConfigError> {
        if !self.threshold_bps.is_finite() || self.threshold_bps <= 0.0 {
            return Err(PushbackConfigError::NonPositiveThreshold(
                self.threshold_bps,
            ));
        }
        if !self.healthy_bps.is_finite() || self.healthy_bps <= 0.0 {
            return Err(PushbackConfigError::NonPositiveHealthyRate(
                self.healthy_bps,
            ));
        }
        if !self.subsidence_source_floor.is_finite() || self.subsidence_source_floor < 0.0 {
            return Err(PushbackConfigError::NegativeSourceFloor(
                self.subsidence_source_floor,
            ));
        }
        if !self.trust.attestation_fraction.is_finite()
            || !(0.0..=1.0).contains(&self.trust.attestation_fraction)
        {
            return Err(PushbackConfigError::AttestationFractionOutOfRange(
                self.trust.attestation_fraction,
            ));
        }
        Ok(())
    }
}

/// Where a coordinator sits on the pushback path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushbackRole {
    /// The victim's own domain: its defense starts from the local
    /// detector, so no lease applies — but it owns the subsidence
    /// detector and the `Stop` that ends the conversation.
    Victim,
    /// Any domain upstream of the victim: defends on vetted request,
    /// holds a lease.
    Upstream,
}

/// Where a coordinator is in the defense lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleState {
    /// No defense.
    Idle,
    /// Local ATR filters active; nothing escalated upstream.
    Defending,
    /// Defending, plus a lease held one hop upstream.
    Escalated,
    /// Teardown initiated this interval; Idle on the next.
    StandingDown,
}

impl LifecycleState {
    /// Every state in declaration order: a state's wire tag is its index
    /// here.
    const ALL: [LifecycleState; 4] = [
        LifecycleState::Idle,
        LifecycleState::Defending,
        LifecycleState::Escalated,
        LifecycleState::StandingDown,
    ];
}

/// A local effect the coordinator asks its host (the workload runner)
/// to apply. Inter-domain envelopes never appear here — they go through
/// the [`ControlPlane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushbackAction {
    /// Activate the domain's ATR filters for `victim`.
    ActivateLocal {
        /// The victim to defend.
        victim: Addr,
    },
    /// Deactivate the domain's ATR filters (flushes their tables).
    DeactivateLocal,
}

/// Counters of a coordinator's own control-plane activity. Denials
/// *issued* live in the [`TrustLedger`]; these are the send/receive
/// sides.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Escalation decisions (one per `Request` handed to the control
    /// plane; the plane may fan it out to several upstream targets).
    pub requests_sent: u64,
    /// `Refresh` envelopes sent upstream.
    pub refreshes_sent: u64,
    /// `Withdraw` envelopes sent upstream.
    pub withdraws_sent: u64,
    /// `Stop` envelopes sent upstream (victim-initiated stand-downs).
    pub stops_sent: u64,
    /// `Report` status envelopes sent downstream to the lessor.
    pub reports_sent: u64,
    /// `Deny` envelopes received from upstream.
    pub denies_received: u64,
}

/// The coordinator state machine for one domain boundary.
#[derive(Debug, Clone)]
pub struct DomainCoordinator {
    config: PushbackConfig,
    role: PushbackRole,
    identity: RequesterId,
    state: LifecycleState,
    victim: Option<Addr>,
    budget: u8,
    above: u32,
    healthy: u32,
    since_refresh: u32,
    since_heard: u32,
    next_nonce: u64,
    /// Upstream targets that denied the current escalation. Denied
    /// targets are skipped by refreshes (a sibling that granted keeps
    /// its lease alive); only when *every* target has denied does the
    /// coordinator fall back to defending locally.
    denied_by: Vec<RequesterId>,
    since_report: u32,
    /// The downstream requester whose request installed this defense
    /// (upstream role only) — where `Report` status goes.
    lessor: Option<RequesterId>,
    /// Latest vetted upstream report per sender: `(aggregate, age)` in
    /// intervals. Reports older than [`HOLD_INTERVALS`] are stale.
    reports: BTreeMap<RequesterId, (u64, u32)>,
    /// Victim-side distinct source-address cardinality for the current
    /// interval (the LogLog tap's address-sketch estimate), fed by the
    /// host before `on_interval`. Secondary subsidence evidence; unused
    /// while `config.subsidence_source_floor` is `0`.
    observed_sources: f64,
    ledger: TrustLedger,
    stats: CoordinatorStats,
}

impl DomainCoordinator {
    /// Creates an idle coordinator whose envelopes carry `identity`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation — a configuration bug.
    #[must_use]
    pub fn new(config: PushbackConfig, role: PushbackRole, identity: RequesterId) -> Self {
        config.validate().expect("invalid PushbackConfig");
        DomainCoordinator {
            config,
            role,
            identity,
            state: LifecycleState::Idle,
            victim: None,
            budget: 0,
            above: 0,
            healthy: 0,
            since_refresh: 0,
            since_heard: 0,
            next_nonce: 0,
            denied_by: Vec::new(),
            since_report: 0,
            lessor: None,
            reports: BTreeMap::new(),
            observed_sources: 0.0,
            ledger: TrustLedger::new(config.trust),
            stats: CoordinatorStats::default(),
        }
    }

    /// Feeds the victim-side distinct source-address estimate for the
    /// interval about to be judged. Call before
    /// [`on_interval`](DomainCoordinator::on_interval); the value only
    /// matters on victim-role coordinators with a positive
    /// `subsidence_source_floor`.
    pub fn set_observed_sources(&mut self, cardinality: f64) {
        self.observed_sources = cardinality;
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> LifecycleState {
        self.state
    }

    /// True while this domain's defense is (supposed to be) active.
    #[must_use]
    pub fn is_defending(&self) -> bool {
        matches!(
            self.state,
            LifecycleState::Defending | LifecycleState::Escalated
        )
    }

    /// True once this domain has escalated upstream.
    #[cfg(test)]
    #[must_use]
    pub fn is_escalated(&self) -> bool {
        self.state == LifecycleState::Escalated
    }

    /// The victim currently defended, if any.
    #[must_use]
    pub fn victim(&self) -> Option<Addr> {
        self.victim
    }

    /// Remaining escalation budget from this domain.
    #[must_use]
    pub fn budget(&self) -> u8 {
        self.budget
    }

    /// The identity this coordinator's envelopes carry.
    #[must_use]
    pub fn identity(&self) -> RequesterId {
        self.identity
    }

    /// The domain's trust ledger (denial tallies, granted installs).
    #[must_use]
    pub fn ledger(&self) -> &TrustLedger {
        &self.ledger
    }

    /// Send/receive counters of this coordinator.
    #[must_use]
    pub fn stats(&self) -> &CoordinatorStats {
        &self.stats
    }

    /// Marks `requester` as an authorized downstream neighbor (wired at
    /// scenario-build time from the inverted escalation topology).
    pub fn authorize(&mut self, requester: RequesterId) {
        self.ledger.authorize(requester);
    }

    /// Marks `identity` as one of this domain's upstream escalation
    /// targets, whose `Deny`/`Report` replies are believed (wired at
    /// scenario-build time).
    pub fn trust_upstream(&mut self, identity: RequesterId) {
        self.ledger.authorize_upstream(identity);
    }

    /// Builds a version-current envelope with the next nonce.
    fn envelope(&mut self, verb: ControlVerb) -> ControlMsg {
        self.next_nonce += 1;
        ControlMsg::new(self.identity, self.next_nonce, verb)
    }

    /// The edge into Defending: `victim` with `budget` escalation hops,
    /// installed by `lessor` (`None`: started by the local detector).
    /// Every per-engagement counter of either role restarts. A
    /// victim-role coordinator never moves `since_heard` or
    /// `since_report`, and an upstream one never moves `healthy`, so
    /// resetting the other role's counters changes nothing.
    fn engage(&mut self, victim: Addr, budget: u8, lessor: Option<RequesterId>) {
        self.state = LifecycleState::Defending;
        self.victim = Some(victim);
        self.budget = budget;
        self.above = 0;
        self.healthy = 0;
        self.since_refresh = 0;
        self.since_heard = 0;
        self.since_report = 0;
        self.denied_by.clear();
        self.lessor = lessor;
        self.reports.clear();
    }

    /// The edge into Idle: the engagement is forgotten.
    fn disengage(&mut self) {
        self.state = LifecycleState::Idle;
        self.victim = None;
        self.above = 0;
        self.healthy = 0;
        self.since_heard = 0;
        self.lessor = None;
        self.reports.clear();
    }

    /// Victim-domain entry point: the local detector triggered the
    /// defense with `budget` escalation hops available. Idempotent.
    pub fn local_start(&mut self, victim: Addr, budget: u8) {
        if !self.is_defending() {
            self.engage(victim, budget, None);
        }
    }

    /// Victim-domain entry point: the local defense stood down for an
    /// external reason (the host deactivates its own filters).
    /// Withdraws any escalated upstream defense.
    #[cfg(test)]
    pub fn local_stop(&mut self, plane: &mut dyn ControlPlane) {
        if self.is_defending() {
            self.stand_down(plane, &mut Vec::new());
        }
    }

    /// Deactivate the local defense and cascade the withdrawal. Used
    /// for externally driven teardown (Withdraw/Stop received, lease
    /// expiry) — goes straight to Idle.
    fn stand_down(&mut self, plane: &mut dyn ControlPlane, actions: &mut Vec<PushbackAction>) {
        actions.push(PushbackAction::DeactivateLocal);
        if self.state == LifecycleState::Escalated {
            let victim = self.victim.expect("escalated implies a victim");
            let msg = self.envelope(ControlVerb::Withdraw { victim });
            plane.send_upstream(msg);
            self.stats.withdraws_sent += 1;
        }
        self.disengage();
    }

    /// Installs (or renews) a vetted defense. Fresh installs activate
    /// the local filters and remember the lessor (where `Report`
    /// status goes); a renewal only refreshes the lease clock and
    /// may widen the budget.
    fn install(
        &mut self,
        requester: RequesterId,
        victim: Addr,
        budget: u8,
        actions: &mut Vec<PushbackAction>,
    ) {
        if self.is_defending() {
            self.since_heard = 0;
            // A repeated request can only widen the budget.
            self.budget = self.budget.max(budget);
        } else {
            self.engage(victim, budget, Some(requester));
            actions.push(PushbackAction::ActivateLocal { victim });
        }
    }

    /// The coordinator's effective view of the victim-bound flood:
    /// `max(total boundary inflow, local-ingress inflow + Σ fresh
    /// upstream reports)`. The two summands are disjoint — reports
    /// cover traffic that would enter over the inter-domain borders,
    /// local ingress covers the domain's own hosts — so the raw flood
    /// scale survives however deep the chain cutting it, without
    /// double-counting pass-through traffic the way `local + reports`
    /// over the *total* inflow would. A chain top has no reports and
    /// judges its raw inflow.
    fn effective_bps(&self, inflow_bps: f64, local_bps: f64) -> f64 {
        let reported: u64 = self
            .reports
            .values()
            .filter(|&&(_, age)| age <= HOLD_INTERVALS)
            .map(|&(bps, _)| bps)
            .sum();
        inflow_bps.max(local_bps + reported as f64)
    }

    /// True when fresh upstream evidence exists for subsidence judging.
    fn has_fresh_reports(&self) -> bool {
        self.reports.values().any(|&(_, age)| age <= HOLD_INTERVALS)
    }

    /// Vets a renewal of the live lease (a `Request`/`Refresh` while
    /// defending): identity-level checks, plus the sender must be the
    /// lessor that installed this defense and name the victim it
    /// covers. Anything else — a sibling neighbor trying to keep the
    /// filters up past their lease, or a request for a different victim
    /// — is refused without touching the lease clock. (One lease per
    /// boundary by design; a second victim's request is denied until
    /// the current defense stands down.)
    fn vet_renewal(&mut self, msg: &ControlMsg, victim: Addr) -> Result<(), DenyReason> {
        self.ledger.vet_identity(msg)?;
        if self.victim != Some(victim) || self.lessor != Some(msg.requester) {
            self.ledger.note_denial(DenyReason::UntrustedRequester);
            return Err(DenyReason::UntrustedRequester);
        }
        Ok(())
    }

    /// Feeds one envelope received over the domain's control channel.
    /// `inflow_bps` is the domain's own victim-bound boundary inflow
    /// over the current interval — the attestation evidence.
    pub fn on_message(
        &mut self,
        msg: ControlMsg,
        inflow_bps: f64,
        plane: &mut dyn ControlPlane,
        actions: &mut Vec<PushbackAction>,
    ) {
        match msg.verb {
            ControlVerb::Request { victim, budget, .. }
            | ControlVerb::Refresh { victim, budget } => {
                let vetted = if self.is_defending() {
                    self.vet_renewal(&msg, victim)
                } else {
                    // Fresh install from a refresh (lost request or
                    // lapsed lease): no claim to corroborate, so the
                    // local meter itself must show attack scale.
                    let claim = match msg.verb {
                        ControlVerb::Request { aggregate_bps, .. } => Some(aggregate_bps as f64),
                        _ => None,
                    };
                    self.ledger
                        .vet_install(&msg, claim, self.config.threshold_bps, inflow_bps)
                };
                match vetted {
                    Ok(()) => self.install(msg.requester, victim, budget, actions),
                    Err(reason) => self.deny(msg.requester, victim, reason, plane),
                }
            }
            ControlVerb::Withdraw { victim } | ControlVerb::Stop { victim } => {
                // Teardown is vetted too: beyond version/identity/nonce,
                // only the lessor that installed this defense may tear
                // it down, and only for the victim it actually covers —
                // a sibling downstream neighbor (compromised or not)
                // cannot strip someone else's live lease.
                if self.ledger.vet_identity(&msg).is_ok()
                    && self.is_defending()
                    && self.victim == Some(victim)
                    && self.lessor == Some(msg.requester)
                {
                    self.stand_down(plane, actions);
                }
            }
            ControlVerb::Deny { victim, .. } => {
                // Only a known upstream target's refusal counts — a
                // forged Deny must not switch the escalation off.
                if self.ledger.vet_upstream(&msg).is_err() {
                    return;
                }
                self.stats.denies_received += 1;
                if self.state == LifecycleState::Escalated && self.victim == Some(victim) {
                    // This target said no: stop asking *it* (refreshes
                    // skip the denied list), but a sibling that granted
                    // keeps its lease refreshed. Only when every target
                    // has denied does escalation fall back to a purely
                    // local defense — and it never retries with the
                    // same evidence.
                    if !self.denied_by.contains(&msg.requester) {
                        self.denied_by.push(msg.requester);
                    }
                    if self.denied_by.len() >= plane.upstream_count() {
                        self.state = LifecycleState::Defending;
                        self.above = 0;
                    }
                }
            }
            ControlVerb::Report {
                victim,
                aggregate_bps,
            } => {
                // Upstream status: the flood scale as seen from the
                // chain top (or an aggregation thereof). Believed only
                // from a vetted upstream target; feeds the subsidence
                // judgment and is relayed downstream in this domain's
                // own reports.
                if self.ledger.vet_upstream(&msg).is_ok()
                    && self.is_defending()
                    && self.victim == Some(victim)
                {
                    self.reports.insert(msg.requester, (aggregate_bps, 0));
                }
            }
        }
    }

    /// Answers a failed vetting.
    fn deny(
        &mut self,
        to: RequesterId,
        victim: Addr,
        reason: DenyReason,
        plane: &mut dyn ControlPlane,
    ) {
        let msg = self.envelope(ControlVerb::Deny { victim, reason });
        plane.send_downstream(to, msg);
    }

    /// Advances the machine one monitor interval. `inflow_bps` is the
    /// victim-bound byte rate observed entering the domain's ATRs over
    /// the elapsed interval (pre-filter); `local_bps` is the part of it
    /// entering through the domain's *own ingress* (local hosts) rather
    /// than over inter-domain borders — the component no upstream
    /// report can cover. A domain whose ATRs are all local (a stub, the
    /// single-domain case) passes `local_bps = inflow_bps`; a pure
    /// transit boundary passes `0`.
    pub fn on_interval(
        &mut self,
        inflow_bps: f64,
        local_bps: f64,
        plane: &mut dyn ControlPlane,
        actions: &mut Vec<PushbackAction>,
    ) {
        match self.state {
            LifecycleState::Idle => return,
            LifecycleState::StandingDown => {
                self.disengage();
                return;
            }
            LifecycleState::Defending | LifecycleState::Escalated => {}
        }
        if self.role == PushbackRole::Upstream {
            self.since_heard += 1;
            if self.since_heard > HOLD_INTERVALS {
                // Lease expired: the requester vanished.
                self.stand_down(plane, actions);
                return;
            }
        }
        let victim = self.victim.expect("defending implies a victim");
        // Upstream reports age one interval; a leased defender relays
        // its effective view downstream every `REFRESH_INTERVALS`, so
        // the victim can reconstruct the raw flood scale no matter how
        // deep the chain cutting it.
        for entry in self.reports.values_mut() {
            entry.1 = entry.1.saturating_add(1);
        }
        if self.role == PushbackRole::Upstream {
            self.since_report += 1;
            if self.since_report >= REFRESH_INTERVALS {
                self.since_report = 0;
                if let Some(lessor) = self.lessor {
                    let aggregate_bps = self.effective_bps(inflow_bps, local_bps) as u64;
                    let msg = self.envelope(ControlVerb::Report {
                        victim,
                        aggregate_bps,
                    });
                    plane.send_downstream(lessor, msg);
                    self.stats.reports_sent += 1;
                }
            }
        }
        // Subsidence (victim only). The local healthy streak alone is
        // sound evidence only while nothing upstream is cutting the
        // flood (state Defending, where the boundary meter sees the
        // raw aggregate). Once escalated, "my boundary is quiet" could
        // just mean the upstream defense works — the judgment then
        // runs on the effective (report-reconstructed) flood scale and
        // requires at least one fresh upstream report.
        if self.role == PushbackRole::Victim && self.config.subsidence_intervals > 0 {
            let evidence = match self.state {
                LifecycleState::Escalated => self
                    .has_fresh_reports()
                    .then(|| self.effective_bps(inflow_bps, local_bps)),
                _ => Some(inflow_bps),
            };
            // The bandwidth ceiling alone misreads a few aggressive
            // legit senders filling the link as an ongoing attack. The
            // source floor supplies the missing dimension: flood-scale
            // bytes from flood-scale *cardinality* keeps the defense
            // up; the same bytes from a handful of senders reads
            // healthy.
            let few_sources = self.config.subsidence_source_floor > 0.0
                && self.observed_sources > 0.0
                && self.observed_sources <= self.config.subsidence_source_floor;
            match evidence {
                Some(bps) if bps <= self.config.healthy_bps || few_sources => self.healthy += 1,
                _ => self.healthy = 0,
            }
            if self.healthy >= self.config.subsidence_intervals {
                // The victim ends the conversation for the whole chain.
                actions.push(PushbackAction::DeactivateLocal);
                if self.state == LifecycleState::Escalated {
                    let msg = self.envelope(ControlVerb::Stop { victim });
                    plane.send_upstream(msg);
                    self.stats.stops_sent += 1;
                }
                self.state = LifecycleState::StandingDown;
                self.above = 0;
                self.healthy = 0;
                return;
            }
        }
        if self.state == LifecycleState::Escalated {
            self.since_refresh += 1;
            if self.since_refresh >= REFRESH_INTERVALS {
                self.since_refresh = 0;
                let budget = self.budget.saturating_sub(1);
                let msg = self.envelope(ControlVerb::Refresh { victim, budget });
                plane.send_upstream_except(msg, &self.denied_by);
                self.stats.refreshes_sent += 1;
            }
        } else if self.budget > 0 && self.denied_by.len() < plane.upstream_count() {
            if inflow_bps > self.config.threshold_bps {
                self.above += 1;
            } else {
                self.above = 0; // Hysteresis: a dip restarts the count.
            }
            if self.above >= TRIGGER_INTERVALS {
                self.state = LifecycleState::Escalated;
                self.since_refresh = 0;
                let msg = self.envelope(ControlVerb::Request {
                    victim,
                    aggregate_bps: inflow_bps as u64,
                    budget: self.budget - 1,
                });
                plane.send_upstream(msg);
                self.stats.requests_sent += 1;
            }
        }
    }
}

impl State for DomainCoordinator {
    /// The mutable lifecycle state. `role` and `identity` are build-time
    /// wiring: hashed, but restored from the rebuilt coordinator, not
    /// the checkpoint (as is `config`, which is in neither). The nested
    /// trust ledger rides along so nonce replay-protection survives a
    /// restore.
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.hash_only(|h| {
            h.write_u8(match self.role {
                PushbackRole::Victim => 0,
                PushbackRole::Upstream => 1,
            });
            h.write_u32(self.identity.addr().as_u32());
        });
        w.write_u8(self.state as u8);
        w.write_opt(self.victim, |w, addr| w.write_u32(addr.as_u32()));
        w.write_u8(self.budget);
        w.write_u32(self.above);
        w.write_u32(self.healthy);
        w.write_u32(self.since_refresh);
        w.write_u32(self.since_heard);
        w.write_u64(self.next_nonce);
        w.write_seq(&self.denied_by, |w, id| w.write_u32(id.addr().as_u32()));
        w.write_u32(self.since_report);
        w.write_opt(self.lessor, |w, id| w.write_u32(id.addr().as_u32()));
        w.write_seq(&self.reports, |w, (id, (aggregate, age))| {
            w.write_u32(id.addr().as_u32());
            w.write_u64(*aggregate);
            w.write_u32(*age);
        });
        w.write_f64(self.observed_sources);
        self.ledger.write_state(w);
        w.write_u64(self.stats.requests_sent);
        w.write_u64(self.stats.refreshes_sent);
        w.write_u64(self.stats.withdraws_sent);
        w.write_u64(self.stats.stops_sent);
        w.write_u64(self.stats.reports_sent);
        w.write_u64(self.stats.denies_received);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.state = r.read_tag("lifecycle", &LifecycleState::ALL)?;
        let requester = |r: &mut SnapReader<'_>| Ok(RequesterId::new(Addr::new(r.read_u32()?)));
        self.victim = r.read_opt("victim", |r| r.read_u32().map(Addr::new))?;
        self.budget = r.read_u8()?;
        self.above = r.read_u32()?;
        self.healthy = r.read_u32()?;
        self.since_refresh = r.read_u32()?;
        self.since_heard = r.read_u32()?;
        self.next_nonce = r.read_u64()?;
        self.denied_by = r.read_seq(requester)?;
        self.since_report = r.read_u32()?;
        self.lessor = r.read_opt("lessor", requester)?;
        self.reports = r.read_seq(|r| Ok((requester(r)?, (r.read_u64()?, r.read_u32()?))))?;
        self.observed_sources = r.read_f64()?;
        self.ledger.read_state(r)?;
        self.stats.requests_sent = r.read_u64()?;
        self.stats.refreshes_sent = r.read_u64()?;
        self.stats.withdraws_sent = r.read_u64()?;
        self.stats.stops_sent = r.read_u64()?;
        self.stats.reports_sent = r.read_u64()?;
        self.stats.denies_received = r.read_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::BufferedPlane;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, state_hash};

    const VICTIM: Addr = Addr::new(0x0AC8_0001);

    fn identity(octet: u32) -> RequesterId {
        RequesterId::new(Addr::new(0x0BFA_0000 + octet))
    }

    fn config() -> PushbackConfig {
        PushbackConfig {
            threshold_bps: 1000.0,
            healthy_bps: 2000.0,
            subsidence_intervals: 0,
            subsidence_source_floor: 0.0,
            trust: TrustConfig {
                request_budget: 8,
                attestation_fraction: 0.25,
            },
        }
    }

    fn victim_coord(budget: u8) -> DomainCoordinator {
        let mut c = DomainCoordinator::new(config(), PushbackRole::Victim, identity(0));
        c.trust_upstream(identity(1));
        c.local_start(VICTIM, budget);
        c
    }

    /// An upstream coordinator that trusts `identity(0)`.
    fn upstream_coord() -> DomainCoordinator {
        let mut c = DomainCoordinator::new(config(), PushbackRole::Upstream, identity(1));
        c.authorize(identity(0));
        c
    }

    /// One interval with an all-local boundary (`local == inflow`) —
    /// the victim/stub shape used by most tests.
    fn tick(
        c: &mut DomainCoordinator,
        inflow: f64,
        plane: &mut BufferedPlane,
    ) -> Vec<PushbackAction> {
        let mut actions = Vec::new();
        c.on_interval(inflow, inflow, plane, &mut actions);
        actions
    }

    fn deliver(
        c: &mut DomainCoordinator,
        msg: ControlMsg,
        inflow: f64,
        plane: &mut BufferedPlane,
    ) -> Vec<PushbackAction> {
        let mut actions = Vec::new();
        c.on_message(msg, inflow, plane, &mut actions);
        actions
    }

    fn request(nonce: u64, aggregate_bps: u64, budget: u8) -> ControlMsg {
        ControlMsg::new(
            identity(0),
            nonce,
            ControlVerb::Request {
                victim: VICTIM,
                aggregate_bps,
                budget,
            },
        )
    }

    fn refresh(nonce: u64, budget: u8) -> ControlMsg {
        ControlMsg::new(
            identity(0),
            nonce,
            ControlVerb::Refresh {
                victim: VICTIM,
                budget,
            },
        )
    }

    #[test]
    fn escalates_after_sustained_pressure() {
        let mut plane = BufferedPlane::new();
        let mut c = victim_coord(2);
        for _ in 1..TRIGGER_INTERVALS {
            assert!(tick(&mut c, 5000.0, &mut plane).is_empty());
        }
        assert!(plane.upstream.is_empty());
        let actions = tick(&mut c, 5000.0, &mut plane);
        assert!(actions.is_empty(), "escalation is not a local action");
        assert_eq!(plane.upstream.len(), 1);
        let sent = plane.upstream[0];
        assert_eq!(sent.requester, identity(0));
        assert_eq!(sent.version, mafic_netsim::CONTROL_PROTOCOL_VERSION);
        assert_eq!(
            sent.verb,
            ControlVerb::Request {
                victim: VICTIM,
                aggregate_bps: 5000,
                budget: 1,
            }
        );
        assert!(c.is_escalated());
        assert_eq!(c.stats().requests_sent, 1);
    }

    #[test]
    fn nonces_increase_monotonically_across_sends() {
        let mut plane = BufferedPlane::new();
        let mut c = victim_coord(2);
        for _ in 0..TRIGGER_INTERVALS + REFRESH_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        assert!(plane.upstream.len() >= 2, "request plus refreshes");
        for pair in plane.upstream.windows(2) {
            assert!(pair[1].nonce > pair[0].nonce);
        }
    }

    #[test]
    fn pressure_dip_resets_the_trigger_counter() {
        let mut plane = BufferedPlane::new();
        let mut c = victim_coord(1);
        for _ in 1..TRIGGER_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        let _ = tick(&mut c, 10.0, &mut plane); // dip
        for _ in 1..TRIGGER_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        assert!(!c.is_escalated(), "counter must restart after the dip");
        let _ = tick(&mut c, 5000.0, &mut plane);
        assert!(c.is_escalated());
    }

    #[test]
    fn zero_budget_never_escalates() {
        let mut plane = BufferedPlane::new();
        let mut c = victim_coord(0);
        for _ in 0..20 {
            assert!(tick(&mut c, 1e9, &mut plane).is_empty());
        }
        assert!(!c.is_escalated());
        assert!(plane.upstream.is_empty());
    }

    #[test]
    fn idle_coordinator_does_nothing() {
        let mut plane = BufferedPlane::new();
        let mut c = upstream_coord();
        assert!(tick(&mut c, 1e9, &mut plane).is_empty());
        assert!(!c.is_defending());
        assert_eq!(c.state(), LifecycleState::Idle);
    }

    #[test]
    fn vetted_request_activates_and_budget_caps_the_cascade() {
        let mut plane = BufferedPlane::new();
        let mut c = upstream_coord();
        let actions = deliver(&mut c, request(1, 9000, 1), 9000.0, &mut plane);
        assert_eq!(
            actions,
            vec![PushbackAction::ActivateLocal { victim: VICTIM }]
        );
        assert!(c.is_defending());
        assert_eq!(c.budget(), 1);
        assert_eq!(c.ledger().granted_installs(), 1);
        // Sustained pressure escalates once more, with budget exhausted.
        for _ in 0..TRIGGER_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        assert!(matches!(
            plane.upstream[..],
            [ControlMsg {
                verb: ControlVerb::Request { budget: 0, .. },
                ..
            }]
        ));
    }

    #[test]
    fn untrusted_request_is_denied_not_installed() {
        let mut plane = BufferedPlane::new();
        // No authorize() call: the requester is unknown here.
        let mut c = DomainCoordinator::new(config(), PushbackRole::Upstream, identity(1));
        let actions = deliver(&mut c, request(1, 9000, 1), 9000.0, &mut plane);
        assert!(actions.is_empty());
        assert!(!c.is_defending());
        assert_eq!(plane.downstream.len(), 1);
        let (to, msg) = plane.downstream[0];
        assert_eq!(to, identity(0));
        assert_eq!(
            msg.verb,
            ControlVerb::Deny {
                victim: VICTIM,
                reason: DenyReason::UntrustedRequester,
            }
        );
        assert_eq!(c.ledger().denies().untrusted, 1);
    }

    #[test]
    fn uncorroborated_request_is_denied() {
        let mut plane = BufferedPlane::new();
        let mut c = upstream_coord();
        // Claims a 9 MB/s flood; the local meter sees 500 B/s.
        let actions = deliver(&mut c, request(1, 9_000_000, 1), 500.0, &mut plane);
        assert!(actions.is_empty());
        assert!(!c.is_defending());
        assert!(matches!(
            plane.downstream[0].1.verb,
            ControlVerb::Deny {
                reason: DenyReason::Uncorroborated,
                ..
            }
        ));
    }

    #[test]
    fn budget_exhaustion_denies_reinstalls() {
        let mut cfg = config();
        cfg.trust.request_budget = 1;
        let mut plane = BufferedPlane::new();
        let mut c = DomainCoordinator::new(cfg, PushbackRole::Upstream, identity(1));
        c.authorize(identity(0));
        let _ = deliver(&mut c, request(1, 9000, 0), 9000.0, &mut plane);
        assert!(c.is_defending());
        // Expire the lease, then ask again: the budget is spent.
        let mut all = Vec::new();
        for _ in 0..=HOLD_INTERVALS {
            all.extend(tick(&mut c, 10.0, &mut plane));
        }
        assert!(all.contains(&PushbackAction::DeactivateLocal));
        let actions = deliver(&mut c, request(2, 9000, 0), 9000.0, &mut plane);
        assert!(actions.is_empty());
        assert!(!c.is_defending());
        assert!(matches!(
            plane.downstream.last().unwrap().1.verb,
            ControlVerb::Deny {
                reason: DenyReason::BudgetExhausted,
                ..
            }
        ));
    }

    #[test]
    fn only_the_lessor_can_tear_a_lease_down() {
        // Two authorized downstream neighbors; identity(0) installed
        // the lease. A Withdraw/Stop from the *other* one — the fig10
        // threat model with the forgery aimed at teardown instead of
        // installs — must not strip the live defense, and neither must
        // a lessor message naming a different victim.
        let sibling = identity(2);
        let mut c = upstream_coord();
        c.authorize(sibling);
        let mut plane = BufferedPlane::new();
        let _ = deliver(&mut c, request(1, 9000, 1), 9000.0, &mut plane);
        assert!(c.is_defending());
        let from_sibling = ControlMsg::new(sibling, 1, ControlVerb::Stop { victim: VICTIM });
        let actions = deliver(&mut c, from_sibling, 9000.0, &mut plane);
        assert!(actions.is_empty());
        assert!(c.is_defending(), "a sibling cannot tear down the lease");
        let wrong_victim = ControlMsg::new(
            identity(0),
            2,
            ControlVerb::Withdraw {
                victim: Addr::new(0x0AC8_0099),
            },
        );
        let actions = deliver(&mut c, wrong_victim, 9000.0, &mut plane);
        assert!(actions.is_empty());
        assert!(c.is_defending(), "teardown must name the leased victim");
        // The real lessor's teardown still works.
        let genuine = ControlMsg::new(identity(0), 3, ControlVerb::Withdraw { victim: VICTIM });
        let actions = deliver(&mut c, genuine, 9000.0, &mut plane);
        assert_eq!(actions, vec![PushbackAction::DeactivateLocal]);
        assert!(!c.is_defending());
    }

    #[test]
    fn only_the_lessor_can_renew_the_lease() {
        // A compromised sibling must not be able to starve lease
        // expiry (or widen the budget) with identity-valid renewals.
        let sibling = identity(2);
        let mut c = upstream_coord();
        c.authorize(sibling);
        let mut plane = BufferedPlane::new();
        let _ = deliver(&mut c, request(1, 9000, 0), 9000.0, &mut plane);
        assert!(c.is_defending());
        // Sibling renewals are denied and do not touch the lease clock:
        // the lease still expires on schedule.
        let mut all = Vec::new();
        for round in 0..=u64::from(HOLD_INTERVALS) {
            let renewal = ControlMsg::new(
                sibling,
                1 + round,
                ControlVerb::Refresh {
                    victim: VICTIM,
                    budget: 9,
                },
            );
            all.extend(deliver(&mut c, renewal, 9000.0, &mut plane));
            all.extend(tick(&mut c, 10.0, &mut plane));
        }
        assert!(all.contains(&PushbackAction::DeactivateLocal));
        assert!(
            !c.is_defending(),
            "sibling renewals must not hold the lease"
        );
        assert_ne!(c.budget(), 9, "sibling renewals must not widen the budget");
        assert!(plane.downstream.iter().any(|(to, m)| {
            *to == sibling
                && matches!(
                    m.verb,
                    ControlVerb::Deny {
                        reason: DenyReason::UntrustedRequester,
                        ..
                    }
                )
        }));
    }

    #[test]
    fn replayed_envelope_is_denied() {
        let mut plane = BufferedPlane::new();
        let mut c = upstream_coord();
        let _ = deliver(&mut c, request(5, 9000, 1), 9000.0, &mut plane);
        assert!(c.is_defending());
        // Tear down via a replay of the same nonce: refused.
        let withdraw = ControlMsg::new(identity(0), 5, ControlVerb::Withdraw { victim: VICTIM });
        let actions = deliver(&mut c, withdraw, 9000.0, &mut plane);
        assert!(actions.is_empty());
        assert!(c.is_defending(), "replayed withdraw must not tear down");
        assert_eq!(c.ledger().denies().replayed, 1);
    }

    #[test]
    fn deny_received_falls_back_to_defending_and_never_retries() {
        let mut plane = BufferedPlane::new();
        let mut c = victim_coord(2);
        for _ in 0..TRIGGER_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        assert!(c.is_escalated());
        let deny = ControlMsg::new(
            identity(1),
            1,
            ControlVerb::Deny {
                victim: VICTIM,
                reason: DenyReason::BudgetExhausted,
            },
        );
        let _ = deliver(&mut c, deny, 5000.0, &mut plane);
        assert_eq!(c.state(), LifecycleState::Defending);
        assert_eq!(c.stats().denies_received, 1);
        plane.clear();
        for _ in 0..10 {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        assert!(
            plane.upstream.is_empty(),
            "a denied requester must not re-escalate: {:?}",
            plane.upstream
        );
        assert!(c.is_defending(), "local defense continues");
    }

    #[test]
    fn escalated_coordinator_refreshes_periodically() {
        let mut plane = BufferedPlane::new();
        let mut c = victim_coord(1);
        for _ in 0..TRIGGER_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        assert!(c.is_escalated());
        plane.clear();
        for _ in 1..REFRESH_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        assert!(plane.upstream.is_empty());
        let _ = tick(&mut c, 5000.0, &mut plane);
        assert_eq!(plane.upstream.len(), 1);
        assert_eq!(
            plane.upstream[0].verb,
            ControlVerb::Refresh {
                victim: VICTIM,
                budget: 0,
            }
        );
        assert_eq!(c.stats().refreshes_sent, 1);
    }

    #[test]
    fn lease_expires_without_refresh() {
        let mut plane = BufferedPlane::new();
        let mut c = upstream_coord();
        let _ = deliver(&mut c, request(1, 9000, 0), 9000.0, &mut plane);
        let mut all = Vec::new();
        for _ in 0..=HOLD_INTERVALS {
            all.extend(tick(&mut c, 10.0, &mut plane));
        }
        assert_eq!(all, vec![PushbackAction::DeactivateLocal]);
        assert!(!c.is_defending());
    }

    #[test]
    fn refresh_renews_the_lease() {
        let mut plane = BufferedPlane::new();
        let mut c = upstream_coord();
        let _ = deliver(&mut c, request(1, 9000, 0), 9000.0, &mut plane);
        for round in 0..4u64 {
            for _ in 0..HOLD_INTERVALS {
                assert!(tick(&mut c, 10.0, &mut plane).is_empty(), "round {round}");
            }
            let _ = deliver(&mut c, refresh(2 + round, 0), 10.0, &mut plane);
        }
        assert!(c.is_defending(), "refreshed lease must stay alive");
    }

    #[test]
    fn refresh_reinstalls_a_lapsed_lease_when_locally_corroborated() {
        // Soft-state recovery: the original request was lost (or the
        // lease expired) — the next full-state refresh re-installs the
        // defense, provided the local meter itself sees attack scale.
        let mut plane = BufferedPlane::new();
        let mut c = upstream_coord();
        let actions = deliver(&mut c, refresh(1, 1), 9000.0, &mut plane);
        assert_eq!(
            actions,
            vec![PushbackAction::ActivateLocal { victim: VICTIM }]
        );
        assert!(c.is_defending());
        assert_eq!(c.budget(), 1);
        // Expire the lease, then refresh again: same recovery.
        let mut all = Vec::new();
        for _ in 0..=HOLD_INTERVALS {
            all.extend(tick(&mut c, 10.0, &mut plane));
        }
        assert!(all.contains(&PushbackAction::DeactivateLocal));
        assert!(!c.is_defending());
        let actions = deliver(&mut c, refresh(2, 1), 9000.0, &mut plane);
        assert_eq!(
            actions,
            vec![PushbackAction::ActivateLocal { victim: VICTIM }]
        );
        assert!(c.is_defending());
    }

    #[test]
    fn refresh_install_without_local_evidence_is_denied() {
        let mut plane = BufferedPlane::new();
        let mut c = upstream_coord();
        // Quiet boundary (10 B/s): a bare refresh cannot smuggle an
        // install past attestation.
        let actions = deliver(&mut c, refresh(1, 1), 10.0, &mut plane);
        assert!(actions.is_empty());
        assert!(!c.is_defending());
        assert!(matches!(
            plane.downstream[0].1.verb,
            ControlVerb::Deny {
                reason: DenyReason::Uncorroborated,
                ..
            }
        ));
    }

    #[test]
    fn withdraw_cascades_through_an_escalated_domain() {
        let mut plane = BufferedPlane::new();
        let mut c = upstream_coord();
        let _ = deliver(&mut c, request(1, 9000, 2), 9000.0, &mut plane);
        for _ in 0..TRIGGER_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        assert!(c.is_escalated());
        plane.clear();
        let withdraw = ControlMsg::new(identity(0), 2, ControlVerb::Withdraw { victim: VICTIM });
        let actions = deliver(&mut c, withdraw, 5000.0, &mut plane);
        assert_eq!(actions, vec![PushbackAction::DeactivateLocal]);
        assert_eq!(plane.upstream.len(), 1);
        assert!(matches!(
            plane.upstream[0].verb,
            ControlVerb::Withdraw { victim: VICTIM }
        ));
        assert!(!c.is_defending());
        assert_eq!(c.state(), LifecycleState::Idle);
    }

    #[test]
    fn stop_tears_down_and_cascades_like_withdraw() {
        let mut plane = BufferedPlane::new();
        let mut c = upstream_coord();
        let _ = deliver(&mut c, request(1, 9000, 2), 9000.0, &mut plane);
        for _ in 0..TRIGGER_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        assert!(c.is_escalated());
        plane.clear();
        let stop = ControlMsg::new(identity(0), 2, ControlVerb::Stop { victim: VICTIM });
        let actions = deliver(&mut c, stop, 5000.0, &mut plane);
        assert_eq!(actions, vec![PushbackAction::DeactivateLocal]);
        assert!(matches!(
            plane.upstream[0].verb,
            ControlVerb::Withdraw { victim: VICTIM }
        ));
        assert!(!c.is_defending());
    }

    #[test]
    fn lease_expiry_also_cascades_withdrawal() {
        let mut plane = BufferedPlane::new();
        let mut c = upstream_coord();
        let _ = deliver(&mut c, request(1, 9000, 1), 9000.0, &mut plane);
        // Escalate under pressure, then starve the lease. The coordinator
        // keeps refreshing its own upstream until its lease lapses — at
        // expiry it must deactivate AND withdraw what it escalated.
        let mut all = Vec::new();
        for _ in 0..=HOLD_INTERVALS {
            all.extend(tick(&mut c, 5000.0, &mut plane));
        }
        assert!(all.contains(&PushbackAction::DeactivateLocal));
        assert!(plane
            .upstream
            .iter()
            .any(|m| matches!(m.verb, ControlVerb::Withdraw { victim: VICTIM })));
        assert!(!c.is_defending());
    }

    fn report(nonce: u64, aggregate_bps: u64) -> ControlMsg {
        ControlMsg::new(
            identity(1),
            nonce,
            ControlVerb::Report {
                victim: VICTIM,
                aggregate_bps,
            },
        )
    }

    #[test]
    fn subsidence_stands_the_victim_down_and_stops_upstream() {
        let mut cfg = config();
        cfg.subsidence_intervals = 3;
        let mut c = DomainCoordinator::new(cfg, PushbackRole::Victim, identity(0));
        c.trust_upstream(identity(1));
        c.local_start(VICTIM, 2);
        let mut plane = BufferedPlane::new();
        // Flood: escalate.
        for _ in 0..TRIGGER_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        assert!(c.is_escalated());
        plane.clear();
        // The chain top reports a subsided raw aggregate (2000 B/s is
        // the healthy ceiling here); a reported relapse resets the
        // count.
        let _ = deliver(&mut c, report(1, 500), 1500.0, &mut plane);
        let _ = tick(&mut c, 1500.0, &mut plane);
        let _ = tick(&mut c, 1500.0, &mut plane);
        let _ = deliver(&mut c, report(2, 9000), 1500.0, &mut plane); // relapse
        let _ = tick(&mut c, 1500.0, &mut plane);
        let _ = deliver(&mut c, report(3, 500), 1500.0, &mut plane);
        let _ = tick(&mut c, 1500.0, &mut plane);
        let _ = tick(&mut c, 1500.0, &mut plane);
        assert!(c.is_defending(), "not healthy long enough yet");
        let actions = tick(&mut c, 1500.0, &mut plane);
        assert!(actions.contains(&PushbackAction::DeactivateLocal));
        assert_eq!(c.state(), LifecycleState::StandingDown);
        assert_eq!(c.stats().stops_sent, 1);
        assert!(plane
            .upstream
            .iter()
            .any(|m| matches!(m.verb, ControlVerb::Stop { victim: VICTIM })));
        // One interval later the machine is idle and restartable.
        let _ = tick(&mut c, 1500.0, &mut plane);
        assert_eq!(c.state(), LifecycleState::Idle);
        c.local_start(VICTIM, 2);
        assert!(c.is_defending());
    }

    #[test]
    fn source_floor_reads_few_senders_as_healthy_despite_heavy_load() {
        // Bandwidth says "overloaded" every interval, but the distinct
        // source cardinality says two senders — aggressive legit load.
        let mut cfg = config();
        cfg.subsidence_intervals = 3;
        cfg.subsidence_source_floor = 10.0;
        let mut c = DomainCoordinator::new(cfg, PushbackRole::Victim, identity(0));
        c.local_start(VICTIM, 0); // no budget: never escalates
        let mut plane = BufferedPlane::new();
        for _ in 0..2 {
            c.set_observed_sources(2.0);
            let _ = tick(&mut c, 50_000.0, &mut plane);
        }
        assert!(c.is_defending(), "not healthy long enough yet");
        c.set_observed_sources(2.0);
        let actions = tick(&mut c, 50_000.0, &mut plane);
        assert!(actions.contains(&PushbackAction::DeactivateLocal));
        assert_eq!(c.state(), LifecycleState::StandingDown);
    }

    #[test]
    fn source_floor_ignores_flood_scale_cardinality() {
        // Same load from hundreds of senders: the guard must not fire.
        let mut cfg = config();
        cfg.subsidence_intervals = 3;
        cfg.subsidence_source_floor = 10.0;
        let mut c = DomainCoordinator::new(cfg, PushbackRole::Victim, identity(0));
        c.local_start(VICTIM, 0);
        let mut plane = BufferedPlane::new();
        for _ in 0..10 {
            c.set_observed_sources(400.0);
            let _ = tick(&mut c, 50_000.0, &mut plane);
        }
        assert!(c.is_defending(), "many senders above ceiling is an attack");
    }

    #[test]
    fn zero_source_floor_leaves_subsidence_unchanged() {
        // The default (disabled) guard must not let cardinality in.
        let mut cfg = config();
        cfg.subsidence_intervals = 3;
        let mut c = DomainCoordinator::new(cfg, PushbackRole::Victim, identity(0));
        c.local_start(VICTIM, 0);
        let mut plane = BufferedPlane::new();
        for _ in 0..10 {
            c.set_observed_sources(1.0);
            let _ = tick(&mut c, 50_000.0, &mut plane);
        }
        assert!(c.is_defending(), "floor 0 disables the guard");
    }

    #[test]
    fn escalated_victim_needs_upstream_reports_to_stand_down() {
        // A quiet boundary while escalated just means the upstream
        // defense is working — without status reports the victim must
        // keep the conversation alive; with reports still showing the
        // raw flood it must keep defending too.
        let mut cfg = config();
        cfg.subsidence_intervals = 3;
        let mut c = DomainCoordinator::new(cfg, PushbackRole::Victim, identity(0));
        c.trust_upstream(identity(1));
        c.local_start(VICTIM, 2);
        let mut plane = BufferedPlane::new();
        for _ in 0..TRIGGER_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        assert!(c.is_escalated());
        for _ in 0..20 {
            let _ = tick(&mut c, 100.0, &mut plane);
        }
        assert!(
            c.is_escalated(),
            "no stand-down on local evidence alone while escalated"
        );
        // Reports of a still-raging raw flood hold the defense up even
        // though the local boundary is quiet (the cut works).
        let _ = deliver(&mut c, report(1, 9000), 100.0, &mut plane);
        for _ in 0..HOLD_INTERVALS {
            let _ = tick(&mut c, 100.0, &mut plane);
        }
        assert!(c.is_escalated(), "reported raw flood keeps the defense up");
        // A forged report of subsidence from an unknown identity
        // changes nothing. The vetted report goes stale on the next
        // tick, so a believed forgery would be the only fresh evidence
        // and would stand the victim down within the loop below.
        let forged = ControlMsg::new(
            identity(9),
            1,
            ControlVerb::Report {
                victim: VICTIM,
                aggregate_bps: 0,
            },
        );
        let _ = deliver(&mut c, forged, 100.0, &mut plane);
        for _ in 0..5 {
            let _ = tick(&mut c, 100.0, &mut plane);
        }
        assert!(c.is_escalated(), "forged Report must be ignored");
        // The vetted subsided report unlocks the stand-down.
        let _ = deliver(&mut c, report(5, 200), 100.0, &mut plane);
        let mut stood_down = false;
        for _ in 0..4 {
            stood_down |= !tick(&mut c, 100.0, &mut plane).is_empty();
        }
        assert!(stood_down, "reported subsidence stands the victim down");
    }

    #[test]
    fn leased_defender_reports_its_effective_view_downstream() {
        let mut cfg = config();
        cfg.subsidence_intervals = 3;
        let mut c = DomainCoordinator::new(cfg, PushbackRole::Upstream, identity(1));
        c.authorize(identity(0));
        c.trust_upstream(identity(2));
        let mut plane = BufferedPlane::new();
        let _ = deliver(&mut c, request(1, 9000, 0), 9000.0, &mut plane);
        assert!(c.is_defending());
        // The lease stays alive through refreshes; every
        // REFRESH_INTERVALS the defender reports its effective view to
        // its lessor — here the raw boundary inflow (chain top).
        for round in 0..u64::from(REFRESH_INTERVALS) {
            let _ = deliver(&mut c, refresh(2 + round, 0), 9000.0, &mut plane);
            let _ = tick(&mut c, 9000.0, &mut plane);
        }
        assert!(c.is_defending(), "reporting defender keeps dropping");
        let reports: Vec<u64> = plane
            .downstream
            .iter()
            .filter_map(|(to, m)| match m.verb {
                ControlVerb::Report {
                    victim: VICTIM,
                    aggregate_bps,
                } if *to == identity(0) => Some(aggregate_bps),
                _ => None,
            })
            .collect();
        assert!(
            !reports.is_empty(),
            "leased defender must report downstream: {:?}",
            plane.downstream
        );
        assert!(reports.iter().all(|&bps| bps == 9000));
        assert!(c.stats().reports_sent >= 1);
        // With a deeper report on file, the relayed view takes the
        // larger of the two (raw scale survives aggregation even when
        // the local boundary quiets down).
        let deeper = ControlMsg::new(
            identity(2),
            1,
            ControlVerb::Report {
                victim: VICTIM,
                aggregate_bps: 50_000,
            },
        );
        let _ = deliver(&mut c, deeper, 100.0, &mut plane);
        plane.clear();
        for round in 0..u64::from(REFRESH_INTERVALS) {
            let _ = deliver(&mut c, refresh(20 + round, 0), 100.0, &mut plane);
            let _ = tick(&mut c, 100.0, &mut plane);
        }
        let relayed: Vec<u64> = plane
            .downstream
            .iter()
            .filter_map(|(_, m)| match m.verb {
                ControlVerb::Report { aggregate_bps, .. } => Some(aggregate_bps),
                _ => None,
            })
            .collect();
        assert!(
            relayed.iter().any(|&bps| bps >= 50_000),
            "deeper raw scale must survive relay: {relayed:?}"
        );
    }

    #[test]
    fn local_stop_withdraws_escalation() {
        let mut plane = BufferedPlane::new();
        let mut c = victim_coord(1);
        for _ in 0..TRIGGER_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        assert!(c.is_escalated());
        plane.clear();
        c.local_stop(&mut plane);
        assert_eq!(plane.upstream.len(), 1);
        assert!(matches!(
            plane.upstream[0].verb,
            ControlVerb::Withdraw { victim: VICTIM }
        ));
        assert!(!c.is_defending());
        // Restart works from scratch.
        c.local_start(VICTIM, 1);
        assert!(c.is_defending());
        assert!(!c.is_escalated());
    }

    /// `engage` and `disengage` reset every counter of both roles, which
    /// changes nothing only while each role leaves the other's counters
    /// at zero: a victim never moves `since_heard` or `since_report`,
    /// an upstream never moves `healthy`. Pinned through a whole
    /// engagement of a victim and its upstream, wired back to back.
    #[test]
    fn each_role_keeps_the_other_roles_counters_at_zero() {
        /// One interval: both coordinators tick, then each receives
        /// what the other sent; the invariants must hold after it.
        fn interval(
            victim: &mut DomainCoordinator,
            upstream: &mut DomainCoordinator,
            victim_bps: f64,
            upstream_bps: f64,
        ) {
            let (mut down, mut up) = (BufferedPlane::new(), BufferedPlane::new());
            let _ = tick(victim, victim_bps, &mut down);
            let _ = tick(upstream, upstream_bps, &mut up);
            for msg in down.upstream {
                let _ = deliver(upstream, msg, upstream_bps, &mut up);
            }
            for (_, msg) in up.downstream {
                let _ = deliver(victim, msg, victim_bps, &mut BufferedPlane::new());
            }
            assert_roles(victim, upstream);
        }
        fn assert_roles(victim: &DomainCoordinator, upstream: &DomainCoordinator) {
            let at = (victim.state, upstream.state);
            assert_eq!(victim.since_heard, 0, "victim since_heard at {at:?}");
            assert_eq!(victim.since_report, 0, "victim since_report at {at:?}");
            assert_eq!(upstream.healthy, 0, "upstream healthy at {at:?}");
        }
        let mut cfg = config();
        cfg.subsidence_intervals = 3;
        let mut victim = DomainCoordinator::new(cfg, PushbackRole::Victim, identity(0));
        victim.trust_upstream(identity(1));
        let mut upstream = DomainCoordinator::new(cfg, PushbackRole::Upstream, identity(1));
        upstream.authorize(identity(0));
        // The second engagement has the budget for the upstream to
        // escalate in turn; in the first it defends at healthy inflow
        // while the victim stands down.
        for budget in [1, 2] {
            // Engage, then escalate: the victim's request installs the
            // upstream defense.
            victim.local_start(VICTIM, budget);
            assert_roles(&victim, &upstream);
            for _ in 0..12 {
                interval(&mut victim, &mut upstream, 5000.0, 9000.0);
            }
            assert!(victim.is_escalated() && upstream.is_defending());
            assert_eq!(upstream.is_escalated(), budget > 1);
            // Report: the upstream's status reaches the victim.
            assert!(upstream.stats().reports_sent > 0 && victim.has_fresh_reports());
            // Stand down: the reported flood subsides, the victim stops
            // the chain and idles one interval later.
            for _ in 0..8 {
                interval(&mut victim, &mut upstream, 1500.0, 500.0);
            }
            assert_eq!(victim.state(), LifecycleState::Idle, "budget {budget}");
            assert_eq!(upstream.state(), LifecycleState::Idle, "budget {budget}");
        }
    }

    #[test]
    fn config_validation() {
        assert!(PushbackConfig::default().validate().is_ok());
        assert_eq!(
            PushbackConfig {
                threshold_bps: 0.0,
                ..config()
            }
            .validate(),
            Err(PushbackConfigError::NonPositiveThreshold(0.0))
        );
        assert!(matches!(
            PushbackConfig {
                healthy_bps: f64::NAN,
                ..config()
            }
            .validate(),
            Err(PushbackConfigError::NonPositiveHealthyRate(_))
        ));
        assert_eq!(
            PushbackConfig {
                subsidence_source_floor: -1.0,
                ..config()
            }
            .validate(),
            Err(PushbackConfigError::NegativeSourceFloor(-1.0))
        );
        let mut cfg = config();
        cfg.trust.attestation_fraction = 1.5;
        assert_eq!(
            cfg.validate(),
            Err(PushbackConfigError::AttestationFractionOutOfRange(1.5))
        );
    }

    #[test]
    fn config_errors_display_the_field() {
        assert!(PushbackConfigError::NonPositiveThreshold(-1.0)
            .to_string()
            .contains("threshold_bps"));
        assert!(PushbackConfigError::AttestationFractionOutOfRange(2.0)
            .to_string()
            .contains("attestation_fraction"));
    }

    /// Regression: with two upstream targets, one sibling's `Deny` must
    /// not lapse the lease the *other* sibling granted. Refreshes keep
    /// flowing (skipping only the denied target) and the denied target
    /// is never asked again.
    /// A plane whose upstream sends address siblings 1 and 2.
    fn two_sibling_plane() -> BufferedPlane {
        BufferedPlane {
            upstream_targets: vec![identity(1), identity(2)],
            ..BufferedPlane::default()
        }
    }

    #[test]
    fn sibling_deny_keeps_the_corroborated_branch_refreshed() {
        let mut plane = two_sibling_plane();
        let mut c = DomainCoordinator::new(config(), PushbackRole::Victim, identity(0));
        c.trust_upstream(identity(1));
        c.trust_upstream(identity(2));
        c.local_start(VICTIM, 2);
        for _ in 0..TRIGGER_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        assert!(c.is_escalated());
        // Sibling identity(2) denies; identity(1) granted and stays quiet.
        let deny = ControlMsg::new(
            identity(2),
            1,
            ControlVerb::Deny {
                victim: VICTIM,
                reason: DenyReason::Uncorroborated,
            },
        );
        let _ = deliver(&mut c, deny, 5000.0, &mut plane);
        assert!(
            c.is_escalated(),
            "one sibling's denial must not abandon the granted branch"
        );
        plane.clear();
        // Refreshes keep the granted lease alive, skipping the denier.
        for _ in 0..2 * REFRESH_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        assert_eq!(plane.upstream.len(), 2, "refresh every REFRESH_INTERVALS");
        for (msg, skips) in plane.upstream.iter().zip(&plane.upstream_skips) {
            assert!(matches!(msg.verb, ControlVerb::Refresh { .. }));
            assert_eq!(skips, &vec![identity(2)], "denied target is skipped");
        }
        // The second sibling's denial ends the escalation for good.
        let deny2 = ControlMsg::new(
            identity(1),
            1,
            ControlVerb::Deny {
                victim: VICTIM,
                reason: DenyReason::BudgetExhausted,
            },
        );
        let _ = deliver(&mut c, deny2, 5000.0, &mut plane);
        assert_eq!(c.state(), LifecycleState::Defending);
        plane.clear();
        for _ in 0..10 {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        assert!(
            plane.upstream.is_empty(),
            "fully denied: never re-escalates"
        );
    }

    /// A duplicate `Deny` from the same target must not count twice
    /// against the all-targets-denied fallback.
    #[test]
    fn duplicate_deny_from_one_sibling_counts_once() {
        let mut plane = two_sibling_plane();
        let mut c = DomainCoordinator::new(config(), PushbackRole::Victim, identity(0));
        c.trust_upstream(identity(1));
        c.trust_upstream(identity(2));
        c.local_start(VICTIM, 2);
        for _ in 0..TRIGGER_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        for nonce in 1..=2 {
            let deny = ControlMsg::new(
                identity(2),
                nonce,
                ControlVerb::Deny {
                    victim: VICTIM,
                    reason: DenyReason::Uncorroborated,
                },
            );
            let _ = deliver(&mut c, deny, 5000.0, &mut plane);
        }
        assert!(
            c.is_escalated(),
            "two denials from one target are one denied target"
        );
        assert_eq!(c.stats().denies_received, 2);
    }

    #[test]
    fn snapshot_round_trips_an_escalated_coordinator() {
        let mut plane = two_sibling_plane();
        let mut c = DomainCoordinator::new(config(), PushbackRole::Victim, identity(0));
        c.trust_upstream(identity(1));
        c.trust_upstream(identity(2));
        c.local_start(VICTIM, 2);
        for _ in 0..TRIGGER_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut plane);
        }
        let deny = ControlMsg::new(
            identity(2),
            1,
            ControlVerb::Deny {
                victim: VICTIM,
                reason: DenyReason::Uncorroborated,
            },
        );
        let _ = deliver(&mut c, deny, 5000.0, &mut plane);
        let report = ControlMsg::new(identity(1), 1, {
            ControlVerb::Report {
                victim: VICTIM,
                aggregate_bps: 4000,
            }
        });
        let _ = deliver(&mut c, report, 5000.0, &mut plane);
        assert!(c.is_escalated());

        let bytes = state_bytes(&c);
        // Restore into a freshly built coordinator with the same
        // build-time wiring — the rebuild-and-overlay contract.
        let blank = || {
            let mut blank = DomainCoordinator::new(config(), PushbackRole::Victim, identity(0));
            blank.trust_upstream(identity(1));
            blank.trust_upstream(identity(2));
            blank
        };
        assert_state_law(&c, blank);
        let mut restored = blank();
        let mut r = mafic_obs::SnapReader::new(&bytes);
        restored.read_state(&mut r).expect("restore succeeds");
        assert!(r.is_empty(), "payload fully consumed");

        assert_eq!(state_hash(&c), state_hash(&restored));
        // The restored machine continues identically: both refresh on
        // the same interval, still skipping the denied sibling.
        let mut p1 = two_sibling_plane();
        let mut p2 = two_sibling_plane();
        for _ in 0..REFRESH_INTERVALS {
            let _ = tick(&mut c, 5000.0, &mut p1);
            let _ = tick(&mut restored, 5000.0, &mut p2);
        }
        assert_eq!(p1.upstream, p2.upstream);
        assert_eq!(p1.upstream_skips, p2.upstream_skips);
        assert_eq!(state_hash(&c), state_hash(&restored));
        // Role and identity are wiring: hashed, and not in `bytes`.
        let mut upstream = DomainCoordinator::new(config(), PushbackRole::Upstream, identity(0));
        upstream
            .read_state(&mut mafic_obs::SnapReader::new(&bytes))
            .expect("restore succeeds");
        assert_ne!(state_hash(&c), state_hash(&upstream));
    }

    #[test]
    fn lifecycle_states_tag_as_their_declaration_index() {
        for (i, state) in LifecycleState::ALL.into_iter().enumerate() {
            let mut c = DomainCoordinator::new(config(), PushbackRole::Victim, identity(0));
            c.state = state;
            let bytes = state_bytes(&c);
            assert_eq!(bytes[0], i as u8);
            let mut restored = DomainCoordinator::new(config(), PushbackRole::Victim, identity(0));
            let mut r = mafic_obs::SnapReader::new(&bytes);
            restored.read_state(&mut r).expect("restore succeeds");
            assert_eq!(restored.state, state);
        }
        let unused = [LifecycleState::ALL.len() as u8];
        let mut c = DomainCoordinator::new(config(), PushbackRole::Victim, identity(0));
        let err = c
            .read_state(&mut mafic_obs::SnapReader::new(&unused))
            .expect_err("the first unused tag is invalid");
        assert_eq!(err, SnapError::Malformed("lifecycle tag 4".to_string()));
    }

    #[test]
    fn snapshot_rejects_unknown_lifecycle_tag() {
        let mut w = mafic_obs::SnapWriter::new();
        w.write_u8(9);
        let bytes = w.into_bytes();
        let mut c = DomainCoordinator::new(config(), PushbackRole::Victim, identity(0));
        let mut r = mafic_obs::SnapReader::new(&bytes);
        let err = c.read_state(&mut r).expect_err("tag 9 is invalid");
        assert!(err.to_string().contains("lifecycle tag 9"), "{err}");
    }

    #[test]
    fn snapshot_with_a_hostile_denied_count_is_truncated_not_a_panic() {
        let mut w = mafic_obs::SnapWriter::new();
        w.write_u8(0); // lifecycle: idle
        w.write_u8(0); // no victim
        w.write_u8(0); // budget
        for _ in 0..4 {
            w.write_u32(0); // above, healthy, since_refresh, since_heard
        }
        w.write_u64(1); // next_nonce
        w.write_u64(u64::MAX >> 2); // denied_by count, nothing behind it
        let bytes = w.into_bytes();
        let mut c = DomainCoordinator::new(config(), PushbackRole::Victim, identity(0));
        let mut r = mafic_obs::SnapReader::new(&bytes);
        let err = c
            .read_state(&mut r)
            .expect_err("no requester follows the count");
        assert!(matches!(err, mafic_obs::SnapError::Truncated), "{err}");
    }
}
