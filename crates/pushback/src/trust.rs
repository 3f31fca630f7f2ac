//! Per-requester trust: budgets, replay suppression, and attestation.
//!
//! The cascaded pushback of PR 3 honored any request arriving at a
//! domain boundary — the control plane had no notion of *who* was
//! asking or *how much* they may ask for. The [`TrustLedger`] closes
//! that hole. Every upstream coordinator keeps one; before a
//! [`mafic_netsim::ControlVerb::Request`] (or a fresh-install
//! `Refresh`) touches the filters, the ledger vets it:
//!
//! 1. **Version** — the envelope must carry
//!    [`CONTROL_PROTOCOL_VERSION`]; anything else is
//!    [`DenyReason::BadVersion`].
//! 2. **Authorization** — the (channel-authenticated) requester must be
//!    a *downstream* neighbor on a victim-bound path through this
//!    domain ([`TrustLedger::authorize`], wired at build time from the
//!    topology). Anyone else is [`DenyReason::UntrustedRequester`] —
//!    a source stub cannot "ask" its own provider to cut a victim off.
//! 3. **Replay** — the envelope nonce must advance past the last nonce
//!    accepted from this requester ([`DenyReason::Replayed`]).
//! 4. **Attestation** — the claimed victim-bound aggregate must be
//!    corroborated by this domain's own boundary meter: observed inflow
//!    must reach `attestation_fraction` of the claim. A requester
//!    claiming a flood the upstream does not see — the "victim" is
//!    observed receiving normally — is asking for drops against
//!    legitimate traffic ([`DenyReason::Uncorroborated`]). This is the
//!    defense against *malicious pushback* even from a compromised but
//!    otherwise authorized neighbor.
//! 5. **Budget** — each requester may cause at most `request_budget`
//!    fresh filter installs here ([`DenyReason::BudgetExhausted`]).
//!
//! Checks run in that order, so the cheapest identity failures shadow
//! the stateful ones and every denial maps to exactly one
//! [`DenyReason`].

use mafic_netsim::{Addr, ControlMsg, DenyReason, RequesterId, CONTROL_PROTOCOL_VERSION};
use mafic_obs::{SnapError, SnapReader, State, StateWrite};
use std::collections::BTreeMap;

/// Tunables of a domain's trust ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustConfig {
    /// Fresh filter installs each requester may cause at this domain
    /// over a run. `0` refuses every install (a domain that never
    /// defends on request).
    pub request_budget: u32,
    /// Fraction of a claimed victim-bound aggregate that this domain's
    /// own meter must corroborate before an install is granted. `0`
    /// disables attestation (the unguarded PR 3 behaviour).
    pub attestation_fraction: f64,
}

impl Default for TrustConfig {
    fn default() -> Self {
        TrustConfig {
            // Generous next to the one-or-two installs an honest
            // cascade needs, tight next to a spammer.
            request_budget: 8,
            // Tolerates a 4-way split of the aggregate across sibling
            // upstreams (four source stubs under one domain stay
            // corroborable).
            attestation_fraction: 0.25,
        }
    }
}

/// Denials issued, tallied by [`DenyReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DenyTally {
    /// [`DenyReason::BadVersion`] denials.
    pub bad_version: u64,
    /// [`DenyReason::UntrustedRequester`] denials.
    pub untrusted: u64,
    /// [`DenyReason::Replayed`] denials.
    pub replayed: u64,
    /// [`DenyReason::Uncorroborated`] denials.
    pub uncorroborated: u64,
    /// [`DenyReason::BudgetExhausted`] denials.
    pub budget_exhausted: u64,
}

impl DenyTally {
    /// Total denials across every reason.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bad_version
            + self.untrusted
            + self.replayed
            + self.uncorroborated
            + self.budget_exhausted
    }

    /// Counts one denial for `reason`.
    pub fn count(&mut self, reason: DenyReason) {
        match reason {
            DenyReason::BadVersion => self.bad_version += 1,
            DenyReason::UntrustedRequester => self.untrusted += 1,
            DenyReason::Replayed => self.replayed += 1,
            DenyReason::Uncorroborated => self.uncorroborated += 1,
            DenyReason::BudgetExhausted => self.budget_exhausted += 1,
        }
    }
}

/// Per-requester running state.
#[derive(Debug, Clone, Copy, Default)]
struct RequesterState {
    /// Is this requester a downstream neighbor allowed to ask here?
    authorized: bool,
    /// Is this identity one of our *upstream* escalation targets, whose
    /// replies (`Deny`, `Report`) we accept?
    upstream: bool,
    /// Highest nonce accepted from this requester so far.
    last_nonce: u64,
    /// Fresh installs already charged to this requester.
    installs: u32,
}

/// The per-domain trust state over every requester ever heard from.
///
/// Deterministic by construction: a `BTreeMap` keyed by [`RequesterId`]
/// (an address), no ambient hashing.
#[derive(Debug, Clone)]
pub struct TrustLedger {
    config: TrustConfig,
    requesters: BTreeMap<RequesterId, RequesterState>,
    granted_installs: u64,
    denies: DenyTally,
}

impl TrustLedger {
    /// Creates an empty ledger (nobody authorized yet).
    #[must_use]
    pub fn new(config: TrustConfig) -> Self {
        TrustLedger {
            config,
            requesters: BTreeMap::new(),
            granted_installs: 0,
            denies: DenyTally::default(),
        }
    }

    /// Marks `requester` as an authorized downstream neighbor. Wired at
    /// scenario-build time from the inverted escalation topology.
    pub fn authorize(&mut self, requester: RequesterId) {
        self.requesters.entry(requester).or_default().authorized = true;
    }

    /// Marks `identity` as one of this domain's upstream escalation
    /// targets, whose downstream replies (`Deny`, `Report`) are
    /// believed. Wired at scenario-build time.
    pub(crate) fn authorize_upstream(&mut self, identity: RequesterId) {
        self.requesters.entry(identity).or_default().upstream = true;
    }

    /// Tallies a denial decided by the coordinator outside the ledger's
    /// own checks (e.g. a renewal from someone other than the lessor),
    /// so every `Deny` sent stays visible in the denial counters.
    pub(crate) fn note_denial(&mut self, reason: DenyReason) {
        self.denies.count(reason);
    }

    /// Vets a downstream-flowing reply (`Deny`, `Report`): protocol
    /// version, sender is a known upstream target, nonce advances.
    /// Failures are tallied but never answered (replying to a reply
    /// invites ping-pong).
    ///
    /// # Errors
    ///
    /// Returns the [`DenyReason`] on failure.
    pub(crate) fn vet_upstream(&mut self, msg: &ControlMsg) -> Result<(), DenyReason> {
        self.vet_sender(msg, |state| state.upstream)
    }

    /// Fresh installs granted across all requesters.
    #[must_use]
    pub fn granted_installs(&self) -> u64 {
        self.granted_installs
    }

    /// Denials issued so far, by reason.
    #[must_use]
    pub fn denies(&self) -> &DenyTally {
        &self.denies
    }

    /// Identity-level vetting shared by every verb: version, requester
    /// authorization, nonce monotonicity. Accepting advances the
    /// requester's nonce watermark.
    ///
    /// # Errors
    ///
    /// Returns (and tallies) the [`DenyReason`] on failure.
    pub(crate) fn vet_identity(&mut self, msg: &ControlMsg) -> Result<(), DenyReason> {
        self.vet_sender(msg, |state| state.authorized)
    }

    /// The shared sender vetting both directions run through: protocol
    /// version, the direction-specific trust flag selected by
    /// `trusted`, nonce monotonicity (one watermark per sender, shared
    /// across directions). Accepting advances the watermark; failures
    /// are tallied.
    fn vet_sender(
        &mut self,
        msg: &ControlMsg,
        trusted: fn(&RequesterState) -> bool,
    ) -> Result<(), DenyReason> {
        if msg.version != CONTROL_PROTOCOL_VERSION {
            self.denies.count(DenyReason::BadVersion);
            return Err(DenyReason::BadVersion);
        }
        let state = self.requesters.entry(msg.requester).or_default();
        if !trusted(state) {
            self.denies.count(DenyReason::UntrustedRequester);
            return Err(DenyReason::UntrustedRequester);
        }
        if msg.nonce <= state.last_nonce {
            self.denies.count(DenyReason::Replayed);
            return Err(DenyReason::Replayed);
        }
        state.last_nonce = msg.nonce;
        Ok(())
    }

    /// Vets a fresh filter install (a `Request`, or a `Refresh` whose
    /// lease lapsed): identity checks, then attestation, then the
    /// per-requester install budget (charged on success).
    ///
    /// Attestation, with `attestation_fraction > 0`:
    ///
    /// * a `Request` carries `claimed_bps = Some(c)` — denied as
    ///   [`DenyReason::Uncorroborated`] when the claim itself is below
    ///   `floor_bps` (by the requester's own numbers the victim is
    ///   receiving normal traffic, so drops are unwarranted) or when
    ///   the domain's own `inflow_bps` does not reach
    ///   `attestation_fraction × c` (the claim is not corroborated
    ///   locally);
    /// * a fresh-install `Refresh` carries no claim
    ///   (`claimed_bps = None`) — denied unless `inflow_bps` itself
    ///   reaches `floor_bps` (a locally observed attack-scale
    ///   aggregate), so the refresh path cannot be used to smuggle an
    ///   install past attestation.
    ///
    /// `floor_bps` is the domain's own escalation threshold.
    ///
    /// # Errors
    ///
    /// Returns (and tallies) the [`DenyReason`] on failure.
    pub(crate) fn vet_install(
        &mut self,
        msg: &ControlMsg,
        claimed_bps: Option<f64>,
        floor_bps: f64,
        inflow_bps: f64,
    ) -> Result<(), DenyReason> {
        self.vet_identity(msg)?;
        if self.config.attestation_fraction > 0.0 {
            let corroborated = match claimed_bps {
                Some(claimed) => {
                    claimed >= floor_bps && inflow_bps >= self.config.attestation_fraction * claimed
                }
                None => inflow_bps >= floor_bps,
            };
            if !corroborated {
                self.denies.count(DenyReason::Uncorroborated);
                return Err(DenyReason::Uncorroborated);
            }
        }
        let state = self
            .requesters
            .get_mut(&msg.requester)
            .expect("vet_identity inserted the requester");
        if state.installs >= self.config.request_budget {
            self.denies.count(DenyReason::BudgetExhausted);
            return Err(DenyReason::BudgetExhausted);
        }
        state.installs += 1;
        self.granted_installs += 1;
        Ok(())
    }
}

impl State for TrustLedger {
    /// The requester table wholesale, the grant counter and the deny
    /// tallies. The `authorized` and `upstream` flags are build-time
    /// wiring, but they live in the same map entries as the mutable
    /// nonce/install state, so the whole entry is carried and the
    /// restored table is byte-equal to the captured one. The trust
    /// configuration is hashed, not saved; and the two pinned formats
    /// put the counters on opposite sides of the table.
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        let counters = |w: &mut W| {
            w.write_u64(self.granted_installs);
            w.write_u64(self.denies.bad_version);
            w.write_u64(self.denies.untrusted);
            w.write_u64(self.denies.replayed);
            w.write_u64(self.denies.uncorroborated);
            w.write_u64(self.denies.budget_exhausted);
        };
        w.hash_only(|h| {
            h.write_u32(self.config.request_budget);
            h.write_f64(self.config.attestation_fraction);
            counters(h);
        });
        // BTreeMap iterates in sorted RequesterId order — deterministic.
        w.write_seq(&self.requesters, |w, (id, state)| {
            w.write_u32(id.addr().as_u32());
            w.write_bool(state.authorized);
            w.write_bool(state.upstream);
            w.write_u64(state.last_nonce);
            w.write_u32(state.installs);
        });
        w.snap_only(counters);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.requesters = r.read_seq(|r| {
            let id = RequesterId::new(Addr::new(r.read_u32()?));
            let state = RequesterState {
                authorized: r.read_bool()?,
                upstream: r.read_bool()?,
                last_nonce: r.read_u64()?,
                installs: r.read_u32()?,
            };
            Ok((id, state))
        })?;
        self.granted_installs = r.read_u64()?;
        self.denies.bad_version = r.read_u64()?;
        self.denies.untrusted = r.read_u64()?;
        self.denies.replayed = r.read_u64()?;
        self.denies.uncorroborated = r.read_u64()?;
        self.denies.budget_exhausted = r.read_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::testkit::{assert_state_law, state_bytes, state_hash};
    use mafic_netsim::{Addr, ControlVerb};

    const VICTIM: Addr = Addr::new(0x0AC8_0001);

    fn requester() -> RequesterId {
        RequesterId::new(Addr::new(0x0BFA_0001))
    }

    fn request(nonce: u64, aggregate_bps: u64) -> ControlMsg {
        ControlMsg::new(
            requester(),
            nonce,
            ControlVerb::Request {
                victim: VICTIM,
                aggregate_bps,
                budget: 2,
            },
        )
    }

    fn ledger(budget: u32, fraction: f64) -> TrustLedger {
        let mut l = TrustLedger::new(TrustConfig {
            request_budget: budget,
            attestation_fraction: fraction,
        });
        l.authorize(requester());
        l
    }

    /// Floor used across these tests: the default escalation threshold.
    const FLOOR: f64 = 312_500.0;

    #[test]
    fn authorized_corroborated_request_is_granted_and_charged() {
        let mut l = ledger(2, 0.25);
        assert_eq!(
            l.vet_install(&request(1, 1_000_000), Some(1e6), FLOOR, 800_000.0),
            Ok(())
        );
        assert_eq!(l.granted_installs(), 1);
        assert_eq!(l.denies().total(), 0);
    }

    #[test]
    fn unknown_requester_is_untrusted() {
        let mut l = TrustLedger::new(TrustConfig::default());
        let err = l.vet_install(&request(1, 1_000_000), Some(1e6), FLOOR, 1e9);
        assert_eq!(err, Err(DenyReason::UntrustedRequester));
        assert_eq!(l.denies().untrusted, 1);
        assert_eq!(l.granted_installs(), 0);
    }

    #[test]
    fn wrong_version_is_denied_before_anything_else() {
        let mut l = ledger(8, 0.0);
        let mut msg = request(1, 0);
        msg.version = 1;
        assert_eq!(l.vet_identity(&msg), Err(DenyReason::BadVersion));
        assert_eq!(l.denies().bad_version, 1);
    }

    #[test]
    fn nonces_must_advance() {
        let mut l = ledger(8, 0.0);
        assert!(l.vet_identity(&request(5, 0)).is_ok());
        assert_eq!(l.vet_identity(&request(5, 0)), Err(DenyReason::Replayed));
        assert_eq!(l.vet_identity(&request(4, 0)), Err(DenyReason::Replayed));
        assert!(l.vet_identity(&request(6, 0)).is_ok());
        assert_eq!(l.denies().replayed, 2);
    }

    #[test]
    fn uncorroborated_claim_is_denied_without_charging_budget() {
        let mut l = ledger(2, 0.25);
        // Claims 8 MB/s; the meter sees 400 kB/s of normal traffic.
        let err = l.vet_install(&request(1, 8_000_000), Some(8e6), FLOOR, 400_000.0);
        assert_eq!(err, Err(DenyReason::Uncorroborated));
        assert_eq!(l.denies().uncorroborated, 1);
        // The budget is untouched: a later honest request still fits.
        assert_eq!(
            l.vet_install(&request(2, 1_000_000), Some(1e6), FLOOR, 900_000.0),
            Ok(())
        );
    }

    #[test]
    fn sub_floor_claims_are_denied_even_when_truthful() {
        // A malicious requester cannot dodge attestation by truthfully
        // claiming the victim's (small, legitimate) aggregate: claims
        // below the attack-scale floor are unwarranted by definition.
        let mut l = ledger(2, 0.25);
        let err = l.vet_install(&request(1, 100_000), Some(1e5), FLOOR, 1e5);
        assert_eq!(err, Err(DenyReason::Uncorroborated));
    }

    #[test]
    fn refresh_installs_need_locally_observed_attack_scale() {
        let mut l = ledger(2, 0.25);
        // No claim (fresh install from a Refresh): local inflow below
        // the floor is denied, at or above the floor is granted.
        let err = l.vet_install(&request(1, 0), None, FLOOR, FLOOR * 0.5);
        assert_eq!(err, Err(DenyReason::Uncorroborated));
        assert_eq!(
            l.vet_install(&request(2, 0), None, FLOOR, FLOOR * 2.0),
            Ok(())
        );
    }

    #[test]
    fn zero_fraction_disables_attestation() {
        let mut l = ledger(2, 0.0);
        assert_eq!(
            l.vet_install(&request(1, 8_000_000), Some(8e6), FLOOR, 0.0),
            Ok(())
        );
    }

    #[test]
    fn budget_exhaustion_denies_further_installs() {
        let mut l = ledger(1, 0.0);
        assert!(l.vet_install(&request(1, 0), Some(0.0), FLOOR, 0.0).is_ok());
        let err = l.vet_install(&request(2, 0), Some(0.0), FLOOR, 0.0);
        assert_eq!(err, Err(DenyReason::BudgetExhausted));
        assert_eq!(l.denies().budget_exhausted, 1);
        assert_eq!(l.granted_installs(), 1);
    }

    #[test]
    fn budgets_are_per_requester() {
        let other = RequesterId::new(Addr::new(0x0CFA_0001));
        let mut l = ledger(1, 0.0);
        l.authorize(other);
        assert!(l.vet_install(&request(1, 0), Some(0.0), FLOOR, 0.0).is_ok());
        let from_other = ControlMsg::new(
            other,
            1,
            ControlVerb::Request {
                victim: VICTIM,
                aggregate_bps: 0,
                budget: 0,
            },
        );
        assert!(l.vet_install(&from_other, Some(0.0), FLOOR, 0.0).is_ok());
        assert_eq!(l.granted_installs(), 2);
    }

    #[test]
    fn upstream_replies_are_vetted_separately_from_requesters() {
        let upstream = RequesterId::new(Addr::new(0x0DFA_0001));
        let mut l = ledger(1, 0.0);
        l.authorize_upstream(upstream);
        let reply = |nonce| {
            ControlMsg::new(
                upstream,
                nonce,
                ControlVerb::Report {
                    victim: VICTIM,
                    aggregate_bps: 0,
                },
            )
        };
        assert_eq!(l.vet_upstream(&reply(1)), Ok(()));
        assert_eq!(l.vet_upstream(&reply(1)), Err(DenyReason::Replayed));
        // A downstream-authorized requester is not an upstream.
        let from_requester = ControlMsg::new(
            requester(),
            7,
            ControlVerb::Report {
                victim: VICTIM,
                aggregate_bps: 0,
            },
        );
        assert_eq!(
            l.vet_upstream(&from_requester),
            Err(DenyReason::UntrustedRequester)
        );
    }

    #[test]
    fn tally_totals_by_reason() {
        let mut t = DenyTally::default();
        t.count(DenyReason::BadVersion);
        t.count(DenyReason::BudgetExhausted);
        t.count(DenyReason::Uncorroborated);
        assert_eq!(t.total(), 3);
        assert_eq!(t.bad_version, 1);
        assert_eq!(t.uncorroborated, 1);
    }

    #[test]
    fn snapshot_round_trips_nonces_installs_and_tallies() {
        let mut l = TrustLedger::new(TrustConfig::default());
        l.authorize(requester());
        // A granted install advances the nonce, the install count, and
        // the grant counter; a replay bumps the deny tally.
        assert_eq!(
            l.vet_install(&request(1, 10_000), None, 1000.0, 9000.0),
            Ok(())
        );
        assert_eq!(
            l.vet_install(&request(1, 10_000), None, 1000.0, 9000.0),
            Err(DenyReason::Replayed)
        );
        let bytes = state_bytes(&l);
        let blank = || {
            let mut blank = TrustLedger::new(TrustConfig::default());
            blank.authorize(requester());
            blank
        };
        assert_state_law(&l, blank);
        let mut restored = blank();
        let mut r = mafic_obs::SnapReader::new(&bytes);
        restored.read_state(&mut r).expect("restore succeeds");
        assert!(r.is_empty());
        assert_eq!(state_hash(&l), state_hash(&restored));
        // The trust configuration is hashed, and not in `bytes`.
        let mut stricter = TrustLedger::new(TrustConfig {
            request_budget: 1,
            ..TrustConfig::default()
        });
        stricter
            .read_state(&mut mafic_obs::SnapReader::new(&bytes))
            .expect("restore succeeds");
        assert_ne!(state_hash(&l), state_hash(&stricter));
        // Replay protection survives the round trip.
        assert_eq!(
            restored.vet_install(&request(1, 10_000), None, 1000.0, 9000.0),
            Err(DenyReason::Replayed)
        );
        assert_eq!(
            restored.vet_install(&request(2, 10_000), None, 1000.0, 9000.0),
            Ok(())
        );
    }
}
