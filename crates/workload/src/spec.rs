//! Scenario specification — the experiment parameter surface.
//!
//! One [`ScenarioSpec`] captures everything the paper's evaluation
//! sweeps: traffic volume `Vt`, TCP share `Γ`, flow rate `R`, drop
//! probability `Pd`, domain size `N`, plus the spoofing mix, the drop
//! policy under test, and all timing anchors. Defaults follow Table II.
//!
//! A field exists only when some caller gives it a different value. The
//! Table II values nobody varies are constants beside the code that
//! reads them: the escalation threshold here, the tap precision, legit
//! start spread and victim bin in `scenario.rs`, the detection fallback
//! in `runner.rs`, and the link, probe and TCP constants of
//! `mafic-topology`, `mafic` and `mafic-transport`.

use mafic::DefensePolicy;
use mafic_adversary::AdversarySpec;
use mafic_loglog::{mix2, mix64};
use mafic_netsim::{SimDuration, SimTime};
use mafic_obs::fnv64;
use mafic_pushback::{PushbackConfig, TrustConfig};
use mafic_topology::{TransitTopology, MAX_DOMAINS, VICTIM_BANDWIDTH_BPS};

/// Escalation threshold as a fraction of the victim link capacity: a
/// defending domain escalates upstream while the victim-bound aggregate
/// entering its ATRs stays above this for the trigger window.
const ESCALATION_THRESHOLD: f64 = 0.25;

/// How the pushback trigger is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionMode {
    /// The LogLog set-union monitor detects the surge and identifies the
    /// ATRs (the full pipeline of the paper).
    Auto,
    /// Never activate (undefended baseline runs).
    Off,
}

/// The paper's nominal per-source sending rates (Fig. 3b series).
///
/// `R` is given in the paper both as packets/s and as a bit rate; with
/// the 500-byte segments used throughout, the three series map to the
/// packet rates below (see DESIGN.md §4 for the substitution note).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NominalRate {
    /// "100 kbps" — 25 packets/s at 500-byte packets.
    R100k,
    /// "500 kbps" — 125 packets/s.
    R500k,
    /// "1 Mbps" — 250 packets/s (Table II default).
    R1M,
}

impl NominalRate {
    /// Packets per second for this nominal rate.
    #[must_use]
    pub fn pps(self) -> f64 {
        match self {
            NominalRate::R100k => 25.0,
            NominalRate::R500k => 125.0,
            NominalRate::R1M => 250.0,
        }
    }

    /// Display label matching the paper's legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NominalRate::R100k => "R=100k",
            NominalRate::R500k => "R=500k",
            NominalRate::R1M => "R=1M",
        }
    }
}

/// Full description of one simulation run. Every field is a value some
/// caller varies; the fixed Table II values are constants (see the
/// module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// `Vt` — total number of flows (Table II: 50).
    pub total_flows: usize,
    /// `Γ` — fraction of flows that are legitimate TCP (Table II: 0.95);
    /// the remainder are unresponsive attack flows.
    pub tcp_share: f64,
    /// `R` — nominal per-source rate in packets/s (Table II: "1M").
    pub flow_rate_pps: f64,
    /// Aggregate attack volume as a multiple of `R × Vt`, split evenly
    /// across the zombies. 1.0 roughly doubles the offered load.
    pub attack_load_factor: f64,
    /// Fraction of attack flows emitting TCP-looking segments (the rest
    /// send UDP).
    pub attack_tcp_like: f64,
    /// Fraction of attack flows spoofing an *illegal* source address.
    pub spoof_illegal: f64,
    /// Fraction of attack flows spoofing a *legal* address from another
    /// subnet (the rest use their own address).
    pub spoof_legal: f64,
    /// `N` — number of routers in the domain (Table II: 40).
    pub n_routers: usize,
    /// Number of stub domains, the victim's included. `1` is the
    /// paper's single-domain scenario; `>= 2` builds a multi-domain
    /// internet where flows split round-robin over the stubs and
    /// remote traffic crosses a transit tier to reach the victim.
    pub domains: usize,
    /// Shape of the transit (provider) tier between the source stubs
    /// and the victim domain. Ignored when `domains == 1`.
    pub transit_topology: TransitTopology,
    /// Escalation budget of the cascaded pushback: how many hops
    /// upstream of the victim domain the defense may travel (`0` =
    /// victim-domain-only, today's single-domain behaviour; each
    /// transit level costs one hop, the source stubs one more).
    pub pushback_depth: u32,
    /// Per-requester install budget of every upstream trust ledger:
    /// how many fresh filter installs one downstream requester may
    /// cause at a given domain over the run. `0` refuses every
    /// escalation (upstream domains never defend on request). Ignored
    /// when `domains == 1`.
    pub trust_budget: u32,
    /// Attestation strictness of the trust ledgers: the fraction of a
    /// claimed victim-bound aggregate an upstream's own boundary meter
    /// must corroborate before it installs filters. `0` disables
    /// attestation (the unguarded legacy behaviour — any authorized
    /// requester is believed). Ignored when `domains == 1`.
    pub attestation_fraction: f64,
    /// Consecutive healthy monitor intervals (victim-bound boundary
    /// inflow at or below 1.5× the victim link) after which the victim
    /// domain stands the whole defense down: local deactivation, `Stop`
    /// upstream, `Withdraw` cascading through the chain. `0` disables
    /// subsidence detection. Ignored when `domains == 1`.
    pub subsidence_intervals: u32,
    /// Secondary subsidence evidence: when positive, a victim-side
    /// interval whose distinct source-address cardinality (from the
    /// LogLog taps) sits at or below this floor counts as healthy even
    /// above the 1.5× bandwidth ceiling — a few senders saturating the
    /// link is aggressive-but-legit load, not a flood. `0` (the
    /// default) disables the guard.
    pub subsidence_source_floor: f64,
    /// Optional closed-loop adaptive adversary driving the attack
    /// sources: each monitor interval an
    /// [`mafic_adversary::AdversaryController`] digests per-source
    /// delivered-vs-sent feedback and retargets the zombies through the
    /// configured [`mafic_adversary::StrategyKind`]. `None` (the
    /// default) keeps the open-loop senders untouched — and the run
    /// byte-identical to pre-adversary builds.
    pub adversary: Option<AdversarySpec>,
    /// When the attack traffic stops (`None` = zombies send until
    /// [`end`](ScenarioSpec::end)). Setting this mid-run is how the
    /// flood-subsidence lifecycle is exercised end to end.
    pub attack_end: Option<SimTime>,
    /// A second flood wave `(resume, stop)`: the zombies go quiet at
    /// [`attack_end`](ScenarioSpec::attack_end) (required), then resume
    /// at `resume` and transmit until `stop`. This is the two-wave
    /// lifecycle scenario — the defense must stand down after the first
    /// wave subsides and *re-engage* when the second wave arrives.
    pub second_wave: Option<(SimTime, SimTime)>,
    /// Approximate per-flow rate (bytes/s) of the background cross
    /// traffic through the transit tier: each transit domain hosts one
    /// long-lived TCP flow to a neighboring transit domain, **not**
    /// aimed at the victim, so transit congestion and collateral
    /// numbers reflect innocent-bystander traffic too. `0` (the
    /// default) disables cross traffic. Requires a transit tier.
    pub cross_traffic_bps: f64,
    /// Index (in [`mafic_topology::Internet::domains`] order) of a
    /// compromised domain mounting **malicious pushback**: every
    /// monitor interval from [`attack_start`](ScenarioSpec::attack_start)
    /// it sends forged `Request` envelopes upstream, claiming a flood
    /// toward the victim that does not exist, trying to get the
    /// victim's legitimate traffic dropped. Its own honest coordinator
    /// is disabled. `None` (the default) models no such attacker; the
    /// attacker must be a *transit* domain — the victim (index 0)
    /// defends itself, and source stubs have no upstream to forge
    /// requests to.
    pub malicious_pushback: Option<usize>,
    /// `Pd` — the probing drop probability (Table II: 0.9).
    pub drop_probability: f64,
    /// The [`DefensePolicy`] a domain runs when nothing more specific
    /// applies: the ATR policy of the paper's single domain, and of the
    /// victim domain, which must stay participating.
    pub policy: DefensePolicy,
    /// Default [`DefensePolicy`] of the *transit* (provider) domains in
    /// a multi-domain scenario. `None` inherits the spec's [`policy`]
    /// (the homogeneous deployment of the paper); `Some` lets transit
    /// ASes run a cheaper policy than the stubs — the heterogeneous
    /// frontier. Ignored when `domains == 1`.
    ///
    /// [`policy`]: ScenarioSpec::policy
    pub transit_policy: Option<DefensePolicy>,
    /// Fraction of the non-victim domains that participate in the
    /// pushback federation (the partial-deployment axis of El Defrawy
    /// et al.). Placement is deterministic and *nested*: domains are
    /// ranked by a seed-derived hash, and the top
    /// `round(fraction × count)` participate — so growing the fraction
    /// only ever adds defending domains. Non-participating domains
    /// install nothing; escalation requests route *through* them to the
    /// nearest participating domain upstream. `1.0` (the default)
    /// reproduces the full-deployment behaviour exactly.
    pub participation_fraction: f64,
    /// Probation timer as a multiple of the flow RTT (paper: 2).
    pub timer_rtt_multiplier: f64,
    /// Optional NFT re-validation period (anti-pulsing extension; the
    /// paper's algorithm never re-probes).
    pub nft_revalidate_after: Option<SimDuration>,
    /// How the pushback trigger is decided.
    pub detection: DetectionMode,
    /// Monitor sampling interval (traffic-matrix epochs).
    pub monitor_interval: SimDuration,
    /// When the attack begins.
    pub attack_start: SimTime,
    /// End of the simulated run.
    pub end: SimTime,
    /// Ring capacity of the simulator's [`mafic_netsim::TraceBuffer`].
    /// `0` (the default) leaves tracing off; when positive, the runner
    /// surfaces the last events in [`crate::RunOutcome::trace_tail`]
    /// and embeds them in the run ledger.
    pub trace_capacity: usize,
    /// Record a per-interval [`mafic_obs::RunLedger`] of chained
    /// component state hashes. Off by default: the hot path pays
    /// nothing when disabled (one branch per monitor interval).
    pub ledger: bool,
    /// Capture a verified state snapshot at the first monitor interval
    /// boundary at or after this instant. The runner surfaces the
    /// encoded bytes in [`crate::RunOutcome::checkpoint`]; restoring
    /// them (see [`crate::restore_run`]) resumes the run mid-flight,
    /// byte-identically. `None` (the default) skips capture entirely.
    pub checkpoint_at: Option<SimTime>,
    /// Master seed; all component seeds derive from it.
    pub seed: u64,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            total_flows: 50,
            tcp_share: 0.95,
            flow_rate_pps: NominalRate::R1M.pps(),
            attack_load_factor: 1.0,
            attack_tcp_like: 0.5,
            spoof_illegal: 0.25,
            spoof_legal: 0.25,
            n_routers: 40,
            domains: 1,
            transit_topology: TransitTopology::Chain { depth: 2 },
            pushback_depth: 0,
            trust_budget: 8,
            attestation_fraction: 0.25,
            subsidence_intervals: 8,
            subsidence_source_floor: 0.0,
            adversary: None,
            attack_end: None,
            second_wave: None,
            cross_traffic_bps: 0.0,
            malicious_pushback: None,
            drop_probability: 0.9,
            policy: DefensePolicy::FullMafic,
            transit_policy: None,
            participation_fraction: 1.0,
            timer_rtt_multiplier: 2.0,
            nft_revalidate_after: None,
            detection: DetectionMode::Auto,
            monitor_interval: SimDuration::from_millis(100),
            attack_start: SimTime::from_secs_f64(1.0),
            end: SimTime::from_secs_f64(8.0),
            trace_capacity: 0,
            ledger: false,
            checkpoint_at: None,
            seed: 1,
        }
    }
}

impl ScenarioSpec {
    /// Number of legitimate TCP flows.
    #[must_use]
    pub(crate) fn legit_flow_count(&self) -> usize {
        self.total_flows - self.attack_flow_count()
    }

    /// Number of attack flows — at least one whenever flows exist, so the
    /// "under attack" scenarios stay meaningful across the `Γ` sweep.
    #[must_use]
    pub(crate) fn attack_flow_count(&self) -> usize {
        if self.total_flows == 0 {
            return 0;
        }
        let raw = ((1.0 - self.tcp_share) * self.total_flows as f64).round() as usize;
        raw.clamp(1, self.total_flows)
    }

    /// Per-zombie sending rate in packets/s.
    #[must_use]
    pub fn attack_rate_pps(&self) -> f64 {
        let attackers = self.attack_flow_count();
        if attackers == 0 {
            return 0.0;
        }
        self.attack_load_factor * self.flow_rate_pps * self.total_flows as f64 / attackers as f64
    }

    /// Total number of domains the built scenario will contain: the
    /// stub domains plus the transit tier (1 for a single-domain
    /// scenario). Indices follow [`mafic_topology::Internet::domains`]
    /// order: victim stub, transit domains in level order, source stubs.
    #[must_use]
    pub(crate) fn total_domain_count(&self) -> usize {
        if self.domains <= 1 {
            1
        } else {
            self.domains + self.transit_topology.domain_count()
        }
    }

    /// The run's identity in ledger and snapshot headers: FNV-1a over
    /// the spec's `Debug` rendering. A restore checks it, so a
    /// checkpoint only resumes under the spec that captured it.
    #[must_use]
    pub(crate) fn fingerprint(&self) -> u64 {
        fnv64(format!("{self:?}").as_bytes())
    }

    /// The [`PushbackConfig`] every domain coordinator of a
    /// multi-domain scenario runs with: the escalation threshold and
    /// the healthy (subsidence) ceiling are both derived from the
    /// victim link capacity; trust knobs come straight from the spec.
    #[must_use]
    pub(crate) fn pushback_config(&self) -> PushbackConfig {
        let link_bytes_per_sec = VICTIM_BANDWIDTH_BPS / 8.0;
        PushbackConfig {
            threshold_bps: ESCALATION_THRESHOLD * link_bytes_per_sec,
            // "Healthy" means not overloaded: normal legitimate load
            // fills the victim link, so the stand-down ceiling sits
            // above capacity, not below the escalation threshold.
            healthy_bps: 1.5 * link_bytes_per_sec,
            subsidence_intervals: self.subsidence_intervals,
            subsidence_source_floor: self.subsidence_source_floor,
            trust: TrustConfig {
                request_budget: self.trust_budget,
                attestation_fraction: self.attestation_fraction,
            },
            ..PushbackConfig::default()
        }
    }

    /// Resolves one [`DefensePolicy`] per domain, in
    /// [`mafic_topology::Internet::domains`] order.
    ///
    /// Resolution order per domain: the nested [`participation_fraction`]
    /// draw may mark a non-victim domain
    /// [`DefensePolicy::NonParticipating`]; else [`transit_policy`] for
    /// transit-tier domains; else the spec's
    /// [`policy`](ScenarioSpec::policy). The victim domain (index 0)
    /// never enters the participation draw.
    ///
    /// [`participation_fraction`]: ScenarioSpec::participation_fraction
    /// [`transit_policy`]: ScenarioSpec::transit_policy
    ///
    /// # Examples
    ///
    /// A minimal heterogeneous multi-domain scenario — three stubs over
    /// one transit domain, the transit AS on a cheap aggregate rate
    /// limit, two of the three non-victim domains participating —
    /// validated and resolved:
    ///
    /// ```
    /// use mafic::DefensePolicy;
    /// use mafic_workload::{ScenarioSpec, Scenario};
    /// use mafic_topology::TransitTopology;
    ///
    /// let spec = ScenarioSpec {
    ///     total_flows: 12,
    ///     n_routers: 6,
    ///     domains: 3,
    ///     transit_topology: TransitTopology::Chain { depth: 1 },
    ///     pushback_depth: 2,
    ///     transit_policy: Some(DefensePolicy::AggregateRateLimit {
    ///         limit_bytes_per_sec: 250_000.0,
    ///     }),
    ///     participation_fraction: 2.0 / 3.0,
    ///     ..ScenarioSpec::default()
    /// };
    /// spec.validate().expect("heterogeneous spec is valid");
    ///
    /// // Domains: 0 = victim stub, 1 = transit, 2..=3 = source stubs.
    /// let policies = spec.resolved_policies();
    /// assert_eq!(policies.len(), 4);
    /// assert_eq!(policies[0], DefensePolicy::FullMafic);
    /// let opted_out = policies.iter().filter(|p| !p.participating()).count();
    /// assert_eq!(opted_out, 1);
    ///
    /// // The spec builds into a fully wired scenario.
    /// let scenario = Scenario::build(spec).expect("buildable");
    /// assert_eq!(scenario.internet.as_ref().unwrap().domains.len(), 4);
    /// ```
    #[must_use]
    pub fn resolved_policies(&self) -> Vec<DefensePolicy> {
        let total = self.total_domain_count();
        if total == 1 {
            return vec![self.policy];
        }
        let n_transit = self.transit_topology.domain_count();
        let participating = self.participation_set(total);
        (0..total)
            .map(|d| {
                if d == 0 {
                    return self.policy;
                }
                if !participating[d] {
                    return DefensePolicy::NonParticipating;
                }
                if d <= n_transit {
                    self.transit_policy.unwrap_or(self.policy)
                } else {
                    self.policy
                }
            })
            .collect()
    }

    /// The nested participation draw: ranks the non-victim domains by a
    /// seed-derived hash and admits the top `round(fraction × count)`.
    /// Returns one flag per domain (index 0 always true).
    fn participation_set(&self, total: usize) -> Vec<bool> {
        let mut flags = vec![true; total];
        if self.participation_fraction >= 1.0 || total <= 1 {
            return flags;
        }
        let candidates = total - 1;
        let admitted = (self.participation_fraction * candidates as f64).round() as usize;
        // Rank by hash; ties (impossible with a bijective mixer, but
        // harmless) break by index.
        let mut ranked: Vec<(u64, usize)> = (1..total)
            .map(|d| (mix64(mix2(self.seed, d as u64) ^ 0x9A57_1C1A), d))
            .collect();
        ranked.sort_unstable();
        for &(_, d) in ranked.iter().skip(admitted) {
            flags[d] = false;
        }
        flags
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.total_flows == 0 {
            return Err("total_flows must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.tcp_share) {
            return Err(format!(
                "tcp_share must be in [0, 1], got {}",
                self.tcp_share
            ));
        }
        if !self.flow_rate_pps.is_finite() || self.flow_rate_pps <= 0.0 {
            return Err("flow_rate_pps must be finite and > 0".into());
        }
        // The zombies' constant-rate senders need a finite, positive rate.
        if !self.attack_load_factor.is_finite() || self.attack_load_factor <= 0.0 {
            return Err(format!(
                "attack_load_factor must be finite and > 0, got {}",
                self.attack_load_factor
            ));
        }
        for (name, v) in [
            ("attack_tcp_like", self.attack_tcp_like),
            ("spoof_illegal", self.spoof_illegal),
            ("spoof_legal", self.spoof_legal),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0, 1], got {v}"));
            }
        }
        if self.spoof_illegal + self.spoof_legal > 1.0 + 1e-9 {
            return Err("spoof_illegal + spoof_legal must not exceed 1".into());
        }
        if self.n_routers < 3 {
            return Err(format!("n_routers must be >= 3, got {}", self.n_routers));
        }
        if self.domains == 0 {
            return Err("domains must be >= 1".into());
        }
        if self.domains > 64 {
            return Err(format!("domains must be <= 64, got {}", self.domains));
        }
        self.transit_topology.validate()?;
        let total = self.total_domain_count();
        if total > MAX_DOMAINS {
            return Err(format!(
                "{total} domains in all exceed the {MAX_DOMAINS}-domain cap"
            ));
        }
        if self.domains == 1 && self.pushback_depth > 0 {
            return Err("pushback_depth > 0 requires domains >= 2".into());
        }
        // The derived coordinator config vets the trust and subsidence
        // knobs with the typed PushbackConfigError.
        self.pushback_config()
            .validate()
            .map_err(|e| format!("pushback config: {e}"))?;
        if let Some(adversary) = &self.adversary {
            adversary
                .validate()
                .map_err(|e| format!("adversary: {e}"))?;
        }
        if let Some(attack_end) = self.attack_end {
            if attack_end <= self.attack_start {
                return Err("attack_end must come after attack_start".into());
            }
            if attack_end > self.end {
                return Err("attack_end must not exceed end".into());
            }
        }
        if let Some((resume, stop)) = self.second_wave {
            let Some(attack_end) = self.attack_end else {
                return Err("second_wave requires attack_end (the first wave must stop)".into());
            };
            if resume < attack_end {
                return Err("second_wave resume must not precede attack_end".into());
            }
            if stop <= resume {
                return Err("second_wave stop must come after its resume".into());
            }
            if stop > self.end {
                return Err("second_wave stop must not exceed end".into());
            }
        }
        if !self.cross_traffic_bps.is_finite() || self.cross_traffic_bps < 0.0 {
            return Err(format!(
                "cross_traffic_bps must be finite and >= 0, got {}",
                self.cross_traffic_bps
            ));
        }
        if self.cross_traffic_bps > 0.0
            && (self.domains < 2 || self.transit_topology.domain_count() == 0)
        {
            return Err("cross_traffic_bps > 0 requires a transit tier (domains >= 2 and a non-empty transit topology)".into());
        }
        if let Some(d) = self.malicious_pushback {
            if self.domains < 2 {
                return Err("malicious_pushback requires domains >= 2".into());
            }
            if d == 0 {
                return Err("the victim domain (index 0) cannot mount malicious pushback".into());
            }
            // Source stubs sit at the top of the pushback path: they
            // have no upstream to forge requests to, so naming one
            // would silently run an attack-free "attack" scenario.
            let n_transit = self.transit_topology.domain_count();
            if d > n_transit {
                return Err(format!(
                    "malicious_pushback must name a transit domain (1..={n_transit}); \
                     domain {d} is a source stub with no upstream to forge requests to"
                ));
            }
        }
        if !(0.0..=1.0).contains(&self.participation_fraction) {
            return Err(format!(
                "participation_fraction must be in [0, 1], got {}",
                self.participation_fraction
            ));
        }
        if self.domains == 1 {
            if self.transit_policy.is_some() {
                return Err("transit_policy requires domains >= 2".into());
            }
            if self.participation_fraction < 1.0 {
                return Err("participation_fraction < 1 requires domains >= 2".into());
            }
        }
        self.policy.validate().map_err(|e| format!("policy: {e}"))?;
        if !self.policy.participating() {
            return Err("policy must be participating (the victim domain always defends)".into());
        }
        if let Some(p) = self.transit_policy {
            p.validate().map_err(|e| format!("transit_policy: {e}"))?;
        }
        if !(0.0..=1.0).contains(&self.drop_probability) {
            return Err("drop_probability must be in [0, 1]".into());
        }
        if !self.timer_rtt_multiplier.is_finite() || self.timer_rtt_multiplier <= 0.0 {
            return Err(format!(
                "timer_rtt_multiplier must be finite and > 0, got {}",
                self.timer_rtt_multiplier
            ));
        }
        if self.nft_revalidate_after.is_some_and(SimDuration::is_zero) {
            return Err("nft_revalidate_after must be positive".into());
        }
        if self.attack_start >= self.end {
            return Err("attack_start must precede end".into());
        }
        if self.monitor_interval.is_zero() {
            return Err("monitor_interval must be positive".into());
        }
        if let Some(at) = self.checkpoint_at {
            if at >= self.end {
                return Err("checkpoint_at must precede end".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let s = ScenarioSpec::default();
        assert_eq!(s.total_flows, 50);
        assert!((s.tcp_share - 0.95).abs() < 1e-9);
        assert_eq!(s.n_routers, 40);
        assert!((s.drop_probability - 0.9).abs() < 1e-9);
        assert_eq!(s.flow_rate_pps, 250.0);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn flow_split_respects_gamma() {
        let s = ScenarioSpec {
            total_flows: 100,
            tcp_share: 0.8,
            ..ScenarioSpec::default()
        };
        assert_eq!(s.attack_flow_count(), 20);
        assert_eq!(s.legit_flow_count(), 80);
    }

    #[test]
    fn at_least_one_attacker() {
        let s = ScenarioSpec {
            total_flows: 10,
            tcp_share: 1.0,
            ..ScenarioSpec::default()
        };
        assert_eq!(s.attack_flow_count(), 1);
        assert_eq!(s.legit_flow_count(), 9);
    }

    #[test]
    fn attack_rate_splits_total_volume() {
        let s = ScenarioSpec {
            total_flows: 50,
            tcp_share: 0.9, // 5 attackers
            flow_rate_pps: 100.0,
            attack_load_factor: 1.0,
            ..ScenarioSpec::default()
        };
        // Total attack = 1.0 × 100 × 50 = 5000 pps over 5 zombies.
        assert!((s.attack_rate_pps() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn nominal_rates_map_to_pps() {
        assert_eq!(NominalRate::R100k.pps(), 25.0);
        assert_eq!(NominalRate::R500k.pps(), 125.0);
        assert_eq!(NominalRate::R1M.pps(), 250.0);
        assert_eq!(NominalRate::R1M.label(), "R=1M");
    }

    #[test]
    fn validation_catches_bad_specs() {
        let base = ScenarioSpec::default();
        assert!(ScenarioSpec {
            total_flows: 0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(ScenarioSpec {
            tcp_share: 1.5,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(ScenarioSpec {
            n_routers: 2,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(ScenarioSpec {
            spoof_illegal: 0.7,
            spoof_legal: 0.7,
            ..base.clone()
        }
        .validate()
        .is_err());
        // Both of these once validated and then panicked in the build.
        assert!(ScenarioSpec {
            attack_load_factor: 0.0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(ScenarioSpec {
            nft_revalidate_after: Some(SimDuration::ZERO),
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(ScenarioSpec {
            attack_start: SimTime::from_secs_f64(9.0),
            ..base
        }
        .validate()
        .is_err());
    }

    #[test]
    fn validation_catches_bad_timer_multiplier() {
        let base = ScenarioSpec::default();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = ScenarioSpec {
                timer_rtt_multiplier: bad,
                ..base.clone()
            }
            .validate()
            .expect_err(&format!("timer_rtt_multiplier {bad} must be rejected"));
            assert!(err.contains("timer_rtt_multiplier"), "{err}");
        }
    }

    #[test]
    fn validation_catches_bad_multi_domain_fields() {
        let base = ScenarioSpec::default();
        for (label, bad) in [
            (
                "zero domains",
                ScenarioSpec {
                    domains: 0,
                    ..base.clone()
                },
            ),
            (
                "too many domains",
                ScenarioSpec {
                    domains: 65,
                    ..base.clone()
                },
            ),
            (
                "depth without domains",
                ScenarioSpec {
                    pushback_depth: 1,
                    ..base.clone()
                },
            ),
            (
                "more than 100 domains in all",
                ScenarioSpec {
                    domains: 64,
                    transit_topology: TransitTopology::Chain { depth: 37 },
                    ..base.clone()
                },
            ),
        ] {
            assert!(bad.validate().is_err(), "{label} must be rejected");
        }
        let multi = ScenarioSpec {
            domains: 3,
            pushback_depth: 3,
            ..base
        };
        assert!(multi.validate().is_ok());
    }

    #[test]
    fn resolved_policies_default_to_the_homogeneous_deployment() {
        let spec = ScenarioSpec {
            domains: 3,
            transit_topology: TransitTopology::Chain { depth: 2 },
            ..ScenarioSpec::default()
        };
        // victim + 2 transit + 2 remote stubs.
        assert_eq!(spec.total_domain_count(), 5);
        let policies = spec.resolved_policies();
        assert_eq!(policies.len(), 5);
        assert!(policies.iter().all(|&p| p == DefensePolicy::FullMafic));
    }

    #[test]
    fn transit_policy_applies_to_the_transit_tier_only() {
        let spec = ScenarioSpec {
            domains: 3,
            transit_topology: TransitTopology::Chain { depth: 2 },
            transit_policy: Some(DefensePolicy::ProportionalDrop),
            ..ScenarioSpec::default()
        };
        let policies = spec.resolved_policies();
        assert_eq!(policies[0], DefensePolicy::FullMafic, "victim stub");
        assert_eq!(policies[1], DefensePolicy::ProportionalDrop);
        assert_eq!(policies[2], DefensePolicy::ProportionalDrop);
        assert_eq!(policies[3], DefensePolicy::FullMafic, "source stub");
        assert_eq!(policies[4], DefensePolicy::FullMafic, "source stub");
    }

    #[test]
    fn participation_draw_is_nested_and_never_touches_the_victim() {
        let spec = |f: f64| ScenarioSpec {
            domains: 4,
            transit_topology: TransitTopology::Chain { depth: 2 },
            participation_fraction: f,
            ..ScenarioSpec::default()
        };
        let fractions = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
        let mut last: Vec<usize> = Vec::new();
        for f in fractions {
            let participating: Vec<usize> = spec(f)
                .resolved_policies()
                .iter()
                .enumerate()
                .filter(|(_, p)| p.participating())
                .map(|(d, _)| d)
                .collect();
            assert!(participating.contains(&0), "victim always participates");
            assert!(
                last.iter().all(|d| participating.contains(d)),
                "fraction {f}: participation must grow nested, {last:?} -> {participating:?}"
            );
            last = participating;
        }
        assert_eq!(last.len(), spec(1.0).total_domain_count());
        // Fraction 0: only the victim domain defends.
        assert_eq!(
            spec(0.0)
                .resolved_policies()
                .iter()
                .filter(|p| p.participating())
                .count(),
            1
        );
    }

    #[test]
    fn validation_catches_bad_policy_fields() {
        let base = ScenarioSpec {
            domains: 2,
            transit_topology: TransitTopology::Chain { depth: 1 },
            ..ScenarioSpec::default()
        };
        for (label, bad) in [
            (
                "fraction above 1",
                ScenarioSpec {
                    participation_fraction: 1.5,
                    ..base.clone()
                },
            ),
            (
                "nan fraction",
                ScenarioSpec {
                    participation_fraction: f64::NAN,
                    ..base.clone()
                },
            ),
            (
                "single-domain transit policy",
                ScenarioSpec {
                    domains: 1,
                    transit_policy: Some(DefensePolicy::FullMafic),
                    ..ScenarioSpec::default()
                },
            ),
            (
                "single-domain partial participation",
                ScenarioSpec {
                    domains: 1,
                    participation_fraction: 0.5,
                    ..ScenarioSpec::default()
                },
            ),
            (
                "invalid rate limit",
                ScenarioSpec {
                    transit_policy: Some(DefensePolicy::AggregateRateLimit {
                        limit_bytes_per_sec: 0.0,
                    }),
                    ..base.clone()
                },
            ),
            (
                "non-participating base policy",
                ScenarioSpec {
                    policy: DefensePolicy::NonParticipating,
                    ..ScenarioSpec::default()
                },
            ),
            (
                "invalid base rate limit",
                ScenarioSpec {
                    policy: DefensePolicy::AggregateRateLimit {
                        limit_bytes_per_sec: f64::NAN,
                    },
                    ..base.clone()
                },
            ),
        ] {
            assert!(bad.validate().is_err(), "{label} must be rejected");
        }
        assert!(base.validate().is_ok());
    }

    #[test]
    fn pushback_config_derives_from_the_spec() {
        let spec = ScenarioSpec {
            trust_budget: 3,
            attestation_fraction: 0.1,
            subsidence_intervals: 4,
            ..ScenarioSpec::default()
        };
        let cfg = spec.pushback_config();
        assert!(cfg.validate().is_ok());
        // A quarter of the 10 Mbit/s victim link, in bytes/s.
        assert!((cfg.threshold_bps - 312_500.0).abs() < 1e-6);
        assert!(cfg.healthy_bps > cfg.threshold_bps, "healthy above trigger");
        assert_eq!(cfg.trust.request_budget, 3);
        assert!((cfg.trust.attestation_fraction - 0.1).abs() < 1e-12);
        assert_eq!(cfg.subsidence_intervals, 4);
    }

    #[test]
    fn validation_catches_bad_trust_and_lifecycle_fields() {
        let multi = ScenarioSpec {
            domains: 3,
            transit_topology: TransitTopology::Chain { depth: 1 },
            ..ScenarioSpec::default()
        };
        for (label, bad) in [
            (
                "attestation fraction above 1",
                ScenarioSpec {
                    attestation_fraction: 1.5,
                    ..multi.clone()
                },
            ),
            (
                "nan attestation fraction",
                ScenarioSpec {
                    attestation_fraction: f64::NAN,
                    ..multi.clone()
                },
            ),
            (
                "attack_end before attack_start",
                ScenarioSpec {
                    attack_end: Some(SimTime::from_secs_f64(0.5)),
                    ..multi.clone()
                },
            ),
            (
                "attack_end past end",
                ScenarioSpec {
                    attack_end: Some(SimTime::from_secs_f64(99.0)),
                    ..multi.clone()
                },
            ),
            (
                "second_wave without attack_end",
                ScenarioSpec {
                    second_wave: Some((SimTime::from_secs_f64(5.0), SimTime::from_secs_f64(6.0))),
                    ..multi.clone()
                },
            ),
            (
                "second_wave resume before attack_end",
                ScenarioSpec {
                    attack_end: Some(SimTime::from_secs_f64(4.0)),
                    second_wave: Some((SimTime::from_secs_f64(3.0), SimTime::from_secs_f64(6.0))),
                    ..multi.clone()
                },
            ),
            (
                "second_wave stop not after resume",
                ScenarioSpec {
                    attack_end: Some(SimTime::from_secs_f64(4.0)),
                    second_wave: Some((SimTime::from_secs_f64(5.0), SimTime::from_secs_f64(5.0))),
                    ..multi.clone()
                },
            ),
            (
                "second_wave past end",
                ScenarioSpec {
                    attack_end: Some(SimTime::from_secs_f64(4.0)),
                    second_wave: Some((SimTime::from_secs_f64(5.0), SimTime::from_secs_f64(99.0))),
                    ..multi.clone()
                },
            ),
            (
                "negative cross traffic",
                ScenarioSpec {
                    cross_traffic_bps: -1.0,
                    ..multi.clone()
                },
            ),
            (
                "cross traffic without a transit tier",
                ScenarioSpec {
                    cross_traffic_bps: 10_000.0,
                    transit_topology: TransitTopology::Chain { depth: 0 },
                    ..multi.clone()
                },
            ),
            (
                "single-domain cross traffic",
                ScenarioSpec {
                    cross_traffic_bps: 10_000.0,
                    ..ScenarioSpec::default()
                },
            ),
            (
                "single-domain malicious pushback",
                ScenarioSpec {
                    malicious_pushback: Some(1),
                    ..ScenarioSpec::default()
                },
            ),
            (
                "victim as the malicious requester",
                ScenarioSpec {
                    malicious_pushback: Some(0),
                    ..multi.clone()
                },
            ),
            (
                "out-of-range malicious domain",
                ScenarioSpec {
                    malicious_pushback: Some(40),
                    ..multi.clone()
                },
            ),
        ] {
            assert!(bad.validate().is_err(), "{label} must be rejected");
        }
        let good = ScenarioSpec {
            trust_budget: 0,
            attestation_fraction: 0.0,
            subsidence_intervals: 0,
            attack_end: Some(SimTime::from_secs_f64(4.0)),
            cross_traffic_bps: 50_000.0,
            malicious_pushback: Some(1),
            ..multi
        };
        assert!(good.validate().is_ok(), "{:?}", good.validate());
    }
}
