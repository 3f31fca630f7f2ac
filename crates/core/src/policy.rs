//! Per-domain defense policies for heterogeneous, partially deployed
//! pushback.
//!
//! The paper evaluates one defense — full MAFIC probing — at every
//! Attack Transit Router. Real deployments are messier: transit ASes
//! may only afford a cheap aggregate rate limit, some domains run the
//! older proportional dropper, and many do not cooperate at all (the
//! placement/coverage question of El Defrawy et al. and Li et al.).
//! [`DefensePolicy`] names what one domain boundary runs; the workload
//! layer resolves one policy per domain (explicit overrides, a
//! transit-tier default, and a seeded participation draw) and installs
//! the matching filter type at that domain's ATRs.
//!
//! Non-participating domains install *nothing*: pushback requests skip
//! over them to the nearest participating domain upstream, while the
//! request packets (and the flood) still route *through* their links —
//! exactly the coverage gap partial-deployment studies measure.

use std::fmt;

/// Ledger tags telling the defense filter types apart: a policy swap at
/// the same chain slot is itself a divergence. Hash-only — a checkpoint
/// restores onto a chain rebuilt from the spec.
pub(crate) const TAG_MAFIC: u8 = 0;
pub(crate) const TAG_PROPORTIONAL: u8 = 1;
pub(crate) const TAG_RATE_LIMIT: u8 = 2;

/// The defense a single domain boundary deploys at its ATRs.
///
/// # Examples
///
/// ```
/// use mafic::DefensePolicy;
///
/// // A cheap transit policy: cap victim-bound aggregate at 250 kB/s.
/// let transit = DefensePolicy::AggregateRateLimit {
///     limit_bytes_per_sec: 250_000.0,
/// };
/// assert!(transit.participating());
/// assert!(transit.validate().is_ok());
/// assert_eq!(transit.label(), "rate-limit");
///
/// // A domain that opted out of the pushback federation entirely.
/// assert!(!DefensePolicy::NonParticipating.participating());
///
/// // Rate limits must be positive and finite.
/// let bad = DefensePolicy::AggregateRateLimit {
///     limit_bytes_per_sec: 0.0,
/// };
/// assert!(bad.validate().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DefensePolicy {
    /// The paper's full adaptive dropper: SFT/NFT/PDT tables, probe
    /// bursts, per-flow verdicts ([`crate::MaficFilter`]).
    FullMafic,
    /// Uniform proportional dropping of victim-bound packets, the `[2]`
    /// baseline ([`crate::ProportionalFilter`]). No per-flow state
    /// beyond drop diagnostics, no probes, no timers.
    ProportionalDrop,
    /// A token-bucket cap on the victim-bound *aggregate*
    /// ([`crate::RateLimitFilter`]): O(1) state, no per-flow tables at
    /// all — the cheapest policy a transit AS can deploy.
    AggregateRateLimit {
        /// Sustained victim-bound byte rate admitted while active.
        limit_bytes_per_sec: f64,
    },
    /// The domain does not cooperate: no filters, no coordinator, no
    /// meters. Escalation requests skip over it (routing through its
    /// links) to the nearest participating domain upstream.
    NonParticipating,
}

impl DefensePolicy {
    /// True if the domain takes part in the pushback federation (installs
    /// filters and answers escalation requests).
    #[must_use]
    pub fn participating(self) -> bool {
        !matches!(self, DefensePolicy::NonParticipating)
    }

    /// Short stable label used by cost reports and figure legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DefensePolicy::FullMafic => "mafic",
            DefensePolicy::ProportionalDrop => "proportional",
            DefensePolicy::AggregateRateLimit { .. } => "rate-limit",
            DefensePolicy::NonParticipating => "none",
        }
    }

    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(self) -> Result<(), String> {
        if let DefensePolicy::AggregateRateLimit {
            limit_bytes_per_sec,
        } = self
        {
            if !limit_bytes_per_sec.is_finite() || limit_bytes_per_sec <= 0.0 {
                return Err(format!(
                    "rate-limit policy needs a finite positive limit, got {limit_bytes_per_sec}"
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for DefensePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefensePolicy::AggregateRateLimit {
                limit_bytes_per_sec,
            } => {
                write!(f, "rate-limit({limit_bytes_per_sec:.0} B/s)")
            }
            other => f.write_str(other.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn participation_flags() {
        assert!(DefensePolicy::FullMafic.participating());
        assert!(DefensePolicy::ProportionalDrop.participating());
        assert!(DefensePolicy::AggregateRateLimit {
            limit_bytes_per_sec: 1.0
        }
        .participating());
        assert!(!DefensePolicy::NonParticipating.participating());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(DefensePolicy::FullMafic.label(), "mafic");
        assert_eq!(DefensePolicy::ProportionalDrop.label(), "proportional");
        assert_eq!(
            DefensePolicy::AggregateRateLimit {
                limit_bytes_per_sec: 9.0
            }
            .label(),
            "rate-limit"
        );
        assert_eq!(DefensePolicy::NonParticipating.label(), "none");
    }

    #[test]
    fn rate_limit_validation() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                DefensePolicy::AggregateRateLimit {
                    limit_bytes_per_sec: bad
                }
                .validate()
                .is_err(),
                "{bad} must be rejected"
            );
        }
        assert!(DefensePolicy::AggregateRateLimit {
            limit_bytes_per_sec: 1e6
        }
        .validate()
        .is_ok());
        assert!(DefensePolicy::NonParticipating.validate().is_ok());
    }

    #[test]
    fn display_includes_the_limit() {
        let p = DefensePolicy::AggregateRateLimit {
            limit_bytes_per_sec: 250_000.0,
        };
        assert_eq!(p.to_string(), "rate-limit(250000 B/s)");
        assert_eq!(DefensePolicy::FullMafic.to_string(), "mafic");
    }
}
