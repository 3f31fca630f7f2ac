//! MAFIC configuration and the source-address legality oracle.

use crate::label::LabelMode;
use mafic_netsim::{Addr, SimDuration};
use std::fmt;

/// Decides whether a claimed source address is "legitimate" — a valid
/// address of some allocated subnet (the paper's definition; it says
/// nothing about whether the sender truly owns it).
///
/// Packets failing this check go straight to the Permanently Drop Table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum AddressValidator {
    /// Treat every address as legal (disables the illegal-source path).
    #[default]
    AllowAll,
    /// Legal iff the address falls inside one of the prefixes.
    Prefixes(Vec<(Addr, u8)>),
}

impl AddressValidator {
    /// True if `addr` is a legal source address.
    #[must_use]
    pub fn is_legal(&self, addr: Addr) -> bool {
        match self {
            AddressValidator::AllowAll => true,
            AddressValidator::Prefixes(prefixes) => prefixes
                .iter()
                .any(|&(prefix, len)| addr.in_prefix(prefix, len)),
        }
    }
}

/// A flow is "responsive" if its post-probe rate is at most this
/// fraction of its pre-probe baseline.
pub(crate) const DECREASE_THRESHOLD: f64 = 0.7;
/// Duplicate ACKs per probe burst (≥ 3 triggers fast retransmit in
/// compliant senders).
pub(crate) const PROBE_DUP_ACKS: u8 = 3;
/// Probe packet size in bytes.
pub(crate) const PROBE_SIZE: u32 = 40;
/// Arrival-history retention for rate measurements.
pub(crate) const RATE_HORIZON: SimDuration = SimDuration::from_secs(3);
/// Maximum number of flows tracked by the arrival recorder.
pub(crate) const RATE_MAX_FLOWS: usize = 8192;
/// Fallback RTT when a flow carries no usable timestamp.
pub(crate) const DEFAULT_RTT: SimDuration = SimDuration::from_millis(100);
/// Lower clamp for per-flow RTT estimates.
pub(crate) const MIN_RTT: SimDuration = SimDuration::from_millis(20);
/// Upper clamp for per-flow RTT estimates.
pub(crate) const MAX_RTT: SimDuration = SimDuration::from_millis(500);

/// Tunables of the MAFIC adaptive dropper.
///
/// Defaults follow the paper's Table II (`Pd = 90%`, timer `= 2 × RTT`).
/// Only values some caller varies are fields. The values nobody varies
/// are the constants in this module: the responsiveness threshold
/// (`DECREASE_THRESHOLD`), the probe burst (`PROBE_DUP_ACKS`,
/// `PROBE_SIZE`), the arrival recorder's bounds (`RATE_HORIZON`,
/// `RATE_MAX_FLOWS`) and the per-flow RTT fallback and clamps
/// (`DEFAULT_RTT`, `MIN_RTT`, `MAX_RTT`).
///
/// # Example
///
/// ```
/// use mafic::MaficConfig;
///
/// let config = MaficConfig {
///     drop_probability: 0.8,
///     timer_rtt_multiplier: 2.0,
///     ..MaficConfig::default()
/// };
/// assert!(config.validate().is_ok());
/// assert_eq!(config.drop_probability, 0.8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MaficConfig {
    /// `Pd` — probability of dropping a packet of a new or suspicious
    /// flow during the probing phase.
    pub drop_probability: f64,
    /// Timer length as a multiple of the flow RTT (the paper uses 2).
    pub timer_rtt_multiplier: f64,
    /// Label storage model for table-memory accounting
    /// ([`crate::FlowTables::approx_bytes`]). Classification itself is
    /// keyed by exact interned flow ids in every mode, so this no longer
    /// affects drop behaviour — only the modeled per-entry label cost.
    pub label_mode: LabelMode,
    /// SFT capacity (flows on probation).
    pub sft_capacity: usize,
    /// NFT capacity.
    pub nft_capacity: usize,
    /// PDT capacity.
    pub pdt_capacity: usize,
    /// Optional NFT re-validation period: a flow that passed the probe
    /// test is re-probed this long after clearing, so pulsing (shrew)
    /// attackers that timed their silent phase over the probation window
    /// get another chance to be caught. `None` (the paper's behaviour)
    /// never re-probes.
    pub nft_revalidate_after: Option<SimDuration>,
    /// Seed for the drop-decision RNG.
    pub seed: u64,
}

impl Default for MaficConfig {
    fn default() -> Self {
        MaficConfig {
            drop_probability: 0.9,
            timer_rtt_multiplier: 2.0,
            label_mode: LabelMode::Hashed,
            sft_capacity: 4096,
            nft_capacity: 4096,
            pdt_capacity: 4096,
            nft_revalidate_after: None,
            seed: 0x4D41_4649,
        }
    }
}

impl MaficConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.drop_probability) {
            return Err(ConfigError::new("drop_probability must be in [0, 1]"));
        }
        if !(self.timer_rtt_multiplier > 0.0 && self.timer_rtt_multiplier.is_finite()) {
            return Err(ConfigError::new("timer_rtt_multiplier must be positive"));
        }
        if self.sft_capacity == 0 || self.nft_capacity == 0 || self.pdt_capacity == 0 {
            return Err(ConfigError::new("table capacities must be positive"));
        }
        if let Some(period) = self.nft_revalidate_after {
            if period.is_zero() {
                return Err(ConfigError::new("nft_revalidate_after must be positive"));
            }
        }
        Ok(())
    }
}

/// Error returned when a [`MaficConfig`] is out of range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: &'static str,
}

impl ConfigError {
    fn new(message: &'static str) -> Self {
        ConfigError { message }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAFIC configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let c = MaficConfig::default();
        assert_eq!(c.drop_probability, 0.9);
        assert_eq!(c.timer_rtt_multiplier, 2.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn struct_literal_overrides_validate() {
        let c = MaficConfig {
            drop_probability: 0.7,
            timer_rtt_multiplier: 4.0,
            label_mode: LabelMode::Full,
            sft_capacity: 128,
            seed: 9,
            ..MaficConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_fields() {
        let bad = [
            MaficConfig {
                drop_probability: 1.5,
                ..MaficConfig::default()
            },
            MaficConfig {
                timer_rtt_multiplier: 0.0,
                ..MaficConfig::default()
            },
            MaficConfig {
                pdt_capacity: 0,
                ..MaficConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?}");
        }
    }

    #[test]
    fn validator_allow_all() {
        assert!(AddressValidator::AllowAll.is_legal(Addr::new(0xDEAD_BEEF)));
    }

    #[test]
    fn validator_prefixes() {
        let v = AddressValidator::Prefixes(vec![
            (Addr::from_octets(10, 1, 0, 0), 16),
            (Addr::from_octets(10, 2, 0, 0), 16),
        ]);
        assert!(v.is_legal(Addr::from_octets(10, 1, 3, 4)));
        assert!(v.is_legal(Addr::from_octets(10, 2, 0, 1)));
        assert!(!v.is_legal(Addr::from_octets(192, 168, 0, 1)));
        assert!(!v.is_legal(Addr::from_octets(10, 3, 0, 1)));
    }

    #[test]
    fn config_error_display() {
        let err = MaficConfig {
            drop_probability: 2.0,
            ..MaficConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("drop_probability"));
    }
}
