//! Flow labels — the table keys of the MAFIC algorithm.
//!
//! The paper labels each flow by the 4-tuple `{src IP, dst IP, src port,
//! dst port}` and, "to minimize the storage overhead", stores only the
//! output of a hash function over the label rather than the label itself.
//! The simulated tables index flows by their interned id; [`LabelMode`]
//! prices one stored label under either choice for the table-memory
//! accounting and the label-mode ablation.

/// How flows are keyed in the SFT/NFT/PDT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LabelMode {
    /// Store a 64-bit hash of the 4-tuple (the paper's choice).
    #[default]
    Hashed,
    /// Store the full 4-tuple (no collisions, more memory).
    Full,
}

impl LabelMode {
    /// Approximate memory footprint of one stored label under this
    /// mode, in bytes — the single source of truth for table-memory
    /// accounting (ablations and policy cost reports).
    #[must_use]
    pub fn stored_bytes(self) -> usize {
        match self {
            LabelMode::Hashed => 8,
            LabelMode::Full => 12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_bytes_reflect_mode() {
        assert_eq!(LabelMode::Hashed.stored_bytes(), 8);
        assert_eq!(LabelMode::Full.stored_bytes(), 12);
    }
}
