//! 64-bit FNV-1a, the ledger's only hash function.
//!
//! Chosen over anything fancier because it is trivially portable,
//! dependency-free, and byte-order explicit: every multi-byte write
//! goes through little-endian encoding, so a ledger hashed on any
//! platform is comparable with one hashed on any other.

/// Incremental FNV-1a hasher over 64 bits.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `usize` widened to 64 bits so 32- and 64-bit builds hash
    /// identically.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a string as length-prefixed UTF-8 bytes (the prefix keeps
    /// `("ab","c")` distinct from `("a","bc")` across adjacent writes).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The current digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// The ledger-hash sink of a [`State`](crate::State) walk, which
/// supplies the full typed-write surface. The three typed writes above
/// stay inherent as well: digest code outside the walk (the benchmark's
/// output digests) calls them without the trait in scope.
impl crate::StateWrite for Fnv64 {
    fn write_raw(&mut self, bytes: &[u8]) {
        self.write(bytes);
    }

    fn hash_only(&mut self, f: impl FnOnce(&mut Self)) {
        f(self);
    }
}

/// One-shot convenience: hash a byte slice.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateWrite as _;

    #[test]
    fn known_vectors() {
        // Canonical FNV-1a 64-bit test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    #[test]
    fn typed_writes_are_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u32(1);
        a.write_u32(2);
        let mut b = Fnv64::new();
        b.write_u32(2);
        b.write_u32(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn str_writes_are_length_prefixed() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn f64_hashes_bits_not_values() {
        let mut pos = Fnv64::new();
        pos.write_f64(0.0);
        let mut neg = Fnv64::new();
        neg.write_f64(-0.0);
        assert_ne!(pos.finish(), neg.finish());
    }
}
