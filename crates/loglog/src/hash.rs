//! 64-bit hashing helpers shared by the sketches and by MAFIC's hashed flow
//! labels.
//!
//! The sketches only need a hash whose bits are close to uniform and
//! independent of the input structure. We use the SplitMix64 finalizer (a
//! well-studied bijective mixer), which is deterministic across runs — the
//! simulation harness relies on that for reproducibility.

/// Mixes a 64-bit value through the SplitMix64 finalizer.
///
/// The output is a bijection of the input with good avalanche behaviour, so
/// distinct packet identifiers map to well-spread hash values.
///
/// # Example
///
/// ```
/// let a = mafic_loglog::mix64(1);
/// let b = mafic_loglog::mix64(2);
/// assert_ne!(a, b);
/// ```
#[inline]
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Combines two 64-bit values into one well-mixed value.
///
/// Used to derive flow labels from multi-word keys without allocating.
#[inline]
#[must_use]
pub fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ mix64(b))
}

/// Position of the first 1-bit (1-based) in the value, scanning from the
/// most significant bit, as used by LogLog's rank function `ρ(w)`.
///
/// Returns `bits + 1` when the value is zero within the inspected `bits`-bit
/// suffix window (matching the convention of Durand–Flajolet).
#[inline]
#[must_use]
pub(crate) fn rho(value: u64, bits: u32) -> u8 {
    debug_assert!(bits <= 64);
    if bits == 0 {
        return 1;
    }
    // Consider only the low `bits` bits, aligned to the top of a u64, so
    // leading_zeros counts within the window.
    let window = value << (64 - bits);
    let lz = window.leading_zeros();
    if lz >= bits {
        (bits + 1) as u8
    } else {
        (lz + 1) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
        // Avalanche sanity: flipping one input bit flips many output bits.
        let flips = (mix64(0) ^ mix64(1)).count_ones();
        assert!(flips > 16, "weak avalanche: {flips} bits");
    }

    #[test]
    fn mix2_is_order_sensitive() {
        assert_ne!(mix2(1, 2), mix2(2, 1));
    }

    #[test]
    fn rho_counts_leading_zeros_in_window() {
        // Window of 8 bits, value with top window bit set => rank 1.
        assert_eq!(rho(0b1000_0000, 8), 1);
        assert_eq!(rho(0b0100_0000, 8), 2);
        assert_eq!(rho(0b0000_0001, 8), 8);
        assert_eq!(rho(0, 8), 9, "all-zero window saturates at bits+1");
    }

    #[test]
    fn rho_full_width() {
        assert_eq!(rho(1u64 << 63, 64), 1);
        assert_eq!(rho(1, 64), 64);
        assert_eq!(rho(0, 64), 65);
    }

    #[test]
    fn rho_zero_bits_window() {
        assert_eq!(rho(0xFFFF, 0), 1);
    }
}
