//! The Durand–Flajolet LogLog cardinality counter.
//!
//! A LogLog sketch splits the hash of each inserted item into a bucket index
//! (the leading `k` bits) and a suffix; each bucket register keeps the
//! maximum rank `ρ(suffix)` (position of the first 1-bit) observed. The
//! cardinality estimate is the geometric-mean combination
//! `α_m · m · 2^(avg register)`. Registers max-merge, which is what makes
//! the distributed set-union counting of the MAFIC pushback pipeline work.

use crate::hash::{mix64, rho};
use std::fmt;

/// Number of registers expressed as a power of two, `m = 2^k`.
///
/// Larger precision lowers the standard error (≈ `1.30 / sqrt(m)` for
/// LogLog) at the cost of `m` byte-sized registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Precision {
    /// 16 registers — toy sizes, large error; useful for tests.
    P4,
    /// 64 registers.
    P6,
    /// 256 registers.
    P8,
    /// 1024 registers — the default used by the pushback experiments.
    #[default]
    P10,
    /// 4096 registers.
    P12,
    /// 16384 registers.
    P14,
}

impl Precision {
    /// The exponent `k` such that `m = 2^k`.
    #[must_use]
    pub(crate) const fn bits(self) -> u32 {
        match self {
            Precision::P4 => 4,
            Precision::P6 => 6,
            Precision::P8 => 8,
            Precision::P10 => 10,
            Precision::P12 => 12,
            Precision::P14 => 14,
        }
    }

    /// Number of registers `m`.
    #[must_use]
    pub const fn registers(self) -> usize {
        1usize << self.bits()
    }

    /// All supported precisions, ascending; used by the ablation sweeps.
    #[must_use]
    pub const fn all() -> [Precision; 6] {
        [
            Precision::P4,
            Precision::P6,
            Precision::P8,
            Precision::P10,
            Precision::P12,
            Precision::P14,
        ]
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "2^{} registers", self.bits())
    }
}

/// Error produced by sketch operations that combine incompatible sketches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchError {
    left: u32,
    right: u32,
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "precision mismatch: cannot merge 2^{} with 2^{} registers",
            self.left, self.right
        )
    }
}

impl std::error::Error for SketchError {}

/// A Durand–Flajolet LogLog cardinality sketch.
///
/// # Example
///
/// ```
/// use mafic_loglog::{LogLog, Precision};
///
/// let mut a = LogLog::new(Precision::P10);
/// let mut b = LogLog::new(Precision::P10);
/// for i in 0u64..10_000 {
///     a.insert_u64(i);
/// }
/// for i in 5_000u64..15_000 {
///     b.insert_u64(i);
/// }
/// let union = a.merged(&b).unwrap();
/// // |A ∪ B| = 15_000; LogLog at P10 has ~4% standard error.
/// assert!((union.estimate() - 15_000.0).abs() / 15_000.0 < 0.2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLog {
    precision: Precision,
    registers: Vec<u8>,
    inserts: u64,
}

impl LogLog {
    /// Creates an empty sketch with the given precision.
    #[must_use]
    pub fn new(precision: Precision) -> Self {
        LogLog {
            precision,
            registers: vec![0; precision.registers()],
            inserts: 0,
        }
    }

    /// The sketch precision.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of raw insert operations performed (not distinct items).
    #[must_use]
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Memory consumed by the register file in bytes.
    #[cfg(test)]
    #[must_use]
    pub fn register_bytes(&self) -> usize {
        self.registers.len()
    }

    /// Read-only view of the registers (used by the max-merge protocol).
    #[must_use]
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Replaces the register file and insert count with checkpointed
    /// values (the write half of [`LogLog::registers`] /
    /// [`LogLog::inserts`]). The precision is construction-time
    /// configuration and is not part of the restorable state.
    ///
    /// # Errors
    ///
    /// Returns a message naming the mismatch when `registers` does not
    /// match this sketch's precision.
    pub fn restore_parts(&mut self, registers: &[u8], inserts: u64) -> Result<(), String> {
        if registers.len() != self.registers.len() {
            return Err(format!(
                "register count {} does not match precision {} ({} registers)",
                registers.len(),
                self.precision,
                self.registers.len()
            ));
        }
        self.registers.copy_from_slice(registers);
        self.inserts = inserts;
        Ok(())
    }

    /// Inserts an already well-mixed 64-bit hash value.
    ///
    /// Use this when the caller has hashed a composite key itself; for raw
    /// sequential identifiers prefer [`LogLog::insert_u64`], which mixes.
    fn insert_hash(&mut self, hash: u64) {
        let k = self.precision.bits();
        let bucket = (hash >> (64 - k)) as usize;
        let suffix_bits = 64 - k;
        let rank = rho(hash & ((1u64 << suffix_bits) - 1), suffix_bits);
        if rank > self.registers[bucket] {
            self.registers[bucket] = rank;
        }
        self.inserts += 1;
    }

    /// Mixes and inserts a 64-bit item (e.g. a packet identifier).
    pub fn insert_u64(&mut self, item: u64) {
        self.insert_hash(mix64(item));
    }

    /// Returns `true` if no item has ever been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inserts == 0
    }

    /// Resets all registers to the empty state.
    pub fn clear(&mut self) {
        self.registers.fill(0);
        self.inserts = 0;
    }

    /// The LogLog bias-correction constant `α_m` for `m` registers.
    ///
    /// The asymptotic value is ≈ 0.39701; for the small register counts the
    /// tests use we apply the classic finite-m approximation.
    #[must_use]
    fn alpha(&self) -> f64 {
        // α_m = (Γ(−1/m)·(1 − 2^{1/m}) / ln 2)^{−m} → 0.39701 as m → ∞.
        // The correction below (from the original paper's analysis) is
        // adequate for m ≥ 16.
        let m = self.precision.registers() as f64;
        0.397_011_808 * (1.0 - 1.0 / (2.0 * m))
    }

    /// Estimates the number of distinct items inserted.
    ///
    /// Applies linear counting for the small-cardinality regime (when a
    /// large fraction of registers is still zero) so that the estimator is
    /// usable across the whole range the simulations exercise.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        self.estimate_over(self.inserts, &self.registers, &self.registers)
    }

    /// Estimates `|A ∪ B|`: what `self.merged(other)?.estimate()`
    /// returns, bit for bit, read off both register files in one chunked
    /// pass ([`max_scan`]) with no merged sketch built.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError`] if the precisions differ.
    pub(crate) fn union_estimate(&self, other: &LogLog) -> Result<f64, SketchError> {
        self.check_precision(other)?;
        Ok(self.estimate_over(
            self.inserts + other.inserts,
            &self.registers,
            &other.registers,
        ))
    }

    /// The estimator over the max-merge of two register files of this
    /// sketch's precision (one file twice: the file itself) that took
    /// `inserts` insertions between them. Register sums are small
    /// integers, so summing them as `u64` loses nothing against an `f64`
    /// sum.
    fn estimate_over(&self, inserts: u64, a: &[u8], b: &[u8]) -> f64 {
        if inserts == 0 {
            return 0.0;
        }
        let m = self.precision.registers() as f64;
        let (zeros, sum) = max_scan(a, b);
        if zeros > 0 {
            // Linear counting is far more accurate while registers remain
            // empty; LogLog's geometric mean is badly biased there.
            let lc = m * (m / zeros as f64).ln();
            if lc < 2.5 * m {
                return lc;
            }
        }
        self.alpha() * m * 2f64.powf(sum as f64 / m)
    }

    fn check_precision(&self, other: &LogLog) -> Result<(), SketchError> {
        if self.precision == other.precision {
            Ok(())
        } else {
            Err(SketchError {
                left: self.precision.bits(),
                right: other.precision.bits(),
            })
        }
    }

    /// Max-merges `other` into `self` (distributed union).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError`] if the precisions differ.
    fn merge_from(&mut self, other: &LogLog) -> Result<(), SketchError> {
        self.check_precision(other)?;
        for (dst, &src) in self.registers.iter_mut().zip(other.registers.iter()) {
            if src > *dst {
                *dst = src;
            }
        }
        self.inserts += other.inserts;
        Ok(())
    }

    /// Returns the max-merge of `self` and `other` as a new sketch.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError`] if the precisions differ.
    pub fn merged(&self, other: &LogLog) -> Result<LogLog, SketchError> {
        let mut out = self.clone();
        out.merge_from(other)?;
        Ok(out)
    }

    /// Estimated intersection cardinality via inclusion–exclusion:
    /// `|A ∩ B| = |A| + |B| − |A ∪ B|`, clamped at zero.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError`] if the precisions differ.
    pub(crate) fn intersection_estimate(&self, other: &LogLog) -> Result<f64, SketchError> {
        let union = self.union_estimate(other)?;
        Ok((self.estimate() + other.estimate() - union).max(0.0))
    }
}

/// Registers per [`max_scan`] chunk: one vector of `u8` lanes.
const LANES: usize = 32;
/// Chunks a `u16` lane may absorb before it is flushed: 257 maxima of
/// 255 would overflow it, 256 cannot.
const CHUNKS_PER_FLUSH: usize = 256;

/// Zero count and sum of the element-wise maxima of `a` and `b` (equal
/// lengths). Whole chunks widen each maximum into a `u16` lane and
/// flush the lanes to `u64` every [`CHUNKS_PER_FLUSH`] chunks, a shape
/// the compiler turns into vector code; the tail is summed one by one.
fn max_scan(a: &[u8], b: &[u8]) -> (usize, u64) {
    debug_assert_eq!(a.len(), b.len());
    let (mut zeros, mut sum) = (0usize, 0u64);
    let (a_chunks, b_chunks) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (a_tail, b_tail) = (a_chunks.remainder(), b_chunks.remainder());
    let mut pairs = a_chunks.zip(b_chunks).peekable();
    while pairs.peek().is_some() {
        let (mut lane_sums, mut lane_zeros) = ([0u16; LANES], [0u16; LANES]);
        for (ca, cb) in pairs.by_ref().take(CHUNKS_PER_FLUSH) {
            for i in 0..LANES {
                let r = ca[i].max(cb[i]);
                lane_sums[i] += u16::from(r);
                lane_zeros[i] += u16::from(r == 0);
            }
        }
        sum += lane_sums.iter().map(|&s| u64::from(s)).sum::<u64>();
        zeros += lane_zeros.iter().map(|&z| usize::from(z)).sum::<usize>();
    }
    for (&ra, &rb) in a_tail.iter().zip(b_tail) {
        let r = ra.max(rb);
        zeros += usize::from(r == 0);
        sum += u64::from(r);
    }
    (zeros, sum)
}

impl Default for LogLog {
    fn default() -> Self {
        LogLog::new(Precision::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = LogLog::new(Precision::P8);
        assert!(s.is_empty());
        assert_eq!(s.estimate(), 0.0);
    }

    #[test]
    fn estimate_within_error_band() {
        for &n in &[1_000u64, 10_000, 100_000] {
            let mut s = LogLog::new(Precision::P10);
            for i in 0..n {
                s.insert_u64(i);
            }
            let est = s.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            // 1.30/sqrt(1024) ≈ 4%; allow 4 sigma.
            assert!(rel < 0.17, "n={n} est={est} rel={rel}");
        }
    }

    #[test]
    fn linear_counting_handles_small_cardinalities() {
        let mut s = LogLog::new(Precision::P10);
        for i in 0u64..50 {
            s.insert_u64(i);
        }
        let est = s.estimate();
        assert!((est - 50.0).abs() < 10.0, "small-range estimate {est}");
    }

    #[test]
    fn duplicate_inserts_do_not_grow_estimate() {
        let mut s = LogLog::new(Precision::P10);
        for _ in 0..100 {
            for i in 0u64..500 {
                s.insert_u64(i);
            }
        }
        let est = s.estimate();
        assert!((est - 500.0).abs() / 500.0 < 0.25, "est={est}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LogLog::new(Precision::P10);
        let mut b = LogLog::new(Precision::P10);
        let mut both = LogLog::new(Precision::P10);
        for i in 0u64..20_000 {
            a.insert_u64(i);
            both.insert_u64(i);
        }
        for i in 10_000u64..30_000 {
            b.insert_u64(i);
            both.insert_u64(i);
        }
        let merged = a.merged(&b).unwrap();
        assert_eq!(merged.registers(), both.registers());
    }

    #[test]
    fn merge_rejects_mismatched_precision() {
        let mut a = LogLog::new(Precision::P8);
        let b = LogLog::new(Precision::P10);
        let err = a.merge_from(&b).unwrap_err();
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn intersection_estimate_tracks_overlap() {
        let mut a = LogLog::new(Precision::P12);
        let mut b = LogLog::new(Precision::P12);
        for i in 0u64..40_000 {
            a.insert_u64(i);
        }
        for i in 20_000u64..60_000 {
            b.insert_u64(i);
        }
        let inter = a.intersection_estimate(&b).unwrap();
        // True intersection 20_000. Inclusion–exclusion amplifies sketch
        // error, so accept a generous band.
        assert!(
            (inter - 20_000.0).abs() / 20_000.0 < 0.5,
            "intersection {inter}"
        );
    }

    /// The estimator as one scalar pass over the merged registers: the
    /// reference [`max_scan`] must match bit for bit.
    fn scalar_estimate(sketch: &LogLog, inserts: u64, merged: &[u8]) -> f64 {
        if inserts == 0 {
            return 0.0;
        }
        let m = sketch.precision.registers() as f64;
        let zeros = merged.iter().filter(|&&r| r == 0).count();
        let sum: u64 = merged.iter().map(|&r| u64::from(r)).sum();
        if zeros > 0 {
            let lc = m * (m / zeros as f64).ln();
            if lc < 2.5 * m {
                return lc;
            }
        }
        sketch.alpha() * m * 2f64.powf(sum as f64 / m)
    }

    /// `a.union_estimate(b)` equals the merged sketch's estimate and the
    /// scalar reference, bit for bit, both ways round.
    fn assert_union_exact(a: &LogLog, b: &LogLog, case: &str) {
        let merged = a.merged(b).unwrap();
        let reference = scalar_estimate(a, a.inserts + b.inserts, merged.registers());
        let fused = a.union_estimate(b).unwrap();
        assert_eq!(fused.to_bits(), reference.to_bits(), "{case}");
        assert_eq!(fused.to_bits(), merged.estimate().to_bits(), "{case}");
        assert_eq!(
            fused.to_bits(),
            b.union_estimate(a).unwrap().to_bits(),
            "{case}"
        );
        let scalar = scalar_estimate(a, a.inserts, a.registers());
        assert_eq!(a.estimate().to_bits(), scalar.to_bits(), "{case}");
    }

    #[test]
    fn union_estimate_is_the_merged_estimate_bit_for_bit() {
        // (items in a, items in b) per case: both empty, one empty, the
        // linear-counting regime, its upper edge, and the geometric one.
        let cases: [(u64, u64); 7] = [
            (0, 0),
            (0, 40),
            (25, 60),
            (600, 900),
            (1_500, 1_700),
            (20_000, 5),
            (40_000, 70_000),
        ];
        // Every precision: P4's 16 registers are less than one chunk.
        for precision in Precision::all() {
            for (seed, &(n_a, n_b)) in cases.iter().enumerate() {
                let mut a = LogLog::new(precision);
                let mut b = LogLog::new(precision);
                let base = (seed as u64) << 32;
                for i in 0..n_a {
                    a.insert_u64(base + i);
                }
                // Half of b's items are a's.
                for i in 0..n_b {
                    b.insert_u64(base + n_a / 2 + i);
                }
                assert_union_exact(&a, &b, &format!("{precision} {n_a}/{n_b}"));
            }
            // Registers at the ceiling, where a lane that absorbed too
            // many chunks would overflow: the highest rank a hash can
            // give at this precision, and the highest a `u8` (a doctored
            // checkpoint) can hold. b keeps a third of a's maxima.
            let m = precision.registers();
            let max_rank = u8::try_from(64 - precision.bits() + 1).unwrap();
            for top in [max_rank, u8::MAX] {
                let (mut a, mut b) = (LogLog::new(precision), LogLog::new(precision));
                a.restore_parts(&vec![top; m], 1).unwrap();
                let mixed: Vec<u8> = (0..m)
                    .map(|i| if i % 3 == 0 { top } else { (i % 5) as u8 })
                    .collect();
                b.restore_parts(&mixed, 1).unwrap();
                assert_union_exact(&a, &b, &format!("{precision} ceiling {top}"));
                assert_union_exact(&b, &b, &format!("{precision} mixed {top}"));
            }
        }
        let err = LogLog::new(Precision::P8).union_estimate(&LogLog::new(Precision::P10));
        assert!(err.is_err());
    }

    #[test]
    fn clear_resets_state() {
        let mut s = LogLog::new(Precision::P8);
        s.insert_u64(7);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.estimate(), 0.0);
    }

    #[test]
    fn register_bytes_match_precision() {
        for p in Precision::all() {
            assert_eq!(LogLog::new(p).register_bytes(), p.registers());
        }
    }

    #[test]
    fn display_precision() {
        assert_eq!(Precision::P10.to_string(), "2^10 registers");
    }
}
