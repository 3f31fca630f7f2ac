//! 64-bit FNV-1a, the ledger's only hash function.
//!
//! Chosen over anything fancier because it is trivially portable,
//! dependency-free, and byte-order explicit: every multi-byte write
//! goes through little-endian encoding, so a ledger hashed on any
//! platform is comparable with one hashed on any other.
//!
//! FNV-1a is one serial xor-multiply chain per byte, so one input
//! hashes no faster than that chain's latency. A probe has dozens of
//! independent inputs, though: [`HashWriter`] buffers each component's
//! walk and [`fnv64_spans`] hashes the buffered walks four at a time in
//! lockstep, every lane plain FNV-1a from the offset basis — the same
//! values [`fnv64`] gives, several times faster.

use std::cmp::Reverse;
use std::ops::Range;

/// Incremental FNV-1a hasher over 64 bits, for digests outside a
/// [`State`](crate::State) walk (chain links, output digests).
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a `state`.
fn fold(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

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
        self.state = fold(self.state, bytes);
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

/// One-shot convenience: hash a byte slice.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    fold(FNV_OFFSET, bytes)
}

/// The ledger-hash sink of a [`State`](crate::State) walk: it collects
/// the walk's hash-format bytes — [`hash_only`](crate::StateWrite::hash_only)
/// scopes run, [`snap_only`](crate::StateWrite::snap_only) ones do not —
/// to be hashed afterwards, by [`HashWriter::finish`] or, inside an
/// [`IntervalProbe`](crate::IntervalProbe), by the four-lane fold.
#[derive(Debug, Default)]
pub struct HashWriter {
    pub(crate) buf: Vec<u8>,
}

impl HashWriter {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The FNV-1a hash of everything written so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        fnv64(&self.buf)
    }
}

impl crate::StateWrite for HashWriter {
    fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn hash_only(&mut self, f: impl FnOnce(&mut Self)) {
        f(self);
    }
}

/// One input of [`fnv64_spans`]: the bytes at `bytes` of the shared
/// buffer, whose hash is reported under `slot`.
#[derive(Debug)]
pub(crate) struct Span {
    pub(crate) bytes: Range<usize>,
    pub(crate) slot: usize,
}

/// A span being hashed: the bytes still to fold and the state so far.
struct Lane<'a> {
    rest: &'a [u8],
    state: u64,
    slot: usize,
}

/// Hashes every span of `buf`, calling `emit(slot, fnv64(&buf[bytes]))`
/// once per span, in no particular order. `spans` is reordered.
///
/// Four lanes run in lockstep: a byte costs one xor and one 64-bit
/// multiply, a chain about four cycles of latency, while the multiplier
/// accepts a new product every cycle — four independent chains keep it
/// busy, a fifth would only wait. Spans go longest first, so the lanes
/// finish close together, and a lane that empties is refilled at once;
/// once none is left to refill it, the other lanes finish serially.
pub(crate) fn fnv64_spans(buf: &[u8], spans: &mut [Span], mut emit: impl FnMut(usize, u64)) {
    spans.sort_unstable_by_key(|s| Reverse(s.bytes.len()));
    let mut queue = spans.iter().map(|s| Lane {
        rest: &buf[s.bytes.clone()],
        state: FNV_OFFSET,
        slot: s.slot,
    });
    let mut lanes: [Option<Lane<'_>>; 4] = std::array::from_fn(|_| queue.next());
    while let [Some(a), Some(b), Some(c), Some(d)] = &mut lanes {
        lockstep([a, b, c, d]);
        for lane in &mut lanes {
            if let Some(done) = lane.take_if(|l| l.rest.is_empty()) {
                emit(done.slot, done.state);
                *lane = queue.next();
            }
        }
    }
    for lane in lanes.into_iter().flatten() {
        emit(lane.slot, fold(lane.state, lane.rest));
    }
}

/// Folds all four lanes, one byte of each per round, until the
/// shortest is empty.
fn lockstep(lanes: [&mut Lane<'_>; 4]) {
    let step = lanes.iter().map(|l| l.rest.len()).min().unwrap_or(0);
    let [a, b, c, d] = lanes;
    let (xa, ra) = a.rest.split_at(step);
    let (xb, rb) = b.rest.split_at(step);
    let (xc, rc) = c.rest.split_at(step);
    let (xd, rd) = d.rest.split_at(step);
    let (mut ha, mut hb, mut hc, mut hd) = (a.state, b.state, c.state, d.state);
    for (((&ya, &yb), &yc), &yd) in xa.iter().zip(xb).zip(xc).zip(xd) {
        ha = (ha ^ u64::from(ya)).wrapping_mul(FNV_PRIME);
        hb = (hb ^ u64::from(yb)).wrapping_mul(FNV_PRIME);
        hc = (hc ^ u64::from(yc)).wrapping_mul(FNV_PRIME);
        hd = (hd ^ u64::from(yd)).wrapping_mul(FNV_PRIME);
    }
    (a.rest, a.state) = (ra, ha);
    (b.rest, b.state) = (rb, hb);
    (c.rest, c.state) = (rc, hc);
    (d.rest, d.state) = (rd, hd);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateWrite as _;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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
        let mut a = HashWriter::new();
        a.write_u32(1);
        a.write_u32(2);
        let mut b = HashWriter::new();
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
        // The sink spells strings the way the streaming hasher does.
        let mut w = HashWriter::new();
        w.write_str("ab");
        w.write_str("c");
        assert_eq!(w.finish(), a.finish());
    }

    #[test]
    fn f64_hashes_bits_not_values() {
        let mut pos = HashWriter::new();
        pos.write_f64(0.0);
        let mut neg = HashWriter::new();
        neg.write_f64(-0.0);
        assert_ne!(pos.finish(), neg.finish());
    }

    /// Lengths that stress the kernel: empties, runs of equal lengths
    /// (lanes emptying together), and one span dwarfing the rest (a
    /// long serial tail).
    fn lengths(rng: &mut SmallRng, n: usize, shape: usize) -> Vec<usize> {
        (0..n)
            .map(|i| match shape {
                0 => rng.gen_range(0..70),
                1 => 0,
                2 => 33,
                3 if i == 0 => 5_000 + rng.gen_range(0..100),
                3 => rng.gen_range(0..4),
                _ => [0, 1, 64, 64, 2_000][rng.gen_range(0..5)],
            })
            .collect()
    }

    #[test]
    fn kernel_matches_serial_fnv_on_every_span() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_F00D);
        for round in 0..400 {
            let n = round % 10;
            let lens = lengths(&mut rng, n, round / 10 % 5);
            // Spans back to back, with junk between them that no span
            // covers.
            let mut buf = Vec::new();
            let mut spans = Vec::new();
            for (slot, len) in lens.into_iter().enumerate() {
                buf.extend((0..rng.gen_range(0..3usize)).map(|_| rng.gen::<u8>()));
                let start = buf.len();
                buf.extend((0..len).map(|_| rng.gen::<u8>()));
                spans.push(Span {
                    bytes: start..buf.len(),
                    slot,
                });
            }
            let expected: Vec<(usize, u64)> = spans
                .iter()
                .map(|s| (s.slot, fnv64(&buf[s.bytes.clone()])))
                .collect();
            let mut got = Vec::new();
            fnv64_spans(&buf, &mut spans, |slot, hash| got.push((slot, hash)));
            got.sort_unstable();
            assert_eq!(got, expected, "round {round}: {n} spans");
        }
    }
}
