//! Checkpoint snapshot container: a deterministic, versioned binary
//! format for mid-run simulator state.
//!
//! A snapshot is a sequence of **labeled sections** (one per ledger
//! component, e.g. `netsim/scheduler`, `dom2/coord`) under a header
//! mirroring [`crate::LedgerHeader`]: format version, crate version,
//! seed, spec fingerprint, plus the capture instant (sim nanos and
//! monitor-interval index). Integrity is layered:
//!
//! 1. every section carries an FNV-1a checksum of its payload, so a
//!    corrupted byte is attributed to a *named* section at decode time;
//! 2. the header and component-hash table carry their own checksum;
//! 3. the embedded component-hash table holds each component's
//!    [`crate::State`] hash at capture time — after overlaying
//!    the payloads onto a rebuilt scenario, the restorer recomputes
//!    every digest and rejects on the first mismatch, again with a
//!    named component.
//!
//! All multi-byte values are little-endian; strings are length-prefixed
//! UTF-8. The format has no alignment, no padding, and no map ordering
//! to get wrong: encode is a pure function of the section list, so two
//! captures of identical state are byte-identical.

use crate::fnv::fnv64;
use crate::state::StateWrite;
use std::fmt;

/// Snapshot wire-format version; bump on any incompatible change.
pub const SNAP_VERSION: u32 = 1;

/// The 8-byte magic that opens every snapshot file.
pub(crate) const SNAP_MAGIC: [u8; 8] = *b"MAFICSNP";

/// Why a snapshot failed to decode or restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before a complete value.
    Truncated,
    /// The file does not start with `SNAP_MAGIC`.
    BadMagic,
    /// The format version is not [`SNAP_VERSION`].
    Version {
        /// The version found in the file.
        found: u32,
    },
    /// A header field does not match what the restoring context
    /// requires (seed, spec fingerprint, crate version).
    HeaderMismatch {
        /// The offending header field.
        field: &'static str,
        /// The value the restorer expected.
        expected: String,
        /// The value embedded in the snapshot.
        found: String,
    },
    /// A section's payload checksum does not match its bytes.
    Corrupt {
        /// The named section (or `header`).
        section: String,
    },
    /// A section the restorer needs is absent.
    MissingSection {
        /// The missing section's label.
        section: String,
    },
    /// After overlaying state, a component's recomputed state hash does
    /// not match the digest embedded at capture time.
    StateMismatch {
        /// The named component.
        component: String,
        /// Digest embedded in the snapshot.
        expected: u64,
        /// Digest recomputed after restore.
        found: u64,
    },
    /// The payload decoded but its contents are structurally invalid
    /// (bad enum tag, non-UTF-8 string, impossible length).
    Malformed(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a MAFIC snapshot (bad magic)"),
            SnapError::Version { found } => write!(
                f,
                "unsupported snapshot format version {found} (supported: {SNAP_VERSION})"
            ),
            SnapError::HeaderMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "snapshot header mismatch: {field} is {found}, restore context requires {expected}"
            ),
            SnapError::Corrupt { section } => {
                write!(
                    f,
                    "snapshot section {section:?} is corrupt (checksum mismatch)"
                )
            }
            SnapError::MissingSection { section } => {
                write!(f, "snapshot is missing section {section:?}")
            }
            SnapError::StateMismatch {
                component,
                expected,
                found,
            } => write!(
                f,
                "restored state hash mismatch in component {component:?}: \
                 snapshot recorded {expected:016x}, restore produced {found:016x}"
            ),
            SnapError::Malformed(why) => write!(f, "malformed snapshot payload: {why}"),
        }
    }
}

/// Little-endian byte sink for snapshot payloads; the typed writes are
/// [`StateWrite`]'s.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// The bytes written so far, consuming the writer.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// The checkpoint sink of a [`State`](crate::State) walk.
impl StateWrite for SnapWriter {
    fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn snap_only(&mut self, f: impl FnOnce(&mut Self)) {
        f(self);
    }
}

/// Little-endian cursor over a snapshot payload.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf` starting at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed — restorers should check
    /// this so trailing garbage is rejected, not silently ignored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input.
    pub fn read_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads a `u16` (little-endian).
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input.
    pub fn read_u16(&mut self) -> Result<u16, SnapError> {
        self.take_array().map(u16::from_le_bytes)
    }

    /// Reads a `u32` (little-endian).
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input.
    pub fn read_u32(&mut self) -> Result<u32, SnapError> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// Reads a `u64` (little-endian).
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input.
    pub fn read_u64(&mut self) -> Result<u64, SnapError> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// Reads a `u128` (little-endian).
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input.
    pub fn read_u128(&mut self) -> Result<u128, SnapError> {
        self.take_array().map(u128::from_le_bytes)
    }

    /// Reads a `usize` (stored as 64 bits).
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input, or
    /// [`SnapError::Malformed`] if the value exceeds this platform's
    /// `usize`.
    pub fn read_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.read_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Malformed(format!("usize out of range: {v}")))
    }

    /// Reads an element count that precedes its elements. Every
    /// encoded element costs at least one byte, so a count larger than
    /// the bytes left cannot be honest: it is rejected here, before it
    /// sizes an allocation or bounds a loop.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input or when the count
    /// exceeds `SnapReader::remaining`.
    pub fn read_len(&mut self) -> Result<usize, SnapError> {
        let n = self.read_usize()?;
        if n > self.remaining() {
            return Err(SnapError::Truncated);
        }
        Ok(n)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input.
    pub fn read_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a bool; any byte other than 0 or 1 is malformed.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input, or
    /// [`SnapError::Malformed`] on a non-boolean byte.
    pub fn read_bool(&mut self) -> Result<bool, SnapError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Malformed(format!("bad bool byte {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input, or
    /// [`SnapError::Malformed`] on invalid UTF-8.
    pub fn read_str(&mut self) -> Result<String, SnapError> {
        String::from_utf8(self.read_bytes()?.to_vec())
            .map_err(|_| SnapError::Malformed("non-UTF-8 string".to_string()))
    }

    /// Reads a length-prefixed byte slice.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.read_usize()?;
        self.take(n)
    }

    /// Reads an option written by
    /// [`StateWrite::write_opt`](crate::StateWrite::write_opt); `what`
    /// names the field in the error.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input, [`SnapError::Malformed`]
    /// on a tag other than 0 or 1, or whatever `some` returns.
    pub fn read_opt<T>(
        &mut self,
        what: &str,
        some: impl FnOnce(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        match self.read_u8()? {
            0 => Ok(None),
            1 => some(self).map(Some),
            tag => Err(SnapError::Malformed(format!("{what} tag {tag}"))),
        }
    }

    /// Reads a fieldless enum written as its declaration index: `all`
    /// lists the variants in declaration order, and `what` names the
    /// enum in the error.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input, or
    /// [`SnapError::Malformed`] on a tag past the end of `all`.
    pub fn read_tag<T: Copy>(&mut self, what: &str, all: &[T]) -> Result<T, SnapError> {
        let tag = self.read_u8()?;
        all.get(usize::from(tag))
            .copied()
            .ok_or_else(|| SnapError::Malformed(format!("{what} tag {tag}")))
    }

    /// Reads `n` elements through `each` into any `Default + Extend`
    /// container — for a run whose count was read earlier (parallel
    /// arrays under one count); [`SnapReader::read_seq`] otherwise.
    ///
    /// # Errors
    ///
    /// Whatever `each` returns.
    pub fn read_n<T, C: Default + Extend<T>>(
        &mut self,
        n: usize,
        mut each: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<C, SnapError> {
        let mut out = C::default();
        for _ in 0..n {
            out.extend(Some(each(self)?));
        }
        Ok(out)
    }

    /// Reads a counted sequence written by
    /// [`StateWrite::write_seq`](crate::StateWrite::write_seq): the
    /// count through [`SnapReader::read_len`], then that many elements.
    ///
    /// # Errors
    ///
    /// As [`SnapReader::read_len`], or whatever `each` returns.
    pub fn read_seq<T, C: Default + Extend<T>>(
        &mut self,
        each: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<C, SnapError> {
        let n = self.read_len()?;
        self.read_n(n, each)
    }

    /// Reads the four words written by
    /// [`StateWrite::write_rng`](crate::StateWrite::write_rng) and
    /// rebuilds the generator through `from_state` (this crate depends
    /// on no RNG, so the caller names the constructor).
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input.
    pub fn read_rng<R>(&mut self, from_state: impl FnOnce([u64; 4]) -> R) -> Result<R, SnapError> {
        let mut words = [0u64; 4];
        for word in &mut words {
            *word = self.read_u64()?;
        }
        Ok(from_state(words))
    }
}

/// A snapshot's header: the ledger header's identity fields plus the
/// capture instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Wire-format version ([`SNAP_VERSION`] when written by this build).
    pub snap_version: u32,
    /// Workspace crate version that captured the snapshot.
    pub crate_version: String,
    /// The run's root seed.
    pub seed: u64,
    /// FNV-1a of the spec's debug rendering (same derivation as the
    /// run ledger's).
    pub spec_fingerprint: u64,
    /// Simulation clock at capture, in nanoseconds.
    pub at_nanos: u64,
    /// Zero-based monitor-interval index at capture.
    pub interval_index: u64,
}

/// A decoded (or under-construction) snapshot: header, the
/// component-hash table, and the labeled sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Identity and capture-instant metadata.
    pub header: SnapshotHeader,
    /// Each component's [`crate::State`] hash at capture time, in
    /// recording order.
    pub component_hashes: Vec<(String, u64)>,
    sections: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// An empty snapshot under `header`.
    #[must_use]
    pub fn new(header: SnapshotHeader) -> Self {
        Snapshot {
            header,
            component_hashes: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Appends a labeled section.
    ///
    /// # Panics
    ///
    /// Panics if a section with the same label already exists — every
    /// component serializes exactly once.
    pub fn add_section(&mut self, label: &str, payload: Vec<u8>) {
        assert!(
            !self.sections.iter().any(|(l, _)| l == label),
            "duplicate snapshot section {label:?}"
        );
        self.sections.push((label.to_string(), payload));
    }

    /// Appends a section whose payload `f` writes.
    ///
    /// # Panics
    ///
    /// As [`Snapshot::add_section`].
    pub fn write_section(&mut self, label: &str, f: impl FnOnce(&mut SnapWriter)) {
        let mut w = SnapWriter::new();
        f(&mut w);
        self.add_section(label, w.into_bytes());
    }

    /// Reads section `label` through `body` — the whole of a section
    /// restore. Bytes `body` leaves unread mean the payload came from a
    /// differently built scenario and are rejected, not silently
    /// ignored.
    ///
    /// # Errors
    ///
    /// [`SnapError::MissingSection`] when the section is absent,
    /// whatever `body` returns, or [`SnapError::Malformed`] naming
    /// `label` when bytes remain.
    pub fn read_section<T>(
        &self,
        label: &str,
        body: impl FnOnce(&mut SnapReader<'_>) -> Result<T, SnapError>,
    ) -> Result<T, SnapError> {
        let payload = self
            .section(label)
            .ok_or_else(|| SnapError::MissingSection {
                section: label.to_string(),
            })?;
        let mut r = SnapReader::new(payload);
        let out = body(&mut r)?;
        if r.is_empty() {
            return Ok(out);
        }
        Err(SnapError::Malformed(format!(
            "{label}: {} trailing bytes",
            r.remaining()
        )))
    }

    /// Looks up a section's payload by label.
    #[must_use]
    pub fn section(&self, label: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, p)| p.as_slice())
    }

    /// Section labels in file order.
    #[must_use]
    pub fn section_labels(&self) -> Vec<&str> {
        self.sections.iter().map(|(l, _)| l.as_str()).collect()
    }

    /// Serializes the snapshot to its binary form. Encoding is a pure
    /// function of the contents: identical state produces identical
    /// bytes. The output is allocated once, at its exact length: it is
    /// as large as all the sections together, which a checkpoint
    /// capture holds at the same time.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let str_len = |s: &str| 8 + s.len();
        let head_len = str_len(&self.header.crate_version)
            + 4 * 8
            + 8
            + self
                .component_hashes
                .iter()
                .map(|(label, _)| str_len(label) + 8)
                .sum::<usize>();
        let sections_len: usize = self
            .sections
            .iter()
            .map(|(label, payload)| str_len(label) + 8 + 8 + payload.len())
            .sum();
        let len = SNAP_MAGIC.len() + 4 + head_len + 8 + 8 + sections_len;

        let mut out = SnapWriter {
            buf: Vec::with_capacity(len),
        };
        out.write_raw(&SNAP_MAGIC);
        out.write_u32(SNAP_VERSION);
        let head_start = out.buf.len();
        out.write_str(&self.header.crate_version);
        out.write_u64(self.header.seed);
        out.write_u64(self.header.spec_fingerprint);
        out.write_u64(self.header.at_nanos);
        out.write_u64(self.header.interval_index);
        out.write_seq(&self.component_hashes, |w, (label, hash)| {
            w.write_str(label);
            w.write_u64(*hash);
        });
        out.write_u64(fnv64(&out.buf[head_start..]));
        out.write_seq(&self.sections, |w, (label, payload)| {
            w.write_str(label);
            w.write_u64(fnv64(payload));
            w.write_bytes(payload);
        });
        debug_assert_eq!(out.buf.len(), len);
        out.into_bytes()
    }

    /// Decodes and integrity-checks a snapshot: magic, format version,
    /// the header/table checksum, and every section's payload checksum.
    /// Header *mismatch* checks (seed, fingerprint) are the restorer's
    /// job — decode only guarantees the bytes are self-consistent.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadMagic`], [`SnapError::Version`],
    /// [`SnapError::Truncated`], [`SnapError::Malformed`], or
    /// [`SnapError::Corrupt`] naming the damaged section (`header` for
    /// the header/table region).
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes);
        if r.take(SNAP_MAGIC.len())? != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let snap_version = r.read_u32()?;
        if snap_version != SNAP_VERSION {
            return Err(SnapError::Version {
                found: snap_version,
            });
        }
        let head_start = r.pos;
        let crate_version = r.read_str()?;
        let seed = r.read_u64()?;
        let spec_fingerprint = r.read_u64()?;
        let at_nanos = r.read_u64()?;
        let interval_index = r.read_u64()?;
        let component_hashes = r.read_seq(|r| Ok((r.read_str()?, r.read_u64()?)))?;
        let head_bytes = &bytes[head_start..r.pos];
        let head_checksum = r.read_u64()?;
        if fnv64(head_bytes) != head_checksum {
            return Err(SnapError::Corrupt {
                section: "header".to_string(),
            });
        }
        let sections = r.read_seq(|r| {
            let label = r.read_str()?;
            let checksum = r.read_u64()?;
            let payload = r.read_bytes()?;
            if fnv64(payload) != checksum {
                return Err(SnapError::Corrupt { section: label });
            }
            Ok((label, payload.to_vec()))
        })?;
        if !r.is_empty() {
            return Err(SnapError::Malformed(format!(
                "{} trailing bytes after the last section",
                r.remaining()
            )));
        }
        Ok(Snapshot {
            header: SnapshotHeader {
                snap_version,
                crate_version,
                seed,
                spec_fingerprint,
                at_nanos,
                interval_index,
            },
            component_hashes,
            sections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new(SnapshotHeader {
            snap_version: SNAP_VERSION,
            crate_version: "0.1.0".to_string(),
            seed: 42,
            spec_fingerprint: 0xfeed_beef,
            at_nanos: 1_500_000_000,
            interval_index: 15,
        });
        s.component_hashes.push(("netsim/core".to_string(), 0x1111));
        s.component_hashes.push(("dom0/coord".to_string(), 0x2222));
        let mut w = SnapWriter::new();
        w.write_u64(7);
        w.write_str("payload");
        s.add_section("netsim/core", w.into_bytes());
        s.add_section("dom0/coord", vec![1, 2, 3]);
        s
    }

    #[test]
    fn encode_decode_round_trips() {
        let s = sample();
        let bytes = s.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, s);
        // Re-encoding the decoded snapshot reproduces the exact bytes.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().encode();
        for cut in [0, 4, 11, bytes.len() / 2, bytes.len() - 1] {
            let err = Snapshot::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapError::Truncated | SnapError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert_eq!(Snapshot::decode(&bytes).unwrap_err(), SnapError::BadMagic);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = sample().encode();
        bytes[8] = 99; // version field follows the 8-byte magic
        assert_eq!(
            Snapshot::decode(&bytes).unwrap_err(),
            SnapError::Version { found: 99 }
        );
    }

    #[test]
    fn flipped_payload_byte_names_the_section() {
        let s = sample();
        let bytes = s.encode();
        // Locate the second section's payload (bytes [1,2,3]) and flip
        // one of them.
        let idx = bytes
            .windows(3)
            .rposition(|w| w == [1, 2, 3])
            .expect("payload present");
        let mut bad = bytes.clone();
        bad[idx + 1] ^= 0x40;
        match Snapshot::decode(&bad).unwrap_err() {
            SnapError::Corrupt { section } => assert_eq!(section, "dom0/coord"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn flipped_header_byte_is_detected() {
        let bytes = sample().encode();
        // Flip a byte inside the seed field (starts after magic,
        // version, and the length-prefixed crate version).
        let seed_off = 8 + 4 + 8 + "0.1.0".len();
        let mut bad = bytes.clone();
        bad[seed_off] ^= 0x01;
        match Snapshot::decode(&bad).unwrap_err() {
            SnapError::Corrupt { section } => assert_eq!(section, "header"),
            other => panic!("expected header corruption, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(matches!(
            Snapshot::decode(&bytes).unwrap_err(),
            SnapError::Malformed(_)
        ));
    }

    /// The mutation schedule `RunLedger::from_jsonl` is held to: every
    /// strict prefix is rejected, and no single-bit flip panics. The
    /// only flips `decode` accepts are in section labels, which no
    /// checksum covers (an ASCII label flipped in its low seven bits
    /// stays UTF-8); restore then misses the section by name.
    #[test]
    fn decode_rejects_every_prefix_and_flips_outside_labels() {
        let s = sample();
        let bytes = s.encode();
        for n in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..n]).is_err(),
                "prefix of {n} bytes"
            );
        }
        // Each section label's byte range (its last occurrence: the
        // component table names the same labels earlier).
        let labels: Vec<(&str, std::ops::Range<usize>)> = s
            .section_labels()
            .into_iter()
            .map(|label| {
                let at = bytes
                    .windows(label.len())
                    .rposition(|w| w == label.as_bytes())
                    .expect("label present");
                (label, at..at + label.len())
            })
            .collect();
        let mut accepted = 0;
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                let Ok(decoded) = Snapshot::decode(&flipped) else {
                    continue;
                };
                accepted += 1;
                let (label, _) = labels
                    .iter()
                    .find(|(_, range)| range.contains(&at))
                    .unwrap_or_else(|| panic!("flip of bit {bit} at byte {at} accepted"));
                assert_eq!(
                    decoded.read_section(label, |_| Ok(())),
                    Err(SnapError::MissingSection {
                        section: label.to_string()
                    })
                );
            }
        }
        let label_bytes: usize = labels.iter().map(|(_, range)| range.len()).sum();
        assert_eq!((label_bytes, accepted), (21, 7 * label_bytes));
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot section")]
    fn duplicate_sections_are_rejected() {
        let mut s = sample();
        s.add_section("netsim/core", Vec::new());
    }

    #[test]
    fn reader_primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.write_u8(7);
        w.write_u16(0xBEEF);
        w.write_u32(0xDEAD_BEEF);
        w.write_u64(u64::MAX);
        w.write_u128(u128::MAX - 1);
        w.write_usize(12345);
        w.write_f64(-0.0);
        w.write_bool(true);
        w.write_bool(false);
        w.write_str("héllo");
        w.write_bytes(&[9, 8, 7]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u16().unwrap(), 0xBEEF);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), u64::MAX);
        assert_eq!(r.read_u128().unwrap(), u128::MAX - 1);
        assert_eq!(r.read_usize().unwrap(), 12345);
        assert_eq!(r.read_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.read_bool().unwrap());
        assert!(!r.read_bool().unwrap());
        assert_eq!(r.read_str().unwrap(), "héllo");
        assert_eq!(r.read_bytes().unwrap(), &[9, 8, 7]);
        assert!(r.is_empty());
        assert_eq!(r.read_u8().unwrap_err(), SnapError::Truncated);
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_malformed() {
        let mut r = SnapReader::new(&[2]);
        assert!(matches!(
            r.read_bool().unwrap_err(),
            SnapError::Malformed(_)
        ));
        let mut w = SnapWriter::new();
        w.write_u64(2);
        w.write_raw(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.read_str().unwrap_err(), SnapError::Malformed(_)));
    }

    #[test]
    fn read_len_rejects_a_count_the_payload_cannot_hold() {
        let mut w = SnapWriter::new();
        w.write_usize(3);
        w.write_raw(&[1, 2, 3]);
        let bytes = w.into_bytes();
        assert_eq!(SnapReader::new(&bytes).read_len().unwrap(), 3);
        assert_eq!(
            SnapReader::new(&bytes[..bytes.len() - 1])
                .read_len()
                .unwrap_err(),
            SnapError::Truncated
        );
    }

    #[test]
    fn section_reader_names_missing_sections_and_trailing_bytes() {
        let s = sample();
        match s.read_section("dom0/coord", |r| r.read_u8()).unwrap_err() {
            SnapError::Malformed(why) => assert!(why.contains("dom0/coord: 2 trailing"), "{why}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        let whole = s.read_section("dom0/coord", |r| {
            Ok([r.read_u8()?, r.read_u8()?, r.read_u8()?])
        });
        assert_eq!(whole.unwrap(), [1, 2, 3]);
        assert_eq!(
            s.read_section("absent", |_| Ok(())).unwrap_err(),
            SnapError::MissingSection {
                section: "absent".to_string()
            }
        );
    }

    #[test]
    fn combinators_round_trip_and_name_bad_tags() {
        use std::collections::{BTreeMap, BTreeSet, VecDeque};
        let mut w = SnapWriter::new();
        w.write_opt(Some(7u64), |w, v| w.write_u64(v));
        w.write_opt(None::<u64>, |w, v| w.write_u64(v));
        for _ in 0..4 {
            w.write_seq(&[3u32, 1, 2], |w, &v| w.write_u32(v));
        }
        w.write_rng([1, 2, 3, 4]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.read_opt("a", |r| r.read_u64()).unwrap(), Some(7));
        assert_eq!(r.read_opt("b", |r| r.read_u64()).unwrap(), None);
        let v: Vec<u32> = r.read_seq(|r| r.read_u32()).unwrap();
        let d: VecDeque<u32> = r.read_seq(|r| r.read_u32()).unwrap();
        let set: BTreeSet<u32> = r.read_seq(|r| r.read_u32()).unwrap();
        let map: BTreeMap<u32, ()> = r.read_seq(|r| Ok((r.read_u32()?, ()))).unwrap();
        assert_eq!((v, d), (vec![3, 1, 2], VecDeque::from([3, 1, 2])));
        assert_eq!(set, BTreeSet::from([1, 2, 3]));
        assert_eq!(map.len(), 3);
        assert_eq!(r.read_rng(|words| words).unwrap(), [1, 2, 3, 4]);
        assert!(r.is_empty());

        match SnapReader::new(&[2]).read_opt("stop-after", |r| r.read_u64()) {
            Err(SnapError::Malformed(why)) => assert_eq!(why, "stop-after tag 2"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        // A count the payload cannot hold is refused before any element
        // is read or any capacity reserved.
        let mut w = SnapWriter::new();
        w.write_u64(u64::MAX >> 1);
        let bytes = w.into_bytes();
        let huge: Result<Vec<u8>, _> = SnapReader::new(&bytes).read_seq(|r| r.read_u8());
        assert_eq!(huge.unwrap_err(), SnapError::Truncated);
    }

    #[test]
    fn each_scope_runs_on_its_own_sink_only() {
        fn walk<W: StateWrite>(w: &mut W) {
            w.write_u8(1);
            w.hash_only(|w| w.write_u8(2));
            w.snap_only(|w| w.write_u8(3));
        }
        let mut w = SnapWriter::new();
        walk(&mut w);
        assert_eq!(w.into_bytes(), [1, 3]);
        let mut h = crate::HashWriter::new();
        walk(&mut h);
        assert_eq!(h.finish(), fnv64(&[1, 2]));
    }

    #[test]
    fn errors_render_named_coordinates() {
        let e = SnapError::StateMismatch {
            component: "dom2/coord".to_string(),
            expected: 0xAB,
            found: 0xCD,
        };
        let text = e.to_string();
        assert!(text.contains("dom2/coord"), "{text}");
        assert!(text.contains("00000000000000ab"), "{text}");
        let e = SnapError::HeaderMismatch {
            field: "seed",
            expected: "1".to_string(),
            found: "2".to_string(),
        };
        assert!(e.to_string().contains("seed"), "{e}");
    }
}
