//! The one-walk state contract: [`State`] and its two sinks.
//!
//! A stateful component lists its fields **once**, in
//! [`State::write_state`]. Run over a [`HashWriter`](crate::HashWriter)
//! the walk is the component's run-ledger hash input; run over a
//! [`SnapWriter`](crate::SnapWriter) it is the component's checkpoint
//! payload — so "what is hashed is what is saved" holds by
//! construction. Where the two formats legitimately differ, the field
//! sits in a scope that compiles to nothing on the other sink:
//!
//! * [`StateWrite::hash_only`] — what only the ledger sees: build-time
//!   configuration (rebuilt from the spec on restore, but a divergence
//!   if it differs between two runs), lengths derived from saved
//!   contents, and the per-type tag that tells filter types apart.
//! * [`StateWrite::snap_only`] — what only a checkpoint needs: RNG
//!   internals (a restored run continues the stream mid-way; two
//!   replays carry identical streams, so hashing them adds nothing),
//!   stale-but-load-bearing storage such as dead deque entries and
//!   free lists, and whole tables the hash summarises by length.
//!
//! Pure caches appear in neither: restore invalidates them.
//!
//! [`State::read_state`] is the hand-written inverse, kept short by
//! writing each encoding idiom once: an option is
//! [`StateWrite::write_opt`] / [`SnapReader::read_opt`], a counted
//! sequence [`StateWrite::write_seq`] / [`SnapReader::read_seq`] (whose
//! count goes through [`SnapReader::read_len`], so no payload integer
//! sizes an allocation or bounds a loop unchecked), an RNG's four words
//! [`StateWrite::write_rng`] / [`SnapReader::read_rng`]. Three gates
//! check the inverse: the law harness ([`assert_state_law`], called
//! from every type's round-trip test) proves `write → read → write` is
//! byte-identical and that no truncated, bit-flipped or stamped payload
//! panics; every restore recomputes each component's hash over the
//! overlaid state and compares it with the capture-time table; and
//! `tests/state_golden.rs` pins both formats byte for byte.
//!
//! `State` is generic over its sink and therefore not object-safe;
//! [`DynState`] is its object-safe face, supplied once by a blanket
//! impl, for the boxed filters and agents the simulator owns.

use crate::fnv::{fnv64, HashWriter};
use crate::snap::{SnapError, SnapReader, SnapWriter};

/// A byte sink a [`State`] walk writes into. All multi-byte values are
/// little-endian; `usize` widens to 64 bits so 32- and 64-bit builds
/// agree; `f64` goes by IEEE-754 bit pattern (`-0.0` ≠ `0.0`, every
/// NaN payload is itself); strings are length-prefixed UTF-8.
pub trait StateWrite {
    /// Writes raw bytes verbatim (no length prefix).
    fn write_raw(&mut self, bytes: &[u8]);

    /// Writes one byte.
    fn write_u8(&mut self, v: u8) {
        self.write_raw(&[v]);
    }

    /// Writes a `u16`.
    fn write_u16(&mut self, v: u16) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    fn write_u32(&mut self, v: u32) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    fn write_u64(&mut self, v: u64) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Writes a `u128`.
    fn write_u128(&mut self, v: u128) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Writes a `usize` widened to 64 bits.
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Writes an `f64` via its bit pattern.
    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Writes a length-prefixed byte slice.
    fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        self.write_raw(bytes);
    }

    /// Writes the four state words of an RNG
    /// ([`SnapReader::read_rng`] is the inverse).
    fn write_rng(&mut self, words: [u64; 4]) {
        for word in words {
            self.write_u64(word);
        }
    }

    /// Writes an option as a one-byte tag — 0 for `None`, 1 for `Some`
    /// followed by what `some` writes
    /// ([`SnapReader::read_opt`] is the inverse).
    fn write_opt<T>(&mut self, value: Option<T>, some: impl FnOnce(&mut Self, T))
    where
        Self: Sized,
    {
        match value {
            None => self.write_u8(0),
            Some(value) => {
                self.write_u8(1);
                some(self, value);
            }
        }
    }

    /// Writes a counted sequence: the element count, then what `each`
    /// writes per element ([`SnapReader::read_seq`] is the inverse).
    fn write_seq<I>(&mut self, items: I, mut each: impl FnMut(&mut Self, I::Item))
    where
        Self: Sized,
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.write_usize(items.len());
        for item in items {
            each(self, item);
        }
    }

    /// Runs `f` only when this sink is the ledger hasher.
    fn hash_only(&mut self, _f: impl FnOnce(&mut Self))
    where
        Self: Sized,
    {
    }

    /// Runs `f` only when this sink is a checkpoint payload.
    fn snap_only(&mut self, _f: impl FnOnce(&mut Self))
    where
        Self: Sized,
    {
    }
}

/// A component whose mutable run state is hashed into the run ledger,
/// saved into checkpoints, and overlaid back onto a rebuilt instance.
pub trait State {
    /// Visits every state field in a fixed order (see the module docs
    /// for what belongs in which scope).
    fn write_state<W: StateWrite>(&self, w: &mut W);

    /// Overlays a payload written by [`State::write_state`] over a
    /// [`SnapWriter`](crate::SnapWriter) onto `self`, which the caller
    /// has rebuilt to the same structural shape (same spec, same
    /// build-time provisioning).
    ///
    /// # Errors
    ///
    /// [`SnapError`] if the payload is truncated or malformed.
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// The run-ledger hash of `state`: the FNV-1a of its walk over a fresh
/// [`HashWriter`] — what an [`IntervalProbe`](crate::IntervalProbe)
/// records for it.
#[must_use]
pub fn state_hash(state: &impl State) -> u64 {
    let mut h = HashWriter::new();
    state.write_state(&mut h);
    h.finish()
}

/// The checkpoint payload of `state`: its walk over a fresh writer.
#[must_use]
pub fn state_bytes(state: &impl State) -> Vec<u8> {
    let mut w = SnapWriter::new();
    state.write_state(&mut w);
    w.into_bytes()
}

/// Test support: asserts the two laws every [`State`] impl owes its
/// hand-written inverse, given a `populated` instance and a `blank`
/// that rebuilds an empty one of the same build-time shape (what
/// restore starts from). It lives here, not in a test-support crate,
/// so that every layer — this one included — can call it from its own
/// round-trip tests; `mafic_netsim::testkit` re-exports it.
///
/// 1. **Round trip.** `write → read → write` is byte-identical, the
///    read consumes the whole payload, and the restored instance
///    hashes like the original.
/// 2. **No panic on hostile bytes.** Every truncation prefix, a fixed
///    set of single-bit flips, and a `0xFF 0xFF` and a `u64::MAX` stamp
///    at every offset each make `read_state` *return* — `Ok` or a named
///    [`SnapError`] — on a fresh blank.
///
/// # Panics
///
/// Panics when a law is broken (that is its job), naming which.
pub fn assert_state_law<S: State>(populated: &S, blank: impl Fn() -> S) {
    let bytes = state_bytes(populated);
    let mut restored = blank();
    let mut r = SnapReader::new(&bytes);
    if let Err(e) = restored.read_state(&mut r) {
        panic!("state law: a type must read back its own payload: {e}");
    }
    assert!(
        r.is_empty(),
        "state law: read_state left {} of {} bytes unread",
        r.remaining(),
        bytes.len()
    );
    assert!(
        state_bytes(&restored) == bytes,
        "state law: write -> read -> write is not byte-identical"
    );
    assert_eq!(
        state_hash(&restored),
        state_hash(populated),
        "state law: the restored instance hashes differently"
    );

    let survive = |payload: &[u8]| {
        let _ = blank().read_state(&mut SnapReader::new(payload));
    };
    for cut in 0..bytes.len() {
        survive(&bytes[..cut]);
    }
    let mut doctored = bytes.clone();
    for flip in 0..256.min(bytes.len()) {
        // A fixed stream of positions; it need not be a good one.
        let bit = fnv64(&flip.to_le_bytes()) as usize % (bytes.len() * 8);
        doctored[bit / 8] ^= 1 << (bit % 8);
        survive(&doctored);
        doctored[bit / 8] = bytes[bit / 8];
    }
    // Long payloads are stamped on a stride: the cost is quadratic.
    let stride = bytes.len() / 2048 + 1;
    for width in [2, 8] {
        for at in (0..bytes.len().saturating_sub(width - 1)).step_by(stride) {
            doctored[at..at + width].fill(0xFF);
            survive(&doctored);
            doctored[at..at + width].copy_from_slice(&bytes[at..at + width]);
        }
    }
}

/// The object-safe face of [`State`]: one hook per sink, so a walk
/// reached through `dyn PacketFilter` / `dyn Agent` still runs every
/// primitive write statically dispatched. Never implemented by hand —
/// the blanket impl below gives it to every `State` type, which is why
/// a stateful filter cannot forget to be hashed.
pub trait DynState {
    /// Writes the state's run-ledger hash input
    /// ([`State::write_state`] over the hash sink).
    fn hash_state(&self, h: &mut HashWriter);

    /// Serializes the state into a checkpoint payload
    /// ([`State::write_state`] over the writer).
    fn snap_save(&self, w: &mut SnapWriter);

    /// Overlays a payload written by [`DynState::snap_save`]
    /// ([`State::read_state`]).
    ///
    /// # Errors
    ///
    /// [`SnapError`] if the payload is truncated or malformed.
    fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

impl<T: State> DynState for T {
    fn hash_state(&self, h: &mut HashWriter) {
        self.write_state(h);
    }

    fn snap_save(&self, w: &mut SnapWriter) {
        self.write_state(w);
    }

    fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.read_state(r)
    }
}
