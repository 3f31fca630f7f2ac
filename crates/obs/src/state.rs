//! The one-walk state contract: [`State`] and its two sinks.
//!
//! A stateful component lists its fields **once**, in
//! [`State::write_state`]. Run over an [`Fnv64`](crate::Fnv64) the walk
//! is the component's run-ledger hash; run over a
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
//! [`State::read_state`] is the only hand-written inverse. Two gates
//! check it: every restore recomputes each component's hash over the
//! overlaid state and compares it with the capture-time table, and
//! `tests/state_golden.rs` pins both formats byte for byte.

use crate::snap::{SnapError, SnapReader};

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
        self.write_u64(s.len() as u64);
        self.write_raw(s.as_bytes());
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
