//! Flow interning: dense [`FlowId`] handles for packet 4-tuples.
//!
//! The per-packet hot path used to hash the full [`FlowKey`] once per
//! table (SFT, NFT, PDT, arrival tracker, stats — five-plus hashes per
//! packet). The interner hashes the key exactly once, at node arrival,
//! and hands out a dense `u32` handle; every downstream structure is then
//! an index read away ([`FlowSlab`], or a plain vector where every id has
//! a value).
//!
//! Contracts:
//!
//! * **Minting** — only the [`crate::Simulator`] (and test harnesses)
//!   intern keys; filters and agents receive already-minted ids through
//!   [`crate::PacketEnv`] / [`crate::AgentCtx`].
//! * **Stability** — an id is valid for the lifetime of the interner (one
//!   simulation run). Table flushes (e.g. MAFIC's `PushbackStop`) drop
//!   per-flow *state*, never the id ↔ key binding, so a flow keeps its id
//!   across defense activations.
//! * **Determinism** — ids are minted in first-arrival order, which is
//!   itself deterministic, so id-ordered iteration over a [`FlowSlab`]
//!   replays identically for a given seed.

use crate::packet::FlowKey;
use mafic_obs::{SnapError, SnapReader, State, StateWrite};
use std::fmt;

/// Dense handle for one interned flow 4-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u32);

impl FlowId {
    /// Raw dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs an id from a raw index (test harnesses only; an id not
    /// minted by an interner panics at resolve time).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        FlowId(u32::try_from(index).expect("flow index fits u32"))
    }
}

/// Largest flow index a checkpoint may name. Ids are dense, so an index
/// sizes the slab it is inserted into; section checksums are
/// recomputable, so the index is attacker-controlled.
const MAX_RESTORED_FLOW_INDEX: usize = 1 << 20;

/// Reads a [`FlowId`] a [`State`] walk wrote as `write_usize(id.index())`.
///
/// # Errors
///
/// [`SnapError::Truncated`] at end of input; [`SnapError::Malformed`]
/// for an index no honest checkpoint of this simulator holds.
pub fn read_flow_id(r: &mut SnapReader<'_>) -> Result<FlowId, SnapError> {
    let index = r.read_usize()?;
    if index > MAX_RESTORED_FLOW_INDEX {
        return Err(SnapError::Malformed(format!(
            "flow index {index} out of range"
        )));
    }
    Ok(FlowId(index as u32))
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// SplitMix64 finalizer — the interner's probe hash.
///
/// Duplicated from `mafic-loglog` deliberately: the simulator substrate
/// must not depend on the sketch crate.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[inline]
fn key_hash(key: FlowKey) -> u64 {
    let (a, b) = key.as_words();
    mix64(a ^ mix64(b))
}

/// Mints dense [`FlowId`]s for flow 4-tuples.
///
/// Internally an open-addressing (linear probing) index over a slab of
/// keys: one well-mixed hash and a short probe run per lookup, no
/// per-entry heap allocation, and deterministic behaviour independent of
/// any ambient hasher state.
///
/// # Example
///
/// ```
/// use mafic_netsim::{Addr, FlowInterner, FlowKey};
///
/// let mut interner = FlowInterner::new();
/// let key = FlowKey::new(Addr::new(1), Addr::new(2), 3, 4);
/// let id = interner.intern(key);
/// assert_eq!(interner.intern(key), id, "stable per key");
/// assert_eq!(interner.resolve(id), key, "round-trips");
/// ```
#[derive(Debug, Clone)]
pub struct FlowInterner {
    /// id → key (the slab).
    keys: Vec<FlowKey>,
    /// Open-addressing index: `0` = empty, otherwise `id + 1`.
    index: Vec<u32>,
    /// `index.len() - 1`; `index.len()` is a power of two.
    mask: usize,
}

impl Default for FlowInterner {
    fn default() -> Self {
        FlowInterner::new()
    }
}

impl FlowInterner {
    const MIN_SLOTS: usize = 64;

    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        FlowInterner {
            keys: Vec::new(),
            index: vec![0; Self::MIN_SLOTS],
            mask: Self::MIN_SLOTS - 1,
        }
    }

    /// Number of distinct flows interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no flow has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The id for `key`, minting a fresh one on first sight.
    pub fn intern(&mut self, key: FlowKey) -> FlowId {
        let mut slot = key_hash(key) as usize & self.mask;
        loop {
            match self.index[slot] {
                0 => break,
                stored => {
                    let id = (stored - 1) as usize;
                    if self.keys[id] == key {
                        return FlowId(stored - 1);
                    }
                    slot = (slot + 1) & self.mask;
                }
            }
        }
        let id = u32::try_from(self.keys.len()).expect("flow count fits u32");
        self.keys.push(key);
        self.index[slot] = id + 1;
        // Grow at 3/4 load to keep probe runs short.
        if self.keys.len() * 4 >= self.index.len() * 3 {
            self.grow();
        }
        FlowId(id)
    }

    /// The id for `key`, if it has been interned.
    #[must_use]
    pub fn lookup(&self, key: FlowKey) -> Option<FlowId> {
        let mut slot = key_hash(key) as usize & self.mask;
        loop {
            match self.index[slot] {
                0 => return None,
                stored => {
                    if self.keys[(stored - 1) as usize] == key {
                        return Some(FlowId(stored - 1));
                    }
                    slot = (slot + 1) & self.mask;
                }
            }
        }
    }

    /// The 4-tuple an id was minted for.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not minted by this interner.
    #[must_use]
    pub fn resolve(&self, id: FlowId) -> FlowKey {
        self.keys[id.index()]
    }

    /// Iterates `(id, key)` pairs in minting order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, FlowKey)> + '_ {
        self.keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (FlowId(i as u32), k))
    }

    fn grow(&mut self) {
        let new_slots = self.index.len() * 2;
        self.index.clear();
        self.index.resize(new_slots, 0);
        self.mask = new_slots - 1;
        for (i, &key) in self.keys.iter().enumerate() {
            let mut slot = key_hash(key) as usize & self.mask;
            while self.index[slot] != 0 {
                slot = (slot + 1) & self.mask;
            }
            self.index[slot] = i as u32 + 1;
        }
    }
}

impl State for FlowInterner {
    /// The key slab in minting order. The probe index is derived state
    /// and is rebuilt on restore by re-interning, which reproduces the
    /// identical table (interning is a pure function of the key
    /// sequence).
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_seq(&self.keys, |w, key| key.write_state(w));
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.read_len()?;
        *self = FlowInterner::new();
        for _ in 0..n {
            let key = crate::packet::read_flow_key(r)?;
            let _ = self.intern(key);
        }
        Ok(())
    }
}

/// Per-flow storage keyed by [`FlowId`], costing what it holds.
///
/// A `u32` position index over the id space (`u32::MAX` marks an id
/// with no value) in front of packed `(id, value)` entries. Access
/// is one index read and one entry read, with no hashing; removal
/// swap-removes the entry and re-points the moved one; iteration walks
/// the index, so it runs in id order (deterministic) whatever order the
/// entries sit in. A value costs its entry, and an id that never held
/// one costs four index bytes, not a whole empty slot, so a table that
/// holds a few flows of a many-flow run stays small. This is the
/// backing store for every per-router per-flow table.
#[derive(Debug, Clone)]
pub struct FlowSlab<T> {
    /// id → position in `entries`, or [`FlowSlab::ABSENT`].
    index: Vec<u32>,
    entries: Vec<(FlowId, T)>,
}

impl<T> Default for FlowSlab<T> {
    fn default() -> Self {
        FlowSlab::new()
    }
}

impl<T> FlowSlab<T> {
    /// Index mark for an id with no value. No entry position reaches it,
    /// so a probe through it misses without a separate branch.
    const ABSENT: u32 = u32::MAX;

    /// Ids the index spans from its first allocation (256 bytes), so a
    /// slab whose ids start low skips the smallest reallocations.
    const MIN_INDEX: usize = 64;

    /// Entries the first entry allocation holds; doubling from there.
    const MIN_ENTRIES: usize = 8;

    /// Creates an empty slab.
    #[must_use]
    pub fn new() -> Self {
        FlowSlab {
            index: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Number of stored values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no value is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, id: FlowId) -> usize {
        self.index
            .get(id.index())
            .map_or(usize::MAX, |&p| p as usize)
    }

    /// The value for `id`, if present.
    #[must_use]
    pub fn get(&self, id: FlowId) -> Option<&T> {
        self.entries.get(self.position(id)).map(|(_, v)| v)
    }

    /// Mutable access to the value for `id`, if present.
    pub fn get_mut(&mut self, id: FlowId) -> Option<&mut T> {
        let at = self.position(id);
        self.entries.get_mut(at).map(|(_, v)| v)
    }

    /// True if `id` has a value.
    #[must_use]
    pub fn contains(&self, id: FlowId) -> bool {
        self.position(id) < self.entries.len()
    }

    /// Stores `value` for `id`, returning the previous value if any.
    pub fn insert(&mut self, id: FlowId, value: T) -> Option<T> {
        if let Some(old) = self.get_mut(id) {
            return Some(std::mem::replace(old, value));
        }
        let idx = id.index();
        if idx >= self.index.len() {
            self.index
                .resize((idx + 1).max(Self::MIN_INDEX), Self::ABSENT);
        }
        if self.entries.capacity() == 0 {
            self.entries.reserve(Self::MIN_ENTRIES);
        }
        self.index[idx] = u32::try_from(self.entries.len()).expect("entry count fits u32");
        self.entries.push((id, value));
        None
    }

    /// Removes and returns the value for `id`.
    pub fn remove(&mut self, id: FlowId) -> Option<T> {
        let at = self.position(id);
        if at >= self.entries.len() {
            return None;
        }
        self.index[id.index()] = Self::ABSENT;
        let (_, old) = self.entries.swap_remove(at);
        if let Some(&(moved, _)) = self.entries.get(at) {
            self.index[moved.index()] = at as u32;
        }
        Some(old)
    }

    /// Drops all values in O(stored values), keeping both allocations.
    pub fn clear(&mut self) {
        for &(id, _) in &self.entries {
            self.index[id.index()] = Self::ABSENT;
        }
        self.entries.clear();
    }

    /// The entry at storage position `pos`.
    ///
    /// Storage order is insertion order, except that a removal moves
    /// the last entry into the removed one's place: like every walk of a
    /// slab, it depends only on the operation sequence.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    #[must_use]
    pub fn entry_at(&self, pos: usize) -> (FlowId, &T) {
        let (id, value) = &self.entries[pos];
        (*id, value)
    }

    /// Iterates stored `(id, value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &T)> {
        self.index
            .iter()
            .filter_map(|&p| self.entries.get(p as usize).map(|(id, value)| (*id, value)))
    }
}

/// Lets a counted `(id, value)` sequence of a checkpoint collect
/// straight into a slab (`SnapReader::read_seq`).
impl<T> Extend<(FlowId, T)> for FlowSlab<T> {
    fn extend<I: IntoIterator<Item = (FlowId, T)>>(&mut self, iter: I) {
        for (id, value) in iter {
            self.insert(id, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Addr;

    fn key(n: u32) -> FlowKey {
        FlowKey::new(Addr::new(n), Addr::new(n ^ 0xFFFF), (n % 60_000) as u16, 80)
    }

    #[test]
    fn interning_is_dense_and_stable() {
        let mut interner = FlowInterner::new();
        let a = interner.intern(key(1));
        let b = interner.intern(key(2));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(interner.intern(key(1)), a);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn interner_obeys_the_state_law_and_restores_the_same_ids() {
        let mut interner = FlowInterner::new();
        for n in 0..40 {
            let _ = interner.intern(key(n));
        }
        crate::testkit::assert_state_law(&interner, FlowInterner::new);
        let mut restored = FlowInterner::new();
        let bytes = crate::testkit::state_bytes(&interner);
        restored.read_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(restored.intern(key(17)), interner.intern(key(17)));
        assert_eq!(restored.intern(key(99)), interner.intern(key(99)));
    }

    #[test]
    fn resolve_round_trips_through_growth() {
        let mut interner = FlowInterner::new();
        let ids: Vec<FlowId> = (0..10_000).map(|n| interner.intern(key(n))).collect();
        for (n, &id) in ids.iter().enumerate() {
            assert_eq!(interner.resolve(id), key(n as u32));
            assert_eq!(interner.lookup(key(n as u32)), Some(id));
        }
        assert_eq!(interner.len(), 10_000);
    }

    #[test]
    fn lookup_misses_are_none() {
        let mut interner = FlowInterner::new();
        interner.intern(key(1));
        assert_eq!(interner.lookup(key(2)), None);
    }

    #[test]
    fn iteration_is_in_minting_order() {
        let mut interner = FlowInterner::new();
        for n in [5u32, 3, 9] {
            interner.intern(key(n));
        }
        let keys: Vec<FlowKey> = interner.iter().map(|(_, k)| k).collect();
        assert_eq!(keys, vec![key(5), key(3), key(9)]);
    }

    #[test]
    fn slab_insert_get_remove() {
        let mut slab = FlowSlab::new();
        let id = FlowId::from_index(7);
        assert!(slab.get(id).is_none());
        assert_eq!(slab.insert(id, "a"), None);
        assert_eq!(slab.insert(id, "b"), Some("a"));
        assert_eq!(slab.len(), 1);
        *slab.get_mut(id).unwrap() = "c";
        assert_eq!(slab.remove(id), Some("c"));
        assert!(slab.is_empty());
        assert_eq!(slab.remove(id), None);
    }

    #[test]
    fn slab_iterates_in_id_order() {
        let mut slab = FlowSlab::new();
        slab.insert(FlowId::from_index(4), 40);
        slab.insert(FlowId::from_index(1), 10);
        slab.insert(FlowId::from_index(2), 20);
        let got: Vec<(usize, i32)> = slab.iter().map(|(id, &v)| (id.index(), v)).collect();
        assert_eq!(got, vec![(1, 10), (2, 20), (4, 40)]);
    }

    #[test]
    fn slab_clear_keeps_capacity_drops_values() {
        let mut slab = FlowSlab::new();
        for i in 0..16 {
            slab.insert(FlowId::from_index(i), i);
        }
        slab.clear();
        assert!(slab.is_empty());
        assert!(slab.get(FlowId::from_index(3)).is_none());
    }

    /// The compact slab against the dense `Vec<Option<T>>` it replaced:
    /// a seeded run of inserts, replacements, removals, reads, writes and
    /// clears (each followed by re-inserts), with the length and the
    /// id-ordered walk compared after every step.
    #[test]
    fn compact_slab_matches_a_dense_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(47);
        let mut slab: FlowSlab<u64> = FlowSlab::new();
        let mut dense: Vec<Option<u64>> = Vec::new();
        for step in 0..6_000u64 {
            // Mostly a crowded low range, with a sparse tail that makes
            // the index outgrow the entries.
            let id = if rng.gen_bool(0.9) {
                rng.gen_range(0..48)
            } else {
                rng.gen_range(0..600)
            };
            let flow = FlowId::from_index(id);
            if id >= dense.len() {
                dense.resize(id + 1, None);
            }
            match rng.gen_range(0..100u32) {
                0..=39 => assert_eq!(slab.insert(flow, step), dense[id].replace(step)),
                40..=64 => assert_eq!(slab.remove(flow), dense[id].take()),
                65..=79 => {
                    let (got, want) = (slab.get_mut(flow), dense[id].as_mut());
                    assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some(want)) = (got, want) {
                        *got += 1_000_000;
                        *want += 1_000_000;
                    }
                }
                80..=98 => {
                    assert_eq!(slab.get(flow), dense[id].as_ref());
                    assert_eq!(slab.contains(flow), dense[id].is_some());
                }
                _ => {
                    slab.clear();
                    dense.iter_mut().for_each(|v| *v = None);
                }
            }
            let want: Vec<(usize, u64)> = dense
                .iter()
                .enumerate()
                .filter_map(|(i, v)| v.map(|v| (i, v)))
                .collect();
            let walk: Vec<(usize, u64)> = slab.iter().map(|(id, &v)| (id.index(), v)).collect();
            assert_eq!(walk, want, "step {step}");
            assert_eq!(slab.len(), want.len());
            assert_eq!(slab.is_empty(), want.is_empty());
        }
    }

    #[test]
    fn flow_id_display() {
        assert_eq!(FlowId::from_index(3).to_string(), "f3");
    }
}
