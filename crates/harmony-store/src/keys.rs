//! Interned row keys: a compact, copyable [`KeyId`] plus the [`KeyTable`]
//! mapping ids back to the human-readable key strings.
//!
//! Every message, pending-operation record and completion on the hot path
//! used to carry a `String` key, cloned roughly ten times per simulated
//! operation as it flowed coordinator → replicas → acknowledgements →
//! completion. Interning replaces all of that with a 4-byte `Copy` id: the
//! string is allocated exactly once (at workload setup or on a key's first
//! appearance) and everything downstream — events, queues, the heavy-hitter
//! sketch, the per-key backlog probe, the hot-set decisions — moves ids.
//!
//! Ids are dense (`0..len`), assigned in interning order, which makes them
//! directly usable as indices into flat side tables (`Vec<Timestamp>` for the
//! latest-acknowledged map, `Vec<ReplicaSet>` for the placement cache). A
//! workload that interns its record population in order gets
//! `KeyId(i) == record i`, so the YCSB runner's index → key mapping is a
//! plain array lookup with no hashing at all.
//!
//! Maps keyed by such program-assigned ids ([`KeyId`], [`crate::OpId`]) use
//! [`IdMap`]/[`IdSet`]: one multiply per lookup instead of SipHash. The ids
//! never come from outside the program, so SipHash's resistance to crafted
//! collisions buys nothing there.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A multiplicative hasher for dense integer ids (the Fx scheme: rotate,
/// xor the word in, multiply by an odd constant). For consecutive ids the low
/// bits of the product are a permutation of the ids' low bits, so buckets
/// fill evenly, and the high bits the table's tag bytes use are well mixed.
/// Any other input is hashed eight bytes at a time.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    /// The 64-bit Fx constant (odd, so multiplying by it is a bijection).
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

/// A `HashMap` keyed by program-assigned ids, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of program-assigned ids, hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// A compact interned row key: 4 bytes, `Copy`, hashable, ordered by
/// interning order (not lexicographically — resolve through the
/// [`KeyTable`] when name order matters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct KeyId(pub u32);

impl KeyId {
    /// The id as a dense array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "key#{}", self.0)
    }
}

/// The bidirectional key interner: name → id and id → name.
///
/// Interning an already-known name is a single hash lookup with no
/// allocation; a new name allocates once, an `Arc<str>` both directions
/// share. Ids are never recycled — the table only grows, bounded by the
/// number of distinct keys the workload touches (YCSB populations are fixed
/// up front).
#[derive(Debug, Default, Clone)]
pub struct KeyTable {
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, KeyId>,
}

impl KeyTable {
    /// An empty table.
    pub fn new() -> Self {
        KeyTable::default()
    }

    /// A table pre-sized for `capacity` keys.
    pub fn with_capacity(capacity: usize) -> Self {
        KeyTable {
            names: Vec::with_capacity(capacity),
            ids: HashMap::with_capacity(capacity),
        }
    }

    /// Number of interned keys (also the exclusive upper bound of all ids).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Interns `name`, returning its (possibly freshly assigned) id.
    ///
    /// # Panics
    /// Panics if the table would exceed `u32::MAX` keys.
    pub fn intern(&mut self, name: &str) -> KeyId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = KeyId(u32::try_from(self.names.len()).expect("key table full"));
        let name: Arc<str> = name.into();
        self.names.push(Arc::clone(&name));
        self.ids.insert(name, id);
        id
    }

    /// The id of an already-interned name, if any (never interns).
    pub fn get(&self, name: &str) -> Option<KeyId> {
        self.ids.get(name).copied()
    }

    /// The name behind an id.
    ///
    /// # Panics
    /// Panics if the id was not produced by this table.
    pub fn resolve(&self, id: KeyId) -> &str {
        &self.names[id.index()]
    }

    /// The name behind an id, or `None` for a foreign id.
    pub fn try_resolve(&self, id: KeyId) -> Option<&str> {
        self.names.get(id.index()).map(|name| &**name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut t = KeyTable::new();
        let a = t.intern("user0");
        let b = t.intern("user1");
        assert_eq!(a, KeyId(0));
        assert_eq!(b, KeyId(1));
        // Re-interning returns the existing id.
        assert_eq!(t.intern("user0"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "user0");
        assert_eq!(t.resolve(b), "user1");
        assert_eq!(t.get("user1"), Some(b));
        assert_eq!(t.get("user2"), None);
    }

    #[test]
    fn try_resolve_handles_foreign_ids() {
        let mut t = KeyTable::new();
        let a = t.intern("k");
        assert_eq!(t.try_resolve(a), Some("k"));
        assert_eq!(t.try_resolve(KeyId(99)), None);
    }

    #[test]
    fn key_id_index_and_display() {
        assert_eq!(KeyId(7).index(), 7);
        assert_eq!(KeyId(7).to_string(), "key#7");
        // Dense ids order by interning order.
        assert!(KeyId(1) < KeyId(2));
    }

    #[test]
    fn id_hasher_hashes_arbitrary_bytes() {
        let hash = |bytes: &[u8]| {
            let mut h = IdHasher::default();
            h.write(bytes);
            h.finish()
        };
        // Every length, including a partial trailing word, hashes without
        // panicking, and differing inputs (here) hash apart.
        let hashes: HashSet<u64> = (0..=20u8)
            .map(|n| hash(&(1..=n).collect::<Vec<u8>>()))
            .collect();
        assert_eq!(hashes.len(), 21);
        assert_ne!(hash(b"user1"), hash(b"user2"));
        let names: IdSet<&str> = ["user0", "user1", "user0"].into_iter().collect();
        assert_eq!(names.len(), 2);
        let ids: IdMap<KeyId, u32> = (0..100).map(|i| (KeyId(i), i)).collect();
        assert!((0..100).all(|i| ids[&KeyId(i)] == i));
    }

    #[test]
    fn interning_order_matches_insertion() {
        let mut t = KeyTable::with_capacity(8);
        for i in 0..8u32 {
            assert_eq!(t.intern(&format!("user{i}")), KeyId(i));
        }
        assert!(!t.is_empty());
    }
}
