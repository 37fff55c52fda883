//! Key-space sharding arithmetic for the multi-core runtime.
//!
//! The sharded runner splits one logical keyspace of `N` records across `S`
//! independent shard event loops. The partition is **strided**: the global
//! record index `g` is owned by shard `g % S`, and inside that shard it is
//! the `g / S`-th key loaded. Striding (rather than contiguous ranges)
//! spreads a Zipfian head across shards — rank 0 lands on shard 0, rank 1 on
//! shard 1, … — so hot traffic does not pile onto one event loop.
//!
//! Because every shard loads its records in ascending global order, the
//! local↔global mapping is pure arithmetic on the dense [`KeyId`]s the
//! interner hands out in load order: local id `l` on shard `s` *is* global
//! record `l * S + s`, with no per-shard translation table to build, grow or
//! share. That keeps a 10M-record keyspace at zero extra bytes per shard and
//! makes cross-shard id translation (sketch merge, hot-set routing) a
//! multiply or a divide.

use crate::keys::KeyId;

/// One shard's view of a strided keyspace partition: `shards` total stripes,
/// of which this value is stripe `index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPartition {
    index: usize,
    shards: usize,
}

impl ShardPartition {
    /// A partition descriptor for stripe `index` of `shards`.
    ///
    /// # Panics
    /// Panics if `shards` is zero or `index` is out of range — a
    /// construction-time configuration error, never a runtime race.
    pub fn new(index: usize, shards: usize) -> Self {
        assert!(shards > 0, "a partition needs at least one shard");
        assert!(index < shards, "shard index {index} out of range {shards}");
        ShardPartition { index, shards }
    }

    /// This shard's stripe index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total stripe count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// True if global record index `global` belongs to this shard.
    pub fn owns_global(&self, global: usize) -> bool {
        global % self.shards == self.index
    }

    /// The shard that owns global record index `global`.
    pub fn owner(&self, global: usize) -> usize {
        global % self.shards
    }

    /// The global record index behind this shard's `local` dense index.
    pub fn local_to_global(&self, local: usize) -> usize {
        local * self.shards + self.index
    }

    /// The dense local index of an owned global record index.
    ///
    /// Callers must check [`ShardPartition::owns_global`] first; for a
    /// non-owned index this returns the slot the record *would* occupy,
    /// which is meaningful only to its true owner.
    pub fn global_to_local(&self, global: usize) -> usize {
        debug_assert!(self.owns_global(global), "key {global} not owned here");
        global / self.shards
    }

    /// How many of the first `total` global records this shard owns: the
    /// number of locals `l` with `l * shards + index < total`.
    pub fn local_count(&self, total: usize) -> usize {
        if total <= self.index {
            0
        } else {
            (total - self.index - 1) / self.shards + 1
        }
    }

    /// Translates a *local* interned id to the *global* id used on the
    /// coordinator (sketches, hot-set decisions). Valid for load-phase
    /// records, whose interner ids are dense in load order by construction.
    pub fn local_key_to_global(&self, local: KeyId) -> KeyId {
        KeyId(self.local_to_global(local.index()) as u32)
    }

    /// The smallest global record index `>= floor` owned by this shard —
    /// where this shard's insert sequence starts so that concurrent shard
    /// inserts never collide on a global record name.
    pub fn first_owned_at_or_after(&self, floor: usize) -> usize {
        floor + (self.index + self.shards - floor % self.shards) % self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_round_trips_and_partitions_exactly() {
        for shards in 1..=5 {
            let parts: Vec<ShardPartition> = (0..shards)
                .map(|i| ShardPartition::new(i, shards))
                .collect();
            for global in 0..97 {
                let owners: Vec<usize> = parts
                    .iter()
                    .filter(|p| p.owns_global(global))
                    .map(|p| p.index())
                    .collect();
                assert_eq!(owners.len(), 1, "exactly one owner per key");
                let owner = &parts[owners[0]];
                assert_eq!(owner.owner(global), owner.index());
                let local = owner.global_to_local(global);
                assert_eq!(owner.local_to_global(local), global);
                assert_eq!(
                    owner.local_key_to_global(KeyId(local as u32)),
                    KeyId(global as u32)
                );
            }
        }
    }

    #[test]
    fn local_counts_sum_to_total() {
        for shards in 1..=6 {
            for total in [0, 1, 5, 64, 97, 1000] {
                let sum: usize = (0..shards)
                    .map(|i| ShardPartition::new(i, shards).local_count(total))
                    .sum();
                assert_eq!(sum, total, "shards={shards} total={total}");
                // And each count matches a brute-force enumeration.
                for i in 0..shards {
                    let p = ShardPartition::new(i, shards);
                    let brute = (0..total).filter(|g| p.owns_global(*g)).count();
                    assert_eq!(p.local_count(total), brute);
                }
            }
        }
    }

    #[test]
    fn insert_floors_are_owned_disjoint_and_minimal() {
        for shards in 1..=5 {
            for floor in [0, 1, 7, 10, 1000] {
                let firsts: Vec<usize> = (0..shards)
                    .map(|i| ShardPartition::new(i, shards).first_owned_at_or_after(floor))
                    .collect();
                for (i, &g) in firsts.iter().enumerate() {
                    let p = ShardPartition::new(i, shards);
                    assert!(g >= floor);
                    assert!(g < floor + shards, "minimal: within one stride");
                    assert!(p.owns_global(g));
                }
                let mut sorted = firsts.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), shards, "one distinct start per shard");
            }
        }
    }

    #[test]
    fn single_shard_is_the_identity() {
        let p = ShardPartition::new(0, 1);
        for g in 0..10 {
            assert!(p.owns_global(g));
            assert_eq!(p.local_to_global(g), g);
            assert_eq!(p.global_to_local(g), g);
        }
        assert_eq!(p.local_count(42), 42);
        assert_eq!(p.first_owned_at_or_after(17), 17);
    }
}
