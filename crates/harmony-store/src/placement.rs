//! Replica placement strategies.
//!
//! The paper configures Cassandra with `OldNetworkTopologyStrategy`, which
//! "ensures that data is replicated over all the clusters and racks" (§V.C).
//! We provide the two classic strategies:
//!
//! * [`ReplicationStrategy::Simple`] — the first `RF` distinct nodes walking
//!   the ring clockwise, ignoring topology;
//! * [`ReplicationStrategy::NetworkTopology`] — walk the ring but prefer
//!   nodes on racks (and datacenters) not yet holding a replica, falling back
//!   to already-used racks only when every rack is covered. This reproduces
//!   the rack/DC spreading of the paper's configuration.

use crate::hashring::HashRing;
use crate::keys::KeyId;
use harmony_sim::topology::{NodeId, Topology};
use serde::{Deserialize, Serialize};

/// Upper bound on the replication factor the inline replica-set cache
/// supports. The paper's deployments use RF = 5; the bound leaves headroom
/// without bloating the per-key cache entry (8 × 4 bytes + length).
pub const MAX_RF: usize = 8;

/// A replica set stored inline (no heap allocation): up to [`MAX_RF`] node
/// ids plus a length. This is what the placement cache hands out on the hot
/// path instead of a freshly allocated `Vec<NodeId>` per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaSet {
    nodes: [NodeId; MAX_RF],
    len: u8,
}

impl ReplicaSet {
    /// An empty replica set (also the cache's "not yet computed" sentinel).
    pub const EMPTY: ReplicaSet = ReplicaSet {
        nodes: [NodeId(0); MAX_RF],
        len: 0,
    };

    /// Builds a set from a freshly computed replica list.
    ///
    /// # Panics
    /// Panics if the list exceeds [`MAX_RF`] nodes (prevented upstream by
    /// `StoreConfig::validate`).
    pub fn from_slice(nodes: &[NodeId]) -> Self {
        assert!(
            nodes.len() <= MAX_RF,
            "replica set of {} exceeds MAX_RF = {MAX_RF}",
            nodes.len()
        );
        let mut set = ReplicaSet::EMPTY;
        set.nodes[..nodes.len()].copy_from_slice(nodes);
        set.len = nodes.len() as u8;
        set
    }

    /// The replicas, primary first.
    #[inline]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.nodes[..self.len as usize]
    }

    /// Number of replicas.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the set holds no replicas.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one node.
    ///
    /// # Panics
    /// Panics (debug) past [`MAX_RF`] nodes.
    #[inline]
    pub fn push(&mut self, node: NodeId) {
        debug_assert!((self.len as usize) < MAX_RF, "replica set full");
        self.nodes[self.len as usize] = node;
        self.len += 1;
    }
}

/// A memoised `replicas_for` table indexed by [`KeyId`]: steady-state
/// placement lookups are one array index instead of a token-ring walk plus a
/// `Vec` allocation. Entries are computed lazily on first use and the whole
/// table is dropped by [`PlacementCache::invalidate`] whenever the ring or
/// the topology changes (node joins/departures, vnode reshuffles).
#[derive(Debug, Default, Clone)]
pub struct PlacementCache {
    sets: Vec<ReplicaSet>,
    /// Bumped on every invalidation; lets callers cheaply detect that cached
    /// data from a previous topology must not be reused.
    generation: u64,
}

impl PlacementCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlacementCache::default()
    }

    /// How many topology changes this cache has survived.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of invalidations performed — the churn property tests assert
    /// this increments exactly once per topology change. (Alias of
    /// [`PlacementCache::generation`], named for what it counts.)
    pub fn invalidations(&self) -> u64 {
        self.generation
    }

    /// Number of keys with a cached (computed) replica set.
    pub fn cached_len(&self) -> usize {
        self.sets.iter().filter(|s| !s.is_empty()).count()
    }

    /// Drops every cached entry. Must be called whenever the ring, the
    /// topology or the placement strategy changes.
    pub fn invalidate(&mut self) {
        self.sets.clear();
        self.generation += 1;
    }

    /// The cached replica set for `key`, computing (and caching) it from the
    /// ring walk on first use. A cluster-size or RF of zero is the caller's
    /// bug; an empty computed set is cached as-is and recomputed next time,
    /// which cannot happen for a non-empty topology.
    #[inline]
    pub fn replicas_for(
        &mut self,
        key: KeyId,
        name: &str,
        strategy: ReplicationStrategy,
        ring: &HashRing,
        topology: &Topology,
        rf: usize,
    ) -> ReplicaSet {
        let index = key.index();
        if index >= self.sets.len() {
            self.sets.resize(index + 1, ReplicaSet::EMPTY);
        }
        let cached = self.sets[index];
        if !cached.is_empty() {
            return cached;
        }
        let fresh = ReplicaSet::from_slice(&strategy.replicas_for(ring, topology, name, rf));
        self.sets[index] = fresh;
        fresh
    }
}

/// How the store maps a key to its `RF` replica nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicationStrategy {
    /// Ring order, topology-oblivious.
    Simple,
    /// Ring order but spreading replicas across racks and datacenters first
    /// (the paper's `OldNetworkTopologyStrategy` behaviour).
    NetworkTopology,
}

impl ReplicationStrategy {
    /// Computes the replica set (in preference order, primary first) for a key.
    ///
    /// The returned list has `min(rf, cluster size)` distinct nodes.
    pub fn replicas_for(
        &self,
        ring: &HashRing,
        topology: &Topology,
        key: &str,
        rf: usize,
    ) -> Vec<NodeId> {
        let rf = rf.min(topology.len()).max(1);
        match self {
            ReplicationStrategy::Simple => ring.preference_list(key, rf),
            ReplicationStrategy::NetworkTopology => {
                let mut chosen: Vec<NodeId> = Vec::with_capacity(rf);
                let candidates = ring.preference_list(key, topology.len());
                // "Already covered" scans the few chosen replicas instead of
                // keeping sets: a node's DC (rack) is covered exactly when a
                // chosen replica sits in it, and a chosen node covers itself.
                let dc = |n: NodeId| topology.location(n).dc;
                // A rack is identified by its location (datacenter and rack).
                let rack = |n: NodeId| topology.location(n);

                // Pass 1: nodes in datacenters not yet covered.
                for &node in &candidates {
                    if chosen.len() == rf {
                        break;
                    }
                    if !chosen.iter().any(|&c| dc(c) == dc(node)) {
                        chosen.push(node);
                    }
                }
                // Pass 2: nodes on racks not yet covered.
                for &node in &candidates {
                    if chosen.len() == rf {
                        break;
                    }
                    if !chosen.iter().any(|&c| rack(c) == rack(node)) {
                        chosen.push(node);
                    }
                }
                // Pass 3: anything left in ring order.
                for &node in &candidates {
                    if chosen.len() == rf {
                        break;
                    }
                    if !chosen.contains(&node) {
                        chosen.push(node);
                    }
                }
                chosen
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn simple_matches_ring_preference_list() {
        let ring = HashRing::new(6, 16);
        let topo = Topology::single_dc(1, 6);
        for k in 0..50 {
            let key = format!("user{k}");
            assert_eq!(
                ReplicationStrategy::Simple.replicas_for(&ring, &topo, &key, 3),
                ring.preference_list(&key, 3)
            );
        }
    }

    #[test]
    fn replica_sets_have_requested_size_and_are_distinct() {
        let ring = HashRing::new(10, 16);
        let topo = Topology::single_dc(2, 5);
        for strategy in [
            ReplicationStrategy::Simple,
            ReplicationStrategy::NetworkTopology,
        ] {
            for k in 0..100 {
                let reps = strategy.replicas_for(&ring, &topo, &format!("u{k}"), 5);
                assert_eq!(reps.len(), 5);
                let set: HashSet<_> = reps.iter().collect();
                assert_eq!(set.len(), 5);
            }
        }
    }

    #[test]
    fn rf_larger_than_cluster_is_clamped() {
        let ring = HashRing::new(3, 8);
        let topo = Topology::single_dc(1, 3);
        let reps = ReplicationStrategy::NetworkTopology.replicas_for(&ring, &topo, "k", 5);
        assert_eq!(reps.len(), 3);
    }

    #[test]
    fn network_topology_spreads_over_racks() {
        // 4 racks of 5 nodes; RF=4 must touch all 4 racks.
        let ring = HashRing::new(20, 16);
        let topo = Topology::single_dc(4, 5);
        for k in 0..100 {
            let reps = ReplicationStrategy::NetworkTopology.replicas_for(
                &ring,
                &topo,
                &format!("u{k}"),
                4,
            );
            let racks: HashSet<_> = reps.iter().map(|n| topo.location(*n).rack).collect();
            assert_eq!(racks.len(), 4, "key u{k} replicas {reps:?}");
        }
    }

    #[test]
    fn network_topology_spreads_over_datacenters() {
        // 2 DCs x 2 racks x 5 nodes; RF=2 must use both DCs.
        let ring = HashRing::new(20, 16);
        let topo = Topology::multi_dc(2, 2, 5);
        for k in 0..100 {
            let reps = ReplicationStrategy::NetworkTopology.replicas_for(
                &ring,
                &topo,
                &format!("u{k}"),
                2,
            );
            let dcs: HashSet<_> = reps.iter().map(|n| topo.location(*n).dc).collect();
            assert_eq!(dcs.len(), 2);
        }
    }

    #[test]
    fn network_topology_falls_back_when_fewer_racks_than_rf() {
        // 2 racks of 10, RF=5: both racks covered, remaining replicas reuse racks.
        let ring = HashRing::new(20, 16);
        let topo = Topology::single_dc(2, 10);
        for k in 0..50 {
            let reps = ReplicationStrategy::NetworkTopology.replicas_for(
                &ring,
                &topo,
                &format!("u{k}"),
                5,
            );
            assert_eq!(reps.len(), 5);
            let racks: HashSet<_> = reps.iter().map(|n| topo.location(*n).rack).collect();
            assert_eq!(racks.len(), 2);
        }
    }

    #[test]
    fn primary_is_first_in_both_strategies() {
        let ring = HashRing::new(12, 16);
        let topo = Topology::single_dc(3, 4);
        for k in 0..50 {
            let key = format!("user{k}");
            let simple = ReplicationStrategy::Simple.replicas_for(&ring, &topo, &key, 3);
            assert_eq!(simple[0], ring.primary_for_key(&key));
            // NetworkTopology keeps the ring's primary as well (it is the
            // first candidate and no rack/DC is used yet).
            let nts = ReplicationStrategy::NetworkTopology.replicas_for(&ring, &topo, &key, 3);
            assert_eq!(nts[0], ring.primary_for_key(&key));
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let ring = HashRing::new(10, 16);
        let topo = Topology::single_dc(2, 5);
        let a = ReplicationStrategy::NetworkTopology.replicas_for(&ring, &topo, "user42", 5);
        let b = ReplicationStrategy::NetworkTopology.replicas_for(&ring, &topo, "user42", 5);
        assert_eq!(a, b);
    }
}
