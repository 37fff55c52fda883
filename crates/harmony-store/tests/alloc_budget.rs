//! Allocation budgets of the shared-cell row layout, measured by a counting
//! global allocator.
//!
//! The counter is per thread, so tests running in parallel in this binary
//! do not see each other's allocations. Reallocations count as allocations.

use harmony_sim::profiles::grid5000;
use harmony_sim::rng::RngFactory;
use harmony_store::cluster::Cluster;
use harmony_store::config::StoreConfig;
use harmony_store::engine::StorageEngine;
use harmony_store::keys::KeyId;
use harmony_store::types::{Mutation, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator can run while this thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only bumps a thread-local counter, so `System`'s guarantees
// hold.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The paper's setting: 20 Grid'5000 nodes on two racks, RF 5.
fn paper_cluster() -> Cluster {
    let profile = grid5000();
    let config = StoreConfig {
        replication_factor: profile.replication_factor,
        ..StoreConfig::default()
    };
    Cluster::new(
        config,
        profile.topology,
        profile.network,
        RngFactory::new(7),
    )
}

#[test]
fn load_direct_makes_at_most_eight_allocations_per_record() {
    // Enough records that every replica flushes its memtable at least once.
    const RECORDS: usize = 50_000;
    let mut cluster = paper_cluster();
    let template = Mutation::ycsb_row(10, 64);
    let names: Vec<String> = (0..RECORDS).map(|i| format!("user{i}")).collect();
    let allocs = allocations_in(|| {
        for (i, name) in names.iter().enumerate() {
            cluster.load_direct(name, &template, Timestamp(i as u64 + 1));
        }
    });
    let per_record = allocs as f64 / RECORDS as f64;
    assert!(
        per_record <= 8.0,
        "load_direct made {per_record:.2} allocations per record (budget 8)"
    );
    assert_eq!(cluster.key_count(), RECORDS);
}

#[test]
fn single_field_update_to_an_unshared_row_allocates_nothing() {
    let mut engine = StorageEngine::with_defaults();
    engine.apply(KeyId(0), &Mutation::ycsb_row(10, 64), Timestamp(1));
    let update = Arc::new(Mutation::single("field3", vec![b'u'; 64]));
    let allocs = allocations_in(|| {
        for ts in 2..100 {
            engine.apply(KeyId(0), &update, Timestamp(ts));
        }
    });
    assert_eq!(allocs, 0, "updating an unshared row allocated");
    let row = engine.get(KeyId(0)).unwrap();
    assert_eq!(row.get("field3").unwrap().timestamp, Timestamp(99));
    assert_eq!(row.get("field4").unwrap().timestamp, Timestamp(1));
}

#[test]
fn load_shared_row_is_copied_only_by_the_replica_that_writes() {
    let loaded = Arc::new(Mutation::ycsb_row(10, 64).to_row(Timestamp(1)));
    let mut replicas: Vec<StorageEngine> = (0..5).map(|_| StorageEngine::with_defaults()).collect();
    for replica in &mut replicas {
        replica.apply_row(KeyId(0), &loaded);
    }
    assert_eq!(
        Arc::strong_count(&loaded),
        6,
        "every replica shares the row"
    );

    let update = Mutation::single("field0", b"new".to_vec());
    replicas[2].apply(KeyId(0), &update, Timestamp(2));

    let written = replicas[2].get(KeyId(0)).unwrap();
    assert!(!Arc::ptr_eq(&written, &loaded));
    assert_eq!(&*written.get("field0").unwrap().value, b"new");
    assert_eq!(written.get("field1"), loaded.get("field1"));
    for (i, replica) in replicas.iter_mut().enumerate().filter(|(i, _)| *i != 2) {
        let row = replica.get(KeyId(0)).unwrap();
        assert!(
            Arc::ptr_eq(&row, &loaded),
            "replica {i} lost the shared row"
        );
        assert_eq!(row.get("field0").unwrap().timestamp, Timestamp(1));
    }
    assert_eq!(loaded.latest_timestamp(), Timestamp(1));
    assert_eq!(*loaded, Mutation::ycsb_row(10, 64).to_row(Timestamp(1)));
}

#[test]
fn cluster_write_to_one_replica_leaves_the_others_on_the_loaded_row() {
    let mut cluster = paper_cluster();
    cluster.load_direct("k", &Mutation::ycsb_row(10, 64), Timestamp(1));
    let key = cluster.key_id("k").unwrap();
    let replicas = cluster.replicas_for_id(key);
    let (written, others) = replicas.as_slice().split_first().unwrap();
    let update = Mutation::single("field0", b"new".to_vec());
    cluster.node_engine_apply(*written, key, &update, Timestamp(2));
    // A second write to the now-unshared row copies nothing.
    let update = Arc::new(Mutation::single("field1", b"newer".to_vec()));
    let allocs = allocations_in(|| cluster.node_engine_apply(*written, key, &update, Timestamp(3)));
    assert_eq!(allocs, 0);
    assert_eq!(cluster.node(*written).digest(key), Some(Timestamp(3)));
    for node in others {
        assert_eq!(cluster.node(*node).digest(key), Some(Timestamp(1)));
    }
}
