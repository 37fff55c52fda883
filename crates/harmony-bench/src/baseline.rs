//! The committed wall-clock baseline schema (`BENCH_e2e.json`) and the
//! scaling-sweep workload, shared by the `bench_baseline` and
//! `scaling_sweep` binaries so the writer and the CI regression gates agree
//! on every field.
//!
//! The local `serde` shim derives field-exact (de)serialisation — there is
//! no `#[serde(default)]` — so any change to these structs requires
//! regenerating the committed `BENCH_e2e.json` in the same commit.

use harmony_adaptive::config::ControllerConfig;
use harmony_adaptive::policy::StaticPolicy;
use harmony_chaos::FaultSchedule;
use harmony_sim::profiles;
use harmony_store::config::StoreConfig;
use harmony_ycsb::runner::{ExperimentResult, ExperimentSpec, Phase};
use harmony_ycsb::sharded::run_sharded_experiment;
use harmony_ycsb::workloads::WorkloadSpec;
use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A passthrough global allocator tracking allocation calls, bytes in use
/// and the peak. Both `bench_baseline` and `scaling_sweep` install this
/// same allocator so their wall-clock numbers carry identical accounting
/// overhead — the per-shard CI gate compares measurements from one binary
/// against a baseline written by the other, and a cheaper allocator in
/// either would read as a phantom speedup or regression.
pub struct TrackingAllocator;

static ALLOCATION_CALLS: AtomicU64 = AtomicU64::new(0);
static IN_USE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn note_alloc(bytes: usize) {
    ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
    let now = IN_USE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        IN_USE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        IN_USE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocator calls (alloc + realloc) so far.
pub fn allocation_calls() -> u64 {
    ALLOCATION_CALLS.load(Ordering::Relaxed)
}

/// Resets the peak to the current in-use level and returns that level, so
/// a subsequent [`peak_bytes`] reads this measurement window's high-water
/// mark alone.
pub fn reset_peak() -> u64 {
    let now = IN_USE.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// The high-water mark of bytes in use since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// One timed sweep's aggregate measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepBaseline {
    /// Sweep name (`headline-quick` or `fig5-saturation-quick`).
    pub name: String,
    /// Wall-clock duration of the sweep in seconds.
    pub wall_secs: f64,
    /// Simulated operations completed across all runs of the sweep.
    pub operations: u64,
    /// Simulated operations per wall-clock second — the headline number.
    pub ops_per_sec_wall: f64,
    /// Median simulated read latency across the sweep's runs (ms).
    pub read_p50_ms: f64,
    /// 99th-percentile simulated read latency across the sweep's runs (ms).
    pub read_p99_ms: f64,
    /// Allocator calls (alloc + realloc) during the sweep.
    pub allocations: u64,
    /// Allocator calls per simulated operation.
    pub allocations_per_op: f64,
}

/// One shard count of the scaling sweep: the same total workload pushed
/// through `run_sharded_experiment` at a fixed shard count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Shard count (1 = the classic single-loop runner).
    pub shards: usize,
    /// Wall-clock duration of the point in seconds.
    pub wall_secs: f64,
    /// Simulated operations completed.
    pub operations: u64,
    /// Aggregate simulated operations per wall-clock second.
    pub ops_per_sec_wall: f64,
    /// `ops_per_sec_wall / shards` — the per-shard efficiency number the CI
    /// gate tracks, so a regression hidden by adding shards still fails.
    pub ops_per_sec_per_shard: f64,
}

/// The whole report, as committed at the repository root.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchBaseline {
    /// Schema version (2 = scaling section added).
    pub version: u32,
    /// Per-sweep measurements.
    pub sweeps: Vec<SweepBaseline>,
    /// The scaling sweep: one point per shard count.
    pub scaling: Vec<ScalingPoint>,
    /// Operations across all sweeps (the scaling points excluded, so the
    /// aggregate gate stays comparable across schema versions).
    pub total_operations: u64,
    /// Wall-clock seconds across all sweeps.
    pub total_wall_secs: f64,
    /// Overall simulated operations per wall-clock second — the number the
    /// CI regression gate compares.
    pub total_ops_per_sec_wall: f64,
}

impl BenchBaseline {
    /// The committed scaling point for a shard count, if one exists.
    pub fn scaling_for(&self, shards: usize) -> Option<&ScalingPoint> {
        self.scaling.iter().find(|p| p.shards == shards)
    }
}

/// One line of `BENCH_history.json` — the wall-clock headline of one
/// baseline regeneration (or a value recovered from a PR's notes for runs
/// that predate the history file).
///
/// The history exists because `BENCH_e2e.json` is overwritten on every
/// regeneration: without it, cross-PR comparisons live only in prose.
/// Numbers are comparable **only within one machine**; the `source` field
/// says where each came from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// What produced the number (e.g. `PR 4: allocation-free hot path`).
    pub label: String,
    /// Seconds since the Unix epoch at measurement time (0 when recovered
    /// from notes rather than measured by this binary).
    pub unix_time_secs: u64,
    /// Overall simulated operations per wall-clock second across the
    /// headline + fig5 sweeps — the number the CI regression gate compares.
    pub total_ops_per_sec_wall: f64,
    /// Allocator calls per simulated operation across the sweeps (0 when
    /// the source did not record it).
    pub allocations_per_op: f64,
    /// Aggregate ops/s of the scaling sweep in shard-count order
    /// (empty when the source predates the scaling section).
    pub scaling_ops_per_sec_wall: Vec<f64>,
    /// `measured` (written by `bench_baseline`) or `recovered` (seeded from
    /// a PR's recorded numbers).
    pub source: String,
    /// The measuring host's `std::thread::available_parallelism`, without
    /// which the scaling figures cannot be read; `null` for entries that
    /// predate the field.
    pub available_parallelism: Option<usize>,
}

/// Reads `BENCH_history.json` (an array of [`HistoryEntry`]); a missing
/// file is an empty history, a corrupt one is an error.
pub fn load_history(path: &std::path::Path) -> Result<Vec<HistoryEntry>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text).map_err(|e| format!("corrupt {path:?}: {e:?}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("cannot read {path:?}: {e}")),
    }
}

/// Appends one entry built from a fresh [`BenchBaseline`] and rewrites the
/// history file.
pub fn append_history(
    path: &std::path::Path,
    report: &BenchBaseline,
    label: &str,
) -> Result<usize, String> {
    let mut history = load_history(path)?;
    let allocations_per_op = {
        let ops: u64 = report.sweeps.iter().map(|s| s.operations).sum();
        let allocs: u64 = report.sweeps.iter().map(|s| s.allocations).sum();
        allocs as f64 / ops.max(1) as f64
    };
    history.push(HistoryEntry {
        label: label.to_string(),
        unix_time_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        total_ops_per_sec_wall: report.total_ops_per_sec_wall,
        allocations_per_op,
        scaling_ops_per_sec_wall: report.scaling.iter().map(|p| p.ops_per_sec_wall).collect(),
        source: "measured".to_string(),
        available_parallelism: std::thread::available_parallelism().ok().map(|n| n.get()),
    });
    let json = serde_json::to_string_pretty(&history).map_err(|e| format!("{e:?}"))?;
    std::fs::write(path, json + "\n").map_err(|e| format!("cannot write {path:?}: {e}"))?;
    Ok(history.len())
}

/// Builds a [`ScalingPoint`] from a timed run.
pub fn scaling_point(shards: usize, operations: u64, wall_secs: f64) -> ScalingPoint {
    let ops_per_sec_wall = operations as f64 / wall_secs.max(1e-9);
    ScalingPoint {
        shards,
        wall_secs,
        operations,
        ops_per_sec_wall,
        ops_per_sec_per_shard: ops_per_sec_wall / shards.max(1) as f64,
    }
}

/// The scaling-sweep workload: deliberately throughput-oriented, because
/// the sweep measures *engine* throughput (simulated operations per
/// wall-clock second), not adaptation quality. Read-heavy YCSB-B over a
/// Zipfian keyspace, RF 3, static eventual consistency (read ONE), and the
/// default 1 s monitoring cadence — so the per-operation event count is as
/// small as the protocol allows and the barrier exchange stays off the hot
/// path. The figure sweeps keep measuring the paper's RF 5 / 50:50 /
/// adaptive configuration; this one exists to pin how fast the simulator
/// core moves keys.
pub fn scaling_spec(operations: u64, records: u64, seed: u64) -> ExperimentSpec {
    let mut workload = WorkloadSpec::workload_b(records);
    workload.field_count = 2;
    workload.field_size = 16;
    ExperimentSpec {
        workload,
        phases: vec![Phase::new(32, operations)],
        seed,
        dual_read_measurement: false,
        hot_key_prefix: 0,
        max_virtual_secs: 3_600.0,
    }
}

/// Runs one scaling point `iters` times and keeps the fastest wall-clock
/// measurement (best-of-N): the first iteration in a fresh process runs up
/// to ~40% slow from cold caches and allocator warm-up, which would make a
/// 20%-tolerance CI gate flap. The simulated stats are identical across
/// iterations (same seed, deterministic runtime), so only the wall clock
/// differs.
pub fn measure_scaling_point(
    shards: usize,
    operations: u64,
    records: u64,
    iters: usize,
) -> (ScalingPoint, ExperimentResult) {
    let mut best: Option<(f64, ExperimentResult)> = None;
    for _ in 0..iters.max(1) {
        let started = Instant::now();
        let result = run_scaling_point(shards, operations, records);
        let wall = started.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(w, _)| wall < *w) {
            best = Some((wall, result));
        }
    }
    let (wall, result) = best.expect("at least one iteration");
    (scaling_point(shards, result.stats.operations, wall), result)
}

/// Runs one scaling point: the [`scaling_spec`] workload through the
/// sharded entry point at the given shard count.
pub fn run_scaling_point(shards: usize, operations: u64, records: u64) -> ExperimentResult {
    let store = StoreConfig {
        replication_factor: 3,
        node_concurrency: 4,
        ..StoreConfig::default()
    };
    run_sharded_experiment(
        &profiles::grid5000_with_nodes(8),
        store,
        ControllerConfig::default(),
        Box::new(StaticPolicy::Eventual),
        scaling_spec(operations, records, 20120920),
        FaultSchedule::empty(),
        shards,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_history_parses_and_appends_record_the_core_count() {
        let committed =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_history.json");
        let history = load_history(&committed).expect("committed history parses");
        assert!(!history.is_empty());

        let path =
            std::env::temp_dir().join(format!("harmony_history_test_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let report = BenchBaseline {
            version: 2,
            sweeps: Vec::new(),
            scaling: Vec::new(),
            total_operations: 0,
            total_wall_secs: 0.0,
            total_ops_per_sec_wall: 1.0,
        };
        assert_eq!(append_history(&path, &report, "test"), Ok(1));
        let written = load_history(&path);
        let _ = std::fs::remove_file(&path);
        let entry = &written.expect("written history parses")[0];
        let cores = std::thread::available_parallelism().map(|n| n.get()).ok();
        assert_eq!(entry.available_parallelism, cores);
        assert_eq!(entry.source, "measured");
    }
}
