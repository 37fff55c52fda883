//! Scaling sweep: the multi-core sharded runtime's throughput curve over
//! shard counts, with a keyspace-size memory probe.
//!
//! Pushes the same total workload (the throughput-oriented
//! [`harmony_bench::baseline::scaling_spec`] — read-heavy YCSB-B, RF 3,
//! eventual reads) through `run_sharded_experiment` at each shard count and
//! reports aggregate simulated-ops per wall-clock second, ops/sec/shard,
//! and the peak heap in use during each point (from a byte-counting global
//! allocator, so the 10M-record keyspace claim is a measured number rather
//! than an estimate).
//!
//! Usage:
//!   cargo run --release -p harmony-bench --bin scaling_sweep
//!   cargo run --release -p harmony-bench --bin scaling_sweep -- \
//!       --quick --check BENCH_e2e.json --tolerance 0.2
//!
//! Flags:
//!   `--quick`            shard counts 1/2/4 with the CI-sized workload
//!                        (60k ops over 4k records — exactly the scaling
//!                        section `bench_baseline` commits, so `--check`
//!                        compares like with like)
//!   `--records <n>`      override the keyspace size (the full sweep
//!                        defaults to a million records; each shard loads
//!                        only its stripe; pass 10000000 for the ROADMAP's
//!                        big-keyspace memory probe — load-dominated, read
//!                        the peak-heap column rather than ops/s)
//!   `--shards <list>`    comma-separated shard counts to run
//!   `--ops <n>`          override the operation count per point
//!   `--iters <n>`        wall-clock iterations per point, best kept
//!                        (default 3, or 1 for keyspaces over 100k records)
//!   `--check <path>`     compare each shard count's ops/sec/shard against
//!                        the committed `BENCH_e2e.json` scaling section
//!                        and exit non-zero on a regression beyond the
//!                        tolerance — per-shard, not just aggregate, so a
//!                        slowdown hidden by adding shards still fails
//!   `--tolerance <f>`    allowed fractional regression (default 0.2)

use harmony_bench::baseline::{
    measure_scaling_point, peak_bytes, reset_peak, BenchBaseline, ScalingPoint, TrackingAllocator,
};
use harmony_bench::report::{flag_value, has_flag};

// The shared tracking allocator (bytes in use + peak): same accounting
// overhead as `bench_baseline`, which writes the baseline this binary's
// `--check` gate compares against.
#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = has_flag(&args, "--quick");
    let shard_counts: Vec<usize> = flag_value(&args, "--shards")
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("--shards takes a comma list"))
                .collect()
        })
        .unwrap_or(if quick {
            vec![1, 2, 4]
        } else {
            vec![1, 2, 4, 8]
        });
    let operations: u64 = flag_value(&args, "--ops")
        .map(|v| v.parse().expect("--ops takes an integer"))
        .unwrap_or(if quick { 60_000 } else { 240_000 });
    let records: u64 = flag_value(&args, "--records")
        .map(|v| v.parse().expect("--records takes an integer"))
        .unwrap_or(if quick { 4_000 } else { 1_000_000 });
    let check = flag_value(&args, "--check");
    let tolerance: f64 = flag_value(&args, "--tolerance")
        .map(|t| t.parse().expect("--tolerance takes a fraction"))
        .unwrap_or(0.2);

    println!(
        "Scaling sweep — {} ops over {} records per point, shards {:?}\n",
        operations, records, shard_counts
    );

    let mut table = harmony_bench::report::Table::new(vec![
        "shards",
        "wall s",
        "ops",
        "ops/s (wall)",
        "ops/s/shard",
        "peak heap MiB",
        "stale %",
    ]);
    let mut points: Vec<ScalingPoint> = Vec::new();
    // Best-of-N wall clock per point: cold first iterations would flap the
    // 20% CI gate. Big keyspaces run once — the load phase dominates and
    // the interesting column there is memory, not ops/s.
    let iters: usize = flag_value(&args, "--iters")
        .map(|v| v.parse().expect("--iters takes an integer"))
        .unwrap_or(if records <= 100_000 { 3 } else { 1 });
    for &shards in &shard_counts {
        eprintln!("running shards={shards}...");
        let floor = reset_peak();
        let (point, result) = measure_scaling_point(shards, operations, records, iters);
        let point_peak = peak_bytes().saturating_sub(floor);
        table.add_row(vec![
            shards.to_string(),
            format!("{:.2}", point.wall_secs),
            point.operations.to_string(),
            format!("{:.0}", point.ops_per_sec_wall),
            format!("{:.0}", point.ops_per_sec_per_shard),
            format!("{:.1}", point_peak as f64 / (1024.0 * 1024.0)),
            format!("{:.2}", result.stats.stale_fraction() * 100.0),
        ]);
        points.push(point);
        // The run result (histograms, decision log) is dropped here so the
        // next point's memory baseline starts clean.
    }
    println!("{table}");

    let Some(baseline_path) = check else { return };
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baseline: BenchBaseline = serde_json::from_str(&text).expect("parse committed baseline");

    // Context first: how the sharded aggregate compares with the committed
    // single-thread headline number.
    if let Some(best) = points
        .iter()
        .map(|p| p.ops_per_sec_wall)
        .fold(None, |m: Option<f64>, v| Some(m.map_or(v, |m| m.max(v))))
    {
        println!(
            "Best aggregate {:.0} ops/s = {:.2}x the committed overall baseline ({:.0} ops/s)",
            best,
            best / baseline.total_ops_per_sec_wall.max(1e-9),
            baseline.total_ops_per_sec_wall
        );
    }

    // The gate: ops/sec/shard per shard count, so adding shards can never
    // mask a per-shard slowdown.
    let mut failed = false;
    for point in &points {
        let Some(committed) = baseline.scaling_for(point.shards) else {
            println!(
                "shards={}: no committed scaling point, skipping check",
                point.shards
            );
            continue;
        };
        let floor = committed.ops_per_sec_per_shard * (1.0 - tolerance);
        let verdict = if point.ops_per_sec_per_shard < floor {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "shards={}: measured {:.0} ops/s/shard vs committed {:.0} (floor {:.0}) — {}",
            point.shards,
            point.ops_per_sec_per_shard,
            committed.ops_per_sec_per_shard,
            floor,
            verdict
        );
    }
    if failed {
        eprintln!("FAIL: per-shard throughput regressed beyond the tolerance");
        std::process::exit(1);
    }
    println!("OK: all shard counts within tolerance");
}
