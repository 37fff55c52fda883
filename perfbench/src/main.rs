//! Command line: `harmony-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1> [--rustc <version>] [--commit <id>]`.
//! Prints a readable report, then one JSON result line; exits 1 when a
//! correctness check fails and 2 on bad arguments.

use harmony_perfbench::report::{
    result_line, Measured, Metrics, Traced, END_TO_END, LAYER_EXTRAS, PER_LAYER,
};
use harmony_perfbench::sim::{self, SimWorkload};
use harmony_perfbench::{alloc, live};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Every workload the benchmark runs; `BENCHMARK.json` lists the judged
/// ones.
const WORKLOADS: [&str; 4] = [
    "paper-adaptive",
    "readheavy-sharded",
    "chaos-repair",
    "live-threads",
];

/// End-to-end figures printed but not in the result line: the wall-clock
/// throughput, too unsteady on a shared host, and figures that do not
/// exist, or read 0, on some workload.
const EXTRAS: [(&str, &str); 7] = [
    ("run_ops_per_s", "1/s"),
    ("sim_ops_per_s", "1/s"),
    ("stale_read_rate", "ratio"),
    ("failed_op_rate", "ratio"),
    ("heal_converge_s", "s"),
    ("read_samples", "count"),
    ("write_samples", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: String,
    commit: String,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 20120920,
        seconds: 50.0,
        trace: false,
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--rustc" => args.rustc = value.clone(),
            "--commit" => args.commit = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn sim_workload(name: &str, seed: u64) -> Option<SimWorkload> {
    match name {
        "paper-adaptive" => Some(SimWorkload::paper_adaptive(seed)),
        "readheavy-sharded" => Some(SimWorkload::readheavy_sharded(seed)),
        "chaos-repair" => Some(SimWorkload::chaos_repair(seed)),
        _ => None,
    }
}

fn print_metrics(metrics: &Metrics, names: &[(&str, &str)]) {
    for (name, unit) in names {
        if let Some(v) = metrics.get(name) {
            println!("  {name:<40} {v:>16.6} {unit}");
        }
    }
}

fn print_failures(failures: &[String]) {
    if failures.is_empty() {
        println!("checks: all passed");
    }
    for f in failures {
        println!("CHECK FAILED: {f}");
    }
}

fn untraced(args: &Args) -> (Measured, &'static str) {
    match sim_workload(&args.workload, args.seed) {
        Some(w) => (
            sim::measure(&w, args.seconds),
            "set-up and run are timed on processor time; the run call is Runner::run \
             (run_sharded_experiment on readheavy-sharded), which drops the cluster before it \
             returns, so teardown is included",
        ),
        None => (
            live::measure(args.seed, args.seconds),
            "set-up and run are timed on processor time of all threads; latencies are wall-clock",
        ),
    }
}

fn traced(args: &Args) -> Traced {
    match sim_workload(&args.workload, args.seed) {
        Some(w) => sim::trace(&w),
        None => live::trace(args.seed),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("harmony-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} | host: available_parallelism={cores} | build: {} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rustc,
        args.commit
    );
    let (correct, line) = if args.trace {
        let mut t = traced(&args);
        println!(
            "{:<38} {:>10} {:>12} {:>10} {:>12}",
            "span", "count", "self ms", "share", "self allocs"
        );
        for (name, count, ms, share, allocs) in &t.table {
            println!("  {name:<36} {count:>10} {ms:>12.3} {share:>10.4} {allocs:>12}");
        }
        println!(
            "tracing overhead: run_ops_per_cpu_s untraced {:.0}, traced {:.0}",
            t.untraced_ops_per_cpu_s, t.traced_ops_per_cpu_s
        );
        for (name, _) in PER_LAYER.iter().chain(&LAYER_EXTRAS) {
            if t.metrics.get(name).is_none() {
                t.metrics.set(name, 0.0);
            }
        }
        println!("per-layer metrics (0 = layer not exercised by this workload):");
        print_metrics(&t.metrics, &PER_LAYER);
        println!("chaos-repair and live-threads layers (not in the result line):");
        print_metrics(&t.metrics, &LAYER_EXTRAS);
        print_failures(&t.failures);
        let ok = t.failures.is_empty();
        (
            ok,
            result_line(ok, t.attempted, t.failed, &t.metrics, &PER_LAYER),
        )
    } else {
        let (m, note) = untraced(&args);
        let rates: Vec<String> = m
            .rep_ops_per_cpu_s
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect();
        println!(
            "{} repetitions, medians over them; {note}; run_ops_per_cpu_s per repetition: {}",
            rates.len(),
            rates.join(" ")
        );
        print_metrics(&m.metrics, &END_TO_END);
        print_metrics(&m.metrics, &EXTRAS);
        print_failures(&m.failures);
        let ok = m.failures.is_empty();
        (
            ok,
            result_line(ok, m.attempted, m.failed, &m.metrics, &END_TO_END),
        )
    };
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
