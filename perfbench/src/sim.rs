//! The three simulator workloads: their specs, the untraced measurement
//! through `Runner`, and the traced replay through [`Driver`].

use crate::alloc;
use crate::cpu::{timed, Timed};
use crate::driver::{Driver, TracedRun};
use crate::report::{hist_quantile_ms, median, Measured, Metrics, Traced};
use crate::trace::Kind;
use harmony_adaptive::config::ControllerConfig;
use harmony_adaptive::controller::AdaptiveController;
use harmony_bench::baseline::scaling_spec;
use harmony_bench::experiments::{grid5000_experiment_config, scaled_workload_a, PolicySpec};
use harmony_chaos::FaultSchedule;
use harmony_sim::profiles::{self, ClusterProfile};
use harmony_sim::topology::NodeId;
use harmony_store::config::StoreConfig;
use harmony_ycsb::runner::{
    DivergenceSample, ExperimentResult, ExperimentSpec, Phase, RetryPolicy, Runner,
};
use harmony_ycsb::sharded::run_sharded_experiment;
use harmony_ycsb::stats::RunStats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Client sessions and operations of each `paper-adaptive` phase.
const PAPER_PHASES: [(usize, u64); 3] = [(15, 60_000), (90, 160_000), (40, 80_000)];
/// Operations of one `readheavy-sharded` run.
const READHEAVY_OPS: u64 = 1_000_000;
/// Shards of the `readheavy-sharded` run (one per core of a 2-core host).
const READHEAVY_SHARDS: usize = 2;
/// Operations and sessions of one `chaos-repair` run.
const CHAOS_OPS: u64 = 100_000;
const CHAOS_SESSIONS: usize = 40;
/// Virtual second at which the `chaos-repair` partition heals.
const CHAOS_HEAL_SECS: f64 = 0.90;
/// Virtual second of the first `chaos-repair` fault: divergence samples
/// before it set the steady-state ceiling.
const CHAOS_FIRST_FAULT_SECS: f64 = 0.25;

/// A simulator workload: everything `Runner::new` and the driver need.
pub struct SimWorkload {
    profile: ClusterProfile,
    store: StoreConfig,
    controller: ControllerConfig,
    policy: PolicySpec,
    spec: ExperimentSpec,
    faults: FaultSchedule,
    retry: RetryPolicy,
    shards: usize,
    /// The traced run replays `1 / trace_divisor` of the operations, which
    /// keeps the in-memory spans near 5M (about 170 MB).
    trace_divisor: u64,
}

impl SimWorkload {
    /// The paper's setting: grid5000 (20 nodes, RF 5, concurrency 6),
    /// YCSB-A over 20k records of 10 × 64 B, Harmony-20% with the figure
    /// controller, sessions 15 → 90 → 40.
    pub fn paper_adaptive(seed: u64) -> Self {
        let config = grid5000_experiment_config();
        let phases = PAPER_PHASES
            .iter()
            .map(|&(t, ops)| Phase::new(t, ops))
            .collect();
        SimWorkload {
            spec: spec(scaled_workload_a(config.records), phases, seed),
            profile: config.profile,
            store: config.store,
            controller: config.controller,
            policy: PolicySpec::Harmony(0.2),
            faults: FaultSchedule::empty(),
            retry: RetryPolicy::default(),
            shards: 1,
            trace_divisor: 2,
        }
    }

    /// The scaling sweep's spec: YCSB-B 95:5 over 4k records of 2 × 16 B,
    /// RF 3 on 8 nodes, static eventual reads, 1 s monitor cadence, run
    /// through `run_sharded_experiment` on two shards.
    pub fn readheavy_sharded(seed: u64) -> Self {
        SimWorkload {
            profile: profiles::grid5000_with_nodes(8),
            store: StoreConfig {
                replication_factor: 3,
                node_concurrency: 4,
                ..StoreConfig::default()
            },
            controller: ControllerConfig::default(),
            policy: PolicySpec::Eventual,
            spec: scaling_spec(READHEAVY_OPS, 4_000, seed),
            faults: FaultSchedule::empty(),
            retry: RetryPolicy::default(),
            shards: READHEAVY_SHARDS,
            trace_divisor: 4,
        }
    }

    /// `paper-adaptive`'s cluster and mix at 4k records and 40 sessions,
    /// with a slow node, a crash and restart, and a two-node minority
    /// partition and heal; anti-entropy every 20 ms, hint cap 8, four
    /// attempts per op and a 2 ms read hedge.
    pub fn chaos_repair(seed: u64) -> Self {
        let mut config = grid5000_experiment_config();
        config.store.hint_cap_per_origin = 8;
        config.store.anti_entropy_interval_secs = 0.02;
        config.controller.anti_entropy_repair_rate = 1.0 / 0.02;
        let minority = vec![NodeId(2), NodeId(3)];
        let majority = config
            .profile
            .topology
            .nodes()
            .filter(|n| !minority.contains(n))
            .collect();
        let faults = FaultSchedule::empty()
            .slow_at(CHAOS_FIRST_FAULT_SECS, NodeId(11), 4.0)
            .slow_at(0.35, NodeId(11), 1.0)
            .crash_at(0.40, NodeId(7))
            .restart_at(0.55, NodeId(7))
            .partition_at(0.70, vec![majority, minority])
            .heal_at(CHAOS_HEAL_SECS);
        SimWorkload {
            spec: spec(
                scaled_workload_a(4_000),
                vec![Phase::new(CHAOS_SESSIONS, CHAOS_OPS)],
                seed,
            ),
            profile: config.profile,
            store: config.store,
            controller: config.controller,
            policy: PolicySpec::Harmony(0.2),
            faults,
            retry: RetryPolicy {
                max_attempts: 4,
                base_backoff_ms: 0.5,
                max_backoff_ms: 8.0,
                hedge_after_ms: 2.0,
            },
            shards: 1,
            trace_divisor: 1,
        }
    }

    /// The same workload with each phase's operations divided by `factor`.
    pub fn scaled_down(&self, factor: u64) -> SimWorkload {
        let mut spec = self.spec.clone();
        for phase in &mut spec.phases {
            phase.operations = (phase.operations / factor).max(1);
        }
        SimWorkload {
            profile: self.profile.clone(),
            store: self.store.clone(),
            controller: self.controller,
            policy: self.policy,
            spec,
            faults: self.faults.clone(),
            retry: self.retry,
            shards: self.shards,
            trace_divisor: self.trace_divisor,
        }
    }

    /// Operations one run completes.
    pub fn operations(&self) -> u64 {
        self.spec.total_operations()
    }

    fn controller(&self) -> AdaptiveController {
        let rf = self.store.replication_factor;
        AdaptiveController::new(self.controller, rf, self.policy.build(rf))
    }

    /// Builds and loads the runner (the measured set-up).
    pub fn runner(&self) -> Runner {
        Runner::new(
            &self.profile,
            self.store.clone(),
            self.controller(),
            self.spec.clone(),
        )
        .with_faults(self.faults.clone())
        .with_retry(self.retry)
    }

    /// Builds and loads the traced driver.
    pub fn driver(&self) -> Driver {
        Driver::new(
            &self.profile,
            self.store.clone(),
            self.controller(),
            self.spec.clone(),
            self.faults.clone(),
            self.retry,
        )
    }

    /// Runs the spec through `run_sharded_experiment` on `shards` shards;
    /// one shard is the single-loop `Runner` path.
    pub fn run_sharded(&self, shards: usize) -> ExperimentResult {
        let rf = self.store.replication_factor;
        run_sharded_experiment(
            &self.profile,
            self.store.clone(),
            self.controller,
            self.policy.build(rf),
            self.spec.clone(),
            self.faults.clone(),
            shards,
        )
    }

    /// The virtual seconds after the heal until the divergence samples
    /// stay under twice their pre-fault ceiling through the end of the run
    /// (the `repair_sweep` rule); `None` for a fault-free workload or one
    /// that never re-converges.
    pub fn heal_converge_s(&self, timeline: &[DivergenceSample]) -> Option<f64> {
        if self.faults.is_empty() {
            return None;
        }
        let ceiling = timeline
            .iter()
            .filter(|s| s.at_secs < CHAOS_FIRST_FAULT_SECS)
            .map(|s| s.divergent_keys)
            .max()
            .unwrap_or(0)
            .max(1)
            * 2;
        let mut settled = None;
        for s in timeline.iter().filter(|s| s.at_secs >= CHAOS_HEAL_SECS) {
            if s.divergent_keys <= ceiling {
                settled.get_or_insert(s.at_secs - CHAOS_HEAL_SECS);
            } else {
                settled = None;
            }
        }
        settled
    }

    /// The correctness checks on one run's simulated output.
    fn check(&self, r: &Outcome<'_>, failures: &mut Vec<String>) {
        if r.totals_protocol_drops != 0 {
            failures.push(format!("{} protocol drops", r.totals_protocol_drops));
        }
        if r.stats.operations != self.operations() {
            failures.push(format!(
                "completed {} ops, the spec asks for {}",
                r.stats.operations,
                self.operations()
            ));
        }
        if self.faults.is_empty() && r.stats.aborted_ops != 0 {
            failures.push(format!(
                "{} ops failed on a fault-free workload",
                r.stats.aborted_ops
            ));
        }
        if !self.faults.is_empty() && self.heal_converge_s(r.divergence).is_none() {
            failures.push("the cluster did not re-converge after the heal".into());
        }
    }
}

fn spec(
    workload: harmony_ycsb::workloads::WorkloadSpec,
    phases: Vec<Phase>,
    seed: u64,
) -> ExperimentSpec {
    ExperimentSpec {
        workload,
        phases,
        seed,
        dual_read_measurement: false,
        hot_key_prefix: 0,
        max_virtual_secs: 3_600.0,
    }
}

/// The parts of a run's output the checks and the metrics read.
struct Outcome<'a> {
    stats: &'a RunStats,
    histogram: &'a BTreeMap<usize, u64>,
    divergence: &'a [DivergenceSample],
    totals_protocol_drops: u64,
}

impl<'a> From<&'a ExperimentResult> for Outcome<'a> {
    fn from(r: &'a ExperimentResult) -> Self {
        Outcome {
            stats: &r.stats,
            histogram: &r.read_level_histogram,
            divergence: &r.divergence_timeline,
            totals_protocol_drops: r.cluster_totals.protocol_drops,
        }
    }
}

impl<'a> From<&'a TracedRun> for Outcome<'a> {
    fn from(r: &'a TracedRun) -> Self {
        Outcome {
            stats: &r.stats,
            histogram: &r.read_level_histogram,
            divergence: &r.divergence_timeline,
            totals_protocol_drops: r.cluster_totals.protocol_drops,
        }
    }
}

/// The simulated counts the traced driver must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
pub struct Counts {
    /// Completed operations.
    pub operations: u64,
    /// Completed reads.
    pub reads: u64,
    /// Stale reads (ground truth).
    pub stale_reads: u64,
    /// Reads per replica count contacted.
    pub read_levels: BTreeMap<usize, u64>,
    /// Operations abandoned after their attempts.
    pub aborted: u64,
    /// Retry attempts.
    pub retries: u64,
    /// Hedged duplicate reads.
    pub hedged: u64,
    /// Hedges whose duplicate answered first.
    pub hedge_wins: u64,
}

impl Counts {
    fn of(r: &Outcome<'_>) -> Self {
        Counts {
            operations: r.stats.operations,
            reads: r.stats.reads,
            stale_reads: r.stats.stale_reads,
            read_levels: r.histogram.clone(),
            aborted: r.stats.aborted_ops,
            retries: r.stats.retries,
            hedged: r.stats.hedged_reads,
            hedge_wins: r.stats.hedge_wins,
        }
    }

    /// The counts of a `Runner::run` result.
    pub fn of_result(r: &ExperimentResult) -> Self {
        Counts::of(&r.into())
    }

    /// The counts of a traced run.
    pub fn of_traced(r: &TracedRun) -> Self {
        Counts::of(&r.into())
    }
}

/// One untraced repetition's figures.
struct Rep {
    setup: Timed,
    run: Timed,
    peak_mib: f64,
}

/// The untraced measurement: repeats set-up and run while another
/// repetition fits in `seconds` (at least three times) and reports medians. Every repetition
/// uses the same seed, so the simulated output must repeat exactly.
pub fn measure(w: &SimWorkload, seconds: f64) -> Measured {
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut first: Option<ExperimentResult> = None;
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    // Stop before a repetition that would run past `seconds`.
    let mut last = 0.0;
    while reps.len() < 3 || started.elapsed().as_secs_f64() + last <= seconds {
        let rep_started = Instant::now();
        alloc::reset_peak();
        let (runner, setup) = timed(|| w.runner());
        let (result, run) = if w.shards > 1 {
            // `run_sharded_experiment` builds its shards itself, so the
            // single-loop runner above only times the set-up.
            drop(runner);
            timed(|| w.run_sharded(w.shards))
        } else {
            timed(|| runner.run())
        };
        reps.push(Rep {
            setup,
            run,
            peak_mib: alloc::peak_mib(),
        });
        attempted += result.stats.operations + result.stats.aborted_ops;
        failed += result.stats.aborted_ops;
        w.check(&(&result).into(), &mut failures);
        last = rep_started.elapsed().as_secs_f64();
        match &first {
            None => first = Some(result),
            Some(f) if Counts::of_result(f) != Counts::of_result(&result) => {
                failures.push("a repetition with the same seed gave other counts".into())
            }
            Some(_) => {}
        }
    }
    let r = first.expect("at least one repetition");
    let ops = r.stats.operations as f64;
    let mut m = Metrics::default();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup.cpu.as_secs_f64()).collect();
    m.set("setup_s", median(&setup));
    let cpu_rates: Vec<f64> = reps.iter().map(|r| ops / r.run.cpu.as_secs_f64()).collect();
    m.set("run_ops_per_cpu_s", median(&cpu_rates));
    let wall_rates: Vec<f64> = reps
        .iter()
        .map(|r| ops / r.run.wall.as_secs_f64())
        .collect();
    m.set("run_ops_per_s", median(&wall_rates));
    let peaks: Vec<f64> = reps.iter().map(|r| r.peak_mib).collect();
    m.set("peak_heap_mib", median(&peaks));
    let (reads, writes) = (&r.stats.read_latency, &r.stats.write_latency);
    m.set("read_p50_ms", hist_quantile_ms(reads, 0.50));
    m.set("read_p99_ms", hist_quantile_ms(reads, 0.99));
    m.set("write_p50_ms", hist_quantile_ms(writes, 0.50));
    m.set("write_p99_ms", hist_quantile_ms(writes, 0.99));
    m.set("sim_ops_per_s", r.throughput());
    m.set("stale_read_rate", r.stats.stale_fraction());
    m.set(
        "failed_op_rate",
        r.stats.aborted_ops as f64 / (r.stats.operations + r.stats.aborted_ops) as f64,
    );
    if let Some(s) = w.heal_converge_s(&r.divergence_timeline) {
        m.set("heal_converge_s", s);
    }
    m.set("read_samples", r.stats.read_latency.count() as f64);
    m.set("write_samples", r.stats.write_latency.count() as f64);
    Measured {
        metrics: m,
        attempted,
        failed,
        failures,
        rep_ops_per_cpu_s: cpu_rates,
    }
}

/// The traced run. A sharded workload first times two shards against the
/// one-loop `Runner` path (set-up plus run, what `run_sharded_experiment`
/// does on one shard) on the wall clock for `shard.speedup`. Then the spec,
/// cut to `1 / trace_divisor` of its operations and on one loop, runs
/// untraced through `Runner` (the fidelity reference, which also warms the
/// process), through the traced driver, and untraced again for the overhead
/// comparison. All three must give the same simulated counts.
pub fn trace(w: &SimWorkload) -> Traced {
    let mut failures = Vec::new();
    let speedup = if w.shards > 1 {
        let (single, single_time) = timed(|| w.runner().run());
        let (sharded, sharded_time) = timed(|| w.run_sharded(w.shards));
        w.check(&(&single).into(), &mut failures);
        w.check(&(&sharded).into(), &mut failures);
        single_time.wall.as_secs_f64() / sharded_time.wall.as_secs_f64()
    } else {
        0.0
    };
    let w = &w.scaled_down(w.trace_divisor);

    let reference = w.runner().run();
    w.check(&(&reference).into(), &mut failures);
    let traced = w.driver().run();
    w.check(&(&traced).into(), &mut failures);
    let runner = w.runner();
    let (again, untraced) = timed(|| runner.run());
    let want = Counts::of_result(&reference);
    if Counts::of_result(&again) != want {
        failures.push("two untraced runs of one seed gave other counts".into());
    }
    let got = Counts::of_traced(&traced);
    if got != want {
        failures.push(format!(
            "traced driver diverges from Runner::run: {got:?} vs {want:?}"
        ));
    }

    let ops = traced.stats.operations as f64;
    let untraced_ops_per_cpu_s = again.stats.operations as f64 / untraced.cpu.as_secs_f64();
    let traced_ops_per_cpu_s = ops / traced.run_cpu.as_secs_f64();
    let mut m = layer_metrics(&traced, ops);
    m.set("shard.speedup", speedup);
    m.set(
        "trace.overhead",
        1.0 - traced_ops_per_cpu_s / untraced_ops_per_cpu_s,
    );
    let wall_ns = traced.run_wall.as_nanos() as f64;
    let totals = traced.tracer.totals();
    let table = Kind::ALL
        .iter()
        .zip(totals.iter())
        .filter(|(_, t)| t.count > 0)
        .map(|(k, t)| {
            let share = if *k == Kind::Load {
                0.0
            } else {
                t.self_ns as f64 / wall_ns
            };
            (
                k.name().to_string(),
                t.count,
                t.self_ns as f64 / 1e6,
                share,
                t.self_allocs,
            )
        })
        .collect();
    let attempted = 3 * (traced.stats.operations + traced.stats.aborted_ops);
    Traced {
        metrics: m,
        table,
        attempted,
        failed: reference.stats.aborted_ops + traced.stats.aborted_ops + again.stats.aborted_ops,
        failures,
        untraced_ops_per_cpu_s,
        traced_ops_per_cpu_s,
    }
}

/// Folds a traced run into the per-layer metrics (live metrics read 0).
fn layer_metrics(r: &TracedRun, ops: f64) -> Metrics {
    let totals = r.tracer.totals();
    let get = |k: Kind| totals[k.slot()];
    let mean = |k: Kind, scale: f64| {
        let t = get(k);
        if t.count == 0 {
            0.0
        } else {
            t.self_ns as f64 / t.count as f64 / scale
        }
    };
    let per_op = |k: Kind| get(k).self_ns as f64 / ops;
    let wall_ns = r.run_wall.as_nanos() as f64;
    let mut m = Metrics::default();
    let load = get(Kind::Load);
    m.set("store.load_us_per_record", mean(Kind::Load, 1e3));
    m.set(
        "store.load_allocs_per_record",
        load.self_allocs as f64 / load.count.max(1) as f64,
    );
    m.set("store.teardown_ms", mean(Kind::Teardown, 1e6));
    for (kind, suffix) in [
        (Kind::Deliver, "deliver"),
        (Kind::Process, "process"),
        (Kind::ClientReply, "client_reply"),
    ] {
        m.set(&format!("store.handle_ns.{suffix}"), mean(kind, 1.0));
        m.set(
            &format!("store.events_per_op.{suffix}"),
            get(kind).count as f64 / ops,
        );
    }
    m.set("store.submit_ns_per_op", per_op(Kind::Submit));
    let store_allocs: u64 = [
        Kind::Submit,
        Kind::Deliver,
        Kind::Process,
        Kind::ClientReply,
    ]
    .iter()
    .map(|&k| get(k).self_allocs)
    .sum();
    m.set("store.allocs_per_op", store_allocs as f64 / ops);
    let totals_c = &r.cluster_totals;
    m.set(
        "store.repairs_per_read",
        totals_c.repairs_issued as f64 / r.stats.reads.max(1) as f64,
    );
    let ae_ns = get(Kind::AeRound).self_ns + get(Kind::AeHandle).self_ns;
    m.set(
        "store.ae_round_ms",
        ae_ns as f64 / get(Kind::AeRound).count.max(1) as f64 / 1e6,
    );
    m.set("store.ae.self_share", ae_ns as f64 / wall_ns);
    m.set(
        "store.ae_rows_per_round",
        totals_c.ae_rows_streamed as f64 / totals_c.ae_rounds.max(1) as f64,
    );
    m.set("store.divergence_scan_ms", mean(Kind::DivergenceScan, 1e6));
    m.set("store.expire_stalled_us", mean(Kind::ExpireStalled, 1e3));
    m.set("store.apply_fault_ms", mean(Kind::ApplyFault, 1e6));
    m.set("store.hints_evicted", totals_c.hints_evicted as f64);
    m.set("sim.next_ns", mean(Kind::Next, 1.0));
    m.set("sim.events_per_op", get(Kind::Next).count as f64 / ops);
    m.set("sim.queue_depth_max", r.queue_depth_max as f64);
    m.set("ycsb.gen_ns_per_op", per_op(Kind::Gen));
    m.set("ycsb.stats_ns_per_op", per_op(Kind::Stats));
    m.set(
        "ycsb.hedge_win_rate",
        r.stats.hedge_wins as f64 / r.stats.hedged_reads.max(1) as f64,
    );
    m.set("adaptive.tick_us", mean(Kind::Tick, 1e3));
    m.set("adaptive.ticks", get(Kind::Tick).count as f64);
    let changes = r
        .decision_replicas
        .windows(2)
        .filter(|w| w[0] != w[1])
        .count();
    m.set("adaptive.level_changes", changes as f64);
    let (reads, replicas) = r
        .read_level_histogram
        .iter()
        .fold((0u64, 0u64), |(n, s), (&level, &count)| {
            (n + count, s + level as u64 * count)
        });
    m.set(
        "adaptive.read_replicas_mean",
        replicas as f64 / reads.max(1) as f64,
    );
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    let mut covered = 0.0;
    for (kind, t) in Kind::ALL.iter().zip(totals.iter()) {
        if *kind == Kind::Load {
            continue;
        }
        let share = t.self_ns as f64 / wall_ns;
        m.set(&format!("{}.self_share", kind.name()), share);
        let layer = kind.name().split('.').next().expect("named");
        *layers.entry(layer).or_insert(0.0) += share;
        covered += share;
    }
    for layer in ["store", "sim", "ycsb", "adaptive", "live"] {
        m.set(
            &format!("{layer}.self_share"),
            layers.get(layer).copied().unwrap_or(0.0),
        );
    }
    m.set("trace.coverage", covered);
    m
}
