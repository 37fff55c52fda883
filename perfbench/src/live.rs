//! The `live-threads` workload: the threaded `LiveCluster` under
//! `LiveHarmony`, with two closed-loop client threads and an adaptation
//! every 50 ms, timed on the wall clock.

use crate::alloc;
use crate::cpu::{timed, Timed};
use crate::report::{median, quantile, Measured, Metrics, Traced};
use crate::trace::{Kind, KindTotals, Tracer};
use harmony_adaptive::policy::HarmonyPolicy;
use harmony_bench::experiments::figure_controller_config;
use harmony_live::{LiveCluster, LiveConfig, LiveHarmony};
use harmony_sim::rng::mix;
use harmony_store::consistency::ConsistencyLevel;
use harmony_ycsb::distributions::{record_key, KeyChooser};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Preloaded keys the clients read and write.
const KEYS: u64 = 1_000;
/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Operations each client completes in one repetition.
const OPS_PER_CLIENT: u64 = 10_000;
/// Bytes per written value.
const VALUE_BYTES: usize = 64;
/// Cadence of `LiveHarmony::adapt`.
const ADAPT_EVERY: Duration = Duration::from_millis(50);
/// The tolerated stale-read rate (Harmony-20%).
const TOLERATED_STALE_RATE: f64 = 0.2;

/// One client thread's output.
#[derive(Default)]
struct ClientOut {
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    /// Newest version this client had acknowledged, per key.
    acked: Vec<u64>,
    missed_reads: u64,
    tracer: Tracer,
}

/// One repetition's output.
struct Rep {
    setup: Timed,
    run: Timed,
    peak_mib: f64,
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    missed_reads: u64,
    sample_drops: u64,
    failures: Vec<String>,
    /// Client spans' totals (traced repetitions only).
    client_totals: Vec<KindTotals>,
    adapt: Tracer,
}

fn value(rng: &mut StdRng) -> Vec<u8> {
    (0..VALUE_BYTES).map(|_| rng.gen()).collect()
}

/// Starts the cluster, preloads every key at ALL and wraps the controller:
/// the measured set-up. Returns the acknowledged version of every key.
fn setup(seed: u64) -> (LiveHarmony, Vec<u64>) {
    let cluster = LiveCluster::start(LiveConfig {
        nodes: 5,
        replication_factor: 3,
        propagation_delay: Duration::ZERO,
        seed,
        ..LiveConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x4c4f_4144));
    let acked = (0..KEYS)
        .map(|i| cluster.write(&record_key(i), value(&mut rng), ConsistencyLevel::All))
        .collect();
    let harmony = LiveHarmony::new(
        cluster,
        figure_controller_config(),
        Box::new(HarmonyPolicy::new(3, TOLERATED_STALE_RATE)),
    );
    (harmony, acked)
}

/// One client's closed loop: a 50:50 read/write mix over Zipfian keys.
/// When `traced`, every call gets a span, and alternate reads go straight
/// to `LiveCluster::read` at the last prescribed level, so the two read
/// paths can be compared.
fn client(harmony: &LiveHarmony, seed: u64, index: usize, traced: bool) -> ClientOut {
    let mut rng = StdRng::seed_from_u64(mix(seed, index as u64 + 1));
    let chooser = KeyChooser::zipfian(KEYS);
    let names: Vec<String> = (0..KEYS).map(record_key).collect();
    let payload = value(&mut rng);
    let mut out = ClientOut {
        acked: vec![0; KEYS as usize],
        ..ClientOut::default()
    };
    let mut level = harmony.current_read_level();
    for n in 0..OPS_PER_CLIENT {
        let key = chooser.next_index(&mut rng) as usize;
        let name = &names[key];
        if rng.gen_bool(0.5) {
            let direct = traced && n % 2 == 1;
            if direct && n % 64 == 1 {
                level = harmony.current_read_level();
            }
            let kind = if direct {
                Kind::LiveClusterRead
            } else {
                Kind::LiveHarmonyRead
            };
            let span = traced.then(|| out.tracer.begin(kind));
            let t = Instant::now();
            let got = if direct {
                harmony.cluster().read(name, level)
            } else {
                harmony.read(name)
            };
            out.read_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Some(span) = span {
                out.tracer.end(span, 0);
            }
            if got.is_none() {
                out.missed_reads += 1;
            }
        } else {
            let span = traced.then(|| out.tracer.begin(Kind::LiveWrite));
            let t = Instant::now();
            let version = harmony.write(name, payload.clone());
            out.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Some(span) = span {
                out.tracer.end(span, 0);
            }
            out.acked[key] = out.acked[key].max(version);
        }
    }
    out
}

fn rep(seed: u64, traced: bool) -> Rep {
    alloc::reset_peak();
    let ((harmony, mut acked), setup) = timed(|| setup(seed));
    let stop = AtomicBool::new(false);
    let ((clients, adapt), run) = timed(|| {
        std::thread::scope(|s| {
            let adapter = s.spawn(|| {
                let mut tracer = Tracer::default();
                while !stop.load(Ordering::SeqCst) {
                    let tick = Instant::now();
                    let span = tracer.begin(Kind::LiveAdapt);
                    harmony.adapt();
                    tracer.end(span, 0);
                    std::thread::sleep(ADAPT_EVERY.saturating_sub(tick.elapsed()));
                }
                tracer
            });
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let harmony = &harmony;
                    s.spawn(move || client(harmony, seed, c, traced))
                })
                .collect();
            let clients: Vec<ClientOut> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread finished"))
                .collect();
            stop.store(true, Ordering::SeqCst);
            (clients, adapter.join().expect("adapter thread finished"))
        })
    });

    let mut failures = Vec::new();
    for c in &clients {
        for (newest, &v) in acked.iter_mut().zip(&c.acked) {
            *newest = (*newest).max(v);
        }
    }
    for (i, &want) in acked.iter().enumerate() {
        match harmony
            .cluster()
            .read(&record_key(i as u64), ConsistencyLevel::All)
        {
            Some((_, got)) if got == want => {}
            other => failures.push(format!(
                "key {i}: a read at ALL returned version {:?}, the newest acknowledged is {want}",
                other.map(|(_, v)| v)
            )),
        }
    }
    let sample_drops = harmony.cluster().dropped_write_key_samples();
    let peak_mib = alloc::peak_mib();
    harmony.shutdown();

    let mut client_totals = vec![KindTotals::default(); Kind::ALL.len()];
    for c in &clients {
        for (sum, t) in client_totals.iter_mut().zip(c.tracer.totals()) {
            sum.count += t.count;
            sum.self_ns += t.self_ns;
            sum.self_allocs += t.self_allocs;
        }
    }
    Rep {
        setup,
        run,
        peak_mib,
        read_ms: clients
            .iter()
            .flat_map(|c| c.read_ms.iter().copied())
            .collect(),
        write_ms: clients
            .iter()
            .flat_map(|c| c.write_ms.iter().copied())
            .collect(),
        missed_reads: clients.iter().map(|c| c.missed_reads).sum(),
        sample_drops,
        failures,
        client_totals,
        adapt,
    }
}

/// Client operations one repetition completes.
pub fn operations() -> u64 {
    OPS_PER_CLIENT * CLIENTS as u64
}

/// Repeats set-up, run and the ALL-read check while another repetition
/// fits in `seconds` (at least three times); each figure is the median over
/// repetitions.
pub fn measure(seed: u64, seconds: f64) -> Measured {
    let started = Instant::now();
    let mut reps = Vec::new();
    // Stop before a repetition that would run past `seconds`.
    let mut last = 0.0;
    while reps.len() < 3 || started.elapsed().as_secs_f64() + last <= seconds {
        let rep_started = Instant::now();
        reps.push(rep(seed, false));
        last = rep_started.elapsed().as_secs_f64();
    }
    let per_rep =
        |f: &dyn Fn(&Rep) -> f64| -> f64 { median(&reps.iter().map(f).collect::<Vec<_>>()) };
    let pct = |samples: &[f64], q: f64| {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        quantile(&v, q)
    };
    let mut m = Metrics::default();
    m.set("setup_s", per_rep(&|r| r.setup.cpu.as_secs_f64()));
    m.set(
        "run_ops_per_cpu_s",
        per_rep(&|r| operations() as f64 / r.run.cpu.as_secs_f64()),
    );
    m.set(
        "run_ops_per_s",
        per_rep(&|r| operations() as f64 / r.run.wall.as_secs_f64()),
    );
    m.set("peak_heap_mib", per_rep(&|r| r.peak_mib));
    m.set("read_p50_ms", per_rep(&|r| pct(&r.read_ms, 0.50)));
    m.set("read_p99_ms", per_rep(&|r| pct(&r.read_ms, 0.99)));
    m.set("write_p50_ms", per_rep(&|r| pct(&r.write_ms, 0.50)));
    m.set("write_p99_ms", per_rep(&|r| pct(&r.write_ms, 0.99)));
    m.set("read_samples", per_rep(&|r| r.read_ms.len() as f64));
    m.set("write_samples", per_rep(&|r| r.write_ms.len() as f64));
    let failed: u64 = reps.iter().map(|r| r.missed_reads).sum();
    m.set(
        "failed_op_rate",
        failed as f64 / (operations() * reps.len() as u64) as f64,
    );
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    if failed != 0 {
        failures.push(format!("{failed} reads of preloaded keys found no value"));
    }
    Measured {
        metrics: m,
        attempted: operations() * reps.len() as u64,
        failed,
        failures,
        rep_ops_per_cpu_s: reps
            .iter()
            .map(|r| operations() as f64 / r.run.cpu.as_secs_f64())
            .collect(),
    }
}

/// One untraced repetition for reference, then one traced repetition.
/// Client spans' shares are of the clients' combined wall time
/// (`CLIENTS` × run), the adapter's of the run's wall time.
pub fn trace(seed: u64) -> Traced {
    let plain = rep(seed, false);
    let traced = rep(seed, true);
    let untraced_ops_per_cpu_s = operations() as f64 / plain.run.cpu.as_secs_f64();
    let traced_ops_per_cpu_s = operations() as f64 / traced.run.cpu.as_secs_f64();
    let wall_ns = traced.run.wall.as_nanos() as f64;
    let mut totals = traced.client_totals.clone();
    totals[Kind::LiveAdapt.slot()] = traced.adapt.totals()[Kind::LiveAdapt.slot()];
    let share = |k: Kind| {
        let denominator = if k == Kind::LiveAdapt {
            wall_ns
        } else {
            wall_ns * CLIENTS as f64
        };
        totals[k.slot()].self_ns as f64 / denominator
    };
    let mean_us = |k: Kind| {
        let t = totals[k.slot()];
        t.self_ns as f64 / t.count.max(1) as f64 / 1e3
    };
    let mut m = Metrics::default();
    m.set("live.harmony_read_us", mean_us(Kind::LiveHarmonyRead));
    m.set("live.cluster_read_us", mean_us(Kind::LiveClusterRead));
    m.set("live.write_us", mean_us(Kind::LiveWrite));
    m.set("live.adapt_us", mean_us(Kind::LiveAdapt));
    m.set("live.sample_drops", traced.sample_drops as f64);
    let clients_share: f64 = [
        Kind::LiveHarmonyRead,
        Kind::LiveClusterRead,
        Kind::LiveWrite,
    ]
    .iter()
    .map(|&k| share(k))
    .sum();
    for k in [
        Kind::LiveHarmonyRead,
        Kind::LiveClusterRead,
        Kind::LiveWrite,
        Kind::LiveAdapt,
    ] {
        m.set(&format!("{}.self_share", k.name()), share(k));
    }
    m.set("live.self_share", clients_share);
    m.set("trace.coverage", clients_share);
    m.set(
        "trace.overhead",
        1.0 - traced_ops_per_cpu_s / untraced_ops_per_cpu_s,
    );
    let table = Kind::ALL
        .iter()
        .filter(|k| totals[k.slot()].count > 0)
        .map(|&k| {
            let t = totals[k.slot()];
            (
                k.name().to_string(),
                t.count,
                t.self_ns as f64 / 1e6,
                share(k),
                t.self_allocs,
            )
        })
        .collect();
    let mut failures = plain.failures;
    failures.extend(traced.failures);
    let failed = plain.missed_reads + traced.missed_reads;
    if failed != 0 {
        failures.push(format!("{failed} reads of preloaded keys found no value"));
    }
    Traced {
        metrics: m,
        table,
        attempted: 2 * operations(),
        failed,
        failures,
        untraced_ops_per_cpu_s,
        traced_ops_per_cpu_s,
    }
}
