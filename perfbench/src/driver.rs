//! The traced driver: a benchmark-side replay of `Runner::execute`, made of
//! the same public calls in the same order, with a span around each call
//! into a layer.
//!
//! It replays exactly what the benchmark's simulator workloads use: read and
//! update operations, phases, the monitoring tick, anti-entropy ticks, a
//! fault schedule with the chaos reaper and divergence samples, and the
//! client retry/hedge policy. Specs with inserts, read-modify-writes or
//! dual-read verification are refused. The fidelity tests check that its
//! simulated counts equal `Runner::run`'s on the same spec.

use crate::cpu;
use crate::trace::{Kind, Tracer};
use harmony_adaptive::controller::AdaptiveController;
use harmony_chaos::FaultSchedule;
use harmony_sim::clock::SimTime;
use harmony_sim::engine::Simulation;
use harmony_sim::profiles::ClusterProfile;
use harmony_sim::rng::RngFactory;
use harmony_store::cluster::{Cluster, ClusterTotals, Completion};
use harmony_store::config::StoreConfig;
use harmony_store::consistency::ConsistencyLevel;
use harmony_store::keys::KeyId;
use harmony_store::messages::{Message, OpId, OpKind, StoreEvent};
use harmony_store::types::{Mutation, Timestamp};
use harmony_ycsb::distributions::{record_key, KeyChooser};
use harmony_ycsb::runner::{
    DivergenceSample, ExperimentSpec, Phase, RetryPolicy, RunnerEvent, CHAOS_OP_TIMEOUT,
};
use harmony_ycsb::stats::RunStats;
use harmony_ycsb::workloads::Operation;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a retry re-issues (mirrors the runner's private `RetryAction`).
#[derive(Debug, Clone, Copy)]
enum Action {
    Read {
        key: KeyId,
        level: ConsistencyLevel,
    },
    Write {
        key: KeyId,
        field: usize,
        level: ConsistencyLevel,
    },
}

#[derive(Debug, Clone, Copy)]
struct RetryCtx {
    attempt: u32,
    action: Action,
}

/// What the traced run measured, beside the trace itself.
pub struct TracedRun {
    /// Client-side statistics, as `Runner::run` reports them.
    pub stats: RunStats,
    /// Reads per replica count contacted.
    pub read_level_histogram: BTreeMap<usize, u64>,
    /// The store's totals at the end of the run.
    pub cluster_totals: ClusterTotals,
    /// Chaos-tick divergence samples (empty without faults).
    pub divergence_timeline: Vec<DivergenceSample>,
    /// Replica counts per controller decision, in order.
    pub decision_replicas: Vec<usize>,
    /// Wall time of loading the records.
    pub load_wall: Duration,
    /// Wall time of the run, teardown included.
    pub run_wall: Duration,
    /// Processor time of the run, teardown included.
    pub run_cpu: Duration,
    /// The most events queued at once.
    pub queue_depth_max: usize,
    /// Every span of the load and the run.
    pub tracer: Tracer,
}

/// The replica of the runner's state.
pub struct Driver {
    cluster: Cluster,
    sim: Simulation<RunnerEvent>,
    controller: AdaptiveController,
    spec: ExperimentSpec,
    faults: FaultSchedule,
    retry: RetryPolicy,
    key_chooser: KeyChooser,
    workload_rng: StdRng,
    in_flight: HashMap<OpId, usize>,
    record_ids: Vec<KeyId>,
    field_mutations: Vec<Arc<Mutation>>,
    session_active: Vec<bool>,
    current_phase: usize,
    phase_completed_ops: u64,
    retry_ctx: HashMap<OpId, RetryCtx>,
    pending_retries: HashMap<u64, (usize, RetryCtx)>,
    hedge_checks: HashMap<u64, OpId>,
    hedge_partner: HashMap<OpId, (OpId, bool)>,
    retry_token: u64,
    stats: RunStats,
    read_level_histogram: BTreeMap<usize, u64>,
    tracer: Tracer,
    load_wall: Duration,
}

impl Driver {
    /// Builds the cluster and loads the records exactly as `Runner::new`
    /// does, with one `store.load` span per record.
    ///
    /// # Panics
    /// Panics on a spec the driver does not replay (see the module docs).
    pub fn new(
        profile: &ClusterProfile,
        store_config: StoreConfig,
        controller: AdaptiveController,
        spec: ExperimentSpec,
        faults: FaultSchedule,
        retry: RetryPolicy,
    ) -> Self {
        spec.validate().expect("valid experiment spec");
        retry.validate().expect("valid retry policy");
        let w = &spec.workload;
        assert!(
            w.insert_proportion == 0.0 && w.rmw_proportion == 0.0 && !spec.dual_read_measurement,
            "the traced driver replays read/update workloads only"
        );
        let mut tracer = Tracer::default();
        let started = Instant::now();
        let factory = RngFactory::new(spec.seed);
        let mut cluster = Cluster::new(
            store_config,
            profile.topology.clone(),
            profile.network.clone(),
            factory,
        );
        let row_template = Mutation::ycsb_row(w.field_count, w.field_size);
        let mut record_ids = Vec::with_capacity(w.record_count as usize);
        for i in 0..w.record_count {
            let name = record_key(i);
            let span = tracer.begin(Kind::Load);
            cluster.load_direct(&name, &row_template, Timestamp(i + 1));
            tracer.end(span, 0);
            record_ids.push(cluster.key_id(&name).expect("just loaded"));
        }
        let field_mutations = (0..w.field_count)
            .map(|f| {
                Arc::new(Mutation::single(
                    format!("field{f}"),
                    vec![b'u'; w.field_size],
                ))
            })
            .collect();
        let max_threads = spec.phases.iter().map(|p| p.threads).max().unwrap_or(1);
        let key_chooser = w.key_chooser();
        Driver {
            cluster,
            sim: Simulation::new(spec.seed),
            controller,
            faults,
            retry,
            key_chooser,
            workload_rng: factory.stream("workload"),
            in_flight: HashMap::new(),
            record_ids,
            field_mutations,
            session_active: vec![false; max_threads],
            current_phase: 0,
            phase_completed_ops: 0,
            retry_ctx: HashMap::new(),
            pending_retries: HashMap::new(),
            hedge_checks: HashMap::new(),
            hedge_partner: HashMap::new(),
            retry_token: 0,
            stats: RunStats::default(),
            read_level_histogram: BTreeMap::new(),
            tracer,
            load_wall: started.elapsed(),
            spec,
        }
    }

    fn phase(&self) -> Phase {
        self.spec.phases[self.current_phase.min(self.spec.phases.len() - 1)]
    }

    fn issue_next_op(&mut self, session: usize) {
        if session >= self.phase().threads || self.current_phase >= self.spec.phases.len() {
            self.session_active[session] = false;
            return;
        }
        self.session_active[session] = true;
        let span = self.tracer.begin(Kind::Gen);
        let op_kind = self.spec.workload.next_operation(&mut self.workload_rng);
        let index = self.key_chooser.next_index(&mut self.workload_rng);
        let field = match op_kind {
            Operation::Update => Some(
                self.workload_rng
                    .gen_range(0..self.spec.workload.field_count),
            ),
            _ => None,
        };
        self.tracer.end(span, 0);
        let key = self.record_ids[index as usize];
        let action = match field {
            None => Action::Read {
                key,
                level: self.controller.read_level_for(key),
            },
            Some(field) => Action::Write {
                key,
                field,
                level: self.controller.current_write_level(),
            },
        };
        let op = self.submit(action);
        self.in_flight.insert(op, session);
        if self.retry.enabled() {
            self.retry_ctx.insert(op, RetryCtx { attempt: 1, action });
            self.arm_hedge(op, action);
        }
    }

    fn submit(&mut self, action: Action) -> OpId {
        let span = self.tracer.begin(Kind::Submit);
        let op = match action {
            Action::Read { key, level } => self.cluster.submit_read_id(key, level, &mut self.sim),
            Action::Write { key, field, level } => {
                let mutation = Arc::clone(&self.field_mutations[field]);
                self.cluster
                    .submit_write_id(key, mutation, level, &mut self.sim)
            }
        };
        self.tracer.end(span, op.0);
        op
    }

    fn arm_hedge(&mut self, op: OpId, action: Action) {
        if self.retry.hedge_after_ms <= 0.0 || !matches!(action, Action::Read { .. }) {
            return;
        }
        self.retry_token += 1;
        self.hedge_checks.insert(self.retry_token, op);
        self.sim.schedule_in(
            SimTime::from_millis_f64(self.retry.hedge_after_ms),
            RunnerEvent::HedgeCheck(self.retry_token),
        );
    }

    fn maybe_hedge(&mut self, primary: OpId) {
        if self.hedge_partner.contains_key(&primary) {
            return;
        }
        let (Some(&session), Some(&ctx)) =
            (self.in_flight.get(&primary), self.retry_ctx.get(&primary))
        else {
            return;
        };
        if !matches!(ctx.action, Action::Read { .. }) {
            return;
        }
        let dup = self.submit(ctx.action);
        self.in_flight.insert(dup, session);
        self.retry_ctx.insert(dup, ctx);
        self.hedge_partner.insert(primary, (dup, false));
        self.hedge_partner.insert(dup, (primary, true));
        self.stats.hedged_reads += 1;
    }

    fn reissue(&mut self, session: usize, ctx: RetryCtx) {
        let op = self.submit(ctx.action);
        self.in_flight.insert(op, session);
        self.retry_ctx.insert(op, ctx);
        self.arm_hedge(op, ctx.action);
    }

    fn record_completion(&mut self, c: &Completion) {
        let span = self.tracer.begin(Kind::Stats);
        match c.kind {
            OpKind::Read => {
                self.stats.read_latency.record(c.latency());
                self.stats.reads += 1;
                if c.stale {
                    self.stats.stale_reads += 1;
                }
                *self
                    .read_level_histogram
                    .entry(c.replicas_contacted)
                    .or_insert(0) += 1;
            }
            OpKind::Write => {
                self.stats.write_latency.record(c.latency());
                self.stats.writes += 1;
            }
        }
        self.stats.operations += 1;
        self.tracer.end(span, c.op.0);
    }

    fn on_completion(&mut self, c: Completion) {
        let Some(session) = self.in_flight.remove(&c.op) else {
            return;
        };
        let ctx = self.retry_ctx.remove(&c.op);
        if c.aborted {
            if let Some((partner, _)) = self.hedge_partner.remove(&c.op) {
                self.hedge_partner.remove(&partner);
                if self.in_flight.contains_key(&partner) {
                    return;
                }
            }
            if let Some(ctx) = ctx {
                if ctx.attempt < self.retry.max_attempts {
                    self.stats.retries += 1;
                    self.retry_token += 1;
                    let next = RetryCtx {
                        attempt: ctx.attempt + 1,
                        action: ctx.action,
                    };
                    self.pending_retries
                        .insert(self.retry_token, (session, next));
                    self.sim.schedule_in(
                        self.retry.backoff(ctx.attempt),
                        RunnerEvent::Retry(self.retry_token),
                    );
                    return;
                }
            }
            self.stats.aborted_ops += 1;
            self.advance_phase_if_needed();
            self.issue_next_op(session);
            return;
        }
        if let Some((partner, is_dup)) = self.hedge_partner.remove(&c.op) {
            self.hedge_partner.remove(&partner);
            if self.in_flight.remove(&partner).is_some() {
                self.retry_ctx.remove(&partner);
                if is_dup {
                    self.stats.hedge_wins += 1;
                }
            }
        }
        self.record_completion(&c);
        self.phase_completed_ops += 1;
        self.advance_phase_if_needed();
        self.issue_next_op(session);
    }

    fn advance_phase_if_needed(&mut self) {
        if self.current_phase >= self.spec.phases.len()
            || self.phase_completed_ops < self.phase().operations
        {
            return;
        }
        self.current_phase += 1;
        self.phase_completed_ops = 0;
        if self.current_phase < self.spec.phases.len() {
            let threads = self.phase().threads;
            for s in 0..threads.min(self.session_active.len()) {
                if !self.session_active[s] {
                    self.issue_next_op(s);
                }
            }
        }
    }

    /// Runs the spec to completion, drops the cluster inside a
    /// `store.teardown` span, and returns the counts and the trace.
    pub fn run(mut self) -> TracedRun {
        let started = Instant::now();
        let cpu_started = cpu::process_time();
        let deadline = SimTime::from_secs_f64(self.spec.max_virtual_secs);
        self.stats.started_at = self.sim.now();

        let span = self.tracer.begin(Kind::Tick);
        self.controller.tick(self.sim.now(), &self.cluster);
        self.tracer.end(span, 0);
        let interval = self.controller.interval();
        self.sim.schedule_in(interval, RunnerEvent::MonitorTick);
        let ae_interval = SimTime::from_secs_f64(self.cluster.config().anti_entropy_interval_secs);
        if ae_interval > SimTime::ZERO {
            self.sim
                .schedule_in(ae_interval, RunnerEvent::AntiEntropyTick);
        }
        let chaos = !self.faults.is_empty();
        for fault in self.faults.events().to_vec() {
            self.sim
                .schedule_at(fault.at, RunnerEvent::Fault(fault.fault));
        }
        let span = self.tracer.begin(Kind::Driver);
        for s in 0..self.phase().threads.min(self.session_active.len()) {
            self.issue_next_op(s);
        }
        self.tracer.end(span, 0);

        let mut divergence_timeline = Vec::new();
        let mut queue_depth_max = 0;
        while self.current_phase < self.spec.phases.len() && self.sim.now() < deadline {
            queue_depth_max = queue_depth_max.max(self.sim.pending());
            let span = self.tracer.begin(Kind::Next);
            let next = self.sim.next();
            self.tracer.end(span, 0);
            let Some((_, event)) = next else {
                break;
            };
            match event {
                RunnerEvent::MonitorTick => {
                    let span = self.tracer.begin(Kind::Tick);
                    self.controller.tick(self.sim.now(), &self.cluster);
                    self.tracer.end(span, 0);
                    self.sim.schedule_in(interval, RunnerEvent::MonitorTick);
                    if chaos {
                        let span = self.tracer.begin(Kind::ExpireStalled);
                        self.cluster
                            .expire_stalled_ops(CHAOS_OP_TIMEOUT, &mut self.sim);
                        self.tracer.end(span, 0);
                        let span = self.tracer.begin(Kind::DivergenceScan);
                        let divergent_keys = self.cluster.divergent_keys() as u64;
                        self.tracer.end(span, 0);
                        divergence_timeline.push(DivergenceSample {
                            at_secs: self.sim.now().as_secs_f64(),
                            divergent_keys,
                        });
                    }
                }
                RunnerEvent::Fault(fault) => {
                    let span = self.tracer.begin(Kind::ApplyFault);
                    self.cluster.apply_fault(&fault, &mut self.sim);
                    self.tracer.end(span, 0);
                }
                RunnerEvent::Retry(token) => {
                    let span = self.tracer.begin(Kind::Driver);
                    if let Some((session, ctx)) = self.pending_retries.remove(&token) {
                        self.reissue(session, ctx);
                    }
                    self.tracer.end(span, 0);
                }
                RunnerEvent::HedgeCheck(token) => {
                    let span = self.tracer.begin(Kind::Driver);
                    if let Some(primary) = self.hedge_checks.remove(&token) {
                        self.maybe_hedge(primary);
                    }
                    self.tracer.end(span, 0);
                }
                RunnerEvent::AntiEntropyTick => {
                    let span = self.tracer.begin(Kind::AeRound);
                    self.cluster.run_anti_entropy_round(&mut self.sim);
                    self.tracer.end(span, 0);
                    self.sim
                        .schedule_in(ae_interval, RunnerEvent::AntiEntropyTick);
                }
                RunnerEvent::Store(event) => {
                    let (kind, op) = match &event {
                        StoreEvent::Deliver { message, .. }
                        | StoreEvent::Process { message, .. }
                            if matches!(
                                message,
                                Message::AeDigest { .. }
                                    | Message::AeKeys { .. }
                                    | Message::AePull { .. }
                            ) =>
                        {
                            (Kind::AeHandle, None)
                        }
                        StoreEvent::Deliver { message, .. } => (Kind::Deliver, message.op_id()),
                        StoreEvent::Process { message, .. } => (Kind::Process, message.op_id()),
                        StoreEvent::ClientReply { op } => (Kind::ClientReply, Some(*op)),
                    };
                    let span = self.tracer.begin(kind);
                    let completion = self.cluster.handle(event, &mut self.sim);
                    self.tracer.end(span, op.map_or(0, |op| op.0));
                    if let Some(c) = completion {
                        let op = c.op.0;
                        let span = self.tracer.begin(Kind::Driver);
                        self.on_completion(c);
                        self.tracer.end(span, op);
                    }
                }
            }
        }
        self.stats.ended_at = self.sim.now();
        let cluster_totals = self.cluster.totals();
        let decision_replicas = self
            .controller
            .decisions()
            .iter()
            .map(|d| d.replicas_in_read)
            .collect();
        let Driver {
            cluster,
            sim,
            controller,
            mut tracer,
            stats,
            read_level_histogram,
            load_wall,
            ..
        } = self;
        let span = tracer.begin(Kind::Teardown);
        drop(cluster);
        tracer.end(span, 0);
        drop((sim, controller));
        TracedRun {
            stats,
            read_level_histogram,
            cluster_totals,
            divergence_timeline,
            decision_replicas,
            load_wall,
            run_wall: started.elapsed(),
            run_cpu: cpu::process_time() - cpu_started,
            queue_depth_max,
            tracer,
        }
    }
}
