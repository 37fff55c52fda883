//! Metric names, summary statistics and the result line.

use harmony_ycsb::stats::LatencyHistogram;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_ops_per_cpu_s", "1/s"),
    ("peak_heap_mib", "MiB"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
];

/// The per-layer metrics every workload reports with `--trace 1`: the
/// layers both judged workloads exercise. A layer a workload does not
/// exercise reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("store.load_us_per_record", "us"),
    ("store.load_allocs_per_record", "count"),
    ("store.teardown_ms", "ms"),
    ("store.handle_ns.deliver", "ns"),
    ("store.handle_ns.process", "ns"),
    ("store.handle_ns.client_reply", "ns"),
    ("store.events_per_op.deliver", "count"),
    ("store.events_per_op.process", "count"),
    ("store.events_per_op.client_reply", "count"),
    ("store.submit_ns_per_op", "ns"),
    ("store.allocs_per_op", "count"),
    ("store.repairs_per_read", "count"),
    ("sim.next_ns", "ns"),
    ("sim.events_per_op", "count"),
    ("sim.queue_depth_max", "count"),
    ("ycsb.gen_ns_per_op", "ns"),
    ("ycsb.stats_ns_per_op", "ns"),
    ("shard.speedup", "ratio"),
    ("adaptive.tick_us", "us"),
    ("adaptive.ticks", "count"),
    ("adaptive.level_changes", "count"),
    ("adaptive.read_replicas_mean", "replicas"),
    ("ycsb.gen.self_share", "share"),
    ("store.submit.self_share", "share"),
    ("sim.next.self_share", "share"),
    ("store.handle.deliver.self_share", "share"),
    ("store.handle.process.self_share", "share"),
    ("store.handle.client_reply.self_share", "share"),
    ("ycsb.stats.self_share", "share"),
    ("adaptive.tick.self_share", "share"),
    ("store.teardown.self_share", "share"),
    ("driver.self_share", "share"),
    ("store.self_share", "share"),
    ("sim.self_share", "share"),
    ("ycsb.self_share", "share"),
    ("adaptive.self_share", "share"),
    ("trace.coverage", "share"),
    ("trace.overhead", "share"),
];

/// Per-layer metrics of the layers only `chaos-repair` (anti-entropy,
/// faults, hedges) or `live-threads` exercises: printed, not in the result
/// line, since they read 0 on every judged workload.
pub const LAYER_EXTRAS: [(&str, &str); 23] = [
    ("store.ae_round_ms", "ms"),
    ("store.ae_rows_per_round", "count"),
    ("store.divergence_scan_ms", "ms"),
    ("store.expire_stalled_us", "us"),
    ("store.apply_fault_ms", "ms"),
    ("store.hints_evicted", "count"),
    ("ycsb.hedge_win_rate", "ratio"),
    ("live.harmony_read_us", "us"),
    ("live.cluster_read_us", "us"),
    ("live.write_us", "us"),
    ("live.adapt_us", "us"),
    ("live.sample_drops", "count"),
    ("store.ae.round.self_share", "share"),
    ("store.ae.handle.self_share", "share"),
    ("store.ae.self_share", "share"),
    ("store.divergence_scan.self_share", "share"),
    ("store.expire_stalled.self_share", "share"),
    ("store.apply_fault.self_share", "share"),
    ("live.harmony_read.self_share", "share"),
    ("live.cluster_read.self_share", "share"),
    ("live.write.self_share", "share"),
    ("live.adapt.self_share", "share"),
    ("live.self_share", "share"),
];

/// Named metric values, in the order they were set.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Sets `name` to `value`, replacing an earlier value.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// What an untraced measurement found.
pub struct Measured {
    /// End-to-end metrics plus workload-specific extras.
    pub metrics: Metrics,
    /// Client operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations that failed over all repetitions.
    pub failed: u64,
    /// Violated correctness checks.
    pub failures: Vec<String>,
    /// `run_ops_per_cpu_s` of each repetition, in order.
    pub rep_ops_per_cpu_s: Vec<f64>,
}

/// One row of the per-span table: name, spans, self ms, self share, self
/// allocations.
pub type SpanRow = (String, u64, f64, f64, u64);

/// What a traced run found.
pub struct Traced {
    /// Per-layer metrics; layers the workload does not exercise are unset.
    pub metrics: Metrics,
    /// Per-span-kind rows for the printed table.
    pub table: Vec<SpanRow>,
    /// Operations attempted by the untraced and the traced run.
    pub attempted: u64,
    /// Operations that failed in either run.
    pub failed: u64,
    /// Violated correctness checks, fidelity included.
    pub failures: Vec<String>,
    /// `run_ops_per_cpu_s` without tracing.
    pub untraced_ops_per_cpu_s: f64,
    /// `run_ops_per_cpu_s` with tracing.
    pub traced_ops_per_cpu_s: f64,
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of exact samples, interpolating between ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The `q`-quantile of a latency histogram in milliseconds, interpolated
/// linearly inside the bucket that holds it. The histogram's buckets are
/// 1 µs wide below 64 µs and 1/64 of their power of two above, so the value
/// is exact to about 1.6%; the interpolation keeps it from snapping to a
/// bucket bound.
pub fn hist_quantile_ms(h: &LatencyHistogram, q: f64) -> f64 {
    let target = q.clamp(0.0, 1.0) * h.count() as f64;
    let mut below = 0u64;
    for (lower_us, cumulative) in h.cumulative_buckets() {
        if cumulative as f64 >= target {
            let width = if lower_us < 64.0 {
                1.0
            } else {
                (2f64).powi(lower_us.log2().floor() as i32 - 6)
            };
            let inside = (cumulative - below) as f64;
            return (lower_us + width * (target - below as f64) / inside) / 1e3;
        }
        below = cumulative;
    }
    h.max_ms()
}

/// Formats the result line: one JSON object with the keys the benchmark
/// contract names. Non-finite values are refused, since JSON cannot carry
/// them.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: &[(&str, &str)],
) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_sim::clock::SimTime;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn histogram_quantile_lands_inside_its_bucket() {
        let mut h = LatencyHistogram::new();
        for us in 1_000..2_000u64 {
            h.record(SimTime::from_micros(us));
        }
        let p50 = hist_quantile_ms(&h, 0.5);
        assert!((p50 - 1.5).abs() < 0.03, "p50 {p50}");
        let p99 = hist_quantile_ms(&h, 0.99);
        assert!((p99 - 1.99).abs() < 0.04, "p99 {p99}");
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        let line = result_line(true, 10, 0, &m, &[("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
