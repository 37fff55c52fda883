//! The traced driver must run the same program as `Runner::run`: on the
//! same spec its simulated counts, the store's totals, the controller's
//! decisions and the divergence timeline must all be equal. If they were
//! not, the per-layer numbers would measure a different program.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use harmony_perfbench::sim::{Counts, SimWorkload};

const SEED: u64 = 20120920;

fn assert_traced_matches_runner(w: &SimWorkload) -> Counts {
    let reference = w.runner().run();
    let traced = w.driver().run();
    let counts = Counts::of_traced(&traced);
    assert_eq!(counts, Counts::of_result(&reference));
    assert_eq!(traced.cluster_totals, reference.cluster_totals);
    assert_eq!(traced.divergence_timeline, reference.divergence_timeline);
    let decisions: Vec<usize> = reference
        .decisions
        .iter()
        .map(|d| d.replicas_in_read)
        .collect();
    assert_eq!(traced.decision_replicas, decisions);
    assert!(
        traced.tracer.distinct_ops() as u64 >= counts.operations,
        "every completed op has spans keyed by its id"
    );
    counts
}

#[test]
fn paper_adaptive_traced_counts_match_runner() {
    let counts = assert_traced_matches_runner(&SimWorkload::paper_adaptive(SEED).scaled_down(10));
    assert!(
        counts.read_levels.len() > 1,
        "the controller adapts: reads ran at several levels {:?}",
        counts.read_levels
    );
}

#[test]
fn chaos_repair_traced_counts_match_runner() {
    let counts = assert_traced_matches_runner(&SimWorkload::chaos_repair(SEED));
    assert!(counts.hedged > 0, "the hedge path ran");
    assert!(counts.hedge_wins > 0, "some hedges won");
}
