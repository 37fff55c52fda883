//! Reference-model tests of the shared-cell row layout.
//!
//! Every row operation is checked against a `BTreeMap<String, (Vec<u8>,
//! Timestamp)>` last-write-wins model over random column sets and
//! timestamps. Timestamps come from a small range so ties are frequent: on
//! a tie the cell already stored must win. Each loop is seeded, so a
//! failure reproduces exactly.

use harmony_store::engine::{EngineConfig, StorageEngine};
use harmony_store::keys::KeyId;
use harmony_store::types::{Mutation, Row, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

type Model = BTreeMap<String, (Vec<u8>, Timestamp)>;

/// Column names chosen so that byte order and "natural" order disagree.
const NAMES: [&str; 7] = ["a", "ab", "b", "field0", "field1", "field10", "field2"];

/// Last-write-wins upsert into the model: the stored cell wins ties.
fn model_put(model: &mut Model, name: &str, value: &[u8], ts: Timestamp) {
    match model.get(name) {
        Some((_, stored)) if *stored >= ts => {}
        _ => {
            model.insert(name.to_string(), (value.to_vec(), ts));
        }
    }
}

fn model_merge(into: &mut Model, from: &Model) {
    for (name, (value, ts)) in from {
        model_put(into, name, value, *ts);
    }
}

/// The row's cells in the model's shape (and order).
fn cells_of(row: &Row) -> Vec<(String, Vec<u8>, Timestamp)> {
    row.cells()
        .iter()
        .map(|c| (c.name.to_string(), c.value.to_vec(), c.timestamp))
        .collect()
}

fn model_cells(model: &Model) -> Vec<(String, Vec<u8>, Timestamp)> {
    model
        .iter()
        .map(|(n, (v, ts))| (n.clone(), v.clone(), *ts))
        .collect()
}

/// A value unique to this draw, so a wrong tie-break shows up as a wrong value.
fn value(rng: &mut StdRng, name: &str, ts: Timestamp) -> Vec<u8> {
    format!("{name}@{}#{}", ts.0, rng.gen_range(0u32..1_000_000)).into_bytes()
}

fn random_update(rng: &mut StdRng) -> (&'static str, Vec<u8>, Timestamp) {
    let name = NAMES[rng.gen_range(0..NAMES.len())];
    let ts = Timestamp(rng.gen_range(1u64..6));
    (name, value(rng, name, ts), ts)
}

/// A random row built cell by cell, and the model of it.
fn random_row(rng: &mut StdRng) -> (Row, Model) {
    let mut row = Row::new();
    let mut model = Model::new();
    for _ in 0..rng.gen_range(0..10usize) {
        let (name, value, ts) = random_update(rng);
        row.merge_from(&Mutation::single(name, value.clone()).to_row(ts));
        model_put(&mut model, name, &value, ts);
    }
    (row, model)
}

fn assert_matches(row: &Row, model: &Model, context: &str) {
    assert_eq!(cells_of(row), model_cells(model), "{context}");
    assert_eq!(row.len(), model.len(), "{context}");
    let latest = model.values().map(|(_, ts)| *ts).max();
    assert_eq!(row.latest_timestamp(), latest.unwrap_or(Timestamp::ZERO));
    let size: usize = model.iter().map(|(n, (v, _))| n.len() + v.len() + 8).sum();
    assert_eq!(row.size_bytes(), size, "size_bytes counts names: {context}");
    for name in NAMES {
        let cell = row.get(name).map(|c| (c.value.to_vec(), c.timestamp));
        assert_eq!(cell.as_ref(), model.get(name), "get({name}): {context}");
    }
}

#[test]
fn merge_from_matches_the_lww_model() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for case in 0..2_000 {
        let (mut a, mut model_a) = random_row(&mut rng);
        assert_matches(&a, &model_a, &format!("built row, case {case}"));
        let (b, model_b) = random_row(&mut rng);
        a.merge_from(&b);
        model_merge(&mut model_a, &model_b);
        assert_matches(&a, &model_a, &format!("merged row, case {case}"));
    }
}

#[test]
fn merge_shared_matches_merging_in_order() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    for case in 0..2_000 {
        let sources: Vec<(Arc<Row>, Model)> = (0..rng.gen_range(1..5usize))
            .map(|_| {
                let (row, model) = random_row(&mut rng);
                (Arc::new(row), model)
            })
            .collect();
        let mut model = sources[0].1.clone();
        for (_, m) in &sources[1..] {
            model_merge(&mut model, m);
        }
        let merged = Row::merge_shared(sources.iter().map(|(r, _)| r)).unwrap();
        assert_matches(&merged, &model, &format!("case {case}"));
        // When the first source already holds the answer it is shared as is.
        if model == sources[0].1 {
            assert!(Arc::ptr_eq(&merged, &sources[0].0), "case {case} copied");
        }
    }
    assert!(Row::merge_shared(std::iter::empty()).is_none());
}

#[test]
fn engine_apply_and_apply_row_match_the_lww_model() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    for case in 0..200 {
        // Tiny memtables so rows spread over several SSTables and compactions.
        let mut engine = StorageEngine::new(EngineConfig {
            memtable_flush_rows: rng.gen_range(1..4usize),
            compaction_threshold: rng.gen_range(2..4usize),
        });
        let mut models: Vec<Model> = vec![Model::new(); 4];
        for _ in 0..60 {
            let key = rng.gen_range(0..models.len());
            if rng.gen_bool(0.5) {
                // A multi-column write stamped with one timestamp; a repeated
                // name keeps its first value.
                let ts = Timestamp(rng.gen_range(1u64..8));
                let mut columns = Vec::new();
                for _ in 0..rng.gen_range(1..4usize) {
                    let name = NAMES[rng.gen_range(0..NAMES.len())];
                    columns.push((name.to_string(), value(&mut rng, name, ts)));
                }
                let mut first_values = Model::new();
                for (name, value) in &columns {
                    first_values
                        .entry(name.clone())
                        .or_insert((value.clone(), ts));
                }
                engine.apply(KeyId(key as u32), &Mutation::multi(columns), ts);
                model_merge(&mut models[key], &first_values);
            } else {
                let (row, model) = random_row(&mut rng);
                engine.apply_row(KeyId(key as u32), &Arc::new(row));
                model_merge(&mut models[key], &model);
            }
        }
        for (key, model) in models.iter().enumerate() {
            let id = KeyId(key as u32);
            let latest = model.values().map(|(_, ts)| *ts).max();
            assert_eq!(engine.digest(id), latest, "digest, case {case} key {key}");
            match engine.get(id) {
                Some(row) => assert_matches(&row, model, &format!("case {case} key {key}")),
                None => assert!(model.is_empty(), "case {case} key {key} lost"),
            }
        }
    }
}

#[test]
fn ties_keep_the_stored_cell_everywhere() {
    let older = Arc::new(Mutation::single("f", b"first".to_vec()).to_row(Timestamp(5)));
    let tied = Arc::new(Mutation::single("f", b"second".to_vec()).to_row(Timestamp(5)));

    let mut row = Row::clone(&older);
    row.merge_from(&tied);
    assert_eq!(&*row.get("f").unwrap().value, b"first");

    let merged = Row::merge_shared([&older, &tied].into_iter()).unwrap();
    assert_eq!(&*merged.get("f").unwrap().value, b"first");

    let mut engine = StorageEngine::with_defaults();
    engine.apply_row(KeyId(0), &older);
    engine.apply(
        KeyId(0),
        &Mutation::single("f", b"third".to_vec()),
        Timestamp(5),
    );
    engine.flush();
    engine.apply_row(KeyId(0), &tied);
    engine.compact();
    assert_eq!(
        &*engine.get(KeyId(0)).unwrap().get("f").unwrap().value,
        b"first"
    );
}

/// Single-column mutations made once and reused, so rows built from the same
/// entry share the name (and value) allocation by pointer, while different
/// entries for one column hold equal names in distinct `Arc`s.
struct Pool {
    singles: Vec<Vec<Mutation>>,
}

impl Pool {
    fn new() -> Self {
        let singles = NAMES
            .iter()
            .map(|name| {
                (0..3)
                    .map(|v| Mutation::single(*name, format!("{name}/pool{v}").into_bytes()))
                    .collect()
            })
            .collect();
        Pool { singles }
    }

    /// A random row over the columns `NAMES[i]` for `i` in `columns`, each
    /// cell drawn from the pool (shared name) or built fresh, and its model.
    fn row(&self, rng: &mut StdRng, columns: &[usize]) -> (Row, Model) {
        let mut row = Row::new();
        let mut model = Model::new();
        for _ in 0..rng.gen_range(0..10usize) {
            let column = columns[rng.gen_range(0..columns.len())];
            let name = NAMES[column];
            let ts = Timestamp(rng.gen_range(1u64..6));
            let single = if rng.gen_bool(0.5) {
                let variants = &self.singles[column];
                variants[rng.gen_range(0..variants.len())].clone()
            } else {
                Mutation::single(name, value(rng, name, ts))
            };
            let cell_row = single.to_row(ts);
            let cell = &cell_row.cells()[0];
            model_put(&mut model, name, &cell.value, ts);
            row.merge_from(&cell_row);
        }
        (row, model)
    }
}

/// Column layouts for a pair of rows: overlapping, disjoint, interleaved.
fn column_layouts(rng: &mut StdRng) -> (Vec<usize>, Vec<usize>) {
    let all: Vec<usize> = (0..NAMES.len()).collect();
    match rng.gen_range(0..3) {
        0 => (all.clone(), all),
        1 => (all[..3].to_vec(), all[3..].to_vec()),
        _ => all.iter().partition(|i| *i % 2 == 0),
    }
}

/// True when merging `others` into `first` would change nothing.
fn model_subsumes(first: &Model, others: &[&Model]) -> bool {
    others.iter().all(|other| {
        other
            .iter()
            .all(|(name, (_, ts))| first.get(name).is_some_and(|(_, mine)| mine >= ts))
    })
}

#[test]
fn merge_join_matches_the_model_with_shared_and_fresh_names() {
    let pool = Pool::new();
    let mut rng = StdRng::seed_from_u64(0x5eed_0004);
    for case in 0..3_000 {
        let (columns_a, columns_b) = column_layouts(&mut rng);
        let (a, model_a) = pool.row(&mut rng, &columns_a);
        let (b, model_b) = pool.row(&mut rng, &columns_b);
        let context = format!("case {case}");

        let mut merged = a.clone();
        merged.merge_from(&b);
        let mut model = model_a.clone();
        model_merge(&mut model, &model_b);
        assert_matches(&merged, &model, &format!("merge_from, {context}"));

        // `apply` of b's cells as one mutation per timestamp, on a row that
        // starts as a: through the engine, which copies the shared row first.
        let mut engine = StorageEngine::with_defaults();
        let a = Arc::new(a);
        engine.apply_row(KeyId(0), &a);
        let mut model_applied = model_a.clone();
        for ts in 1..6 {
            let columns: Vec<(String, Vec<u8>)> = b
                .cells()
                .iter()
                .filter(|c| c.timestamp == Timestamp(ts))
                .map(|c| (c.name.to_string(), c.value.to_vec()))
                .collect();
            if columns.is_empty() {
                continue;
            }
            for (name, value) in &columns {
                model_put(&mut model_applied, name, value, Timestamp(ts));
            }
            engine.apply(KeyId(0), &Mutation::multi(columns), Timestamp(ts));
        }
        match engine.get(KeyId(0)) {
            Some(row) => assert_matches(&row, &model_applied, &format!("apply, {context}")),
            None => assert!(model_applied.is_empty(), "apply lost the row, {context}"),
        }

        let (c, model_c) = pool.row(&mut rng, &columns_b);
        let b = Arc::new(b);
        let c = Arc::new(c);
        let shared = Row::merge_shared([&a, &b, &c].into_iter()).unwrap();
        model_merge(&mut model, &model_c);
        assert_matches(&shared, &model, &format!("merge_shared, {context}"));
        assert_eq!(
            Arc::ptr_eq(&shared, &a),
            model_subsumes(&model_a, &[&model_b, &model_c]),
            "merge_shared shares the first row exactly when it subsumes the rest, {context}"
        );
    }
}

#[test]
fn merge_from_an_empty_row_or_into_one() {
    let full = Mutation::ycsb_row(3, 4).to_row(Timestamp(2));
    let mut row = full.clone();
    row.merge_from(&Row::new());
    assert_eq!(row, full);
    let mut empty = Row::new();
    empty.merge_from(&full);
    assert_eq!(empty, full);
    let merged = Row::merge_shared([&Arc::new(Row::new()), &Arc::new(full.clone())].into_iter());
    assert_eq!(*merged.unwrap(), full);
}
