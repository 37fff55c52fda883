//! Core data types of the replicated store: keys, cells, rows and mutations.
//!
//! The data model follows Cassandra's (the paper's substrate): a row is
//! identified by a key and holds named columns; every column value carries a
//! client-side timestamp used for last-write-wins reconciliation between
//! replicas. Staleness — the phenomenon Harmony controls — is precisely a
//! read returning a cell whose timestamp is older than the latest acknowledged
//! write for that key.
//!
//! Shared-cell layout: a [`Row`] is a name-sorted `Vec<Cell>` and a
//! [`Mutation`] a name-sorted list of `(Arc<str>, Arc<[u8]>)` pairs, so every
//! cell written from a mutation shares its name and value allocations, and
//! applying, merging, repairing or cloning a row bumps refcounts instead of
//! copying bytes. The engine holds rows as `Arc<Row>`, copy-on-write (see
//! [`crate::engine`]).
//!
//! Reconciliation is a merge join: [`Row::merge_from`] and the subsumption
//! check behind [`Row::merge_shared`] walk both name-sorted cell vectors
//! once, O(n + m), updating matched cells in place and opening slots for new
//! columns in one backward pass. Names are compared by pointer first — cells
//! that came from one mutation share their name `Arc` — and by string only
//! when the pointers differ.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::sync::Arc;

/// A row key *name*. YCSB-style workloads use keys like `"user4382"`. On
/// the operation hot path keys travel as interned [`crate::keys::KeyId`]s;
/// the `String` form exists at the API boundary (workload setup, reports).
pub type Key = String;

/// A logical timestamp attached to every written cell (nanosecond-scale,
/// coordinator-assigned, strictly monotonic per cluster).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp, older than every real write.
    pub const ZERO: Timestamp = Timestamp(0);
}

/// A single named column value plus its write timestamp.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// The column name, shared with the mutation that wrote it.
    pub name: Arc<str>,
    /// The column payload, shared with the mutation that wrote it.
    pub value: Arc<[u8]>,
    /// The timestamp assigned by the coordinating node at write time.
    pub timestamp: Timestamp,
}

impl Cell {
    /// Creates a cell.
    pub fn new(name: Arc<str>, value: Arc<[u8]>, timestamp: Timestamp) -> Self {
        Cell {
            name,
            value,
            timestamp,
        }
    }

    /// The approximate in-memory size of this cell in bytes (name included).
    pub fn size_bytes(&self) -> usize {
        self.name.len() + self.value.len() + std::mem::size_of::<Timestamp>()
    }
}

/// A row: a set of named columns, each carrying its own timestamp, held
/// sorted by name with no duplicate names.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Row {
    cells: Vec<Cell>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// The cells, sorted by column name.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The cell of column `name`, if the row holds it.
    pub fn get(&self, name: &str) -> Option<&Cell> {
        let i = self.cells.binary_search_by(|c| (*c.name).cmp(name)).ok()?;
        Some(&self.cells[i])
    }

    /// Last-write-wins upsert of one column: stores `value` unless the row
    /// already holds `name` at an equal or newer timestamp. Allocates only
    /// when the column is new to the row.
    fn merge_cell(&mut self, name: &Arc<str>, value: &Arc<[u8]>, timestamp: Timestamp) {
        match self.cells.binary_search_by(|c| cmp_names(&c.name, name)) {
            Ok(i) if self.cells[i].timestamp >= timestamp => {}
            Ok(i) => {
                self.cells[i].value = Arc::clone(value);
                self.cells[i].timestamp = timestamp;
            }
            Err(i) => self
                .cells
                .insert(i, Cell::new(name.clone(), value.clone(), timestamp)),
        }
    }

    /// Merges `other` into `self`, keeping for every column the cell with the
    /// newest timestamp (Cassandra's last-write-wins reconciliation; on a
    /// tie the cell already in `self` wins).
    ///
    /// A merge join: one forward pass updates the columns both rows hold and
    /// counts the ones new to `self`; if there are any, one backward pass
    /// shifts the existing cells up and writes the new ones into the gaps.
    /// Allocates only when a new column outgrows the vector's capacity.
    pub fn merge_from(&mut self, other: &Row) {
        let mut missing = 0;
        let mut i = 0;
        for theirs in &other.cells {
            loop {
                match self.cells.get_mut(i) {
                    Some(mine) => match cmp_names(&mine.name, &theirs.name) {
                        Ordering::Less => i += 1,
                        Ordering::Equal => {
                            if mine.timestamp < theirs.timestamp {
                                mine.value = Arc::clone(&theirs.value);
                                mine.timestamp = theirs.timestamp;
                            }
                            i += 1;
                            break;
                        }
                        Ordering::Greater => {
                            missing += 1;
                            break;
                        }
                    },
                    None => {
                        missing += 1;
                        break;
                    }
                }
            }
        }
        if missing == 0 {
            return;
        }
        // Backward pass. `[i, w)` is the gap still to fill: every cell of
        // `self` at or past `i` has been moved to its final slot at or past
        // `w`, and each new column is written at `w - 1`.
        let (mut i, mut w) = (self.cells.len(), self.cells.len() + missing);
        self.cells.resize(w, other.cells[0].clone());
        for theirs in other.cells.iter().rev() {
            while i > 0 && cmp_names(&self.cells[i - 1].name, &theirs.name).is_gt() {
                i -= 1;
                w -= 1;
                self.cells.swap(i, w);
            }
            if i > 0 && cmp_names(&self.cells[i - 1].name, &theirs.name).is_eq() {
                continue; // reconciled by the forward pass
            }
            w -= 1;
            self.cells[w] = theirs.clone();
            if w == i {
                return; // every new column placed; the prefix is in place
            }
        }
    }

    /// Applies `mutation` stamped `timestamp` with per-column last-write-wins.
    pub(crate) fn apply(&mut self, mutation: &Mutation, timestamp: Timestamp) {
        for (name, value) in &mutation.columns {
            self.merge_cell(name, value, timestamp);
        }
    }

    /// True when merging `other` into `self` would change nothing: every
    /// cell of `other` is matched by an equal-or-newer cell of `self`. A
    /// merge join, like [`Row::merge_from`].
    fn subsumes(&self, other: &Row) -> bool {
        let mut mine = self.cells.iter();
        other.cells.iter().all(|theirs| loop {
            match mine.next() {
                None => return false,
                Some(m) => match cmp_names(&m.name, &theirs.name) {
                    Ordering::Less => {}
                    Ordering::Equal => return m.timestamp >= theirs.timestamp,
                    Ordering::Greater => return false,
                },
            }
        })
    }

    /// Reconciles shared rows by timestamp (last-write-wins per column,
    /// earlier rows win ties) without copying when the first row subsumes
    /// the rest — one source, or agreeing replicas: it is returned as an
    /// `Arc` clone. `None` for an empty sequence. Shared by the engine's read
    /// path and the coordinator's response reconciliation.
    pub fn merge_shared<'a>(mut rows: impl Iterator<Item = &'a Arc<Row>>) -> Option<Arc<Row>> {
        let first = rows.next()?;
        let mut merged: Option<Row> = None;
        for row in rows {
            match &mut merged {
                Some(acc) => acc.merge_from(row),
                None if first.subsumes(row) => {}
                None => {
                    let mut acc = Row::clone(first);
                    acc.merge_from(row);
                    merged = Some(acc);
                }
            }
        }
        Some(merged.map_or_else(|| Arc::clone(first), Arc::new))
    }

    /// The newest timestamp among all columns, or [`Timestamp::ZERO`] for an
    /// empty row. This is the value the paper's dual-read staleness check
    /// compares between a weak and a strong read.
    pub fn latest_timestamp(&self) -> Timestamp {
        let stamps = self.cells.iter().map(|c| c.timestamp);
        stamps.max().unwrap_or(Timestamp::ZERO)
    }

    /// Total payload size of the row in bytes (column names included).
    pub fn size_bytes(&self) -> usize {
        self.cells.iter().map(Cell::size_bytes).sum()
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the row holds no columns.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Column-name order: equal without reading the strings when both cells
/// share one name allocation, byte order of the names otherwise.
#[inline]
fn cmp_names(a: &Arc<str>, b: &Arc<str>) -> Ordering {
    if Arc::ptr_eq(a, b) {
        Ordering::Equal
    } else {
        (**a).cmp(&**b)
    }
}

/// A write: the columns to upsert on a key, sorted by name with no
/// duplicate names. The coordinator stamps the mutation with a single
/// timestamp when it accepts the operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mutation {
    columns: Vec<(Arc<str>, Arc<[u8]>)>,
}

impl Mutation {
    /// A mutation setting a single column.
    pub fn single(column: impl Into<String>, value: Vec<u8>) -> Self {
        Mutation::multi([(column.into(), value)])
    }

    /// A mutation setting several columns at once; a repeated name keeps
    /// its first value.
    pub fn multi(columns: impl IntoIterator<Item = (String, Vec<u8>)>) -> Self {
        let pairs = columns.into_iter().map(|(n, v)| (n.into(), v.into()));
        let mut columns: Vec<(Arc<str>, Arc<[u8]>)> = pairs.collect();
        columns.sort_by(|a, b| a.0.cmp(&b.0));
        columns.dedup_by(|later, kept| later.0 == kept.0);
        Mutation { columns }
    }

    /// Generates a YCSB-style mutation with `fields` columns named
    /// `field0..fieldN`, each `field_size` bytes of filler.
    pub fn ycsb_row(fields: usize, field_size: usize) -> Self {
        Mutation::multi((0..fields).map(|i| (format!("field{i}"), vec![b'x'; field_size])))
    }

    /// The cells this mutation stores when applied at `timestamp`.
    pub fn to_row(&self, timestamp: Timestamp) -> Row {
        let cell = |(n, v): &(Arc<str>, Arc<[u8]>)| Cell::new(n.clone(), v.clone(), timestamp);
        Row {
            cells: self.columns.iter().map(cell).collect(),
        }
    }

    /// Total payload size of the mutation in bytes.
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(|(k, v)| k.len() + v.len()).sum()
    }

    /// Number of columns touched.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the mutation touches no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, v: &str, ts: u64) -> Cell {
        Cell::new(name.into(), v.as_bytes().into(), Timestamp(ts))
    }

    /// Builds a row one cell at a time, each merged last-write-wins.
    fn row(cells: &[(&str, &str, u64)]) -> Row {
        let mut row = Row::new();
        for &(n, v, ts) in cells {
            row.merge_from(&Mutation::single(n, v.as_bytes().to_vec()).to_row(Timestamp(ts)));
        }
        row
    }

    #[test]
    fn merge_keeps_newest_cells() {
        let mut a = row(&[("f0", "old", 1), ("f1", "keep", 9)]);
        let b = row(&[("f0", "new", 5), ("f1", "stale", 2), ("f2", "added", 3)]);
        a.merge_from(&b);
        assert_eq!(a.get("f0"), Some(&cell("f0", "new", 5)));
        assert_eq!(a.get("f1"), Some(&cell("f1", "keep", 9)));
        assert_eq!(a.get("f2"), Some(&cell("f2", "added", 3)));
        assert_eq!(a.get("f3"), None);
        assert_eq!(a.latest_timestamp(), Timestamp(9));
    }

    #[test]
    fn merge_with_equal_timestamp_keeps_existing() {
        let mut a = row(&[("f0", "mine", 5)]);
        a.merge_from(&row(&[("f0", "theirs", 5)]));
        assert_eq!(a.get("f0"), Some(&cell("f0", "mine", 5)));
    }

    #[test]
    fn cells_stay_sorted_by_name() {
        let r = row(&[("b", "1", 1), ("a", "2", 1), ("c", "3", 1), ("a", "4", 2)]);
        let names: Vec<&str> = r.cells().iter().map(|c| &*c.name).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(r.get("a"), Some(&cell("a", "4", 2)));
    }

    #[test]
    fn merge_shared_shares_when_sources_agree() {
        let a = Arc::new(row(&[("f", "v", 3)]));
        let older = Arc::new(row(&[("f", "old", 2)]));
        let merged = Row::merge_shared([&a, &older].into_iter()).unwrap();
        assert!(Arc::ptr_eq(&merged, &a));
        let newer = Arc::new(row(&[("f", "new", 4)]));
        let merged = Row::merge_shared([&a, &newer].into_iter()).unwrap();
        assert_eq!(merged.get("f"), Some(&cell("f", "new", 4)));
        assert!(Row::merge_shared(std::iter::empty()).is_none());
    }

    #[test]
    fn empty_row_has_zero_timestamp() {
        assert_eq!(Row::new().latest_timestamp(), Timestamp::ZERO);
        assert!(Row::new().is_empty());
        assert_eq!(Row::new().len(), 0);
    }

    #[test]
    fn mutation_into_row_stamps_all_columns() {
        let m = Mutation::ycsb_row(3, 10);
        assert_eq!(m.len(), 3);
        assert_eq!(m.size_bytes(), 3 * (6 + 10));
        let row = m.to_row(Timestamp(42));
        assert_eq!(row.len(), 3);
        for c in row.cells() {
            assert_eq!(c.timestamp, Timestamp(42));
            assert_eq!(c.value.len(), 10);
        }
        assert_eq!(row.latest_timestamp(), Timestamp(42));
    }

    #[test]
    fn ycsb_row_names_sort_like_strings() {
        let m = Mutation::ycsb_row(12, 1);
        let names: Vec<&str> = m.columns.iter().map(|(n, _)| &**n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(names[..3], ["field0", "field1", "field10"]);
    }

    #[test]
    fn single_and_multi_mutations() {
        let s = Mutation::single("field0", vec![1, 2, 3]);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        let m = Mutation::multi([
            ("b".to_string(), vec![0u8; 9]),
            ("a".to_string(), vec![0u8; 4]),
            ("b".to_string(), vec![0u8; 6]),
        ]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.size_bytes(), 1 + 4 + 1 + 9);
        assert_eq!(&*m.columns[0].0, "a");
        assert_eq!(
            m.columns[1].1.len(),
            9,
            "a repeated name keeps its first value"
        );
    }

    #[test]
    fn row_size_accounts_for_names_and_values() {
        let r = row(&[("ab", "xyz", 1)]);
        assert_eq!(r.size_bytes(), 2 + 3 + std::mem::size_of::<Timestamp>());
    }

    #[test]
    fn timestamps_order_naturally() {
        assert!(Timestamp(2) > Timestamp(1));
        assert!(Timestamp::ZERO < Timestamp(1));
    }
}
