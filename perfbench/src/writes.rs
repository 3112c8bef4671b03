//! Seeded single-row writes on a dataset's main relation.
//!
//! Writes come in pairs: one changes a numeric attribute of a seeded row,
//! the next restores it. The data therefore only ever differs from the
//! generated dataset by one row, which keeps every screened request within
//! its screening margin, while each write is a real update that the session
//! must repair in its provenance annotations.

use crate::measure::Rng;
use crate::requests::Data;
use qr_core::{Mutation, RefinementSession};
use qr_datagen::DatasetId;
use qr_relation::{Relation, Row, RowId, Value};

/// The attribute a dataset's writes change: a selection-predicate or
/// ranking attribute of its Table 6 query, so writes change lineage or rank.
fn write_column(data: Data) -> &'static str {
    match data {
        Data::Default(DatasetId::LawStudents) => "GPA",
        Data::Default(DatasetId::Meps) => "Age",
        Data::Default(DatasetId::Tpch) => "Revenue",
        Data::Default(DatasetId::Astronauts) | Data::Astronauts(_) => "Space Walks",
    }
}

/// The write stream of one dataset.
#[derive(Debug)]
pub struct Writer {
    data: Data,
    rng: Rng,
    /// The row changed by the last write and its original values.
    outstanding: Option<(RowId, Row)>,
}

impl Writer {
    /// A write stream for `data`, drawn from `seed`.
    pub fn new(data: Data, seed: u64, salt: u64) -> Self {
        Writer {
            data,
            rng: Rng::new(seed, salt),
            outstanding: None,
        }
    }

    /// Whether the data currently equals the generated dataset.
    pub fn is_base(&self) -> bool {
        self.outstanding.is_none()
    }

    /// The next write against the session's current data: restore the
    /// changed row, or change a new one.
    pub fn next(&mut self, session: &RefinementSession) -> Mutation {
        let relation = self.data.main_relation();
        if let Some((id, row)) = self.outstanding.take() {
            return Mutation::update(relation, vec![(id, row)]);
        }
        let snapshot = session.snapshot();
        let table = snapshot
            .db()
            .get(relation)
            .expect("the main relation exists");
        let index = self.rng.below(table.len());
        let up = self.rng.below(2) == 0;
        let (id, original, changed) = change(self.data, table, index, up);
        self.outstanding = Some((id, original));
        Mutation::update(relation, vec![(id, changed)])
    }
}

/// The write that changes row `index` of `table` (the main relation of
/// `data`): its write column goes up (+1, or ×1.05) or down (−1 but not
/// below 0, or ×0.95). Returns the row id, the original row and the changed
/// row.
pub fn change(data: Data, table: &Relation, index: usize, up: bool) -> (RowId, Row, Row) {
    let id = table.row_id(index).expect("index is in range");
    let original = table.rows()[index].clone();
    let column = table
        .schema()
        .index_of(write_column(data))
        .expect("the write column exists");
    let mut changed = original.clone();
    changed[column] = match &original[column] {
        Value::Int(v) => Value::Int(if up { v + 1 } else { (v - 1).max(0) }),
        Value::Float(v) => Value::Float(if up { v * 1.05 } else { v * 0.95 }),
        other => other.clone(),
    };
    (id, original, changed)
}
