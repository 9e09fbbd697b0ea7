//! Typed in-memory columnar tables.
//!
//! The paper's DB-oriented baseline (§5.1.1) materializes unit and
//! hypothesis behaviors into PostgreSQL relations — either sparse
//! `(id, unitid, symbolid, behavior)` rows or a dense form with one column
//! per unit/hypothesis — and computes affinity with SQL aggregates and
//! MADLib UDAs. This module provides the storage layer for that baseline
//! (and for post-processing DNI result frames relationally).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Scalar value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 32-bit float.
    Float(f32),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// Float view (ints widen; strings are an error).
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Value::Int(i) => Some(*i as f32),
            Value::Float(f) => Some(*f),
            Value::Str(_) => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            Value::Str(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v:.4}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Column type tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColType {
    /// Integers.
    Int,
    /// Floats.
    Float,
    /// Strings.
    Str,
}

/// Columnar storage for one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    /// Integer column.
    Ints(Vec<i64>),
    /// Float column.
    Floats(Vec<f32>),
    /// String column.
    Strs(Vec<String>),
}

impl Column {
    fn new(ty: ColType) -> Column {
        match ty {
            ColType::Int => Column::Ints(Vec::new()),
            ColType::Float => Column::Floats(Vec::new()),
            ColType::Str => Column::Strs(Vec::new()),
        }
    }

    /// Value at a row.
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Ints(v) => Value::Int(v[row]),
            Column::Floats(v) => Value::Float(v[row]),
            Column::Strs(v) => Value::Str(v[row].clone()),
        }
    }

    fn push(&mut self, v: Value) -> Result<(), TableError> {
        match (self, v) {
            (Column::Ints(col), Value::Int(i)) => col.push(i),
            (Column::Floats(col), Value::Float(f)) => col.push(f),
            (Column::Floats(col), Value::Int(i)) => col.push(i as f32),
            (Column::Strs(col), Value::Str(s)) => col.push(s),
            (col, v) => {
                return Err(TableError {
                    msg: format!(
                        "type mismatch pushing {v:?} into {:?} column",
                        col_type(col)
                    ),
                })
            }
        }
        Ok(())
    }

    /// Borrow as float slice (only for Float columns).
    pub fn floats(&self) -> Option<&[f32]> {
        match self {
            Column::Floats(v) => Some(v),
            _ => None,
        }
    }
}

fn col_type(c: &Column) -> ColType {
    match c {
        Column::Ints(_) => ColType::Int,
        Column::Floats(_) => ColType::Float,
        Column::Strs(_) => ColType::Str,
    }
}

/// Table error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableError {
    /// Description.
    pub msg: String,
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table error: {}", self.msg)
    }
}

impl std::error::Error for TableError {}

/// A named, typed schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    cols: Vec<(String, ColType)>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    pub fn new(cols: Vec<(&str, ColType)>) -> Schema {
        Schema {
            cols: cols.into_iter().map(|(n, t)| (n.to_string(), t)).collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Column index by name.
    pub(crate) fn index_of(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|(n, _)| n == name)
    }

    /// Column names.
    pub fn names(&self) -> Vec<&str> {
        self.cols.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Column type by position.
    pub fn col_type(&self, idx: usize) -> ColType {
        self.cols[idx].1
    }
}

/// A columnar table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: Schema) -> Table {
        let columns = (0..schema.arity())
            .map(|i| Column::new(schema.col_type(i)))
            .collect();
        Table {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Schema accessor.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Appends a row; values must match the schema arity and types
    /// (integers widen into float columns).
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<(), TableError> {
        if values.len() != self.schema.arity() {
            return Err(TableError {
                msg: format!("row arity {} != {}", values.len(), self.schema.arity()),
            });
        }
        for (col, v) in self.columns.iter_mut().zip(values) {
            col.push(v)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Column by name.
    pub(crate) fn column(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// Column by position.
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Value at `(row, column name)`.
    pub fn value(&self, row: usize, name: &str) -> Option<Value> {
        self.column(name).map(|c| c.value(row))
    }

    /// Materializes a row as values.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Renders an aligned text table (up to `max_rows` rows), used by the
    /// benchmark harnesses to print paper-style result tables.
    pub fn render(&self, max_rows: usize) -> String {
        let names = self.schema.names();
        let mut cells: Vec<Vec<String>> = vec![names.iter().map(|s| s.to_string()).collect()];
        for r in 0..self.rows.min(max_rows) {
            cells.push(self.row(r).iter().map(|v| v.to_string()).collect());
        }
        let widths: Vec<usize> = (0..names.len())
            .map(|c| cells.iter().map(|row| row[c].len()).max().unwrap_or(1))
            .collect();
        let mut out = String::new();
        for (i, row) in cells.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:>width$}  ", cell, width = widths[c]));
            }
            out.push('\n');
            if i == 0 {
                for &w in &widths {
                    out.push_str(&"-".repeat(w));
                    out.push_str("  ");
                }
                out.push('\n');
            }
        }
        if self.rows > max_rows {
            out.push_str(&format!("... ({} more rows)\n", self.rows - max_rows));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(Schema::new(vec![
            ("uid", ColType::Int),
            ("score", ColType::Float),
            ("name", ColType::Str),
        ]));
        t.push_row(vec![
            Value::Int(1),
            Value::Float(0.5),
            Value::Str("a".into()),
        ])
        .unwrap();
        t.push_row(vec![
            Value::Int(2),
            Value::Float(0.8),
            Value::Str("b".into()),
        ])
        .unwrap();
        t
    }

    #[test]
    fn push_and_read_roundtrip() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert_eq!(t.value(0, "uid"), Some(Value::Int(1)));
        assert_eq!(t.value(1, "score"), Some(Value::Float(0.8)));
        assert_eq!(t.value(1, "name"), Some(Value::Str("b".into())));
        assert_eq!(t.value(0, "missing"), None);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = sample();
        assert!(t.push_row(vec![Value::Int(3)]).is_err());
        assert_eq!(t.len(), 2, "failed push must not change the table");
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = sample();
        let err = t
            .push_row(vec![
                Value::Str("x".into()),
                Value::Float(0.0),
                Value::Str("c".into()),
            ])
            .unwrap_err();
        assert!(err.msg.contains("type mismatch"));
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut t = Table::new(Schema::new(vec![("v", ColType::Float)]));
        t.push_row(vec![Value::Int(3)]).unwrap();
        assert_eq!(t.value(0, "v"), Some(Value::Float(3.0)));
    }

    #[test]
    fn column_float_slice() {
        let t = sample();
        assert_eq!(
            t.column("score").unwrap().floats(),
            Some(&[0.5f32, 0.8][..])
        );
        assert_eq!(t.column("uid").unwrap().floats(), None);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Int(3).as_f32(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_i64(), Some(2));
        assert_eq!(Value::Str("x".into()).as_f32(), None);
    }

    #[test]
    fn render_is_aligned_and_bounded() {
        let t = sample();
        let s = t.render(1);
        assert!(s.contains("uid"));
        assert!(s.contains("(1 more rows)"));
    }
}
