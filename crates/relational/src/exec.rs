//! Relational operators and user-defined aggregates.
//!
//! This is the execution layer of the MADLib-style baseline (paper
//! §5.1.1): full-scan selection, hash group-by with aggregate
//! functions, and iterative UDAs (`corr`, logistic-regression training).
//! Scan work is metered in [`ExecStats`] so the benchmark harnesses can
//! report the baseline's pass counts, and the PostgreSQL expression-limit
//! (1,600 target-list expressions per statement) is enforced, which is
//! what forces the baseline into repeated full scans in the paper.

use crate::table::{ColType, Schema, Table, TableError, Value};
use deepbase_stats::StreamingPearson;
use std::collections::HashMap;

/// PostgreSQL's default limit on expressions in a target list; computing
/// more aggregates than this requires batching into several statements,
/// each paying a full scan (paper §5.1.1).
pub const MAX_EXPRESSIONS_PER_STATEMENT: usize = 1600;

/// Scan accounting for baseline cost reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of full table scans performed.
    pub full_scans: usize,
    /// Total rows touched.
    pub rows_scanned: usize,
}

impl ExecStats {
    fn record_scan(&mut self, rows: usize) {
        self.full_scans += 1;
        self.rows_scanned += rows;
    }
}

/// Aggregate function over a single float column (by name), or `Count`.
#[derive(Debug, Clone)]
pub enum AggFn {
    /// Row count.
    Count,
    /// Sum of a float column.
    Sum(String),
    /// Mean of a float column.
    Avg(String),
    /// Minimum of a float column.
    Min(String),
    /// Maximum of a float column.
    Max(String),
    /// Pearson correlation between two float columns — the SQL `corr`
    /// aggregate the paper's baseline uses for the correlation measure.
    Corr(String, String),
}

impl AggFn {
    fn output_name(&self) -> String {
        match self {
            AggFn::Count => "count".into(),
            AggFn::Sum(c) => format!("sum_{c}"),
            AggFn::Avg(c) => format!("avg_{c}"),
            AggFn::Min(c) => format!("min_{c}"),
            AggFn::Max(c) => format!("max_{c}"),
            AggFn::Corr(a, b) => format!("corr_{a}_{b}"),
        }
    }
}

enum AggState {
    Count(usize),
    Sum(f64),
    Avg(f64, usize),
    Min(f32),
    Max(f32),
    Corr(StreamingPearson),
}

impl AggState {
    fn new(f: &AggFn) -> AggState {
        match f {
            AggFn::Count => AggState::Count(0),
            AggFn::Sum(_) => AggState::Sum(0.0),
            AggFn::Avg(..) => AggState::Avg(0.0, 0),
            AggFn::Min(_) => AggState::Min(f32::INFINITY),
            AggFn::Max(_) => AggState::Max(f32::NEG_INFINITY),
            AggFn::Corr(..) => AggState::Corr(StreamingPearson::new()),
        }
    }

    fn step(&mut self, f: &AggFn, table: &Table, row: usize) {
        match (self, f) {
            (AggState::Count(n), AggFn::Count) => *n += 1,
            (AggState::Sum(s), AggFn::Sum(c)) => {
                *s += table.value(row, c).and_then(|v| v.as_f32()).unwrap_or(0.0) as f64;
            }
            (AggState::Avg(s, n), AggFn::Avg(c)) => {
                *s += table.value(row, c).and_then(|v| v.as_f32()).unwrap_or(0.0) as f64;
                *n += 1;
            }
            (AggState::Min(m), AggFn::Min(c)) => {
                let v = table
                    .value(row, c)
                    .and_then(|v| v.as_f32())
                    .unwrap_or(f32::INFINITY);
                *m = m.min(v);
            }
            (AggState::Max(m), AggFn::Max(c)) => {
                let v = table
                    .value(row, c)
                    .and_then(|v| v.as_f32())
                    .unwrap_or(f32::NEG_INFINITY);
                *m = m.max(v);
            }
            (AggState::Corr(acc), AggFn::Corr(a, b)) => {
                let x = table.value(row, a).and_then(|v| v.as_f32()).unwrap_or(0.0);
                let y = table.value(row, b).and_then(|v| v.as_f32()).unwrap_or(0.0);
                acc.push(x, y);
            }
            _ => unreachable!("state/function mismatch"),
        }
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n as i64),
            AggState::Sum(s) => Value::Float(s as f32),
            AggState::Avg(s, n) => Value::Float(if n == 0 { 0.0 } else { (s / n as f64) as f32 }),
            AggState::Min(m) => Value::Float(m),
            AggState::Max(m) => Value::Float(m),
            AggState::Corr(acc) => Value::Float(acc.correlation()),
        }
    }
}

/// Full-scan selection: rows where `pred` holds.
pub fn select(table: &Table, stats: &mut ExecStats, pred: impl Fn(&Table, usize) -> bool) -> Table {
    stats.record_scan(table.len());
    let mut out = Table::new(table.schema().clone());
    for r in 0..table.len() {
        if pred(table, r) {
            out.push_row(table.row(r)).expect("same schema");
        }
    }
    out
}

fn key_of(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("i{i}"),
        Value::Float(f) => format!("f{f}"),
        Value::Str(s) => format!("s{s}"),
    }
}

/// Hash group-by with aggregates. With an empty `group_cols` the whole
/// table forms one group. Enforces [`MAX_EXPRESSIONS_PER_STATEMENT`]: a
/// wider aggregate list must be issued as several statements (each paying
/// its own scan), exactly the batching the paper describes.
pub fn aggregate(
    table: &Table,
    stats: &mut ExecStats,
    group_cols: &[&str],
    aggs: &[AggFn],
) -> Result<Table, TableError> {
    if aggs.len() > MAX_EXPRESSIONS_PER_STATEMENT {
        return Err(TableError {
            msg: format!(
                "statement has {} expressions; the engine limit is {} — batch the query",
                aggs.len(),
                MAX_EXPRESSIONS_PER_STATEMENT
            ),
        });
    }
    stats.record_scan(table.len());
    let group_indices: Vec<usize> = group_cols
        .iter()
        .map(|c| {
            table.schema().index_of(c).ok_or_else(|| TableError {
                msg: format!("unknown group column {c:?}"),
            })
        })
        .collect::<Result<_, _>>()?;

    // Group states keyed by the group tuple.
    let mut groups: HashMap<String, (Vec<Value>, Vec<AggState>)> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    for r in 0..table.len() {
        let key_vals: Vec<Value> = group_indices
            .iter()
            .map(|&i| table.column_at(i).value(r))
            .collect();
        let key: String = key_vals.iter().map(key_of).collect::<Vec<_>>().join("|");
        let entry = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            (key_vals, aggs.iter().map(AggState::new).collect())
        });
        for (state, f) in entry.1.iter_mut().zip(aggs.iter()) {
            state.step(f, table, r);
        }
    }

    // Output schema: group columns then aggregate outputs.
    let mut cols: Vec<(String, ColType)> = group_cols
        .iter()
        .zip(group_indices.iter())
        .map(|(c, &i)| (c.to_string(), table.schema().col_type(i)))
        .collect();
    for f in aggs {
        let ty = if matches!(f, AggFn::Count) {
            ColType::Int
        } else {
            ColType::Float
        };
        cols.push((f.output_name(), ty));
    }
    let schema = Schema::new(
        cols.iter()
            .map(|(n, t)| (n.as_str(), *t))
            .collect::<Vec<_>>(),
    );
    let mut out = Table::new(schema);
    for key in order {
        let (vals, states) = groups.remove(&key).expect("group present");
        let mut row = vals;
        row.extend(states.into_iter().map(AggState::finish));
        out.push_row(row).expect("aggregate schema");
    }
    Ok(out)
}

/// Iterative logistic-regression training UDA over a dense behavior table
/// (the `SVMTrain`-style MADLib call of §5.1.1): `feature_cols` are unit
/// columns, `label_col` is one hypothesis column. Each epoch performs a
/// full scan of the table, which is the baseline's dominant cost. Returns
/// the trained probe.
pub fn logreg_train_uda(
    table: &Table,
    stats: &mut ExecStats,
    feature_cols: &[&str],
    label_col: &str,
    epochs: usize,
    config: &deepbase_stats::LogRegConfig,
) -> Result<deepbase_stats::MultiLogReg, TableError> {
    use deepbase_tensor::Matrix;
    let feat_idx: Vec<usize> = feature_cols
        .iter()
        .map(|c| {
            table.schema().index_of(c).ok_or_else(|| TableError {
                msg: format!("unknown feature column {c:?}"),
            })
        })
        .collect::<Result<_, _>>()?;
    let label_idx = table
        .schema()
        .index_of(label_col)
        .ok_or_else(|| TableError {
            msg: format!("unknown label column {label_col:?}"),
        })?;

    let mut model = deepbase_stats::MultiLogReg::new(feat_idx.len(), 1, config.clone());
    let block = 512usize;
    for _ in 0..epochs.max(1) {
        stats.record_scan(table.len());
        let mut start = 0usize;
        while start < table.len() {
            let end = (start + block).min(table.len());
            let mut x = Matrix::zeros(end - start, feat_idx.len());
            let mut y = Matrix::zeros(end - start, 1);
            for r in start..end {
                for (c, &fi) in feat_idx.iter().enumerate() {
                    x.set(
                        r - start,
                        c,
                        table.column_at(fi).value(r).as_f32().unwrap_or(0.0),
                    );
                }
                y.set(
                    r - start,
                    0,
                    table.column_at(label_idx).value(r).as_f32().unwrap_or(0.0),
                );
            }
            model.partial_fit(&x, &y);
            start = end;
        }
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn behavior_table() -> Table {
        let mut t = Table::new(Schema::new(vec![
            ("symbolid", ColType::Int),
            ("u0", ColType::Float),
            ("u1", ColType::Float),
            ("h0", ColType::Float),
        ]));
        for i in 0..100i64 {
            let u0 = (i % 10) as f32;
            let u1 = ((i * 7) % 13) as f32;
            let h0 = if i % 10 >= 5 { 1.0 } else { 0.0 };
            t.push_row(vec![
                Value::Int(i),
                Value::Float(u0),
                Value::Float(u1),
                Value::Float(h0),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn select_filters_rows_and_counts_scan() {
        let t = behavior_table();
        let mut stats = ExecStats::default();
        let out = select(&t, &mut stats, |t, r| {
            t.value(r, "h0").unwrap().as_f32().unwrap() > 0.5
        });
        assert_eq!(out.len(), 50);
        assert_eq!(stats.full_scans, 1);
        assert_eq!(stats.rows_scanned, 100);
    }

    #[test]
    fn aggregate_whole_table() {
        let t = behavior_table();
        let mut stats = ExecStats::default();
        let out = aggregate(
            &t,
            &mut stats,
            &[],
            &[
                AggFn::Count,
                AggFn::Avg("u0".into()),
                AggFn::Min("u0".into()),
                AggFn::Max("u0".into()),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.value(0, "count"), Some(Value::Int(100)));
        assert_eq!(out.value(0, "avg_u0"), Some(Value::Float(4.5)));
        assert_eq!(out.value(0, "min_u0"), Some(Value::Float(0.0)));
        assert_eq!(out.value(0, "max_u0"), Some(Value::Float(9.0)));
    }

    #[test]
    fn aggregate_grouped_sums() {
        let t = behavior_table();
        let mut stats = ExecStats::default();
        let out = aggregate(
            &t,
            &mut stats,
            &["h0"],
            &[AggFn::Count, AggFn::Sum("u0".into())],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        // Group h0=0 holds u0 in 0..5 over 10 cycles: sum = 10*(0+..+4)=100.
        let mut by_group = std::collections::HashMap::new();
        for r in 0..2 {
            let g = out.value(r, "h0").unwrap().as_f32().unwrap();
            let s = out.value(r, "sum_u0").unwrap().as_f32().unwrap();
            by_group.insert(g as i32, s);
        }
        assert_eq!(by_group[&0], 100.0);
        assert_eq!(by_group[&1], 350.0);
    }

    #[test]
    fn corr_aggregate_matches_stats_crate() {
        let t = behavior_table();
        let mut stats = ExecStats::default();
        let out = aggregate(
            &t,
            &mut stats,
            &[],
            &[AggFn::Corr("u0".into(), "h0".into())],
        )
        .unwrap();
        let expected = deepbase_stats::pearson(
            t.column("u0").unwrap().floats().unwrap(),
            t.column("h0").unwrap().floats().unwrap(),
        );
        let got = out.value(0, "corr_u0_h0").unwrap().as_f32().unwrap();
        assert!((got - expected).abs() < 1e-5);
    }

    #[test]
    fn expression_limit_enforced() {
        let t = behavior_table();
        let mut stats = ExecStats::default();
        let too_many: Vec<AggFn> = (0..MAX_EXPRESSIONS_PER_STATEMENT + 1)
            .map(|_| AggFn::Count)
            .collect();
        let err = aggregate(&t, &mut stats, &[], &too_many).unwrap_err();
        assert!(err.msg.contains("batch"));
    }

    #[test]
    fn logreg_uda_learns_separable_hypothesis() {
        let t = behavior_table();
        let mut stats = ExecStats::default();
        let config = deepbase_stats::LogRegConfig {
            learning_rate: 0.1,
            ..Default::default()
        };
        let model = logreg_train_uda(&t, &mut stats, &["u0", "u1"], "h0", 20, &config).unwrap();
        assert_eq!(stats.full_scans, 20, "one scan per epoch");
        // h0 = (u0 >= 5): linearly separable on u0.
        use deepbase_tensor::Matrix;
        let x = Matrix::from_fn(100, 2, |r, c| t.column_at(1 + c).value(r).as_f32().unwrap());
        let y = Matrix::from_fn(100, 1, |r, _| t.column_at(3).value(r).as_f32().unwrap());
        let f1 = model.f1_per_output(&x, &y)[0];
        assert!(f1 > 0.9, "UDA probe F1 {f1}");
    }
}
