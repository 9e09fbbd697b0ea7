//! Property-based tests for the relational engine: aggregates must agree
//! with reference computations, selections with filters, and the statement
//! limit must be respected, for arbitrary tables.

use deepbase_relational::{aggregate, select, AggFn, ColType, ExecStats, Schema, Table, Value};
use proptest::prelude::*;

fn table_from(rows: &[(i64, f32, f32)]) -> Table {
    let mut t = Table::new(Schema::new(vec![
        ("k", ColType::Int),
        ("x", ColType::Float),
        ("y", ColType::Float),
    ]));
    for &(k, x, y) in rows {
        t.push_row(vec![Value::Int(k), Value::Float(x), Value::Float(y)])
            .unwrap();
    }
    t
}

proptest! {
    #[test]
    fn count_sum_avg_match_reference(
        rows in proptest::collection::vec((0i64..4, -50.0f32..50.0, -50.0f32..50.0), 1..60),
    ) {
        let t = table_from(&rows);
        let mut stats = ExecStats::default();
        let out = aggregate(
            &t,
            &mut stats,
            &[],
            &[AggFn::Count, AggFn::Sum("x".into()), AggFn::Avg("x".into())],
        )
        .unwrap();
        let expected_sum: f32 = rows.iter().map(|r| r.1).sum();
        let got_count = out.value(0, "count").unwrap().as_i64().unwrap();
        let got_sum = out.value(0, "sum_x").unwrap().as_f32().unwrap();
        let got_avg = out.value(0, "avg_x").unwrap().as_f32().unwrap();
        prop_assert_eq!(got_count as usize, rows.len());
        prop_assert!((got_sum - expected_sum).abs() < 0.05 * (1.0 + expected_sum.abs()));
        prop_assert!(
            (got_avg - expected_sum / rows.len() as f32).abs() < 0.05 * (1.0 + got_avg.abs())
        );
    }

    #[test]
    fn grouped_counts_partition_table(
        rows in proptest::collection::vec((0i64..4, -1.0f32..1.0, -1.0f32..1.0), 1..60),
    ) {
        let t = table_from(&rows);
        let mut stats = ExecStats::default();
        let out = aggregate(&t, &mut stats, &["k"], &[AggFn::Count]).unwrap();
        let total: i64 = (0..out.len())
            .map(|r| out.value(r, "count").unwrap().as_i64().unwrap())
            .sum();
        prop_assert_eq!(total as usize, rows.len());
        // Group keys are distinct.
        let keys: Vec<i64> =
            (0..out.len()).map(|r| out.value(r, "k").unwrap().as_i64().unwrap()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), keys.len());
    }

    #[test]
    fn corr_aggregate_matches_stats_crate(
        rows in proptest::collection::vec((0i64..2, -10.0f32..10.0, -10.0f32..10.0), 4..60),
    ) {
        let t = table_from(&rows);
        let mut stats = ExecStats::default();
        let out =
            aggregate(&t, &mut stats, &[], &[AggFn::Corr("x".into(), "y".into())]).unwrap();
        let xs: Vec<f32> = rows.iter().map(|r| r.1).collect();
        let ys: Vec<f32> = rows.iter().map(|r| r.2).collect();
        let expected = deepbase_stats::pearson(&xs, &ys);
        let got = out.value(0, "corr_x_y").unwrap().as_f32().unwrap();
        prop_assert!((got - expected).abs() < 1e-4, "{got} vs {expected}");
    }

    #[test]
    fn select_then_count_equals_filtered_len(
        rows in proptest::collection::vec((0i64..4, -10.0f32..10.0, -10.0f32..10.0), 0..40),
    ) {
        let t = table_from(&rows);
        let mut stats = ExecStats::default();
        let filtered = select(&t, &mut stats, |t, r| {
            t.value(r, "x").unwrap().as_f32().unwrap() > 0.0
        });
        let expected = rows.iter().filter(|r| r.1 > 0.0).count();
        prop_assert_eq!(filtered.len(), expected);
        prop_assert_eq!(stats.rows_scanned, rows.len());
    }
}
