//! Inspection results: the `(model_id, score_id, hyp_id, h_unit_id, val)`
//! frame the paper's `deepbase.inspect()` returns, with the relational
//! post-processing hooks users apply afterwards (filtering, score lookups,
//! export to the relational engine).
//!
//! The engine computes rows through one row emitter: one per unit of each
//! scored `(group, measure, hypothesis)`, under the asking request's own
//! model and group ids. A pass that serves several requests emits each
//! one's frame once, from the scores they share; a stored view's frame is
//! decoded from its file.

use deepbase_relational::{ColType, Schema, Table, Value};
use serde::{Deserialize, Serialize};

/// One affinity score row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreRow {
    /// Model identifier.
    pub model_id: String,
    /// Unit-group identifier.
    pub group_id: String,
    /// Measure identifier.
    pub measure_id: String,
    /// Hypothesis identifier.
    pub hyp_id: String,
    /// Hidden-unit index (within the model).
    pub unit: usize,
    /// Per-unit affinity score.
    pub unit_score: f32,
    /// Group affinity score (repeated on every unit row of the group).
    pub group_score: f32,
}

/// The result frame: all scores from one `inspect` call.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResultFrame {
    /// Score rows.
    pub rows: Vec<ScoreRow>,
}

/// Why an inspection pass stopped streaming.
///
/// Every status except [`CompletionStatus::Converged`] marks an
/// *interrupted* pass: the run budget tripped at a block boundary and the
/// engine returned its current estimates instead of erroring (graceful
/// degradation). A pass that streams every record without converging is
/// still `Converged` — its scores are the full-data scores, the best any
/// uninterrupted run could produce — with the unconverged pairs listed in
/// `Completion::pending`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum CompletionStatus {
    /// The pass ran to its natural end: every pair converged, or the
    /// records ran out.
    #[default]
    Converged,
    /// The run budget's wall-clock deadline expired mid-stream.
    DeadlineExceeded,
    /// The run's `CancelToken` was tripped from another thread.
    Cancelled,
    /// A row or block cap of the run budget was reached mid-stream.
    BudgetExhausted,
}

impl CompletionStatus {
    /// True for every status except [`CompletionStatus::Converged`].
    pub fn is_interrupted(&self) -> bool {
        !matches!(self, CompletionStatus::Converged)
    }

    /// Severity rank for aggregation across groups/waves: an explicit
    /// cancellation outranks a deadline, which outranks a work cap, which
    /// outranks convergence.
    fn severity(&self) -> u8 {
        match self {
            CompletionStatus::Converged => 0,
            CompletionStatus::BudgetExhausted => 1,
            CompletionStatus::DeadlineExceeded => 2,
            CompletionStatus::Cancelled => 3,
        }
    }
}

/// A `(group, measure, hypothesis)` pair that had not converged when its
/// pass stopped, with the distance still to cover.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingPair {
    /// Unit-group identifier.
    pub group_id: String,
    /// Measure identifier.
    pub measure_id: String,
    /// Hypothesis identifier.
    pub hyp_id: String,
    /// The pair's convergence error after the last processed block
    /// (`f32::INFINITY` when the pass stopped before its first block).
    pub error: f32,
    /// The threshold the error had to reach.
    pub epsilon: f32,
}

/// How an inspection pass ended: status, work done, and which pairs were
/// still converging. Carried per shared pass in `SharedOutcome`, per
/// group in `GroupReport`, and batch-wide in `BatchReport`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// Why the pass stopped.
    pub status: CompletionStatus,
    /// Records the pass actually read before stopping.
    pub rows_read: usize,
    /// Pairs whose convergence error was still above epsilon when the
    /// pass stopped. Empty for a fully converged pass.
    pub pending: Vec<PendingPair>,
}

impl Completion {
    /// True when the pass ran to its natural end (statuses other than
    /// [`CompletionStatus::Converged`] mean the returned scores are
    /// partial estimates from an interrupted stream).
    pub fn is_complete(&self) -> bool {
        !self.status.is_interrupted()
    }

    /// Folds another pass's completion into this one: the most severe
    /// status wins, rows and pending pairs accumulate.
    pub(crate) fn merge(&mut self, other: &Completion) {
        if other.status.severity() > self.status.severity() {
            self.status = other.status;
        }
        self.rows_read += other.rows_read;
        self.pending.extend(other.pending.iter().cloned());
    }
}

impl ResultFrame {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows for one measure.
    pub fn for_measure(&self, measure_id: &str) -> Vec<&ScoreRow> {
        self.rows
            .iter()
            .filter(|r| r.measure_id == measure_id)
            .collect()
    }

    /// Group score for a `(measure, hypothesis)` pair, if present.
    pub fn group_score(&self, measure_id: &str, hyp_id: &str) -> Option<f32> {
        self.rows
            .iter()
            .find(|r| r.measure_id == measure_id && r.hyp_id == hyp_id)
            .map(|r| r.group_score)
    }

    /// Unit scores for a `(measure, hypothesis)` pair, ordered by unit.
    pub fn unit_scores(&self, measure_id: &str, hyp_id: &str) -> Vec<(usize, f32)> {
        let mut v: Vec<(usize, f32)> = self
            .rows
            .iter()
            .filter(|r| r.measure_id == measure_id && r.hyp_id == hyp_id)
            .map(|r| (r.unit, r.unit_score))
            .collect();
        v.sort_by_key(|&(u, _)| u);
        v
    }

    /// Materializes the frame as a relational table (schema of §4.1:
    /// `model_id, score_id, hyp_id, h_unit_id, val` plus the group score),
    /// enabling SQL-style post-processing.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(Schema::new(vec![
            ("model_id", ColType::Str),
            ("group_id", ColType::Str),
            ("score_id", ColType::Str),
            ("hyp_id", ColType::Str),
            ("h_unit_id", ColType::Int),
            ("val", ColType::Float),
            ("group_val", ColType::Float),
        ]));
        for r in &self.rows {
            t.push_row(vec![
                Value::Str(r.model_id.clone()),
                Value::Str(r.group_id.clone()),
                Value::Str(r.measure_id.clone()),
                Value::Str(r.hyp_id.clone()),
                Value::Int(r.unit as i64),
                Value::Float(r.unit_score),
                Value::Float(r.group_score),
            ])
            .expect("schema matches");
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> ResultFrame {
        let mut rows = Vec::new();
        for (unit, score) in [(0usize, 0.9f32), (1, -0.95), (2, 0.1)] {
            rows.push(ScoreRow {
                model_id: "m".into(),
                group_id: "all".into(),
                measure_id: "corr".into(),
                hyp_id: "kw:SELECT".into(),
                unit,
                unit_score: score,
                group_score: 0.95,
            });
        }
        rows.push(ScoreRow {
            model_id: "m".into(),
            group_id: "all".into(),
            measure_id: "logreg_l1".into(),
            hyp_id: "kw:FROM".into(),
            unit: 0,
            unit_score: 0.4,
            group_score: 0.8,
        });
        ResultFrame { rows }
    }

    #[test]
    fn filters_by_measure() {
        let f = frame();
        assert_eq!(f.for_measure("corr").len(), 3);
        assert_eq!(f.for_measure("logreg_l1").len(), 1);
    }

    #[test]
    fn group_and_unit_score_lookups() {
        let f = frame();
        assert_eq!(f.group_score("logreg_l1", "kw:FROM"), Some(0.8));
        assert_eq!(f.group_score("corr", "missing"), None);
        let us = f.unit_scores("corr", "kw:SELECT");
        assert_eq!(us.len(), 3);
        assert_eq!(us[0], (0, 0.9));
    }

    #[test]
    fn to_table_roundtrip() {
        let f = frame();
        let t = f.to_table();
        assert_eq!(t.len(), 4);
        assert_eq!(t.value(0, "score_id"), Some(Value::Str("corr".into())));
        assert_eq!(t.value(3, "hyp_id"), Some(Value::Str("kw:FROM".into())));
    }

    #[test]
    fn completion_merge_keeps_most_severe_status_and_accumulates() {
        let pending = |h: &str| PendingPair {
            group_id: "g".into(),
            measure_id: "corr".into(),
            hyp_id: h.into(),
            error: 0.5,
            epsilon: 0.025,
        };
        let mut total = Completion {
            status: CompletionStatus::Converged,
            rows_read: 10,
            pending: vec![],
        };
        total.merge(&Completion {
            status: CompletionStatus::DeadlineExceeded,
            rows_read: 7,
            pending: vec![pending("a")],
        });
        assert_eq!(total.status, CompletionStatus::DeadlineExceeded);
        assert_eq!(total.rows_read, 17);
        assert_eq!(total.pending.len(), 1);
        // A less severe status never downgrades the aggregate...
        total.merge(&Completion {
            status: CompletionStatus::BudgetExhausted,
            rows_read: 3,
            pending: vec![],
        });
        assert_eq!(total.status, CompletionStatus::DeadlineExceeded);
        // ...but a cancellation outranks everything.
        total.merge(&Completion {
            status: CompletionStatus::Cancelled,
            rows_read: 0,
            pending: vec![pending("b")],
        });
        assert_eq!(total.status, CompletionStatus::Cancelled);
        assert_eq!(total.rows_read, 20);
        assert_eq!(total.pending.len(), 2);
        assert!(total.status.is_interrupted());
        assert!(!total.is_complete());
        assert!(Completion::default().is_complete());
    }
}
