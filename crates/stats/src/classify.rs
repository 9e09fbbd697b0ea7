//! Classification quality metrics: binary confusion counts and F1, and
//! per-class precision of multiclass predictions.
//!
//! These score DeepBase's joint measures: logistic-regression probes report
//! F1 (the paper's default) or per-class precision (the Belinkov et al.
//! replication in §6.3.1).

/// Binary confusion counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Confusion {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl Confusion {
    /// Tallies binary predictions against targets (both thresholded at 0.5).
    pub(crate) fn from_predictions(predicted: &[f32], target: &[f32]) -> Self {
        assert_eq!(predicted.len(), target.len(), "prediction count mismatch");
        let mut c = Confusion::default();
        for (&p, &t) in predicted.iter().zip(target.iter()) {
            match (p > 0.5, t > 0.5) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, true) => c.fn_ += 1,
                (false, false) => c.tn += 1,
            }
        }
        c
    }

    /// Precision = tp / (tp + fp); 0 when undefined.
    pub(crate) fn precision(&self) -> f32 {
        let denom = self.tp + self.fp;
        if denom == 0 {
            0.0
        } else {
            self.tp as f32 / denom as f32
        }
    }

    /// Recall = tp / (tp + fn); 0 when undefined.
    pub(crate) fn recall(&self) -> f32 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            0.0
        } else {
            self.tp as f32 / denom as f32
        }
    }

    /// F1 = harmonic mean of precision and recall; 0 when undefined.
    pub(crate) fn f1(&self) -> f32 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Binary F1 of thresholded predictions.
pub fn f1_score(predicted: &[f32], target: &[f32]) -> f32 {
    Confusion::from_predictions(predicted, target).f1()
}

/// Per-class precision for multiclass predictions over `k` classes.
/// `result[c]` is precision of class `c` (0 when never predicted).
pub fn per_class_precision(predicted: &[usize], target: &[usize], k: usize) -> Vec<f32> {
    assert_eq!(predicted.len(), target.len());
    let mut tp = vec![0usize; k];
    let mut pred_count = vec![0usize; k];
    for (&p, &t) in predicted.iter().zip(target.iter()) {
        if p < k {
            pred_count[p] += 1;
            if p == t {
                tp[p] += 1;
            }
        }
    }
    (0..k)
        .map(|c| {
            if pred_count[c] == 0 {
                0.0
            } else {
                tp[c] as f32 / pred_count[c] as f32
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts() {
        let pred = [1.0f32, 1.0, 0.0, 0.0, 1.0];
        let targ = [1.0f32, 0.0, 0.0, 1.0, 1.0];
        let c = Confusion::from_predictions(&pred, &targ);
        assert_eq!(
            c,
            Confusion {
                tp: 2,
                fp: 1,
                tn: 1,
                fn_: 1
            }
        );
    }

    #[test]
    fn perfect_predictions_give_unit_scores() {
        let v = [1.0f32, 0.0, 1.0, 0.0];
        let c = Confusion::from_predictions(&v, &v);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
        assert_eq!(c.f1(), 1.0);
    }

    #[test]
    fn degenerate_scores_are_zero_not_nan() {
        let c = Confusion::from_predictions(&[0.0f32; 4], &[0.0f32; 4]);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.f1(), 0.0);
    }

    #[test]
    fn f1_known_value() {
        // precision 2/3, recall 2/4 -> F1 = 2*(2/3)*(1/2)/(2/3+1/2) = 4/7.
        let pred = [1.0f32, 1.0, 1.0, 0.0, 0.0, 0.0];
        let targ = [1.0f32, 1.0, 0.0, 1.0, 1.0, 0.0];
        assert!((f1_score(&pred, &targ) - 4.0 / 7.0).abs() < 1e-5);
    }

    #[test]
    fn per_class_precision_known_values() {
        let pred = [0usize, 0, 1, 1, 2];
        let targ = [0usize, 1, 1, 1, 0];
        let prec = per_class_precision(&pred, &targ, 3);
        assert!((prec[0] - 0.5).abs() < 1e-6);
        assert!((prec[1] - 1.0).abs() < 1e-6);
        assert_eq!(prec[2], 0.0);
    }

    #[test]
    fn scores_bounded_in_unit_interval() {
        let pred = [1.0f32, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0];
        let targ = [0.0f32, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0];
        let c = Confusion::from_predictions(&pred, &targ);
        for v in [c.precision(), c.recall(), c.f1()] {
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
