//! Perturbation-based verification (paper §4.4, Appendix C).
//!
//! DNI is a mining procedure over many (unit, hypothesis) pairs and is
//! exposed to multiple-hypothesis-testing false positives. DeepBase's
//! verification works like a randomized controlled trial: for sampled
//! record positions it swaps the symbol with a **baseline** alternative
//! (hypothesis behavior at that position unchanged) and a **treatment**
//! alternative (behavior changes), re-extracts activations, and measures
//! how well the Δ-activation vectors of the high-scoring units separate
//! the two perturbation classes — scored with the silhouette statistic.
//! Genuinely hypothesis-tracking units react to treatment swaps and not to
//! baseline swaps; units flagged by chance do not.
//!
//! [`verify_units`] calls the extractor directly and is deliberately *not*
//! a client of the streaming pass: the pass exists to share extraction,
//! reuse stored behaviors and feed measure states, and none of that can
//! apply here. Every perturbed record is synthesized per call, so it
//! never equals a stored record's fingerprint and no store column could
//! serve it; its activations are differenced against the base record's
//! and dropped, so there is nothing to cache or write back; and no
//! measure runs — the silhouette is taken over the Δ vectors, not over a
//! (unit, hypothesis) stream.

use crate::error::DniError;
use crate::extract::Extractor;
use crate::model::{Dataset, HypothesisFn, Record};
use deepbase_stats::silhouette_score;
use rand::seq::SliceRandom;
use rand::Rng;

/// Verification parameters.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Number of records sampled.
    pub max_records: usize,
    /// Positions perturbed per record.
    pub positions_per_record: usize,
    /// Candidate replacement symbols tried per position.
    pub candidates_per_position: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            max_records: 32,
            positions_per_record: 3,
            candidates_per_position: 8,
            seed: 0,
        }
    }
}

/// Label of baseline perturbations.
pub(crate) const BASELINE: usize = 0;
/// Label of treatment perturbations.
pub(crate) const TREATMENT: usize = 1;

/// Verification output: labelled Δ-activation points and their silhouette.
#[derive(Debug, Clone)]
pub struct VerificationResult {
    /// Δ-activation vectors, one per perturbation (restricted to the
    /// verified units).
    pub points: Vec<Vec<f32>>,
    /// Label per point: 0 for a baseline perturbation, 1 for a treatment.
    pub labels: Vec<usize>,
    /// Silhouette score of the two clusters (the §4.4 statistic).
    pub silhouette: f32,
}

impl VerificationResult {
    /// Number of baseline perturbations collected.
    pub fn n_baseline(&self) -> usize {
        self.labels.iter().filter(|&&l| l == BASELINE).count()
    }

    /// Number of treatment perturbations collected.
    pub fn n_treatment(&self) -> usize {
        self.labels.iter().filter(|&&l| l == TREATMENT).count()
    }
}

/// Runs the verification procedure for `units` against `hypothesis`.
///
/// `alphabet` lists the candidate replacement symbols, and
/// `symbol_char` maps a symbol id to the character used in record text
/// (so hypothesis functions — which read text — see the same perturbation
/// the model sees).
pub fn verify_units(
    extractor: &dyn Extractor,
    dataset: &Dataset,
    hypothesis: &dyn HypothesisFn,
    units: &[usize],
    alphabet: &[u32],
    symbol_char: &dyn Fn(u32) -> char,
    config: &VerifyConfig,
) -> Result<VerificationResult, DniError> {
    let mut rng = deepbase_tensor::init::seeded_rng(config.seed);
    let ns = dataset.ns;
    let mut points = Vec::new();
    let mut labels = Vec::new();

    let mut record_ids: Vec<usize> = (0..dataset.len()).collect();
    record_ids.shuffle(&mut rng);
    record_ids.truncate(config.max_records);

    for &rid in &record_ids {
        let record = &dataset.records[rid];
        if record.visible == 0 {
            continue;
        }
        let base_behavior = hypothesis.behavior(record)?;
        let base_acts = extractor.extract(&[record], units);

        for _ in 0..config.positions_per_record {
            // Perturb only visible (non-padding) positions.
            let pad = ns - record.visible;
            let k = pad + rng.gen_range(0..record.visible);
            let original = record.symbols[k];

            let mut candidates: Vec<u32> = alphabet
                .iter()
                .copied()
                .filter(|&s| s != original)
                .collect();
            candidates.shuffle(&mut rng);
            candidates.truncate(config.candidates_per_position);

            let mut picked_baseline = false;
            let mut picked_treatment = false;
            for &cand in &candidates {
                if picked_baseline && picked_treatment {
                    break;
                }
                let perturbed = perturb_record(record, k, cand, symbol_char);
                let pert_behavior = hypothesis.behavior(&perturbed)?;
                let same = (pert_behavior[k] - base_behavior[k]).abs() < 1e-6;
                // Take at most one baseline and one treatment per position
                // so classes stay balanced.
                if same && picked_baseline {
                    continue;
                }
                if !same && picked_treatment {
                    continue;
                }
                let pert_acts = extractor.extract(&[&perturbed], units);
                let delta: Vec<f32> = (0..units.len())
                    .map(|u| pert_acts.get(k, u) - base_acts.get(k, u))
                    .collect();
                points.push(delta);
                if same {
                    labels.push(BASELINE);
                    picked_baseline = true;
                } else {
                    labels.push(TREATMENT);
                    picked_treatment = true;
                }
            }
        }
    }

    let silhouette = silhouette_score(&points, &labels);
    Ok(VerificationResult {
        points,
        labels,
        silhouette,
    })
}

fn perturb_record(
    record: &Record,
    position: usize,
    new_symbol: u32,
    symbol_char: &dyn Fn(u32) -> char,
) -> Record {
    let mut perturbed = record.clone();
    perturbed.symbols[position] = new_symbol;
    let mut chars: Vec<char> = perturbed.text.chars().collect();
    if position < chars.len() {
        chars[position] = symbol_char(new_symbol);
    }
    perturbed.text = chars.into_iter().collect();
    // The perturbed window no longer matches its source string; make it
    // self-contained so parse-derived hypotheses re-evaluate it.
    perturbed.source_text = std::sync::Arc::new(perturbed.text.clone());
    perturbed.offset = 0;
    perturbed.visible = perturbed.symbols.len();
    perturbed.source_id = usize::MAX - record.id; // avoid parse-cache hits
    perturbed
}

/// Projects high-dimensional Δ-activation points onto their two principal
/// components (power iteration), for Fig. 13a-style cluster plots.
pub fn project_2d(points: &[Vec<f32>]) -> Vec<(f32, f32)> {
    if points.is_empty() {
        return Vec::new();
    }
    let dim = points[0].len();
    if dim == 0 {
        return points.iter().map(|_| (0.0, 0.0)).collect();
    }
    // Center the data.
    let n = points.len() as f32;
    let mean: Vec<f32> = (0..dim)
        .map(|d| points.iter().map(|p| p[d]).sum::<f32>() / n)
        .collect();
    let centered: Vec<Vec<f32>> = points
        .iter()
        .map(|p| p.iter().zip(mean.iter()).map(|(v, m)| v - m).collect())
        .collect();

    let pc1 = power_iteration(&centered, None);
    let pc2 = power_iteration(&centered, Some(&pc1));
    centered
        .iter()
        .map(|p| (dot(p, &pc1), dot(p, &pc2)))
        .collect()
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

fn power_iteration(data: &[Vec<f32>], orthogonal_to: Option<&[f32]>) -> Vec<f32> {
    let dim = data[0].len();
    let mut v: Vec<f32> = (0..dim)
        .map(|i| ((i * 37 + 11) % 17) as f32 / 17.0 + 0.1)
        .collect();
    for _ in 0..50 {
        if let Some(prev) = orthogonal_to {
            let proj = dot(&v, prev);
            for (x, p) in v.iter_mut().zip(prev.iter()) {
                *x -= proj * p;
            }
        }
        // w = C v  computed as  sum_i (x_i . v) x_i
        let mut w = vec![0.0f32; dim];
        for row in data {
            let s = dot(row, &v);
            for (wi, xi) in w.iter_mut().zip(row.iter()) {
                *wi += s * xi;
            }
        }
        let norm = dot(&w, &w).sqrt();
        if norm < 1e-12 {
            return v;
        }
        for (vi, wi) in v.iter_mut().zip(w.iter()) {
            *vi = wi / norm;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FnHypothesis;
    use deepbase_tensor::Matrix;

    /// A synthetic extractor whose unit 0 is exactly the "is digit 1"
    /// detector and unit 1 is constant: swapping 1 -> 0 (treatment for the
    /// "ones" hypothesis) changes unit 0; swapping 2 -> 3 (baseline) does
    /// not.
    struct DetectorExtractor;

    impl Extractor for DetectorExtractor {
        fn n_units(&self) -> usize {
            2
        }

        fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
            let ns = records.first().map(|r| r.symbols.len()).unwrap_or(0);
            let mut out = Matrix::zeros(records.len() * ns, unit_ids.len());
            for (ri, rec) in records.iter().enumerate() {
                for (t, &s) in rec.symbols.iter().enumerate() {
                    for (c, &u) in unit_ids.iter().enumerate() {
                        let v = match u {
                            0 => {
                                if s == 1 {
                                    1.0
                                } else {
                                    0.0
                                }
                            }
                            _ => 0.5,
                        };
                        out.set(ri * ns + t, c, v);
                    }
                }
            }
            out
        }
    }

    fn digit_dataset() -> Dataset {
        // Records over symbols 0..4 rendered as digit chars.
        let records: Vec<Record> = (0..12)
            .map(|i| {
                let symbols: Vec<u32> = (0..8).map(|t| ((i + t) % 4) as u32).collect();
                let text: String = symbols
                    .iter()
                    .map(|&s| char::from_digit(s, 10).unwrap())
                    .collect();
                Record::standalone(i, symbols, text)
            })
            .collect();
        Dataset::new("digits", 8, records).unwrap()
    }

    fn ones_hypothesis() -> FnHypothesis {
        FnHypothesis::char_class("ones", |c| c == '1')
    }

    #[test]
    fn detector_units_separate_clusters() {
        let dataset = digit_dataset();
        let hyp = ones_hypothesis();
        let result = verify_units(
            &DetectorExtractor,
            &dataset,
            &hyp,
            &[0],
            &[0, 1, 2, 3],
            &|s| char::from_digit(s, 10).unwrap(),
            &VerifyConfig {
                max_records: 12,
                positions_per_record: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            result.n_baseline() > 5,
            "baseline count {}",
            result.n_baseline()
        );
        assert!(
            result.n_treatment() > 5,
            "treatment count {}",
            result.n_treatment()
        );
        // Treatment deltas point both ways (adding vs. removing a match),
        // which bounds the silhouette below 1; the paper's Fig. 13b
        // reports ~0.4–0.6 for genuinely specialized units.
        assert!(
            result.silhouette > 0.35,
            "detector unit must separate: {}",
            result.silhouette
        );
    }

    #[test]
    fn constant_units_do_not_separate() {
        let dataset = digit_dataset();
        let hyp = ones_hypothesis();
        let result = verify_units(
            &DetectorExtractor,
            &dataset,
            &hyp,
            &[1], // the constant unit
            &[0, 1, 2, 3],
            &|s| char::from_digit(s, 10).unwrap(),
            &VerifyConfig::default(),
        )
        .unwrap();
        assert!(
            result.silhouette < 0.3,
            "constant unit must not separate: {}",
            result.silhouette
        );
    }

    #[test]
    fn perturbed_record_is_self_contained() {
        let rec = Record::standalone(3, vec![0, 1, 2], "012".into());
        let p = perturb_record(&rec, 1, 3, &|s| char::from_digit(s, 10).unwrap());
        assert_eq!(p.symbols, vec![0, 3, 2]);
        assert_eq!(p.text, "032");
        assert_eq!(p.source_text.as_str(), "032");
        assert_ne!(p.source_id, rec.source_id);
    }

    #[test]
    fn projection_separates_separable_clusters() {
        // Two blobs along dimension 7 of 10-D points.
        let mut points = Vec::new();
        for i in 0..30 {
            let mut p = vec![0.1 * (i % 5) as f32; 10];
            p[7] = if i % 2 == 0 { 5.0 } else { -5.0 };
            points.push(p);
        }
        let proj = project_2d(&points);
        assert_eq!(proj.len(), 30);
        // First PC must carry the blob separation.
        let even_mean: f32 = proj.iter().step_by(2).map(|p| p.0).sum::<f32>() / 15.0;
        let odd_mean: f32 = proj.iter().skip(1).step_by(2).map(|p| p.0).sum::<f32>() / 15.0;
        assert!(
            (even_mean - odd_mean).abs() > 5.0,
            "{even_mean} vs {odd_mean}"
        );
    }

    #[test]
    fn projection_handles_degenerate_input() {
        assert!(project_2d(&[]).is_empty());
        let constant = vec![vec![1.0, 1.0]; 4];
        let proj = project_2d(&constant);
        assert_eq!(proj.len(), 4);
        assert!(proj.iter().all(|p| p.0.abs() < 1e-4));
    }

    #[test]
    fn empty_verification_is_silent() {
        let dataset = Dataset::new("e", 4, vec![]).unwrap();
        let hyp = ones_hypothesis();
        let result = verify_units(
            &DetectorExtractor,
            &dataset,
            &hyp,
            &[0],
            &[0, 1],
            &|s| char::from_digit(s, 10).unwrap(),
            &VerifyConfig::default(),
        )
        .unwrap();
        assert!(result.points.is_empty());
        assert_eq!(result.silhouette, 0.0);
    }
}
