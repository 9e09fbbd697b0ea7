//! CNN inspection and the NetDissect comparison (paper Appendix E).
//!
//! NetDissect probes CNN channel activations against pixel-level concept
//! annotations: threshold each unit's activation map at a top quantile,
//! upsample to image resolution, and compute IoU against the concept
//! masks. The paper replicates this inside DeepBase (treating pixels as
//! symbols and masks as annotation hypotheses) and reports strongly
//! correlated scores with residual differences from the online quantile
//! approximation — both pipelines are implemented here, including that
//! approximation.
//!
//! The Broden dataset and VGG-16 are not shippable; the substitute is a
//! synthetic corpus of annotated shape images and the `deepbase-nn`
//! [`SmallCnn`] — a laptop-sized stand-in, like the simulated GPU of the
//! `engine` module docs (*Device → runtime mapping*).

use crate::extract::Extractor;
use crate::model::{Dataset, FnHypothesis, Record};
use deepbase_nn::{SmallCnn, Tensor3};
use deepbase_stats::P2Quantile;
use deepbase_tensor::Matrix;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// The annotated visual concepts of the synthetic Broden stand-in.
pub const CONCEPTS: &[&str] = &["square", "circle", "cross"];

/// One synthetic annotated image: pixels, per-concept masks, class label.
#[derive(Debug, Clone)]
pub struct ShapeImage {
    /// RGB-ish pixel volume (`3 x size x size`).
    pub pixels: Tensor3,
    /// Pixel masks per concept name (1.0 inside the concept).
    pub masks: HashMap<String, Matrix>,
    /// Class label = index of the drawn concept in [`CONCEPTS`].
    pub label: usize,
}

/// Generates `n` images of `size x size` pixels, each containing one shape
/// on a noisy background, with exact pixel-level masks.
pub fn generate_shape_images(n: usize, size: usize, seed: u64) -> Vec<ShapeImage> {
    assert!(size >= 8, "images must be at least 8px");
    let mut rng = deepbase_tensor::init::seeded_rng(seed);
    (0..n)
        .map(|_| {
            let label = rng.gen_range(0..CONCEPTS.len());
            let half = size / 2;
            let cx = rng.gen_range(half / 2..size - half / 2);
            let cy = rng.gen_range(half / 2..size - half / 2);
            let r = rng.gen_range(2..=half / 2);
            let mut mask = Matrix::zeros(size, size);
            for y in 0..size {
                for x in 0..size {
                    let dy = y as i64 - cy as i64;
                    let dx = x as i64 - cx as i64;
                    let inside = match CONCEPTS[label] {
                        "square" => dy.abs() <= r as i64 && dx.abs() <= r as i64,
                        "circle" => dy * dy + dx * dx <= (r * r) as i64,
                        _ => {
                            (dy.abs() <= 1 && dx.abs() <= r as i64)
                                || (dx.abs() <= 1 && dy.abs() <= r as i64)
                        }
                    };
                    if inside {
                        mask.set(y, x, 1.0);
                    }
                }
            }
            // Each concept paints a distinct channel; background is noise.
            let pixels = Tensor3::from_fn(3, size, size, |c, y, x| {
                let noise = rng.gen_range(0.0..0.15);
                if mask.get(y, x) > 0.5 && c == label {
                    0.85 + noise
                } else {
                    noise
                }
            });
            let mut masks = HashMap::new();
            for (ci, &concept) in CONCEPTS.iter().enumerate() {
                masks.insert(
                    concept.to_string(),
                    if ci == label {
                        mask.clone()
                    } else {
                        Matrix::zeros(size, size)
                    },
                );
            }
            ShapeImage {
                pixels,
                masks,
                label,
            }
        })
        .collect()
}

/// Trains a [`SmallCnn`] to classify the shape corpus.
pub fn train_shape_cnn(
    images: &[ShapeImage],
    size: usize,
    epochs: usize,
    lr: f32,
    seed: u64,
) -> SmallCnn {
    let mut cnn = SmallCnn::new(3, size, 6, 8, CONCEPTS.len(), seed);
    for _ in 0..epochs {
        for img in images {
            cnn.train_example(&img.pixels, img.label, lr);
        }
    }
    cnn
}

/// Classification accuracy of a CNN on the corpus.
pub fn cnn_accuracy(cnn: &SmallCnn, images: &[ShapeImage]) -> f32 {
    if images.is_empty() {
        return 0.0;
    }
    let correct = images
        .iter()
        .filter(|img| cnn.predict(&img.pixels) == img.label)
        .count();
    correct as f32 / images.len() as f32
}

// ---------------------------------------------------------------------
// NetDissect reference pipeline
// ---------------------------------------------------------------------

/// NetDissect scores: IoU of each (unit, concept) pair.
///
/// Thresholds follow NetDissect: each unit's activation distribution over
/// the whole corpus is summarized by a streaming P² estimate of the
/// `top_quantile` (the online approximation the paper cites as a source of
/// score nondeterminism), maps are binarized at the threshold, upsampled,
/// and intersected with the concept masks.
pub fn netdissect_scores(
    cnn: &SmallCnn,
    images: &[ShapeImage],
    top_quantile: f64,
) -> Vec<(usize, String, f32)> {
    let n_units = cnn.units();
    // Pass 1: streaming quantile per unit.
    let mut quantiles: Vec<P2Quantile> = (0..n_units)
        .map(|_| P2Quantile::new(top_quantile))
        .collect();
    let mut all_maps: Vec<Vec<Matrix>> = Vec::with_capacity(images.len());
    for img in images {
        let maps = cnn.unit_maps(&img.pixels);
        for (u, map) in maps.iter().enumerate() {
            for &v in map.as_slice() {
                quantiles[u].push(v);
            }
        }
        all_maps.push(maps);
    }
    let thresholds: Vec<f32> = quantiles.iter().map(|q| q.estimate()).collect();

    // Pass 2: IoU of thresholded maps against each concept's masks.
    let mut scores = Vec::new();
    for u in 0..n_units {
        for &concept in CONCEPTS {
            let mut inter = 0usize;
            let mut union = 0usize;
            for (img, maps) in images.iter().zip(all_maps.iter()) {
                let mask = &img.masks[concept];
                let map = &maps[u];
                for (mv, kv) in map.as_slice().iter().zip(mask.as_slice().iter()) {
                    let on = *mv > thresholds[u];
                    let labelled = *kv > 0.5;
                    if on && labelled {
                        inter += 1;
                    }
                    if on || labelled {
                        union += 1;
                    }
                }
            }
            let iou = if union == 0 {
                0.0
            } else {
                inter as f32 / union as f32
            };
            scores.push((u, concept.to_string(), iou));
        }
    }
    scores
}

// ---------------------------------------------------------------------
// DeepBase pipeline over pixels-as-symbols
// ---------------------------------------------------------------------

/// Builds a pixel dataset: each image is a record whose `size*size`
/// symbols are its pixels (symbol ids unused; hypotheses read the masks).
pub fn pixel_dataset(images: &[ShapeImage], size: usize) -> Dataset {
    let ns = size * size;
    let records: Vec<Record> = images
        .iter()
        .enumerate()
        .map(|(i, _)| Record::standalone(i, vec![0; ns], String::new()))
        .collect();
    Dataset::new("shapes", ns, records).expect("fixed-size pixel records")
}

/// Concept-mask hypotheses: emits the image's concept mask as a pixel
/// behavior (the annotation adapter of §4.2 for vision data). A record
/// whose `source_id` names no image gets an empty behavior, which the
/// engine rejects as [`crate::error::DniError::BadHypothesisOutput`]
/// naming the hypothesis — an all-zero mask would score silently wrong.
pub fn concept_hypotheses(images: &[ShapeImage]) -> Vec<FnHypothesis> {
    let shared: Arc<Vec<ShapeImage>> = Arc::new(images.to_vec());
    CONCEPTS
        .iter()
        .map(|&concept| {
            let imgs = Arc::clone(&shared);
            let name = concept.to_string();
            FnHypothesis::new(&format!("concept:{concept}"), move |rec| {
                imgs.get(rec.source_id)
                    .map(|img| img.masks[&name].as_slice().to_vec())
                    .unwrap_or_default()
            })
        })
        .collect()
}

/// Extractor exposing each conv-2 channel as one unit whose behavior is
/// its upsampled activation map flattened over pixels.
pub struct CnnPixelExtractor<'m> {
    cnn: &'m SmallCnn,
    images: Arc<Vec<ShapeImage>>,
    size: usize,
}

impl<'m> CnnPixelExtractor<'m> {
    /// Binds a CNN to its image corpus.
    pub fn new(cnn: &'m SmallCnn, images: &[ShapeImage], size: usize) -> Self {
        CnnPixelExtractor {
            cnn,
            images: Arc::new(images.to_vec()),
            size,
        }
    }
}

impl Extractor for CnnPixelExtractor<'_> {
    fn n_units(&self) -> usize {
        self.cnn.units()
    }

    /// Panics when a record's `source_id` names no image of the corpus
    /// (the plan contains it to that query as `DniError::Internal`): its
    /// rows would otherwise be zeros that score silently wrong.
    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        let images: Vec<&Tensor3> = records
            .iter()
            .map(|rec| match self.images.get(rec.source_id) {
                Some(img) => &img.pixels,
                None => panic!(
                    "record {} names source id {}, but the CNN extractor holds {} images",
                    rec.id,
                    rec.source_id,
                    self.images.len()
                ),
            })
            .collect();
        let mut out = Matrix::zeros(records.len() * self.size * self.size, unit_ids.len());
        self.cnn
            .unit_pixels_batch(&images, unit_ids, out.as_mut_slice());
        out
    }
}

/// DeepBase-side NetDissect analog: Jaccard of each unit's top-quantile
/// pixels against each concept, via the standard engine path. Returns the
/// same `(unit, concept, score)` triples as [`netdissect_scores`] so the
/// Fig. 15 harness can scatter them.
pub fn deepbase_cnn_scores(
    cnn: &SmallCnn,
    images: &[ShapeImage],
    size: usize,
    top_quantile: f32,
) -> Result<Vec<(usize, String, f32)>, crate::error::DniError> {
    use crate::engine::{inspect_as, EngineKind, InspectionConfig, InspectionRequest};
    use crate::measure::BufferedMeasure;
    use crate::model::UnitGroup;

    let dataset = pixel_dataset(images, size);
    let hypotheses = concept_hypotheses(images);
    let extractor = CnnPixelExtractor::new(cnn, images, size);
    let measure = BufferedMeasure::jaccard("jaccard", top_quantile, usize::MAX);
    let hyp_refs: Vec<&dyn crate::model::HypothesisFn> = hypotheses
        .iter()
        .map(|h| h as &dyn crate::model::HypothesisFn)
        .collect();
    let request = InspectionRequest {
        model_id: "shape_cnn".into(),
        extractor: &extractor,
        groups: vec![UnitGroup::all(cnn.units())],
        dataset: &dataset,
        hypotheses: hyp_refs,
        measures: vec![&measure],
    };
    // Exact scores: disable early stopping by materializing everything.
    let (frame, _) = inspect_as(EngineKind::PyBase, &request, &InspectionConfig::default())?;
    let mut out = Vec::new();
    for (ci, &concept) in CONCEPTS.iter().enumerate() {
        let hyp_id = format!("concept:{}", concept);
        for (unit, score) in frame.unit_scores("jaccard", &hyp_id) {
            out.push((unit, CONCEPTS[ci].to_string(), score));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn images_have_consistent_masks() {
        let images = generate_shape_images(10, 16, 1);
        assert_eq!(images.len(), 10);
        for img in &images {
            assert_eq!(img.masks.len(), CONCEPTS.len());
            // Only the labelled concept has a non-empty mask.
            for (ci, &c) in CONCEPTS.iter().enumerate() {
                let sum = img.masks[c].sum();
                if ci == img.label {
                    assert!(sum > 0.0, "labelled mask must be non-empty");
                } else {
                    assert_eq!(sum, 0.0);
                }
            }
        }
    }

    #[test]
    fn shape_pixels_are_bright_inside_mask() {
        let images = generate_shape_images(5, 16, 2);
        for img in &images {
            let mask = &img.masks[CONCEPTS[img.label]];
            for y in 0..16 {
                for x in 0..16 {
                    let v = img.pixels.get(img.label, y, x);
                    if mask.get(y, x) > 0.5 {
                        assert!(v > 0.5, "inside pixels bright");
                    }
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_shape_images(4, 16, 9);
        let b = generate_shape_images(4, 16, 9);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.pixels.as_slice(), y.pixels.as_slice());
        }
    }

    #[test]
    fn cnn_learns_shape_classification() {
        let images = generate_shape_images(60, 16, 3);
        let cnn = train_shape_cnn(&images, 16, 8, 0.01, 4);
        let acc = cnn_accuracy(&cnn, &images);
        assert!(acc > 0.7, "CNN accuracy {acc}");
    }

    #[test]
    fn netdissect_scores_cover_all_pairs() {
        let images = generate_shape_images(8, 16, 5);
        let cnn = SmallCnn::new(3, 16, 4, 6, 3, 6);
        let scores = netdissect_scores(&cnn, &images, 0.95);
        assert_eq!(scores.len(), 6 * CONCEPTS.len());
        for (_, _, iou) in &scores {
            assert!((0.0..=1.0).contains(iou));
        }
    }

    #[test]
    fn pixel_dataset_and_hypotheses_align() {
        let images = generate_shape_images(6, 16, 7);
        let dataset = pixel_dataset(&images, 16);
        assert_eq!(dataset.ns, 256);
        let hyps = concept_hypotheses(&images);
        use crate::model::HypothesisFn;
        for (i, img) in images.iter().enumerate() {
            let b = hyps[img.label].behavior(&dataset.records[i]).unwrap();
            assert_eq!(b.len(), 256);
            let expected: f32 = img.masks[CONCEPTS[img.label]].sum();
            assert_eq!(b.iter().sum::<f32>(), expected);
        }
    }

    #[test]
    fn deepbase_and_netdissect_scores_correlate() {
        // Even on an untrained CNN both pipelines score the same unit
        // behaviors, so their scores must correlate strongly (Fig. 15).
        let images = generate_shape_images(12, 16, 8);
        let cnn = train_shape_cnn(&images, 16, 2, 0.01, 9);
        let nd = netdissect_scores(&cnn, &images, 0.95);
        let db = deepbase_cnn_scores(&cnn, &images, 16, 0.95).unwrap();
        assert_eq!(nd.len(), db.len());
        let xs: Vec<f32> = nd.iter().map(|s| s.2).collect();
        // Align by (unit, concept).
        let mut db_map = std::collections::HashMap::new();
        for (u, c, s) in &db {
            db_map.insert((*u, c.clone()), *s);
        }
        let ys: Vec<f32> = nd
            .iter()
            .map(|(u, c, _)| db_map[&(*u, c.clone())])
            .collect();
        let r = deepbase_stats::pearson(&xs, &ys);
        assert!(r > 0.6, "pipeline score correlation {r}");
    }
}
