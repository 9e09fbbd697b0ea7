//! Statistical affinity measures (paper §4.3) behind a uniform
//! incremental interface.
//!
//! Every measure exposes the paper's `process_block` API: feed a block of
//! unit behaviors + hypothesis behaviors, get back an error estimate that
//! the engine compares against the user's convergence threshold
//! (§5.2.2, early stopping). A measure whose hypotheses share work
//! additionally exposes a **merged** state covering a whole hypothesis
//! list at once (§5.2.1) — exact, because what is shared does not depend
//! on the hypothesis:
//!
//! * the logistic-regression probes train all hypotheses as one
//!   multi-output model (model merging; per-hypothesis losses and
//!   parameters are independent);
//! * the buffered measures (`jaccard`, `mutual_info`, `group_mi`) keep the
//!   capped unit sample **once**, next to one column per hypothesis, and
//!   derive the per-unit half of a score — the Jaccard threshold, the MI
//!   bin assignment — once per unit instead of once per pair.
//!
//! In both families the per-pair state is the merged struct with one
//! hypothesis, so there is one implementation of each; the per-pair form
//! is what carries `merge_from` / `serialize_state` for segmented and
//! view passes.

use deepbase_stats::{
    baselines, corr, corr::StreamingPearson, descriptive, mi, quantile, ConvergenceTracker,
    LogRegConfig, MultiLogReg, Z_95,
};
use deepbase_store::durable::{ByteReader, ByteWriter};
use deepbase_tensor::Matrix;

/// Whether a measure scores units one at a time or a group jointly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureKind {
    /// Per-unit scores; parallelizable across units (§4.3).
    Independent,
    /// One group score plus per-unit scores from a joint model.
    Joint,
}

/// A statistical affinity measure.
pub trait Measure: Send + Sync {
    /// Stable identifier (`corr`, `logreg_l1`, …).
    fn id(&self) -> &str;

    /// Independent or joint.
    fn kind(&self) -> MeasureKind;

    /// Fresh per-(unit-group, hypothesis) incremental state.
    fn new_state(&self, n_units: usize) -> Box<dyn MeasureState>;

    /// Fresh merged state covering `n_hyps` hypotheses at once, if the
    /// measure supports model merging.
    fn new_merged_state(&self, _n_units: usize, _n_hyps: usize) -> Option<Box<dyn MergedState>> {
        None
    }

    /// Default convergence threshold ε (paper §6.2: 0.025 for correlation,
    /// 0.01 for logistic regression).
    fn default_epsilon(&self) -> f32;

    /// True when states of this measure can be combined across dataset
    /// segments via [`MeasureState::merge_from`] with the same result as
    /// one pass over the concatenated stream. Measures that cannot
    /// (order-dependent SGD probes like logistic regression) return
    /// `false`, and the planner rejects them on segmented datasets with a
    /// typed error instead of a silently wrong cross-segment score.
    fn supports_segment_merge(&self) -> bool {
        false
    }

    /// Reconstructs a state of this measure from bytes produced by
    /// [`MeasureState::serialize_state`] — the durable half of
    /// materialized views: a refresh revives the stored fold point and
    /// merges only new segments into it. Bit-exact: the revived state's
    /// scores and subsequent merges are identical to the original's.
    /// `None` (the default, and always for non-mergeable measures) means
    /// the bytes were not produced by this measure/shape or the measure
    /// does not support durable states.
    fn deserialize_state(&self, _n_units: usize, _bytes: &[u8]) -> Option<Box<dyn MeasureState>> {
        None
    }
}

/// Incremental state for one (unit group, hypothesis) pair.
pub trait MeasureState: Send {
    /// Consumes a block (`rows x n_units` behaviors, `rows` hypothesis
    /// values) and returns the current error estimate (∞ until estimable).
    fn process_block(&mut self, units: &Matrix, hyp: &[f32]) -> f32;

    /// Current per-unit scores.
    fn unit_scores(&self) -> Vec<f32>;

    /// Current group score.
    fn group_score(&self) -> f32;

    /// The pair's final `(unit scores, group score)`, bit-identical to
    /// the two calls above — the one call the engines emit result rows
    /// from. States whose group score is a function of their unit scores
    /// override it so the expensive half is computed once.
    fn final_scores(&self) -> (Vec<f32>, f32) {
        (self.unit_scores(), self.group_score())
    }

    /// Self as `Any`, so sibling states of the same concrete type can
    /// downcast each other inside [`MeasureState::merge_from`].
    fn as_any(&self) -> &dyn std::any::Any;

    /// Folds another state of the **same measure and unit group** (fed a
    /// disjoint record range, e.g. one dataset segment) into this one.
    /// Returns `false` when the measure does not support merging (the
    /// default) or `other` is not the expected concrete type; the engine
    /// treats `false` on a path that requires merging as an internal
    /// error, because the planner gates those paths on
    /// [`Measure::supports_segment_merge`].
    fn merge_from(&mut self, _other: &dyn MeasureState) -> bool {
        false
    }

    /// The current convergence-error estimate, as the last
    /// [`MeasureState::process_block`] would have reported it — without
    /// consuming data. Lets the engine re-derive pending pairs after
    /// cross-segment merges. The default `∞` is only reached for states
    /// that never merge (their per-block return value is used instead).
    fn convergence_error(&self) -> f32 {
        f32::INFINITY
    }

    /// Serializes this state to bytes that the owning measure's
    /// [`Measure::deserialize_state`] revives bit-exactly (floats travel
    /// as raw bits). `None` (the default) for states without a durable
    /// form; mergeable measures must implement it for views to cover
    /// them.
    fn serialize_state(&self) -> Option<Vec<u8>> {
        None
    }
}

/// Incremental state shared across all hypotheses of one list.
pub trait MergedState: Send {
    /// Number of hypotheses the state covers.
    fn n_hyps(&self) -> usize;

    /// Consumes a block (`rows x n_units`, `rows x n_hyps`), returning the
    /// per-hypothesis error estimates.
    fn process_block(&mut self, units: &Matrix, hyps: &Matrix) -> Vec<f32>;

    /// Per-unit scores for one hypothesis.
    fn unit_scores(&self, hyp: usize) -> Vec<f32>;

    /// Group score for one hypothesis.
    fn group_score(&self, hyp: usize) -> f32;

    /// Every hypothesis's final `(unit scores, group score)`, in list
    /// order and bit-identical to the two calls above — the one call the
    /// engines emit result rows from. States that derive something per
    /// unit and reuse it across hypotheses override it so that half is
    /// computed once.
    fn final_scores(&self) -> Vec<(Vec<f32>, f32)> {
        (0..self.n_hyps())
            .map(|h| (self.unit_scores(h), self.group_score(h)))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Correlation
// ---------------------------------------------------------------------

/// Pearson correlation per unit (the paper's default measure). The group
/// score is the maximum absolute per-unit correlation.
pub struct CorrelationMeasure;

impl Measure for CorrelationMeasure {
    fn id(&self) -> &str {
        "corr"
    }

    fn kind(&self) -> MeasureKind {
        MeasureKind::Independent
    }

    fn new_state(&self, n_units: usize) -> Box<dyn MeasureState> {
        Box::new(CorrState {
            accs: vec![StreamingPearson::new(); n_units],
        })
    }

    fn default_epsilon(&self) -> f32 {
        0.025
    }

    fn supports_segment_merge(&self) -> bool {
        true
    }

    fn deserialize_state(&self, n_units: usize, bytes: &[u8]) -> Option<Box<dyn MeasureState>> {
        let mut cur = ByteReader::new(bytes);
        if cur.u32()? != STATE_TAG_CORR || cur.u32()? as usize != n_units {
            return None;
        }
        let mut accs = Vec::with_capacity(n_units);
        for _ in 0..n_units {
            let mut bits = [0u64; 10];
            for b in &mut bits {
                *b = cur.u64()?;
            }
            accs.push(StreamingPearson::from_state_bits(bits));
        }
        cur.done()
            .then(|| Box::new(CorrState { accs }) as Box<dyn MeasureState>)
    }
}

/// Leading tag of each serialized-state family, so bytes of one measure
/// fed to another are rejected instead of misread.
const STATE_TAG_CORR: u32 = 1;
const STATE_TAG_BUFFERED: u32 = 2;
const STATE_TAG_DIFF_MEANS: u32 = 3;
const STATE_TAG_BASELINE: u32 = 4;
const STATE_TAG_GROUP_MI: u32 = 5;

struct CorrState {
    accs: Vec<StreamingPearson>,
}

impl MeasureState for CorrState {
    fn process_block(&mut self, units: &Matrix, hyp: &[f32]) -> f32 {
        // Hard asserts: the column walk below reads garbage (not merely a
        // prefix) if the block's column count drifts from the number of
        // accumulators, so misuse must fail loudly in release builds too.
        assert_eq!(units.rows(), hyp.len(), "corr block row mismatch");
        assert_eq!(
            units.cols(),
            self.accs.len(),
            "corr block unit-count mismatch"
        );
        // Column-wise update: the hypothesis moments are shared by every
        // unit and each unit's x-moments accumulate in registers, eight
        // unit columns per row sweep — instead of scattering every row
        // across all accumulators.
        corr::accumulate_columns(&mut self.accs, units.as_slice(), hyp);
        self.convergence_error()
    }

    fn unit_scores(&self) -> Vec<f32> {
        self.accs.iter().map(|a| a.correlation()).collect()
    }

    fn group_score(&self) -> f32 {
        self.accs
            .iter()
            .map(|a| a.correlation().abs())
            .fold(0.0, f32::max)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn merge_from(&mut self, other: &dyn MeasureState) -> bool {
        let Some(other) = other.as_any().downcast_ref::<CorrState>() else {
            return false;
        };
        if other.accs.len() != self.accs.len() {
            return false;
        }
        for (a, b) in self.accs.iter_mut().zip(other.accs.iter()) {
            a.merge(b);
        }
        true
    }

    fn convergence_error(&self) -> f32 {
        self.accs
            .iter()
            .map(|a| a.fisher_half_width(Z_95))
            .fold(0.0f32, f32::max)
    }

    fn serialize_state(&self) -> Option<Vec<u8>> {
        let mut out = ByteWriter::default();
        out.u32(STATE_TAG_CORR);
        out.u32(self.accs.len() as u32);
        for acc in &self.accs {
            for b in acc.state_bits() {
                out.u64(b);
            }
        }
        Some(out.0)
    }
}

// ---------------------------------------------------------------------
// Mutual information
// ---------------------------------------------------------------------

/// Binned mutual information per unit (Morcos et al.-style). Buffers up to
/// `max_buffer` symbols (quantile binning needs the sample); the error
/// estimate is the standard `1/sqrt(n)` Monte-Carlo rate.
pub struct MutualInfoMeasure {
    /// Quantile bins for discretization.
    pub bins: usize,
    /// Buffer cap in symbols.
    pub max_buffer: usize,
}

impl Default for MutualInfoMeasure {
    fn default() -> Self {
        MutualInfoMeasure {
            bins: mi::DEFAULT_BINS,
            max_buffer: 65_536,
        }
    }
}

impl MutualInfoMeasure {
    fn sample(&self, n_units: usize, n_hyps: usize) -> BufferedSample {
        let score = BufferedScore::Mi(self.bins);
        BufferedSample::new(n_units, n_hyps, self.max_buffer, score)
    }
}

impl Measure for MutualInfoMeasure {
    fn id(&self) -> &str {
        "mutual_info"
    }

    fn kind(&self) -> MeasureKind {
        MeasureKind::Independent
    }

    fn new_state(&self, n_units: usize) -> Box<dyn MeasureState> {
        Box::new(BufferedState(self.sample(n_units, 1)))
    }

    fn new_merged_state(&self, n_units: usize, n_hyps: usize) -> Option<Box<dyn MergedState>> {
        Some(Box::new(self.sample(n_units, n_hyps)))
    }

    fn default_epsilon(&self) -> f32 {
        0.01
    }

    fn supports_segment_merge(&self) -> bool {
        true
    }

    fn deserialize_state(&self, n_units: usize, bytes: &[u8]) -> Option<Box<dyn MeasureState>> {
        BufferedState::decode(self.sample(n_units, 1), bytes)
    }
}

// ---------------------------------------------------------------------
// Jaccard (NetDissect-style IoU)
// ---------------------------------------------------------------------

/// Jaccard coefficient between the unit's top-quantile activations and a
/// binary hypothesis mask (NetDissect's IoU, Appendix E).
pub struct JaccardMeasure {
    /// Identifier — distinguishes the quantile variants: the library
    /// registers 0.995 as `jaccard` and 0.95 as `jaccard_q95`.
    pub name: String,
    /// Activations above this quantile count as "on" (NetDissect uses
    /// a high quantile such as 0.95–0.995).
    pub top_quantile: f32,
    /// Buffer cap in symbols.
    pub max_buffer: usize,
}

impl Default for JaccardMeasure {
    fn default() -> Self {
        JaccardMeasure {
            name: "jaccard_q95".into(),
            top_quantile: 0.95,
            max_buffer: 65_536,
        }
    }
}

impl JaccardMeasure {
    /// NetDissect's own 0.995 quantile: the library's `jaccard`.
    pub fn netdissect() -> Self {
        JaccardMeasure {
            name: "jaccard".into(),
            top_quantile: 0.995,
            ..Default::default()
        }
    }

    fn sample(&self, n_units: usize, n_hyps: usize) -> BufferedSample {
        let score = BufferedScore::Jaccard(self.top_quantile);
        BufferedSample::new(n_units, n_hyps, self.max_buffer, score)
    }
}

impl Measure for JaccardMeasure {
    fn id(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> MeasureKind {
        MeasureKind::Independent
    }

    fn new_state(&self, n_units: usize) -> Box<dyn MeasureState> {
        Box::new(BufferedState(self.sample(n_units, 1)))
    }

    fn new_merged_state(&self, n_units: usize, n_hyps: usize) -> Option<Box<dyn MergedState>> {
        Some(Box::new(self.sample(n_units, n_hyps)))
    }

    fn default_epsilon(&self) -> f32 {
        0.01
    }

    fn supports_segment_merge(&self) -> bool {
        true
    }

    fn deserialize_state(&self, n_units: usize, bytes: &[u8]) -> Option<Box<dyn MeasureState>> {
        BufferedState::decode(self.sample(n_units, 1), bytes)
    }
}

// ---------------------------------------------------------------------
// The shared sample behind the buffered measures
// ---------------------------------------------------------------------

/// What a buffered state computes from its sample. The group score is
/// the best unit score, except for group MI.
#[derive(Clone, Copy, PartialEq)]
enum BufferedScore {
    /// Binned MI per unit, over this many quantile bins.
    Mi(usize),
    /// [`BufferedScore::Mi`] whose group score is the multivariate MI of
    /// the whole unit group.
    GroupMi(usize),
    /// IoU of the activations above this quantile with the mask.
    Jaccard(f32),
}

impl BufferedScore {
    /// The words a serialized state opens with: family tag and score
    /// configuration, so bytes of e.g. `jaccard@0.95` are rejected by a
    /// `jaccard@0.995` measure (and group MI's by plain MI).
    fn header(self) -> Vec<u32> {
        match self {
            BufferedScore::Mi(bins) => vec![STATE_TAG_BUFFERED, 0, bins as u32],
            BufferedScore::Jaccard(q) => vec![STATE_TAG_BUFFERED, 1, q.to_bits()],
            BufferedScore::GroupMi(bins) => {
                vec![STATE_TAG_GROUP_MI, bins as u32, 0, bins as u32]
            }
        }
    }
}

/// The state of every measure that needs the sample rather than moments
/// of it: the first `max_buffer` rows of the stream, column-major — each
/// unit's buffer held **once**, next to one buffer per hypothesis — so
/// memory is `(units + hypotheses) × sample` and whatever a score derives
/// from a unit alone (its Jaccard threshold, its MI bin assignment) is
/// derived once and reused across the hypotheses. Directly, it is the
/// [`MergedState`] of a hypothesis list; wrapped in [`BufferedState`],
/// with one hypothesis, the per-pair state.
struct BufferedSample {
    unit_buffers: Vec<Vec<f32>>,
    hyp_buffers: Vec<Vec<f32>>,
    /// Rows buffered so far — the length of every buffer.
    rows: usize,
    max_buffer: usize,
    score: BufferedScore,
}

/// Appends the first `take` rows of each column of `block` (row-major) to
/// that column's buffer.
fn append_columns(buffers: &mut [Vec<f32>], block: &Matrix, take: usize) {
    // Hard assert, like `CorrState`'s: a drifted column count would
    // silently buffer a shorter or shuffled sample.
    assert_eq!(
        block.cols(),
        buffers.len(),
        "buffered block column-count mismatch"
    );
    let width = buffers.len();
    let data = &block.as_slice()[..take * width];
    for (c, buf) in buffers.iter_mut().enumerate() {
        buf.reserve(take);
        buf.extend(data.iter().skip(c).step_by(width));
    }
}

impl BufferedSample {
    fn new(n_units: usize, n_hyps: usize, max_buffer: usize, score: BufferedScore) -> Self {
        BufferedSample {
            unit_buffers: vec![Vec::new(); n_units],
            hyp_buffers: vec![Vec::new(); n_hyps],
            rows: 0,
            max_buffer,
            score,
        }
    }

    /// How many of a block's `rows` still fit under the cap, after the
    /// (hard) check that both halves of the block have that many.
    fn room(&self, units: &Matrix, rows: usize) -> usize {
        assert_eq!(units.rows(), rows, "buffered block row mismatch");
        self.max_buffer.saturating_sub(self.rows).min(rows)
    }

    fn convergence_error(&self) -> f32 {
        if self.rows < 8 {
            f32::INFINITY
        } else {
            1.0 / (self.rows as f32).sqrt()
        }
    }

    /// Final `(unit scores, group score)` of the hypotheses in `hyps`,
    /// with the per-unit half computed once for all of them.
    fn scores(&self, hyps: std::ops::Range<usize>) -> Vec<(Vec<f32>, f32)> {
        let best = |scores: &[f32]| scores.iter().copied().fold(0.0, f32::max);
        let hyp_buffers = &self.hyp_buffers[hyps];
        match self.score {
            BufferedScore::Jaccard(q) => {
                let thresholds: Vec<f32> = (self.unit_buffers.iter())
                    .map(|buf| quantile::quantile(buf, q))
                    .collect();
                let score_mask = |mask: &Vec<f32>| {
                    let unit_scores: Vec<f32> = (self.unit_buffers.iter().zip(&thresholds))
                        .map(|(buf, &t)| descriptive::jaccard_above(buf, mask, t))
                        .collect();
                    let group_score = best(&unit_scores);
                    (unit_scores, group_score)
                };
                hyp_buffers.iter().map(score_mask).collect()
            }
            BufferedScore::Mi(bins) | BufferedScore::GroupMi(bins) => {
                let unit_bins: Vec<Vec<usize>> = (self.unit_buffers.iter())
                    .map(|buf| quantile::quantile_bin(buf, bins))
                    .collect();
                let score_hyp = |hyp: &Vec<f32>| {
                    let hyp_bins = quantile::quantile_bin(hyp, bins);
                    let unit_scores: Vec<f32> = (unit_bins.iter())
                        .map(|unit| mi::mutual_information_discrete(unit, &hyp_bins))
                        .collect();
                    let group_score = match self.score {
                        BufferedScore::GroupMi(_) => {
                            mi::multivariate_mi_binned(&unit_bins, &hyp_bins, bins)
                        }
                        _ => best(&unit_scores),
                    };
                    (unit_scores, group_score)
                };
                hyp_buffers.iter().map(score_hyp).collect()
            }
        }
    }
}

impl MergedState for BufferedSample {
    fn n_hyps(&self) -> usize {
        self.hyp_buffers.len()
    }

    fn process_block(&mut self, units: &Matrix, hyps: &Matrix) -> Vec<f32> {
        let take = self.room(units, hyps.rows());
        append_columns(&mut self.unit_buffers, units, take);
        append_columns(&mut self.hyp_buffers, hyps, take);
        self.rows += take;
        // One sample, one size: every hypothesis reports the same error.
        vec![self.convergence_error(); self.hyp_buffers.len()]
    }

    fn unit_scores(&self, hyp: usize) -> Vec<f32> {
        self.scores(hyp..hyp + 1).remove(0).0
    }

    fn group_score(&self, hyp: usize) -> f32 {
        self.scores(hyp..hyp + 1)[0].1
    }

    fn final_scores(&self) -> Vec<(Vec<f32>, f32)> {
        self.scores(0..self.hyp_buffers.len())
    }
}

/// The per-pair buffered state: a [`BufferedSample`] with one hypothesis,
/// plus the cross-segment merge and the durable form — whose bytes hold
/// exactly one hypothesis column, which is why these two live here and
/// full passes build per-pair slots.
struct BufferedState(BufferedSample);

impl BufferedState {
    /// Revives bytes written by [`MeasureState::serialize_state`] into
    /// `empty`, the owning measure's fresh one-hypothesis sample.
    fn decode(mut empty: BufferedSample, bytes: &[u8]) -> Option<Box<dyn MeasureState>> {
        let mut cur = ByteReader::new(bytes);
        for word in empty.score.header() {
            if cur.u32()? != word {
                return None;
            }
        }
        if cur.u32()? as usize != empty.unit_buffers.len() {
            return None;
        }
        let hyp_buffer = cur.f32s()?;
        for buf in &mut empty.unit_buffers {
            *buf = cur.f32s()?;
            if buf.len() != hyp_buffer.len() {
                return None;
            }
        }
        empty.rows = hyp_buffer.len();
        empty.hyp_buffers = vec![hyp_buffer];
        cur.done()
            .then(|| Box::new(BufferedState(empty)) as Box<dyn MeasureState>)
    }
}

impl MeasureState for BufferedState {
    fn process_block(&mut self, units: &Matrix, hyp: &[f32]) -> f32 {
        let sample = &mut self.0;
        let take = sample.room(units, hyp.len());
        append_columns(&mut sample.unit_buffers, units, take);
        sample.hyp_buffers[0].extend_from_slice(&hyp[..take]);
        sample.rows += take;
        sample.convergence_error()
    }

    fn unit_scores(&self) -> Vec<f32> {
        self.final_scores().0
    }

    fn group_score(&self) -> f32 {
        self.final_scores().1
    }

    fn final_scores(&self) -> (Vec<f32>, f32) {
        self.0.scores(0..1).remove(0)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    /// Appends `other`'s buffered sample after this one's, truncated at
    /// `max_buffer` — exactly what one pass over the concatenated stream
    /// would have buffered, so segment merges are deterministic.
    fn merge_from(&mut self, other: &dyn MeasureState) -> bool {
        let Some(BufferedState(other)) = other.as_any().downcast_ref::<BufferedState>() else {
            return false;
        };
        let ours = &mut self.0;
        if other.score != ours.score || other.unit_buffers.len() != ours.unit_buffers.len() {
            return false;
        }
        let take = ours.max_buffer.saturating_sub(ours.rows).min(other.rows);
        let theirs = other.unit_buffers.iter().chain(&other.hyp_buffers);
        for (buf, src) in (ours.unit_buffers.iter_mut())
            .chain(&mut ours.hyp_buffers)
            .zip(theirs)
        {
            buf.extend_from_slice(&src[..take]);
        }
        ours.rows += take;
        true
    }

    fn convergence_error(&self) -> f32 {
        self.0.convergence_error()
    }

    fn serialize_state(&self) -> Option<Vec<u8>> {
        let mut out = ByteWriter::default();
        for word in self.0.score.header() {
            out.u32(word);
        }
        out.u32(self.0.unit_buffers.len() as u32);
        out.f32s(&self.0.hyp_buffers[0]);
        for buf in &self.0.unit_buffers {
            out.f32s(buf);
        }
        Some(out.0)
    }
}

// ---------------------------------------------------------------------
// Difference of means
// ---------------------------------------------------------------------

/// Standardized difference of unit activations between hypothesis-on and
/// hypothesis-off symbols (streaming, exact).
pub struct DiffMeansMeasure;

impl Measure for DiffMeansMeasure {
    fn id(&self) -> &str {
        "diff_means"
    }

    fn kind(&self) -> MeasureKind {
        MeasureKind::Independent
    }

    fn new_state(&self, n_units: usize) -> Box<dyn MeasureState> {
        Box::new(DiffMeansState {
            on: vec![Moments::default(); n_units],
            off: vec![Moments::default(); n_units],
        })
    }

    fn default_epsilon(&self) -> f32 {
        0.02
    }

    fn supports_segment_merge(&self) -> bool {
        true
    }

    fn deserialize_state(&self, n_units: usize, bytes: &[u8]) -> Option<Box<dyn MeasureState>> {
        fn side(cur: &mut ByteReader, n_units: usize) -> Option<Vec<Moments>> {
            let mut out = Vec::with_capacity(n_units);
            for _ in 0..n_units {
                out.push(Moments {
                    n: cur.u64()?,
                    sum: f64::from_bits(cur.u64()?),
                    sumsq: f64::from_bits(cur.u64()?),
                });
            }
            Some(out)
        }
        let mut cur = ByteReader::new(bytes);
        if cur.u32()? != STATE_TAG_DIFF_MEANS || cur.u32()? as usize != n_units {
            return None;
        }
        let on = side(&mut cur, n_units)?;
        let off = side(&mut cur, n_units)?;
        cur.done()
            .then(|| Box::new(DiffMeansState { on, off }) as Box<dyn MeasureState>)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Moments {
    n: u64,
    sum: f64,
    sumsq: f64,
}

impl Moments {
    fn push(&mut self, v: f32) {
        self.n += 1;
        self.sum += v as f64;
        self.sumsq += (v as f64) * (v as f64);
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    fn var(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.sumsq - self.sum * m) / (self.n - 1) as f64
    }
}

struct DiffMeansState {
    on: Vec<Moments>,
    off: Vec<Moments>,
}

impl MeasureState for DiffMeansState {
    fn process_block(&mut self, units: &Matrix, hyp: &[f32]) -> f32 {
        for (r, &h) in hyp.iter().enumerate() {
            let row = units.row(r);
            let side = if h > 0.5 { &mut self.on } else { &mut self.off };
            for (m, &u) in side.iter_mut().zip(row.iter()) {
                m.push(u);
            }
        }
        self.convergence_error()
    }

    fn unit_scores(&self) -> Vec<f32> {
        self.on
            .iter()
            .zip(self.off.iter())
            .map(|(on, off)| {
                if on.n == 0 || off.n == 0 {
                    return 0.0;
                }
                let pooled = ((on.var() * (on.n.max(2) - 1) as f64
                    + off.var() * (off.n.max(2) - 1) as f64)
                    / ((on.n + off.n).max(3) - 2) as f64)
                    .sqrt();
                if pooled <= 1e-12 {
                    0.0
                } else {
                    ((on.mean() - off.mean()) / pooled) as f32
                }
            })
            .collect()
    }

    fn group_score(&self) -> f32 {
        self.final_scores().1
    }

    fn final_scores(&self) -> (Vec<f32>, f32) {
        let unit_scores = self.unit_scores();
        let group_score = unit_scores
            .iter()
            .copied()
            .map(f32::abs)
            .fold(0.0, f32::max);
        (unit_scores, group_score)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn merge_from(&mut self, other: &dyn MeasureState) -> bool {
        let Some(other) = other.as_any().downcast_ref::<DiffMeansState>() else {
            return false;
        };
        if other.on.len() != self.on.len() {
            return false;
        }
        for (side, other_side) in [(&mut self.on, &other.on), (&mut self.off, &other.off)] {
            for (m, o) in side.iter_mut().zip(other_side.iter()) {
                m.n += o.n;
                m.sum += o.sum;
                m.sumsq += o.sumsq;
            }
        }
        true
    }

    fn convergence_error(&self) -> f32 {
        let n = self
            .on
            .first()
            .map(|m| m.n)
            .unwrap_or(0)
            .min(self.off.first().map(|m| m.n).unwrap_or(0));
        if n < 4 {
            f32::INFINITY
        } else {
            // Standard-error style rate for a difference of means.
            (2.0 / n as f32).sqrt()
        }
    }

    fn serialize_state(&self) -> Option<Vec<u8>> {
        let mut out = ByteWriter::default();
        out.u32(STATE_TAG_DIFF_MEANS);
        out.u32(self.on.len() as u32);
        for side in [&self.on, &self.off] {
            for m in side.iter() {
                out.u64(m.n);
                out.u64(m.sum.to_bits());
                out.u64(m.sumsq.to_bits());
            }
        }
        Some(out.0)
    }
}

// ---------------------------------------------------------------------
// Logistic regression (the joint measure, with model merging)
// ---------------------------------------------------------------------

/// Logistic-regression probe: predicts the (binarized) hypothesis behavior
/// from the unit group's activations. Group score = validation F1; unit
/// scores = absolute coefficients. Supports model merging.
pub struct LogRegMeasure {
    /// Identifier — distinguishes e.g. `logreg_l1` from `logreg_l2`.
    pub name: String,
    /// Probe hyper-parameters (regularization, learning rate, threads).
    pub config: LogRegConfig,
    /// SGD passes over each block as it arrives (approximates the paper's
    /// multi-epoch training while remaining streamable).
    pub inner_epochs: usize,
    /// Validation window for the convergence tracker (paper: enough
    /// batches to cover 2,048 tuples).
    pub tracker_window: usize,
    /// Reweight the positive class by the observed negative/positive ratio
    /// (clamped), so rare-event hypotheses (one period per sentence) do
    /// not collapse to the all-negative predictor.
    pub balance_classes: bool,
}

impl LogRegMeasure {
    /// L1-regularized probe (the paper's default joint measure).
    pub fn l1(strength: f32) -> Self {
        LogRegMeasure {
            name: "logreg_l1".into(),
            config: LogRegConfig {
                l1: strength,
                learning_rate: 0.05,
                ..Default::default()
            },
            inner_epochs: 8,
            tracker_window: 4,
            balance_classes: true,
        }
    }

    /// L2-regularized probe (Fig. 12b).
    pub fn l2(strength: f32) -> Self {
        LogRegMeasure {
            name: "logreg_l2".into(),
            config: LogRegConfig {
                l2: strength,
                learning_rate: 0.05,
                ..Default::default()
            },
            inner_epochs: 8,
            tracker_window: 4,
            balance_classes: true,
        }
    }
}

impl Measure for LogRegMeasure {
    fn id(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> MeasureKind {
        MeasureKind::Joint
    }

    fn new_state(&self, n_units: usize) -> Box<dyn MeasureState> {
        Box::new(LogRegState {
            inner: LogRegMerged::new(n_units, 1, self),
        })
    }

    fn new_merged_state(&self, n_units: usize, n_hyps: usize) -> Option<Box<dyn MergedState>> {
        Some(Box::new(LogRegMerged::new(n_units, n_hyps, self)))
    }

    fn default_epsilon(&self) -> f32 {
        0.01
    }
}

/// Merged multi-output probe state; the single-hypothesis state reuses it
/// with `n_hyps == 1`.
struct LogRegMerged {
    model: MultiLogReg,
    trackers: Vec<ConvergenceTracker>,
    inner_epochs: usize,
    balance_classes: bool,
    /// Streamed positive counts per hypothesis (for class weights).
    pos_counts: Vec<u64>,
    total_count: u64,
    /// Every 5th row is held out for validation (capped).
    val_units: Vec<Vec<f32>>,
    val_hyps: Vec<Vec<f32>>,
    row_counter: usize,
    n_units: usize,
    n_hyps: usize,
}

const VAL_CAP: usize = 4096;

impl LogRegMerged {
    fn new(n_units: usize, n_hyps: usize, measure: &LogRegMeasure) -> Self {
        LogRegMerged {
            model: MultiLogReg::new(n_units, n_hyps, measure.config.clone()),
            trackers: vec![ConvergenceTracker::new(measure.tracker_window); n_hyps],
            inner_epochs: measure.inner_epochs.max(1),
            balance_classes: measure.balance_classes,
            pos_counts: vec![0; n_hyps],
            total_count: 0,
            val_units: Vec::new(),
            val_hyps: Vec::new(),
            row_counter: 0,
            n_units,
            n_hyps,
        }
    }

    fn ingest(&mut self, units: &Matrix, hyps: &Matrix) -> Vec<f32> {
        debug_assert_eq!(units.rows(), hyps.rows());
        // Split rows into train / validation deterministically.
        let mut train_rows = Vec::with_capacity(units.rows());
        for r in 0..units.rows() {
            if self.row_counter.is_multiple_of(5) && self.val_units.len() < VAL_CAP {
                self.val_units.push(units.row(r).to_vec());
                self.val_hyps.push(hyps.row(r).to_vec());
            } else {
                train_rows.push(r);
            }
            self.row_counter += 1;
        }
        if self.balance_classes {
            // Update streamed class counts and refresh the per-hypothesis
            // positive weights (clamped; identical per column regardless
            // of merging, so merged == separate stays exact).
            for r in 0..hyps.rows() {
                for h in 0..self.n_hyps {
                    if hyps.get(r, h) > 0.0 {
                        self.pos_counts[h] += 1;
                    }
                }
            }
            self.total_count += hyps.rows() as u64;
            let weights: Vec<f32> = self
                .pos_counts
                .iter()
                .map(|&p| {
                    if p == 0 {
                        1.0
                    } else {
                        ((self.total_count - p) as f32 / p as f32).clamp(1.0, 25.0)
                    }
                })
                .collect();
            self.model.set_pos_weights(weights);
        }
        if !train_rows.is_empty() {
            let mut x = Matrix::zeros(train_rows.len(), self.n_units);
            let mut y = Matrix::zeros(train_rows.len(), self.n_hyps);
            for (dst, &src) in train_rows.iter().enumerate() {
                x.row_mut(dst).copy_from_slice(units.row(src));
                for h in 0..self.n_hyps {
                    // Binarize targets (>0 counts as active) so integer
                    // behaviors like nesting depth are probe-able.
                    y.set(dst, h, if hyps.get(src, h) > 0.0 { 1.0 } else { 0.0 });
                }
            }
            for _ in 0..self.inner_epochs {
                self.model.partial_fit(&x, &y);
            }
        }
        self.validation_errs()
    }

    fn validation_errs(&mut self) -> Vec<f32> {
        if self.val_units.is_empty() {
            return vec![f32::INFINITY; self.n_hyps];
        }
        let n = self.val_units.len();
        let mut x = Matrix::zeros(n, self.n_units);
        for (r, row) in self.val_units.iter().enumerate() {
            x.row_mut(r).copy_from_slice(row);
        }
        let probs = self.model.predict_proba(&x);
        (0..self.n_hyps)
            .map(|h| {
                let pred = probs.col(h);
                let targ: Vec<f32> = self
                    .val_hyps
                    .iter()
                    .map(|row| if row[h] > 0.0 { 1.0 } else { 0.0 })
                    .collect();
                let f1 = deepbase_stats::f1_score(&pred, &targ);
                self.trackers[h].push(f1)
            })
            .collect()
    }
}

impl MergedState for LogRegMerged {
    fn n_hyps(&self) -> usize {
        self.n_hyps
    }

    fn process_block(&mut self, units: &Matrix, hyps: &Matrix) -> Vec<f32> {
        self.ingest(units, hyps)
    }

    fn unit_scores(&self, hyp: usize) -> Vec<f32> {
        self.model.unit_scores(hyp)
    }

    fn group_score(&self, hyp: usize) -> f32 {
        self.trackers[hyp].latest().unwrap_or(0.0)
    }
}

struct LogRegState {
    inner: LogRegMerged,
}

impl MeasureState for LogRegState {
    fn process_block(&mut self, units: &Matrix, hyp: &[f32]) -> f32 {
        let hyps = Matrix::from_vec(hyp.len(), 1, hyp.to_vec()).expect("column shape");
        self.inner.ingest(units, &hyps)[0]
    }

    fn unit_scores(&self) -> Vec<f32> {
        self.inner.unit_scores(0)
    }

    fn group_score(&self) -> f32 {
        self.inner.group_score(0)
    }

    // No `merge_from`: SGD training is order-dependent, so cross-segment
    // merging would not reproduce the single-pass probe. The planner
    // rejects logreg on segmented datasets instead.
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ---------------------------------------------------------------------
// Naive baselines (§4.1: "2 naive baselines")
// ---------------------------------------------------------------------

/// Majority-class baseline: the F1 a constant predictor achieves on the
/// hypothesis labels (unit behaviors are ignored).
pub struct MajorityBaselineMeasure;

impl Measure for MajorityBaselineMeasure {
    fn id(&self) -> &str {
        "majority_baseline"
    }

    fn kind(&self) -> MeasureKind {
        MeasureKind::Joint
    }

    fn new_state(&self, n_units: usize) -> Box<dyn MeasureState> {
        Box::new(BaselineState {
            labels: Vec::new(),
            n_units,
            random_seed: None,
        })
    }

    fn default_epsilon(&self) -> f32 {
        0.01
    }

    fn supports_segment_merge(&self) -> bool {
        true
    }

    fn deserialize_state(&self, n_units: usize, bytes: &[u8]) -> Option<Box<dyn MeasureState>> {
        decode_baseline(n_units, bytes, None)
    }
}

/// Random-class baseline.
pub struct RandomBaselineMeasure {
    /// Seed for the random predictions.
    pub seed: u64,
}

impl Measure for RandomBaselineMeasure {
    fn id(&self) -> &str {
        "random_baseline"
    }

    fn kind(&self) -> MeasureKind {
        MeasureKind::Joint
    }

    fn new_state(&self, n_units: usize) -> Box<dyn MeasureState> {
        Box::new(BaselineState {
            labels: Vec::new(),
            n_units,
            random_seed: Some(self.seed),
        })
    }

    fn default_epsilon(&self) -> f32 {
        0.01
    }

    fn supports_segment_merge(&self) -> bool {
        true
    }

    fn deserialize_state(&self, n_units: usize, bytes: &[u8]) -> Option<Box<dyn MeasureState>> {
        decode_baseline(n_units, bytes, Some(self.seed))
    }
}

/// Shared decoder for the two baseline measures: the stored seed must
/// match the deserializing measure's exactly.
fn decode_baseline(
    n_units: usize,
    bytes: &[u8],
    random_seed: Option<u64>,
) -> Option<Box<dyn MeasureState>> {
    let mut cur = ByteReader::new(bytes);
    if cur.u32()? != STATE_TAG_BASELINE || cur.u32()? as usize != n_units {
        return None;
    }
    let stored_seed = match cur.u32()? {
        0 => None,
        1 => Some(cur.u64()?),
        _ => return None,
    };
    if stored_seed != random_seed {
        return None;
    }
    let labels = cur.f32s()?;
    cur.done().then(|| {
        Box::new(BaselineState {
            labels,
            n_units,
            random_seed,
        }) as Box<dyn MeasureState>
    })
}

struct BaselineState {
    labels: Vec<f32>,
    n_units: usize,
    random_seed: Option<u64>,
}

impl MeasureState for BaselineState {
    fn process_block(&mut self, _units: &Matrix, hyp: &[f32]) -> f32 {
        self.labels
            .extend(hyp.iter().map(|&h| if h > 0.0 { 1.0 } else { 0.0 }));
        self.convergence_error()
    }

    fn unit_scores(&self) -> Vec<f32> {
        vec![self.group_score(); self.n_units]
    }

    fn group_score(&self) -> f32 {
        match self.random_seed {
            Some(seed) => baselines::random_class_f1(&self.labels, seed),
            None => baselines::majority_class_f1(&self.labels),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn merge_from(&mut self, other: &dyn MeasureState) -> bool {
        let Some(other) = other.as_any().downcast_ref::<BaselineState>() else {
            return false;
        };
        if other.random_seed != self.random_seed || other.n_units != self.n_units {
            return false;
        }
        self.labels.extend_from_slice(&other.labels);
        true
    }

    fn convergence_error(&self) -> f32 {
        if self.labels.len() < 8 {
            f32::INFINITY
        } else {
            1.0 / (self.labels.len() as f32).sqrt()
        }
    }

    fn serialize_state(&self) -> Option<Vec<u8>> {
        let mut out = ByteWriter::default();
        out.u32(STATE_TAG_BASELINE);
        out.u32(self.n_units as u32);
        match self.random_seed {
            None => out.u32(0),
            Some(seed) => {
                out.u32(1);
                out.u64(seed);
            }
        }
        out.f32s(&self.labels);
        Some(out.0)
    }
}

/// The full standard library of measures (paper §4.1: 8 scores + 2 naive
/// baselines), each under an id of its own. The 8 scores: correlation,
/// mutual information (uni- and multivariate via group MI), difference of
/// means, logistic regression with L1 and with L2, and the two quantile
/// variants of Jaccard used by NetDissect comparisons — `jaccard` is
/// NetDissect's 0.995, `jaccard_q95` the 0.95 variant.
pub fn standard_library() -> Vec<Box<dyn Measure>> {
    vec![
        Box::new(CorrelationMeasure),
        Box::new(MutualInfoMeasure::default()),
        Box::new(JaccardMeasure::netdissect()),
        Box::new(JaccardMeasure::default()),
        Box::new(DiffMeansMeasure),
        Box::new(LogRegMeasure::l1(0.01)),
        Box::new(LogRegMeasure::l2(0.01)),
        Box::new(GroupMiMeasure::default()),
        Box::new(MajorityBaselineMeasure),
        Box::new(RandomBaselineMeasure { seed: 0 }),
    ]
}

/// Multivariate mutual information over the whole unit group (paper §4.3:
/// "a multivariate implementation of mutual information"). Unit scores
/// are the per-unit MI the independent measure would report.
pub struct GroupMiMeasure {
    /// Quantile bins.
    pub bins: usize,
    /// Buffer cap.
    pub max_buffer: usize,
}

impl Default for GroupMiMeasure {
    fn default() -> Self {
        GroupMiMeasure {
            bins: 4,
            max_buffer: 16_384,
        }
    }
}

impl GroupMiMeasure {
    fn sample(&self, n_units: usize, n_hyps: usize) -> BufferedSample {
        let score = BufferedScore::GroupMi(self.bins);
        BufferedSample::new(n_units, n_hyps, self.max_buffer, score)
    }
}

impl Measure for GroupMiMeasure {
    fn id(&self) -> &str {
        "group_mi"
    }

    fn kind(&self) -> MeasureKind {
        MeasureKind::Joint
    }

    fn new_state(&self, n_units: usize) -> Box<dyn MeasureState> {
        Box::new(BufferedState(self.sample(n_units, 1)))
    }

    fn new_merged_state(&self, n_units: usize, n_hyps: usize) -> Option<Box<dyn MergedState>> {
        Some(Box::new(self.sample(n_units, n_hyps)))
    }

    fn default_epsilon(&self) -> f32 {
        0.01
    }

    fn supports_segment_merge(&self) -> bool {
        true
    }

    fn deserialize_state(&self, n_units: usize, bytes: &[u8]) -> Option<Box<dyn MeasureState>> {
        BufferedState::decode(self.sample(n_units, 1), bytes)
    }
}

/// Quantile-binned behavior helper re-exported for NetDissect pipelines.
pub fn binarize_at_quantile(values: &[f32], q: f32) -> Vec<f32> {
    let thresh = quantile::quantile(values, q);
    values
        .iter()
        .map(|&v| if v > thresh { 1.0 } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Block where unit 0 mirrors the hypothesis and unit 1 is noise.
    fn block(n: usize) -> (Matrix, Vec<f32>) {
        let hyp: Vec<f32> = (0..n).map(|i| ((i / 3) % 2) as f32).collect();
        let units = Matrix::from_fn(n, 2, |r, c| {
            if c == 0 {
                hyp[r] * 2.0 - 0.5
            } else {
                ((r * 7919) % 97) as f32 / 97.0
            }
        });
        (units, hyp)
    }

    #[test]
    fn correlation_state_identifies_mirroring_unit() {
        let m = CorrelationMeasure;
        let mut state = m.new_state(2);
        let (units, hyp) = block(300);
        let err = state.process_block(&units, &hyp);
        assert!(err < 0.2, "error should be small after 300 symbols: {err}");
        let scores = state.unit_scores();
        assert!(scores[0] > 0.95, "unit 0 corr {}", scores[0]);
        assert!(scores[1].abs() < 0.3, "unit 1 corr {}", scores[1]);
        assert!(state.group_score() > 0.95);
    }

    #[test]
    fn correlation_state_equals_per_unit_accumulators_after_splits_and_merge_from() {
        // 100 columns = twelve 8-wide tiles + a 4-column tail; the
        // reference walks each column on its own `StreamingPearson`.
        let (rows, width) = (90, 100);
        let hyp: Vec<f32> = (0..rows).map(|r| ((r / 3) % 2) as f32).collect();
        let units = Matrix::from_fn(rows, width, |r, c| match c % 3 {
            0 => 2.0,
            1 => ((r * 7919 + c) % 97) as f32 / 97.0,
            _ => ((r + c) % 2) as f32 * 2.0 - 1.0,
        });
        let rows_of = |range: std::ops::Range<usize>| {
            Matrix::from_fn(range.len(), width, |r, c| units.get(range.start + r, c))
        };
        let reference = |ranges: &[std::ops::Range<usize>]| {
            let mut accs = vec![StreamingPearson::new(); width];
            for range in ranges {
                let (mut sy, mut syy) = (0.0f64, 0.0);
                for &h in &hyp[range.clone()] {
                    sy += h as f64;
                    syy += h as f64 * h as f64;
                }
                for (c, acc) in accs.iter_mut().enumerate() {
                    let (mut sx, mut sxx, mut sxy) = (0.0f64, 0.0, 0.0);
                    for r in range.clone() {
                        let x = units.get(r, c) as f64;
                        sx += x;
                        sxx += x * x;
                        sxy += x * hyp[r] as f64;
                    }
                    acc.accumulate(range.len() as u64, sx, sy, sxx, syy, sxy);
                }
            }
            accs
        };
        let m = CorrelationMeasure;
        let mut first = m.new_state(width);
        for range in [0..7, 7..40] {
            first.process_block(&rows_of(range.clone()), &hyp[range]);
        }
        let mut second = m.new_state(width);
        for range in [40..41, 41..90] {
            second.process_block(&rows_of(range.clone()), &hyp[range]);
        }
        assert!(first.merge_from(second.as_ref()));
        let mut expect = reference(&[0..7, 7..40]);
        for (a, b) in expect.iter_mut().zip(reference(&[40..41, 41..90])) {
            a.merge(&b);
        }
        let expect = CorrState { accs: expect };
        assert_eq!(first.serialize_state(), expect.serialize_state());
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(first.unit_scores()), bits(expect.unit_scores()));
    }

    #[test]
    fn correlation_error_shrinks_with_blocks() {
        let m = CorrelationMeasure;
        let mut state = m.new_state(2);
        let (units, hyp) = block(64);
        let e1 = state.process_block(&units, &hyp);
        let mut e2 = e1;
        for _ in 0..10 {
            e2 = state.process_block(&units, &hyp);
        }
        assert!(e2 < e1, "{e1} -> {e2}");
    }

    #[test]
    fn mutual_info_state_ranks_dependent_unit_higher() {
        let m = MutualInfoMeasure::default();
        let mut state = m.new_state(2);
        let (units, hyp) = block(400);
        state.process_block(&units, &hyp);
        let scores = state.unit_scores();
        assert!(scores[0] > scores[1], "{scores:?}");
    }

    #[test]
    fn jaccard_state_scores_overlapping_unit() {
        let m = JaccardMeasure {
            top_quantile: 0.5,
            max_buffer: 10_000,
            ..Default::default()
        };
        let mut state = m.new_state(2);
        let (units, hyp) = block(200);
        state.process_block(&units, &hyp);
        let scores = state.unit_scores();
        assert!(scores[0] > 0.8, "unit 0 jaccard {}", scores[0]);
        assert!(scores[0] > scores[1]);
    }

    #[test]
    fn diff_means_streaming_matches_batch() {
        let m = DiffMeansMeasure;
        let mut state = m.new_state(2);
        let (units, hyp) = block(256);
        // Feed in two chunks.
        let (u1, u2) = (units.slice_rows(0, 100), units.slice_rows(100, 256));
        state.process_block(&u1, &hyp[..100]);
        state.process_block(&u2, &hyp[100..]);
        let streaming = state.unit_scores();
        let batch = descriptive::difference_of_means(&units.col(0), &hyp);
        assert!(
            (streaming[0] - batch).abs() < 0.05,
            "{} vs {}",
            streaming[0],
            batch
        );
    }

    #[test]
    fn logreg_state_learns_predictable_hypothesis() {
        let m = LogRegMeasure::l2(0.0);
        let mut state = m.new_state(2);
        let (units, hyp) = block(500);
        let mut err = f32::INFINITY;
        for _ in 0..12 {
            err = state.process_block(&units, &hyp);
        }
        assert!(
            state.group_score() > 0.9,
            "probe F1 {}",
            state.group_score()
        );
        assert!(err < 0.1, "converged err {err}");
        let coefs = state.unit_scores();
        assert!(
            coefs[0] > coefs[1],
            "informative unit has larger |coef|: {coefs:?}"
        );
    }

    #[test]
    fn merged_logreg_matches_separate_states() {
        let measure = LogRegMeasure::l1(0.005);
        let (units, hyp) = block(300);
        // Two hypotheses: the original and its complement.
        let hyp2: Vec<f32> = hyp.iter().map(|&h| 1.0 - h).collect();
        let mut hyps = Matrix::zeros(300, 2);
        for r in 0..300 {
            hyps.set(r, 0, hyp[r]);
            hyps.set(r, 1, hyp2[r]);
        }

        let mut merged = measure.new_merged_state(2, 2).unwrap();
        let mut sep0 = measure.new_state(2);
        let mut sep1 = measure.new_state(2);
        for _ in 0..6 {
            merged.process_block(&units, &hyps);
            sep0.process_block(&units, &hyp);
            sep1.process_block(&units, &hyp2);
        }
        for u in 0..2 {
            assert!(
                (merged.unit_scores(0)[u] - sep0.unit_scores()[u]).abs() < 1e-4,
                "hyp 0 unit {u}"
            );
            assert!(
                (merged.unit_scores(1)[u] - sep1.unit_scores()[u]).abs() < 1e-4,
                "hyp 1 unit {u}"
            );
        }
        assert!((merged.group_score(0) - sep0.group_score()).abs() < 1e-5);
    }

    #[test]
    fn baselines_score_labels_only() {
        let (units, hyp) = block(100);
        let mut maj = MajorityBaselineMeasure.new_state(2);
        maj.process_block(&units, &hyp);
        let expected = baselines::majority_class_f1(
            &hyp.iter()
                .map(|&h| if h > 0.0 { 1.0 } else { 0.0 })
                .collect::<Vec<_>>(),
        );
        assert!((maj.group_score() - expected).abs() < 1e-6);
        assert_eq!(maj.unit_scores(), vec![expected; 2]);

        let mut rnd = RandomBaselineMeasure { seed: 3 }.new_state(2);
        rnd.process_block(&units, &hyp);
        let s = rnd.group_score();
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn group_mi_exceeds_best_single_on_xor() {
        // XOR: no single unit is informative; the pair determines h.
        let n = 600;
        let u0: Vec<f32> = (0..n).map(|i| (i % 2) as f32).collect();
        let u1: Vec<f32> = (0..n).map(|i| ((i / 2) % 2) as f32).collect();
        let hyp: Vec<f32> = u0
            .iter()
            .zip(u1.iter())
            .map(|(a, b)| (a + b) % 2.0)
            .collect();
        let mut units = Matrix::zeros(n, 2);
        for r in 0..n {
            units.set(r, 0, u0[r]);
            units.set(r, 1, u1[r]);
        }
        let m = GroupMiMeasure {
            bins: 2,
            max_buffer: 10_000,
        };
        let mut state = m.new_state(2);
        state.process_block(&units, &hyp);
        let singles = state.unit_scores();
        let group = state.group_score();
        assert!(group > 0.5, "group MI {group}");
        assert!(singles.iter().all(|&s| s < 0.05), "single MIs {singles:?}");
    }

    /// Every mergeable measure's state must survive serialization
    /// bit-exactly: the revived state scores identically AND folds new
    /// segments identically to the original (the materialized-view
    /// refresh invariant).
    #[test]
    fn mergeable_states_serialize_and_revive_bit_exactly() {
        let measures: Vec<Box<dyn Measure>> = vec![
            Box::new(CorrelationMeasure),
            Box::new(MutualInfoMeasure::default()),
            Box::new(JaccardMeasure::default()),
            Box::new(DiffMeansMeasure),
            Box::new(GroupMiMeasure::default()),
            Box::new(MajorityBaselineMeasure),
            Box::new(RandomBaselineMeasure { seed: 9 }),
        ];
        let (units, hyp) = block(230);
        let (tail_units, tail_hyp) = block(117);
        for m in &measures {
            assert!(m.supports_segment_merge(), "{} must merge", m.id());
            let mut original = m.new_state(2);
            original.process_block(&units, &hyp);
            let bytes = original
                .serialize_state()
                .unwrap_or_else(|| panic!("{} state must serialize", m.id()));
            let mut revived = m
                .deserialize_state(2, &bytes)
                .unwrap_or_else(|| panic!("{} state must deserialize", m.id()));
            let bit = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bit(revived.unit_scores()),
                bit(original.unit_scores()),
                "{} scores changed across the round trip",
                m.id()
            );
            // Fold the same tail segment into both; they must stay equal.
            let mut tail_a = m.new_state(2);
            tail_a.process_block(&tail_units, &tail_hyp);
            let mut tail_b = m.new_state(2);
            tail_b.process_block(&tail_units, &tail_hyp);
            assert!(original.merge_from(tail_a.as_ref()));
            assert!(revived.merge_from(tail_b.as_ref()));
            assert_eq!(
                bit(revived.unit_scores()),
                bit(original.unit_scores()),
                "{} diverged after a post-revival merge",
                m.id()
            );
            assert_eq!(
                revived.group_score().to_bits(),
                original.group_score().to_bits(),
                "{} group score diverged",
                m.id()
            );
            assert_eq!(
                revived.convergence_error().to_bits(),
                original.convergence_error().to_bits(),
                "{} convergence error diverged",
                m.id()
            );
        }
    }

    #[test]
    fn state_deserialization_rejects_foreign_or_mangled_bytes() {
        let (units, hyp) = block(64);
        let mut corr = CorrelationMeasure.new_state(2);
        corr.process_block(&units, &hyp);
        let bytes = corr.serialize_state().unwrap();
        // Wrong measure family.
        assert!(MutualInfoMeasure::default()
            .deserialize_state(2, &bytes)
            .is_none());
        // Wrong unit count.
        assert!(CorrelationMeasure.deserialize_state(3, &bytes).is_none());
        // Truncated.
        assert!(CorrelationMeasure
            .deserialize_state(2, &bytes[..bytes.len() - 1])
            .is_none());
        // Trailing garbage.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(CorrelationMeasure.deserialize_state(2, &padded).is_none());
        // Different jaccard quantile rejects the other's buffers.
        let mut j95 = JaccardMeasure::default().new_state(2);
        j95.process_block(&units, &hyp);
        let jb = j95.serialize_state().unwrap();
        let j995 = JaccardMeasure::netdissect();
        assert!(j995.deserialize_state(2, &jb).is_none());
        // Mismatched baseline seed rejects.
        let mut rnd = RandomBaselineMeasure { seed: 1 }.new_state(2);
        rnd.process_block(&units, &hyp);
        let rb = rnd.serialize_state().unwrap();
        assert!(RandomBaselineMeasure { seed: 2 }
            .deserialize_state(2, &rb)
            .is_none());
        assert!(MajorityBaselineMeasure.deserialize_state(2, &rb).is_none());
        // Non-mergeable logreg has no durable form at all.
        let lr = LogRegMeasure::l1(0.01);
        let s = lr.new_state(2);
        assert!(s.serialize_state().is_none());
        assert!(lr.deserialize_state(2, &bytes).is_none());
    }

    #[test]
    fn standard_library_has_ten_measures_under_ten_ids() {
        let lib = standard_library();
        assert_eq!(lib.len(), 10);
        let ids: Vec<&str> = lib.iter().map(|m| m.id()).collect();
        assert!(ids.contains(&"corr"));
        assert!(ids.contains(&"logreg_l1"));
        assert!(ids.contains(&"majority_baseline"));
        assert!(ids.contains(&"random_baseline"));
        let distinct: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), lib.len(), "two measures answer to one id");
        // `jaccard` is NetDissect's 0.995, `jaccard_q95` the 0.95 variant:
        // each revives its own quantile's states and refuses the other's.
        let (units, hyp) = block(16);
        let by_id = |id: &str| lib.iter().find(|m| m.id() == id).expect("registered");
        for (id, same, other) in [
            (
                "jaccard",
                JaccardMeasure::netdissect(),
                JaccardMeasure::default(),
            ),
            (
                "jaccard_q95",
                JaccardMeasure::default(),
                JaccardMeasure::netdissect(),
            ),
        ] {
            let bytes_of = |m: &JaccardMeasure| {
                let mut state = m.new_state(2);
                state.process_block(&units, &hyp);
                state.serialize_state().unwrap()
            };
            assert!(by_id(id).deserialize_state(2, &bytes_of(&same)).is_some());
            assert!(by_id(id).deserialize_state(2, &bytes_of(&other)).is_none());
        }
    }

    // -----------------------------------------------------------------
    // The shared sample: N hypotheses over one state ≡ N per-pair states
    // -----------------------------------------------------------------

    /// The three buffered measures with a small cap, so blocks cross it.
    fn buffered_measures(max_buffer: usize) -> Vec<Box<dyn Measure>> {
        vec![
            Box::new(JaccardMeasure {
                top_quantile: 0.8,
                max_buffer,
                ..Default::default()
            }),
            Box::new(MutualInfoMeasure {
                bins: 4,
                max_buffer,
            }),
            Box::new(GroupMiMeasure {
                bins: 3,
                max_buffer,
            }),
        ]
    }

    /// ReLU-like unit columns (many exact zeros, ties) and small-integer
    /// hypothesis columns, rows `start..start + rows` of one fixed stream.
    fn stream_block(start: usize, rows: usize, n_units: usize, n_hyps: usize) -> (Matrix, Matrix) {
        let units = Matrix::from_fn(rows, n_units, |r, u| {
            let r = start + r;
            (((r * 7919 + u * 31) % 23) as f32 - 11.0).max(0.0) * (u + 1) as f32
        });
        let hyps = Matrix::from_fn(rows, n_hyps, |r, h| (((start + r) / (h + 2)) % 3) as f32);
        (units, hyps)
    }

    fn score_bits(scores: &(Vec<f32>, f32)) -> (Vec<u32>, u32) {
        (
            scores.0.iter().map(|s| s.to_bits()).collect(),
            scores.1.to_bits(),
        )
    }

    /// Feeds `blocks` (row counts) of the fixed stream to one shared state
    /// and to one per-pair state per hypothesis, and demands equal errors
    /// after every block and equal scores at the end, through both the
    /// all-at-once and the per-hypothesis calls.
    fn assert_shared_equals_per_pair(
        measure: &dyn Measure,
        n_units: usize,
        n_hyps: usize,
        blocks: &[usize],
    ) {
        let what = format!(
            "{} units {n_units} hyps {n_hyps} blocks {blocks:?}",
            measure.id()
        );
        let mut shared = measure
            .new_merged_state(n_units, n_hyps)
            .expect("buffered measures share their sample");
        let mut pairs: Vec<_> = (0..n_hyps).map(|_| measure.new_state(n_units)).collect();
        let mut start = 0;
        for &rows in blocks {
            let (units, hyps) = stream_block(start, rows, n_units, n_hyps);
            start += rows;
            let errs = shared.process_block(&units, &hyps);
            for (h, pair) in pairs.iter_mut().enumerate() {
                let err = pair.process_block(&units, &hyps.col(h));
                assert_eq!(errs[h].to_bits(), err.to_bits(), "{what}: error of {h}");
            }
        }
        assert_eq!(shared.n_hyps(), n_hyps);
        let all = shared.final_scores();
        assert_eq!(all.len(), n_hyps);
        for (h, pair) in pairs.iter().enumerate() {
            let want = score_bits(&pair.final_scores());
            assert_eq!(score_bits(&all[h]), want, "{what}: final scores of {h}");
            let one = (shared.unit_scores(h), shared.group_score(h));
            assert_eq!(
                score_bits(&one),
                want,
                "{what}: per-hypothesis calls of {h}"
            );
        }
    }

    #[test]
    fn shared_sample_equals_per_pair_states_on_the_edge_cases() {
        for measure in buffered_measures(100) {
            // 1 unit, an exact joint (≤ 3 units) and the pairwise fallback.
            for n_units in [1, 3, 5] {
                for blocks in [
                    &[][..],                 // empty
                    &[0],                    // an empty block
                    &[1],                    // one row
                    &[7],                    // below the error's 8-row floor
                    &[5, 40, 17, 1, 90, 30], // crosses the cap inside block 5
                    &[100, 1],               // fills it exactly
                    &[250],                  // crosses it in the first block
                ] {
                    assert_shared_equals_per_pair(measure.as_ref(), n_units, 3, blocks);
                }
            }
            assert_shared_equals_per_pair(measure.as_ref(), 2, 1, &[60, 60]);
        }
    }

    proptest::proptest! {
        #[test]
        fn shared_sample_equals_per_pair_states_on_ragged_blocks(
            blocks in proptest::collection::vec(0usize..48, 0..8),
            max_buffer in 1usize..160,
            n_units in 1usize..6,
            n_hyps in 1usize..5,
        ) {
            for measure in buffered_measures(max_buffer) {
                assert_shared_equals_per_pair(measure.as_ref(), n_units, n_hyps, &blocks);
            }
        }

        /// Two per-pair states over consecutive ranges, merged, are the
        /// state of one pass over the concatenation — cap included.
        #[test]
        fn buffered_merge_from_equals_one_pass_over_the_concatenation(
            first in proptest::collection::vec(0usize..48, 0..4),
            second in proptest::collection::vec(0usize..48, 0..4),
            max_buffer in 1usize..160,
        ) {
            for measure in buffered_measures(max_buffer) {
                let feed = |state: &mut Box<dyn MeasureState>, start: &mut usize, blocks: &[usize]| {
                    for &rows in blocks {
                        let (units, hyps) = stream_block(*start, rows, 3, 1);
                        state.process_block(&units, &hyps.col(0));
                        *start += rows;
                    }
                };
                let (mut a, mut b, mut whole) =
                    (measure.new_state(3), measure.new_state(3), measure.new_state(3));
                let mut start = 0;
                feed(&mut a, &mut start, &first);
                feed(&mut b, &mut start, &second);
                let mut start = 0;
                feed(&mut whole, &mut start, &first);
                feed(&mut whole, &mut start, &second);
                proptest::prop_assert!(a.merge_from(b.as_ref()));
                proptest::prop_assert_eq!(a.serialize_state(), whole.serialize_state());
                proptest::prop_assert_eq!(
                    score_bits(&a.final_scores()),
                    score_bits(&whole.final_scores())
                );
                proptest::prop_assert_eq!(
                    a.convergence_error().to_bits(),
                    whole.convergence_error().to_bits()
                );
            }
        }
    }

    /// What a buffered score *is*: the public stats routine — each pinned
    /// to the parent's sort/`HashMap` body in `deepbase-stats` — over the
    /// first `max_buffer` rows of the pair's two columns.
    #[test]
    fn buffered_scores_are_the_stats_routines_over_the_capped_sample() {
        let (cap, n_units, n_hyps) = (90, 3, 2);
        let (units, hyps) = stream_block(0, 130, n_units, n_hyps);
        let capped = |col: Vec<f32>| col[..cap].to_vec();
        let unit_cols: Vec<Vec<f32>> = (0..n_units).map(|u| capped(units.col(u))).collect();
        let unit_refs: Vec<&[f32]> = unit_cols.iter().map(|c| c.as_slice()).collect();
        let best = |scores: &[f32]| scores.iter().copied().fold(0.0, f32::max);
        for measure in buffered_measures(cap) {
            let mut shared = measure.new_merged_state(n_units, n_hyps).unwrap();
            shared.process_block(&units.slice_rows(0, 50), &hyps.slice_rows(0, 50));
            shared.process_block(&units.slice_rows(50, 130), &hyps.slice_rows(50, 130));
            for (h, got) in shared.final_scores().iter().enumerate() {
                let hyp = capped(hyps.col(h));
                let per_unit = |score: &dyn Fn(&[f32]) -> f32| -> Vec<f32> {
                    unit_refs.iter().map(|u| score(u)).collect()
                };
                let want = match measure.id() {
                    "jaccard_q95" => {
                        let s = per_unit(&|u| descriptive::jaccard_at_quantile(u, &hyp, 0.8));
                        let group = best(&s);
                        (s, group)
                    }
                    "mutual_info" => {
                        let s = per_unit(&|u| mi::mutual_information(u, &hyp, 4));
                        let group = best(&s);
                        (s, group)
                    }
                    "group_mi" => (
                        per_unit(&|u| mi::mutual_information(u, &hyp, 3)),
                        mi::multivariate_mi(&unit_refs, &hyp, 3),
                    ),
                    other => unreachable!("{other}"),
                };
                assert_eq!(score_bits(got), score_bits(&want), "{} {h}", measure.id());
            }
        }
    }

    #[test]
    fn buffered_states_of_different_measures_refuse_to_merge() {
        let measures = buffered_measures(100);
        let (units, hyps) = stream_block(0, 20, 2, 1);
        for (i, ours) in measures.iter().enumerate() {
            for (j, theirs) in measures.iter().enumerate() {
                let mut a = ours.new_state(2);
                let mut b = theirs.new_state(2);
                a.process_block(&units, &hyps.col(0));
                b.process_block(&units, &hyps.col(0));
                assert_eq!(
                    a.merge_from(b.as_ref()),
                    i == j,
                    "{} <- {}",
                    ours.id(),
                    theirs.id()
                );
            }
            // Same measure, another unit count.
            let mut a = ours.new_state(2);
            assert!(!a.merge_from(ours.new_state(3).as_ref()));
        }
    }

    #[test]
    #[should_panic(expected = "buffered block row mismatch")]
    fn per_pair_buffered_state_rejects_a_short_hypothesis_column() {
        let (units, hyps) = stream_block(0, 10, 2, 1);
        let mut state = MutualInfoMeasure::default().new_state(2);
        state.process_block(&units, &hyps.col(0)[..9]);
    }

    #[test]
    #[should_panic(expected = "buffered block column-count mismatch")]
    fn per_pair_buffered_state_rejects_a_drifted_unit_count() {
        let (units, hyps) = stream_block(0, 10, 3, 1);
        let mut state = JaccardMeasure::default().new_state(2);
        state.process_block(&units, &hyps.col(0));
    }

    #[test]
    #[should_panic(expected = "buffered block row mismatch")]
    fn shared_buffered_state_rejects_mismatched_row_counts() {
        let (units, _) = stream_block(0, 10, 2, 3);
        let (_, hyps) = stream_block(0, 9, 2, 3);
        let mut state = JaccardMeasure::default().new_merged_state(2, 3).unwrap();
        state.process_block(&units, &hyps);
    }

    #[test]
    #[should_panic(expected = "buffered block column-count mismatch")]
    fn shared_buffered_state_rejects_a_drifted_hypothesis_count() {
        let (units, hyps) = stream_block(0, 10, 2, 2);
        let mut state = GroupMiMeasure::default().new_merged_state(2, 3).unwrap();
        state.process_block(&units, &hyps);
    }

    /// The one call the engines emit rows from is the two documented
    /// calls, bit for bit — empty, and after each of two blocks.
    #[test]
    fn final_scores_equal_unit_and_group_scores_for_every_measure() {
        let bits = |(units, group): (Vec<f32>, f32)| {
            (
                units.iter().map(|s| s.to_bits()).collect::<Vec<u32>>(),
                group.to_bits(),
            )
        };
        let (units, hyp) = block(96);
        for measure in standard_library() {
            let mut state = measure.new_state(2);
            for step in 0..3 {
                let want = bits((state.unit_scores(), state.group_score()));
                assert_eq!(
                    bits(state.final_scores()),
                    want,
                    "{} step {step}",
                    measure.id()
                );
                state.process_block(&units, &hyp);
            }
        }
    }
    // Serialized states of every mergeable measure family after
    // `block(10)` over two units, as the parent commit's code wrote them.
    const GOLDEN_STATE_CORR: &[u8] = &[
        0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0xd3, 0x3f, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99,
        0xd9, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x23, 0x40, 0x33, 0x33, 0x33, 0x33,
        0x33, 0x33, 0x03, 0x40, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x13, 0x40, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x40, 0x1a, 0x3d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x3d, 0x0a, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x64, 0x83, 0x7b, 0xde, 0x3f, 0x9a,
        0x99, 0x99, 0x99, 0x99, 0x99, 0xd9, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x9c, 0xb6, 0x16, 0xaa, 0x3d, 0x17, 0xed,
        0x3f, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x03, 0x40, 0x00, 0x00, 0x00, 0x30, 0x92, 0x8f,
        0xe0, 0x3f, 0xea, 0xa7, 0xa5, 0x2f, 0xa5, 0xc6, 0xff, 0x3c, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x04, 0x3d,
    ];
    const GOLDEN_STATE_MI: &[u8] = &[
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
        0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x80, 0x3f, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3f,
        0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00,
        0xbf, 0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00,
        0x00, 0xbf, 0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0xc0, 0x3f, 0x0a,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xfd, 0xa0, 0x23, 0x3f, 0xf5, 0x83, 0x8e, 0x3e,
        0xf8, 0xe2, 0x6a, 0x3f, 0xf5, 0x83, 0x0e, 0x3f, 0xcb, 0x93, 0x48, 0x3e, 0xf0, 0xc5, 0x55,
        0x3f, 0xdb, 0xcd, 0xf2, 0x3e, 0x57, 0x3f, 0xe8, 0x3d, 0xe8, 0xa8, 0x40, 0x3f,
    ];
    const GOLDEN_STATE_JACCARD: &[u8] = &[
        0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x33, 0x33, 0x73, 0x3f, 0x02, 0x00, 0x00,
        0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x80, 0x3f, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3f,
        0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00,
        0xbf, 0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00,
        0x00, 0xbf, 0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0xc0, 0x3f, 0x0a,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xfd, 0xa0, 0x23, 0x3f, 0xf5, 0x83, 0x8e, 0x3e,
        0xf8, 0xe2, 0x6a, 0x3f, 0xf5, 0x83, 0x0e, 0x3f, 0xcb, 0x93, 0x48, 0x3e, 0xf0, 0xc5, 0x55,
        0x3f, 0xdb, 0xcd, 0xf2, 0x3e, 0x57, 0x3f, 0xe8, 0x3d, 0xe8, 0xa8, 0x40, 0x3f,
    ];
    const GOLDEN_STATE_DIFF_MEANS: &[u8] = &[
        0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x18, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x22, 0x40, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3e, 0xa6,
        0x61, 0x03, 0x40, 0x89, 0x72, 0x4f, 0xe0, 0xa9, 0x1a, 0xfc, 0x3f, 0x06, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0xc0, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0xf8, 0x3f, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0xff, 0xbd, 0xb8, 0x02, 0x40, 0xbc, 0x33, 0x53, 0xd2, 0xc4, 0xbc, 0xf6, 0x3f,
    ];
    const GOLDEN_STATE_MAJORITY: &[u8] = &[
        0x04, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x80, 0x3f, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3f,
    ];
    const GOLDEN_STATE_RANDOM: &[u8] = &[
        0x04, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x80, 0x3f, 0x00,
        0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x80, 0x3f,
    ];
    const GOLDEN_STATE_GROUP_MI: &[u8] = &[
        0x05, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
        0x00, 0x02, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x80, 0x3f, 0x00,
        0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x80, 0x3f, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00,
        0xbf, 0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00,
        0xc0, 0x3f, 0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00, 0xbf, 0x00,
        0x00, 0xc0, 0x3f, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xfd, 0xa0, 0x23, 0x3f,
        0xf5, 0x83, 0x8e, 0x3e, 0xf8, 0xe2, 0x6a, 0x3f, 0xf5, 0x83, 0x0e, 0x3f, 0xcb, 0x93, 0x48,
        0x3e, 0xf0, 0xc5, 0x55, 0x3f, 0xdb, 0xcd, 0xf2, 0x3e, 0x57, 0x3f, 0xe8, 0x3d, 0xe8, 0xa8,
        0x40, 0x3f,
    ];

    #[test]
    fn the_serialized_state_bytes_did_not_move() {
        let (units, hyp) = block(10);
        let goldens: Vec<(Box<dyn Measure>, &[u8])> = vec![
            (Box::new(CorrelationMeasure), GOLDEN_STATE_CORR),
            (Box::new(MutualInfoMeasure::default()), GOLDEN_STATE_MI),
            (Box::new(JaccardMeasure::default()), GOLDEN_STATE_JACCARD),
            (Box::new(DiffMeansMeasure), GOLDEN_STATE_DIFF_MEANS),
            (Box::new(MajorityBaselineMeasure), GOLDEN_STATE_MAJORITY),
            (
                Box::new(RandomBaselineMeasure { seed: 7 }),
                GOLDEN_STATE_RANDOM,
            ),
            (Box::new(GroupMiMeasure::default()), GOLDEN_STATE_GROUP_MI),
        ];
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        for (measure, golden) in goldens {
            let id = measure.id().to_string();
            let mut live = measure.new_state(2);
            live.process_block(&units, &hyp);
            assert_eq!(live.serialize_state().as_deref(), Some(golden), "{id}");
            let revived = measure
                .deserialize_state(2, golden)
                .expect("golden decodes");
            assert_eq!(revived.serialize_state().as_deref(), Some(golden), "{id}");
            assert_eq!(
                bits(revived.unit_scores()),
                bits(live.unit_scores()),
                "{id}"
            );
            for cut in 0..golden.len() {
                let prefix = measure.deserialize_state(2, &golden[..cut]);
                assert!(prefix.is_none(), "{id}: prefix {cut} decoded");
            }
            let longer = [golden, &[0]].concat();
            assert!(measure.deserialize_state(2, &longer).is_none(), "{id}");
        }
    }
}
