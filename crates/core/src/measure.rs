//! Statistical affinity measures (paper §4.3) behind a uniform
//! incremental interface.
//!
//! Every measure exposes the paper's `process_block` API through **one**
//! state trait over an ordered hypothesis list: feed a block of unit
//! behaviors + one behavior column per hypothesis, get back an error
//! estimate per hypothesis that the engine compares against the user's
//! convergence threshold (§5.2.2, early stopping). The per-pair state is
//! the list with one member. A measure whose hypotheses share work says so
//! ([`Measure::shares_hypotheses`], §5.2.1) and is handed a whole list at
//! once — exact, because what is shared does not depend on the hypothesis:
//!
//! * the logistic-regression probes train all hypotheses as one
//!   multi-output model (model merging; per-hypothesis losses and
//!   parameters are independent);
//! * the buffered measures (`jaccard`, `mutual_info`, `group_mi`) keep the
//!   capped unit sample **once**, next to one column per hypothesis, and
//!   derive the per-unit half of a score — the Jaccard threshold and
//!   bitset, the MI bin assignment — once per unit instead of once per
//!   pair.
//!
//! The other measures (`corr`, `diff_means`, the baselines) score one
//! hypothesis per state, so each pair stops early on its own.
//! `merge_from` and the durable form are per list too; a state serializes
//! one hypothesis at a time, to exactly the bytes a one-hypothesis state
//! of it would write, so stored views do not depend on how hypotheses were
//! grouped into states.

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

    /// Fresh incremental state for one unit group and an ordered list of
    /// `n_hyps` hypotheses. Measures that do not
    /// [share](Measure::shares_hypotheses) take exactly one.
    fn new_state(&self, n_units: usize, n_hyps: usize) -> Box<dyn MeasureState>;

    /// True when one state over a hypothesis list does less work than one
    /// state per hypothesis, for the same scores (model merging, §5.2.1):
    /// a pass then builds one state per member hypothesis list instead of
    /// one per pair.
    fn shares_hypotheses(&self) -> bool {
        false
    }

    /// Default convergence threshold ε (paper §6.2: 0.025 for correlation,
    /// 0.01 for logistic regression).
    fn default_epsilon(&self) -> f32;

    /// True when states of this measure can be combined across dataset
    /// segments via `MeasureState::merge_from` with the same result as
    /// one pass over the concatenated stream. Measures that cannot
    /// (order-dependent SGD probes like logistic regression) return
    /// `false`, and the planner rejects them on segmented datasets with a
    /// typed error instead of a silently wrong cross-segment score.
    fn supports_segment_merge(&self) -> bool {
        false
    }

    /// Reconstructs a state over `per_hyp_blobs.len()` hypotheses from the
    /// bytes `MeasureState::serialize_state` produced for each, in list
    /// order — the durable half of materialized views: a refresh revives
    /// the stored fold point and merges only new segments into it.
    /// Bit-exact: the revived state's scores and subsequent merges are
    /// identical to the original's. `None` (the default, and always for
    /// non-mergeable measures) means the bytes were not produced by this
    /// measure/shape, the blobs do not belong to one state, or the measure
    /// does not support durable states.
    fn deserialize_state(
        &self,
        _n_units: usize,
        _per_hyp_blobs: &[&[u8]],
    ) -> Option<Box<dyn MeasureState>> {
        None
    }
}

/// Incremental state for one unit group and an ordered hypothesis list.
pub trait MeasureState: Send {
    /// Consumes a block — `rows x n_units` behaviors and one column of
    /// `rows` values per hypothesis, in list order — and writes each
    /// hypothesis's current error estimate to `errs` (∞ until estimable).
    /// A block of any other shape panics ([`check_block`]).
    fn process_block(&mut self, units: &Matrix, hyps: &[&[f32]], errs: &mut [f32]);

    /// Every hypothesis's current `(unit scores, group score)`, in list
    /// order — the one call the engines emit result rows from, so whatever
    /// a state derives per unit is derived once for the whole list.
    fn final_scores(&self) -> Vec<(Vec<f32>, f32)>;

    /// Self as `Any`, so sibling states of the same concrete type can
    /// downcast each other inside [`MeasureState::merge_from`].
    fn as_any(&self) -> &dyn std::any::Any;

    /// Folds another state of the **same measure, unit group and
    /// hypothesis list** (fed a disjoint record range, e.g. one dataset
    /// segment) into this one. Returns `false` when the measure does not
    /// support merging (the default) or `other` is not the expected
    /// concrete type and shape; the engine treats `false` on a path that
    /// requires merging as an internal error, because the planner gates
    /// those paths on [`Measure::supports_segment_merge`].
    fn merge_from(&mut self, _other: &dyn MeasureState) -> bool {
        false
    }

    /// The current convergence-error estimate of every hypothesis, as the
    /// last [`MeasureState::process_block`] would have reported it —
    /// without consuming data. Lets the engine re-derive pending pairs
    /// after cross-segment merges. The default `∞` is only reached for
    /// states that never merge (their per-block errors are used instead).
    fn convergence_errors(&self, errs: &mut [f32]) {
        errs.fill(f32::INFINITY);
    }

    /// Serializes hypothesis `hyp`'s share of this state to bytes that the
    /// owning measure's [`Measure::deserialize_state`] revives bit-exactly
    /// (floats travel as raw bits) — the bytes a one-hypothesis state fed
    /// the same blocks would write. `None` (the default) for states
    /// without a durable form; mergeable measures must implement it for
    /// views to cover them.
    fn serialize_state(&self, _hyp: usize) -> Option<Vec<u8>> {
        None
    }
}

/// The one shape check every state runs before touching a block: a
/// drifted unit count, a short hypothesis column or a list of the wrong
/// length would otherwise shorten or shuffle the sample silently — in
/// release builds too, hence hard asserts.
pub(crate) fn check_block(
    units: &Matrix,
    hyps: &[&[f32]],
    errs: &[f32],
    n_units: usize,
    n_hyps: usize,
) {
    assert_eq!(units.cols(), n_units, "block unit-count mismatch");
    assert_eq!(
        (hyps.len(), errs.len()),
        (n_hyps, n_hyps),
        "block hypothesis-count mismatch"
    );
    for hyp in hyps {
        assert_eq!(hyp.len(), units.rows(), "block row mismatch");
    }
}

/// Guard of the measures that do not share: their states score exactly
/// one hypothesis.
fn one_hypothesis(measure: &str, n_hyps: usize) {
    assert_eq!(n_hyps, 1, "{measure} keeps one state per hypothesis");
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

    fn new_state(&self, n_units: usize, n_hyps: usize) -> Box<dyn MeasureState> {
        one_hypothesis(self.id(), n_hyps);
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

    fn deserialize_state(
        &self,
        n_units: usize,
        per_hyp_blobs: &[&[u8]],
    ) -> Option<Box<dyn MeasureState>> {
        let [bytes] = per_hyp_blobs else { return None };
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
    fn process_block(&mut self, units: &Matrix, hyps: &[&[f32]], errs: &mut [f32]) {
        check_block(units, hyps, errs, self.accs.len(), 1);
        let [hyp] = hyps else {
            unreachable!("check_block admits one hypothesis")
        };
        // Column-wise update: the hypothesis moments are shared by every
        // unit and each unit's x-moments accumulate in registers, eight
        // unit columns per row sweep — instead of scattering every row
        // across all accumulators.
        corr::accumulate_columns(&mut self.accs, units.as_slice(), hyp);
        self.convergence_errors(errs);
    }

    fn final_scores(&self) -> Vec<(Vec<f32>, f32)> {
        let unit_scores: Vec<f32> = self.accs.iter().map(|a| a.correlation()).collect();
        let group_score = unit_scores.iter().map(|s| s.abs()).fold(0.0, f32::max);
        vec![(unit_scores, group_score)]
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

    fn convergence_errors(&self, errs: &mut [f32]) {
        let widths = self.accs.iter().map(|a| a.fisher_half_width(Z_95));
        errs.fill(widths.fold(0.0f32, f32::max));
    }

    fn serialize_state(&self, hyp: usize) -> Option<Vec<u8>> {
        if hyp != 0 {
            return None;
        }
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

    fn new_state(&self, n_units: usize, n_hyps: usize) -> Box<dyn MeasureState> {
        Box::new(self.sample(n_units, n_hyps))
    }

    fn shares_hypotheses(&self) -> bool {
        true
    }

    fn default_epsilon(&self) -> f32 {
        0.01
    }

    fn supports_segment_merge(&self) -> bool {
        true
    }

    fn deserialize_state(
        &self,
        n_units: usize,
        per_hyp_blobs: &[&[u8]],
    ) -> Option<Box<dyn MeasureState>> {
        self.sample(n_units, per_hyp_blobs.len())
            .revive(per_hyp_blobs)
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
    pub(crate) fn netdissect() -> Self {
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

    fn new_state(&self, n_units: usize, n_hyps: usize) -> Box<dyn MeasureState> {
        Box::new(self.sample(n_units, n_hyps))
    }

    fn shares_hypotheses(&self) -> bool {
        true
    }

    fn default_epsilon(&self) -> f32 {
        0.01
    }

    fn supports_segment_merge(&self) -> bool {
        true
    }

    fn deserialize_state(
        &self,
        n_units: usize,
        per_hyp_blobs: &[&[u8]],
    ) -> Option<Box<dyn MeasureState>> {
        self.sample(n_units, per_hyp_blobs.len())
            .revive(per_hyp_blobs)
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
/// from a unit alone (its MI bin assignment; for Jaccard, its quantile
/// threshold and the bitset of values above it) is derived once and
/// reused across the hypotheses. Jaccard also packs each hypothesis mask
/// into a bitset once, so every (unit, hypothesis) pair is a popcount.
struct BufferedSample {
    unit_buffers: Vec<Vec<f32>>,
    hyp_buffers: Vec<Vec<f32>>,
    /// Rows buffered so far — the length of every buffer.
    rows: usize,
    max_buffer: usize,
    score: BufferedScore,
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

    /// How many of `rows` more rows still fit under the cap.
    fn room(&self, rows: usize) -> usize {
        self.max_buffer.saturating_sub(self.rows).min(rows)
    }

    /// Fills this fresh sample (one hypothesis buffer per blob) from the
    /// bytes [`MeasureState::serialize_state`] wrote per hypothesis. Every
    /// blob carries the unit sample: the copies must agree bit for bit,
    /// and in length with every hypothesis column — none is trusted over
    /// another. A sample longer than this measure's cap was written under
    /// a larger one (the cap is not in the header) and would score what no
    /// pass under this cap can, so it is refused too.
    fn revive(mut self, per_hyp_blobs: &[&[u8]]) -> Option<Box<dyn MeasureState>> {
        let header = self.score.header();
        let mut unit_bytes: Option<&[u8]> = None;
        for (blob, hyp_buffer) in per_hyp_blobs.iter().zip(&mut self.hyp_buffers) {
            let mut cur = ByteReader::new(blob);
            for &word in &header {
                if cur.u32()? != word {
                    return None;
                }
            }
            if cur.u32()? as usize != self.unit_buffers.len() {
                return None;
            }
            *hyp_buffer = cur.f32s()?;
            let theirs = &blob[cur.pos()..];
            match unit_bytes {
                None => {
                    self.rows = hyp_buffer.len();
                    for buf in &mut self.unit_buffers {
                        *buf = cur.f32s()?;
                        if buf.len() != self.rows {
                            return None;
                        }
                    }
                    if !cur.done() {
                        return None;
                    }
                    unit_bytes = Some(theirs);
                }
                Some(first) if theirs == first && hyp_buffer.len() == self.rows => {}
                Some(_) => return None,
            }
        }
        // No blob, no unit sample to revive.
        unit_bytes?;
        (self.rows <= self.max_buffer).then(|| Box::new(self) as Box<dyn MeasureState>)
    }
}

impl MeasureState for BufferedSample {
    fn process_block(&mut self, units: &Matrix, hyps: &[&[f32]], errs: &mut [f32]) {
        let (n_units, n_hyps) = (self.unit_buffers.len(), self.hyp_buffers.len());
        check_block(units, hyps, errs, n_units, n_hyps);
        let take = self.room(units.rows());
        let data = &units.as_slice()[..take * n_units];
        for (u, buf) in self.unit_buffers.iter_mut().enumerate() {
            buf.reserve(take);
            buf.extend(data.iter().skip(u).step_by(n_units));
        }
        for (buf, hyp) in self.hyp_buffers.iter_mut().zip(hyps) {
            buf.extend_from_slice(&hyp[..take]);
        }
        self.rows += take;
        self.convergence_errors(errs);
    }

    /// The per-unit half of a score is computed once for all hypotheses.
    fn final_scores(&self) -> Vec<(Vec<f32>, f32)> {
        let best = |scores: &[f32]| scores.iter().copied().fold(0.0, f32::max);
        match self.score {
            BufferedScore::Jaccard(q) => {
                let unit_bits: Vec<Vec<u64>> = (self.unit_buffers.iter())
                    .map(|buf| descriptive::above_bits(buf, quantile::quantile(buf, q)))
                    .collect();
                let score_mask = |mask: &Vec<f32>| {
                    let mask_bits = descriptive::above_bits(mask, 0.5);
                    let unit_scores: Vec<f32> = (unit_bits.iter())
                        .map(|unit| descriptive::jaccard_bits(unit, &mask_bits))
                        .collect();
                    let group_score = best(&unit_scores);
                    (unit_scores, group_score)
                };
                self.hyp_buffers.iter().map(score_mask).collect()
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
                self.hyp_buffers.iter().map(score_hyp).collect()
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    /// Appends `other`'s buffered sample after this one's, truncated at
    /// `max_buffer` — exactly what one pass over the concatenated stream
    /// would have buffered, so segment merges are deterministic.
    fn merge_from(&mut self, other: &dyn MeasureState) -> bool {
        let Some(other) = other.as_any().downcast_ref::<BufferedSample>() else {
            return false;
        };
        if other.score != self.score
            || other.unit_buffers.len() != self.unit_buffers.len()
            || other.hyp_buffers.len() != self.hyp_buffers.len()
        {
            return false;
        }
        let take = self.room(other.rows);
        let theirs = other.unit_buffers.iter().chain(&other.hyp_buffers);
        for (buf, src) in (self.unit_buffers.iter_mut())
            .chain(&mut self.hyp_buffers)
            .zip(theirs)
        {
            buf.extend_from_slice(&src[..take]);
        }
        self.rows += take;
        true
    }

    /// One sample, one size: every hypothesis reports the same error.
    fn convergence_errors(&self, errs: &mut [f32]) {
        errs.fill(if self.rows < 8 {
            f32::INFINITY
        } else {
            1.0 / (self.rows as f32).sqrt()
        });
    }

    fn serialize_state(&self, hyp: usize) -> Option<Vec<u8>> {
        let hyp_buffer = self.hyp_buffers.get(hyp)?;
        let mut out = ByteWriter::default();
        for word in self.score.header() {
            out.u32(word);
        }
        out.u32(self.unit_buffers.len() as u32);
        out.f32s(hyp_buffer);
        for buf in &self.unit_buffers {
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
pub(crate) struct DiffMeansMeasure;

impl Measure for DiffMeansMeasure {
    fn id(&self) -> &str {
        "diff_means"
    }

    fn kind(&self) -> MeasureKind {
        MeasureKind::Independent
    }

    fn new_state(&self, n_units: usize, n_hyps: usize) -> Box<dyn MeasureState> {
        one_hypothesis(self.id(), n_hyps);
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

    fn deserialize_state(
        &self,
        n_units: usize,
        per_hyp_blobs: &[&[u8]],
    ) -> Option<Box<dyn MeasureState>> {
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
        let [bytes] = per_hyp_blobs else { return None };
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
    fn process_block(&mut self, units: &Matrix, hyps: &[&[f32]], errs: &mut [f32]) {
        check_block(units, hyps, errs, self.on.len(), 1);
        let [hyp] = hyps else {
            unreachable!("check_block admits one hypothesis")
        };
        for (r, &h) in hyp.iter().enumerate() {
            let row = units.row(r);
            let side = if h > 0.5 { &mut self.on } else { &mut self.off };
            for (m, &u) in side.iter_mut().zip(row.iter()) {
                m.push(u);
            }
        }
        self.convergence_errors(errs);
    }

    fn final_scores(&self) -> Vec<(Vec<f32>, f32)> {
        let unit_scores: Vec<f32> = self
            .on
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
            .collect();
        let group_score = unit_scores
            .iter()
            .copied()
            .map(f32::abs)
            .fold(0.0, f32::max);
        vec![(unit_scores, group_score)]
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

    fn convergence_errors(&self, errs: &mut [f32]) {
        let n = self
            .on
            .first()
            .map(|m| m.n)
            .unwrap_or(0)
            .min(self.off.first().map(|m| m.n).unwrap_or(0));
        errs.fill(if n < 4 {
            f32::INFINITY
        } else {
            // Standard-error style rate for a difference of means.
            (2.0 / n as f32).sqrt()
        });
    }

    fn serialize_state(&self, hyp: usize) -> Option<Vec<u8>> {
        if hyp != 0 {
            return None;
        }
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
    /// Probe hyper-parameters (regularization, learning rate, epochs).
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

    fn new_state(&self, n_units: usize, n_hyps: usize) -> Box<dyn MeasureState> {
        Box::new(LogRegMerged::new(n_units, n_hyps, self))
    }

    fn shares_hypotheses(&self) -> bool {
        true
    }

    fn default_epsilon(&self) -> f32 {
        0.01
    }
}

/// Multi-output probe state: one model trained for the whole hypothesis
/// list.
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

    fn validation_errs(&mut self, errs: &mut [f32]) {
        if self.val_units.is_empty() {
            return errs.fill(f32::INFINITY);
        }
        let n = self.val_units.len();
        let mut x = Matrix::zeros(n, self.n_units);
        for (r, row) in self.val_units.iter().enumerate() {
            x.row_mut(r).copy_from_slice(row);
        }
        let probs = self.model.predict_proba(&x);
        for (h, err) in errs.iter_mut().enumerate() {
            let pred = probs.col(h);
            let targ: Vec<f32> = self
                .val_hyps
                .iter()
                .map(|row| if row[h] > 0.0 { 1.0 } else { 0.0 })
                .collect();
            let f1 = deepbase_stats::f1_score(&pred, &targ);
            *err = self.trackers[h].push(f1);
        }
    }
}

impl MeasureState for LogRegMerged {
    fn process_block(&mut self, units: &Matrix, hyps: &[&[f32]], errs: &mut [f32]) {
        check_block(units, hyps, errs, self.n_units, self.n_hyps);
        // Split rows into train / validation deterministically.
        let mut train_rows = Vec::with_capacity(units.rows());
        for r in 0..units.rows() {
            if self.row_counter.is_multiple_of(5) && self.val_units.len() < VAL_CAP {
                self.val_units.push(units.row(r).to_vec());
                self.val_hyps.push(hyps.iter().map(|col| col[r]).collect());
            } else {
                train_rows.push(r);
            }
            self.row_counter += 1;
        }
        if self.balance_classes {
            // Update streamed class counts and refresh the per-hypothesis
            // positive weights (clamped; identical per column regardless
            // of the list, so list == singletons stays exact).
            for (count, col) in self.pos_counts.iter_mut().zip(hyps) {
                *count += col.iter().filter(|&&v| v > 0.0).count() as u64;
            }
            self.total_count += units.rows() as u64;
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
                for (h, col) in hyps.iter().enumerate() {
                    // Binarize targets (>0 counts as active) so integer
                    // behaviors like nesting depth are probe-able.
                    y.set(dst, h, if col[src] > 0.0 { 1.0 } else { 0.0 });
                }
            }
            for _ in 0..self.inner_epochs {
                self.model.partial_fit(&x, &y);
            }
        }
        self.validation_errs(errs);
    }

    fn final_scores(&self) -> Vec<(Vec<f32>, f32)> {
        (self.trackers.iter().enumerate())
            .map(|(h, tracker)| (self.model.unit_scores(h), tracker.latest().unwrap_or(0.0)))
            .collect()
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
pub(crate) struct MajorityBaselineMeasure;

impl Measure for MajorityBaselineMeasure {
    fn id(&self) -> &str {
        "majority_baseline"
    }

    fn kind(&self) -> MeasureKind {
        MeasureKind::Joint
    }

    fn new_state(&self, n_units: usize, n_hyps: usize) -> Box<dyn MeasureState> {
        one_hypothesis(self.id(), n_hyps);
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

    fn deserialize_state(
        &self,
        n_units: usize,
        per_hyp_blobs: &[&[u8]],
    ) -> Option<Box<dyn MeasureState>> {
        decode_baseline(n_units, per_hyp_blobs, None)
    }
}

/// Random-class baseline.
pub(crate) struct RandomBaselineMeasure {
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

    fn new_state(&self, n_units: usize, n_hyps: usize) -> Box<dyn MeasureState> {
        one_hypothesis(self.id(), n_hyps);
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

    fn deserialize_state(
        &self,
        n_units: usize,
        per_hyp_blobs: &[&[u8]],
    ) -> Option<Box<dyn MeasureState>> {
        decode_baseline(n_units, per_hyp_blobs, Some(self.seed))
    }
}

/// Shared decoder for the two baseline measures: the stored seed must
/// match the deserializing measure's exactly.
fn decode_baseline(
    n_units: usize,
    per_hyp_blobs: &[&[u8]],
    random_seed: Option<u64>,
) -> Option<Box<dyn MeasureState>> {
    let [bytes] = per_hyp_blobs else { return None };
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
    fn process_block(&mut self, units: &Matrix, hyps: &[&[f32]], errs: &mut [f32]) {
        check_block(units, hyps, errs, self.n_units, 1);
        let [hyp] = hyps else {
            unreachable!("check_block admits one hypothesis")
        };
        self.labels
            .extend(hyp.iter().map(|&h| if h > 0.0 { 1.0 } else { 0.0 }));
        self.convergence_errors(errs);
    }

    fn final_scores(&self) -> Vec<(Vec<f32>, f32)> {
        let group_score = match self.random_seed {
            Some(seed) => baselines::random_class_f1(&self.labels, seed),
            None => baselines::majority_class_f1(&self.labels),
        };
        vec![(vec![group_score; self.n_units], group_score)]
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

    fn convergence_errors(&self, errs: &mut [f32]) {
        errs.fill(if self.labels.len() < 8 {
            f32::INFINITY
        } else {
            1.0 / (self.labels.len() as f32).sqrt()
        });
    }

    fn serialize_state(&self, hyp: usize) -> Option<Vec<u8>> {
        if hyp != 0 {
            return None;
        }
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
pub(crate) struct GroupMiMeasure {
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

    fn new_state(&self, n_units: usize, n_hyps: usize) -> Box<dyn MeasureState> {
        Box::new(self.sample(n_units, n_hyps))
    }

    fn shares_hypotheses(&self) -> bool {
        true
    }

    fn default_epsilon(&self) -> f32 {
        0.01
    }

    fn supports_segment_merge(&self) -> bool {
        true
    }

    fn deserialize_state(
        &self,
        n_units: usize,
        per_hyp_blobs: &[&[u8]],
    ) -> Option<Box<dyn MeasureState>> {
        self.sample(n_units, per_hyp_blobs.len())
            .revive(per_hyp_blobs)
    }
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

    /// Feeds a one-hypothesis state one block and returns its error.
    fn feed(state: &mut dyn MeasureState, units: &Matrix, hyp: &[f32]) -> f32 {
        let mut err = [f32::NAN];
        state.process_block(units, &[hyp], &mut err);
        err[0]
    }

    /// A one-hypothesis state's `(unit scores, group score)`.
    fn pair_scores(state: &dyn MeasureState) -> (Vec<f32>, f32) {
        let mut scores = state.final_scores();
        assert_eq!(scores.len(), 1, "one hypothesis, one score entry");
        scores.remove(0)
    }

    fn errors(state: &dyn MeasureState, n_hyps: usize) -> Vec<u32> {
        let mut errs = vec![f32::NAN; n_hyps];
        state.convergence_errors(&mut errs);
        errs.into_iter().map(f32::to_bits).collect()
    }

    fn refs(cols: &[Vec<f32>]) -> Vec<&[f32]> {
        cols.iter().map(|c| c.as_slice()).collect()
    }

    #[test]
    fn correlation_state_identifies_mirroring_unit() {
        let m = CorrelationMeasure;
        let mut state = m.new_state(2, 1);
        let (units, hyp) = block(300);
        let err = feed(state.as_mut(), &units, &hyp);
        assert!(err < 0.2, "error should be small after 300 symbols: {err}");
        let (scores, group) = pair_scores(state.as_ref());
        assert!(scores[0] > 0.95, "unit 0 corr {}", scores[0]);
        assert!(scores[1].abs() < 0.3, "unit 1 corr {}", scores[1]);
        assert!(group > 0.95);
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
        let mut first = m.new_state(width, 1);
        for range in [0..7, 7..40] {
            feed(first.as_mut(), &rows_of(range.clone()), &hyp[range]);
        }
        let mut second = m.new_state(width, 1);
        for range in [40..41, 41..90] {
            feed(second.as_mut(), &rows_of(range.clone()), &hyp[range]);
        }
        assert!(first.merge_from(second.as_ref()));
        let mut expect = reference(&[0..7, 7..40]);
        for (a, b) in expect.iter_mut().zip(reference(&[40..41, 41..90])) {
            a.merge(&b);
        }
        let expect = CorrState { accs: expect };
        assert_eq!(first.serialize_state(0), expect.serialize_state(0));
        assert_eq!(
            score_bits(&pair_scores(first.as_ref())),
            score_bits(&pair_scores(&expect))
        );
    }

    #[test]
    fn correlation_error_shrinks_with_blocks() {
        let m = CorrelationMeasure;
        let mut state = m.new_state(2, 1);
        let (units, hyp) = block(64);
        let e1 = feed(state.as_mut(), &units, &hyp);
        let mut e2 = e1;
        for _ in 0..10 {
            e2 = feed(state.as_mut(), &units, &hyp);
        }
        assert!(e2 < e1, "{e1} -> {e2}");
    }

    #[test]
    fn mutual_info_state_ranks_dependent_unit_higher() {
        let m = MutualInfoMeasure::default();
        let mut state = m.new_state(2, 1);
        let (units, hyp) = block(400);
        feed(state.as_mut(), &units, &hyp);
        let (scores, _) = pair_scores(state.as_ref());
        assert!(scores[0] > scores[1], "{scores:?}");
    }

    #[test]
    fn jaccard_state_scores_overlapping_unit() {
        let m = JaccardMeasure {
            top_quantile: 0.5,
            max_buffer: 10_000,
            ..Default::default()
        };
        let mut state = m.new_state(2, 1);
        let (units, hyp) = block(200);
        feed(state.as_mut(), &units, &hyp);
        let (scores, _) = pair_scores(state.as_ref());
        assert!(scores[0] > 0.8, "unit 0 jaccard {}", scores[0]);
        assert!(scores[0] > scores[1]);
    }

    #[test]
    fn diff_means_streaming_matches_batch() {
        let m = DiffMeansMeasure;
        let mut state = m.new_state(2, 1);
        let (units, hyp) = block(256);
        // Feed in two chunks.
        let (u1, u2) = (units.slice_rows(0, 100), units.slice_rows(100, 256));
        feed(state.as_mut(), &u1, &hyp[..100]);
        feed(state.as_mut(), &u2, &hyp[100..]);
        let (streaming, _) = pair_scores(state.as_ref());
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
        let mut state = m.new_state(2, 1);
        let (units, hyp) = block(500);
        let mut err = f32::INFINITY;
        for _ in 0..12 {
            err = feed(state.as_mut(), &units, &hyp);
        }
        let (coefs, f1) = pair_scores(state.as_ref());
        assert!(f1 > 0.9, "probe F1 {f1}");
        assert!(err < 0.1, "converged err {err}");
        assert!(
            coefs[0] > coefs[1],
            "informative unit has larger |coef|: {coefs:?}"
        );
    }

    #[test]
    fn merged_logreg_matches_separate_states() {
        let measure = LogRegMeasure::l1(0.005);
        assert!(measure.shares_hypotheses());
        let (units, hyp) = block(300);
        // Two hypotheses: the original and its complement.
        let hyp2: Vec<f32> = hyp.iter().map(|&h| 1.0 - h).collect();

        let mut merged = measure.new_state(2, 2);
        let mut sep0 = measure.new_state(2, 1);
        let mut sep1 = measure.new_state(2, 1);
        for _ in 0..6 {
            merged.process_block(&units, &[&hyp, &hyp2], &mut [0.0; 2]);
            feed(sep0.as_mut(), &units, &hyp);
            feed(sep1.as_mut(), &units, &hyp2);
        }
        let merged = merged.final_scores();
        let (sep0, sep1) = (pair_scores(sep0.as_ref()), pair_scores(sep1.as_ref()));
        for u in 0..2 {
            assert!((merged[0].0[u] - sep0.0[u]).abs() < 1e-4, "hyp 0 unit {u}");
            assert!((merged[1].0[u] - sep1.0[u]).abs() < 1e-4, "hyp 1 unit {u}");
        }
        assert!((merged[0].1 - sep0.1).abs() < 1e-5);
    }

    #[test]
    fn baselines_score_labels_only() {
        let (units, hyp) = block(100);
        let mut maj = MajorityBaselineMeasure.new_state(2, 1);
        feed(maj.as_mut(), &units, &hyp);
        let expected = baselines::majority_class_f1(
            &hyp.iter()
                .map(|&h| if h > 0.0 { 1.0 } else { 0.0 })
                .collect::<Vec<_>>(),
        );
        let (unit_scores, group_score) = pair_scores(maj.as_ref());
        assert!((group_score - expected).abs() < 1e-6);
        assert_eq!(unit_scores, vec![expected; 2]);

        let mut rnd = RandomBaselineMeasure { seed: 3 }.new_state(2, 1);
        feed(rnd.as_mut(), &units, &hyp);
        let (_, s) = pair_scores(rnd.as_ref());
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
        let mut state = m.new_state(2, 1);
        feed(state.as_mut(), &units, &hyp);
        let (singles, group) = pair_scores(state.as_ref());
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
            let mut original = m.new_state(2, 1);
            feed(original.as_mut(), &units, &hyp);
            let bytes = original
                .serialize_state(0)
                .unwrap_or_else(|| panic!("{} state must serialize", m.id()));
            assert!(original.serialize_state(1).is_none(), "{}", m.id());
            let mut revived = m
                .deserialize_state(2, &[&bytes])
                .unwrap_or_else(|| panic!("{} state must deserialize", m.id()));
            assert_eq!(
                score_bits(&pair_scores(revived.as_ref())),
                score_bits(&pair_scores(original.as_ref())),
                "{} scores changed across the round trip",
                m.id()
            );
            // Fold the same tail segment into both; they must stay equal.
            let mut tail_a = m.new_state(2, 1);
            feed(tail_a.as_mut(), &tail_units, &tail_hyp);
            let mut tail_b = m.new_state(2, 1);
            feed(tail_b.as_mut(), &tail_units, &tail_hyp);
            assert!(original.merge_from(tail_a.as_ref()));
            assert!(revived.merge_from(tail_b.as_ref()));
            assert_eq!(
                score_bits(&pair_scores(revived.as_ref())),
                score_bits(&pair_scores(original.as_ref())),
                "{} diverged after a post-revival merge",
                m.id()
            );
            assert_eq!(
                errors(revived.as_ref(), 1),
                errors(original.as_ref(), 1),
                "{} convergence error diverged",
                m.id()
            );
        }
    }

    #[test]
    fn state_deserialization_rejects_foreign_or_mangled_bytes() {
        let (units, hyp) = block(64);
        let mut corr = CorrelationMeasure.new_state(2, 1);
        feed(corr.as_mut(), &units, &hyp);
        let bytes = corr.serialize_state(0).unwrap();
        // Wrong measure family.
        assert!(MutualInfoMeasure::default()
            .deserialize_state(2, &[&bytes])
            .is_none());
        // Wrong unit count.
        assert!(CorrelationMeasure.deserialize_state(3, &[&bytes]).is_none());
        // Truncated.
        assert!(CorrelationMeasure
            .deserialize_state(2, &[&bytes[..bytes.len() - 1]])
            .is_none());
        // Trailing garbage.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(CorrelationMeasure
            .deserialize_state(2, &[&padded])
            .is_none());
        // Different jaccard quantile rejects the other's buffers.
        let mut j95 = JaccardMeasure::default().new_state(2, 1);
        feed(j95.as_mut(), &units, &hyp);
        let jb = j95.serialize_state(0).unwrap();
        let j995 = JaccardMeasure::netdissect();
        assert!(j995.deserialize_state(2, &[&jb]).is_none());
        // Mismatched baseline seed rejects.
        let mut rnd = RandomBaselineMeasure { seed: 1 }.new_state(2, 1);
        feed(rnd.as_mut(), &units, &hyp);
        let rb = rnd.serialize_state(0).unwrap();
        assert!(RandomBaselineMeasure { seed: 2 }
            .deserialize_state(2, &[&rb])
            .is_none());
        assert!(MajorityBaselineMeasure
            .deserialize_state(2, &[&rb])
            .is_none());
        // Non-mergeable logreg has no durable form at all.
        let lr = LogRegMeasure::l1(0.01);
        let s = lr.new_state(2, 1);
        assert!(s.serialize_state(0).is_none());
        assert!(lr.deserialize_state(2, &[&bytes]).is_none());

        // A measure that scores one hypothesis per state takes one blob:
        // none and two are refused, whatever they hold.
        for measure in standard_library() {
            if measure.shares_hypotheses() || !measure.supports_segment_merge() {
                continue;
            }
            let mut state = measure.new_state(2, 1);
            feed(state.as_mut(), &units, &hyp);
            let blob = state.serialize_state(0).unwrap();
            assert!(measure.deserialize_state(2, &[&blob]).is_some());
            assert!(measure.deserialize_state(2, &[]).is_none());
            let two = measure.deserialize_state(2, &[&blob, &blob]);
            assert!(two.is_none(), "{}", measure.id());
        }

        // The buffered measures revive a list from one blob per
        // hypothesis, each carrying the unit sample.
        for measure in buffered_measures(100) {
            let id = measure.id();
            let (units, cols) = stream_block(0, 40, 2, 2);
            let mut state = measure.new_state(2, 2);
            state.process_block(&units, &refs(&cols), &mut [0.0; 2]);
            let blobs = [0, 1].map(|h| state.serialize_state(h).unwrap());
            assert!(state.serialize_state(2).is_none(), "{id}");
            let revived = measure
                .deserialize_state(2, &[&blobs[0], &blobs[1]])
                .expect("the state's own blobs revive");
            assert_eq!(revived.serialize_state(1).as_ref(), Some(&blobs[1]), "{id}");
            // No blob: no unit sample to revive a zero-hypothesis state from.
            assert!(measure.deserialize_state(2, &[]).is_none(), "{id}");
            // A unit sample that disagrees in one bit of one value (here
            // its last), in either blob.
            let mut flipped = blobs[1].clone();
            *flipped.last_mut().unwrap() ^= 1;
            let disagreeing = measure.deserialize_state(2, &[&blobs[0], &flipped]);
            assert!(disagreeing.is_none(), "{id}");
            let disagreeing = measure.deserialize_state(2, &[&flipped, &blobs[0]]);
            assert!(disagreeing.is_none(), "{id}");
            // A second blob from a shorter stream: its unit sample and its
            // hypothesis column agree with each other, not with the first.
            let mut shorter = measure.new_state(2, 1);
            feed(shorter.as_mut(), &units.slice_rows(0, 39), &cols[1][..39]);
            let shorter = shorter.serialize_state(0).unwrap();
            assert!(measure.deserialize_state(2, &[&shorter]).is_some(), "{id}");
            let ragged = measure.deserialize_state(2, &[&blobs[0], &shorter]);
            assert!(ragged.is_none(), "{id}");
            // A sample written under a larger cap than the measure's own.
            let mut roomy = buffered_measures(101)
                .into_iter()
                .find(|m| m.id() == id)
                .unwrap()
                .new_state(2, 1);
            let (units, cols) = stream_block(0, 101, 2, 1);
            feed(roomy.as_mut(), &units, &cols[0]);
            let over_cap = roomy.serialize_state(0).unwrap();
            assert!(measure.deserialize_state(2, &[&over_cap]).is_none(), "{id}");
        }
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
                let mut state = m.new_state(2, 1);
                feed(state.as_mut(), &units, &hyp);
                state.serialize_state(0).unwrap()
            };
            assert!(by_id(id)
                .deserialize_state(2, &[&bytes_of(&same)])
                .is_some());
            assert!(by_id(id)
                .deserialize_state(2, &[&bytes_of(&other)])
                .is_none());
        }
        // Which measures are handed a whole hypothesis list.
        let sharing: Vec<&str> = (lib.iter().filter(|m| m.shares_hypotheses()))
            .map(|m| m.id())
            .collect();
        let expect = [
            "mutual_info",
            "jaccard",
            "jaccard_q95",
            "logreg_l1",
            "logreg_l2",
            "group_mi",
        ];
        assert_eq!(sharing, expect);
    }

    // -----------------------------------------------------------------
    // One state over N hypotheses ≡ N one-hypothesis states
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
    fn stream_block(
        start: usize,
        rows: usize,
        n_units: usize,
        n_hyps: usize,
    ) -> (Matrix, Vec<Vec<f32>>) {
        let units = Matrix::from_fn(rows, n_units, |r, u| {
            let r = start + r;
            (((r * 7919 + u * 31) % 23) as f32 - 11.0).max(0.0) * (u + 1) as f32
        });
        let hyps = (0..n_hyps)
            .map(|h| {
                (start..start + rows)
                    .map(|r| ((r / (h + 2)) % 3) as f32)
                    .collect()
            })
            .collect();
        (units, hyps)
    }

    fn score_bits(scores: &(Vec<f32>, f32)) -> (Vec<u32>, u32) {
        (
            scores.0.iter().map(|s| s.to_bits()).collect(),
            scores.1.to_bits(),
        )
    }

    /// One list state next to one one-hypothesis state per member, fed the
    /// same blocks of the fixed stream from row `start` on.
    struct ListAndSingletons {
        list: Box<dyn MeasureState>,
        singles: Vec<Box<dyn MeasureState>>,
        n_units: usize,
        what: String,
    }

    impl ListAndSingletons {
        fn new(measure: &dyn Measure, n_units: usize, n_hyps: usize) -> Self {
            ListAndSingletons {
                list: measure.new_state(n_units, n_hyps),
                singles: (0..n_hyps).map(|_| measure.new_state(n_units, 1)).collect(),
                n_units,
                what: format!("{} units {n_units} hyps {n_hyps}", measure.id()),
            }
        }

        /// Feeds `blocks` (row counts) to both sides, demanding equal
        /// errors after every block; returns the next unread row.
        fn feed(&mut self, mut start: usize, blocks: &[usize]) -> usize {
            let n_hyps = self.singles.len();
            for &rows in blocks {
                let (units, cols) = stream_block(start, rows, self.n_units, n_hyps);
                start += rows;
                let mut errs = vec![f32::NAN; n_hyps];
                self.list.process_block(&units, &refs(&cols), &mut errs);
                for (h, single) in self.singles.iter_mut().enumerate() {
                    let err = feed(single.as_mut(), &units, &cols[h]);
                    let what = &self.what;
                    assert_eq!(errs[h].to_bits(), err.to_bits(), "{what}: error of {h}");
                }
            }
            start
        }

        /// Folds `other` into `self` on both sides.
        fn merge_from(&mut self, other: &ListAndSingletons) {
            assert!(self.list.merge_from(other.list.as_ref()), "{}", self.what);
            for (ours, theirs) in self.singles.iter_mut().zip(&other.singles) {
                assert!(ours.merge_from(theirs.as_ref()), "{}", self.what);
            }
        }

        /// The list state is its singletons: scores, errors and — hypothesis
        /// by hypothesis — serialized bytes.
        fn assert_equal(&self, when: &str) {
            let what = format!("{} {when}", self.what);
            let all = self.list.final_scores();
            assert_eq!(all.len(), self.singles.len(), "{what}");
            let list_errors = errors(self.list.as_ref(), self.singles.len());
            for (h, single) in self.singles.iter().enumerate() {
                let want = score_bits(&pair_scores(single.as_ref()));
                assert_eq!(score_bits(&all[h]), want, "{what}: final scores of {h}");
                assert_eq!(
                    self.list.serialize_state(h),
                    single.serialize_state(0),
                    "{what}: bytes of {h}"
                );
                let single_error = errors(single.as_ref(), 1);
                assert_eq!(list_errors[h..h + 1], single_error[..], "{what}: {h}");
            }
        }
    }

    fn assert_list_equals_singletons(
        measure: &dyn Measure,
        n_units: usize,
        n_hyps: usize,
        blocks: &[usize],
    ) {
        let mut both = ListAndSingletons::new(measure, n_units, n_hyps);
        both.feed(0, blocks);
        both.assert_equal(&format!("after blocks {blocks:?}"));
    }

    #[test]
    fn a_list_state_equals_its_singletons_on_the_edge_cases() {
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
                    assert_list_equals_singletons(measure.as_ref(), n_units, 3, blocks);
                }
            }
            assert_list_equals_singletons(measure.as_ref(), 2, 1, &[60, 60]);
        }
    }

    proptest::proptest! {
        #[test]
        fn a_list_state_equals_its_singletons_on_ragged_blocks(
            blocks in proptest::collection::vec(0usize..48, 0..8),
            max_buffer in 1usize..160,
            n_units in 1usize..6,
            n_hyps in 1usize..5,
        ) {
            for measure in buffered_measures(max_buffer) {
                assert_list_equals_singletons(measure.as_ref(), n_units, n_hyps, &blocks);
            }
        }

        /// Two states over consecutive ranges, merged, are the state of one
        /// pass over the concatenation — cap included, crossed before,
        /// inside or after the merge — as a list and as its singletons.
        #[test]
        fn merge_from_equals_one_pass_over_the_concatenation(
            first in proptest::collection::vec(0usize..48, 0..4),
            second in proptest::collection::vec(0usize..48, 0..4),
            max_buffer in 1usize..160,
            n_hyps in 1usize..4,
        ) {
            for measure in buffered_measures(max_buffer) {
                let new = || ListAndSingletons::new(measure.as_ref(), 3, n_hyps);
                let (mut a, mut b, mut whole) = (new(), new(), new());
                let mid = a.feed(0, &first);
                b.feed(mid, &second);
                let end = whole.feed(0, &first);
                whole.feed(end, &second);
                a.merge_from(&b);
                a.assert_equal("merged");
                whole.assert_equal("in one pass");
                for h in 0..n_hyps {
                    proptest::prop_assert_eq!(
                        a.list.serialize_state(h),
                        whole.list.serialize_state(h)
                    );
                }
                let scores = |s: &ListAndSingletons| -> Vec<_> {
                    s.list.final_scores().iter().map(score_bits).collect()
                };
                proptest::prop_assert_eq!(scores(&a), scores(&whole));
                proptest::prop_assert_eq!(
                    errors(a.list.as_ref(), n_hyps),
                    errors(whole.list.as_ref(), n_hyps)
                );
            }
        }
    }

    /// The cap crossed in the middle of a merge, spelled out: 60 + 60 rows
    /// under a cap of 100 keep the first 40 rows of the second state.
    #[test]
    fn merge_from_truncates_at_the_cap_mid_merge() {
        for measure in buffered_measures(100) {
            let new = || ListAndSingletons::new(measure.as_ref(), 3, 2);
            let (mut a, mut b, mut whole) = (new(), new(), new());
            a.feed(0, &[60]);
            b.feed(60, &[45, 15]);
            whole.feed(0, &[60, 45, 15]);
            a.merge_from(&b);
            a.assert_equal("merged across the cap");
            for h in 0..2 {
                assert_eq!(a.list.serialize_state(h), whole.list.serialize_state(h));
            }
            // 100 rows buffered: the error is the cap's, not 120 rows'.
            assert_eq!(errors(a.list.as_ref(), 2), [0.1f32.to_bits(); 2]);
        }
    }

    /// What a buffered score *is*: the public stats routine — each pinned
    /// to the parent's sort/`HashMap` body in `deepbase-stats` — over the
    /// first `max_buffer` rows of the pair's two columns.
    #[test]
    fn buffered_scores_are_the_stats_routines_over_the_capped_sample() {
        let (cap, n_units, n_hyps) = (90, 3, 2);
        let (units, hyps) = stream_block(0, 130, n_units, n_hyps);
        let capped = |col: &[f32]| col[..cap].to_vec();
        let unit_cols: Vec<Vec<f32>> = (0..n_units).map(|u| capped(&units.col(u))).collect();
        let unit_refs: Vec<&[f32]> = unit_cols.iter().map(|c| c.as_slice()).collect();
        let best = |scores: &[f32]| scores.iter().copied().fold(0.0, f32::max);
        for measure in buffered_measures(cap) {
            let mut list = measure.new_state(n_units, n_hyps);
            for range in [0..50, 50..130] {
                let cols: Vec<&[f32]> = hyps.iter().map(|c| &c[range.clone()]).collect();
                let block = units.slice_rows(range.start, range.end);
                list.process_block(&block, &cols, &mut [0.0; 2]);
            }
            for (h, got) in list.final_scores().iter().enumerate() {
                let hyp = capped(&hyps[h]);
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
                let mut a = ours.new_state(2, 1);
                let mut b = theirs.new_state(2, 1);
                feed(a.as_mut(), &units, &hyps[0]);
                feed(b.as_mut(), &units, &hyps[0]);
                assert_eq!(
                    a.merge_from(b.as_ref()),
                    i == j,
                    "{} <- {}",
                    ours.id(),
                    theirs.id()
                );
            }
            // Same measure, another unit count, another list length.
            let mut a = ours.new_state(2, 1);
            assert!(!a.merge_from(ours.new_state(3, 1).as_ref()));
            assert!(!a.merge_from(ours.new_state(2, 2).as_ref()));
        }
    }

    /// Every state of every library measure refuses a mis-shaped block
    /// loudly — these are hard asserts, so in release builds too — instead
    /// of accumulating a shortened or shuffled sample; and a measure that
    /// does not share refuses to be built over a list.
    #[test]
    fn every_measure_panics_on_a_mis_shaped_block() {
        let message = |panic: Box<dyn std::any::Any + Send>| -> String {
            (panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| panic.downcast_ref::<&str>().unwrap().to_string())
        };
        let (units, cols) = stream_block(0, 10, 2, 4);
        let (wide, _) = stream_block(0, 10, 3, 0);
        let cut = |cols: &[Vec<f32>]| -> Vec<Vec<f32>> {
            cols.iter().map(|c| c[..c.len() - 1].to_vec()).collect()
        };
        for measure in standard_library() {
            let n = if measure.shares_hypotheses() { 3 } else { 1 };
            let mut last_short = cols[..n].to_vec();
            last_short[n - 1].pop();
            // (what, units, hypothesis columns, error slots, panic message)
            let cases = [
                (
                    "a drifted unit count",
                    &wide,
                    cols[..n].to_vec(),
                    n,
                    "unit-count",
                ),
                ("short columns", &units, cut(&cols[..n]), n, "row"),
                ("a short last column", &units, last_short, n, "row"),
                (
                    "a missing column",
                    &units,
                    cols[..n - 1].to_vec(),
                    n,
                    "hypothesis-count",
                ),
                (
                    "an extra column",
                    &units,
                    cols[..n + 1].to_vec(),
                    n,
                    "hypothesis-count",
                ),
                (
                    "a missing error slot",
                    &units,
                    cols[..n].to_vec(),
                    n - 1,
                    "hypothesis-count",
                ),
            ];
            for (what, units, hyps, n_errs, expect) in cases {
                let mut state = measure.new_state(2, n);
                let mut errs = vec![f32::NAN; n_errs];
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    state.process_block(units, &refs(&hyps), &mut errs)
                }));
                let panic = outcome.expect_err(&format!("{}: {what} was taken", measure.id()));
                let message = message(panic);
                assert!(
                    message.contains(&format!("block {expect} mismatch")),
                    "{}: {what} panicked with {message:?}",
                    measure.id()
                );
            }
            let mut state = measure.new_state(2, n);
            state.process_block(&units, &refs(&cols[..n]), &mut vec![f32::NAN; n]);
            assert_eq!(state.final_scores().len(), n);

            if !measure.shares_hypotheses() {
                let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    measure.new_state(2, 2).final_scores()
                }));
                let panic = built.expect_err("a list state of a non-sharing measure");
                assert!(message(panic).contains("keeps one state per hypothesis"));
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
        for (measure, golden) in goldens {
            let id = measure.id().to_string();
            let mut live = measure.new_state(2, 1);
            feed(live.as_mut(), &units, &hyp);
            assert_eq!(live.serialize_state(0).as_deref(), Some(golden), "{id}");
            let revived = measure
                .deserialize_state(2, &[golden])
                .expect("golden decodes");
            assert_eq!(revived.serialize_state(0).as_deref(), Some(golden), "{id}");
            assert_eq!(
                score_bits(&pair_scores(revived.as_ref())),
                score_bits(&pair_scores(live.as_ref())),
                "{id}"
            );
            for cut in 0..golden.len() {
                let prefix = measure.deserialize_state(2, &[&golden[..cut]]);
                assert!(prefix.is_none(), "{id}: prefix {cut} decoded");
            }
            let longer = [golden, &[0]].concat();
            assert!(measure.deserialize_state(2, &[&longer]).is_none(), "{id}");
        }
    }
}
