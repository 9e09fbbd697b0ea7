//! Statistical affinity measures (paper §4.3) behind a uniform
//! incremental interface.
//!
//! Every measure exposes the paper's `process_block` API through **one**
//! state trait over an ordered hypothesis list: feed a block of unit
//! behaviors + one behavior column per hypothesis, then read an error
//! estimate per hypothesis ([`MeasureState::convergence_errors`]) that the
//! engine compares against the user's convergence threshold (§5.2.2,
//! early stopping). Every state is a list, handed a member's whole
//! hypothesis list at once; the per-pair state is the list with one
//! member. There is one state type per measure family, and what a list
//! shares (model merging, §5.2.1) is exact, because it does not depend
//! on the hypothesis:
//!
//! * `LogRegMerged`: the logistic-regression probes train all hypotheses
//!   as one multi-output model (per-hypothesis losses and parameters are
//!   independent);
//! * `BufferedSample`, behind the one [`BufferedMeasure`] (`jaccard`,
//!   `jaccard_q95`, `mutual_info`, `group_mi`): the capped unit sample is
//!   kept **once**, next to one column per hypothesis, and the per-unit
//!   half of a score — the Jaccard threshold and bitset, the MI bin
//!   assignment — is derived once per unit instead of once per pair;
//! * `PerMember<S>`, one `Member` per hypothesis, for every pairwise
//!   measure: `corr` (a member is one Pearson accumulator per unit, and
//!   its list hook, `Member::feed`, runs the block kernel that sums each
//!   unit's `x` moments once per block for the whole list, in the same
//!   row order a one-hypothesis state would), `diff_means` and the
//!   baselines (whose members share nothing and are pushed one by one).
//!
//! `corr`, `diff_means` and the baselines are **pairwise**
//! ([`Measure::pairwise`]): their state is a grid of independent
//! `(unit, hypothesis)` accumulators, so it reports every pair's error
//! ([`MeasureState::pair_errors`]), can be cut down to any units × list
//! (`project`) and written back (`embed`), and leaves a member it is not
//! fed a column for as it is. The engine feeds one grid to several slots
//! that way, and stops each member at the block its own error met ε —
//! where its one-hypothesis state would have stopped — by no longer
//! feeding it. The states of the other measures are fed every column and
//! stop when their whole list has converged.
//! `merge_from` and the durable form are per list too; a state serializes
//! one hypothesis at a time, to exactly the bytes a one-hypothesis state
//! of it would write, so stored views do not depend on how hypotheses were
//! grouped into states.

use deepbase_stats::{
    baselines, corr, corr::StreamingPearson, descriptive, mi, quantile, ConvergenceTracker,
    LogRegConfig, MultiLogReg, Z_95,
};
use deepbase_store::durable::{ByteReader, ByteWriter};
use deepbase_tensor::{transpose_columns_into, Columns, Matrix};

/// A statistical affinity measure.
pub trait Measure: Send + Sync {
    /// Stable identifier (`corr`, `logreg_l1`, …).
    fn id(&self) -> &str;

    /// Fresh incremental state for one unit group and an ordered list of
    /// `n_hyps` hypotheses.
    fn new_state(&self, n_units: usize, n_hyps: usize) -> Box<dyn MeasureState>;

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

    /// True when a state of this measure is a grid of independent
    /// `(unit, hypothesis)` accumulators (`corr`'s Pearson sums,
    /// `diff_means`' moments, a baseline's labels): a pair's state does
    /// not depend on which other units and hypotheses share it. A pass then
    /// feeds one state over the union of several slots' pairs, projects
    /// each slot's own out of it, and stops each member on its own. The
    /// states of a pairwise measure implement
    /// `MeasureState::pair_errors`, `project` and `embed`, and leave a
    /// member they are fed no column for as it is.
    fn pairwise(&self) -> bool {
        false
    }

    /// Reconstructs a state over `per_hyp_blobs.len()` hypotheses from the
    /// bytes `MeasureState::serialize_state` produced for each, in list
    /// order — the durable half of materialized views: a refresh revives
    /// the stored fold point and merges only new segments into it.
    /// Bit-exact: the revived state's scores and subsequent merges are
    /// identical to the original's. `None` (the default, and always for
    /// non-mergeable measures) means there is no blob, the bytes were not
    /// produced by this measure/shape, the blobs do not belong to one
    /// state, or the measure does not support durable states.
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
    /// Consumes a block: the unit behaviors, unit-major — one column of
    /// `rows` values per unit ([`Columns`]) — and, per hypothesis in list
    /// order, its column of `rows` values — or `None` for a member that is
    /// not fed this block, which a pairwise state ([`Measure::pairwise`])
    /// leaves as it is and every other state refuses. A block of any other
    /// shape panics ([`check_block`]).
    fn process_block(&mut self, units: Columns<'_>, hyps: &[Option<&[f32]>]);

    /// Every hypothesis's current `(unit scores, group score)`, in list
    /// order — the one call the engines emit result rows from, so whatever
    /// a state derives per unit is derived once for the whole list.
    fn final_scores(&self) -> Vec<(Vec<f32>, f32)>;

    /// Every hypothesis's current convergence-error estimate (∞ until
    /// estimable), in list order: what the engines compare against ε,
    /// after each block and on the final state. `errs` holds one slot per
    /// hypothesis; any other length panics.
    fn convergence_errors(&self, errs: &mut [f32]);

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

    /// Serializes hypothesis `hyp`'s share of this state to bytes that the
    /// owning measure's [`Measure::deserialize_state`] revives bit-exactly
    /// (floats travel as raw bits) — the bytes a one-hypothesis state fed
    /// the same blocks would write. `None` (the default) for states
    /// without a durable form; mergeable measures must implement it for
    /// views to cover them.
    fn serialize_state(&self, _hyp: usize) -> Option<Vec<u8>> {
        None
    }

    /// The current error of every `(unit, hypothesis)` pair of a pairwise
    /// state ([`Measure::pairwise`]), hypothesis-major (pair `(u, h)` at
    /// `h * n_units + u`); a member's
    /// [`convergence_errors`](MeasureState::convergence_errors) entry is
    /// the largest of its pairs' (folded from 0). `pair_errs` holds one
    /// slot per pair; any other length panics. Returns `false` (the
    /// default) and writes nothing when the state is not pairwise.
    fn pair_errors(&self, _pair_errs: &mut [f32]) -> bool {
        false
    }

    /// The pairs `units × hyps` of a pairwise state — indexes into its
    /// units and its list, either of which may repeat — as a state of their
    /// own: the state over those units and that list, fed the same blocks.
    /// `None` (the default) when the state is not pairwise.
    fn project(&self, _units: &[usize], _hyps: &[usize]) -> Option<Box<dyn MeasureState>> {
        None
    }

    /// The inverse of [`MeasureState::project`]: overwrites the pairs
    /// `units × hyps` of this pairwise state with `part`, a state over
    /// exactly those units and that list. Returns `false` (the default)
    /// when the state is not pairwise, or `part` is of another kind or
    /// shape.
    fn embed(&mut self, _part: &dyn MeasureState, _units: &[usize], _hyps: &[usize]) -> bool {
        false
    }
}

/// The one shape check every state runs before touching a block: a
/// drifted unit count, a short hypothesis column or a list of the wrong
/// length would otherwise shorten or shuffle the sample silently — in
/// release builds too, hence hard asserts. A `None` column passes; a
/// state that feeds every member takes its columns through
/// [`every_column`].
pub(crate) fn check_block(
    units: Columns<'_>,
    hyps: &[Option<&[f32]>],
    n_units: usize,
    n_hyps: usize,
) {
    assert_eq!(units.width(), n_units, "block unit-count mismatch");
    assert_eq!(hyps.len(), n_hyps, "block hypothesis-count mismatch");
    for hyp in hyps.iter().flatten() {
        assert_eq!(hyp.len(), units.rows(), "block row mismatch");
    }
}

/// [`check_block`] for a state that is not pairwise: its members are fed
/// together, so every one of them must have its column.
fn every_column<'h>(
    units: Columns<'_>,
    hyps: &[Option<&'h [f32]>],
    n_units: usize,
    n_hyps: usize,
) -> Vec<&'h [f32]> {
    check_block(units, hyps, n_units, n_hyps);
    let column = |hyp: &Option<&'h [f32]>| {
        hyp.expect("block column mismatch: only a pairwise state leaves a member unfed")
    };
    hyps.iter().map(column).collect()
}

/// The length check of every error read: one slot per hypothesis, or per
/// pair ([`MeasureState::pair_errors`]).
fn check_errs(errs: &[f32], n: usize) {
    assert_eq!(errs.len(), n, "error-slot count mismatch");
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

    fn new_state(&self, n_units: usize, n_hyps: usize) -> Box<dyn MeasureState> {
        PerMember::boxed(
            n_units,
            vec![vec![StreamingPearson::new(); n_units]; n_hyps],
        )
    }

    fn default_epsilon(&self) -> f32 {
        0.025
    }

    fn supports_segment_merge(&self) -> bool {
        true
    }

    fn pairwise(&self) -> bool {
        true
    }

    fn deserialize_state(
        &self,
        n_units: usize,
        per_hyp_blobs: &[&[u8]],
    ) -> Option<Box<dyn MeasureState>> {
        PerMember::revive(n_units, per_hyp_blobs, |bytes| {
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
            cur.done().then_some(accs)
        })
    }
}

/// Leading tag of each serialized-state family, so bytes of one measure
/// fed to another are rejected instead of misread.
const STATE_TAG_CORR: u32 = 1;
const STATE_TAG_BUFFERED: u32 = 2;
const STATE_TAG_DIFF_MEANS: u32 = 3;
const STATE_TAG_BASELINE: u32 = 4;
const STATE_TAG_GROUP_MI: u32 = 5;

/// One hypothesis's Pearson accumulators, one per unit. A list is fed by
/// the block kernel ([`corr::accumulate_list`]), which sums each unit's
/// `x` moments once for the whole list and leaves an unfed member
/// untouched.
impl Member for Vec<StreamingPearson> {
    fn push(&mut self, units: Columns<'_>, hyp: &[f32]) {
        corr::accumulate_list(std::slice::from_mut(self), units, &[Some(hyp)]);
    }

    fn feed(members: &mut [Self], units: Columns<'_>, hyps: &[Option<&[f32]>]) {
        corr::accumulate_list(members, units, hyps);
    }

    fn scores(&self) -> (Vec<f32>, f32) {
        let unit_scores: Vec<f32> = self.iter().map(|a| a.correlation()).collect();
        let group_score = unit_scores.iter().map(|s| s.abs()).fold(0.0, f32::max);
        (unit_scores, group_score)
    }

    /// The widest Fisher interval over the units.
    fn error(&self) -> f32 {
        let widths = self.iter().map(|a| a.fisher_half_width(Z_95));
        widths.fold(0.0f32, f32::max)
    }

    fn pair_errors(&self, errs: &mut [f32]) {
        for (err, acc) in errs.iter_mut().zip(self) {
            *err = acc.fisher_half_width(Z_95);
        }
    }

    fn merge(&mut self, other: &Self) {
        for (a, b) in self.iter_mut().zip(other) {
            a.merge(b);
        }
    }

    fn serialize(&self) -> Vec<u8> {
        let mut out = ByteWriter::default();
        out.u32(STATE_TAG_CORR);
        out.u32(self.len() as u32);
        for acc in self {
            for b in acc.state_bits() {
                out.u64(b);
            }
        }
        out.0
    }

    fn project(&self, units: &[usize]) -> Option<Self> {
        units.iter().map(|&u| self.get(u).cloned()).collect()
    }

    fn embed(&mut self, part: &Self, units: &[usize]) -> bool {
        let fits = units.iter().all(|&u| u < self.len()) && part.len() == units.len();
        if fits {
            for (acc, &u) in part.iter().zip(units) {
                self[u] = acc.clone();
            }
        }
        fits
    }
}

// ---------------------------------------------------------------------
// The buffered measures: mutual information, Jaccard, group MI
// ---------------------------------------------------------------------

/// A measure scored from a capped sample of the stream rather than from
/// moments of it (`BufferedSample`): binned mutual information per unit
/// (Morcos et al.-style), the Jaccard coefficient of a unit's
/// top-quantile activations with a binary hypothesis mask (NetDissect's
/// IoU, Appendix E), or multivariate MI over the whole unit group (paper
/// §4.3). It buffers up to `max_buffer` rows — quantile binning and
/// thresholds need the sample — and its error estimate is the standard
/// `1/sqrt(n)` Monte-Carlo rate.
pub struct BufferedMeasure {
    /// Identifier — distinguishes the Jaccard quantile variants: the
    /// library registers 0.995 as `jaccard` and 0.95 as `jaccard_q95`.
    name: String,
    score: BufferedScore,
    /// Buffer cap in rows.
    max_buffer: usize,
}

impl BufferedMeasure {
    /// `mutual_info`: binned MI per unit over `bins` quantile bins; the
    /// group score is the best unit's. Panics when `bins` is 0.
    pub fn mutual_info(bins: usize, max_buffer: usize) -> Self {
        assert!(bins > 0, "mutual_info needs at least one bin, got bins = 0");
        Self::new("mutual_info", BufferedScore::Mi(bins), max_buffer)
    }

    /// `group_mi`: [`BufferedMeasure::mutual_info`]'s unit scores, and the
    /// multivariate MI of the whole unit group as the group score. Panics
    /// when `bins` is 0.
    pub fn group_mi(bins: usize, max_buffer: usize) -> Self {
        assert!(bins > 0, "group_mi needs at least one bin, got bins = 0");
        Self::new("group_mi", BufferedScore::GroupMi(bins), max_buffer)
    }

    /// Jaccard under the id `name`: activations above the `top_quantile`
    /// of a unit's sample count as "on" (NetDissect uses a high quantile
    /// such as 0.95–0.995). Panics when `top_quantile` is outside [0, 1].
    pub fn jaccard(name: impl Into<String>, top_quantile: f32, max_buffer: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&top_quantile),
            "jaccard top_quantile must lie in [0, 1], got {top_quantile}"
        );
        Self::new(name, BufferedScore::Jaccard(top_quantile), max_buffer)
    }

    fn new(name: impl Into<String>, score: BufferedScore, max_buffer: usize) -> Self {
        BufferedMeasure {
            name: name.into(),
            score,
            max_buffer,
        }
    }

    fn sample(&self, n_units: usize, n_hyps: usize) -> BufferedSample {
        BufferedSample::new(n_units, n_hyps, self.max_buffer, self.score)
    }
}

impl Measure for BufferedMeasure {
    fn id(&self) -> &str {
        &self.name
    }

    fn new_state(&self, n_units: usize, n_hyps: usize) -> Box<dyn MeasureState> {
        Box::new(self.sample(n_units, n_hyps))
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
    fn process_block(&mut self, units: Columns<'_>, hyps: &[Option<&[f32]>]) {
        let (n_units, n_hyps) = (self.unit_buffers.len(), self.hyp_buffers.len());
        let hyps = every_column(units, hyps, n_units, n_hyps);
        let take = self.room(units.rows());
        for (buf, column) in self.unit_buffers.iter_mut().zip(units.iter()) {
            buf.extend_from_slice(&column[..take]);
        }
        for (buf, hyp) in self.hyp_buffers.iter_mut().zip(hyps) {
            buf.extend_from_slice(&hyp[..take]);
        }
        self.rows += take;
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
        check_errs(errs, self.hyp_buffers.len());
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
// The pairwise state: one member per hypothesis
// ---------------------------------------------------------------------

/// The state of one hypothesis of a pairwise measure: one accumulator
/// per unit, or one the units share; [`PerMember`] makes a list of them.
trait Member: Send + Sized + 'static {
    /// Consumes a block: the unit columns and this member's column of
    /// `rows` values, both already checked.
    fn push(&mut self, units: Columns<'_>, hyp: &[f32]);

    /// Consumes a block for a whole list: each member fed its column, and
    /// one with none left as it is. The default pushes each fed member; a
    /// member type whose list shares work per block overrides it.
    fn feed(members: &mut [Self], units: Columns<'_>, hyps: &[Option<&[f32]>]) {
        for (member, hyp) in members.iter_mut().zip(hyps) {
            if let Some(hyp) = hyp {
                member.push(units, hyp);
            }
        }
    }

    /// `(unit scores, group score)`.
    fn scores(&self) -> (Vec<f32>, f32);

    /// The convergence error of what was consumed so far (`∞` until
    /// estimable): the widest of its pairs' errors.
    fn error(&self) -> f32;

    /// Each unit's pair error, one slot per unit. The default gives every
    /// pair the member's error.
    fn pair_errors(&self, errs: &mut [f32]) {
        errs.fill(self.error());
    }

    /// False when `other` was built under another configuration of the
    /// measure, so the two must not merge.
    fn merges_with(&self, _other: &Self) -> bool {
        true
    }

    /// Folds `other`, fed a disjoint record range, into this member.
    fn merge(&mut self, other: &Self);

    /// This member's durable bytes: those of a one-hypothesis state.
    fn serialize(&self) -> Vec<u8>;

    /// This member over `units`, indexes into its own (a repeat repeats):
    /// the member a state over those units would hold. `None` when a unit
    /// is out of range.
    fn project(&self, units: &[usize]) -> Option<Self>;

    /// The inverse of [`Member::project`]: overwrites `units` with `part`,
    /// a member over exactly those units. `false` unless `part` fits.
    fn embed(&mut self, part: &Self, units: &[usize]) -> bool;
}

/// One [`Member`] per hypothesis of the list, each fed its own column, or
/// left as it is when it has none: the list state of every pairwise
/// measure (`corr`, `diff_means`, the baselines).
struct PerMember<S> {
    n_units: usize,
    members: Vec<S>,
}

impl<S: Member> PerMember<S> {
    fn boxed(n_units: usize, members: Vec<S>) -> Box<dyn MeasureState> {
        Box::new(PerMember { n_units, members })
    }

    /// Revives a list from one blob per member, each decoded on its own;
    /// no blob, no list.
    fn revive(
        n_units: usize,
        per_hyp_blobs: &[&[u8]],
        decode: impl Fn(&[u8]) -> Option<S>,
    ) -> Option<Box<dyn MeasureState>> {
        let members: Vec<S> = per_hyp_blobs
            .iter()
            .map(|b| decode(b))
            .collect::<Option<_>>()?;
        (!members.is_empty()).then(|| Self::boxed(n_units, members))
    }
}

impl<S: Member> MeasureState for PerMember<S> {
    fn process_block(&mut self, units: Columns<'_>, hyps: &[Option<&[f32]>]) {
        check_block(units, hyps, self.n_units, self.members.len());
        S::feed(&mut self.members, units, hyps);
    }

    fn pair_errors(&self, pair_errs: &mut [f32]) -> bool {
        let n = self.n_units;
        check_errs(pair_errs, n * self.members.len());
        for (h, member) in self.members.iter().enumerate() {
            member.pair_errors(&mut pair_errs[h * n..(h + 1) * n]);
        }
        true
    }

    fn project(&self, units: &[usize], hyps: &[usize]) -> Option<Box<dyn MeasureState>> {
        let members = (hyps.iter())
            .map(|&h| self.members.get(h)?.project(units))
            .collect::<Option<Vec<S>>>()?;
        Some(Self::boxed(units.len(), members))
    }

    fn embed(&mut self, part: &dyn MeasureState, units: &[usize], hyps: &[usize]) -> bool {
        let Some(part) = part.as_any().downcast_ref::<Self>() else {
            return false;
        };
        let fits = hyps.iter().all(|&h| h < self.members.len())
            && (part.n_units, part.members.len()) == (units.len(), hyps.len());
        fits && (hyps.iter().zip(&part.members))
            .all(|(&h, theirs)| self.members[h].embed(theirs, units))
    }

    fn final_scores(&self) -> Vec<(Vec<f32>, f32)> {
        self.members.iter().map(S::scores).collect()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn merge_from(&mut self, other: &dyn MeasureState) -> bool {
        let Some(other) = other.as_any().downcast_ref::<Self>() else {
            return false;
        };
        let same_shape = (other.n_units, other.members.len()) == (self.n_units, self.members.len());
        let mut pairs = self.members.iter().zip(&other.members);
        if !same_shape || !pairs.all(|(ours, theirs)| ours.merges_with(theirs)) {
            return false;
        }
        for (ours, theirs) in self.members.iter_mut().zip(&other.members) {
            ours.merge(theirs);
        }
        true
    }

    fn convergence_errors(&self, errs: &mut [f32]) {
        check_errs(errs, self.members.len());
        for (err, member) in errs.iter_mut().zip(&self.members) {
            *err = member.error();
        }
    }

    fn serialize_state(&self, hyp: usize) -> Option<Vec<u8>> {
        self.members.get(hyp).map(S::serialize)
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

    fn new_state(&self, n_units: usize, n_hyps: usize) -> Box<dyn MeasureState> {
        let fresh = DiffMeansState {
            on: vec![Moments::default(); n_units],
            off: vec![Moments::default(); n_units],
        };
        PerMember::boxed(n_units, vec![fresh; n_hyps])
    }

    fn default_epsilon(&self) -> f32 {
        0.02
    }

    fn supports_segment_merge(&self) -> bool {
        true
    }

    fn pairwise(&self) -> bool {
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
        PerMember::revive(n_units, per_hyp_blobs, |bytes| {
            let mut cur = ByteReader::new(bytes);
            if cur.u32()? != STATE_TAG_DIFF_MEANS || cur.u32()? as usize != n_units {
                return None;
            }
            let on = side(&mut cur, n_units)?;
            let off = side(&mut cur, n_units)?;
            cur.done().then_some(DiffMeansState { on, off })
        })
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

    /// The sample variance, clamped at 0: on a constant unit the rounded
    /// `sumsq - sum·mean` can come out a hair below zero.
    fn var(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let m = self.mean();
        ((self.sumsq - self.sum * m) / (self.n - 1) as f64).max(0.0)
    }
}

#[derive(Clone)]
struct DiffMeansState {
    on: Vec<Moments>,
    off: Vec<Moments>,
}

impl Member for DiffMeansState {
    /// Each unit's moments take its column's rows in row order.
    fn push(&mut self, units: Columns<'_>, hyp: &[f32]) {
        let sides = self.on.iter_mut().zip(&mut self.off);
        for ((on, off), column) in sides.zip(units.iter()) {
            for (&u, &h) in column.iter().zip(hyp) {
                if h > 0.5 {
                    on.push(u);
                } else {
                    off.push(u);
                }
            }
        }
    }

    fn scores(&self) -> (Vec<f32>, f32) {
        let unit_scores: Vec<f32> = (self.on.iter().zip(&self.off))
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
        let group_score = unit_scores.iter().map(|s| s.abs()).fold(0.0, f32::max);
        (unit_scores, group_score)
    }

    fn merge(&mut self, other: &Self) {
        for (side, other_side) in [(&mut self.on, &other.on), (&mut self.off, &other.off)] {
            for (m, o) in side.iter_mut().zip(other_side.iter()) {
                m.n += o.n;
                m.sum += o.sum;
                m.sumsq += o.sumsq;
            }
        }
    }

    fn error(&self) -> f32 {
        let sides = self.on.first().zip(self.off.first());
        let n = sides.map_or(0, |(on, off)| on.n.min(off.n));
        if n < 4 {
            f32::INFINITY
        } else {
            // Standard-error style rate for a difference of means.
            (2.0 / n as f32).sqrt()
        }
    }

    fn project(&self, units: &[usize]) -> Option<Self> {
        let side = |moments: &[Moments]| -> Option<Vec<Moments>> {
            units.iter().map(|&u| moments.get(u).copied()).collect()
        };
        Some(DiffMeansState {
            on: side(&self.on)?,
            off: side(&self.off)?,
        })
    }

    fn embed(&mut self, part: &Self, units: &[usize]) -> bool {
        let fits = units.iter().all(|&u| u < self.on.len()) && part.on.len() == units.len();
        if fits {
            for ((&u, on), off) in units.iter().zip(&part.on).zip(&part.off) {
                (self.on[u], self.off[u]) = (*on, *off);
            }
        }
        fits
    }

    fn serialize(&self) -> Vec<u8> {
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
        out.0
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

    fn new_state(&self, n_units: usize, n_hyps: usize) -> Box<dyn MeasureState> {
        Box::new(LogRegMerged::new(n_units, n_hyps, self))
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
    /// Each hypothesis's convergence error after the last block: its
    /// tracker's reading of the validation F1.
    errs: Vec<f32>,
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
            errs: vec![f32::INFINITY; n_hyps],
            n_units,
            n_hyps,
        }
    }

    /// Scores the validation rows and pushes each hypothesis's F1 into its
    /// tracker, whose reading becomes the hypothesis's error.
    fn validate(&mut self) {
        if self.val_units.is_empty() {
            return self.errs.fill(f32::INFINITY);
        }
        let n = self.val_units.len();
        let mut x = Matrix::zeros(n, self.n_units);
        for (r, row) in self.val_units.iter().enumerate() {
            x.row_mut(r).copy_from_slice(row);
        }
        let probs = self.model.predict_proba(&x);
        for (h, (err, tracker)) in self.errs.iter_mut().zip(&mut self.trackers).enumerate() {
            let pred = probs.col(h);
            let targ: Vec<f32> = self
                .val_hyps
                .iter()
                .map(|row| if row[h] > 0.0 { 1.0 } else { 0.0 })
                .collect();
            let f1 = deepbase_stats::f1_score(&pred, &targ);
            *err = tracker.push(f1);
        }
    }
}

impl MeasureState for LogRegMerged {
    fn process_block(&mut self, units: Columns<'_>, hyps: &[Option<&[f32]>]) {
        let hyps = every_column(units, hyps, self.n_units, self.n_hyps);
        // The block's rows, gathered from its columns once.
        let n = self.n_units;
        let mut block = vec![0.0f32; units.rows() * n];
        transpose_columns_into(units.as_slices(), &mut block);
        let row = |r: usize| &block[r * n..(r + 1) * n];
        // Split rows into train / validation deterministically.
        let mut train_rows = Vec::with_capacity(units.rows());
        for r in 0..units.rows() {
            if self.row_counter.is_multiple_of(5) && self.val_units.len() < VAL_CAP {
                self.val_units.push(row(r).to_vec());
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
            for (count, col) in self.pos_counts.iter_mut().zip(&hyps) {
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
            let mut x = Matrix::zeros(train_rows.len(), n);
            let mut y = Matrix::zeros(train_rows.len(), self.n_hyps);
            for (dst, &src) in train_rows.iter().enumerate() {
                x.row_mut(dst).copy_from_slice(row(src));
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
        self.validate();
    }

    fn final_scores(&self) -> Vec<(Vec<f32>, f32)> {
        (self.trackers.iter().enumerate())
            .map(|(h, tracker)| (self.model.unit_scores(h), tracker.latest().unwrap_or(0.0)))
            .collect()
    }

    fn convergence_errors(&self, errs: &mut [f32]) {
        check_errs(errs, self.n_hyps);
        errs.copy_from_slice(&self.errs);
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

/// The naive baselines: the F1 a constant majority-class predictor
/// (`majority_baseline`) or a seeded random one (`random_baseline`)
/// achieves on the hypothesis labels; unit behaviors are ignored.
pub(crate) struct BaselineMeasure {
    /// `None` for the majority class, else the random predictions' seed.
    pub random_seed: Option<u64>,
}

impl Measure for BaselineMeasure {
    fn id(&self) -> &str {
        match self.random_seed {
            None => "majority_baseline",
            Some(_) => "random_baseline",
        }
    }

    fn new_state(&self, n_units: usize, n_hyps: usize) -> Box<dyn MeasureState> {
        let fresh = BaselineState {
            labels: Vec::new(),
            n_units,
            random_seed: self.random_seed,
        };
        PerMember::boxed(n_units, vec![fresh; n_hyps])
    }

    fn default_epsilon(&self) -> f32 {
        0.01
    }

    fn supports_segment_merge(&self) -> bool {
        true
    }

    fn pairwise(&self) -> bool {
        true
    }

    /// The stored seed must match this measure's exactly.
    fn deserialize_state(
        &self,
        n_units: usize,
        per_hyp_blobs: &[&[u8]],
    ) -> Option<Box<dyn MeasureState>> {
        PerMember::revive(n_units, per_hyp_blobs, |bytes| {
            let mut cur = ByteReader::new(bytes);
            if cur.u32()? != STATE_TAG_BASELINE || cur.u32()? as usize != n_units {
                return None;
            }
            let stored_seed = match cur.u32()? {
                0 => None,
                1 => Some(cur.u64()?),
                _ => return None,
            };
            if stored_seed != self.random_seed {
                return None;
            }
            let labels = cur.f32s()?;
            cur.done().then_some(BaselineState {
                labels,
                n_units,
                random_seed: self.random_seed,
            })
        })
    }
}

#[derive(Clone)]
struct BaselineState {
    labels: Vec<f32>,
    n_units: usize,
    random_seed: Option<u64>,
}

impl Member for BaselineState {
    fn push(&mut self, _units: Columns<'_>, hyp: &[f32]) {
        self.labels
            .extend(hyp.iter().map(|&h| if h > 0.0 { 1.0 } else { 0.0 }));
    }

    fn scores(&self) -> (Vec<f32>, f32) {
        let group_score = match self.random_seed {
            Some(seed) => baselines::random_class_f1(&self.labels, seed),
            None => baselines::majority_class_f1(&self.labels),
        };
        (vec![group_score; self.n_units], group_score)
    }

    fn merges_with(&self, other: &Self) -> bool {
        other.random_seed == self.random_seed
    }

    fn merge(&mut self, other: &Self) {
        self.labels.extend_from_slice(&other.labels);
    }

    fn error(&self) -> f32 {
        if self.labels.len() < 8 {
            f32::INFINITY
        } else {
            1.0 / (self.labels.len() as f32).sqrt()
        }
    }

    /// Every unit of a member reads its one label column, which a
    /// projection copies and an embed replaces.
    fn project(&self, units: &[usize]) -> Option<Self> {
        units
            .iter()
            .all(|&u| u < self.n_units)
            .then(|| BaselineState {
                labels: self.labels.clone(),
                n_units: units.len(),
                random_seed: self.random_seed,
            })
    }

    fn embed(&mut self, part: &Self, units: &[usize]) -> bool {
        let fits = units.iter().all(|&u| u < self.n_units)
            && part.n_units == units.len()
            && part.random_seed == self.random_seed;
        if fits {
            self.labels.clone_from(&part.labels);
        }
        fits
    }

    fn serialize(&self) -> Vec<u8> {
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
        out.0
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
        Box::new(BufferedMeasure::mutual_info(mi::DEFAULT_BINS, 65_536)),
        Box::new(BufferedMeasure::jaccard("jaccard", 0.995, 65_536)),
        Box::new(BufferedMeasure::jaccard("jaccard_q95", 0.95, 65_536)),
        Box::new(DiffMeansMeasure),
        Box::new(LogRegMeasure::l1(0.01)),
        Box::new(LogRegMeasure::l2(0.01)),
        Box::new(BufferedMeasure::group_mi(4, 16_384)),
        Box::new(BaselineMeasure { random_seed: None }),
        Box::new(BaselineMeasure {
            random_seed: Some(0),
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAJORITY_BASELINE: BaselineMeasure = BaselineMeasure { random_seed: None };

    fn random_baseline(seed: u64) -> BaselineMeasure {
        BaselineMeasure {
            random_seed: Some(seed),
        }
    }

    /// The library's measure registered as `id`.
    fn library(id: &str) -> Box<dyn Measure> {
        let mut lib = standard_library().into_iter();
        lib.find(|m| m.id() == id).expect("registered")
    }

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

    /// Feeds `state` a block written row-major (`rows × units`) as the
    /// unit-major columns a pass hands it: every test block goes through
    /// here.
    fn process(state: &mut dyn MeasureState, units: &Matrix, hyps: &[Option<&[f32]>]) {
        let columns = units.transpose();
        let cols = deepbase_tensor::column_runs(columns.as_slice(), units.rows(), units.cols());
        state.process_block(Columns::new(&cols, units.rows()), hyps);
    }

    /// Feeds a one-hypothesis state one block and returns its error.
    fn feed(state: &mut dyn MeasureState, units: &Matrix, hyp: &[f32]) -> f32 {
        process(state, units, &[Some(hyp)]);
        let mut err = [f32::NAN];
        state.convergence_errors(&mut err);
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

    /// Every column, fed.
    fn refs(cols: &[Vec<f32>]) -> Vec<Option<&[f32]>> {
        cols.iter().map(|c| Some(c.as_slice())).collect()
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
        let expect = PerMember {
            n_units: width,
            members: vec![expect],
        };
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
        let m = library("mutual_info");
        let mut state = m.new_state(2, 1);
        let (units, hyp) = block(400);
        feed(state.as_mut(), &units, &hyp);
        let (scores, _) = pair_scores(state.as_ref());
        assert!(scores[0] > scores[1], "{scores:?}");
    }

    #[test]
    fn jaccard_state_scores_overlapping_unit() {
        let m = BufferedMeasure::jaccard("jaccard_q50", 0.5, 10_000);
        let mut state = m.new_state(2, 1);
        let (units, hyp) = block(200);
        feed(state.as_mut(), &units, &hyp);
        let (scores, _) = pair_scores(state.as_ref());
        assert!(scores[0] > 0.8, "unit 0 jaccard {}", scores[0]);
        assert!(scores[0] > scores[1]);
    }

    #[test]
    #[should_panic(expected = "jaccard top_quantile must lie in [0, 1], got 1.5")]
    fn a_jaccard_quantile_above_one_is_refused_when_built() {
        BufferedMeasure::jaccard("jaccard", 1.5, 100);
    }

    #[test]
    #[should_panic(expected = "jaccard top_quantile must lie in [0, 1], got NaN")]
    fn a_nan_jaccard_quantile_is_refused_when_built() {
        BufferedMeasure::jaccard("jaccard", f32::NAN, 100);
    }

    #[test]
    #[should_panic(expected = "mutual_info needs at least one bin, got bins = 0")]
    fn mutual_info_over_zero_bins_is_refused_when_built() {
        BufferedMeasure::mutual_info(0, 100);
    }

    #[test]
    #[should_panic(expected = "group_mi needs at least one bin, got bins = 0")]
    fn group_mi_over_zero_bins_is_refused_when_built() {
        BufferedMeasure::group_mi(0, 100);
    }

    #[test]
    fn diff_means_streaming_matches_batch() {
        let m = DiffMeansMeasure;
        let mut state = m.new_state(3, 1);
        // Unit 2 is held at a saturated `tanh` over 128 rows per side: its
        // rounded variance comes out a hair below zero, and a constant
        // unit scores 0, not NaN.
        let (two, hyp) = block(256);
        let units = Matrix::from_fn(256, 3, |r, c| match c {
            2 => 0.99999994,
            _ => two.get(r, c),
        });
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
        assert_eq!(streaming[2].to_bits(), 0.0f32.to_bits());
        let batch = descriptive::difference_of_means(&units.col(2), &hyp);
        assert_eq!(streaming[2], batch, "the reference scores it 0 too");
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
        let (units, hyp) = block(300);
        // Two hypotheses: the original and its complement.
        let hyp2: Vec<f32> = hyp.iter().map(|&h| 1.0 - h).collect();

        let mut merged = measure.new_state(2, 2);
        let mut sep0 = measure.new_state(2, 1);
        let mut sep1 = measure.new_state(2, 1);
        for _ in 0..6 {
            process(merged.as_mut(), &units, &[Some(&hyp), Some(&hyp2)]);
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
        let mut maj = MAJORITY_BASELINE.new_state(2, 1);
        feed(maj.as_mut(), &units, &hyp);
        let expected = baselines::majority_class_f1(
            &hyp.iter()
                .map(|&h| if h > 0.0 { 1.0 } else { 0.0 })
                .collect::<Vec<_>>(),
        );
        let (unit_scores, group_score) = pair_scores(maj.as_ref());
        assert!((group_score - expected).abs() < 1e-6);
        assert_eq!(unit_scores, vec![expected; 2]);

        let mut rnd = random_baseline(3).new_state(2, 1);
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
        let m = BufferedMeasure::group_mi(2, 10_000);
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
            library("mutual_info"),
            library("jaccard_q95"),
            Box::new(DiffMeansMeasure),
            library("group_mi"),
            Box::new(MAJORITY_BASELINE),
            Box::new(random_baseline(9)),
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
        assert!(library("mutual_info")
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
        let mut j95 = library("jaccard_q95").new_state(2, 1);
        feed(j95.as_mut(), &units, &hyp);
        let jb = j95.serialize_state(0).unwrap();
        let j995 = library("jaccard");
        assert!(j995.deserialize_state(2, &[&jb]).is_none());
        // Mismatched baseline seed rejects.
        let mut rnd = random_baseline(1).new_state(2, 1);
        feed(rnd.as_mut(), &units, &hyp);
        let rb = rnd.serialize_state(0).unwrap();
        assert!(random_baseline(2).deserialize_state(2, &[&rb]).is_none());
        assert!(MAJORITY_BASELINE.deserialize_state(2, &[&rb]).is_none());
        // Non-mergeable logreg has no durable form at all.
        let lr = LogRegMeasure::l1(0.01);
        let s = lr.new_state(2, 1);
        assert!(s.serialize_state(0).is_none());
        assert!(lr.deserialize_state(2, &[&bytes]).is_none());

        // Every mergeable measure revives an N-member list from its N
        // blobs, each member re-serializing to its own, and refuses none.
        for measure in standard_library() {
            if !measure.supports_segment_merge() {
                continue;
            }
            let id = measure.id();
            let (units, cols) = stream_block(0, 40, 2, 3);
            let mut state = measure.new_state(2, 3);
            process(state.as_mut(), &units, &refs(&cols));
            let blobs = [0, 1, 2].map(|h| state.serialize_state(h).unwrap());
            assert!(state.serialize_state(3).is_none(), "{id}");
            let revived = measure
                .deserialize_state(2, &blobs.each_ref().map(|b| b.as_slice()))
                .unwrap_or_else(|| panic!("{id}: the state's own blobs revive"));
            for (h, blob) in blobs.iter().enumerate() {
                assert_eq!(revived.serialize_state(h).as_ref(), Some(blob), "{id}");
            }
            assert!(measure.deserialize_state(2, &[]).is_none(), "{id}");
        }

        // The buffered measures' blobs each carry the unit sample.
        for measure in buffered_measures(100) {
            let id = measure.id();
            let (units, cols) = stream_block(0, 40, 2, 2);
            let mut state = measure.new_state(2, 2);
            process(state.as_mut(), &units, &refs(&cols));
            let blobs = [0, 1].map(|h| state.serialize_state(h).unwrap());
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
                BufferedMeasure::jaccard("jaccard", 0.995, 65_536),
                BufferedMeasure::jaccard("jaccard_q95", 0.95, 65_536),
            ),
            (
                "jaccard_q95",
                BufferedMeasure::jaccard("jaccard_q95", 0.95, 65_536),
                BufferedMeasure::jaccard("jaccard", 0.995, 65_536),
            ),
        ] {
            let bytes_of = |m: &BufferedMeasure| {
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
    }

    // -----------------------------------------------------------------
    // One state over N hypotheses ≡ N one-hypothesis states
    // -----------------------------------------------------------------

    /// The three buffered measures with a small cap, so blocks cross it.
    fn buffered_measures(max_buffer: usize) -> Vec<Box<dyn Measure>> {
        vec![
            Box::new(BufferedMeasure::jaccard("jaccard_q95", 0.8, max_buffer)),
            Box::new(BufferedMeasure::mutual_info(4, max_buffer)),
            Box::new(BufferedMeasure::group_mi(3, max_buffer)),
        ]
    }

    /// The measures whose list holds one accumulator per member.
    fn per_member_measures() -> Vec<Box<dyn Measure>> {
        vec![
            Box::new(DiffMeansMeasure),
            Box::new(MAJORITY_BASELINE),
            Box::new(random_baseline(5)),
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
        /// Members the list is no longer fed, whose singles are not either.
        stopped: Vec<bool>,
        n_units: usize,
        what: String,
    }

    impl ListAndSingletons {
        fn new(measure: &dyn Measure, n_units: usize, n_hyps: usize) -> Self {
            ListAndSingletons {
                list: measure.new_state(n_units, n_hyps),
                singles: (0..n_hyps).map(|_| measure.new_state(n_units, 1)).collect(),
                stopped: vec![false; n_hyps],
                n_units,
                what: format!("{} units {n_units} hyps {n_hyps}", measure.id()),
            }
        }

        /// Feeds `blocks` (row counts) to both sides — no column to a
        /// stopped member, nothing to its single — demanding equal errors
        /// after every block; returns the next unread row.
        fn feed(&mut self, mut start: usize, blocks: &[usize]) -> usize {
            let n_hyps = self.singles.len();
            for &rows in blocks {
                let (units, cols) = stream_block(start, rows, self.n_units, n_hyps);
                start += rows;
                let mut fed = refs(&cols);
                for (col, &stopped) in fed.iter_mut().zip(&self.stopped) {
                    if stopped {
                        *col = None;
                    }
                }
                process(self.list.as_mut(), &units, &fed);
                for (single, col) in self.singles.iter_mut().zip(&fed) {
                    if let Some(col) = col {
                        process(single.as_mut(), &units, &[Some(col)]);
                    }
                }
                let list_errors = errors(self.list.as_ref(), n_hyps);
                for (h, single) in self.singles.iter().enumerate() {
                    let what = &self.what;
                    let single_error = errors(single.as_ref(), 1);
                    assert_eq!(
                        list_errors[h..h + 1],
                        single_error[..],
                        "{what}: error of {h}"
                    );
                }
            }
            start
        }

        /// Stops feeding member `h` of the list and its single.
        fn stop(&mut self, h: usize) {
            self.stopped[h] = true;
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
        // `corr` at unit counts on both sides of its 8-wide tile, over
        // lists one short of, at and past its 4-hypothesis sweep.
        for n_units in [1, 7, 8, 9, 17] {
            for n_hyps in [1, 3, 4, 5] {
                for blocks in [&[][..], &[0], &[1], &[7], &[5, 40, 17, 1, 90, 30]] {
                    assert_list_equals_singletons(&CorrelationMeasure, n_units, n_hyps, blocks);
                }
            }
        }
        for measure in per_member_measures() {
            for (n_units, n_hyps) in [(1, 1), (1, 3), (4, 3)] {
                for blocks in [&[][..], &[0], &[1], &[3], &[5, 40, 17, 1, 90, 30]] {
                    assert_list_equals_singletons(measure.as_ref(), n_units, n_hyps, blocks);
                }
            }
        }
    }

    /// A member a `corr`, `diff_means` or baseline list is no longer fed
    /// stays at its single's state — scores, error and bytes — from the
    /// block it stopped on, through later blocks and a merge, while the
    /// other members go on.
    #[test]
    fn a_stopped_member_keeps_the_state_of_its_unfed_single() {
        let mut measures = per_member_measures();
        measures.push(Box::new(CorrelationMeasure));
        for (measure, n_units) in measures.iter().flat_map(|m| [(m, 3), (m, 9)]) {
            assert!(measure.pairwise(), "{}", measure.id());
            let new = || ListAndSingletons::new(measure.as_ref(), n_units, 3);
            let (mut both, mut tail) = (new(), new());
            let next = both.feed(0, &[10, 7]);
            both.stop(1);
            both.assert_equal("at the stop");
            let next = both.feed(next, &[20, 0, 13]);
            both.assert_equal("after the stop");
            tail.feed(next, &[9]);
            both.merge_from(&tail);
            both.assert_equal("merged after the stop");
        }
    }

    /// A pairwise state is a grid of independent pairs: fed three blocks,
    /// its projection onto non-contiguous units and a list that repeats a
    /// column serializes to the bytes of a state over those units and that
    /// list fed the demuxed blocks, each member's error is the widest of
    /// its pairs', and embedding a projection then projecting it back is
    /// the identity. Other states are no grid.
    #[test]
    fn a_projected_grid_is_the_state_over_its_pairs() {
        let (n_units, n_hyps) = (9, 3);
        let (units, hyps) = ([7, 1, 4], [2, 0, 2]);
        let measures: [Box<dyn Measure>; 3] = [
            Box::new(CorrelationMeasure),
            Box::new(DiffMeansMeasure),
            Box::new(MAJORITY_BASELINE),
        ];
        for measure in &measures {
            let id = measure.id();
            assert!(measure.pairwise(), "{id}");
            let mut grid = measure.new_state(n_units, n_hyps);
            let mut subset = measure.new_state(units.len(), hyps.len());
            let mut start = 0;
            for rows in [13, 40, 7] {
                let (block, cols) = stream_block(start, rows, n_units, n_hyps);
                start += rows;
                process(grid.as_mut(), &block, &refs(&cols));
                let mut pair_errs = vec![f32::NAN; n_units * n_hyps];
                assert!(grid.pair_errors(&mut pair_errs), "{id}");
                let demuxed = Matrix::from_fn(rows, units.len(), |r, i| block.get(r, units[i]));
                let picked: Vec<_> = hyps.iter().map(|&h| Some(cols[h].as_slice())).collect();
                process(subset.as_mut(), &demuxed, &picked);
                let mut errs = vec![f32::NAN; hyps.len()];
                subset.convergence_errors(&mut errs);
                for (err, &h) in errs.iter().zip(&hyps) {
                    let widths = units.iter().map(|&u| pair_errs[h * n_units + u]);
                    let widest = widths.fold(0.0f32, f32::max);
                    assert_eq!(err.to_bits(), widest.to_bits(), "{id}: error of {h}");
                }
            }
            let bytes = |state: &dyn MeasureState, n: usize| -> Vec<Option<Vec<u8>>> {
                (0..n).map(|h| state.serialize_state(h)).collect()
            };
            let projected = grid.project(&units, &hyps).unwrap();
            assert_eq!(
                bytes(projected.as_ref(), 3),
                bytes(subset.as_ref(), 3),
                "{id}"
            );
            assert_eq!(
                errors(projected.as_ref(), 3),
                errors(subset.as_ref(), 3),
                "{id}"
            );
            let whole = bytes(grid.as_ref(), n_hyps);
            assert!(grid.embed(projected.as_ref(), &units, &hyps), "{id}");
            assert_eq!(
                bytes(grid.as_ref(), n_hyps),
                whole,
                "{id}: embed changed the grid"
            );
            let mut fresh = measure.new_state(n_units, n_hyps);
            assert!(fresh.embed(projected.as_ref(), &units, &hyps), "{id}");
            let back = fresh.project(&units, &hyps).unwrap();
            assert_eq!(
                bytes(back.as_ref(), 3),
                bytes(projected.as_ref(), 3),
                "{id}"
            );
            // A part of another shape does not embed.
            assert!(!fresh.embed(projected.as_ref(), &units[..2], &hyps), "{id}");
        }
        for measure in standard_library().iter().filter(|m| !m.pairwise()) {
            let mut state = measure.new_state(2, 1);
            let (units, cols) = stream_block(0, 10, 2, 1);
            process(state.as_mut(), &units, &refs(&cols));
            assert!(!state.pair_errors(&mut [0.0; 2]), "{}", measure.id());
            assert!(state.project(&[0], &[0]).is_none(), "{}", measure.id());
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
            // 6..=10 units: one side or the other of `corr`'s 8-wide tile.
            assert_list_equals_singletons(&CorrelationMeasure, n_units + 5, n_hyps, &blocks);
            for measure in per_member_measures() {
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
                let cols: Vec<_> = hyps.iter().map(|c| Some(&c[range.clone()])).collect();
                let block = units.slice_rows(range.start, range.end);
                process(list.as_mut(), &block, &cols);
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
    fn list_states_of_different_measures_refuse_to_merge() {
        let mut measures = buffered_measures(100);
        measures.extend(per_member_measures());
        measures.push(Box::new(random_baseline(6)));
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

    /// Every list state of every library measure refuses a mis-shaped
    /// block, and an error read into the wrong number of slots, loudly —
    /// these are hard asserts, so in release builds too — instead of
    /// accumulating a shortened or shuffled sample. A member with no column
    /// is a pairwise state's unfed member and a mis-shaped block to every
    /// other state.
    #[test]
    fn every_measure_panics_on_a_mis_shaped_block() {
        fn panics(id: &str, what: &str, expect: &str, f: &mut dyn FnMut()) {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let panic = outcome.expect_err(&format!("{id}: {what} was taken"));
            let message = (panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| panic.downcast_ref::<&str>().unwrap().to_string());
            assert!(
                message.contains(expect),
                "{id}: {what} panicked with {message:?}"
            );
        }
        let (units, cols) = stream_block(0, 10, 2, 4);
        let (wide, _) = stream_block(0, 10, 3, 0);
        let cut = |cols: &[Vec<f32>]| -> Vec<Vec<f32>> {
            cols.iter().map(|c| c[..c.len() - 1].to_vec()).collect()
        };
        let n = 3;
        for measure in standard_library() {
            let id = measure.id();
            let mut last_short = cols[..n].to_vec();
            last_short[n - 1].pop();
            // (what, units, hypothesis columns, panic message)
            let cases = [
                (
                    "a drifted unit count",
                    &wide,
                    cols[..n].to_vec(),
                    "unit-count",
                ),
                ("short columns", &units, cut(&cols[..n]), "row"),
                ("a short last column", &units, last_short, "row"),
                (
                    "a missing column",
                    &units,
                    cols[..n - 1].to_vec(),
                    "hypothesis-count",
                ),
                (
                    "an extra column",
                    &units,
                    cols[..n + 1].to_vec(),
                    "hypothesis-count",
                ),
            ];
            for (what, units, hyps, expect) in cases {
                let mut state = measure.new_state(2, n);
                let expect = format!("block {expect} mismatch");
                panics(id, what, &expect, &mut || {
                    process(state.as_mut(), units, &refs(&hyps))
                });
            }
            let mut unfed = refs(&cols[..n]);
            unfed[1] = None;
            let mut state = measure.new_state(2, n);
            if measure.pairwise() {
                // Member 1 stays a fresh state; the others are fed.
                process(state.as_mut(), &units, &unfed);
                let mut fresh = measure.new_state(2, 1);
                assert_eq!(state.serialize_state(1), fresh.serialize_state(0), "{id}");
                feed(fresh.as_mut(), &units, &cols[2]);
                assert_eq!(state.serialize_state(2), fresh.serialize_state(0), "{id}");
            } else {
                panics(
                    id,
                    "a member with no column",
                    "block column mismatch",
                    &mut || process(state.as_mut(), &units, &unfed),
                );
            }
            let mut state = measure.new_state(2, n);
            process(state.as_mut(), &units, &refs(&cols[..n]));
            assert_eq!(state.final_scores().len(), n);
            panics(
                id,
                "a missing error slot",
                "error-slot count mismatch",
                &mut || state.convergence_errors(&mut [f32::NAN; 2]),
            );
            if measure.pairwise() {
                panics(
                    id,
                    "a missing pair-error slot",
                    "error-slot count mismatch",
                    &mut || {
                        state.pair_errors(&mut [f32::NAN; 5]);
                    },
                );
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
            (library("mutual_info"), GOLDEN_STATE_MI),
            (library("jaccard_q95"), GOLDEN_STATE_JACCARD),
            (Box::new(DiffMeansMeasure), GOLDEN_STATE_DIFF_MEANS),
            (Box::new(MAJORITY_BASELINE), GOLDEN_STATE_MAJORITY),
            (Box::new(random_baseline(7)), GOLDEN_STATE_RANDOM),
            (library("group_mi"), GOLDEN_STATE_GROUP_MI),
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
