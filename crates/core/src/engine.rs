//! The inspection engine (paper §5): one streaming pass, plus the designs
//! the paper measures it against.
//!
//! Everything that runs an inspection — [`inspect`], [`inspect_shared`],
//! sessions, plans, views — runs the streaming DeepBase design described
//! under *One streaming pass* below. The naive design, its cumulative
//! optimizations and the DB-oriented MADLib baseline exist only as the
//! reference the figures and parity tests compare against, reachable
//! through the one request-level entry [`inspect_as`] (see *Reference
//! designs*).
//!
//! There is one measure-state interface ([`MeasureState`], over an ordered
//! hypothesis list), and every measure is handed a member's whole list in
//! one state, of one of three types: `logreg` trains one multi-output
//! model, the buffered measures keep one unit sample, and every pairwise
//! measure holds one member per hypothesis (`corr`'s list still sums each
//! unit's moments once per block). A
//! state is fed one way — a block, with one column per member, or none
//! for a member that is no longer fed — and read one way: its member
//! errors ([`MeasureState::convergence_errors`]), and a grid's pair
//! errors ([`MeasureState::pair_errors`]). A pairwise measure's state
//! ([`Measure::pairwise`]: `corr`, `diff_means`, the baselines) is a grid
//! of independent `(unit, hypothesis)` accumulators, so a pass may feed
//! one grid over several slots' pairs and project each slot's own state
//! out of it; its members stop on their own, the other measures' lists
//! as a whole.
//!
//! [`Device::Parallel`] is the reproduction's simulated GPU: batched
//! extraction fans record blocks across threads, and so do the reference
//! designs' hypothesis lists, the segment streams of a full pass and the
//! groups of a plan, standing in for the paper's CUDA offload. Training is
//! never split: a merged probe is one list and trains on one thread on
//! either device.
//!
//! ## Device → runtime mapping
//!
//! Every parallel path is one call to `deepbase_runtime::fan_out(width,
//! items, f)`, which splits the items into at most `width` contiguous
//! chunks, runs the first on the calling thread and each other on a
//! scoped thread of its own, and returns the results in item order:
//!
//! * [`Device::SingleCore`] is width 1: every fan-out is a plain loop on
//!   the calling thread and nothing is spawned.
//! * [`Device::Parallel`]`(n)` is width `n`, for the record chunks of a
//!   streamed block in [`Extractor`] extraction, the hypothesis lists of
//!   the reference designs, the segment streams of a full pass and the
//!   groups of a plan. Chunk bounds
//!   depend only on `n` and the item count, never on scheduling, so
//!   results are identical to `SingleCore`. Each fan-out spawns up to
//!   `n - 1` threads and joins them before it returns; a spawn + join
//!   costs ≈ 25–50 µs per thread on a 2-vCPU x86-64 VM, which is why
//!   only these coarse units fan out.
//!
//! Records are shuffled by **index** and processed through `&[&Record]`
//! borrows; no record payload is cloned per inspection.
//!
//! ## One streaming pass
//!
//! Inspection amortizes (§5): many hypotheses and measures over the same
//! model share one extraction pass. Every streaming execution — a
//! standalone [`inspect`], the multi-request [`inspect_shared`], each
//! group wave of a physical plan ([`crate::plan`]), a view build, an
//! incremental view refresh — is the same `pub(crate)` function,
//! `run_pass`, made of four pieces that each exist once:
//!
//! 1. **Layout.** N member requests naming the *same* `(extractor,
//!    dataset)` pair become one sharing structure: the *union* of member
//!    unit columns; the union of member hypotheses by function identity
//!    (Arc-shared catalog sets collapse, same-id-different-function
//!    registrations stay separate); deduplicated slots — one per
//!    `(units, measure, hypothesis list)`, the list being the member's
//!    own (measures by identity too, not by id), the exact key that keeps
//!    every member's scores bit-identical to a standalone [`inspect`]
//!    call; and the measure states the slots read. A pairwise measure's
//!    slots share one grid over the union of their units × the union of
//!    their hypothesis columns whenever that grid holds no more pairs
//!    than the slots do together; every other slot has a state of its
//!    own, fed its unit selection ([`crate::extract::ColumnDemux`]). A
//!    grid over every union unit is fed the union block itself, so a
//!    selection only grids read is never demuxed.
//! 2. **One stream per dataset segment.** A seeded shuffle of the
//!    segment's records (segment 0 keeps the session seed), a block at a
//!    time: unit behaviors are fetched once per block, unit-major — one
//!    slice per union column, which a state's unit selection picks from
//!    without copying — extracted live (the extractor's row-major output
//!    transposed once), or, when the segment has a store [`ScanPlan`],
//!    through the store's [`ColumnPass`], which scans what it holds and
//!    calls back for the columns it needs computed — hypothesis columns
//!    are evaluated once per block, only while some unconverged slot
//!    still reads them, and every live state advances once. On an
//!    early-stopping stream a state's errors are then read once per
//!    block: a grid's per pair
//!    ([`MeasureState::pair_errors`]), each consumer's member error the
//!    largest over its own units, what a state of its own reports; any
//!    other state's per member ([`MeasureState::convergence_errors`]).
//!    Scan order, watermarks, demotion and
//!    write-back are the store crate's half of the pass; this module only
//!    calls `fetch_block` and `finish`.
//! 3. **One fold** over the stream outputs in segment-index order via the
//!    exact [`MeasureState::merge_from`], seeded by the revived fold point
//!    of the segments a stored view already covers when the pass extends
//!    one (an incremental view refresh; each revived slot state is
//!    embedded into its grid, [`MeasureState::embed`]). A fold over one
//!    output is the identity. Then every slot's own state is projected out
//!    of its grid ([`MeasureState::project`]), bit for bit the state a
//!    slot of its own would hold, and its errors are read off it.
//! 4. **One tail**, one walk over the slots: each slot lists its pairs
//!    that never met epsilon as pending, a view pass serializes its fold
//!    point — per slot and hypothesis, so the stored bytes do not depend on
//!    how hypotheses were grouped into states — and its final scores are
//!    taken once ([`MeasureState::final_scores`]). Each member's
//!    [`ResultFrame`] is then emitted straight from its slots' scores, in
//!    its own (group, measure, hypothesis) order and under its own model
//!    and group ids, on the inspection clock.
//!
//! The single-request engine is the one-member case, and the unsegmented
//! pass the one-segment, one-stream case, of this implementation. What
//! differs between a plain one-segment INSPECT and everything else is
//! policy, and it is **derived, never configured**: `full_pass =
//! segment_count > 1 || fold.is_some()`, where `fold` is the view fold
//! point a pass builds (`ViewFold::Build`) or extends
//! (`ViewFold::Extend`), and is absent on every plain INSPECT.
//!
//! * `!full_pass` (one stream): **early stopping** — a grid consumer's
//!   member stops at the block its own error met epsilon, exactly where a
//!   one-hypothesis slot would have stopped, by snapshotting its pairs;
//!   the grid stops feeding a hypothesis once no consumer's member reads
//!   it. A slot stops being fed the moment every error of its list meets
//!   epsilon — so a list that is no grid stops as a whole — and a
//!   hypothesis column is evaluated only while some unstopped member of
//!   an unconverged slot reads it. The stream ends when every member
//!   converged (§5.2.3), persisting the streamed prefix as resumable
//!   partial columns; extraction runs on the configured [`Device`].
//! * `full_pass`: the same slots over the same lists, never stopped
//!   early: every block of every streamed segment is processed, so
//!   folded scores and extractor call counts do not depend on device or
//!   segment schedule, ε only classifies pairs as pending, and
//!   `stored(0..k) ⊕ fresh(k..n)` equals the cold fold bit for bit — the
//!   refresh ≡ cold invariant materialized views rely on. Measures
//!   without [`Measure::supports_segment_merge`] are refused up front
//!   with a typed error. Streams extract single-core and are themselves
//!   the parallel grain: two or more fan out on [`Device::Parallel`].
//!   Budget row/block caps apply per stream;
//!   deadline and cancellation stay global, and the lowest-index
//!   interruption is the pass's completion status.
//!
//! Sharing requires that extractors are column-wise consistent (all
//! in-tree ones compute full activation rows and select columns); two
//! measures answering to one id stay separate slots, though their result
//! rows then differ only in position.
//!
//! ## Reference designs
//!
//! [`inspect_as`] runs one request under any of the paper's five designs
//! (§5.1 / §6.2, Figs. 5–8):
//!
//! | [`EngineKind`]      | materialization | states         | stopping            |
//! |---------------------|-----------------|----------------|---------------------|
//! | `PyBase`            | full, up-front  | per pair       | none                |
//! | `Merged`            | full, up-front  | per list (+MM) | none                |
//! | `MergedEarlyStop`   | full, up-front  | per list       | per pair (ES)       |
//! | `DeepBase`          | streaming blocks| per list       | ends extraction too |
//! | `Madlib`            | dense relations | UDA per hyp    | none                |
//!
//! "Per list" is one state over the request's whole hypothesis list;
//! `PyBase` takes one state per pair. "Per pair" is the streaming pass's
//! rule: a pairwise measure's member is no longer fed from the block its
//! own error met epsilon, any other list stops as a whole. `DeepBase` is
//! [`inspect`] itself. The other four
//! materialize the whole dataset before scoring, so they have no partial
//! answer, no store, no views and no segments: they take an unlimited
//! [`RunBudget`] only and read the dataset as one shuffled sequence.

use crate::cache::CacheRun;
use crate::error::DniError;
use crate::extract::{ColumnDemux, Extractor};
use crate::measure::{Measure, MeasureState};
use crate::model::{validate_behavior, Dataset, HypothesisFn, Record, UnitGroup};
use crate::result::{Completion, CompletionStatus, PendingPair, ResultFrame, ScoreRow};
use deepbase_relational as rel;
use deepbase_stats::split::shuffled_indices;
use deepbase_store::{ColumnPass, ScanPlan, StoreStats, ViewDoc, ViewHypState};
use deepbase_tensor::{column_runs, transpose_rows_into, Columns, Matrix};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's engine designs, as selected by [`inspect_as`] (see the
/// module docs, *Reference designs*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Naive full-materialization design (the paper's Python baseline).
    PyBase,
    /// PyBase + model merging (+MM).
    Merged,
    /// PyBase + model merging + early stopping (+MM+ES).
    MergedEarlyStop,
    /// All optimizations: streaming extraction bounded by convergence.
    DeepBase,
    /// DB-oriented baseline over the relational engine (§5.1.1).
    Madlib,
}

/// Execution device: how wide extraction and the engine's other fan-outs
/// run. Training is never split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// Sequential execution.
    SingleCore,
    /// Thread-parallel execution, fanning out at most the given number of
    /// chunks at a time — the simulated GPU (see the module docs, *Device
    /// → runtime mapping*).
    Parallel(usize),
}

impl Device {
    pub(crate) fn threads(&self) -> usize {
        match self {
            Device::SingleCore => 1,
            Device::Parallel(n) => (*n).max(1),
        }
    }
}

/// A shareable cancellation handle: an `Arc`'d atomic flag that another
/// thread (a connection handler, a timeout watchdog, a user hitting ^C)
/// can trip while a run is streaming. The engine polls it at block
/// boundaries; a tripped token makes the streaming pass stop gracefully —
/// committing watermark-extending partial columns and returning its
/// current estimates tagged [`CompletionStatus::Cancelled`].
///
/// Clones share the flag; cancellation is sticky (there is no reset —
/// make a fresh token per run).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the token. Every clone observes the cancellation; safe to
    /// call from any thread, any number of times.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once any clone has called [`CancelToken::cancel`].
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Bounds on a run: wall-clock deadline, cooperative cancellation, and
/// work caps. The default is unlimited — and the unlimited case is free:
/// the streaming loop skips budget polling entirely when no bound is set.
///
/// The deadline is a *relative* duration (kept deterministic in configs
/// and `explain` output); it is converted to an absolute expiry instant
/// once per batch, so every group and admission wave of the batch shares
/// one deadline instead of each getting a fresh allowance.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Wall-clock allowance for the whole batch.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation handle (see [`CancelToken`]).
    pub cancel: Option<CancelToken>,
    /// Cap on records read per shared pass; the pass stops at the first
    /// block boundary at or past the cap.
    pub max_records: Option<usize>,
    /// Cap on blocks processed per shared pass.
    pub max_blocks: Option<usize>,
}

impl RunBudget {
    /// A budget bounded only by a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> RunBudget {
        RunBudget {
            deadline: Some(deadline),
            ..RunBudget::default()
        }
    }

    /// A budget bounded only by a cancellation token.
    pub fn with_cancel(cancel: CancelToken) -> RunBudget {
        RunBudget {
            cancel: Some(cancel),
            ..RunBudget::default()
        }
    }

    /// True when no bound is set (the default): the engine skips budget
    /// polling entirely.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.cancel.is_none()
            && self.max_records.is_none()
            && self.max_blocks.is_none()
    }

    /// Arms the budget at a batch's start: the relative deadline becomes
    /// an absolute expiry shared by everything the batch runs. `None`
    /// when unlimited, so the hot path stays poll-free.
    pub(crate) fn arm(&self) -> Option<ArmedBudget> {
        if self.is_unlimited() {
            return None;
        }
        Some(ArmedBudget {
            expires_at: self.deadline.map(|d| Instant::now() + d),
            cancel: self.cancel.clone(),
            max_records: self.max_records,
            max_blocks: self.max_blocks,
        })
    }
}

/// A [`RunBudget`] armed with its absolute expiry, shared (by reference)
/// across the groups and waves of one batch.
#[derive(Debug, Clone)]
pub(crate) struct ArmedBudget {
    expires_at: Option<Instant>,
    cancel: Option<CancelToken>,
    max_records: Option<usize>,
    max_blocks: Option<usize>,
}

impl ArmedBudget {
    /// Polls the budget at a block boundary. Returns the interruption
    /// status when a bound has tripped — cancellation first (it is the
    /// cheapest check and the most explicit signal), then the deadline,
    /// then work caps — or `None` while the run may continue.
    fn check(&self, records_read: usize, blocks_processed: usize) -> Option<CompletionStatus> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Some(CompletionStatus::Cancelled);
            }
        }
        if let Some(expires_at) = self.expires_at {
            if Instant::now() >= expires_at {
                return Some(CompletionStatus::DeadlineExceeded);
            }
        }
        if let Some(cap) = self.max_records {
            if records_read >= cap {
                return Some(CompletionStatus::BudgetExhausted);
            }
        }
        if let Some(cap) = self.max_blocks {
            if blocks_processed >= cap {
                return Some(CompletionStatus::BudgetExhausted);
            }
        }
        None
    }
}

/// Inspection configuration.
#[derive(Clone)]
pub struct InspectionConfig {
    /// Execution device.
    pub device: Device,
    /// Records per block (`nb`; the paper finds 512 works well).
    pub block_records: usize,
    /// Convergence threshold override; `None` uses each measure's default
    /// (§6.2: ε = 0.025 for correlation, 0.01 for logistic regression).
    pub epsilon: Option<f32>,
    /// Record-shuffle seed (§5.2.2: records are assumed shuffled).
    pub seed: u64,
    /// Run bounds: deadline, cancellation, work caps. Unlimited by
    /// default. A pass degrades gracefully when a bound trips (partial
    /// frame, watermark-extending partial columns).
    pub budget: RunBudget,
}

impl Default for InspectionConfig {
    fn default() -> Self {
        InspectionConfig {
            device: Device::SingleCore,
            block_records: 512,
            epsilon: None,
            seed: 0,
            budget: RunBudget::default(),
        }
    }
}

deepbase_store::counters! {
    /// Wall-clock and work accounting (drives Figs. 5–10). `accumulate`
    /// totals a query's cost across shared-extraction groups.
    #[derive(Debug, Clone, Default)]
    pub struct Profile {
        /// Time extracting unit behaviors.
        pub unit_extraction: Duration,
        /// Time evaluating hypothesis functions.
        pub hypothesis_extraction: Duration,
        /// Time inside statistical measures (the "Inspector").
        pub inspection: Duration,
        /// End-to-end time.
        pub total: Duration,
        /// Records actually read (streaming may stop early).
        pub records_read: usize,
        /// Blocks processed.
        pub blocks_processed: usize,
    }
    merged by merge_madlib_stats {
        /// Relational-engine scan counts (Madlib engine only).
        pub madlib_stats: Option<rel::ExecStats>,
    }
}

/// The Madlib scan counts' half of [`Profile::accumulate`]: present on
/// either side, present in the sum.
fn merge_madlib_stats(profile: &mut Profile, other: &Profile) {
    if let Some(theirs) = &other.madlib_stats {
        let ours = profile.madlib_stats.get_or_insert_with(Default::default);
        ours.full_scans += theirs.full_scans;
        ours.rows_scanned += theirs.rows_scanned;
    }
}

/// One inspection request: the general problem of paper Def. 2 for a
/// single model (run once per model to compare models).
pub struct InspectionRequest<'a> {
    /// Model identifier for result rows.
    pub model_id: String,
    /// Behavior extractor for the model.
    pub extractor: &'a dyn Extractor,
    /// Unit groups `U` to inspect.
    pub groups: Vec<UnitGroup>,
    /// The dataset `D`.
    pub dataset: &'a Dataset,
    /// Hypotheses `H`.
    pub hypotheses: Vec<&'a dyn HypothesisFn>,
    /// Measures `L`.
    pub measures: Vec<&'a dyn Measure>,
}

fn validate_config(config: &InspectionConfig) -> Result<(), DniError> {
    if config.block_records == 0 {
        return Err(DniError::BadConfig("block_records must be >= 1".into()));
    }
    // A state reports ∞ before it can estimate anything, so an infinite ε
    // would count every pair as met after the first block.
    if let Some(eps) = config.epsilon {
        if !eps.is_finite() || eps <= 0.0 {
            return Err(DniError::BadConfig(format!(
                "epsilon must be finite and > 0, not {eps}"
            )));
        }
    }
    Ok(())
}

fn validate_request(req: &InspectionRequest<'_>) -> Result<(), DniError> {
    for g in &req.groups {
        if g.units.is_empty() {
            return Err(DniError::BadUnitGroup {
                group: g.id.clone(),
                msg: "empty unit group".into(),
            });
        }
        if let Some(&bad) = g.units.iter().find(|&&u| u >= req.extractor.n_units()) {
            return Err(DniError::BadUnitGroup {
                group: g.id.clone(),
                msg: format!(
                    "unit {bad} out of range ({} units)",
                    req.extractor.n_units()
                ),
            });
        }
    }
    Ok(())
}

/// Runs an inspection, returning the score frame and a cost profile: the
/// one-member case of [`inspect_shared`].
///
/// A configured [`RunBudget`] applies: an interrupted run degrades
/// gracefully (the frame holds the current estimates; use
/// [`inspect_shared`] to also observe the `Completion` tag).
pub fn inspect(
    req: &InspectionRequest<'_>,
    config: &InspectionConfig,
) -> Result<(ResultFrame, Profile), DniError> {
    let mut outcome = inspect_shared(std::slice::from_ref(req), config)?;
    Ok(outcome.results.pop().expect("one member, one result"))
}

/// Runs one request under the engine design `kind` (see the module docs,
/// *Reference designs*): [`inspect`] for `DeepBase`, one of the paper's
/// baselines otherwise. The baselines have no partial answer and cannot
/// honour row or block caps, so a limited [`RunBudget`] is refused with
/// [`DniError::BadConfig`] rather than half-honoured.
pub fn inspect_as(
    kind: EngineKind,
    req: &InspectionRequest<'_>,
    config: &InspectionConfig,
) -> Result<(ResultFrame, Profile), DniError> {
    if kind == EngineKind::DeepBase {
        return inspect(req, config);
    }
    if !config.budget.is_unlimited() {
        return Err(DniError::BadConfig(format!(
            "the {kind:?} baseline cannot honour a run budget (no partial answer); \
             run it unlimited, or run the streaming engine"
        )));
    }
    validate_config(config)?;
    validate_request(req)?;
    if req.dataset.is_empty() {
        return Ok((ResultFrame::default(), Profile::default()));
    }
    match kind {
        EngineKind::Madlib => inspect_madlib(req, config),
        _ => inspect_materialized(kind, req, config),
    }
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// Extracts unit behaviors for `records` into `out`, unit-major:
/// `units.len()` columns of `rows = records.len() * ns` values, unit
/// `i`'s at `[i * rows..(i + 1) * rows]` (a stream hands the same buffer
/// in for every block, so a block allocates no column buffer). One
/// extractor call on the single-core device; on the parallel device, one
/// call per contiguous record chunk, the chunks run by `fan_out`. Each
/// call's row-major output is transposed once, straight into its rows of
/// every column, and returned: a stream keeps it to the end of the block.
/// Freed right after the transpose, at the top of the heap, its pages
/// went back to the system every block (glibc's trim), and the next
/// extraction faulted them in again — 88 minor faults per block on the
/// CNN benchmark.
fn extract_records(
    extractor: &dyn Extractor,
    records: &[&Record],
    units: &[usize],
    device: Device,
    ns: usize,
    out: &mut Vec<f32>,
) -> Vec<Matrix> {
    // Fewer than two records per thread take one call.
    let threads = device.threads();
    let width = if records.len() < 2 * threads {
        1
    } else {
        threads
    };
    let chunks: Vec<&[&Record]> = records
        .chunks(records.len().div_ceil(width).max(1))
        .collect();
    let parts = deepbase_runtime::fan_out(width, &chunks, |recs| extractor.extract(recs, units));
    let rows = records.len() * ns;
    out.clear();
    out.resize(rows * units.len(), 0.0);
    let mut first = 0;
    for part in &parts {
        assert_eq!(part.cols(), units.len(), "extractor output width");
        transpose_rows_into(part.as_slice(), units.len(), out, rows, first);
        first += part.rows();
    }
    assert_eq!(first, rows, "chunks stack to the block");
    parts
}

thread_local! {
    /// The unit-major buffer the live path of a stream transposes its
    /// blocks into, kept on the thread from one stream to the next. A
    /// fresh buffer per stream made every one-stream op fault in a
    /// block's worth of fresh pages (983 KB on the SQL benchmark: 3,840
    /// rows × 64 units), which read 1.14× its parent's time per op.
    static LIVE_BLOCK: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Evaluates one hypothesis over the records at `positions` of `dataset`
/// (through `cache`, if any): a column of `positions.len() * ns` values.
fn hypothesis_column(
    hyp: &dyn HypothesisFn,
    dataset: &Dataset,
    positions: &[usize],
    cache: Option<&CacheRun<'_>>,
) -> Result<Vec<f32>, DniError> {
    let ns = dataset.ns;
    let behavior = |pos: usize| -> Result<Vec<f32>, DniError> {
        let rec = &dataset.records[pos];
        let b = hyp.behavior(rec)?;
        validate_behavior(hyp.id(), rec, ns, &b)?;
        Ok(b)
    };
    if let Some(cache) = cache {
        return cache.behaviors(hyp, dataset, positions, ns, behavior);
    }
    let mut col = Vec::with_capacity(positions.len() * ns);
    for &pos in positions {
        col.extend_from_slice(&behavior(pos)?);
    }
    Ok(col)
}

fn epsilon_for(measure: &dyn Measure, config: &InspectionConfig) -> f32 {
    config.epsilon.unwrap_or_else(|| measure.default_epsilon())
}

/// Seeded shuffle as positions plus borrows: the engines only ever *read*
/// records, so shuffling indices avoids cloning every record payload
/// (symbols + window text + source text) per inspection.
fn shuffled_records(dataset: &Dataset, seed: u64) -> (Vec<usize>, Vec<&Record>) {
    let positions = shuffled_indices(dataset.len(), seed);
    let records = positions.iter().map(|&i| &dataset.records[i]).collect();
    (positions, records)
}

/// One hypothesis's scores over a unit group: per unit, and the group's.
type PairResult = (Vec<f32>, f32);

/// Emits the result rows of one scored `(group, measure, hypothesis)`, one
/// per unit of the group: the one place the engine builds a [`ScoreRow`],
/// for every design.
fn emit_rows(
    frame: &mut ResultFrame,
    (model_id, group_id, units): (&str, &str, &[usize]),
    (measure_id, hyp_id): (&str, &str),
    (unit_scores, group_score): &PairResult,
) {
    debug_assert_eq!(unit_scores.len(), units.len());
    for (&unit, &unit_score) in units.iter().zip(unit_scores) {
        frame.rows.push(ScoreRow {
            model_id: model_id.to_string(),
            group_id: group_id.to_string(),
            measure_id: measure_id.to_string(),
            hyp_id: hyp_id.to_string(),
            unit,
            unit_score,
            group_score: *group_score,
        });
    }
}

// ---------------------------------------------------------------------
// Reference designs: PyBase, +MM, +MM+ES (reached through `inspect_as`)
// ---------------------------------------------------------------------

fn inspect_materialized(
    kind: EngineKind,
    req: &InspectionRequest<'_>,
    config: &InspectionConfig,
) -> Result<(ResultFrame, Profile), DniError> {
    let t_start = Instant::now();
    let mut profile = Profile::default();
    let ns = req.dataset.ns;
    let (positions, records) = shuffled_records(req.dataset, config.seed);
    profile.records_read = records.len();

    // Materialize unit behaviors per group.
    let t0 = Instant::now();
    let group_behaviors: Vec<Vec<f32>> = req
        .groups
        .iter()
        .map(|g| {
            let mut values = Vec::new();
            extract_records(
                req.extractor,
                &records,
                &g.units,
                config.device,
                ns,
                &mut values,
            );
            values
        })
        .collect();
    profile.unit_extraction = t0.elapsed();

    // Materialize all hypothesis behaviors.
    let t1 = Instant::now();
    let mut hyp_cols: Vec<Vec<f32>> = Vec::with_capacity(req.hypotheses.len());
    for hyp in &req.hypotheses {
        hyp_cols.push(hypothesis_column(*hyp, req.dataset, &positions, None)?);
    }
    profile.hypothesis_extraction = t1.elapsed();

    let merging = matches!(kind, EngineKind::Merged | EngineKind::MergedEarlyStop);
    let early_stop = matches!(kind, EngineKind::MergedEarlyStop);
    let rows_total = records.len() * ns;
    let block_rows = (config.block_records * ns).max(1);
    let all_hyps: Vec<usize> = (0..hyp_cols.len()).collect();
    let threads = config.device.threads();

    let t2 = Instant::now();
    let mut frame = ResultFrame::default();
    for (group, behaviors) in req.groups.iter().zip(group_behaviors.iter()) {
        for measure in &req.measures {
            let (eps, pairwise) = (epsilon_for(*measure, config), measure.pairwise());
            // PyBase scores every pair on its own; the merging engines hand
            // the measure the whole list (+MM).
            let lists: Vec<&[usize]> = if merging {
                vec![&all_hyps]
            } else {
                all_hyps.chunks(1).collect()
            };
            // One state per list, fed a block at a time. Early stopping
            // stops feeding a pairwise list's member at the block its own
            // error met ε (`corr`, `diff_means`, the baselines), so its
            // scores are those of a one-hypothesis state; any other list
            // stops as a whole, once every member converged (the paper's
            // §5.2.1 caveat).
            let columns = column_runs(behaviors, rows_total, group.units.len());
            let score_list = |list: &[usize]| -> (Vec<PairResult>, usize) {
                let mut state = measure.new_state(group.units.len(), list.len());
                let mut errs = vec![f32::INFINITY; list.len()];
                let mut fed = vec![true; list.len()];
                let mut block: Vec<Option<&[f32]>> = Vec::with_capacity(list.len());
                let (mut start, mut blocks) = (0, 0);
                while start < rows_total {
                    let end = (start + block_rows).min(rows_total);
                    block.clear();
                    block.extend(
                        (list.iter().zip(&fed))
                            .map(|(&h, &fed)| fed.then(|| &hyp_cols[h][start..end])),
                    );
                    let units: Vec<&[f32]> = columns.iter().map(|c| &c[start..end]).collect();
                    state.process_block(Columns::new(&units, end - start), &block);
                    blocks += 1;
                    if early_stop {
                        state.convergence_errors(&mut errs);
                        if errs.iter().all(|&e| e <= eps) {
                            break;
                        }
                        for (fed, &err) in fed.iter_mut().zip(&errs) {
                            if pairwise && err <= eps {
                                *fed = false;
                            }
                        }
                    }
                    start = end;
                }
                (state.final_scores(), blocks)
            };
            let results = deepbase_runtime::fan_out(threads, &lists, |list| score_list(list));
            for (list, (scores, blocks)) in lists.iter().zip(results) {
                profile.blocks_processed += blocks;
                for (&h, pair) in list.iter().zip(&scores) {
                    emit_rows(
                        &mut frame,
                        (&req.model_id, &group.id, &group.units),
                        (measure.id(), req.hypotheses[h].id()),
                        pair,
                    );
                }
            }
        }
    }
    profile.inspection = t2.elapsed();
    profile.total = t_start.elapsed();
    Ok((frame, profile))
}

// ---------------------------------------------------------------------
// The streaming engine
// ---------------------------------------------------------------------

/// Runs several inspection requests over the **same** `(extractor,
/// dataset)` pair through one streaming pass (see the module docs, *One
/// streaming pass*). Member scores are bit-identical to standalone
/// [`inspect`] calls; redundant work — unit extraction, hypothesis
/// evaluation, measure states shared between members — is done once.
pub fn inspect_shared(
    reqs: &[InspectionRequest<'_>],
    config: &InspectionConfig,
) -> Result<SharedOutcome, DniError> {
    let armed = config.budget.arm();
    let (outcome, _) = run_pass(reqs, config, None, armed.as_ref(), None, None)?;
    Ok(outcome)
}

/// Outcome of one streaming pass ([`inspect_shared`]).
#[derive(Debug, Default)]
pub struct SharedOutcome {
    /// Per-member score frames and profiles, in request order. A member's
    /// frame and scores are bit-identical to what a standalone
    /// [`inspect`] call would produce for the same request: each frame is
    /// emitted once, straight from the final scores of the slots it reads,
    /// under the member's own model and group ids.
    pub results: Vec<(ResultFrame, Profile)>,
    /// Accounting for the shared streaming pass itself: the union stream's
    /// records/blocks and phase timings.
    pub pass: Profile,
    /// Extraction passes over the dataset: 1 for a one-stream pass, one
    /// per streamed segment on a full pass.
    pub extraction_passes: usize,
    /// Behavior-store accounting for the pass (all zeros when no store
    /// source was supplied): blocks scanned/written, pool hit/miss/evict
    /// counters, forward passes avoided, and any corruption errors the
    /// pass survived by falling back to live extraction.
    pub store: StoreStats,
    /// How the pass ended: converged, or interrupted by its run budget
    /// (with rows read and the still-converging pairs). An interrupted
    /// pass has committed its watermark-extending partial columns (when a
    /// writable scan plan was bound), so a warm re-run resumes exactly
    /// where this one stopped.
    pub completion: Completion,
}

// ---------------------------------------------------------------------
// The streaming pass: layout → per-segment streams → fold → emit
// ---------------------------------------------------------------------

/// One unique unit selection a state is fed: its column demux out of the
/// unit-major union block, which picks the union's column slices without
/// copying a value, with the identity check precomputed (a selection that
/// covers the whole union in order — a grid state over every unit, the
/// common single-query, one-group case — reads the union block itself).
struct Selection {
    units: Vec<usize>,
    demux: ColumnDemux,
    identity: bool,
}

/// One deduplicated measure slot: what one member's whole list scores over
/// one unit group. Hypotheses are identified by their union column index
/// (function identity) and measures by [`measure_key`], not by id string,
/// so same-id-different-function registrations never conflate. Any member
/// naming the same `(units, measure, hypothesis list)` shares the slot.
/// The exact ordered list is the identity because it is what a state sees:
/// a logreg state trains one model over the list (anything less would
/// change member scores), and a buffered state keeps one sample for the
/// list — members naming different lists over one `(units, measure)` get
/// one sample per distinct list, never more than one per member.
///
/// A slot reads one [`StatePlan`]: a state of its own, or, for a pairwise
/// measure, one grid it shares with the measure's other slots, out of which
/// its pairs are projected.
struct Slot<'a> {
    eps: f32,
    measure: &'a dyn Measure,
    /// The first registrant's group label: what the slot's pending pairs
    /// and a view's fold point name it by. Each member's rows carry the
    /// label of its own entry ([`MemberEntry`]).
    group_id: String,
    /// The group's units, in its order.
    units: Vec<usize>,
    /// Union hypothesis columns the slot scores, in list order.
    hyps: Vec<usize>,
}

impl Slot<'_> {
    /// True when a convergence error meets the slot's epsilon (never for
    /// NaN or the `∞` a state reports before it can estimate).
    fn met(&self, err: f32) -> bool {
        err <= self.eps
    }

    /// Where the column at list position `pos` was first mentioned, if
    /// earlier: one function registered in two hypothesis sets repeats in
    /// a member's list. A fold point stores such a column once, at its
    /// first position — the same bytes would follow.
    fn first_mention(&self, pos: usize) -> Option<usize> {
        self.hyps[..pos].iter().position(|&c| c == self.hyps[pos])
    }
}

/// One measure state a pass builds and the slots that read it. A pairwise
/// measure's ([`Measure::pairwise`]) slots share one grid over the union
/// of their units × the union of their hypothesis columns whenever that
/// grid holds no more pairs than the slots do together; otherwise, and for
/// every other measure, a slot has a state of its own. A grid's errors
/// are read per pair ([`MeasureState::pair_errors`]) and each consumer's
/// state is projected out of it; any other state is its one slot's.
struct StatePlan<'a> {
    measure: &'a dyn Measure,
    /// Index into the unique unit-selection list: the units fed.
    sel: usize,
    /// Union hypothesis columns the state consumes, in state order.
    hyps: Vec<usize>,
    /// The measure is pairwise: the state is a grid, whose members stop
    /// on their own.
    grid: bool,
    consumers: Vec<Consumer>,
}

/// A slot's reading of its state: its units and its list as indexes into
/// the state's (a repeated unit or column maps twice). A slot with a state
/// of its own reads it whole.
struct Consumer {
    slot: usize,
    units: Vec<usize>,
    hyps: Vec<usize>,
}

/// A member's handle on the slot of one of its (group, measure) entries,
/// in the member's canonical emission order.
struct MemberEntry {
    slot: usize,
    group_id: String,
}

/// The sharing structure of one pass, built once and read by every
/// segment stream: union units, union hypotheses, unit selections,
/// deduplicated slots, the states they read and each member's view of
/// them. The optimizer builds the same layout for a plan group's members
/// and reads its sharing numbers and admission widths off it, so what
/// `explain` counts is what the pass builds.
pub(crate) struct PassLayout<'a> {
    extractor: &'a dyn Extractor,
    dataset: &'a Dataset,
    /// Union of all unit columns any member needs, extracted once per block.
    union_units: Vec<usize>,
    /// Union of member hypotheses by function identity.
    union_hyps: Vec<&'a dyn HypothesisFn>,
    selections: Vec<Selection>,
    slots: Vec<Slot<'a>>,
    states: Vec<StatePlan<'a>>,
    members: Vec<Vec<MemberEntry>>,
    /// The hypothesis cache the pass looks behaviors up in, if any.
    cache: Option<&'a CacheRun<'a>>,
}

/// The grid over `part`'s slots: the union of their units, ascending, and
/// of their hypothesis columns, in order of first mention.
fn grid_over(slots: &[Slot<'_>], part: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut units: Vec<usize> = (part.iter())
        .flat_map(|&s| slots[s].units.iter().copied())
        .collect();
    units.sort_unstable();
    units.dedup();
    let mut hyps: Vec<usize> = Vec::new();
    for &c in part.iter().flat_map(|&s| &slots[s].hyps) {
        if !hyps.contains(&c) {
            hyps.push(c);
        }
    }
    (units, hyps)
}

/// Identity of a measure within a pass: where it lives, plus its id. The
/// id alone would conflate two differently configured measures answering
/// to one name (two Jaccard quantiles); the address alone would
/// conflate distinct zero-sized measures, which may all sit at one
/// dangling address. Arc-shared catalog measures still collapse.
type MeasureKey = (usize, String);

fn measure_key(measure: &dyn Measure) -> MeasureKey {
    let address = measure as *const dyn Measure as *const u8 as usize;
    (address, measure.id().to_string())
}

/// The mutable half of a slot within one stream (or the fold of several).
struct SlotRun {
    /// Convergence error per slot hypothesis, read off the states after
    /// each block of an early-stopping stream (`∞` before the first), and
    /// off the slot's own final state at the end of every pass
    /// ([`PassLayout::slot_states`]).
    errs: Vec<f32>,
    /// Set once every error met epsilon on an early-stopping stream; a
    /// converged slot is no longer fed. Never set on a full pass.
    converged: bool,
    /// A grid consumer's stopped members: the member's pairs as they stood
    /// at the block its own error met epsilon ([`MeasureState::project`]),
    /// which is what a state of its own would have kept. Never taken on a
    /// full pass.
    snapshots: Vec<Option<Box<dyn MeasureState>>>,
}

/// The mutable half of a state within one stream.
struct StateRun {
    state: Box<dyn MeasureState>,
    /// Per state hypothesis: the unstopped members of unconverged slots
    /// that read it. At 0 it is no longer fed and its union column loses a
    /// consumer.
    readers: Vec<usize>,
    /// A grid's error per pair after the last block, hypothesis-major.
    pair_errs: Vec<f32>,
}

impl StateRun {
    /// One reader of state hypothesis `h` is done with it; the last one
    /// takes a consumer off its union column.
    fn release(&mut self, h: usize, plan: &StatePlan<'_>, hyp_consumers: &mut [usize]) {
        self.readers[h] -= 1;
        if self.readers[h] == 0 {
            hyp_consumers[plan.hyps[h]] -= 1;
        }
    }
}

struct MemberRun {
    live: bool,
    profile: Profile,
}

/// Everything one segment stream produces — and, folded, the whole pass.
#[derive(Default)]
struct StreamOutput {
    states: Vec<Box<dyn MeasureState>>,
    slots: Vec<SlotRun>,
    members: Vec<MemberRun>,
    profile: Profile,
    stats: StoreStats,
    interrupted: Option<CompletionStatus>,
}

/// Shuffle seed for one dataset segment. Segment 0 keeps the configured
/// seed unchanged (which is what makes a one-segment dataset the
/// one-stream case of the same pass); later segments derive theirs by
/// hashing `(seed, segment index)` so per-segment streams decorrelate
/// while staying deterministic across devices and processes.
pub(crate) fn segment_seed(seed: u64, segment: usize) -> u64 {
    if segment == 0 {
        return seed;
    }
    let mut h = deepbase_store::FpHasher::new();
    h.write_str("segment-seed")
        .write_u64(seed)
        .write_u64(segment as u64);
    h.finish()
}

/// The fold point of a view pass. A pass with one is a full pass whose
/// final folded states are serialized per hypothesis (module docs, *One
/// streaming pass*); a plain INSPECT has none.
#[derive(Clone, Copy)]
pub(crate) enum ViewFold<'a> {
    /// Stream every segment from empty states: a view build or rebuild.
    Build,
    /// Revive the doc's stored fold point in place of the segments it
    /// covers and stream only the segments appended since: an incremental
    /// refresh.
    Extend(&'a ViewDoc),
}

impl<'a> PassLayout<'a> {
    /// Builds the sharing structure for `reqs` (which name one
    /// `(extractor, dataset)` pair): one slot per distinct `(units,
    /// measure, hypothesis list)`, and the states they read ([`StatePlan`]).
    pub(crate) fn build(
        reqs: &[InspectionRequest<'a>],
        config: &InspectionConfig,
        cache: Option<&'a CacheRun<'a>>,
    ) -> PassLayout<'a> {
        let mut union_units: Vec<usize> = reqs
            .iter()
            .flat_map(|r| r.groups.iter().flat_map(|g| g.units.iter().copied()))
            .collect();
        union_units.sort_unstable();
        union_units.dedup();

        // Hypotheses deduplicate by *function identity* (data pointer),
        // not by id string: two different functions may be registered
        // under the same id (nothing enforces uniqueness), and conflating
        // them would silently diverge from standalone execution.
        // Pointer-equal hypotheses (the catalog's Arc-shared sets) still
        // collapse into one column.
        let hyp_ptr = |h: &dyn HypothesisFn| h as *const dyn HypothesisFn as *const u8;
        let mut union_hyps: Vec<&dyn HypothesisFn> = Vec::new();
        let mut hyp_col_of: HashMap<*const u8, usize> = HashMap::new();
        for hyp in reqs.iter().flat_map(|r| r.hypotheses.iter()) {
            hyp_col_of.entry(hyp_ptr(*hyp)).or_insert_with(|| {
                union_hyps.push(*hyp);
                union_hyps.len() - 1
            });
        }

        let mut slots: Vec<Slot<'a>> = Vec::new();
        let mut slot_of: HashMap<(Vec<usize>, MeasureKey, Vec<usize>), usize> = HashMap::new();
        let mut members = Vec::with_capacity(reqs.len());
        for req in reqs {
            let cols: Vec<usize> = req
                .hypotheses
                .iter()
                .map(|h| hyp_col_of[&hyp_ptr(*h)])
                .collect();
            let mut entries = Vec::new();
            for group in &req.groups {
                for measure in &req.measures {
                    let key = (group.units.clone(), measure_key(*measure), cols.clone());
                    let slot = *slot_of.entry(key).or_insert_with(|| {
                        slots.push(Slot {
                            eps: epsilon_for(*measure, config),
                            measure: *measure,
                            group_id: group.id.clone(),
                            units: group.units.clone(),
                            hyps: cols.clone(),
                        });
                        slots.len() - 1
                    });
                    entries.push(MemberEntry {
                        slot,
                        group_id: group.id.clone(),
                    });
                }
            }
            members.push(entries);
        }

        // The states, in the order of their first slot: one of its own per
        // slot, except that a pairwise measure's slots share one grid over
        // the union of their units × the union of their columns when that
        // grid holds no more pairs than they do together.
        let mut selections: Vec<Selection> = Vec::new();
        let mut sel_of: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut select = |units: Vec<usize>| -> usize {
            *sel_of.entry(units).or_insert_with_key(|units| {
                let demux = ColumnDemux::new(&union_units, units)
                    .expect("the union holds every member unit");
                selections.push(Selection {
                    units: units.clone(),
                    identity: demux.is_identity(union_units.len()),
                    demux,
                });
                selections.len() - 1
            })
        };
        let keys: Vec<MeasureKey> = slots.iter().map(|s| measure_key(s.measure)).collect();
        let mut placed = vec![false; slots.len()];
        let mut states: Vec<StatePlan<'a>> = Vec::new();
        for first in 0..slots.len() {
            let (slot, measure) = (&slots[first], slots[first].measure);
            if placed[first] {
                continue;
            }
            if !measure.pairwise() {
                states.push(StatePlan {
                    measure,
                    sel: select(slot.units.clone()),
                    hyps: slot.hyps.clone(),
                    grid: false,
                    consumers: vec![Consumer {
                        slot: first,
                        units: (0..slot.units.len()).collect(),
                        hyps: (0..slot.hyps.len()).collect(),
                    }],
                });
                continue;
            }
            let group: Vec<usize> = (first..slots.len())
                .filter(|&s| keys[s] == keys[first])
                .collect();
            let held: usize = (group.iter())
                .map(|&s| slots[s].units.len() * slots[s].hyps.len())
                .sum();
            let (units, hyps) = grid_over(&slots, &group);
            let parts = match units.len() * hyps.len() <= held {
                true => vec![group],
                false => group.iter().map(|&s| vec![s]).collect(),
            };
            for part in parts {
                let (units, hyps) = grid_over(&slots, &part);
                let unit_at = |u: &usize| units.binary_search(u).expect("a slot unit");
                let hyp_at = |c: &usize| hyps.iter().position(|h| h == c).expect("a slot column");
                let consumers = (part.iter())
                    .map(|&s| Consumer {
                        slot: s,
                        units: slots[s].units.iter().map(unit_at).collect(),
                        hyps: slots[s].hyps.iter().map(hyp_at).collect(),
                    })
                    .collect();
                part.iter().for_each(|&s| placed[s] = true);
                states.push(StatePlan {
                    measure,
                    sel: select(units),
                    hyps,
                    grid: true,
                    consumers,
                });
            }
        }
        PassLayout {
            extractor: reqs[0].extractor,
            dataset: reqs[0].dataset,
            union_units,
            union_hyps,
            selections,
            slots,
            states,
            members,
            cache,
        }
    }

    /// Union unit columns, ascending: extracted (or scanned) once per block.
    pub(crate) fn union_units(&self) -> &[usize] {
        &self.union_units
    }

    /// Hypothesis columns after function-identity deduplication.
    pub(crate) fn hypothesis_columns(&self) -> usize {
        self.union_hyps.len()
    }

    /// Measure states the pass builds: one per slot, except that a
    /// pairwise measure's slots may share one grid ([`StatePlan`]).
    pub(crate) fn measure_states(&self) -> usize {
        self.states.len()
    }

    /// Every member's `(group, measure)` entries: the states requested
    /// before sharing.
    pub(crate) fn member_entries(&self) -> usize {
        self.members.iter().map(Vec::len).sum()
    }

    /// Streams one segment: a seeded shuffle of its records, one block of
    /// the union stream at a time — fetch (store scan and/or live
    /// extraction), demux, evaluate hypotheses, advance every slot once.
    /// Nothing is ever marked converged on a full pass, so there the same
    /// loop processes every block; its extraction runs single-core because
    /// the *streams* are the parallel grain. One extractor call per block
    /// whatever the device keeps extractor call counts independent of it,
    /// and it avoids `n` stream threads each fanning out `n` more
    /// (extraction output is device-independent, so this changes
    /// schedule, never results).
    fn stream(
        &self,
        seg: &crate::model::SegmentInfo,
        source: Option<&ScanPlan>,
        config: &InspectionConfig,
        budget: Option<&ArmedBudget>,
        full_pass: bool,
        t_start: Instant,
    ) -> Result<StreamOutput, DniError> {
        let ns = self.dataset.ns;
        let device = if full_pass {
            Device::SingleCore
        } else {
            config.device
        };
        // Shuffled record order as positions in the segment (stored
        // columns) and in the dataset (cached hypothesis behaviors).
        let order = shuffled_indices(seg.len, segment_seed(config.seed, seg.index));
        let positions: Vec<usize> = order.iter().map(|&i| seg.start + i).collect();
        let records: Vec<&Record> = positions
            .iter()
            .map(|&p| &self.dataset.records[p])
            .collect();
        // The stream's store state: which union columns can be scanned vs
        // must be extracted, plus write-back capture for the misses.
        let mut store_pass = source.map(|p| ColumnPass::new(p, &self.union_units, &order, ns));

        let mut states: Vec<StateRun> = (self.states.iter())
            .map(|plan| {
                let (n_units, n_hyps) = (self.selections[plan.sel].units.len(), plan.hyps.len());
                let mut readers = vec![0; n_hyps];
                for &h in plan.consumers.iter().flat_map(|c| &c.hyps) {
                    readers[h] += 1;
                }
                StateRun {
                    state: plan.measure.new_state(n_units, n_hyps),
                    readers,
                    pair_errs: match plan.grid {
                        true => vec![f32::INFINITY; n_units * n_hyps],
                        false => Vec::new(),
                    },
                }
            })
            .collect();
        let mut slots: Vec<SlotRun> = (self.slots.iter())
            .map(|slot| SlotRun {
                errs: vec![f32::INFINITY; slot.hyps.len()],
                converged: false,
                snapshots: slot.hyps.iter().map(|_| None).collect(),
            })
            .collect();
        // How many states still read each union hypothesis column (a state
        // hypothesis counts while it has readers); columns with no
        // consumers are not evaluated.
        let mut hyp_consumers: Vec<usize> = vec![0; self.union_hyps.len()];
        for &c in self.states.iter().flat_map(|plan| plan.hyps.iter()) {
            hyp_consumers[c] += 1;
        }
        let member_live = |entries: &[MemberEntry], slots: &[SlotRun]| {
            entries.iter().any(|e| !slots[e.slot].converged)
        };
        // A state is fed while any slot reading it is unconverged.
        let state_live = |plan: &StatePlan<'_>, slots: &[SlotRun]| {
            plan.consumers.iter().any(|c| !slots[c.slot].converged)
        };
        let mut members: Vec<MemberRun> = self
            .members
            .iter()
            .map(|entries| MemberRun {
                live: member_live(entries, &slots),
                profile: Profile::default(),
            })
            .collect();

        // The live path's unit-major block: the thread's buffer
        // (`LIVE_BLOCK`), handed back when the stream ends.
        let width = self.union_units.len();
        let mut extracted = LIVE_BLOCK.take();
        let mut profile = Profile::default();
        let mut interrupted: Option<CompletionStatus> = None;
        let mut block_start = 0usize;
        while block_start < records.len() {
            if !members.iter().any(|m| m.live) {
                break; // §5.2.3: stop reading the moment everything converged.
            }
            // Budget poll, amortized to one check per block: an unlimited
            // run never reaches here with a budget, and an interrupted
            // stream exits exactly like an early-stopped one — write-back
            // commits the streamed prefix as watermark-extending partial
            // columns and the frames carry the current estimates.
            if let Some(b) = budget {
                if let Some(status) = b.check(profile.records_read, profile.blocks_processed) {
                    interrupted = Some(status);
                    break;
                }
            }
            let block_end = (block_start + config.block_records).min(records.len());
            let block = &records[block_start..block_end];
            profile.records_read += block.len();
            profile.blocks_processed += 1;

            // Source the union unit behaviors once — unit-major, one slice
            // per union column — then pick the columns of the unit
            // selections still feeding a live state.
            let t0 = Instant::now();
            let rows = block.len() * ns;
            // The extractor's own output, kept to the end of the block.
            let mut row_major: Vec<Matrix> = Vec::new();
            let union_cols = match &mut store_pass {
                Some(pass) => pass.fetch_block(block_start..block_end, |units, out| {
                    row_major = extract_records(self.extractor, block, units, device, ns, out);
                }),
                None => {
                    let units = &self.union_units;
                    row_major =
                        extract_records(self.extractor, block, units, device, ns, &mut extracted);
                    column_runs(&extracted, rows, width)
                }
            };
            let mut sel_cols: Vec<Option<Vec<&[f32]>>> = vec![None; self.selections.len()];
            for plan in &self.states {
                let sel = &self.selections[plan.sel];
                if !sel.identity && sel_cols[plan.sel].is_none() && state_live(plan, &slots) {
                    sel_cols[plan.sel] = Some(sel.demux.pick(&union_cols));
                }
            }
            let d0 = t0.elapsed();

            // Evaluate the union hypothesis columns that still have consumers.
            let t1 = Instant::now();
            let mut hyp_cols: Vec<Option<Vec<f32>>> = vec![None; self.union_hyps.len()];
            for (c, hyp) in self.union_hyps.iter().enumerate() {
                if hyp_consumers[c] > 0 {
                    hyp_cols[c] = Some(hypothesis_column(
                        *hyp,
                        self.dataset,
                        &positions[block_start..block_end],
                        self.cache,
                    )?);
                }
            }
            let d1 = t1.elapsed();

            // Advance every live state exactly once, however many slots
            // read it, then judge each of its slots' members.
            let t2 = Instant::now();
            // The state's columns in state order; one buffer per block.
            let mut state_cols: Vec<Option<&[f32]>> = Vec::new();
            for (plan, run) in self.states.iter().zip(states.iter_mut()) {
                if !state_live(plan, &slots) {
                    continue;
                }
                let cols = match self.selections[plan.sel].identity {
                    true => &union_cols,
                    false => sel_cols[plan.sel].as_ref().expect("a live state's units"),
                };
                let behaviors = Columns::new(cols, rows);
                // A hypothesis nobody reads any more is not fed.
                let col = |(&c, &readers): (&usize, &usize)| {
                    (readers > 0).then(|| hyp_cols[c].as_deref().expect("consumed column"))
                };
                state_cols.clear();
                state_cols.extend(plan.hyps.iter().zip(&run.readers).map(col));
                run.state.process_block(behaviors, &state_cols);
                if full_pass {
                    continue;
                }
                if !plan.grid {
                    let slot_run = &mut slots[plan.consumers[0].slot];
                    run.state.convergence_errors(&mut slot_run.errs);
                } else if !run.state.pair_errors(&mut run.pair_errs) {
                    return Err(not_a_grid(plan));
                }
                // Each member of a grid consumer stops at the block its own
                // error — the widest of its own units' pair errors, what a
                // state of its own reports — met epsilon, by keeping its
                // pairs as they stand; a slot stops once all its errors
                // have, so a list that is no grid stops as a whole.
                let n = behaviors.width();
                for consumer in &plan.consumers {
                    let (slot, slot_run) = (&self.slots[consumer.slot], &mut slots[consumer.slot]);
                    if slot_run.converged {
                        continue;
                    }
                    for (pos, &h) in consumer.hyps.iter().enumerate() {
                        if !plan.grid || slot_run.snapshots[pos].is_some() {
                            continue;
                        }
                        let pair_errs = &run.pair_errs[h * n..(h + 1) * n];
                        let widths = consumer.units.iter().map(|&u| pair_errs[u]);
                        slot_run.errs[pos] = widths.fold(0.0f32, f32::max);
                        if slot.met(slot_run.errs[pos]) {
                            let pairs = run.state.project(&consumer.units, &[h]);
                            slot_run.snapshots[pos] = Some(pairs.ok_or_else(|| not_a_grid(plan))?);
                            run.release(h, plan, &mut hyp_consumers);
                        }
                    }
                    if slot_run.errs.iter().all(|&e| slot.met(e)) {
                        slot_run.converged = true; // stop feeding
                        for (&h, snapshot) in consumer.hyps.iter().zip(&slot_run.snapshots) {
                            if snapshot.is_none() {
                                run.release(h, plan, &mut hyp_consumers);
                            }
                        }
                    }
                }
            }
            let d2 = t2.elapsed();

            profile.unit_extraction += d0;
            profile.hypothesis_extraction += d1;
            profile.inspection += d2;
            // Members live at the start of the block are charged for it.
            for (member, entries) in members.iter_mut().zip(&self.members) {
                if !member.live {
                    continue;
                }
                member.profile.records_read += block.len();
                member.profile.blocks_processed += 1;
                member.profile.unit_extraction += d0;
                member.profile.hypothesis_extraction += d1;
                member.profile.inspection += d2;
                member.live = member_live(entries, &slots);
                if !member.live {
                    // The member's pairs all converged this block: its
                    // total stops accruing here, so the per-query profile
                    // stays consistent with its phase timings even while
                    // the pass keeps streaming for other members.
                    member.profile.total = t_start.elapsed();
                }
            }
            block_start = block_end;
        }

        // Persist the captured columns — complete after a fully streamed
        // segment, watermark-extending partials after an early stop or a
        // budget interruption (the two are indistinguishable here by
        // design: an interrupted stream resumes at its watermark like any
        // other early-stopped one) — and detach the store accounting.
        let stats = store_pass.map(ColumnPass::finish).unwrap_or_default();
        LIVE_BLOCK.set(extracted);
        Ok(StreamOutput {
            states: states.into_iter().map(|run| run.state).collect(),
            slots,
            members,
            profile,
            stats,
            interrupted,
        })
    }

    /// Revives the serialized fold point of the segment prefix a stored
    /// view covers: exactly the states the cold fold held after those
    /// segments. Stored states are consumed in the order
    /// [`PassLayout::finish`] captured them — slot order × list order, a
    /// repeated column once ([`Slot::first_mention`]) — and each is
    /// checked against the triple it is revived for. Matching by id alone
    /// would hand two same-id hypotheses the same state; any mismatch, gap
    /// or leftover is a typed error. A grid gets each of its slots' revived
    /// states embedded at that slot's pairs, the inverse of the projection
    /// `finish` serialized.
    fn revive(&self, base: &[ViewHypState]) -> Result<Vec<Box<dyn MeasureState>>, DniError> {
        let bad = |what: String| DniError::BadConfig(format!("stored view state {what}"));
        let mut stored = base.iter();
        let mut revived: Vec<Option<Box<dyn MeasureState>>> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let measure_id = slot.measure.id();
            let mut blobs: Vec<&[u8]> = Vec::with_capacity(slot.hyps.len());
            for (pos, &c) in slot.hyps.iter().enumerate() {
                if let Some(first) = slot.first_mention(pos) {
                    blobs.push(blobs[first]);
                    continue;
                }
                let want = (slot.group_id.as_str(), measure_id, self.union_hyps[c].id());
                let state = stored
                    .next()
                    .ok_or_else(|| bad(format!("missing slot {want:?}")))?;
                let found = (&*state.group_id, &*state.measure_id, &*state.hyp_id);
                if found != want {
                    return Err(bad(format!("{found:?} found where {want:?} belongs")));
                }
                blobs.push(&state.state);
            }
            let state = slot.measure.deserialize_state(slot.units.len(), &blobs);
            revived.push(Some(state.ok_or_else(|| {
                let hyp_ids: Vec<&str> =
                    (slot.hyps.iter().map(|&c| self.union_hyps[c].id())).collect();
                bad(format!(
                    "does not revive for ({}, {measure_id}, {hyp_ids:?})",
                    slot.group_id
                ))
            })?));
        }
        if let left @ 1.. = stored.count() {
            return Err(bad(format!(
                "list has {left} more than the statement has slots"
            )));
        }
        let mut states = Vec::with_capacity(self.states.len());
        for plan in &self.states {
            let mut take = |c: &Consumer| revived[c.slot].take().expect("one state per slot");
            if !plan.grid {
                states.push(take(&plan.consumers[0]));
                continue;
            }
            let n_units = self.selections[plan.sel].units.len();
            let mut grid = plan.measure.new_state(n_units, plan.hyps.len());
            for consumer in &plan.consumers {
                if !grid.embed(take(consumer).as_ref(), &consumer.units, &consumer.hyps) {
                    return Err(not_a_grid(plan));
                }
            }
            states.push(grid);
        }
        Ok(states)
    }

    /// Each slot's own state out of the (folded) states: a slot with a
    /// state of its own takes it; a grid consumer projects its units × list
    /// out of the grid, its stopped members as their snapshots kept them —
    /// the state a slot of its own would hold, bit for bit. Each slot's
    /// errors are then read off it: what the last block a member was fed
    /// gave, and on a full pass the estimate one pass over all the data
    /// would have reported last.
    fn slot_states(
        &self,
        states: Vec<Box<dyn MeasureState>>,
        runs: &mut [SlotRun],
    ) -> Result<Vec<Box<dyn MeasureState>>, DniError> {
        let mut own: Vec<Option<Box<dyn MeasureState>>> = self.slots.iter().map(|_| None).collect();
        for (plan, state) in self.states.iter().zip(states) {
            if !plan.grid {
                own[plan.consumers[0].slot] = Some(state);
                continue;
            }
            for consumer in &plan.consumers {
                let mut slot_state = (state.project(&consumer.units, &consumer.hyps))
                    .ok_or_else(|| not_a_grid(plan))?;
                let all_units: Vec<usize> = (0..consumer.units.len()).collect();
                for (pos, snapshot) in runs[consumer.slot].snapshots.iter_mut().enumerate() {
                    let Some(pairs) = snapshot.take() else {
                        continue;
                    };
                    if !slot_state.embed(pairs.as_ref(), &all_units, &[pos]) {
                        return Err(not_a_grid(plan));
                    }
                }
                own[consumer.slot] = Some(slot_state);
            }
        }
        let own: Vec<Box<dyn MeasureState>> = (own.into_iter())
            .map(|state| state.expect("every slot reads a state"))
            .collect();
        for (state, run) in own.iter().zip(runs) {
            state.convergence_errors(&mut run.errs);
        }
        Ok(own)
    }
}

/// The typed error of a measure that says it is pairwise
/// ([`Measure::pairwise`]) but whose state does not act as a grid.
fn not_a_grid(plan: &StatePlan<'_>) -> DniError {
    DniError::Internal(format!(
        "measure {} says it is pairwise, but its state is not a grid",
        plan.measure.id()
    ))
}

/// Folds stream outputs in canonical segment-index order — first error
/// wins, states merge pairwise onto `base` (the revived prefix, if any),
/// accounting accumulates, the lowest-index interruption is reported —
/// and returns the folded output with the pass's extraction-pass count.
/// A fold over one output with no base is the identity.
fn fold_streams(
    outputs: Vec<Result<StreamOutput, DniError>>,
    base: Vec<Box<dyn MeasureState>>,
    full_pass: bool,
) -> Result<(StreamOutput, usize), DniError> {
    let mut folded = StreamOutput {
        states: base,
        ..StreamOutput::default()
    };
    let mut streamed = 0usize;
    for output in outputs {
        let output = output?;
        streamed += usize::from(output.profile.blocks_processed > 0);
        folded.profile.accumulate(&output.profile);
        folded.stats.accumulate(&output.stats);
        folded.interrupted = folded.interrupted.or(output.interrupted);
        if folded.members.is_empty() {
            folded.members = output.members;
            folded.slots = output.slots;
        } else {
            for (member, theirs) in folded.members.iter_mut().zip(&output.members) {
                member.live |= theirs.live;
                member.profile.accumulate(&theirs.profile);
            }
        }
        if folded.states.is_empty() {
            folded.states = output.states;
            continue;
        }
        for (ours, theirs) in folded.states.iter_mut().zip(&output.states) {
            if !ours.merge_from(theirs.as_ref()) {
                return Err(DniError::Internal(
                    "measure state refused a cross-segment merge it advertised".into(),
                ));
            }
        }
    }
    if !full_pass {
        return Ok((folded, 1));
    }
    // A full pass reports per-segment streams.
    folded.stats.segment_passes = streamed;
    Ok((folded, streamed))
}

/// The one streaming pass every INSPECT, view build and view refresh
/// runs through (see the module docs, *One streaming pass*): layout, one
/// stream per segment the fold point does not cover, fold, tail.
/// `sources` holds one store scan plan per dataset segment, in segment
/// order (its length must equal the segment count; `None` extracts
/// everything live); `budget` is already armed, so every group and wave
/// of a batch shares one absolute deadline; `fold` is the view fold point
/// the pass builds or extends; `cache` serves hypothesis behaviors.
/// Returns the outcome plus the captured fold point (empty without
/// `fold`).
pub(crate) fn run_pass<'a>(
    reqs: &[InspectionRequest<'a>],
    config: &InspectionConfig,
    sources: Option<&[ScanPlan]>,
    budget: Option<&ArmedBudget>,
    fold: Option<ViewFold<'_>>,
    cache: Option<&'a CacheRun<'a>>,
) -> Result<(SharedOutcome, Vec<ViewHypState>), DniError> {
    validate_config(config)?;
    let Some(first) = reqs.first() else {
        return Ok((SharedOutcome::default(), Vec::new()));
    };
    let (extractor, dataset) = (first.extractor, first.dataset);
    for req in reqs {
        validate_request(req)?;
        let same_extractor = std::ptr::eq(
            req.extractor as *const dyn Extractor as *const u8,
            extractor as *const dyn Extractor as *const u8,
        );
        if !same_extractor || !std::ptr::eq(req.dataset, dataset) {
            return Err(DniError::BadConfig(
                "inspect_shared members must share one (extractor, dataset) pair".into(),
            ));
        }
    }
    let segments = dataset.segments();
    if let Some(sources) = sources.filter(|s| s.len() != segments.len()) {
        return Err(DniError::BadConfig(format!(
            "{} store scan plans for {} segments",
            sources.len(),
            segments.len()
        )));
    }
    if dataset.is_empty() {
        let mut outcome = SharedOutcome::default();
        outcome.results.resize_with(reqs.len(), Default::default);
        return Ok((outcome, Vec::new()));
    }

    let full_pass = segments.len() > 1 || fold.is_some();
    if full_pass {
        // Up-front typed guard: never a silently wrong cross-segment score.
        let all_measures = reqs.iter().flat_map(|r| r.measures.iter());
        if let Some(measure) = all_measures
            .into_iter()
            .find(|m| !m.supports_segment_merge())
        {
            return Err(DniError::Query(format!(
                "measure {} cannot run on segmented datasets",
                measure.id()
            )));
        }
    }

    let t_start = Instant::now();
    let layout = PassLayout::build(reqs, config, cache);
    let (covered, base) = match fold {
        Some(ViewFold::Extend(doc)) => (doc.segment_fps.len(), layout.revive(&doc.states)?),
        _ => (0, Vec::new()),
    };
    let Some(fresh) = segments.get(covered..).filter(|s| !s.is_empty()) else {
        return Err(DniError::BadConfig(format!(
            "a fold point over {covered} segments leaves none of {} to stream",
            segments.len()
        )));
    };

    // Stream every segment the fold point does not cover, fanned out at
    // the device's width (in order on the calling thread on the
    // single-core device); the outputs land in segment-index order either
    // way.
    let outputs = deepbase_runtime::fan_out(config.device.threads(), fresh, |seg| {
        let source = sources.map(|s| &s[seg.index]);
        layout.stream(seg, source, config, budget, full_pass, t_start)
    });
    let (mut folded, extraction_passes) = fold_streams(outputs, base, full_pass)?;
    let states = std::mem::take(&mut folded.states);
    let states = layout.slot_states(states, &mut folded.slots)?;
    layout.finish(
        reqs,
        folded,
        states,
        extraction_passes,
        fold.is_some(),
        t_start,
    )
}

impl PassLayout<'_> {
    /// The tail of a pass: one walk over the slots — list each slot's
    /// pending pairs, serialize its fold point (view passes) and take its
    /// final scores once, off its own state ([`PassLayout::slot_states`]) —
    /// then each member's frame, emitted straight from those scores.
    fn finish(
        &self,
        reqs: &[InspectionRequest<'_>],
        mut folded: StreamOutput,
        states: Vec<Box<dyn MeasureState>>,
        extraction_passes: usize,
        capture_states: bool,
        t_start: Instant,
    ) -> Result<(SharedOutcome, Vec<ViewHypState>), DniError> {
        // A fold point is only worth storing complete: an interrupted pass
        // has partial states that would poison every later refresh, so
        // capture refuses it with a typed error instead of persisting it —
        // `Cancelled` when the budget's token stopped it, `DeadlineExceeded`
        // for the deadline and the row / block caps.
        if let Some(status) = folded.interrupted.filter(|_| capture_states) {
            return Err(match status {
                CompletionStatus::Cancelled => DniError::Cancelled,
                _ => DniError::DeadlineExceeded(
                    "view materialization needs a complete pass; the run budget interrupted it"
                        .into(),
                ),
            });
        }
        // One walk over the slots. A pair whose convergence error never
        // met its epsilon is listed as pending — also after a naturally
        // exhausted stream, where the scores are the full-data scores but
        // the epsilon target was missed. Final scores come from the folded
        // state (which for a converged pair has not moved since the block
        // it converged on). They can be the expensive part of a measure (a
        // buffered state reads its thresholds or bins off the whole sample
        // here), so they are taken once per slot, and the walk and the
        // emission are charged to the inspection clock.
        let t_emit = Instant::now();
        let mut pending: Vec<PendingPair> = Vec::new();
        let mut captures: Vec<ViewHypState> = Vec::new();
        let mut scores: Vec<Vec<PairResult>> = Vec::with_capacity(self.slots.len());
        for ((slot, run), state) in self.slots.iter().zip(&folded.slots).zip(&states) {
            let measure_id = slot.measure.id();
            for (pos, (&c, &error)) in slot.hyps.iter().zip(&run.errs).enumerate() {
                let hyp_id = self.union_hyps[c].id();
                if !slot.met(error) {
                    pending.push(PendingPair {
                        group_id: slot.group_id.clone(),
                        measure_id: measure_id.to_string(),
                        hyp_id: hyp_id.to_string(),
                        error,
                        epsilon: slot.eps,
                    });
                }
                if capture_states && slot.first_mention(pos).is_none() {
                    captures.push(ViewHypState {
                        group_id: slot.group_id.clone(),
                        measure_id: measure_id.to_string(),
                        hyp_id: hyp_id.to_string(),
                        state: state.serialize_state(pos).ok_or_else(|| {
                            DniError::Query(format!(
                                "measure {measure_id} has no durable state; it cannot back a view"
                            ))
                        })?,
                    });
                }
            }
            let slot_scores = state.final_scores();
            debug_assert_eq!(slot_scores.len(), slot.hyps.len());
            scores.push(slot_scores);
        }
        // Each member's frame, in its canonical (group, measure,
        // hypothesis) order, under its own model id and its entry's group
        // label.
        let frames: Vec<ResultFrame> = (reqs.iter().zip(&self.members))
            .map(|(req, entries)| {
                let mut frame = ResultFrame::default();
                for entry in entries {
                    let slot = &self.slots[entry.slot];
                    let group = (&*req.model_id, &*entry.group_id, &*slot.units);
                    for (&c, pair) in slot.hyps.iter().zip(&scores[entry.slot]) {
                        let ids = (slot.measure.id(), self.union_hyps[c].id());
                        emit_rows(&mut frame, group, ids, pair);
                    }
                }
                frame
            })
            .collect();
        let d_emit = t_emit.elapsed();
        folded.profile.inspection += d_emit;
        let completion = Completion {
            status: folded.interrupted.unwrap_or(CompletionStatus::Converged),
            rows_read: folded.profile.records_read,
            pending,
        };
        let total = t_start.elapsed();
        folded.profile.total = total;
        let results = (folded.members.into_iter().zip(frames))
            .map(|(mut member, frame)| {
                member.profile.inspection += d_emit;
                if member.live {
                    // Never converged: this member consumed the whole pass.
                    member.profile.total = total;
                } else {
                    member.profile.total += d_emit;
                }
                (frame, member.profile)
            })
            .collect();
        Ok((
            SharedOutcome {
                results,
                pass: folded.profile,
                extraction_passes,
                store: folded.stats,
                completion,
            },
            captures,
        ))
    }
}

// ---------------------------------------------------------------------
// MADLib baseline (§5.1.1)
// ---------------------------------------------------------------------

fn inspect_madlib(
    req: &InspectionRequest<'_>,
    config: &InspectionConfig,
) -> Result<(ResultFrame, Profile), DniError> {
    let t_start = Instant::now();
    let mut profile = Profile::default();
    let ns = req.dataset.ns;
    let (positions, records) = shuffled_records(req.dataset, config.seed);
    profile.records_read = records.len();
    let mut stats = rel::ExecStats::default();

    let mut frame = ResultFrame::default();
    for group in &req.groups {
        // Materialize the dense behavior relations (unitsb_dense /
        // hyposb_dense of §5.1.1), joined on symbolid.
        let t0 = Instant::now();
        let rows_total = records.len() * ns;
        let mut values = Vec::new();
        extract_records(
            req.extractor,
            &records,
            &group.units,
            config.device,
            ns,
            &mut values,
        );
        let columns = column_runs(&values, rows_total, group.units.len());
        profile.unit_extraction += t0.elapsed();

        let t1 = Instant::now();
        let mut hyp_cols: Vec<Vec<f32>> = Vec::with_capacity(req.hypotheses.len());
        for hyp in &req.hypotheses {
            hyp_cols.push(hypothesis_column(*hyp, req.dataset, &positions, None)?);
        }
        profile.hypothesis_extraction += t1.elapsed();

        let t2 = Instant::now();
        let unit_names: Vec<String> = (0..group.units.len()).map(|u| format!("u{u}")).collect();
        let hyp_names: Vec<String> = (0..hyp_cols.len()).map(|h| format!("h{h}")).collect();
        let mut cols: Vec<(&str, rel::ColType)> = vec![("symbolid", rel::ColType::Int)];
        for n in &unit_names {
            cols.push((n.as_str(), rel::ColType::Float));
        }
        for n in &hyp_names {
            cols.push((n.as_str(), rel::ColType::Float));
        }
        let mut table = rel::Table::new(rel::Schema::new(cols));
        for r in 0..rows_total {
            let mut row: Vec<rel::Value> =
                Vec::with_capacity(1 + unit_names.len() + hyp_names.len());
            row.push(rel::Value::Int(r as i64));
            row.extend(columns.iter().map(|column| rel::Value::Float(column[r])));
            row.extend(hyp_cols.iter().map(|c| rel::Value::Float(c[r])));
            table.push_row(row).expect("dense schema");
        }

        for measure in &req.measures {
            match measure.id() {
                "corr" => {
                    // Batched corr aggregates: all (unit, hyp) pairs,
                    // <= 1,600 expressions per statement, one full scan per
                    // statement (the paper reports up to 121 passes).
                    let pairs: Vec<(usize, usize)> = (0..group.units.len())
                        .flat_map(|u| (0..hyp_cols.len()).map(move |h| (u, h)))
                        .collect();
                    let mut scores = vec![vec![0.0f32; hyp_cols.len()]; group.units.len()];
                    for batch in pairs.chunks(rel::MAX_EXPRESSIONS_PER_STATEMENT) {
                        let aggs: Vec<rel::AggFn> = batch
                            .iter()
                            .map(|&(u, h)| {
                                rel::AggFn::Corr(unit_names[u].clone(), hyp_names[h].clone())
                            })
                            .collect();
                        let out = rel::aggregate(&table, &mut stats, &[], &aggs)
                            .map_err(|e| DniError::BadConfig(e.msg))?;
                        for (i, &(u, h)) in batch.iter().enumerate() {
                            scores[u][h] = out.row(0)[i].as_f32().unwrap_or(0.0);
                        }
                    }
                    for (h, hyp) in req.hypotheses.iter().enumerate() {
                        let unit_scores: Vec<f32> =
                            (0..group.units.len()).map(|u| scores[u][h]).collect();
                        let group_score = unit_scores.iter().map(|s| s.abs()).fold(0.0, f32::max);
                        emit_rows(
                            &mut frame,
                            (&req.model_id, &group.id, &group.units),
                            (measure.id(), hyp.id()),
                            &(unit_scores, group_score),
                        );
                    }
                }
                id if id.starts_with("logreg") => {
                    // One UDA training run per hypothesis, each scanning
                    // the behavior table once per epoch (MADLib-style).
                    let feature_refs: Vec<&str> = unit_names.iter().map(|s| s.as_str()).collect();
                    let lr_config = deepbase_stats::LogRegConfig {
                        l1: if id.contains("l1") { 0.01 } else { 0.0 },
                        l2: if id.contains("l2") { 0.01 } else { 0.0 },
                        ..Default::default()
                    };
                    // The behavior rows the training-set F1 scans.
                    let x = Matrix::from_fn(rows_total, group.units.len(), |r, u| columns[u][r]);
                    for (h, hyp) in req.hypotheses.iter().enumerate() {
                        let model = rel::logreg_train_uda(
                            &table,
                            &mut stats,
                            &feature_refs,
                            &hyp_names[h],
                            4,
                            &lr_config,
                        )
                        .map_err(|e| DniError::BadConfig(e.msg))?;
                        let unit_scores = model.unit_scores(0);
                        // Group score: training-set F1 via one more scan.
                        let mut y = Matrix::zeros(rows_total, 1);
                        for (r, &hv) in hyp_cols[h].iter().enumerate() {
                            y.set(r, 0, if hv > 0.0 { 1.0 } else { 0.0 });
                        }
                        let f1 = model.f1_per_output(&x, &y)[0];
                        emit_rows(
                            &mut frame,
                            (&req.model_id, &group.id, &group.units),
                            (measure.id(), hyp.id()),
                            &(unit_scores, f1),
                        );
                    }
                }
                other => {
                    return Err(DniError::BadConfig(format!(
                        "the MADLib baseline supports corr and logreg measures, not {other:?}"
                    )))
                }
            }
        }
        profile.inspection += t2.elapsed();
    }
    profile.madlib_stats = Some(stats);
    profile.total = t_start.elapsed();
    Ok((frame, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::PrecomputedExtractor;
    use crate::measure::CorrelationMeasure;
    use crate::model::FnHypothesis;

    /// The live path's block is the extractor's row-major output
    /// transposed once: one call on `SingleCore`, record chunks stacked in
    /// order on `Parallel(3)` (evenly split, unevenly split, and too few
    /// records to split), at 11 of 13 units, a width no multiple of 8.
    #[test]
    fn extracted_blocks_are_the_row_major_output_transposed_on_either_device() {
        let (nd, ns, n_units) = (10, 3, 13);
        let behaviors = Matrix::from_fn(nd * ns, n_units, |r, c| (r * 100 + c) as f32 * 0.5);
        let extractor = PrecomputedExtractor::new(behaviors, ns);
        let records: Vec<Record> = (0..nd)
            .map(|i| Record::standalone(i, vec![0; ns], "abc".into()))
            .collect();
        let units: Vec<usize> = (0..n_units).filter(|&u| u != 3 && u != 8).collect();
        for n in [nd, 9, 5, 1] {
            let block: Vec<&Record> = records[..n].iter().rev().collect();
            let expect = extractor.extract(&block, &units).transpose();
            for device in [Device::SingleCore, Device::Parallel(3)] {
                // A buffer of the wrong size and contents to start with.
                let mut got = vec![f32::NAN; 7];
                extract_records(&extractor, &block, &units, device, ns, &mut got);
                assert_eq!(got, expect.as_slice(), "{n} records on {device:?}");
            }
        }
    }

    /// One scan plan per dataset segment, or a typed error — never a
    /// silent live extraction.
    #[test]
    fn source_list_of_the_wrong_length_is_bad_config() {
        let record = Record::standalone(0, vec!['a' as u32, 'b' as u32], "ab".into());
        let dataset = Dataset::new("d", 2, vec![record]).unwrap();
        let extractor = PrecomputedExtractor::new(Matrix::zeros(2, 1), 2);
        let hyp = FnHypothesis::char_class("is_a", |c| c == 'a');
        let req = InspectionRequest {
            model_id: "m".into(),
            extractor: &extractor,
            groups: vec![UnitGroup::all(1)],
            dataset: &dataset,
            hypotheses: vec![&hyp],
            measures: vec![&CorrelationMeasure],
        };
        let config = InspectionConfig::default();
        let no_sources: [ScanPlan; 0] = [];
        let err = run_pass(&[req], &config, Some(&no_sources), None, None, None).err();
        assert!(matches!(err, Some(DniError::BadConfig(_))), "got {err:?}");
    }
}
