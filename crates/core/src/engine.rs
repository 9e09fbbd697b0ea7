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
//! hypothesis list) and one function that splits a member's hypotheses
//! into lists (`hypothesis_lists`): the whole list for a measure that
//! [shares](Measure::shares_hypotheses) work between hypotheses (`logreg`
//! trains one multi-output model, the buffered measures keep one unit
//! sample), one hypothesis per state otherwise.
//!
//! [`Device::Parallel`] is the reproduction's simulated GPU: batched
//! extraction fans record blocks across threads and independent
//! measures parallelize across hypothesis lists (§4.3), standing in for
//! the paper's CUDA offload. Training is never split: a merged probe
//! trains on one thread on either device.
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
//!   an independent measure in the reference designs, the segment
//!   streams of a full pass and the groups of a plan. Chunk bounds
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
//!    unit columns (demuxed per group, [`crate::extract::ColumnDemux`]);
//!    the union of member hypotheses by function identity (Arc-shared
//!    catalog sets collapse, same-id-different-function registrations
//!    stay separate); and deduplicated measure-state slots — one state
//!    per `(units, measure, hypothesis list)`, the list being the
//!    member's own for a measure that shares and a single hypothesis
//!    otherwise (measures by identity too, not by id), the exact key that
//!    keeps every member's scores bit-identical to a standalone
//!    [`inspect`] call.
//! 2. **One stream per dataset segment.** A seeded shuffle of the
//!    segment's records (segment 0 keeps the session seed), a block at a
//!    time: unit behaviors are fetched once per block — extracted live,
//!    or, when the segment has a store [`ScanPlan`], through the store's
//!    [`ColumnPass`], which scans what it holds and calls back for the
//!    columns it needs computed — hypothesis columns are evaluated once
//!    per block, only while some unconverged slot still consumes them,
//!    and every slot advances once. Scan order, watermarks, demotion
//!    and write-back are the store crate's half of the pass; this module
//!    only calls `fetch_block` and `finish`.
//! 3. **One fold** over the stream outputs in segment-index order via the
//!    exact [`MeasureState::merge_from`], optionally seeded by the revived
//!    fold point of a skipped prefix (an incremental view refresh). A fold
//!    over one output is the identity.
//! 4. **One tail**: pairs that never met epsilon are listed as pending,
//!    every unique pair is emitted once into a merged [`ResultFrame`]
//!    ([`MeasureState::final_scores`], on the inspection clock), member
//!    frames are reassembled from row spans ([`ResultFrame::demux`]), and
//!    a view pass serializes the fold point — per hypothesis, so the
//!    stored bytes do not depend on how hypotheses were grouped into
//!    states.
//!
//! The single-request engine is the one-member case, and the unsegmented
//! pass the one-segment, one-stream case, of this implementation. What
//! differs between a plain one-segment INSPECT and everything else is
//! policy, and it is **derived, never configured**: `full_pass =
//! segment_count > 1 || capture_states || skip_segments > 0`.
//!
//! * `!full_pass` (one stream): **early stopping** — a slot stops being
//!   fed the moment every error of its list meets epsilon and the stream
//!   ends when every member converged (§5.2.3), persisting the streamed
//!   prefix as resumable partial columns; extraction runs on the
//!   configured [`Device`].
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
//! rows then differ only in position. A configured
//! [`HypothesisCache`] keys on `(dataset id, hypothesis id, record)`, so
//! callers must not combine one with same-id-different-function
//! hypotheses (the batch scheduler detects this and withholds its
//! implicit cache).
//!
//! ## Reference designs
//!
//! [`inspect_as`] runs one request under any of the paper's five designs
//! (§5.1 / §6.2, Figs. 5–8):
//!
//! | [`EngineKind`]      | materialization | states         | stopping       |
//! |---------------------|-----------------|----------------|----------------|
//! | `PyBase`            | full, up-front  | per pair       | none           |
//! | `Merged`            | full, up-front  | per list (+MM) | none           |
//! | `MergedEarlyStop`   | full, up-front  | per list       | per state (ES) |
//! | `DeepBase`          | streaming blocks| per list       | ends extraction too |
//! | `Madlib`            | dense relations | UDA per hyp    | none           |
//!
//! "Per list" is the `hypothesis_lists` split; `PyBase` always takes
//! singletons. `DeepBase` is [`inspect`] itself. The other four
//! materialize the whole dataset before scoring, so they have no partial
//! answer, no store, no views and no segments: they take an unlimited
//! [`RunBudget`] only and read the dataset as one shuffled sequence.

use crate::cache::HypothesisCache;
use crate::error::DniError;
use crate::extract::{ColumnDemux, Extractor};
use crate::measure::{Measure, MeasureKind, MeasureState};
use crate::model::{validate_behavior, Dataset, HypothesisFn, Record, UnitGroup};
use crate::result::{Completion, CompletionStatus, PendingPair, ResultFrame, RowSpan, ScoreRow};
use deepbase_relational as rel;
use deepbase_stats::split::shuffled_indices;
use deepbase_store::{ColumnPass, ScanPlan, StoreStats, ViewHypState};
use deepbase_tensor::Matrix;
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
    /// Optional hypothesis-behavior cache shared across runs (Fig. 9).
    pub cache: Option<Arc<HypothesisCache>>,
    /// Store-side predicate pushdown: scans consult zone maps and skip
    /// blocks whose contents the zone entry proves (reconstructed
    /// bit-exactly, so results never change — this is an escape hatch
    /// for differential testing, not a semantics knob).
    pub pushdown: bool,
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
            cache: None,
            pushdown: true,
            budget: RunBudget::default(),
        }
    }
}

/// Wall-clock and work accounting (drives Figs. 5–10).
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
    /// Relational-engine scan counts (Madlib engine only).
    pub madlib_stats: Option<rel::ExecStats>,
}

impl Profile {
    /// Adds another profile's counters and timings into this one (used to
    /// total a query's cost across shared-extraction groups).
    pub fn accumulate(&mut self, other: &Profile) {
        self.unit_extraction += other.unit_extraction;
        self.hypothesis_extraction += other.hypothesis_extraction;
        self.inspection += other.inspection;
        self.total += other.total;
        self.records_read += other.records_read;
        self.blocks_processed += other.blocks_processed;
        if let Some(theirs) = &other.madlib_stats {
            let ours = self.madlib_stats.get_or_insert_with(Default::default);
            ours.full_scans += theirs.full_scans;
            ours.rows_scanned += theirs.rows_scanned;
        }
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
    if let Some(eps) = config.epsilon {
        if eps.is_nan() || eps <= 0.0 {
            return Err(DniError::BadConfig("epsilon must be > 0".into()));
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

/// Extracts unit behaviors for `records`: one extractor call on the
/// single-core device; on the parallel device, one call per contiguous
/// record chunk, the chunks run by `fan_out` and stacked in record order.
fn extract_records(
    extractor: &dyn Extractor,
    records: &[&Record],
    units: &[usize],
    device: Device,
    ns: usize,
) -> Matrix {
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
    let mut parts =
        deepbase_runtime::fan_out(width, &chunks, |recs| extractor.extract(recs, units));
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let data = parts
        .iter()
        .map(Matrix::as_slice)
        .collect::<Vec<_>>()
        .concat();
    Matrix::from_vec(records.len() * ns, units.len(), data).expect("chunks stack to the block")
}

/// Evaluates one hypothesis over records (through the cache when
/// configured), producing a column of `records.len() * ns` values.
fn hypothesis_column(
    hyp: &dyn HypothesisFn,
    records: &[&Record],
    ns: usize,
    dataset_id: &str,
    cache: Option<&Arc<HypothesisCache>>,
) -> Result<Vec<f32>, DniError> {
    let mut col = Vec::with_capacity(records.len() * ns);
    for rec in records {
        let behavior: Arc<Vec<f32>> = match cache {
            Some(c) => c.get_or_compute(dataset_id, hyp.id(), rec.id, || {
                let b = hyp.behavior(rec)?;
                validate_behavior(hyp.id(), rec, ns, &b)?;
                Ok(b)
            })?,
            None => {
                let b = hyp.behavior(rec)?;
                validate_behavior(hyp.id(), rec, ns, &b)?;
                Arc::new(b)
            }
        };
        col.extend_from_slice(&behavior);
    }
    Ok(col)
}

fn epsilon_for(measure: &dyn Measure, config: &InspectionConfig) -> f32 {
    config.epsilon.unwrap_or_else(|| measure.default_epsilon())
}

/// Seeded shuffle as a vector of borrows: the engines only ever *read*
/// records, so shuffling indices avoids cloning every record payload
/// (symbols + window text + source text) per inspection.
fn shuffled_records(dataset: &Dataset, seed: u64) -> Vec<&Record> {
    shuffled_indices(dataset.len(), seed)
        .into_iter()
        .map(|i| &dataset.records[i])
        .collect()
}

/// Emits the result rows of one scored `(group, measure, hypothesis)`.
fn emit_rows(
    frame: &mut ResultFrame,
    req: &InspectionRequest<'_>,
    group: &UnitGroup,
    measure_id: &str,
    hyp_id: &str,
    unit_scores: &[f32],
    group_score: f32,
) {
    debug_assert_eq!(unit_scores.len(), group.units.len());
    for (&unit, &score) in group.units.iter().zip(unit_scores.iter()) {
        frame.rows.push(ScoreRow {
            model_id: req.model_id.clone(),
            group_id: group.id.clone(),
            measure_id: measure_id.to_string(),
            hyp_id: hyp_id.to_string(),
            unit,
            unit_score: score,
            group_score,
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
    let records = shuffled_records(req.dataset, config.seed);
    profile.records_read = records.len();

    // Materialize unit behaviors per group.
    let t0 = Instant::now();
    let group_behaviors: Vec<Matrix> = req
        .groups
        .iter()
        .map(|g| extract_records(req.extractor, &records, &g.units, config.device, ns))
        .collect();
    profile.unit_extraction = t0.elapsed();

    // Materialize all hypothesis behaviors.
    let t1 = Instant::now();
    let mut hyp_cols: Vec<Vec<f32>> = Vec::with_capacity(req.hypotheses.len());
    for hyp in &req.hypotheses {
        hyp_cols.push(hypothesis_column(
            *hyp,
            &records,
            ns,
            &req.dataset.id,
            config.cache.as_ref(),
        )?);
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
            let eps = epsilon_for(*measure, config);
            // PyBase scores every pair on its own; the merging engines hand
            // a measure that shares the whole list (+MM).
            let lists = if merging {
                hypothesis_lists(*measure, &all_hyps)
            } else {
                all_hyps.chunks(1).collect()
            };
            // One state per list, fed a block at a time. Early stopping can
            // only stop a list as a whole (the paper's §5.2.1 caveat).
            let score_list = |list: &[usize]| -> (Vec<PairResult>, usize) {
                let mut state = measure.new_state(group.units.len(), list.len());
                let mut errs = vec![f32::INFINITY; list.len()];
                let mut block: Vec<&[f32]> = Vec::with_capacity(list.len());
                let (mut start, mut blocks) = (0, 0);
                while start < rows_total {
                    let end = (start + block_rows).min(rows_total);
                    block.clear();
                    block.extend(list.iter().map(|&h| &hyp_cols[h][start..end]));
                    state.process_block(&behaviors.slice_rows(start, end), &block, &mut errs);
                    blocks += 1;
                    if early_stop && errs.iter().all(|&e| e <= eps) {
                        break;
                    }
                    start = end;
                }
                (state.final_scores(), blocks)
            };
            // Independent measures fan their lists out on the parallel
            // device; a shared list trains on this thread.
            let width = match measure.kind() {
                MeasureKind::Independent => threads,
                _ => 1,
            };
            let results = deepbase_runtime::fan_out(width, &lists, |list| score_list(list));
            for (list, (scores, blocks)) in lists.iter().zip(results) {
                profile.blocks_processed += blocks;
                for (&h, (unit_scores, group_score)) in list.iter().zip(scores) {
                    emit_rows(
                        &mut frame,
                        req,
                        group,
                        measure.id(),
                        req.hypotheses[h].id(),
                        &unit_scores,
                        group_score,
                    );
                }
            }
        }
    }
    profile.inspection = t2.elapsed();
    profile.total = t_start.elapsed();
    Ok((frame, profile))
}

type PairResult = (Vec<f32>, f32);

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
    run_pass(reqs, config, None, armed.as_ref(), &FoldOpts::default()).map(|(outcome, _)| outcome)
}

/// Outcome of one streaming pass ([`inspect_shared`]).
#[derive(Debug, Default)]
pub struct SharedOutcome {
    /// Per-member score frames and profiles, in request order. A member's
    /// frame and scores are bit-identical to what a standalone
    /// [`inspect`] call would produce for the same request.
    pub results: Vec<(ResultFrame, Profile)>,
    /// Every unique `(group units, measure, hypothesis)` pair, emitted
    /// once (the frame member frames are demuxed from). Left empty for a
    /// single-member batch whose frame would equal it verbatim —
    /// populating it would only duplicate the `results` allocation.
    pub merged: ResultFrame,
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

/// One unique unit selection of a pass: its column demux out of the
/// union matrix, with the identity check precomputed (a selection that
/// covers the whole union in order — the common single-query, one-group
/// case — borrows the union matrix instead of copying it).
struct Selection {
    units: Vec<usize>,
    demux: ColumnDemux,
    identity: bool,
}

/// One deduplicated measure-state slot: one state over an ordered list of
/// union hypothesis columns ([`hypothesis_lists`] — a member's whole list
/// for a measure that shares, one column otherwise). Hypotheses are
/// identified by their union column index (function identity) and
/// measures by [`measure_key`], not by id string, so
/// same-id-different-function registrations never conflate. Any member
/// naming the same `(units, measure, hypothesis list)` shares the slot. The
/// exact ordered list is the identity because it is what the state sees: a
/// logreg state trains one model over the list (anything less would change
/// member scores), and a buffered state keeps one sample for the list —
/// members naming different lists over one `(units, measure)` get one
/// sample per distinct list, never more than one per member.
struct Slot<'a> {
    /// Index into the unique unit-selection list.
    sel: usize,
    eps: f32,
    measure: &'a dyn Measure,
    /// Canonical ids for merged-frame rows (first registrant; members
    /// rebrand during demux).
    model_id: String,
    group_id: String,
    /// Union hypothesis columns the slot's state consumes, in list order.
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
    /// first position — the same bytes would follow — which is also what
    /// one-state-per-column slot dedup stores.
    fn first_mention(&self, pos: usize) -> Option<usize> {
        self.hyps[..pos].iter().position(|&c| c == self.hyps[pos])
    }
}

/// A member's handle on the slots of one of its (group, measure)
/// entries, in the member's canonical emission order.
struct MemberEntry {
    slots: Vec<usize>,
    group_id: String,
}

/// The sharing structure of one pass, built once and read by every
/// segment stream: union units, union hypotheses, unit selections,
/// deduplicated slots and each member's view of them.
struct PassLayout<'a> {
    extractor: &'a dyn Extractor,
    dataset: &'a Dataset,
    /// Union of all unit columns any member needs, extracted once per block.
    union_units: Vec<usize>,
    /// Union of member hypotheses by function identity.
    union_hyps: Vec<&'a dyn HypothesisFn>,
    selections: Vec<Selection>,
    slots: Vec<Slot<'a>>,
    members: Vec<Vec<MemberEntry>>,
}

/// Identity of a measure within a pass: where it lives, plus its id. The
/// id alone would conflate two differently configured measures answering
/// to one name (two `JaccardMeasure` quantiles); the address alone would
/// conflate distinct zero-sized measures, which may all sit at one
/// dangling address. Arc-shared catalog measures still collapse.
pub(crate) type MeasureKey = (usize, String);

pub(crate) fn measure_key(measure: &dyn Measure) -> MeasureKey {
    let address = measure as *const dyn Measure as *const u8 as usize;
    (address, measure.id().to_string())
}

/// The hypothesis lists one `(units, measure)` entry of a member is scored
/// over, one state each: the member's whole list for a measure that
/// [shares](Measure::shares_hypotheses), a singleton per column otherwise.
/// The one place that decides it — the pass layout builds its slots from
/// it, the materializing engines their states, and the optimizer's
/// estimate (`EXPLAIN`) counts what it returns.
pub(crate) fn hypothesis_lists<'c>(measure: &dyn Measure, cols: &'c [usize]) -> Vec<&'c [usize]> {
    if measure.shares_hypotheses() {
        vec![cols]
    } else {
        cols.chunks(1).collect()
    }
}

/// The mutable half of a slot within one stream (or the fold of several).
struct SlotRun {
    state: Box<dyn MeasureState>,
    /// Convergence error per slot hypothesis: what the last processed
    /// block returned (`∞` before the first), replaced by the folded
    /// state's own estimate after a full pass.
    errs: Vec<f32>,
    /// Set once every error met epsilon on an early-stopping stream; a
    /// converged slot is no longer fed. Never set on a full pass.
    converged: bool,
}

struct MemberRun {
    live: bool,
    profile: Profile,
}

/// Everything one segment stream produces — and, folded, the whole pass.
#[derive(Default)]
struct StreamOutput {
    runs: Vec<SlotRun>,
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

/// View options of a pass: where the fold over segment outputs starts
/// and whether its end point is captured.
#[derive(Default)]
pub(crate) struct FoldOpts<'a> {
    /// Stream only segments `skip_segments..`; the revived `base_states`
    /// stand in for the skipped prefix. `0` streams everything.
    pub skip_segments: usize,
    /// Serialized folded states covering segments `0..skip_segments` —
    /// the durable fold point a materialized view stores — in the order
    /// the capturing pass wrote them.
    pub base_states: Option<&'a [ViewHypState]>,
    /// Serialize the final folded states into the returned capture list
    /// (the view-build half of the fold-point contract).
    pub capture_states: bool,
}

impl FoldOpts<'_> {
    /// The derived policy switch of a pass over `dataset` (module docs,
    /// *One streaming pass*).
    pub(crate) fn full_pass(&self, dataset: &Dataset) -> bool {
        dataset.segment_count() > 1 || self.capture_states || self.skip_segments > 0
    }
}

impl<'a> PassLayout<'a> {
    /// Builds the sharing structure for `reqs` (which name one
    /// `(extractor, dataset)` pair): one slot per distinct `(units,
    /// measure, hypothesis list)`, the lists split by [`hypothesis_lists`].
    fn build(
        reqs: &[InspectionRequest<'a>],
        config: &InspectionConfig,
    ) -> Result<PassLayout<'a>, DniError> {
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

        let mut selections: Vec<Selection> = Vec::new();
        let mut sel_of: HashMap<Vec<usize>, usize> = HashMap::new();
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
                let sel = match sel_of.get(&group.units) {
                    Some(&sel) => sel,
                    None => {
                        let demux = ColumnDemux::new(&union_units, &group.units)?;
                        selections.push(Selection {
                            units: group.units.clone(),
                            identity: demux.is_identity(union_units.len()),
                            demux,
                        });
                        sel_of.insert(group.units.clone(), selections.len() - 1);
                        selections.len() - 1
                    }
                };
                for measure in &req.measures {
                    let entry_slots = hypothesis_lists(*measure, &cols)
                        .into_iter()
                        .map(|hyps| {
                            let key = (group.units.clone(), measure_key(*measure), hyps.to_vec());
                            if let Some(&idx) = slot_of.get(&key) {
                                return idx;
                            }
                            slots.push(Slot {
                                sel,
                                eps: epsilon_for(*measure, config),
                                measure: *measure,
                                model_id: req.model_id.clone(),
                                group_id: group.id.clone(),
                                hyps: key.2.clone(),
                            });
                            slot_of.insert(key, slots.len() - 1);
                            slots.len() - 1
                        })
                        .collect();
                    entries.push(MemberEntry {
                        slots: entry_slots,
                        group_id: group.id.clone(),
                    });
                }
            }
            members.push(entries);
        }
        Ok(PassLayout {
            extractor: reqs[0].extractor,
            dataset: reqs[0].dataset,
            union_units,
            union_hyps,
            selections,
            slots,
            members,
        })
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
        // Shuffled record order, with each record's position in the
        // segment kept alongside — stored columns are addressed by it.
        let order = shuffled_indices(seg.len, segment_seed(config.seed, seg.index));
        let records: Vec<&Record> = order
            .iter()
            .map(|&i| &self.dataset.records[seg.start + i])
            .collect();
        // The stream's store state: which union columns can be scanned vs
        // must be extracted, plus write-back capture for the misses.
        let mut store_pass = source.map(|p| ColumnPass::new(p, &self.union_units, seg.len, ns));

        let mut runs: Vec<SlotRun> = self
            .slots
            .iter()
            .map(|slot| {
                let n_units = self.selections[slot.sel].units.len();
                SlotRun {
                    state: slot.measure.new_state(n_units, slot.hyps.len()),
                    errs: vec![f32::INFINITY; slot.hyps.len()],
                    converged: false,
                }
            })
            .collect();
        // How many unconverged slots still consume each union hypothesis
        // column; columns with no consumers are not evaluated.
        let mut hyp_consumers: Vec<usize> = vec![0; self.union_hyps.len()];
        for &c in self.slots.iter().flat_map(|slot| slot.hyps.iter()) {
            hyp_consumers[c] += 1;
        }
        let member_live = |entries: &[MemberEntry], runs: &[SlotRun]| {
            entries
                .iter()
                .any(|e| e.slots.iter().any(|&s| !runs[s].converged))
        };
        let mut members: Vec<MemberRun> = self
            .members
            .iter()
            .map(|entries| MemberRun {
                live: member_live(entries, &runs),
                profile: Profile::default(),
            })
            .collect();

        // The store path's union block, one buffer for the whole stream
        // (`fetch_block` overwrites every cell; only the last, shorter
        // block reallocates).
        let mut scanned = Matrix::zeros(0, self.union_units.len());
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

            // Source the union unit behaviors once, then demux the unit
            // selections still backing an unconverged slot.
            let t0 = Instant::now();
            let extracted;
            let union_behaviors = match &mut store_pass {
                Some(pass) => {
                    let rows = block.len() * ns;
                    if scanned.rows() != rows {
                        scanned = Matrix::zeros(rows, self.union_units.len());
                    }
                    pass.fetch_block(
                        &order[block_start..block_end],
                        scanned.as_mut_slice(),
                        |units| {
                            extract_records(self.extractor, block, units, device, ns).into_vec()
                        },
                    );
                    &scanned
                }
                None => {
                    extracted =
                        extract_records(self.extractor, block, &self.union_units, device, ns);
                    &extracted
                }
            };
            let mut sel_behaviors: Vec<Option<Matrix>> = vec![None; self.selections.len()];
            for (slot, run) in self.slots.iter().zip(&runs) {
                let sel = &self.selections[slot.sel];
                if !run.converged && sel_behaviors[slot.sel].is_none() && !sel.identity {
                    sel_behaviors[slot.sel] = Some(sel.demux.apply(union_behaviors));
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
                        block,
                        ns,
                        &self.dataset.id,
                        config.cache.as_ref(),
                    )?);
                }
            }
            let d1 = t1.elapsed();

            // Advance every unconverged slot exactly once, no matter how
            // many members reference it.
            let t2 = Instant::now();
            // The slot's columns in list order; one buffer per block.
            let mut slot_cols: Vec<&[f32]> = Vec::new();
            for (slot, run) in self.slots.iter().zip(runs.iter_mut()) {
                if run.converged {
                    continue;
                }
                // `None` means the identity selection: use the union
                // matrix directly.
                let behaviors = sel_behaviors[slot.sel].as_ref().unwrap_or(union_behaviors);
                let col = |&c: &usize| hyp_cols[c].as_deref().expect("consumed column");
                slot_cols.clear();
                slot_cols.extend(slot.hyps.iter().map(col));
                run.state
                    .process_block(behaviors, &slot_cols, &mut run.errs);
                if !full_pass && run.errs.iter().all(|&e| slot.met(e)) {
                    run.converged = true; // stop feeding
                    for &c in &slot.hyps {
                        hyp_consumers[c] -= 1;
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
                member.live = member_live(entries, &runs);
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
        Ok(StreamOutput {
            runs,
            members,
            profile,
            stats,
            interrupted,
        })
    }

    /// Revives the serialized fold point of a skipped segment prefix:
    /// exactly the states the cold fold held after those segments. Stored
    /// states are consumed in the order [`PassLayout::finish`] captured
    /// them — slot order × list order, a repeated column once
    /// ([`Slot::first_mention`]) — and each is checked against the
    /// triple it is revived for. Matching by id alone would hand two
    /// same-id hypotheses the same state; any mismatch, gap or leftover is
    /// a typed error.
    fn revive(&self, base: &[ViewHypState]) -> Result<Vec<SlotRun>, DniError> {
        let bad = |what: String| DniError::BadConfig(format!("stored view state {what}"));
        let mut stored = base.iter();
        let mut runs = Vec::with_capacity(self.slots.len());
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
            let n_units = self.selections[slot.sel].units.len();
            let state = slot.measure.deserialize_state(n_units, &blobs);
            runs.push(SlotRun {
                state: state.ok_or_else(|| {
                    let hyp_ids: Vec<&str> =
                        (slot.hyps.iter().map(|&c| self.union_hyps[c].id())).collect();
                    bad(format!(
                        "does not revive for ({}, {measure_id}, {hyp_ids:?})",
                        slot.group_id
                    ))
                })?,
                errs: vec![f32::INFINITY; slot.hyps.len()],
                converged: false,
            });
        }
        match stored.count() {
            0 => Ok(runs),
            left => Err(bad(format!(
                "list has {left} more than the statement has slots"
            ))),
        }
    }
}

/// Folds stream outputs in canonical segment-index order — first error
/// wins, states merge pairwise onto `base` (the revived prefix, if any),
/// accounting accumulates, the lowest-index interruption is reported —
/// and returns the folded output with the pass's extraction-pass count.
/// A fold over one output with no base is the identity.
fn fold_streams(
    outputs: Vec<Result<StreamOutput, DniError>>,
    base: Vec<SlotRun>,
    full_pass: bool,
) -> Result<(StreamOutput, usize), DniError> {
    let mut folded = StreamOutput {
        runs: base,
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
        } else {
            for (member, theirs) in folded.members.iter_mut().zip(&output.members) {
                member.live |= theirs.live;
                member.profile.accumulate(&theirs.profile);
            }
        }
        if folded.runs.is_empty() {
            folded.runs = output.runs;
            continue;
        }
        for (ours, theirs) in folded.runs.iter_mut().zip(&output.runs) {
            if !ours.state.merge_from(theirs.state.as_ref()) {
                return Err(DniError::Internal(
                    "measure state refused a cross-segment merge it advertised".into(),
                ));
            }
        }
    }
    if !full_pass {
        return Ok((folded, 1));
    }
    // A full pass reports per-segment streams and re-derives each pair's
    // convergence error from the *folded* state — the estimate one pass
    // over all the data would have reported last.
    folded.stats.segment_passes = streamed;
    for run in folded.runs.iter_mut() {
        run.state.convergence_errors(&mut run.errs);
    }
    Ok((folded, streamed))
}

/// The one streaming pass every INSPECT, view build and view refresh
/// runs through (see the module docs, *One streaming pass*): layout, one
/// stream per non-skipped segment, fold, tail. `sources` holds one store
/// scan plan per dataset segment, in segment order (its length must equal
/// the segment count; `None` extracts everything live); `budget` is
/// already armed, so every group and wave of a batch shares one absolute
/// deadline; `opts` are the view hooks. Returns the outcome plus the
/// captured fold point (empty unless `opts.capture_states`).
pub(crate) fn run_pass(
    reqs: &[InspectionRequest<'_>],
    config: &InspectionConfig,
    sources: Option<&[ScanPlan]>,
    budget: Option<&ArmedBudget>,
    opts: &FoldOpts<'_>,
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

    let full_pass = opts.full_pass(dataset);
    if opts.skip_segments > 0
        && (opts.base_states.is_none() || opts.skip_segments >= segments.len())
    {
        return Err(DniError::BadConfig(format!(
            "cannot skip {} of {} segments (needs base states and a segment left to stream)",
            opts.skip_segments,
            segments.len(),
        )));
    }
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
    let layout = PassLayout::build(reqs, config)?;
    let base = match opts.base_states.filter(|_| opts.skip_segments > 0) {
        Some(base) => layout.revive(base)?,
        None => Vec::new(),
    };

    // Stream every non-skipped segment, fanned out at the device's width
    // (in order on the calling thread on the single-core device); the
    // outputs land in segment-index order either way.
    let outputs = deepbase_runtime::fan_out(
        config.device.threads(),
        &segments[opts.skip_segments..],
        |seg| {
            let source = sources.map(|s| &s[seg.index]);
            layout.stream(seg, source, config, budget, full_pass, t_start)
        },
    );
    let (folded, extraction_passes) = fold_streams(outputs, base, full_pass)?;
    layout.finish(
        reqs,
        folded,
        extraction_passes,
        opts.capture_states,
        t_start,
    )
}

impl PassLayout<'_> {
    /// The tail of a pass: list pending pairs, emit every unique pair once
    /// into the merged frame, serialize the fold point (view passes), and
    /// demux the merged frame into per-member frames.
    fn finish(
        &self,
        reqs: &[InspectionRequest<'_>],
        mut folded: StreamOutput,
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
        // One walk over the unique pairs. A pair whose convergence error
        // never met its epsilon is listed as pending — also after a
        // naturally exhausted stream, where the scores are the full-data
        // scores but the epsilon target was missed. Every pair is emitted
        // once, its final scores taken from the folded state (which for a
        // converged pair has not moved since the block it converged on),
        // and its row span remembered for the per-member demux. Final
        // scores can be the expensive part of a measure (a buffered state
        // reads its thresholds or bins off the whole sample here), so they
        // are taken once per slot and the walk is charged to the
        // inspection clock.
        let t_emit = Instant::now();
        let mut pending: Vec<PendingPair> = Vec::new();
        let mut captures: Vec<ViewHypState> = Vec::new();
        let mut merged = ResultFrame::default();
        let mut spans: Vec<Vec<(usize, usize)>> = Vec::with_capacity(self.slots.len());
        for (slot, run) in self.slots.iter().zip(&folded.runs) {
            let units = &self.selections[slot.sel].units;
            let measure_id = slot.measure.id();
            let mut slot_spans = Vec::with_capacity(slot.hyps.len());
            let scores = run.state.final_scores();
            debug_assert_eq!(scores.len(), slot.hyps.len());
            for (pos, ((&c, &error), (unit_scores, group_score))) in
                slot.hyps.iter().zip(&run.errs).zip(scores).enumerate()
            {
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
                debug_assert_eq!(unit_scores.len(), units.len());
                slot_spans.push((merged.rows.len(), units.len()));
                for (&unit, &unit_score) in units.iter().zip(unit_scores.iter()) {
                    merged.rows.push(ScoreRow {
                        model_id: slot.model_id.clone(),
                        group_id: slot.group_id.clone(),
                        measure_id: measure_id.to_string(),
                        hyp_id: hyp_id.to_string(),
                        unit,
                        unit_score,
                        group_score,
                    });
                }
                if capture_states && slot.first_mention(pos).is_none() {
                    captures.push(ViewHypState {
                        group_id: slot.group_id.clone(),
                        measure_id: measure_id.to_string(),
                        hyp_id: hyp_id.to_string(),
                        state: run.state.serialize_state(pos).ok_or_else(|| {
                            DniError::Query(format!(
                                "measure {measure_id} has no durable state; it cannot back a view"
                            ))
                        })?,
                    });
                }
            }
            spans.push(slot_spans);
        }
        let d_emit = t_emit.elapsed();
        folded.profile.inspection += d_emit;
        let completion = Completion {
            status: folded.interrupted.unwrap_or(CompletionStatus::Converged),
            rows_read: folded.profile.records_read,
            pending,
        };

        // Demux the merged frame into per-member frames, in each member's
        // canonical (group, measure, hypothesis) order.
        let total = t_start.elapsed();
        folded.profile.total = total;
        let mut results = Vec::with_capacity(reqs.len());
        for ((member, entries), req) in folded.members.iter_mut().zip(&self.members).zip(reqs) {
            let mut member_spans: Vec<RowSpan> = Vec::new();
            for entry in entries {
                for &(start, len) in entry.slots.iter().flat_map(|&s| spans[s].iter()) {
                    member_spans.push(RowSpan {
                        start,
                        len,
                        model_id: req.model_id.clone(),
                        group_id: entry.group_id.clone(),
                    });
                }
            }
            member.profile.inspection += d_emit;
            if member.live {
                // Never converged: this member consumed the whole pass.
                member.profile.total = total;
            } else {
                member.profile.total += d_emit;
            }
            // A sole member whose spans tile the merged frame in order
            // (no dedup-induced repeats) would demux into an exact copy;
            // move the frame instead of cloning every row — this is the
            // standalone `inspect` hot path. Id overrides are no-ops for a
            // sole member (every slot's canonical ids came from it).
            let sole_member_tiles = reqs.len() == 1 && {
                let mut cursor = 0usize;
                member_spans.iter().all(|s| {
                    let aligned = s.start == cursor;
                    cursor += s.len;
                    aligned
                }) && cursor == merged.len()
            };
            let frame = if sole_member_tiles {
                std::mem::take(&mut merged)
            } else {
                merged.demux(&member_spans)
            };
            results.push((frame, member.profile.clone()));
        }
        Ok((
            SharedOutcome {
                results,
                merged,
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
    let records = shuffled_records(req.dataset, config.seed);
    profile.records_read = records.len();
    let mut stats = rel::ExecStats::default();

    let mut frame = ResultFrame::default();
    for group in &req.groups {
        // Materialize the dense behavior relations (unitsb_dense /
        // hyposb_dense of §5.1.1), joined on symbolid.
        let t0 = Instant::now();
        let behaviors = extract_records(req.extractor, &records, &group.units, config.device, ns);
        profile.unit_extraction += t0.elapsed();

        let t1 = Instant::now();
        let mut hyp_cols: Vec<Vec<f32>> = Vec::with_capacity(req.hypotheses.len());
        for hyp in &req.hypotheses {
            hyp_cols.push(hypothesis_column(
                *hyp,
                &records,
                ns,
                &req.dataset.id,
                config.cache.as_ref(),
            )?);
        }
        profile.hypothesis_extraction += t1.elapsed();

        let t2 = Instant::now();
        let rows_total = records.len() * ns;
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
            row.extend(behaviors.row(r).iter().map(|&v| rel::Value::Float(v)));
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
                            req,
                            group,
                            measure.id(),
                            hyp.id(),
                            &unit_scores,
                            group_score,
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
                        let mut x = Matrix::zeros(rows_total, group.units.len());
                        let mut y = Matrix::zeros(rows_total, 1);
                        for (r, &hv) in hyp_cols[h].iter().enumerate() {
                            x.row_mut(r).copy_from_slice(behaviors.row(r));
                            y.set(r, 0, if hv > 0.0 { 1.0 } else { 0.0 });
                        }
                        let f1 = model.f1_per_output(&x, &y)[0];
                        emit_rows(
                            &mut frame,
                            req,
                            group,
                            measure.id(),
                            hyp.id(),
                            &unit_scores,
                            f1,
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
        let opts = FoldOpts::default();
        let no_sources: [ScanPlan; 0] = [];
        let err = run_pass(&[req], &config, Some(&no_sources), None, &opts).err();
        assert!(matches!(err, Some(DniError::BadConfig(_))), "got {err:?}");
    }
}
