//! Long-lived inspection sessions: prepared statements over the explicit
//! plan pipeline, a cross-batch plan cache, a score cache, and admission
//! control.
//!
//! A [`Session`] owns a [`Catalog`] handle, an [`InspectionConfig`], a
//! **plan cache**, an **admission scheduler** every wave it runs is
//! admitted through and the [`HypothesisCache`] every pass it runs looks
//! behaviors up in, which nothing stale can hit and nothing invalidates;
//! [`Session::fork`] makes a session over another catalog that shares the
//! scheduler, the behavior store and the hypothesis cache:
//!
//! * [`Session::prepare`] parses and binds a statement into a
//!   [`PreparedQuery`], caching the bound [`LogicalPlan`] keyed by the
//!   *normalized* statement text. Preparing the same statement again
//!   performs zero bind work for as long as the plan is current
//!   ([`LogicalPlan::is_current`]: the catalog still resolves the
//!   statement to the entries the plan bound); otherwise it re-binds,
//!   and drops every other entry that is no longer current. Nothing else
//!   invalidates a plan.
//! * [`Session::execute`] / [`Session::run_batch`] optimize the bound
//!   plans into a [`PhysicalPlan`] (shared-extraction grouping plus the
//!   session's [`AdmissionConfig`]) and execute it. Converged result
//!   frames are kept in the plan-cache entry of the plan that computed
//!   them (the **score cache**), so re-executing a statement whose plan
//!   is still current skips extraction entirely — the cross-batch reuse
//!   the ROADMAP's multi-query-sharing follow-up calls for — and a
//!   re-bound plan starts without frames. Set
//!   [`SessionConfig::reuse_scores`] to `false` to re-run every pass.
//! * [`Session::explain`] renders the physical plan tree for a statement
//!   (or batch) without executing it.
//! * A materialized view ([`Session::create_view`]) has one write path,
//!   `write_view` — create, rebuild and incremental refresh differ only
//!   in the fold point its pass starts from — and one judge, which
//!   compares the stored doc with `view_doc`, the doc the current inputs
//!   would be written as.
//!
//! Every batch reports its plan counters in
//! [`BatchReport::plan`](crate::plan::BatchReport::plan), a [`PlanStats`]
//! whose plan-cache lookups are those its own call made (`run_batch`'s
//! preparation, stale members' re-preparation); [`Session::stats`] sums
//! the reports, plus the lookups no report carries.

use crate::admission::AdmissionScheduler;
use crate::cache::HypothesisCache;
use crate::engine::{InspectionConfig, RunBudget, ViewFold};
use crate::error::DniError;
use crate::model::Record;
use crate::plan::{
    self, AdmissionConfig, BatchOutput, LogicalPlan, PhysicalPlan, PlanStats, StoreBinding,
    BATCH_CACHE_BYTES,
};
use crate::query::{display_statement, normalize_statement, parse, Catalog};
use crate::result::{ResultFrame, ScoreRow};
use deepbase_relational::Table;
use deepbase_store::{
    BehaviorStore, MaterializationPolicy, StoreConfig, StoreError, StoreStats, ViewDoc,
    ViewFreshness, ViewRow,
};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Statements kept in the plan cache, each with the frames its plan
/// computed; FIFO eviction.
const MAX_CACHED_ENTRIES: usize = 256;

/// Session-wide configuration.
#[derive(Clone)]
pub struct SessionConfig {
    /// Engine configuration every execution uses.
    pub inspection: InspectionConfig,
    /// Admission budgets: plans split against them, and the session's
    /// scheduler (shared with its forks) admits every wave under them.
    pub admission: AdmissionConfig,
    /// Reuse converged result frames across batches (the score cache).
    /// Results are bit-identical either way — execution is deterministic —
    /// so this only trades memory for skipped extraction passes.
    pub reuse_scores: bool,
    /// Byte budget of the hypothesis cache, one cache shared by a session
    /// and all of its forks.
    pub cache_bytes: usize,
    /// Persistent behavior store (`None` disables durability). The store
    /// is opened when the session is created; an open failure disables
    /// the store and surfaces the error in [`Session::store_stats`]
    /// rather than failing the session — the store is an accelerator,
    /// never a correctness dependency. Forks share the opened handle
    /// (see [`Session::fork`]).
    pub store: Option<StoreConfig>,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            inspection: InspectionConfig::default(),
            admission: AdmissionConfig::default(),
            reuse_scores: true,
            cache_bytes: BATCH_CACHE_BYTES,
            store: None,
        }
    }
}

/// A statement prepared by [`Session::prepare`]: the normalized text plus
/// the bound plan. The handle outlives the plan cache and may be executed
/// on any session; a handle whose plan is not current for the executing
/// session's catalog is transparently re-prepared there.
#[derive(Clone)]
pub struct PreparedQuery {
    key: String,
    plan: Arc<LogicalPlan>,
}

impl PreparedQuery {
    /// The bound logical plan.
    pub fn plan(&self) -> &Arc<LogicalPlan> {
        &self.plan
    }

    /// The normalized statement text the plan cache keys on.
    pub fn statement(&self) -> &str {
        &self.key
    }
}

/// A batch of prepared statements ([`Session::prepare_batch`]).
#[derive(Clone)]
pub struct PreparedBatch {
    entries: Vec<PreparedQuery>,
}

/// One plan-cache entry: a bound plan and the converged frames it
/// computed, by model position. A frame is stored into and served from
/// only the entry of the plan that computed it, so re-binding drops it.
/// No config goes into the key: the result-determining config of a
/// session never changes ([`Session::set_budget`] is its only setter).
struct PlanEntry {
    plan: Arc<LogicalPlan>,
    frames: Vec<Option<Arc<ResultFrame>>>,
}

/// The engine stamp of every view this session writes, and the only one
/// it accepts: sessions run the one streaming engine, so a file stamped
/// anything else was not built by this pass and probes `Invalid`.
const VIEW_ENGINE_TAG: &str = "DeepBase";

/// One catalog view as listed by [`Session::list_views`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewInfo {
    /// View name.
    pub name: String,
    /// The statement the view materializes, as a reader writes it: the
    /// tokens of its normalized key, with no space around `.` and none
    /// before `,` (`select s.uid, s.unit_score inspect u.uid …`). The
    /// stored key, which views and the plan cache are matched by, is the
    /// space-separated form.
    pub statement: String,
    /// Freshness against the session's current catalog and config.
    pub freshness: ViewFreshness,
}

/// What [`Session::refresh_view`] actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewRefresh {
    /// Every input fingerprint still matched: nothing ran.
    Noop,
    /// The dataset grew: only the appended segments were extracted and
    /// folded into the stored measure states (refresh ≡ cold rebuild,
    /// bit-identically, by the segmented fold-point contract).
    Incremental {
        /// Segments extracted and folded.
        new_segments: usize,
    },
    /// Some other input changed: the view was rebuilt from scratch.
    Rebuilt,
}

/// A stored view, its statement bound to the session's catalog, and its
/// freshness against the inputs the statement binds to now.
struct BoundView {
    doc: Arc<ViewDoc>,
    /// The bound statement, or the error binding it raised.
    plan: Result<Arc<LogicalPlan>, DniError>,
    freshness: ViewFreshness,
}

/// Decodes a stored view frame back into the engine's result frame,
/// bit-exactly (scores are persisted as raw `f32` bits).
fn view_frame(doc: &ViewDoc) -> ResultFrame {
    ResultFrame {
        rows: doc
            .rows
            .iter()
            .map(|r| ScoreRow {
                model_id: r.model_id.clone(),
                group_id: r.group_id.clone(),
                measure_id: r.measure_id.clone(),
                hyp_id: r.hyp_id.clone(),
                unit: r.unit as usize,
                unit_score: f32::from_bits(r.unit_score_bits),
                group_score: f32::from_bits(r.group_score_bits),
            })
            .collect(),
    }
}

/// Encodes a computed frame for durable storage, bit-exactly.
fn view_rows(frame: &ResultFrame) -> Vec<ViewRow> {
    frame
        .rows
        .iter()
        .map(|r| ViewRow {
            model_id: r.model_id.clone(),
            group_id: r.group_id.clone(),
            measure_id: r.measure_id.clone(),
            hyp_id: r.hyp_id.clone(),
            unit: r.unit as u64,
            unit_score_bits: r.unit_score.to_bits(),
            group_score_bits: r.group_score.to_bits(),
        })
        .collect()
}

fn store_view_err(op: &str, name: &str, e: StoreError) -> DniError {
    DniError::Io(format!("view {name:?} {op} failed: {e}"))
}

/// A long-lived query session (see the module docs).
pub struct Session {
    catalog: Catalog,
    config: SessionConfig,
    /// Shared with every fork.
    hypothesis_cache: Arc<HypothesisCache>,
    /// Plan-cache entries by normalized statement, in FIFO order; each
    /// is checked with [`LogicalPlan::is_current`] before use.
    plans: HashMap<String, PlanEntry>,
    plan_order: VecDeque<String>,
    /// Every plan-cache lookup and every batch report's other plan
    /// counters, summed.
    stats: PlanStats,
    /// The open behavior store, when configured and openable; shared
    /// with every fork.
    store: Option<Arc<BehaviorStore>>,
    /// Admits every wave this session runs; shared with every fork.
    scheduler: Arc<AdmissionScheduler>,
    /// Whether the once-per-session compaction sweep (picking up what a
    /// crashed predecessor left behind) has run.
    store_swept_once: bool,
    /// Cumulative store accounting across the session's batches (plus
    /// the open error, if the configured store could not be opened).
    store_stats: StoreStats,
}

impl Session {
    /// Opens a session over a catalog with default configuration.
    pub fn new(catalog: Catalog) -> Session {
        Session::with_config(catalog, SessionConfig::default())
    }

    /// Opens a session with explicit configuration: builds its admission
    /// scheduler from `config.admission` and opens `config.store` — the
    /// one place a store is opened for sessions.
    pub fn with_config(catalog: Catalog, config: SessionConfig) -> Session {
        let mut store_stats = StoreStats::default();
        let store = config.store.as_ref().and_then(|store_config| {
            BehaviorStore::open(store_config)
                .map_err(|e| {
                    store_stats.record_error(format!(
                        "store at {:?} could not be opened, persistence disabled: {e}",
                        store_config.path
                    ))
                })
                .ok()
        });
        let scheduler = AdmissionScheduler::new(config.admission);
        let cache = HypothesisCache::new(config.cache_bytes);
        Session::from_parts(catalog, config, store, scheduler, cache, store_stats)
    }

    /// A session over `catalog` sharing this session's config, behavior
    /// store handle, admission scheduler and hypothesis cache — one buffer
    /// pool, one index, one width budget and one set of behaviors, which
    /// serve both wherever the two catalogs hold the same `Arc`s — whose
    /// plan cache (and so its score cache) starts empty. A store that
    /// failed to open here stays closed in the fork, and nothing is
    /// opened again (the open error is in this session's
    /// [`Session::store_stats`]). A serving process forks one template
    /// session per connection.
    pub fn fork(&self, catalog: Catalog) -> Session {
        Session::from_parts(
            catalog,
            self.config.clone(),
            self.store.clone(),
            Arc::clone(&self.scheduler),
            Arc::clone(&self.hypothesis_cache),
            StoreStats::default(),
        )
    }

    fn from_parts(
        catalog: Catalog,
        config: SessionConfig,
        store: Option<Arc<BehaviorStore>>,
        scheduler: Arc<AdmissionScheduler>,
        hypothesis_cache: Arc<HypothesisCache>,
        store_stats: StoreStats,
    ) -> Session {
        Session {
            catalog,
            hypothesis_cache,
            config,
            plans: HashMap::new(),
            plan_order: VecDeque::new(),
            stats: PlanStats::default(),
            store,
            scheduler,
            store_swept_once: false,
            store_stats,
        }
    }

    /// Mutable access to the catalog. Nothing is cleared: a cached plan
    /// (with its frames) is re-checked against the catalog on its next
    /// use ([`LogicalPlan::is_current`]), so only statements whose
    /// entries changed re-bind. A stale entry keeps the `Arc`s it bound
    /// alive until the next plan-cache miss, which drops every stale
    /// entry.
    ///
    /// The hypothesis cache needs no invalidation either: a dataset or
    /// hypothesis registered anew is a new identity and misses. Nor does
    /// the behavior store: its columns are keyed by **content
    /// fingerprints**, so a model or dataset re-registered with different
    /// contents misses, while an identical re-registration keeps hitting.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Cumulative plan counters: the sum of every batch report's
    /// [`BatchReport::plan`](crate::plan::BatchReport::plan), plus the
    /// plan-cache lookups no report carries (a `prepare`, `explain` or
    /// view call's, or a failed batch's).
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// The hypothesis cache every pass of this session looks behaviors up
    /// in, shared with the session it was forked from and its own forks.
    pub fn hypothesis_cache(&self) -> &Arc<HypothesisCache> {
        &self.hypothesis_cache
    }

    /// Replaces the run budget applied to subsequent executions — the
    /// serving path maps each request's wire-carried deadline/caps here
    /// before executing it. Budget changes never touch the plan or score
    /// caches (an interrupted run's partial frames are never cached, and
    /// a converged result is converged under any budget).
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.config.inspection.budget = budget;
    }

    /// The scheduler every wave of this session (and of its forks) is
    /// admitted through; its [`SchedulerStats`](crate::prelude::SchedulerStats)
    /// count the waves and their in-flight widths.
    pub fn scheduler(&self) -> &Arc<AdmissionScheduler> {
        &self.scheduler
    }

    /// The open behavior store, when one is configured and healthy.
    pub fn store(&self) -> Option<&Arc<BehaviorStore>> {
        self.store.as_ref()
    }

    /// Cumulative behavior-store accounting across the session's batches:
    /// blocks read/written, pool hits/evictions, forward passes avoided,
    /// and every error survived by falling back to live extraction.
    pub fn store_stats(&self) -> &StoreStats {
        &self.store_stats
    }

    /// Runs one store compaction sweep now (read-write sessions run one
    /// automatically after every batch): deletes quarantined files past
    /// the configured retention budget and stale temporaries left by
    /// crashed writers, and evicts the coldest columns when the store
    /// exceeds its disk budget. Returns the sweep's store delta (also
    /// accumulated into [`Session::store_stats`]), or `None` when no
    /// writable store is open.
    pub fn compact_store(&mut self) -> Option<StoreStats> {
        let swept = self.sweep_store()?;
        self.store_stats.accumulate(&swept);
        Some(swept)
    }

    /// One compaction sweep of the writable store, accounted nowhere yet.
    fn sweep_store(&self) -> Option<StoreStats> {
        let store_config = self.config.store.as_ref()?;
        if store_config.policy != MaterializationPolicy::ReadWrite {
            return None;
        }
        let store = self.store.as_ref()?;
        Some(store.compact(store_config.quarantine_retention_bytes))
    }

    fn store_binding(&self) -> Option<StoreBinding> {
        let store_config = self.config.store.as_ref()?;
        Some(StoreBinding {
            store: Arc::clone(self.store.as_ref()?),
            policy: store_config.policy,
            writeback_limit_bytes: store_config.writeback_limit_bytes,
        })
    }

    /// Parses and binds one statement, serving the bound plan from the
    /// plan cache while it is current for this session's catalog. On a
    /// miss every stale entry is dropped, frames with it, and the
    /// statement is bound anew.
    pub fn prepare(&mut self, sql: &str) -> Result<PreparedQuery, DniError> {
        let key = normalize_statement(sql)?;
        if let Some(entry) = self.plans.get(&key) {
            if entry.plan.is_current(&self.catalog) {
                self.stats.plan_cache_hits += 1;
                let plan = Arc::clone(&entry.plan);
                return Ok(PreparedQuery { key, plan });
            }
        }
        self.stats.plan_cache_misses += 1;
        // A miss also drops every entry the catalog has moved past, this
        // statement's included, so stale entries pin at most the catalog
        // as of the last miss.
        self.plans.retain(|_, e| e.plan.is_current(&self.catalog));
        self.plan_order.retain(|k| self.plans.contains_key(k));
        let plan = Arc::new(plan::bind(&parse(sql)?, &self.catalog)?);
        let entry = PlanEntry {
            plan: Arc::clone(&plan),
            frames: vec![None; plan.models.len()],
        };
        if self.plans.insert(key.clone(), entry).is_none() {
            self.plan_order.push_back(key.clone());
            if self.plan_order.len() > MAX_CACHED_ENTRIES {
                let evicted = self.plan_order.pop_front().expect("over capacity");
                self.plans.remove(&evicted);
            }
        }
        Ok(PreparedQuery { key, plan })
    }

    /// Prepares a batch of statements (each through the plan cache).
    pub fn prepare_batch(&mut self, sqls: &[&str]) -> Result<PreparedBatch, DniError> {
        let entries = sqls
            .iter()
            .map(|sql| self.prepare(sql))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PreparedBatch { entries })
    }

    /// Executes one prepared statement, returning its result table. A
    /// handle whose plan is not current for this session's catalog is
    /// transparently re-prepared first.
    pub fn execute(&mut self, prepared: &PreparedQuery) -> Result<Table, DniError> {
        let batch = PreparedBatch {
            entries: vec![prepared.clone()],
        };
        let mut output = self.execute_batch(&batch)?;
        // Per-query failure routing exists to protect *siblings* in a
        // batch; a lone statement has none, so a contained worker panic
        // surfaces as this statement's own error, not an empty table.
        if let Some(err) = output
            .report
            .query_errors
            .first_mut()
            .and_then(Option::take)
        {
            return Err(err);
        }
        Ok(output.tables.pop().expect("one query, one table"))
    }

    /// Prepares and executes one statement.
    pub fn run(&mut self, sql: &str) -> Result<Table, DniError> {
        let prepared = self.prepare(sql)?;
        self.execute(&prepared)
    }

    /// Prepares and executes a batch of statements through shared
    /// extraction, the plan cache and admission control.
    pub fn run_batch(&mut self, sqls: &[&str]) -> Result<BatchOutput, DniError> {
        let base = self.stats;
        let prepared = self.prepare_batch(sqls)?;
        self.execute_entries(&prepared.entries, base)
    }

    /// Executes a prepared batch. Members whose plan is not current for
    /// this session's catalog are transparently re-prepared through the
    /// plan cache.
    pub fn execute_batch(&mut self, prepared: &PreparedBatch) -> Result<BatchOutput, DniError> {
        let base = self.stats;
        self.execute_entries(&prepared.entries, base)
    }

    /// Runs a batch; `base` is the session total as the batch call
    /// started, so the report's plan-cache counters are the call's own.
    fn execute_entries(
        &mut self,
        entries: &[PreparedQuery],
        base: PlanStats,
    ) -> Result<BatchOutput, DniError> {
        // Revalidate: the normalized statement is itself a parseable
        // statement, so a stale entry re-prepares from its key.
        let mut fresh: Vec<PreparedQuery> = Vec::with_capacity(entries.len());
        for entry in entries {
            if entry.plan.is_current(&self.catalog) {
                fresh.push(entry.clone());
            } else {
                fresh.push(self.prepare(&entry.key)?);
            }
        }
        let plans: Vec<Arc<LogicalPlan>> = fresh.iter().map(|e| Arc::clone(&e.plan)).collect();

        let physical = self.optimize_entries(&fresh, &plans);
        let (mut output, computed) = physical.execute(
            &self.config.inspection,
            &self.scheduler,
            &self.hypothesis_cache,
            self.config.reuse_scores,
        )?;

        // Feed the score cache (collected only under `reuse_scores`):
        // each frame goes into the entry of the plan that computed it.
        for (qi, pos, frame) in computed {
            if let Some(entry) = self.plans.get_mut(&fresh[qi].key) {
                if Arc::ptr_eq(&entry.plan, &plans[qi]) {
                    entry.frames[pos] = Some(frame);
                }
            }
        }

        // Store lifecycle: a read-write batch ends with a compaction
        // sweep — stale temporaries of crashed writers and quarantined
        // files past the retention budget are reclaimed, and cold columns
        // are evicted past the disk budget. The sweep walks the store
        // tree, so it only runs when this batch could have left something
        // to reclaim or evict (new columns grow the store, errors
        // quarantine files) or once per session to pick up what a
        // crashed predecessor left behind — never on the steady warm
        // path. The batch report carries the whole store delta, which the
        // session then accumulates once.
        let may_reclaim = output.report.store.columns_written > 0
            || output.report.store.partial_columns_written > 0
            || output.report.store.error_count > 0
            || !self.store_swept_once;
        if may_reclaim {
            if let Some(swept) = self.sweep_store() {
                self.store_swept_once = true;
                output.report.store.accumulate(&swept);
            }
        }
        self.store_stats.accumulate(&output.report.store);

        // Plan-cache lookups entered the total as they were made; every
        // other counter enters it from the report, once.
        self.stats.accumulate(&output.report.plan);
        output.report.plan.plan_cache_hits = self.stats.plan_cache_hits - base.plan_cache_hits;
        output.report.plan.plan_cache_misses =
            self.stats.plan_cache_misses - base.plan_cache_misses;
        Ok(output)
    }

    fn optimize_entries(
        &self,
        entries: &[PreparedQuery],
        plans: &[Arc<LogicalPlan>],
    ) -> PhysicalPlan {
        // Frames exist only under `reuse_scores`, and only in the entry
        // of the plan that computed them.
        let mut lookup = |qi: usize, pos: usize| -> Option<Arc<ResultFrame>> {
            let entry = self.plans.get(&entries[qi].key)?;
            Arc::ptr_eq(&entry.plan, &plans[qi])
                .then(|| entry.frames[pos].clone())
                .flatten()
        };
        let mut view_probe =
            |qi: usize| -> Option<plan::ViewHit> { self.probe_view(&entries[qi].key, &plans[qi]) };
        plan::optimize_with(
            plans,
            &self.config.inspection,
            self.config.admission,
            self.store_binding().as_ref(),
            &mut lookup,
            &mut view_probe,
        )
    }

    /// The optimizer's view probe: does a view materialize this
    /// normalized statement, and how fresh is it? Fresh hits carry the
    /// decoded frame so the optimizer can place a replay.
    fn probe_view(&self, key: &str, plan: &Arc<LogicalPlan>) -> Option<plan::ViewHit> {
        let store = self.store.as_ref()?;
        let doc = store.views().find_by_statement(key)?;
        let freshness = self.judge_view(&doc, plan);
        let frame = matches!(freshness, ViewFreshness::Fresh).then(|| Arc::new(view_frame(&doc)));
        Some(plan::ViewHit {
            note: plan::ViewNote {
                name: doc.name.clone(),
                freshness,
            },
            frame,
        })
    }

    /// Appends a batch of records to a registered dataset as one new
    /// in-memory segment (see [`Catalog::append_to_dataset`]) and
    /// re-registers it under the same name. Cached plans over that
    /// dataset (and their frames) are no longer current and re-bind on
    /// their next use; plans over other datasets keep serving. The
    /// behavior store stays warm: columns are keyed per *segment*
    /// fingerprint, and the existing segments are byte-identical after
    /// the append, so a re-run extracts only the appended segment's
    /// records.
    pub fn append_records(&mut self, name: &str, records: Vec<Record>) -> Result<(), DniError> {
        self.catalog_mut().append_to_dataset(name, records)
    }

    /// Renders the physical plan tree for one statement (prepared through
    /// the plan cache) without executing it. The rendering ignores the
    /// score cache, so it is deterministic across repeated calls.
    pub fn explain(&mut self, sql: &str) -> Result<String, DniError> {
        self.explain_batch(&[sql])
    }

    /// Renders the physical plan tree for a batch of statements.
    pub fn explain_batch(&mut self, sqls: &[&str]) -> Result<String, DniError> {
        let prepared = self.prepare_batch(sqls)?;
        let plans: Vec<Arc<LogicalPlan>> = prepared
            .entries
            .iter()
            .map(|e| Arc::clone(&e.plan))
            .collect();
        let mut view_probe = |qi: usize| -> Option<plan::ViewHit> {
            self.probe_view(&prepared.entries[qi].key, &plans[qi])
        };
        Ok(plan::optimize_with(
            &plans,
            &self.config.inspection,
            self.config.admission,
            self.store_binding().as_ref(),
            &mut |_, _| None,
            &mut view_probe,
        )
        .explain())
    }

    // -----------------------------------------------------------------
    // Materialized views
    // -----------------------------------------------------------------

    /// The open store, or the typed error every view operation raises
    /// without one.
    fn view_store(&self) -> Result<Arc<BehaviorStore>, DniError> {
        self.store.as_ref().map(Arc::clone).ok_or_else(|| {
            DniError::Query("materialized views need a configured behavior store".into())
        })
    }

    /// Materializes one INSPECT statement as a named durable view: runs
    /// the segmented full pass (warm store segments scan, cold ones
    /// extract), captures the mergeable measure states alongside the
    /// result frame, and persists everything atomically under
    /// `<store>/views/`. An existing view of the same name is replaced.
    ///
    /// The statement must bind to a single fingerprinted model over a
    /// non-empty dataset, and every measure must have durable state
    /// (the order-dependent SGD probes do not) — violations surface as
    /// typed [`DniError::Query`] errors before anything is written.
    pub fn create_view(&mut self, name: &str, sql: &str) -> Result<(), DniError> {
        if name.is_empty() {
            return Err(DniError::Query("view name must not be empty".into()));
        }
        let prepared = self.prepare(sql)?;
        self.write_view(name, &prepared.key, &prepared.plan, None)
    }

    /// The doc a view of `statement` over `plan` is written as, before
    /// its pass fills in states and rows: every result-determining input
    /// (engine tag, block size, ε bits, seed, model and per-segment
    /// dataset fingerprints), which `judge_view` compares a stored doc
    /// with. `None` when a bound model has no content fingerprint.
    fn view_doc(&self, name: &str, statement: &str, plan: &LogicalPlan) -> Option<ViewDoc> {
        let model_fps: Option<Vec<u64>> = plan.models.iter().map(|m| m.fingerprint()).collect();
        Some(ViewDoc {
            name: name.to_string(),
            statement: statement.to_string(),
            engine: VIEW_ENGINE_TAG.to_string(),
            block_records: self.config.inspection.block_records as u64,
            epsilon_bits: self.config.inspection.epsilon.map(f32::to_bits),
            seed: self.config.inspection.seed,
            model_fps: model_fps?,
            segment_fps: (0..plan.dataset.segment_count())
                .map(|i| plan.dataset.segment_fingerprint(i))
                .collect(),
            states: Vec::new(),
            rows: Vec::new(),
        })
    }

    /// Judges a stored view against the inputs its statement binds to now
    /// (`view_doc`): the one freshness judgement of reads, refreshes,
    /// listings and the optimizer's probe.
    fn judge_view(&self, doc: &ViewDoc, plan: &LogicalPlan) -> ViewFreshness {
        let Some(now) = self.view_doc(&doc.name, &doc.statement, plan) else {
            return ViewFreshness::Invalid;
        };
        doc.freshness(
            &now.engine,
            now.block_records,
            now.epsilon_bits,
            now.seed,
            &now.model_fps,
            &now.segment_fps,
        )
    }

    /// Loads view `name`, binds its statement through the plan cache and
    /// judges it: the one load-bind-judge step of `read_view`,
    /// `refresh_view` and `list_views`. No view of the name is
    /// [`DniError::UnknownView`]; a statement that no longer binds keeps
    /// its error in `BoundView::plan` and judges `Invalid`.
    fn bind_view(&mut self, name: &str) -> Result<BoundView, DniError> {
        let doc = (self.view_store()?.views().load(name))
            .map_err(|e| store_view_err("load", name, e))?
            .ok_or_else(|| DniError::UnknownView(name.to_string()))?;
        let plan = self.prepare(&doc.statement).map(|p| p.plan);
        let freshness = match &plan {
            Ok(plan) => self.judge_view(&doc, plan),
            Err(_) => ViewFreshness::Invalid,
        };
        Ok(BoundView {
            doc,
            plan,
            freshness,
        })
    }

    /// Writes view `name` of `statement`: the one write path of create,
    /// rebuild and incremental refresh. With no `base` the full pass
    /// builds the fold point over every segment; with `base` it revives
    /// that doc's fold point and streams only the segments appended
    /// since, which equals the rebuild bit for bit (`engine` module docs,
    /// *One streaming pass*).
    fn write_view(
        &mut self,
        name: &str,
        statement: &str,
        plan: &Arc<LogicalPlan>,
        base: Option<&ViewDoc>,
    ) -> Result<(), DniError> {
        let store = self.view_store()?;
        if store.is_read_only() {
            return Err(DniError::Query(
                "the behavior store is read-only; views cannot be written".into(),
            ));
        }
        let [model] = &plan.models[..] else {
            return Err(DniError::Query(
                "materialized views require a single-model statement".into(),
            ));
        };
        let Some(mut doc) = self.view_doc(name, statement, plan) else {
            return Err(DniError::Query(format!(
                "model {:?} has no content fingerprint; its results cannot back a view",
                model.mid
            )));
        };
        if plan.dataset.records.is_empty() {
            return Err(DniError::Query(
                "cannot materialize a view over an empty dataset".into(),
            ));
        }
        // A view is its fold point, so every measure must have one. On a
        // segmented dataset `bind` has refused such a measure already.
        if let Some(measure) = plan.measures.iter().find(|m| !m.supports_segment_merge()) {
            return Err(DniError::Query(format!(
                "measure {} has no durable state; it cannot back a view",
                measure.id()
            )));
        }
        // The pass is a one-item plan (the optimizer's per-segment store
        // source and wave widths, no score-cache lookup, no view probe)
        // whose one wave runs through the batch wave runner; the fold
        // point makes it a full pass even on one segment. No sweep.
        let (outcome, states) = plan::optimize_with(
            std::slice::from_ref(plan),
            &self.config.inspection,
            self.config.admission,
            self.store_binding().as_ref(),
            &mut |_, _| None,
            &mut |_| None,
        )
        .execute_view(
            &self.config.inspection,
            &self.scheduler,
            &self.hypothesis_cache,
            base.map_or(ViewFold::Build, ViewFold::Extend),
        )?;
        doc.states = states;
        doc.rows = view_rows(&outcome.results[0].0);
        let bytes = store
            .views()
            .save(&doc)
            .map_err(|e| store_view_err("save", name, e))?;
        if base.is_some() {
            self.store_stats.view_refreshes += 1;
        } else {
            self.store_stats.view_builds += 1;
        }
        self.store_stats.view_bytes_written += bytes;
        self.store_stats.accumulate(&outcome.store);
        Ok(())
    }

    /// Replays a **fresh** view's stored frame through the statement's
    /// HAVING/projection — zero extractor forward passes, zero store
    /// block reads, bit-identical to a cold **full pass** of the statement
    /// (a one-segment INSPECT may stop early instead, which is why the
    /// optimizer never replays a view for one). A
    /// stale or invalid view raises [`DniError::ViewStale`] instead of
    /// silently rebuilding: reads never pay extraction, by contract.
    pub fn read_view(&mut self, name: &str) -> Result<Table, DniError> {
        let view = self.bind_view(name)?;
        let plan = view.plan?;
        match view.freshness {
            ViewFreshness::Fresh => {
                let [model] = &plan.models[..] else {
                    return Err(DniError::Query(
                        "materialized views require a single-model statement".into(),
                    ));
                };
                let frame = view_frame(&view.doc);
                let mut out = plan.output_table();
                plan::apply_post(&plan, model, &frame, &mut out)?;
                self.store_stats.view_hits += 1;
                Ok(out)
            }
            ViewFreshness::Stale { new_segments } => Err(DniError::ViewStale {
                view: name.to_string(),
                reason: format!("{new_segments} new segments; REFRESH to fold them in"),
            }),
            ViewFreshness::Invalid => Err(DniError::ViewStale {
                view: name.to_string(),
                reason: "inputs changed; refresh rebuilds the view".to_string(),
            }),
        }
    }

    /// Brings a view up to date with the statement's current inputs.
    /// Unchanged inputs are a no-op; a dataset that only grew streams
    /// **only the appended segments** and folds them into the stored
    /// measure states (bit-identical to a full cold rebuild, by the
    /// full-pass fold-point contract); any other change rebuilds from
    /// scratch.
    pub fn refresh_view(&mut self, name: &str) -> Result<ViewRefresh, DniError> {
        let view = self.bind_view(name)?;
        let plan = view.plan?;
        let (base, done) = match view.freshness {
            ViewFreshness::Fresh => return Ok(ViewRefresh::Noop),
            ViewFreshness::Stale { new_segments } => {
                (Some(&*view.doc), ViewRefresh::Incremental { new_segments })
            }
            ViewFreshness::Invalid => (None, ViewRefresh::Rebuilt),
        };
        self.write_view(name, &view.doc.statement, &plan, base)?;
        Ok(done)
    }

    /// Deletes a view. Returns `true` when one existed.
    pub fn drop_view(&mut self, name: &str) -> Result<bool, DniError> {
        let store = self.view_store()?;
        store
            .views()
            .remove(name)
            .map_err(|e| store_view_err("drop", name, e))
    }

    /// Every view in the catalog with its freshness against the current
    /// catalog and config. A view whose statement no longer binds
    /// (catalog entries replaced or removed) lists as invalid.
    pub fn list_views(&mut self) -> Result<Vec<ViewInfo>, DniError> {
        let store = self.view_store()?;
        let mut out = Vec::new();
        for name in store.views().list() {
            let view = match self.bind_view(&name) {
                Ok(view) => view,
                Err(DniError::UnknownView(_)) => continue,
                Err(e) => return Err(e),
            };
            out.push(ViewInfo {
                statement: display_statement(&view.doc.statement)
                    .unwrap_or_else(|_| view.doc.statement.clone()),
                name,
                freshness: view.freshness,
            });
        }
        Ok(out)
    }
}
