//! The explicit query pipeline: `parse → bind → optimize → execute`.
//!
//! DeepBase treats inspection as a declarative query workload, so the
//! query-facing API follows the classical database shape:
//!
//! 1. [`crate::query::parse`] turns an INSPECT statement into an
//!    [`InspectQuery`] AST;
//! 2. [`bind`] resolves the AST against a [`Catalog`] into an owned,
//!    immutable [`LogicalPlan`] — models (with their extractors and unit
//!    metadata), hypothesis sets, dataset, measures and the precomputed
//!    unit groups, plus the validated output schema. A bound plan borrows
//!    nothing from the catalog, so it can be cached across calls (the
//!    session plan cache in [`crate::session`]);
//! 3. [`optimize_store`] turns one or more logical plans into a
//!    [`PhysicalPlan`]:
//!    work items grouped by `(extractor, dataset)` into shared passes,
//!    each group's union unit columns, hypothesis columns deduplicated by
//!    function identity and shared measure states read off the engine's
//!    own layout of the pass, and the **admission** decision — oversized
//!    groups are split into sequential waves so no single pass exceeds
//!    the configured union-stream width. Score-cache hits and fresh view
//!    replays are placed with their frames and join no group;
//! 4. a [`crate::session::Session`] executes the physical plan — the
//!    engine's one streaming pass per group/wave, each wave admitted
//!    through the session's scheduler, each query's result table
//!    assembled from it — and reports per-query profiles, per-pass
//!    accounting, cache statistics and the plan/admission counters in
//!    [`BatchReport`]. Nothing outside a session can run a plan: the
//!    session decides the store binding, score reuse and admission a
//!    batch runs under and hands it its hypothesis cache. A view build or
//!    refresh is the one-item case: the same optimizer, the same wave
//!    runner.
//!
//! [`PhysicalPlan::explain`] renders the plan tree (units extracted,
//! hypotheses deduplicated, measure states shared, estimated stream
//! width, admission waves) for tests and debugging.
//!
//! [`bind`] and [`optimize_store`] are public so a plan can be built,
//! timed and explained without running it; the streaming engine consumes
//! the [`InspectionRequest`]s a physical plan produces, never raw
//! [`InspectQuery`] structs.

use crate::admission::AdmissionScheduler;
use crate::cache::{CacheRun, CacheStats, HypothesisCache};
use crate::engine::{
    run_pass, ArmedBudget, InspectionConfig, InspectionRequest, PassLayout, Profile, RunBudget,
    SharedOutcome, ViewFold,
};
use crate::error::DniError;
use crate::extract::Extractor;
use crate::measure::Measure;
use crate::model::{Dataset, HypothesisFn, UnitGroup};
use crate::query::{Catalog, ColRef, Cond, InspectQuery, Literal, UnitMeta};
use crate::result::{Completion, ResultFrame};
use deepbase_relational::{ColType, Schema, Table, Value};
// The per-segment store decision is made and executed by the store crate;
// re-exported here because it is a planning artifact.
pub use deepbase_store::ScanPlan;
use deepbase_store::{
    BehaviorStore, MaterializationPolicy, StoreStats, ViewFreshness, ViewHypState,
};
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// Default byte budget of the hypothesis cache a session shares with its
/// forks ([`crate::session::SessionConfig::cache_bytes`]): large enough
/// to hold the hypothesis columns of a typical batch, small enough to
/// stay an implementation detail.
pub(crate) const BATCH_CACHE_BYTES: usize = 64 << 20;

// ---------------------------------------------------------------------
// Predicate helpers (shared by binding and post-processing)
// ---------------------------------------------------------------------

fn alias_relation(query: &InspectQuery, alias: &str) -> Result<String, DniError> {
    query
        .from
        .iter()
        .find(|(_, a)| a == alias)
        .map(|(r, _)| r.clone())
        .ok_or_else(|| DniError::Query(format!("unknown alias {alias:?} (missing FROM entry)")))
}

fn num_matches(op: &str, lhs: f64, rhs: f64) -> bool {
    match op {
        "=" => (lhs - rhs).abs() < 1e-9,
        "!=" | "<>" => (lhs - rhs).abs() >= 1e-9,
        "<" => lhs < rhs,
        "<=" => lhs <= rhs,
        ">" => lhs > rhs,
        ">=" => lhs >= rhs,
        _ => false,
    }
}

fn str_matches(op: &str, lhs: &str, rhs: &str) -> bool {
    match op {
        "=" => lhs == rhs,
        "!=" | "<>" => lhs != rhs,
        _ => false,
    }
}

/// WHERE conjuncts sorted by the catalog relation they constrain.
#[derive(Default)]
struct CondSets<'q> {
    model: Vec<&'q Cond>,
    unit: Vec<&'q Cond>,
    hyp: Vec<&'q Cond>,
    input: Vec<&'q Cond>,
}

fn classify_conds(query: &InspectQuery) -> Result<CondSets<'_>, DniError> {
    let mut sets = CondSets::default();
    for cond in &query.where_conds {
        match alias_relation(query, &cond.col.alias)?.as_str() {
            "models" => sets.model.push(cond),
            "units" => sets.unit.push(cond),
            "hypotheses" => sets.hyp.push(cond),
            "inputs" => sets.input.push(cond),
            other => {
                return Err(DniError::Query(format!(
                    "WHERE may reference models/units/hypotheses/inputs, not {other:?}"
                )))
            }
        }
    }
    Ok(sets)
}

fn select_type(query: &InspectQuery, col: &ColRef) -> Result<ColType, DniError> {
    if col.alias == query.result_alias {
        return Ok(match col.attr.as_str() {
            "uid" => ColType::Int,
            "unit_score" | "group_score" => ColType::Float,
            _ => ColType::Str,
        });
    }
    let relation = alias_relation(query, &col.alias)?;
    Ok(match (relation.as_str(), col.attr.as_str()) {
        ("models", "epoch") | ("units", "uid") | ("units", "layer") => ColType::Int,
        _ => ColType::Str,
    })
}

/// Applies the query's unit WHERE filter to one model's units and
/// partitions the survivors into GROUP BY groups. Empty when no unit
/// matches.
fn unit_groups_for(
    query: &InspectQuery,
    unit_conds: &[&Cond],
    units: &[UnitMeta],
) -> Vec<UnitGroup> {
    let selected: Vec<&UnitMeta> = units
        .iter()
        .filter(|u| {
            unit_conds
                .iter()
                .all(|c| match (c.col.attr.as_str(), &c.value) {
                    ("uid", Literal::Num(n)) => num_matches(&c.op, u.uid as f64, *n),
                    ("layer", Literal::Num(n)) => num_matches(&c.op, u.layer as f64, *n),
                    _ => false,
                })
        })
        .collect();
    let unit_group_attrs: Vec<&ColRef> = query
        .group_by
        .iter()
        .filter(|c| alias_relation(query, &c.alias).as_deref() == Ok("units"))
        .collect();
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for unit in &selected {
        let key = unit_group_attrs
            .iter()
            .map(|c| match c.attr.as_str() {
                "layer" => format!("layer{}", unit.layer),
                other => format!("{other}?"),
            })
            .collect::<Vec<_>>()
            .join("/");
        let key = if key.is_empty() {
            "all".to_string()
        } else {
            key
        };
        groups.entry(key).or_default().push(unit.uid);
    }
    groups
        .into_iter()
        .map(|(id, units)| UnitGroup::new(&id, units))
        .collect()
}

// ---------------------------------------------------------------------
// Logical plans (bind)
// ---------------------------------------------------------------------

/// One catalog model as resolved into a [`LogicalPlan`]: everything the
/// executor needs, owned (Arc-shared with the catalog), so the plan stays
/// valid independently of later catalog borrows.
pub struct BoundModel {
    /// Model identifier (`M.mid`).
    pub mid: String,
    /// Training epoch (`M.epoch`).
    pub epoch: i64,
    /// The model's behavior extractor.
    pub extractor: Arc<dyn Extractor>,
    /// Per-unit metadata, for result projection.
    pub units: Vec<UnitMeta>,
    /// The query's unit groups on this model (WHERE filter + GROUP BY
    /// partitioning), precomputed at bind time. Empty when no unit of the
    /// model survives the filter — the model contributes no work item.
    pub groups: Vec<UnitGroup>,
    /// Lazily computed model content fingerprint (hashing weights can be
    /// expensive; only store-configured sessions need it).
    fingerprint: OnceLock<Option<u64>>,
}

impl BoundModel {
    /// The model's content fingerprint, if the extractor provides one
    /// (`None` opts the model out of persistence). Computed on first use
    /// and cached for the plan's lifetime.
    pub(crate) fn fingerprint(&self) -> Option<u64> {
        *self
            .fingerprint
            .get_or_init(|| self.extractor.fingerprint())
    }
}

/// A bound INSPECT query: the AST resolved against a catalog snapshot.
///
/// Logical plans are immutable and self-contained (catalog entries are
/// `Arc`-shared, never borrowed), which is what makes the session plan
/// cache sound: a cached plan re-executes without re-binding for as long
/// as [`LogicalPlan::is_current`] holds against the session's catalog.
pub struct LogicalPlan {
    /// The parsed statement.
    pub query: InspectQuery,
    /// Matching models in catalog order, with precomputed unit groups.
    pub models: Vec<BoundModel>,
    /// The resolved hypothesis set.
    pub hypotheses: Vec<Arc<dyn HypothesisFn>>,
    /// The resolved dataset.
    pub dataset: Arc<Dataset>,
    /// The resolved measures, in statement order.
    pub measures: Vec<Arc<dyn Measure>>,
    /// Validated output schema (column name, type), in SELECT order.
    schema: Vec<(String, ColType)>,
}

impl LogicalPlan {
    /// Builds the plan's empty output table.
    pub(crate) fn output_table(&self) -> Table {
        Table::new(Schema::new(
            self.schema
                .iter()
                .map(|(n, t)| (n.as_str(), *t))
                .collect::<Vec<_>>(),
        ))
    }

    /// Whether resolving the statement against `catalog` gives back the
    /// very entries this plan bound: the same extractor, `mid`, `epoch`
    /// and units per model, the same hypotheses, dataset and measures
    /// (`Arc` identity). Everything else a plan holds is derived from
    /// those and the statement, so a current plan answers exactly as a
    /// fresh bind would. A statement that no longer resolves is not
    /// current. This is the one rule that decides whether a plan (and
    /// the frames it computed) may be reused.
    pub fn is_current(&self, catalog: &Catalog) -> bool {
        fn same<T: ?Sized>(a: &[Arc<T>], b: &[Arc<T>]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| Arc::ptr_eq(a, b))
        }
        let query = &self.query;
        let Ok(now) = classify_conds(query).and_then(|conds| resolve(query, &conds, catalog))
        else {
            return false;
        };
        now.models.len() == self.models.len()
            && now.models.iter().zip(&self.models).all(|(m, b)| {
                Arc::ptr_eq(&m.extractor, &b.extractor)
                    && (&m.mid, m.epoch, &m.units) == (&b.mid, b.epoch, &b.units)
            })
            && same(&now.hypotheses, &self.hypotheses)
            && Arc::ptr_eq(&now.dataset, &self.dataset)
            && same(&now.measures, &self.measures)
    }
}

/// The catalog entries a statement resolves to: the first half of
/// [`bind`], and all of what [`LogicalPlan::is_current`] re-checks.
struct Resolved<'c> {
    models: Vec<&'c crate::query::CatalogModel>,
    hypotheses: Vec<Arc<dyn HypothesisFn>>,
    dataset: Arc<Dataset>,
    measures: Vec<Arc<dyn Measure>>,
}

/// Resolves models by the WHERE filter, hypothesis sets by name, the
/// dataset (by `D.name`, else the sole registered one) and measures by
/// id.
fn resolve<'c>(
    query: &InspectQuery,
    conds: &CondSets<'_>,
    catalog: &'c Catalog,
) -> Result<Resolved<'c>, DniError> {
    let models: Vec<&crate::query::CatalogModel> = catalog
        .models()
        .iter()
        .filter(|m| {
            conds
                .model
                .iter()
                .all(|c| match (c.col.attr.as_str(), &c.value) {
                    ("mid", Literal::Str(s)) => str_matches(&c.op, &m.mid, s),
                    ("epoch", Literal::Num(n)) => num_matches(&c.op, m.epoch as f64, *n),
                    _ => false,
                })
        })
        .collect();
    if models.is_empty() {
        return Err(DniError::Query("no models match the WHERE clause".into()));
    }

    // Bind hypothesis sets.
    let mut hypotheses: Vec<Arc<dyn HypothesisFn>> = Vec::new();
    let name_cond = conds.hyp.iter().find(|c| c.col.attr == "name");
    match name_cond {
        Some(cond) => {
            let Literal::Str(name) = &cond.value else {
                return Err(DniError::Query("H.name must compare to a string".into()));
            };
            for (set_name, set) in catalog.hypothesis_sets() {
                if str_matches(&cond.op, set_name, name) {
                    hypotheses.extend(set.iter().cloned());
                }
            }
        }
        None => {
            for (_, set) in catalog.hypothesis_sets() {
                hypotheses.extend(set.iter().cloned());
            }
        }
    }
    if hypotheses.is_empty() {
        return Err(DniError::Query(
            "no hypotheses match the WHERE clause".into(),
        ));
    }

    // Bind the dataset (by D.name, else sole registered dataset).
    let dataset: Arc<Dataset> = match conds.input.iter().find(|c| c.col.attr == "name") {
        Some(cond) => {
            let Literal::Str(name) = &cond.value else {
                return Err(DniError::Query("D.name must compare to a string".into()));
            };
            catalog
                .dataset(name)
                .ok_or_else(|| DniError::Query(format!("unknown dataset {name:?}")))?
        }
        None => {
            let mut datasets = catalog.datasets();
            match (datasets.next(), datasets.next()) {
                (None, _) => {
                    return Err(DniError::Query(
                        "no datasets registered; add one with Catalog::add_dataset \
                         before running INSPECT queries"
                            .into(),
                    ))
                }
                (Some((_, d)), None) => Arc::clone(d),
                _ => {
                    return Err(DniError::Query(
                        "multiple datasets registered; add WHERE D.name = '...'".into(),
                    ))
                }
            }
        }
    };

    // Bind measures. On a segmented dataset every measure must be able
    // to combine per-segment states exactly; anything else (the
    // order-dependent SGD probes) is rejected here, at bind time, with
    // the same typed error the engine raises — never a silently wrong
    // cross-segment score.
    let mut measures: Vec<Arc<dyn Measure>> = Vec::new();
    for name in &query.measures {
        let measure = catalog
            .measure(name)
            .ok_or_else(|| DniError::Query(format!("unknown measure {name:?}")))?;
        if dataset.segment_count() > 1 && !measure.supports_segment_merge() {
            return Err(DniError::Query(format!(
                "measure {} cannot run on segmented datasets",
                measure.id()
            )));
        }
        measures.push(measure);
    }

    Ok(Resolved {
        models,
        hypotheses,
        dataset,
        measures,
    })
}

/// Binds a parsed query against the catalog: resolves models,
/// datasets, hypotheses and measures, then validates column references
/// and precomputes per-model unit groups.
pub fn bind(query: &InspectQuery, catalog: &Catalog) -> Result<LogicalPlan, DniError> {
    let conds = classify_conds(query)?;
    let resolved = resolve(query, &conds, catalog)?;

    // Validate the SELECT list into the output schema.
    let mut schema: Vec<(String, ColType)> = Vec::with_capacity(query.select.len());
    for col in &query.select {
        let ty = select_type(query, col)?;
        schema.push((format!("{}_{}", col.alias, col.attr), ty));
    }

    // Precompute unit groups per model.
    let bound_models = resolved
        .models
        .iter()
        .map(|m| BoundModel {
            mid: m.mid.clone(),
            epoch: m.epoch,
            extractor: Arc::clone(&m.extractor),
            units: m.units.clone(),
            groups: unit_groups_for(query, &conds.unit, &m.units),
            fingerprint: OnceLock::new(),
        })
        .collect();

    Ok(LogicalPlan {
        query: query.clone(),
        models: bound_models,
        hypotheses: resolved.hypotheses,
        dataset: resolved.dataset,
        measures: resolved.measures,
        schema,
    })
}

/// Applies HAVING and the SELECT projection to one model's score frame,
/// appending the surviving rows to `out`. Also the view replay path: a
/// stored frame fed through here yields exactly the table a live
/// execution of the statement would have produced.
pub(crate) fn apply_post(
    plan: &LogicalPlan,
    model: &BoundModel,
    frame: &ResultFrame,
    out: &mut Table,
) -> Result<(), DniError> {
    let query = &plan.query;
    let layer_of: BTreeMap<usize, i64> = model.units.iter().map(|u| (u.uid, u.layer)).collect();
    for row in &frame.rows {
        let keep = query.having.iter().all(|c| {
            if c.col.alias != query.result_alias {
                return false;
            }
            let lhs = match c.col.attr.as_str() {
                "unit_score" => row.unit_score as f64,
                "group_score" => row.group_score as f64,
                _ => return false,
            };
            match &c.value {
                Literal::Num(n) => num_matches(&c.op, lhs, *n),
                Literal::Str(_) => false,
            }
        });
        if !keep {
            continue;
        }
        let mut values = Vec::with_capacity(query.select.len());
        for col in &query.select {
            let relation = alias_relation(query, &col.alias).unwrap_or_else(|_| "result".into());
            let is_result = col.alias == query.result_alias;
            let v = if is_result {
                match col.attr.as_str() {
                    "uid" => Value::Int(row.unit as i64),
                    "unit_score" => Value::Float(row.unit_score),
                    "group_score" => Value::Float(row.group_score),
                    "hyp_id" => Value::Str(row.hyp_id.clone()),
                    "score_id" => Value::Str(row.measure_id.clone()),
                    "group_id" => Value::Str(row.group_id.clone()),
                    other => {
                        return Err(DniError::Query(format!(
                            "unknown result attribute {other:?}"
                        )))
                    }
                }
            } else {
                match (relation.as_str(), col.attr.as_str()) {
                    ("models", "mid") => Value::Str(model.mid.clone()),
                    ("models", "epoch") => Value::Int(model.epoch),
                    ("units", "uid") => Value::Int(row.unit as i64),
                    ("units", "layer") => Value::Int(layer_of.get(&row.unit).copied().unwrap_or(0)),
                    ("hypotheses", "h") | ("hypotheses", "name") => Value::Str(row.hyp_id.clone()),
                    (rel, attr) => {
                        return Err(DniError::Query(format!("cannot project {rel}.{attr}")))
                    }
                }
            };
            values.push(v);
        }
        out.push_row(values).map_err(|e| DniError::Query(e.msg))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Physical plans (optimize)
// ---------------------------------------------------------------------

/// Admission-control policy applied by [`optimize_store`].
///
/// The union stream of a shared-extraction group carries one f32 per
/// symbol step for every union unit column and deduplicated hypothesis
/// column; its per-block footprint is `width × block_records × ns × 4`
/// bytes. A bound on the width keeps one misbehaving batch (many wide
/// queries over one model) from holding an unbounded block resident:
/// oversized groups are **split** into member waves that run **queued**
/// (sequentially), each within the bound, instead of OOMing the pass.
///
/// Admission is **store-aware**: a unit column with a complete stored
/// copy is served by a buffer-pool scan, not a model forward pass, so it
/// is charged to the separate `max_scan_width` budget instead of
/// `max_stream_width`. A fully warm over-wide group therefore runs in
/// one wave where the same group cold would split into queued extraction
/// waves. (Partial columns still extract their tail live and stay on the
/// extraction budget.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum *extraction* width (live unit columns + hypothesis
    /// columns) one shared pass may carry. `None` admits everything
    /// unsplit. A single work item whose own width exceeds the bound
    /// cannot be split further and runs alone in its own wave.
    pub max_stream_width: Option<usize>,
    /// Maximum store-scanned unit columns one shared pass may carry
    /// (each keeps the decoded pages it fetched, within one store-wide
    /// reservation of the pool's byte budget — far cheaper than an
    /// extraction stream slot). `None` — the default — admits any number
    /// of scanned columns.
    pub max_scan_width: Option<usize>,
}

impl AdmissionConfig {
    /// Whether either budget is set. Only a bounded budget can make a
    /// wave wait for its permit.
    pub(crate) fn is_bounded(&self) -> bool {
        self.max_stream_width.is_some() || self.max_scan_width.is_some()
    }
}

deepbase_store::counters! {
    /// Plan-pipeline counters: one batch's in [`BatchReport::plan`], a
    /// session's total (the sum of its batches') in `Session::stats`, and
    /// the seven u64s of a BATCH wire frame, in this field order.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PlanStats {
        /// Statements served from the session plan cache (zero bind work).
        pub plan_cache_hits: usize,
        /// Statements that had to be parsed and bound.
        pub plan_cache_misses: usize,
        /// Work items answered from the session score cache (no extraction).
        pub score_cache_hits: usize,
        /// Shared groups split into multiple waves by admission control.
        pub admission_splits: usize,
        /// Waves beyond the first, i.e. passes that had to queue.
        pub admission_queued: usize,
        /// Union unit columns charged to the scan budget instead of the
        /// stream width (complete store hits, summed over groups) — the
        /// store-aware admission distinction made visible.
        pub scan_charged_columns: usize,
        /// Waves executed, one shared pass and admission permit each
        /// ([`BatchReport::groups`]); cached and replayed items run none.
        pub waves: usize,
    }
}

/// One work item: a `(query, model)` pair scheduled into a shared group.
struct PlanItem {
    query: usize,
    model_pos: usize,
}

/// Where a `(query, model)` pair's result frame comes from.
enum Placement {
    /// No unit survived the WHERE filter: nothing to do.
    Skip,
    /// Scheduled into `groups[group].items[item]`.
    Run { group: usize, item: usize },
    /// Served from a session score cache (frame captured at plan time).
    Cached(Arc<ResultFrame>),
    /// Replayed from the stored frame of the fresh materialized view
    /// `name` (decoded at plan time): no pass, no extraction, no store
    /// block read.
    View {
        name: String,
        frame: Arc<ResultFrame>,
    },
}

/// The session's open behavior store, as handed to the optimizer.
#[derive(Clone)]
pub struct StoreBinding {
    /// The open store.
    pub store: Arc<BehaviorStore>,
    /// Materialization policy.
    pub policy: MaterializationPolicy,
    /// Write-back capture budget in bytes.
    pub writeback_limit_bytes: usize,
}

/// Where a group's union unit behaviors come from.
pub enum GroupSource {
    /// Live extraction — no store was configured for the session.
    Extract,
    /// Live extraction although a store is configured: the model's
    /// extractor provides no content fingerprint, so its columns cannot
    /// be keyed durably.
    ExtractUnkeyed,
    /// Store-backed: one [`ScanPlan`] per dataset segment, in canonical
    /// segment order — scan the plan's `hits`, resume its `partials` at
    /// their watermark, extract its `misses`, merge into the union stream
    /// (and write back under a read-write policy). The decision is made
    /// *per segment*, each under its own `(model fp, segment fp)` column
    /// key, so appending records and re-running scans the old segments
    /// warm and extracts only the new ones; an unsegmented dataset is the
    /// one-element list.
    Segments(Vec<ScanPlan>),
}

/// A materialized view matched to a statement at optimize time, as
/// rendered by [`PhysicalPlan::explain`]. A fresh match over a segmented
/// dataset places the stored frame, like a score-cache hit, and the
/// statement joins no group; any other match only annotates the group
/// that still runs.
#[derive(Clone)]
pub struct ViewNote {
    /// View name.
    pub name: String,
    /// Freshness verdict against the statement's current inputs.
    pub freshness: ViewFreshness,
}

/// What the session's view probe hands the optimizer for one query.
pub(crate) struct ViewHit {
    /// View name plus freshness verdict.
    pub note: ViewNote,
    /// The stored result frame, decoded — present only when fresh.
    pub frame: Option<Arc<ResultFrame>>,
}

/// Human-readable freshness tag (`fresh`, `stale(k new segments)`,
/// `invalid`), shared by `explain` and the serving layer.
pub fn freshness_label(freshness: &ViewFreshness) -> String {
    match freshness {
        ViewFreshness::Fresh => "fresh".to_string(),
        ViewFreshness::Stale { new_segments } => format!("stale({new_segments} new segments)"),
        ViewFreshness::Invalid => "invalid".to_string(),
    }
}

impl GroupSource {
    /// The per-segment scan plans of a store-backed group.
    fn scan_plans(&self) -> Option<&[ScanPlan]> {
        match self {
            GroupSource::Segments(plans) => Some(plans),
            _ => None,
        }
    }

    /// Chooses the source of `units` of `model` over `dataset`: one store
    /// probe per segment under the `(model fingerprint, segment
    /// fingerprint)` key — complete columns scan, partial columns scan up
    /// to their watermark, the rest extract live. The one scan-vs-extract
    /// decision; a view pass reaches it through the optimizer too.
    fn choose(
        binding: Option<&StoreBinding>,
        model: &BoundModel,
        dataset: &Dataset,
        units: &[usize],
    ) -> GroupSource {
        let Some(binding) = binding else {
            return GroupSource::Extract;
        };
        let Some(model_fp) = model.fingerprint() else {
            return GroupSource::ExtractUnkeyed;
        };
        let plans = (0..dataset.segment_count())
            .map(|index| {
                binding.store.plan_scan(
                    model_fp,
                    dataset.segment_fingerprint(index),
                    units,
                    binding.policy == MaterializationPolicy::ReadWrite,
                    binding.writeback_limit_bytes,
                )
            })
            .collect();
        GroupSource::Segments(plans)
    }
}

/// One shared pass of a physical plan: the work items over one
/// `(extractor, dataset)` pair, streamed together (in as many admission
/// waves as the budget needs). Its sharing numbers and wave widths are
/// read off the engine's own layout of its members' requests, so they
/// are what the pass builds.
pub struct PlanGroup {
    /// Model id of the first registrant (groups key on extractor
    /// identity, so all members share the extractor).
    pub model_id: String,
    /// Dataset id the group streams.
    pub dataset_id: String,
    dataset: Arc<Dataset>,
    items: Vec<PlanItem>,
    /// Union of all member unit columns (sorted, deduplicated).
    pub union_units: Vec<usize>,
    /// Unit columns requested across members before the union.
    pub requested_unit_columns: usize,
    /// Hypothesis columns after function-identity deduplication.
    pub unique_hypotheses: usize,
    /// Hypothesis columns requested across members before deduplication.
    pub requested_hypotheses: usize,
    /// Measure states after cross-member sharing.
    pub shared_measure_states: usize,
    /// Measure states requested across members before sharing.
    pub requested_measure_states: usize,
    /// Admission outcome: item-index ranges, one per sequential wave.
    pub waves: Vec<std::ops::Range<usize>>,
    /// Extraction width of each wave (live unit + hypothesis columns;
    /// store-scanned columns are charged to `wave_scan_widths` instead).
    pub wave_widths: Vec<usize>,
    /// Store-scanned column count of each wave.
    pub wave_scan_widths: Vec<usize>,
    /// Where the union unit behaviors come from (store scan vs live
    /// extraction), decided at optimize time.
    pub source: GroupSource,
    /// Union unit columns with a complete stored copy in *every* segment,
    /// derived from `source` at optimize time: the set credited off the
    /// extraction budget and charged to the scan budget.
    scan_hits: HashSet<usize>,
    /// The widest single segment's complete-hit count (see `scan_width`).
    scan_width: usize,
    /// The materialized view matched to this group's statement, if any.
    pub view: Option<ViewNote>,
}

impl PlanGroup {
    /// An empty group; `optimize_with` fills in members, the layout's
    /// numbers, the source and the admission waves.
    fn new(model_id: &str, dataset: &Arc<Dataset>) -> PlanGroup {
        PlanGroup {
            model_id: model_id.to_string(),
            dataset_id: dataset.id.clone(),
            dataset: Arc::clone(dataset),
            items: Vec::new(),
            union_units: Vec::new(),
            requested_unit_columns: 0,
            unique_hypotheses: 0,
            requested_hypotheses: 0,
            shared_measure_states: 0,
            requested_measure_states: 0,
            waves: Vec::new(),
            wave_widths: Vec::new(),
            wave_scan_widths: Vec::new(),
            source: GroupSource::Extract,
            scan_hits: HashSet::new(),
            scan_width: 0,
            view: None,
        }
    }

    /// Union-stream width of the unsplit group.
    pub fn stream_width(&self) -> usize {
        self.union_units.len() + self.unique_hypotheses
    }

    /// Union unit columns served by a complete store scan (charged to
    /// the admission scan budget). Segmented groups run one pass per
    /// segment, so the scan budget is charged at the widest single
    /// segment, not the sum.
    pub(crate) fn scan_width(&self) -> usize {
        self.scan_width
    }

    /// Union-stream columns that require live work — unit columns
    /// without a complete stored copy (including partial columns, whose
    /// tails extract live) plus hypothesis columns (always evaluated
    /// live). This is the width `AdmissionConfig::max_stream_width`
    /// bounds. A unit column is credited off the extraction budget only
    /// when *every* segment can scan it (strictly conservative: a column
    /// warm in some segments still extracts live in the others).
    pub(crate) fn extract_width(&self) -> usize {
        self.stream_width() - self.scan_hits.len()
    }

    /// Estimated bytes one streamed block of this group holds.
    pub(crate) fn block_bytes(&self, block_records: usize) -> usize {
        self.stream_width() * block_records * self.dataset.ns * std::mem::size_of::<f32>()
    }

    /// Indices (into the batch) of the queries with an item in the group.
    pub(crate) fn member_queries(&self) -> Vec<usize> {
        self.items.iter().map(|i| i.query).collect()
    }
}

/// An executable physical plan over one or more bound queries.
pub struct PhysicalPlan {
    plans: Vec<Arc<LogicalPlan>>,
    /// Shared-extraction groups in first-appearance order.
    pub groups: Vec<PlanGroup>,
    placements: Vec<Vec<Placement>>,
    /// Score-cache and admission counters decided at optimize time.
    pub stats: PlanStats,
    block_records: usize,
    admission: AdmissionConfig,
    /// The run budget captured at optimize time, rendered by `explain`
    /// (execution arms the budget of the config it is given, which is
    /// normally the same one).
    budget: RunBudget,
}

/// Thin-pointer identity of an `Arc<dyn T>` (data pointer, metadata
/// discarded) — the same identity the engine's shared pass requires of its
/// members' extractors and datasets.
fn thin<T: ?Sized>(arc: &Arc<T>) -> *const u8 {
    Arc::as_ptr(arc) as *const u8
}

/// The engine requests of `items`, one per work item in item order: what
/// a wave streams, and what the optimizer lays out to count a group's
/// sharing and admission widths.
fn requests<'p>(plans: &'p [Arc<LogicalPlan>], items: &[PlanItem]) -> Vec<InspectionRequest<'p>> {
    items
        .iter()
        .map(|item| {
            let plan = &plans[item.query];
            let model = &plan.models[item.model_pos];
            InspectionRequest {
                model_id: model.mid.clone(),
                extractor: model.extractor.as_ref(),
                groups: model.groups.clone(),
                dataset: &plan.dataset,
                hypotheses: plan.hypotheses.iter().map(|h| h.as_ref()).collect(),
                measures: plan.measures.iter().map(|m| m.as_ref()).collect(),
            }
        })
        .collect()
}

/// Groups the bound queries' work items by `(extractor, dataset)` into
/// shared passes, reads each group's sharing and stream width off the
/// engine's layout of its members, and applies admission control. With a
/// behavior-store binding each group's source is chosen by probing the
/// store for the group's union unit columns, segment by segment, under
/// the `(model fingerprint, segment fingerprint)` key — full hits scan
/// everything, partial hits scan the stored columns and extract only the
/// missing units, models without a fingerprint extract live; without one
/// every group extracts live.
pub fn optimize_store(
    plans: &[Arc<LogicalPlan>],
    config: &InspectionConfig,
    admission: AdmissionConfig,
    binding: Option<&StoreBinding>,
) -> PhysicalPlan {
    optimize_with(
        plans,
        config,
        admission,
        binding,
        &mut |_, _| None,
        &mut |_| None,
    )
}

/// [`optimize_store`] with a score-cache lookup and a materialized-view
/// probe. Items whose frame the session already holds, and statements
/// over a segmented dataset that match a **fresh** view, are placed with
/// that frame and join no group: no pass, no extraction, no store scan.
/// A stale or invalid match only annotates the group that runs. A view
/// build or refresh plans its one statement here with neither.
pub(crate) fn optimize_with(
    plans: &[Arc<LogicalPlan>],
    config: &InspectionConfig,
    admission: AdmissionConfig,
    binding: Option<&StoreBinding>,
    cached_frame: &mut dyn FnMut(usize, usize) -> Option<Arc<ResultFrame>>,
    view_probe: &mut dyn FnMut(usize) -> Option<ViewHit>,
) -> PhysicalPlan {
    let mut stats = PlanStats::default();
    let mut groups: Vec<PlanGroup> = Vec::new();
    let mut group_of: Vec<(*const u8, *const u8)> = Vec::new();
    let mut placements: Vec<Vec<Placement>> = Vec::with_capacity(plans.len());

    for (qi, plan) in plans.iter().enumerate() {
        let mut places = Vec::with_capacity(plan.models.len());
        // Views are single-model by construction, so a probe hit against
        // a multi-model statement cannot exist and is never asked for.
        let view = if plan.models.len() == 1 {
            view_probe(qi)
        } else {
            None
        };
        for (pos, model) in plan.models.iter().enumerate() {
            if model.groups.is_empty() {
                places.push(Placement::Skip);
                continue;
            }
            if let Some(frame) = cached_frame(qi, pos) {
                stats.score_cache_hits += 1;
                places.push(Placement::Cached(frame));
                continue;
            }
            if let Some(ViewHit {
                note,
                frame: Some(frame),
            }) = &view
            {
                // Replay only where a cold INSPECT would also run the
                // segmented full pass: on a single-segment dataset the
                // live path may stop early, and the contract is
                // bit-identity between replay and cold execution.
                if note.freshness == ViewFreshness::Fresh && plan.dataset.segment_count() > 1 {
                    places.push(Placement::View {
                        name: note.name.clone(),
                        frame: Arc::clone(frame),
                    });
                    continue;
                }
            }
            let key = (thin(&model.extractor), thin(&plan.dataset));
            let gidx = group_of.iter().position(|&k| k == key).unwrap_or_else(|| {
                groups.push(PlanGroup::new(&model.mid, &plan.dataset));
                group_of.push(key);
                groups.len() - 1
            });
            let group = &mut groups[gidx];
            if let Some(hit) = &view {
                // A view that cannot replay annotates the group that runs
                // in its stead, so `explain` shows why no replay fired.
                group.view.get_or_insert_with(|| hit.note.clone());
            }
            places.push(Placement::Run {
                group: gidx,
                item: group.items.len(),
            });
            group.items.push(PlanItem {
                query: qi,
                model_pos: pos,
            });
        }
        placements.push(places);
    }

    for group in groups.iter_mut() {
        // The sharing numbers are the pass's own: the layout it will
        // build over these members.
        let reqs = requests(plans, &group.items);
        let layout = PassLayout::build(&reqs, config, None);
        group.union_units = layout.union_units().to_vec();
        group.unique_hypotheses = layout.hypothesis_columns();
        group.shared_measure_states = layout.measure_states();
        group.requested_unit_columns = (reqs.iter().flat_map(|r| &r.groups))
            .map(|g| g.units.len())
            .sum();
        group.requested_hypotheses = reqs.iter().map(|r| r.hypotheses.len()).sum();
        group.requested_measure_states = layout.member_entries();

        // Source choice: probe the store for the union columns, segment
        // by segment. Groups key on extractor identity, so any member
        // yields the model fingerprint.
        let first = &group.items[0];
        let plan = &plans[first.query];
        let model = &plan.models[first.model_pos];
        group.source = GroupSource::choose(binding, model, &plan.dataset, &group.union_units);
        if let Some(scans) = group.source.scan_plans() {
            group.scan_width = scans.iter().map(|p| p.hits.len()).max().unwrap_or(0);
            group.scan_hits = (group.union_units.iter().copied())
                .filter(|u| scans.iter().all(|p| p.hits.binary_search(u).is_ok()))
                .collect();
        }

        // Admission: store-scanned columns are charged to the scan
        // budget, everything live to the stream width. Oversized groups
        // split into in-order waves that respect both bounds; a lone
        // item wider than a bound gets its own wave.
        stats.scan_charged_columns += group.scan_hits.len();
        let fits = |extract: usize, scan: usize| {
            admission.max_stream_width.is_none_or(|b| extract <= b)
                && admission.max_scan_width.is_none_or(|b| scan <= b)
        };
        if fits(group.extract_width(), group.scan_width()) {
            group.waves.push(0..group.items.len());
            group.wave_widths.push(group.extract_width());
            group.wave_scan_widths.push(group.scan_width());
            continue;
        }
        // `(extraction width, scan width)` of a candidate wave, off the
        // layout of its items: distinct unit columns split by whether a
        // complete stored copy serves them, plus its deduplicated
        // hypothesis columns (always live).
        let widths = |items: &[PlanItem]| {
            let layout = PassLayout::build(&requests(plans, items), config, None);
            let units = layout.union_units();
            let scanned = units.iter().filter(|u| group.scan_hits.contains(u)).count();
            (units.len() - scanned + layout.hypothesis_columns(), scanned)
        };
        let mut start = 0;
        while start < group.items.len() {
            let mut end = start + 1;
            while end < group.items.len() && {
                let (e, s) = widths(&group.items[start..=end]);
                fits(e, s)
            } {
                end += 1;
            }
            let (e, s) = widths(&group.items[start..end]);
            group.wave_widths.push(e);
            group.wave_scan_widths.push(s);
            group.waves.push(start..end);
            start = end;
        }
        if group.waves.len() > 1 {
            stats.admission_splits += 1;
            stats.admission_queued += group.waves.len() - 1;
        }
    }

    PhysicalPlan {
        plans: plans.to_vec(),
        groups,
        placements,
        stats,
        block_records: config.block_records.max(1),
        admission,
        budget: config.budget.clone(),
    }
}

// ---------------------------------------------------------------------
// Execution (the batch report and output types)
// ---------------------------------------------------------------------

/// Accounting for one shared-extraction pass (one wave of one group).
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// Model the group inspected.
    pub model_id: String,
    /// Dataset the group streamed.
    pub dataset_id: String,
    /// Indices (into the batch) of the queries that joined this pass.
    pub queries: Vec<usize>,
    /// Extraction passes over the dataset: 1 for a one-stream pass, one
    /// per streamed segment on a full pass.
    pub extraction_passes: usize,
    /// The shared pass itself: union-stream records/blocks and timings.
    pub pass: Profile,
    /// Behavior-store accounting for the pass (all zeros without a store
    /// source).
    pub store: StoreStats,
    /// How the pass ended: converged, or interrupted by the run budget,
    /// with rows read and the pairs still converging.
    pub completion: Completion,
}

/// Per-query, per-pass and plan-pipeline accounting for one batch.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Per-query profiles (rows read, phase timings), summed over the
    /// passes each query participated in. Zero for queries answered
    /// entirely from the session score cache.
    pub per_query: Vec<Profile>,
    /// One entry per executed shared pass (one per group wave).
    pub groups: Vec<GroupReport>,
    /// The batch's own lookups in the session's hypothesis cache.
    pub cache: CacheStats,
    /// Plan-cache (this call's lookups), score-cache, admission and wave
    /// counters.
    pub plan: PlanStats,
    /// Behavior-store accounting summed over the batch's passes: blocks
    /// read/written, pool hits/evictions, forward passes avoided, and
    /// any corruption errors survived by falling back to live extraction.
    pub store: StoreStats,
    /// Batch-wide completion: the most severe status across the batch's
    /// passes, total rows read, and every pair still converging. A
    /// deadline that expired mid-batch tags the whole report
    /// `DeadlineExceeded` while the tables carry the partial answers.
    pub completion: Completion,
    /// Per-query failure slots, aligned with `tables`. `Some` only for
    /// queries whose extraction group died of a contained worker panic
    /// ([`DniError::Internal`]): those queries get empty tables while
    /// sibling groups' queries complete normally. Errors that indict the
    /// whole batch (bad config, bad records, store corruption) still fail
    /// `execute` itself.
    pub query_errors: Vec<Option<DniError>>,
}

/// Result of a batch execution: one table per input query plus the
/// sharing report.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// Per-query result tables, in input order — bit-identical to what N
    /// sequential single-statement executions would produce.
    pub tables: Vec<Table>,
    /// Accounting that quantifies the sharing.
    pub report: BatchReport,
}

/// Frames computed for `(query, model_pos)` work items during one
/// execution, handed back so the session can feed its score cache.
pub(crate) type ComputedFrames = Vec<(usize, usize, Arc<ResultFrame>)>;

/// Renders a contained panic payload for [`DniError::Internal`]:
/// `panic!` string payloads (the common case) are carried verbatim.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl PhysicalPlan {
    /// `(query, view name)` of every statement replayed from a fresh view.
    fn view_replays(&self) -> impl Iterator<Item = (usize, &str)> {
        self.placements.iter().enumerate().flat_map(|(qi, places)| {
            places.iter().filter_map(move |p| match p {
                Placement::View { name, .. } => Some((qi, name.as_str())),
                _ => None,
            })
        })
    }

    /// Runs wave `wi` of group `g` — the one wave runner of batches and
    /// view passes: admits the wave through `scheduler` at its `(extract,
    /// scan)` widths, holds the permit for exactly this pass, pins every
    /// dataset and hypothesis the wave names in `cache`, builds one
    /// request per member item and streams them through [`run_pass`], with
    /// `fold` on a view pass and none on a batch wave. A hypothesis or
    /// extractor that panics mid-stream is contained here and surfaces as
    /// [`DniError::Internal`].
    #[allow(clippy::too_many_arguments)] // one wave's whole context
    fn run_wave(
        &self,
        g: &PlanGroup,
        wi: usize,
        config: &InspectionConfig,
        scheduler: &AdmissionScheduler,
        cache: &CacheRun<'_>,
        armed: Option<&ArmedBudget>,
        fold: Option<ViewFold<'_>>,
    ) -> Result<(SharedOutcome, Vec<ViewHypState>), DniError> {
        let _permit = scheduler.acquire(g.wave_widths[wi], g.wave_scan_widths[wi]);
        let items = &g.items[g.waves[wi].clone()];
        for item in items {
            let plan = &self.plans[item.query];
            cache.pin(&plan.dataset);
            plan.hypotheses.iter().for_each(|h| cache.pin(h));
        }
        let requests = requests(&self.plans, items);
        // The scan plans are shared by the group's waves: every wave
        // streams the same (model, dataset), so hits apply to each wave's
        // (sub-)union.
        let sources = g.source.scan_plans();
        catch_unwind(AssertUnwindSafe(|| {
            run_pass(&requests, config, sources, armed, fold, Some(cache))
        }))
        .unwrap_or_else(|payload| Err(DniError::Internal(panic_message(payload))))
    }

    /// Executes a one-statement view plan (built by `optimize_with` with
    /// no score-cache lookup and no view probe; views are single-model,
    /// so it has at most one group of one item) as its single wave, with
    /// the `fold` point it builds or extends: the full pass a materialized
    /// view is built from or refreshed by, looking hypothesis behaviors up
    /// in `cache`. A statement whose model selects no unit has no wave and
    /// yields an empty frame.
    pub(crate) fn execute_view(
        &self,
        config: &InspectionConfig,
        scheduler: &AdmissionScheduler,
        cache: &HypothesisCache,
        fold: ViewFold<'_>,
    ) -> Result<(SharedOutcome, Vec<ViewHypState>), DniError> {
        let Some(group) = self.groups.first() else {
            let empty = SharedOutcome {
                results: vec![Default::default()],
                ..SharedOutcome::default()
            };
            return Ok((empty, Vec::new()));
        };
        let armed = config.budget.arm();
        let cache = CacheRun::new(cache);
        let fold = Some(fold);
        self.run_wave(group, 0, config, scheduler, &cache, armed.as_ref(), fold)
    }

    /// Executes the plan under `config` with every wave admitted through
    /// `scheduler` and every pass looking hypothesis behaviors up in
    /// `cache`; the report counts this batch's own lookups.
    /// `collect_frames` additionally returns the frame computed for every
    /// executed work item.
    pub(crate) fn execute(
        &self,
        config: &InspectionConfig,
        scheduler: &AdmissionScheduler,
        cache: &HypothesisCache,
        collect_frames: bool,
    ) -> Result<(BatchOutput, ComputedFrames), DniError> {
        let cache = CacheRun::new(cache);
        // Arm the run budget once for the whole batch: every group and
        // wave shares one absolute expiry, so a deadline bounds the batch
        // end to end rather than restarting per pass.
        let armed = config.budget.arm();

        // Waves of one group run sequentially (that is the admission
        // queue), each re-acquiring its permit. Independent groups fan
        // out at the device's width, bounded or not: a group thread
        // waiting for a permit runs nothing else, so it can never be one
        // the permit holder's pass is waiting on.
        let outcomes = deepbase_runtime::fan_out(config.device.threads(), &self.groups, |g| {
            (0..g.waves.len())
                .map(|wi| {
                    self.run_wave(g, wi, config, scheduler, &cache, armed.as_ref(), None)
                        .map(|(outcome, _)| outcome)
                })
                .collect::<Result<Vec<SharedOutcome>, DniError>>()
        });
        // Contained panics (`DniError::Internal`) fail only the dead
        // group's queries; every other error indicts the batch as a whole
        // (bad inputs, store corruption) and keeps failing it here.
        let mut group_outcomes: Vec<Vec<SharedOutcome>> = Vec::with_capacity(outcomes.len());
        let mut group_errors: Vec<Option<DniError>> = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome {
                Ok(waves) => {
                    group_outcomes.push(waves);
                    group_errors.push(None);
                }
                Err(e @ DniError::Internal(_)) => {
                    group_outcomes.push(Vec::new());
                    group_errors.push(Some(e));
                }
                Err(e) => return Err(e),
            }
        }

        // Flatten wave outcomes into per-item results (waves partition the
        // item list in order, so concatenation restores item order), each
        // paired with its wave's completion.
        let item_results: Vec<Vec<(&(ResultFrame, Profile), &Completion)>> = group_outcomes
            .iter()
            .map(|waves| {
                waves
                    .iter()
                    .flat_map(|o| o.results.iter().map(move |r| (r, &o.completion)))
                    .collect()
            })
            .collect();

        // Assemble each query's table from its placements, models in
        // catalog order, its own HAVING/projection applied.
        let mut tables = Vec::with_capacity(self.plans.len());
        let mut per_query = vec![Profile::default(); self.plans.len()];
        let mut query_errors: Vec<Option<DniError>> = vec![None; self.plans.len()];
        let mut computed: ComputedFrames = Vec::new();
        for (qi, plan) in self.plans.iter().enumerate() {
            let mut out = plan.output_table();
            for (pos, model) in plan.models.iter().enumerate() {
                match &self.placements[qi][pos] {
                    Placement::Skip => {}
                    Placement::Cached(frame) | Placement::View { frame, .. } => {
                        apply_post(plan, model, frame, &mut out)?
                    }
                    Placement::Run { group, item } => {
                        if let Some(err) = &group_errors[*group] {
                            // The group died of a contained panic: this
                            // query's table stays empty and the error
                            // rides in `query_errors`.
                            query_errors[qi] = Some(err.clone());
                            continue;
                        }
                        let ((frame, profile), completion) = item_results[*group][*item];
                        per_query[qi].accumulate(profile);
                        apply_post(plan, model, frame, &mut out)?;
                        // Only converged frames may seed the session
                        // score cache: a budget-interrupted frame is a
                        // valid partial answer for *this* run, but caching
                        // it would leak approximation into future
                        // unbudgeted runs.
                        if collect_frames && completion.is_complete() {
                            computed.push((qi, pos, Arc::new(frame.clone())));
                        }
                    }
                }
            }
            tables.push(out);
        }

        let mut report = BatchReport {
            per_query,
            groups: Vec::new(),
            cache: cache.stats(),
            plan: self.stats,
            store: StoreStats {
                view_hits: self.view_replays().count(),
                ..StoreStats::default()
            },
            completion: Completion::default(),
            query_errors,
        };
        for (group, waves) in self.groups.iter().zip(&group_outcomes) {
            for (wave, outcome) in group.waves.iter().zip(waves) {
                report.store.accumulate(&outcome.store);
                report.completion.merge(&outcome.completion);
                report.groups.push(GroupReport {
                    model_id: group.model_id.clone(),
                    dataset_id: group.dataset_id.clone(),
                    queries: group.items[wave.clone()].iter().map(|i| i.query).collect(),
                    extraction_passes: outcome.extraction_passes,
                    pass: outcome.pass.clone(),
                    store: outcome.store.clone(),
                    completion: outcome.completion.clone(),
                });
            }
        }
        report.plan.waves = report.groups.len();
        Ok((BatchOutput { tables, report }, computed))
    }

    /// Renders the plan tree: per group, the unit-column union, the
    /// hypothesis and measure-state deduplication, the estimated stream
    /// width/footprint, and the admission decision. Deterministic (no
    /// timings, no addresses), so it is snapshot-testable.
    pub(crate) fn explain(&self) -> String {
        let mut out = String::new();
        let cached = self.stats.score_cache_hits;
        out.push_str(&format!(
            "PhysicalPlan: {} quer{}, {} shared group{}, block_records={}\n",
            self.plans.len(),
            if self.plans.len() == 1 { "y" } else { "ies" },
            self.groups.len(),
            if self.groups.len() == 1 { "" } else { "s" },
            self.block_records,
        ));
        if !self.budget.is_unlimited() {
            // Only rendered for a bounded run, so unbudgeted plan
            // snapshots are unchanged. The deadline is the configured
            // relative duration (deterministic), never an absolute time.
            let mut parts: Vec<String> = Vec::new();
            if let Some(d) = self.budget.deadline {
                parts.push(format!("deadline={d:?}"));
            }
            if self.budget.cancel.is_some() {
                parts.push("cancellable".to_string());
            }
            if let Some(n) = self.budget.max_records {
                parts.push(format!("max_records={n}"));
            }
            if let Some(n) = self.budget.max_blocks {
                parts.push(format!("max_blocks={n}"));
            }
            out.push_str(&format!("├─ budget: {}\n", parts.join(", ")));
        }
        if cached > 0 {
            out.push_str(&format!(
                "├─ score cache: {cached} work item{} answered without execution\n",
                if cached == 1 { "" } else { "s" }
            ));
        }
        let replays: Vec<(usize, &str)> = self.view_replays().collect();
        for (i, (qi, name)) in replays.iter().enumerate() {
            let last = i + 1 == replays.len() && self.groups.is_empty();
            out.push_str(&format!(
                "{} query[{qi}] view: {name}, fresh (replaying the stored frame: \
                 zero extraction, zero store scans)\n",
                if last { "└─" } else { "├─" }
            ));
        }
        for (gi, g) in self.groups.iter().enumerate() {
            let last = gi == self.groups.len() - 1;
            let (head, stem) = if last {
                ("└─", "   ")
            } else {
                ("├─", "│  ")
            };
            let members: Vec<String> = g.member_queries().iter().map(|q| q.to_string()).collect();
            out.push_str(&format!(
                "{head} group[{gi}] model='{}' dataset='{}' members=[{}]\n",
                g.model_id,
                g.dataset_id,
                members.join(", ")
            ));
            out.push_str(&format!(
                "{stem}├─ unit columns: {} union ({} requested)\n",
                g.union_units.len(),
                g.requested_unit_columns
            ));
            out.push_str(&format!(
                "{stem}├─ hypothesis columns: {} deduped ({} requested)\n",
                g.unique_hypotheses, g.requested_hypotheses
            ));
            out.push_str(&format!(
                "{stem}├─ measure states: {} shared ({} requested)\n",
                g.shared_measure_states, g.requested_measure_states
            ));
            match &g.source {
                GroupSource::Extract => {} // no store configured: legacy tree
                GroupSource::ExtractUnkeyed => out.push_str(&format!(
                    "{stem}├─ source: live extract (model has no content fingerprint)\n"
                )),
                GroupSource::Segments(scans) => explain_store_source(&mut out, stem, g, scans),
            }
            if let Some(note) = &g.view {
                out.push_str(&format!(
                    "{stem}├─ view: {}, {}\n",
                    note.name,
                    freshness_label(&note.freshness)
                ));
            }
            out.push_str(&format!(
                "{stem}├─ stream width: {} columns, {} bytes/block (ns={})\n",
                g.stream_width(),
                g.block_bytes(self.block_records),
                g.dataset.ns
            ));
            let (extract_w, scan_w) = (g.extract_width(), g.scan_width());
            let unbounded = !self.admission.is_bounded();
            match (g.waves.len(), self.admission.max_stream_width) {
                (_, _) if unbounded => {
                    out.push_str(&format!("{stem}└─ admission: 1 wave (unbounded)\n"))
                }
                (1, Some(bound)) if scan_w == 0 && extract_w <= bound => out.push_str(&format!(
                    "{stem}└─ admission: 1 wave (width {extract_w} <= bound {bound})\n",
                )),
                (1, Some(bound)) if scan_w == 0 => out.push_str(&format!(
                    // A lone work item cannot be split further, so it
                    // runs alone even over the bound.
                    "{stem}└─ admission: 1 wave (lone item, width {extract_w} > bound {bound})\n",
                )),
                (1, bound) => {
                    let bound = match bound {
                        Some(b) if extract_w <= b => format!(" <= bound {b}"),
                        Some(b) => format!(" (lone item over bound {b})"),
                        None => String::new(),
                    };
                    out.push_str(&format!(
                        "{stem}└─ admission: 1 wave (extract width {extract_w}{bound}; \
                         {scan_w} columns on the scan budget)\n",
                    ));
                }
                (n, Some(bound)) if scan_w == 0 => {
                    let widths: Vec<String> = g.wave_widths.iter().map(|w| w.to_string()).collect();
                    out.push_str(&format!(
                        "{stem}└─ admission: split into {n} queued waves \
                         (width {extract_w} > bound {bound}; wave widths [{}])\n",
                        widths.join(", ")
                    ));
                }
                (n, bound) => {
                    let stream_bound = match bound {
                        Some(b) => format!(" vs bound {b}"),
                        None => String::new(),
                    };
                    let scan_bound = match self.admission.max_scan_width {
                        Some(b) => format!(" vs scan budget {b}"),
                        None => String::new(),
                    };
                    let widths: Vec<String> = g.wave_widths.iter().map(|w| w.to_string()).collect();
                    out.push_str(&format!(
                        "{stem}└─ admission: split into {n} queued waves \
                         (extract width {extract_w}{stream_bound}, \
                         scan width {scan_w}{scan_bound}; wave widths [{}])\n",
                        widths.join(", ")
                    ));
                }
            }
        }
        out
    }
}

/// Renders a store-backed group's source for [`PhysicalPlan::explain`]:
/// the source line counts union unit columns across segments — *stored*
/// has a complete copy in every segment, *extracted live* is missing from
/// at least one, *partial* is the rest — so one segment reads as its own
/// plan's hit/partial/miss split; the segments line classifies each
/// segment (warm: every union column complete, cold: none); the pushdown
/// estimate sums over segments.
fn explain_store_source(out: &mut String, stem: &str, g: &PlanGroup, scans: &[ScanPlan]) {
    let total = g.union_units.len();
    let stored = g.scan_hits.len();
    let live = (g.union_units.iter())
        .filter(|u| scans.iter().any(|p| p.misses.binary_search(u).is_ok()))
        .count();
    let partial = match total - stored - live {
        0 => String::new(),
        n => format!("{n} partial, "),
    };
    let mode = if scans.iter().any(|p| p.write) {
        "read-write"
    } else {
        "read-only"
    };
    out.push_str(&format!(
        "{stem}├─ source: store scan ({stored}/{total} unit columns stored, \
         {partial}{live} extracted live; {mode})\n"
    ));
    let warm = scans
        .iter()
        .filter(|p| total > 0 && p.hits.len() == total)
        .count();
    let cold = scans.iter().filter(|p| p.hits.is_empty()).count();
    out.push_str(&format!(
        "{stem}├─ segments: {} sealed, {warm} warm, {} partial, {cold} cold\n",
        scans.len(),
        scans.len() - warm - cold,
    ));
    let (pruned, blocks) = scans.iter().fold((0, 0), |(p, t), s| {
        (p + s.pruned_estimate.0, t + s.pruned_estimate.1)
    });
    if blocks > 0 {
        out.push_str(&format!(
            "{stem}├─ pruned: {pruned}/{blocks} blocks (zone-map pushdown)\n"
        ));
    }
}
