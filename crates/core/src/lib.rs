//! # deepbase (deepbase-core)
//!
//! A Rust implementation of **DeepBase: Deep Inspection of Neural
//! Networks** (Sellam et al., SIGMOD 2019): a declarative system that
//! measures the statistical affinity between hidden-unit behaviors of
//! trained neural networks and user-provided hypothesis functions.
//!
//! Inspection is a *query* workload, and the public API follows the
//! classical database shape: register models, hypothesis sets and
//! datasets in a [`query::Catalog`], open a [`session::Session`] over it,
//! and run INSPECT statements through the explicit pipeline
//! `parse → bind → optimize → execute`. Prepared statements cache their
//! bound plans across batches, converged scores are reused, and
//! admission control keeps oversized batches from exceeding the
//! configured stream width:
//!
//! ```no_run
//! use deepbase::prelude::*;
//! # use std::sync::Arc;
//! # fn main() -> Result<(), deepbase::DniError> {
//! let mut catalog = Catalog::new();
//! # catalog.add_model(
//! #     "sqlparser",
//! #     0,
//! #     Arc::new(PrecomputedExtractor::new(deepbase_tensor::Matrix::zeros(0, 8), 4)),
//! # );
//! # catalog.add_hypotheses(
//! #     "keywords",
//! #     vec![Arc::new(FnHypothesis::keyword("SELECT"))],
//! # );
//! # catalog.add_dataset("seq", Arc::new(Dataset::new("seq", 4, vec![])?));
//! // ... catalog.add_model / add_hypotheses / add_dataset ...
//! let mut session = Session::new(catalog);
//! let sql = "SELECT S.uid, S.unit_score \
//!            INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
//!            FROM models M, units U, hypotheses H, inputs D \
//!            HAVING S.unit_score > 0.8";
//! println!("{}", session.explain(sql)?);      // the physical plan tree
//! let prepared = session.prepare(sql)?;       // parse + bind, cached
//! let table = session.execute(&prepared)?;    // shared streaming pass
//! let again = session.execute(&prepared)?;    // zero bind work, scores reused
//! assert_eq!(table, again);
//! println!("{}", table.render(20));
//! # Ok(()) }
//! ```
//!
//! A statement runs through a [`session::Session`] or not at all: there
//! is no second executor. The reference answer the parity tests compare
//! a featured session against is a *bare* session — no store,
//! [`session::SessionConfig::reuse_scores`] off,
//! [`session::SessionConfig::cache_bytes`] zero — over a clone of the
//! same catalog. Below the statement level, [`engine::inspect`] hands
//! one [`engine::InspectionRequest`] straight to the engine's one
//! streaming pass (no plan, store or caches), and [`engine::inspect_as`]
//! runs one request under any of the paper's baseline designs: the
//! reference the figures and parity tests call, not something a
//! statement, session or config can select.
//!
//! ## Persistence
//!
//! Extraction is the dominant cost of inspection, and it is pure
//! recomputation: the same model over the same dataset always produces
//! the same behaviors. Configure [`session::SessionConfig::store`] with a
//! [`prelude::StoreConfig`] and the session materializes extracted
//! unit-behavior columns into an on-disk columnar **behavior store**
//! (`deepbase-store`): a fresh process that re-inspects the same
//! `(model, dataset)` scans stored columns through a byte-budgeted buffer
//! pool instead of running the model — zero extractor forward passes,
//! bit-identical scores. Partially covered queries scan the stored
//! columns and extract only the missing units, merging both into one
//! union stream; under `MaterializationPolicy::ReadWrite` the missing
//! columns are persisted at the end of a fully streamed pass.
//!
//! **Stream-ordered columns.** A pass writes each column it extracts in
//! the order it streamed the segment, with a checksummed section naming
//! the record of every stored row (`crates/store/src/format.rs`). Every
//! column fetch reads a block's stored rows as runs and writes the
//! columns into its block eight at a time through one tile gather. A
//! later pass with the same seed reads each of its blocks as one run of
//! every stored column and takes each column's pages once; a pass in
//! another order, and every `BehaviorStore::scan_into`, finds its runs
//! through the column's inverse row map instead, with the same answers.
//!
//! **Partial columns.** An early-stopped (converged) pass no longer
//! throws its extraction work away: the fully streamed prefix is
//! persisted as a *partial column* — the stream's first records, with a
//! completed-record **watermark** (`crates/store/src/format.rs`). The watermark in the header,
//! not the file name, tells a partial column from a complete one: a key
//! has one column file either way. The optimizer's per-segment
//! [`ScanPlan`](deepbase_store::ScanPlan) lists partials beside complete hits, and the
//! store's `ColumnPass` scans each streamed block from the stored prefix
//! until it runs past the watermark, asking the engine to extract live
//! exactly from there — a warm re-run of a previously
//! early-stopped batch does strictly fewer forward passes and stays
//! bit-identical. A fully streamed pass completes the column by
//! rewriting that one file.
//!
//! **Store-aware admission.** [`plan::AdmissionConfig`] charges
//! store-hit unit columns to a separate scan budget
//! (`max_scan_width`, default unbounded) instead of
//! `max_stream_width`, because a scanned column holds decoded pages —
//! within one store-wide reservation of the pool's byte budget — not an
//! extraction stream slot: a fully warm over-wide group runs in
//! one wave where the same group cold splits into queued extraction
//! waves. [`plan::PlanStats::scan_charged_columns`] and `explain()`
//! surface the distinction.
//!
//! **Pushdown, compression & disk budget.** Column files (format v4)
//! carry a NaN-safe **zone map**: per-block min/max, a non-finite flag,
//! and a codec tag — blocks are stored `Raw`, `Constant` (a single
//! 4-byte bit pattern), or `Dict` (bit-packed small-alphabet indices),
//! whichever is smallest, each checksummed over its encoded bytes. The
//! optimizer pushes a block-prune predicate into every segment's scan
//! plan: a block the zone map proves constant-and-finite is served
//! straight from the zone entry — no read, no checksum, bit-identical
//! values — and `explain` shows the plan-time estimate, summed over
//! segments, as `pruned: k/n blocks (zone-map pushdown)`. Blocks containing NaN or ±Inf are flagged
//! and never pruned; files of an older format version read as corrupt and
//! re-materialize. [`prelude::StoreConfig::disk_budget_bytes`] bounds the store
//! on disk: compaction evicts column files coldest-first (by a
//! persisted access stamp kept outside every checksum, so in-place
//! stamp bumps cannot corrupt a file) until under budget; a concurrent
//! scan keeps the pages it holds, and a later lookup or load of an
//! evicted column fails typed ([`StoreError::Evicted`](deepbase_store::StoreError::Evicted)) and
//! falls back to live extraction — re-materializing, never
//! quarantining. [`prelude::StoreStats`] reports `blocks_pruned`,
//! raw-vs-stored bytes written, and eviction counts.
//!
//! **Compaction.** Every read-write batch ends with a store sweep
//! ([`session::Session::compact_store`] runs one on demand): quarantined
//! `*.corrupt.*` files past `StoreConfig::quarantine_retention_bytes`
//! (newest kept as forensic samples), stale temporaries of crashed
//! writers and — when a disk budget is set — the coldest columns,
//! partial or complete, are deleted, with the reclaimed bytes reported
//! through [`prelude::StoreStats`] (in the batch's report and the
//! session's total alike).
//!
//! Columns are keyed by **content fingerprints**: the model's
//! ([`extract::Extractor::fingerprint`], hashing the actual weights — a
//! model that cannot be hashed returns `None` and simply opts out) and
//! the dataset's ([`model::Dataset::content_fingerprint`]). Fingerprints
//! make invalidation implicit: a plan whose catalog entries were replaced
//! ([`plan::LogicalPlan::is_current`]) re-binds and re-fingerprints, so
//! changed contents miss the store while identical re-registrations keep
//! hitting — there is no stale-read window. A behavior depends on the
//! code that computes it as well as on the weights, so the char-LSTM
//! fingerprint ([`prelude::char_model_fingerprint`]) also hashes the
//! version of the in-repo `tanh` / `sigmoid` kernel
//! (`deepbase_tensor::activation::VERSION`) its gates run. Columns and
//! views stored by builds whose gates called the host's libm were hashed
//! without it: their columns miss and re-extract, and their views probe
//! `Invalid` and rebuild — bit-identical to a cold run, never a mix of
//! two `tanh`s under one key. Corruption is handled
//! fail-soft: every section and block carries a CRC32 checksum; a block
//! that fails validation is quarantined (the file is renamed aside —
//! collision-safe unique names — and re-materialized by the next
//! read-write pass) and the pass falls back to live extraction,
//! surfacing the error in [`prelude::StoreStats::errors`] (a bounded
//! ring; `error_count` stays exact) — never a panic, never a wrong
//! score, a property enforced by a ≥1000-case single-bit fault-injection
//! suite (`crates/store/tests/fault_injection.rs`,
//! `crates/core/tests/store_fault_tests.rs`). `explain` renders the
//! chosen source per group (`store scan (k/n unit columns stored, p
//! partial, m extracted live)`, counted per union column across
//! segments, then `segments: n sealed, w warm, p partial, c cold`), and
//! every [`plan::BatchReport`] carries
//! the batch's [`prelude::StoreStats`] (blocks read/written, pool
//! hits/evictions, forward passes avoided, bytes reclaimed);
//! [`session::Session::store_stats`] accumulates them per session.
//!
//! ## Segments
//!
//! Datasets grow in memory. [`model::Dataset::append_segment`] returns a
//! new [`model::Dataset`] with the appended records as one more immutable
//! **segment**, every existing segment and its cached fingerprint carried
//! over unchanged; [`query::Catalog::append_to_dataset`] re-registers
//! that dataset under its name, and [`model::Dataset::with_segments`]
//! builds the same segment map in one step. The plain
//! [`model::Dataset::new`] constructor is simply the one-segment case, so
//! every unsegmented caller behaves bit-identically.
//!
//! Appended records live only as long as the process: the behavior store
//! and the view catalog persist, the records do not. After a restart the
//! catalog holds whatever datasets the new process registers, so a view
//! built over records the process no longer has sees different segment
//! fingerprints, probes `Invalid` and rebuilds on its next refresh —
//! never a replay over inputs that are gone. (A durable APPEND would
//! persist the segments through `deepbase_store::durable` as a feature of
//! its own.)
//!
//! Execution follows the segment map, through the engine's **one
//! streaming pass** (see the `engine` module, *One streaming pass*): one shuffled
//! stream per segment (segment 0 keeps the session seed, later ones hash
//! `(seed, segment index)`), per-segment measure states folded in
//! canonical segment order by exact merging
//! (`MeasureState::merge_from`, e.g. `StreamingPearson::merge`).
//! A one-segment dataset is the one-stream case of the same code. Only
//! policy differs, and it is derived, never configured: with `full_pass =
//! segment_count > 1 || a view needs the fold point`, a `!full_pass`
//! stream stops early (§5.2.3); a full pass builds the same states over
//! the same hypothesis lists but processes every block, fans its streams out on
//! `Device::Parallel` (bit-identical to SingleCore), and rejects measures
//! whose states cannot merge exactly (the order-dependent SGD probes) at
//! bind time with a typed [`DniError::Query`], never silently mis-scored.
//! Store columns are
//! keyed per **segment** fingerprint ([`model::Dataset::segment_fingerprint`]),
//! and the scan-vs-extract decision is made per segment: a store-backed
//! group carries one scan plan per segment in segment order
//! (`GroupSource::Segments`; an unsegmented dataset is the
//! one-element list), each executed by the store's `ColumnPass` inside
//! that segment's stream. Appending records
//! ([`session::Session::append_records`]) and re-running a query scans
//! the old segments warm and pays forward passes **only for the new
//! ones** — warm incremental re-inspection, bit-identical to a cold run
//! over the same segmented dataset.
//!
//! ## Materialized views
//!
//! A **materialized view** ([`session::Session::create_view`]) persists
//! the complete answer to one INSPECT statement under a name: the
//! normalized statement text (whitespace/case variants of one statement
//! map to one view, exactly like the plan cache), the result frame with
//! scores stored as raw `f32` bits, the **mergeable measure states** of
//! the full pass, and a high-water mark over every input — model
//! fingerprint, per-segment dataset fingerprints, and the
//! result-determining config fields. Views live in `<store>/views/` as
//! checksummed, atomically replaced files
//! (`deepbase_store::ViewCatalog`), shared across every session over the
//! store.
//!
//! Freshness is judged by fingerprint comparison alone:
//!
//! * **Unchanged inputs** — [`session::Session::read_view`] replays the
//!   stored frame through the statement's HAVING/projection with **zero
//!   extractor forward passes and zero store block reads**,
//!   bit-identical to a cold **full pass**. The optimizer makes the
//!   same decision for plain INSPECT statements over multi-segment
//!   datasets (where a cold INSPECT is a full pass too; a one-segment
//!   INSPECT may stop early, so it always runs live): a fresh match is
//!   placed with the stored frame, like a score-cache hit, so the
//!   statement joins no shared pass, and `explain` renders a
//!   `query[i] view: <name>, fresh` line for it.
//! * **Dataset grew** — [`session::Session::refresh_view`] streams
//!   **only the appended segments** and folds them into the stored
//!   measure states (`MeasureState::merge_from` over
//!   states revived by [`measure::Measure::deserialize_state`], one stored
//!   blob per slot and hypothesis whatever list or grid the pass runs; a
//!   slot that shares a pairwise grid has its revived state embedded at
//!   its pairs). Because per-segment streams are seeded by
//!   true segment index and a view pass is always a full pass, the
//!   refreshed frame is bit-identical to a full cold rebuild. Reads of a stale
//!   view raise [`DniError::ViewStale`] instead of silently paying
//!   extraction.
//! * **Anything else changed** (model weights, config, mutated
//!   records) — the view is invalid; `refresh_view` rebuilds it from
//!   scratch.
//!
//! Create, rebuild and incremental refresh are one write path: the same
//! full pass, started from no fold point or from the stored view's, and
//! the same doc, whose inputs are the ones freshness is judged against.
//! So a refreshed view file equals, byte for byte, the file a cold build
//! over the grown dataset writes.
//!
//! [`session::Session::list_views`] / [`session::Session::drop_view`]
//! complete the catalog surface (a listing shows each statement as a
//! reader writes it, `select s.uid, …`); the server exposes all five
//! operations as wire frames and [`prelude::StoreStats`] counts view
//! hits, refreshes, builds and bytes written.
//!
//! ## Bounded execution & failure domains
//!
//! Every execution can be bounded by a [`engine::RunBudget`]
//! ([`engine::InspectionConfig::budget`]): a relative wall-clock
//! **deadline**, a shareable [`engine::CancelToken`] (an `Arc`'d atomic,
//! cancellable from another thread), and optional row/block caps. The
//! streaming engine polls the armed budget once per block boundary —
//! amortized to near-zero overhead, and skipped entirely when the budget
//! is unlimited — and on expiry **degrades gracefully** instead of
//! erroring: the pass stops where it is, persists its extraction work as
//! watermark-extending partial columns through the normal write-back
//! path (a deadline-interrupted pass is indistinguishable from an
//! early-stopped one; the next warm run resumes at the watermark and
//! does strictly fewer forward passes), and returns the current score
//! estimates tagged with a `Completion` — status
//! ([`result::CompletionStatus`]: `Converged` / `DeadlineExceeded` /
//! `Cancelled` / `BudgetExhausted`), rows read, and the per-pair
//! convergence error of everything still pending — carried per pass in
//! `SharedOutcome`, per wave in `GroupReport` and
//! batch-wide in [`plan::BatchReport::completion`]. Interrupted frames
//! are valid partial answers but never seed the session score cache.
//! The paper's baselines ([`engine::inspect_as`]) have no partial answer
//! and refuse a limited budget with [`DniError::BadConfig`].
//!
//! Failure domains are bounded the same way. A panic in a hypothesis or
//! extractor — on the batch's thread or on any fan-out thread: a group,
//! a segment stream, an extraction chunk — is contained at the
//! extraction-group boundary: the dead group's queries fail with
//! [`DniError::Internal`] carrying the original panic payload verbatim
//! ([`plan::BatchReport::query_errors`]), and sibling groups run to
//! completion. The fan-out threads are scoped to the call that spawned
//! them, so nothing outlives a panic. Store IO distinguishes
//! **transient** error kinds (interrupted/would-block/timed-out reads —
//! retried with bounded backoff and counted in
//! [`prelude::StoreStats::io_retries`]) from corruption, which is
//! quarantined as always.
//!
//! ## Serving
//!
//! The library scales out to a long-lived **inspection server**
//! (`deepbase-server`, with a `deepbase-client` library + CLI): a
//! dependency-free TCP frontend over `std::net` speaking a
//! length-prefixed binary protocol. Every frame is `u32 big-endian
//! payload length` followed by the payload, whose first byte is the
//! opcode:
//!
//! ```text
//! request  := INSPECT(0x01)  deadline_ms:u64 max_records:u64 max_blocks:u64 statement:utf8
//!           | EXPLAIN(0x02)  statement:utf8
//!           | APPEND(0x03)   name_len:u16 name count:u32 record*
//!           | STATS(0x04) | SHUTDOWN(0x05)
//!           | BATCH(0x06)    deadline_ms:u64 max_records:u64 max_blocks:u64
//!                            count:u16 (len:u32 statement)*
//!           | VIEW_CREATE(0x07)  name_len:u16 name statement:utf8
//!           | VIEW_READ(0x08)    name:utf8
//!           | VIEW_REFRESH(0x09) name:utf8
//!           | VIEW_DROP(0x0A)    name:utf8
//!           | VIEW_LIST(0x0B)
//! response := RESULT(0x81)   status:u8 rows_read:u64 table
//!           | TEXT(0x82)     utf8
//!           | ERROR(0x83)    code:u16 message:utf8
//!           | OK(0x84)       value:u64
//!           | BATCH(0x85)    status:u8 rows_read:u64 plan_stats
//!                            count:u16 (tag:u8 table|error)*
//! plan_stats := u64 × 7, the batch report's plan::PlanStats in field order:
//!   plan_cache_hits plan_cache_misses score_cache_hits admission_splits
//!   admission_queued scan_charged_columns waves
//! ```
//!
//! Tables travel losslessly (`Float` cells as raw `f32::to_bits`), so a
//! warm-store query answered over TCP is **bit-identical** to the same
//! statement run through the in-process [`session::Session`] API.
//! Errors travel as stable [`DniError::code`] + display text and are
//! reconstructed with [`DniError::from_wire`] (round-trip lossless).
//!
//! The server runs **one logical session per connection**, each a
//! [`session::Session::fork`] of one template session kept for the
//! connection's lifetime: every request first copies one master catalog
//! into it (cheap, identity-preserving — see [`query::Catalog`]), so an
//! APPEND from any connection is visible on the next request of every
//! other, and a cached plan keeps serving while the copy still holds
//! what it bound ([`plan::LogicalPlan::is_current`]). Forks share the
//! template's behavior store handle (opened once, by the template), its
//! admission scheduler and its hypothesis cache (so behaviors computed by
//! any connection serve every other); each fork's plan and score caches
//! are its own, and per-request budgets map from the wire through
//! [`session::Session::set_budget`].
//!
//! **Admission** has one path. Every session builds an
//! [`admission::AdmissionScheduler`] from its
//! [`plan::AdmissionConfig`]: plans split into waves against those
//! budgets, and every wave — of a batch, or the single wave of a view
//! build or refresh — acquires a fair-FIFO width permit before streaming.
//! Because forks share the scheduler, `max_stream_width` /
//! `max_scan_width` bound the **sum of in-flight widths across all
//! connections** instead of each batch holding a private budget
//! ([`session::Session::scheduler`] exposes its counters). A batch's
//! groups fan out on the parallel device under a bounded budget too: a
//! thread waiting for a permit runs nothing else, so it can never block
//! the permit holder. A SHUTDOWN frame (or idle timeout) drains
//! in-flight batches through the shared [`engine::CancelToken`] —
//! streaming passes degrade gracefully and persist watermark-extending
//! partial columns — then runs one final compaction sweep before the
//! listener closes.
//!
//! Modules map to the paper; the private ones export what callers use
//! through the [`prelude`]:
//!
//! * `model` — the DNI problem model: datasets, records, unit groups,
//!   hypothesis functions with execution-time validation (§3, §4.2).
//! * `extract` — unit-behavior extractors for the NN substrate (§5.1.2).
//! * `measure` — the standard measure library behind one state
//!   interface, fed one way (`process_block`: one column per member, none
//!   for a member a pairwise state no longer feeds) and read one way
//!   (member errors, and a grid's pair errors), with one state type per
//!   family: the merged (multi-output) logreg probe, one capped sample
//!   behind [`prelude::BufferedMeasure`] (`jaccard`, `mutual_info`,
//!   `group_mi`), and a `PerMember` grid for every pairwise measure
//!   (`corr`, `diff_means`, the baselines) (§4.3, §5.2).
//! * `engine` — streaming extraction, early stopping, the parallel
//!   device (§5): the one streaming pass (public face:
//!   [`engine::inspect_shared`]) that every plan wave, view build and view
//!   refresh executes through, and the PyBase / +MM / +MM+ES / MADLib
//!   reference designs behind [`engine::inspect_as`]. A pass shares work
//!   at three levels: one union block of unit columns per block, one
//!   column per distinct hypothesis function, and one measure state per
//!   slot — except that the slots of a pairwise measure (`corr`,
//!   `diff_means`, the baselines: one accumulator per `(unit, hypothesis)`
//!   pair) share one grid over the union of their pairs whenever it holds
//!   no more pairs than they do together, so each pair is accumulated
//!   once and a grouped unit selection is never copied out of the union
//!   block. A grid's members stop on their own under early stopping, any
//!   other list as a whole. Each slot's scores, errors and stored bytes
//!   are those of a state of its own, bit for bit, and each request's
//!   frame is emitted once, straight from its slots' final scores.
//! * `cache` — hypothesis-behavior cache (§5.1.2, Fig. 9): one column of
//!   `ns`-wide rows per `(hypothesis, dataset)` catalog identity, indexed
//!   by record position, looked up a block at a time and evicted whole,
//!   least recently used first; shared by a session's forks.
//! * `deepbase-store` (re-exported essentials in the [`prelude`]) — the
//!   persistent columnar behavior store: self-describing column files
//!   (header + schema + zone maps + per-block checksums) scanned through
//!   a CLOCK buffer pool of shared decoded pages.
//! * `result` — the score frame and relational post-processing (§4.1).
//! * [`verify`] — perturbation-based verification (§4.4, Appendix C).
//! * [`query`] — the `INSPECT` SQL surface (Appendix B): catalog, lexer
//!   and parser.
//! * `plan` — the explicit pipeline: [`plan::bind`] →
//!   [`plan::LogicalPlan`] → [`plan::optimize_store`] →
//!   `PhysicalPlan` (shared-extraction grouping, dedup estimates,
//!   admission control, `explain`); built and explained here, executed
//!   only by a session.
//! * `session` — long-lived sessions, the one way to execute a
//!   statement: prepared statements, the cross-batch plan cache, score
//!   reuse, the hypothesis cache, admission, forks.
//! * `admission` — the fair-FIFO admission scheduler a session and its
//!   forks admit every wave through.
//! * [`vision`] — CNN inspection and the NetDissect pipeline (Appendix E).
//! * [`workloads`] — the paper's evaluation workloads, shared by the
//!   examples, integration tests and benchmark harnesses.

mod admission;
mod cache;
mod engine;
mod error;
mod extract;
mod measure;
mod model;
mod plan;
pub mod query;
mod result;
mod session;
pub mod verify;
pub mod vision;
pub mod workloads;

pub use error::DniError;

/// Convenience re-exports covering the common API surface.
pub mod prelude {
    pub use crate::admission::{AdmissionScheduler, SchedulerStats};
    pub use crate::cache::{CacheStats, HypothesisCache};
    pub use crate::engine::{
        inspect, inspect_as, inspect_shared, CancelToken, Device, EngineKind, InspectionConfig,
        InspectionRequest, Profile, RunBudget,
    };
    pub use crate::error::DniError;
    pub use crate::extract::{
        char_model_fingerprint, CharModelExtractor, CountingExtractor, Extractor,
        PrecomputedExtractor, Seq2SeqEncoderExtractor,
    };
    pub use crate::measure::{
        standard_library, BufferedMeasure, CorrelationMeasure, LogRegMeasure, Measure,
    };
    pub use crate::model::{
        Dataset, FnHypothesis, HypothesisFn, ParseCache, ParseHypothesis, Record, UnitGroup,
    };
    pub use crate::plan::{
        bind, freshness_label, optimize_store, AdmissionConfig, BatchOutput, BatchReport,
        LogicalPlan, PlanStats, StoreBinding,
    };
    pub use crate::query::{parse, Catalog};
    pub use crate::result::{CompletionStatus, ResultFrame, ScoreRow};
    pub use crate::session::{Session, SessionConfig, ViewRefresh};
    pub use deepbase_store::{
        BehaviorStore, ColumnKey, FpHasher, MaterializationPolicy, StoreConfig, StoreStats,
        ViewCatalog, ViewDoc, ViewFreshness, ViewHypState, ERROR_RING_CAP,
    };

    /// [`Session::stats`]: the [`PlanStats`] of every batch, summed.
    pub type SessionStats = PlanStats;
}
