//! The store's half of one streamed pass over one dataset segment.
//!
//! "Where does this segment's unit column come from — scan, scan up to
//! the watermark, or extract live and write back" is one decision, made
//! by [`BehaviorStore::plan_scan`] (a [`ScanPlan`], which carries its
//! store handle so it can only execute against the store it was probed
//! on) and carried out block by block by a [`ColumnPass`].
//!
//! A pass streams its segment in one seeded order and writes the columns
//! it extracts back **in that order**: stored row `i` is the `i`-th
//! record of the stream, and a partial column of `W` rows is the stream's
//! first `W` records. Every column fetch is one path
//! ([`BehaviorStore::scan_into`] takes it too): the block's stored rows
//! as runs, cut at stored-block edges into pieces — a page slice or a
//! pruned block's zone constant — and the scanned columns written into
//! the union block eight at a time, as 8 × 8 tiles transposed straight
//! from the pieces. When a later pass streams the same order — the
//! column's stored positions, compared with the pass's order once per
//! pass, are its first `W` records — stream block `[a, b)` is the one run
//! of stored rows `[a, b)`, in ⌈(b − a) / B⌉ stored blocks of `B` rows,
//! plus one when the range does not start on a block edge, whatever the
//! two block sizes are, and no inverse row map is built. Its first fetch
//! of a complete column takes the rest of the column through the pool in
//! the same read (as far as the pass's page reservation holds it), so
//! the file is opened once per pass, and every block after it serves
//! from the pages the pass holds.
//!
//! Every other fetch — a column stored in another order (another seed,
//! or a column `write_column` wrote in record order) — maps the block's
//! record positions through the column's inverse row map, consecutive
//! stored rows merged into one run, and takes only the pages it touches.
//! The pages every live pass keeps count against one store-wide
//! reservation of `StoreConfig::pool_bytes`; a page past it serves its
//! fetch and is dropped, as if no table existed. A column's table is used
//! only while the store's column info is the one its pages were read
//! under, so a purge, a rewrite or a corruption retry drops it first.
//! Nothing the pass holds stops the pool evicting a frame or compaction
//! deleting a file: a held page serves on, and a later load from a
//! deleted file demotes the column to live extraction. The held pages go
//! back when the pass ends — at `finish`, and when it is dropped early or
//! unwound.
//!
//! The pass's `live` closure is the whole interface to the engine: the
//! store never sees an extractor, a record or a device — only "these
//! units, this block, row-major values please". Stored columns hold
//! exactly what the extractor produced, so every mix of scanned and live
//! columns is bit-identical to a full live extraction.

use crate::store::{BehaviorStore, ColumnKey, FetchScratch, Fetched, Piece, Span, StreamBlock};
use crate::{StoreError, StoreStats};
use std::ops::Range;
use std::sync::Arc;

/// The store decision for one stream: the column key fingerprints, the
/// plan-time hit/partial/miss split of the probed unit columns, and the
/// policy flags. Built only by [`BehaviorStore::plan_scan`]; executed by a
/// [`ColumnPass`]. A segmented dataset gets one plan per segment (store
/// columns are keyed per segment so appends leave old segments warm); an
/// unsegmented one is the one-plan case.
///
/// `hits`, `partials` and `misses` partition the probed units and keep
/// their (ascending) order.
pub struct ScanPlan {
    store: Arc<BehaviorStore>,
    /// Content fingerprint of the pass's model.
    pub model_fp: u64,
    /// Content fingerprint of the dataset segment this plan covers.
    pub dataset_fp: u64,
    /// Unit columns with a *complete* stored column at plan time.
    pub hits: Vec<usize>,
    /// Unit columns with a *partial* stored column (the persisted prefix
    /// of an earlier early-stopped pass): scanned up to their watermark,
    /// extracted live past it.
    pub partials: Vec<usize>,
    /// Unit columns that will be extracted live.
    pub misses: Vec<usize>,
    /// Persist newly extracted columns when the stream ends, and
    /// quarantine columns proven corrupt (a read-write policy).
    pub write: bool,
    /// Skip write-back capture when the missing columns would buffer more
    /// than this many bytes.
    pub writeback_limit_bytes: usize,
    /// Plan-time pushdown estimate over the complete hits: `(prunable
    /// blocks, total blocks)`. Advisory — the scan consults each block's
    /// zone entry and skips the blocks whose exact contents it proves
    /// (bit-identical to reading them).
    pub pruned_estimate: (usize, usize),
}

impl ScanPlan {
    fn key(&self, unit: usize) -> ColumnKey {
        ColumnKey {
            model_fp: self.model_fp,
            dataset_fp: self.dataset_fp,
            unit,
        }
    }
}

impl BehaviorStore {
    /// Probes the store for `units` (ascending) under one `(model
    /// fingerprint, dataset or segment fingerprint)` key: complete
    /// columns scan, partial columns scan up to their watermark, the rest
    /// extract live (and write back when `write` is set). The plan also
    /// carries each complete hit's prunable/total block counts from its
    /// (cached) zone table.
    pub fn plan_scan(
        self: &Arc<Self>,
        model_fp: u64,
        dataset_fp: u64,
        units: &[usize],
        write: bool,
        writeback_limit_bytes: usize,
    ) -> ScanPlan {
        debug_assert!(units.windows(2).all(|w| w[0] < w[1]), "units ascending");
        let (hits, partials, misses) = self.split_units(model_fp, dataset_fp, units);
        let mut plan = ScanPlan {
            store: Arc::clone(self),
            model_fp,
            dataset_fp,
            hits,
            partials,
            misses,
            write,
            writeback_limit_bytes,
            pruned_estimate: (0, 0),
        };
        for &unit in &plan.hits {
            if let Some((prunable, total)) = self.zone_summary(&plan.key(unit)) {
                plan.pruned_estimate.0 += prunable;
                plan.pruned_estimate.1 += total;
            }
        }
        plan
    }
}

/// One store-servable union column of a pass.
struct ScanColumn {
    unit: usize,
    /// The unit's column index in the union matrix.
    col: usize,
    /// A partial column at pass start (scanned up to its watermark and
    /// captured for write-back); a complete one otherwise.
    partial: bool,
    /// Produced at least one scanned block this pass.
    scanned: bool,
}

/// Write-back capture: one column buffer per miss or partial unit,
/// assembled from the union stream (scanned and live-extracted blocks
/// alike) in stream order. A fully streamed pass commits complete
/// columns; an early-stopped pass commits the streamed prefix as partial
/// columns with a watermark.
struct WriteBack {
    units: Vec<WbUnit>,
    /// The stream prefix captured so far: its first `captured` records.
    captured: usize,
}

struct WbUnit {
    unit: usize,
    /// The unit's column index in the union matrix (capture source).
    union_col: usize,
    /// The `nd * ns` column buffer in stream order (rows past `captured`
    /// stay 0.0).
    col: Vec<f32>,
}

/// Per-stream execution state of a [`ScanPlan`] over the union unit
/// columns of one pass.
///
/// The pass intersects the plan's `hits` and `partials` with the union:
/// intersected units are scanned from stored columns through the buffer
/// pool (checksums verified per block), the rest are computed live in a
/// single narrowed closure call per block and merged into the union
/// stream. With `write` set, the live columns are buffered in stream
/// order and persisted when the stream ends: complete columns after a
/// fully streamed pass, and after an early stop or a budget interruption
/// the streamed prefix as *partial* columns whose watermark a later pass
/// resumes from (written only where that extends what the store already
/// holds). A column that fails a checksum mid-pass is quarantined and
/// demoted to live extraction for the remaining blocks — results stay
/// bit-identical because stored columns hold exactly what the extractor
/// would produce.
pub struct ColumnPass<'p> {
    plan: &'p ScanPlan,
    union_units: &'p [usize],
    /// The segment's records in stream order (a permutation of `0..nd`).
    order: &'p [usize],
    ns: usize,
    /// Union units servable from the store, in union column order. A
    /// partial column is scanned only for blocks whose records it holds;
    /// past its watermark the column extracts live for the block (the
    /// resume-at-the-watermark path).
    scan_order: Vec<ScanColumn>,
    /// Per union column: extracted live on every block (a plan-time miss).
    miss: Vec<bool>,
    /// Per union column: a hit demoted after a scan failure (corrupt
    /// columns are also quarantined; transient I/O failures only demote
    /// for this pass). Live for every remaining block.
    demoted: Vec<bool>,
    /// Per union column: a partial column the current block runs past.
    past_watermark: Vec<bool>,
    /// The current block's live columns and their units (buffers kept
    /// across blocks, like `fetch`, so a block allocates nothing here).
    live_cols: Vec<usize>,
    live_units: Vec<usize>,
    fetch: FetchScratch,
    writeback: Option<WriteBack>,
    stats: StoreStats,
}

impl<'p> ColumnPass<'p> {
    /// Starts a pass that streams a segment's records in `order` (a
    /// permutation of the segment's `order.len()` record positions, each
    /// record `ns` symbols) into a union matrix carrying `union_units`
    /// (ascending), one column each.
    pub fn new(
        plan: &'p ScanPlan,
        union_units: &'p [usize],
        order: &'p [usize],
        ns: usize,
    ) -> ColumnPass<'p> {
        let store = &plan.store;
        let nd = order.len();
        let mut stats = StoreStats::default();
        let mut scan_order: Vec<ScanColumn> = Vec::new();
        let mut misses: Vec<usize> = Vec::new();
        for (col, &unit) in union_units.iter().enumerate() {
            let column = |partial| ScanColumn {
                unit,
                col,
                partial,
                scanned: false,
            };
            if plan.hits.binary_search(&unit).is_ok() {
                scan_order.push(column(false));
            } else if plan.partials.binary_search(&unit).is_ok() {
                // Validate the partial's shape up front; a column that
                // cannot be read (or whose shape disagrees) is a miss.
                match store.column_meta(&plan.key(unit)) {
                    Ok(meta) if meta.nd != nd as u64 => {
                        stats.record_error(format!(
                            "unit {unit} partial column holds {} records but the dataset \
                             has {nd}, extracting live",
                            meta.nd
                        ));
                        if plan.write {
                            store.quarantine(&plan.key(unit));
                        }
                        misses.push(unit);
                    }
                    // Another session may have completed the column since
                    // plan time; a full watermark scans like a hit.
                    Ok(meta) => scan_order.push(column(!meta.is_complete())),
                    Err(e) => {
                        stats.record_error(format!(
                            "unit {unit} partial column unusable, extracting live: {e}"
                        ));
                        if plan.write && matches!(e, StoreError::Corrupt(_)) {
                            store.quarantine(&plan.key(unit));
                        }
                        misses.push(unit);
                    }
                }
            } else {
                misses.push(unit);
            }
        }
        // Capture misses *and* partials: a fully streamed pass completes
        // both, an early-stopped pass extends the partials' watermarks.
        let captured: Vec<(usize, usize)> = union_units
            .iter()
            .enumerate()
            .filter(|_| plan.write)
            .filter(|&(col, unit)| {
                misses.binary_search(unit).is_ok()
                    || scan_order.iter().any(|c| c.col == col && c.partial)
            })
            .map(|(col, &unit)| (unit, col))
            .collect();
        let bytes = captured.len() * nd * ns * std::mem::size_of::<f32>();
        let writeback = if captured.is_empty() {
            None
        } else if u32::try_from(nd).is_err() {
            stats.record_error(format!(
                "write-back skipped: {nd} records do not fit the format's u32 record positions"
            ));
            None
        } else if bytes <= plan.writeback_limit_bytes {
            Some(WriteBack {
                units: captured
                    .into_iter()
                    .map(|(unit, union_col)| WbUnit {
                        unit,
                        union_col,
                        col: vec![0.0; nd * ns],
                    })
                    .collect(),
                captured: 0,
            })
        } else {
            stats.record_error(format!(
                "write-back skipped: {} captured columns would buffer {bytes} bytes \
                 (limit {})",
                captured.len(),
                plan.writeback_limit_bytes
            ));
            None
        };
        let width = union_units.len();
        ColumnPass {
            plan,
            union_units,
            order,
            ns,
            scan_order,
            miss: union_units
                .iter()
                .map(|unit| misses.binary_search(unit).is_ok())
                .collect(),
            demoted: vec![false; width],
            past_watermark: vec![false; width],
            live_cols: Vec::with_capacity(width),
            live_units: Vec::with_capacity(width),
            fetch: FetchScratch::new(store),
            writeback,
            stats,
        }
    }

    /// Fills `out` — the row-major `(block.len() * ns) × union width`
    /// behavior matrix of one streamed block; every cell is overwritten,
    /// so the caller may reuse one buffer across blocks — for the stream's
    /// records `block` (`order[block]` are their record positions):
    /// stored columns are scanned through the pool (partial columns only
    /// while the block stays under their watermark), the rest come from
    /// one `live(units)` call, which must return the row-major
    /// `rows × units.len()` behaviors of exactly those units for this
    /// block, and are scattered into their union column positions. `live`
    /// is not called when every column scanned.
    pub fn fetch_block(
        &mut self,
        block: Range<usize>,
        out: &mut [f32],
        live: impl FnOnce(&[usize]) -> Vec<f32>,
    ) {
        let (plan, ns) = (self.plan, self.ns);
        let width = self.union_units.len();
        let rows = block.len() * ns;
        assert_eq!(out.len(), rows * width, "union block shape");
        let positions = &self.order[block.clone()];
        let stream = StreamBlock {
            order: self.order,
            start: block.start,
            end: block.end,
        };

        // Scan the still-trusted stored columns; a partial column whose
        // watermark this block runs past goes live for the block (that
        // is the resume point). Any scan failure demotes the column to
        // live extraction for this and every remaining block; only
        // *corruption* (checksum/shape disagreement) additionally
        // quarantines the file — a transient I/O error must not destroy
        // a valid column, and a read-only store must stay byte-identical
        // on disk short of proven corruption.
        for sc in &mut self.scan_order {
            if self.demoted[sc.col] {
                continue;
            }
            let scan = plan.store.scan_with(
                &mut self.fetch,
                &plan.key(sc.unit),
                self.order.len(),
                ns,
                positions,
                Some(stream),
                sc.col,
                true, // a pass always consults the zone maps
                &mut self.stats,
            );
            match scan {
                Ok(Fetched::PastWatermark) => self.past_watermark[sc.col] = true,
                Ok(Fetched::Scanned) => {
                    if !sc.scanned {
                        sc.scanned = true;
                        self.stats.columns_scanned += 1;
                        if sc.partial {
                            self.stats.partial_columns_scanned += 1;
                        }
                    }
                }
                Err(e) => {
                    self.stats.record_error(format!(
                        "unit {} column unusable, extracting live: {e}",
                        sc.unit
                    ));
                    // Quarantine only proven corruption, and only when
                    // the policy lets this pass touch the store at all —
                    // a read-only store stays byte-identical on disk.
                    if plan.write && matches!(e, StoreError::Corrupt(_)) {
                        plan.store.quarantine(&plan.key(sc.unit));
                    }
                    self.demoted[sc.col] = true;
                }
            }
        }
        gather_spans(out, width, rows, &self.fetch.spans, &self.fetch.pieces);
        self.fetch.spans.clear();
        self.fetch.pieces.clear();

        // One narrowed live call covers the misses, any demoted units,
        // and the partial columns this block runs past. Column-wise
        // consistency of extractors makes the merged matrix bit-identical
        // to a full live extraction of the union.
        self.live_cols.clear();
        self.live_units.clear();
        for col in 0..width {
            if self.miss[col] || self.demoted[col] || self.past_watermark[col] {
                self.past_watermark[col] = false;
                self.live_cols.push(col);
                self.live_units.push(self.union_units[col]);
            }
        }
        if self.live_cols.is_empty() {
            self.stats.forward_passes_avoided += 1;
        } else {
            let n_live = self.live_cols.len();
            let values = live(&self.live_units);
            assert_eq!(values.len(), rows * n_live, "live block shape");
            for (li, &col) in self.live_cols.iter().enumerate() {
                for r in 0..rows {
                    out[r * width + col] = values[r * n_live + li];
                }
            }
        }
        // Capture the block for write-back from the merged union matrix —
        // scanned and live values alike, so partial columns can be
        // completed (stored values are exactly what the extractor
        // produced, so the written column stays bit-identical). Only a
        // block that extends the captured stream prefix is kept.
        if let Some(wb) = self
            .writeback
            .as_mut()
            .filter(|wb| wb.captured == block.start)
        {
            for wu in wb.units.iter_mut() {
                let dst = &mut wu.col[block.start * ns..block.end * ns];
                for (r, cell) in dst.iter_mut().enumerate() {
                    *cell = out[r * width + wu.union_col];
                }
            }
            wb.captured = block.end;
        }
    }

    /// Ends the pass: persists the captured stream prefix as one group
    /// ([`BehaviorStore::write_columns`]: every file written, then
    /// synced, then renamed, under the store's write lock) — a fully
    /// streamed pass commits complete columns; an
    /// early-stopped (or interrupted) pass commits the streamed prefix as
    /// partial columns with a watermark, which the store keeps only where
    /// that strictly extends what it already holds — and returns the
    /// pass's accounting. Write failures are recorded per unit, never
    /// fatal.
    pub fn finish(mut self) -> StoreStats {
        let (plan, ns) = (self.plan, self.ns);
        let nd = self.order.len();
        // The held pages go before the write-back buffers are encoded.
        self.fetch.release();
        let Some(wb) = self.writeback.take().filter(|wb| wb.captured > 0) else {
            return self.stats;
        };
        let positions: Vec<u32> = self.order[..wb.captured]
            .iter()
            .map(|&p| p as u32)
            .collect();
        let columns: Vec<(ColumnKey, &[f32])> = wb
            .units
            .iter()
            .map(|wu| (plan.key(wu.unit), &wu.col[..wb.captured * ns]))
            .collect();
        let outcomes = plan.store.write_columns(nd, ns, &positions, &columns);
        for (wu, outcome) in wb.units.iter().zip(outcomes) {
            // A fully streamed fill is written as a complete column; a
            // partial one the store declined is an empty delta.
            match outcome {
                Ok(delta) => self.stats.accumulate(&delta),
                Err(e) => {
                    let what = if wb.captured == nd { "" } else { "partial " };
                    self.stats
                        .record_error(format!("unit {} {what}write-back failed: {e}", wu.unit));
                }
            }
        }
        self.stats
    }
}

/// One lane of a tile: a slice of a column's values, or a pruned
/// block's constant.
#[derive(Clone, Copy)]
enum Lane<'a> {
    Values(&'a [f32]),
    Constant(f32),
}

/// Writes the spanned columns of one fetch round — a pass's stream block,
/// or one `scan_into` — into the row-major block `out` (`width` columns;
/// each span supplies exactly `values` values), eight columns at a time.
/// Each group walks its spans' pieces in runs that no piece boundary of
/// any lane splits, and writes each run by [`transpose_into`].
pub(crate) fn gather_spans(
    out: &mut [f32],
    width: usize,
    values: usize,
    spans: &[Span],
    pieces: &[Piece],
) {
    for group in spans.chunks(8) {
        let k = group.len();
        let mut cols = [0usize; 8];
        // Per lane: the piece it reads and the offset in it.
        let mut at = [(0usize, 0usize); 8];
        for (j, span) in group.iter().enumerate() {
            cols[j] = span.col;
            at[j] = (span.pieces.start, 0);
        }
        let mut done = 0;
        let mut lanes = [Lane::Constant(0.0); 8];
        while done < values {
            let mut run = values - done;
            for &(p, off) in &at[..k] {
                run = run.min(pieces[p].len() - off);
            }
            for (lane, &(p, off)) in lanes.iter_mut().zip(&at[..k]) {
                *lane = match &pieces[p] {
                    Piece::Page { page, values } => {
                        Lane::Values(&page[values.start + off..values.start + off + run])
                    }
                    Piece::Constant { value, .. } => Lane::Constant(*value),
                };
            }
            transpose_into(out, width, done, &cols[..k], &lanes[..k], run);
            for (j, (p, off)) in at[..k].iter_mut().enumerate() {
                *off += run;
                if *off == pieces[*p].len() {
                    (*p, *off) = (*p + 1, 0);
                }
                debug_assert!(done + run == values || *p < group[j].pieces.end);
            }
            done += run;
        }
    }
}

/// Writes `run` values of up to eight lanes into the row-major block
/// `out` of `width` columns: value `i` of lane `j` goes to row
/// `first + i`, column `cols[j]`. Eight rows at a time, the lanes are
/// loaded into an 8 × 8 tile and stored transposed, a row's eight values
/// as one contiguous write when the columns are adjacent.
fn transpose_into(
    out: &mut [f32],
    width: usize,
    first: usize,
    cols: &[usize],
    lanes: &[Lane<'_>],
    run: usize,
) {
    let adjacent = cols.len() == 8 && cols.windows(2).all(|w| w[1] == w[0] + 1);
    let mut i = 0;
    // Set once: a group of k lanes reads only the first k rows, and
    // each tile overwrites them.
    let mut tile = [[0.0f32; 8]; 8];
    while i + 8 <= run {
        for (row, lane) in tile.iter_mut().zip(lanes) {
            *row = match lane {
                Lane::Values(v) => v[i..i + 8].try_into().expect("eight values"),
                Lane::Constant(c) => [*c; 8],
            };
        }
        for r in 0..8 {
            let row = (first + i + r) * width;
            if adjacent {
                let dst = &mut out[row + cols[0]..row + cols[0] + 8];
                for (cell, lane) in dst.iter_mut().zip(&tile) {
                    *cell = lane[r];
                }
            } else {
                for (&c, lane) in cols.iter().zip(&tile) {
                    out[row + c] = lane[r];
                }
            }
        }
        i += 8;
    }
    for i in i..run {
        let row = (first + i) * width;
        for (&c, lane) in cols.iter().zip(lanes) {
            out[row + c] = match lane {
                Lane::Values(v) => v[i],
                Lane::Constant(c) => *c,
            };
        }
    }
}
