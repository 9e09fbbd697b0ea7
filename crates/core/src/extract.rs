//! Unit-behavior extractors (paper §5.1.2).
//!
//! An extractor runs a model over records and emits the behavior matrix:
//! one row per `(record, symbol)` in record-major order, one column per
//! requested hidden unit. This mirrors the paper's minimal extractor API
//! (`extract(model, records, hid_units) -> behaviors`), with adapters for
//! the char-RNN, the seq2seq encoder, and pre-extracted matrices (the
//! "read behaviors from files" path).

use crate::error::DniError;
use crate::model::Record;
use deepbase_nn::{CharLstmModel, Seq2Seq};
use deepbase_store::FpHasher;
use deepbase_tensor::{activation, Matrix};

/// Extracts hidden-unit behaviors for records. Implementations must be
/// thread-safe: the parallel device splits a block's records into chunks
/// and extracts each on its own thread.
///
/// Records are passed by reference (`&[&Record]`) so the engine can hand
/// extractors arbitrary shuffled views of a dataset without cloning record
/// payloads (symbols, window text, source text) per inspection.
pub trait Extractor: Send + Sync {
    /// Number of hidden units the underlying model exposes.
    fn n_units(&self) -> usize;

    /// Behavior matrix for `records`: shape
    /// `(records.len() * ns) x unit_ids.len()`, rows record-major.
    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix;

    /// Stable **content fingerprint** of the underlying model, if one can
    /// be computed: two extractors must return the same fingerprint iff
    /// they would produce bit-identical behaviors on every input. Keys
    /// the persistent behavior store (`deepbase-store`), so it must be
    /// stable across processes. The default `None` opts the model out of
    /// persistence entirely — the safe choice when the weights cannot be
    /// hashed — and the planner then always extracts live.
    fn fingerprint(&self) -> Option<u64> {
        None
    }
}

/// Extractor over a [`CharLstmModel`] (the SQL auto-completion model).
pub struct CharModelExtractor<'m> {
    model: &'m CharLstmModel,
}

impl<'m> CharModelExtractor<'m> {
    /// Wraps a model reference.
    pub fn new(model: &'m CharLstmModel) -> Self {
        CharModelExtractor { model }
    }
}

impl Extractor for CharModelExtractor<'_> {
    fn n_units(&self) -> usize {
        self.model.hidden()
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        let inputs: Vec<&[u32]> = records.iter().map(|r| r.symbols.as_slice()).collect();
        self.model.extract_units(&inputs, unit_ids)
    }

    fn fingerprint(&self) -> Option<u64> {
        Some(char_model_fingerprint(self.model))
    }
}

/// Content fingerprint of a char-LSTM model: architecture constants, the
/// version of the `tanh` / `sigmoid` kernel its forward runs
/// ([`deepbase_tensor::activation::VERSION`]), and every trainable
/// parameter, bit-exact. Shared with owned-extractor wrappers (benches,
/// tests) so they hash identically to [`CharModelExtractor`].
pub fn char_model_fingerprint(model: &CharLstmModel) -> u64 {
    let mut h = FpHasher::new();
    h.write_str("char-lstm")
        .write_u64(model.vocab_size() as u64)
        .write_u64(model.hidden() as u64)
        .write_u64(activation::VERSION);
    model.visit_params(|m| {
        h.write_f32s(m.as_slice());
    });
    h.finish()
}

/// Extractor over the seq2seq encoder (paper §6.3): units `0..H` are
/// encoder layer 0, units `H..2H` are layer 1. Records are word-id
/// sequences; padding symbols (id 0) are excluded from the encoder run and
/// produce zero rows, matching the inactive-on-padding behavior of Fig. 1.
pub struct Seq2SeqEncoderExtractor<'m> {
    model: &'m Seq2Seq,
}

impl<'m> Seq2SeqEncoderExtractor<'m> {
    /// Wraps a model reference.
    pub fn new(model: &'m Seq2Seq) -> Self {
        Seq2SeqEncoderExtractor { model }
    }
}

impl Extractor for Seq2SeqEncoderExtractor<'_> {
    fn n_units(&self) -> usize {
        2 * self.model.hidden()
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        let ns = records.first().map(|r| r.symbols.len()).unwrap_or(0);
        let mut out = Matrix::zeros(records.len() * ns, unit_ids.len());
        for (ri, rec) in records.iter().enumerate() {
            // Strip padding (id 0) from the tail; sentences are
            // right-padded for the fixed-ns dataset layout.
            let len = rec
                .symbols
                .iter()
                .rposition(|&s| s != 0)
                .map(|p| p + 1)
                .unwrap_or(0);
            if len == 0 {
                continue;
            }
            let acts = self.model.encoder_activations_all(&rec.symbols[..len]);
            for t in 0..len {
                let src = acts.row(t);
                for (dst, &u) in out.row_mut(ri * ns + t).iter_mut().zip(unit_ids) {
                    *dst = src[u];
                }
            }
        }
        out
    }
}

/// Extractor over a pre-materialized behavior matrix (the paper's
/// "simply read behaviors from pre-extracted files" path, and the handle
/// used when benchmarking inspection costs in isolation).
pub struct PrecomputedExtractor {
    behaviors: Matrix,
    ns: usize,
}

impl PrecomputedExtractor {
    /// Wraps a `(nd * ns) x n_units` matrix.
    pub fn new(behaviors: Matrix, ns: usize) -> Self {
        PrecomputedExtractor { behaviors, ns }
    }
}

impl Extractor for PrecomputedExtractor {
    fn n_units(&self) -> usize {
        self.behaviors.cols()
    }

    fn fingerprint(&self) -> Option<u64> {
        let mut h = FpHasher::new();
        h.write_str("precomputed")
            .write_u64(self.ns as u64)
            .write_u64(self.behaviors.rows() as u64)
            .write_u64(self.behaviors.cols() as u64)
            .write_f32s(self.behaviors.as_slice());
        Some(h.finish())
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(records.len() * self.ns, unit_ids.len());
        for (ri, rec) in records.iter().enumerate() {
            for t in 0..self.ns {
                let src_row = rec.id * self.ns + t;
                let dst = out.row_mut(ri * self.ns + t);
                for (c, &u) in unit_ids.iter().enumerate() {
                    dst[c] = self.behaviors.get(src_row, u);
                }
            }
        }
        out
    }
}

/// Wraps any extractor and counts forward passes: `extract` invocations
/// and total records streamed through them. The incremental-reinspection
/// and view tests use this to assert *exactly* how
/// much extraction a warm run performed (e.g. "only the new segment's
/// blocks"). Delegates `n_units` and `fingerprint` untouched, so planner
/// and store behave as if the inner extractor ran bare.
pub struct CountingExtractor {
    inner: std::sync::Arc<dyn Extractor>,
    calls: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    records: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl CountingExtractor {
    /// Wraps `inner` with fresh counters.
    pub fn new(inner: std::sync::Arc<dyn Extractor>) -> Self {
        CountingExtractor {
            inner,
            calls: Default::default(),
            records: Default::default(),
        }
    }

    /// Number of `extract` calls so far.
    pub fn calls(&self) -> usize {
        self.calls.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Total records forwarded through `extract` so far.
    pub fn records_extracted(&self) -> usize {
        self.records.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Resets both counters to zero (e.g. between cold and warm runs).
    pub fn reset(&self) {
        self.calls.store(0, std::sync::atomic::Ordering::SeqCst);
        self.records.store(0, std::sync::atomic::Ordering::SeqCst);
    }
}

impl Extractor for CountingExtractor {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.records
            .fetch_add(records.len(), std::sync::atomic::Ordering::SeqCst);
        self.inner.extract(records, unit_ids)
    }

    fn fingerprint(&self) -> Option<u64> {
        self.inner.fingerprint()
    }
}

/// Column demultiplexer for shared extraction passes.
///
/// The batch scheduler extracts the *union* of all unit columns that any
/// member query needs, once per block, and then hands each group its unit
/// columns of the union block instead of re-running the extractor. All
/// in-tree extractors are column-wise consistent — `extract(r, A)` column
/// `i` equals `extract(r, B)` column `j` whenever `A[i] == B[j]`, because
/// each runs the whole forward pass and only then selects columns — so
/// the demuxed block is bit-identical to a direct extraction.
#[derive(Debug)]
pub(crate) struct ColumnDemux {
    cols: Vec<usize>,
}

impl ColumnDemux {
    /// Maps `wanted` unit ids onto their column positions within a union
    /// extraction over `union_units`, which must be sorted ascending (the
    /// planner builds it with `sort_unstable` + `dedup`). Every wanted
    /// unit must appear in the union — the planner derives the union from
    /// the very groups it demuxes, so a miss means the caller handed a
    /// non-superset union and gets a [`DniError::Query`] instead of an
    /// aborted process.
    pub(crate) fn new(union_units: &[usize], wanted: &[usize]) -> Result<ColumnDemux, DniError> {
        debug_assert!(
            union_units.windows(2).all(|w| w[0] < w[1]),
            "extraction union must be sorted and deduplicated"
        );
        let cols = wanted
            .iter()
            .map(|u| {
                union_units.binary_search(u).map_err(|_| {
                    DniError::Query(format!("unit {u} missing from the extraction union"))
                })
            })
            .collect::<Result<Vec<usize>, DniError>>()?;
        Ok(ColumnDemux { cols })
    }

    /// True when this demux selects every column of a `union_width`-wide
    /// union in order — i.e. applying it would just copy the matrix.
    pub(crate) fn is_identity(&self, union_width: usize) -> bool {
        self.cols.len() == union_width && self.cols.iter().enumerate().all(|(i, &c)| i == c)
    }

    /// This demux's columns of the union block's: the same slices, no
    /// value copied.
    pub(crate) fn pick<'a>(&self, union: &[&'a [f32]]) -> Vec<&'a [f32]> {
        self.cols.iter().map(|&c| union[c]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Record;
    use deepbase_nn::OutputMode;
    use deepbase_tensor::column_runs;

    fn records(n: usize, ns: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let syms: Vec<u32> = (0..ns).map(|t| ((i + t) % 3) as u32).collect();
                Record::standalone(i, syms, "x".repeat(ns))
            })
            .collect()
    }

    #[test]
    fn char_extractor_shape_and_column_selection() {
        let model = CharLstmModel::new(3, 6, OutputMode::LastStep, 1);
        let ext = CharModelExtractor::new(&model);
        assert_eq!(ext.n_units(), 6);
        let recs = records(4, 5);
        let recs: Vec<&Record> = recs.iter().collect();
        let all = ext.extract(&recs, &(0..6).collect::<Vec<_>>());
        assert_eq!(all.shape(), (20, 6));
        let some = ext.extract(&recs, &[2, 4]);
        assert_eq!(some.shape(), (20, 2));
        for r in 0..20 {
            assert_eq!(some.get(r, 0), all.get(r, 2));
            assert_eq!(some.get(r, 1), all.get(r, 4));
        }
    }

    #[test]
    fn precomputed_extractor_respects_record_ids() {
        let behaviors = Matrix::from_fn(6, 2, |r, c| (r * 10 + c) as f32);
        let ext = PrecomputedExtractor::new(behaviors, 2);
        // Records with ids 2 and 0, out of order.
        let recs = records(3, 2);
        let picked = vec![&recs[2], &recs[0]];
        let m = ext.extract(&picked, &[0, 1]);
        assert_eq!(m.shape(), (4, 2));
        // Record id 2 occupies source rows 4..6.
        assert_eq!(m.get(0, 0), 40.0);
        assert_eq!(m.get(1, 0), 50.0);
        // Record id 0 occupies source rows 0..2.
        assert_eq!(m.get(2, 0), 0.0);
    }

    #[test]
    fn seq2seq_extractor_pads_with_zero_rows() {
        let model = Seq2Seq::new(10, 10, 4, 3, 2);
        let ext = Seq2SeqEncoderExtractor::new(&model);
        assert_eq!(ext.n_units(), 6);
        // One record: two real tokens then padding to ns=4.
        let rec = Record::standalone(0, vec![4, 5, 0, 0], "ab~~".into());
        let m = ext.extract(&[&rec], &(0..6).collect::<Vec<_>>());
        assert_eq!(m.shape(), (4, 6));
        assert!(
            m.row(0).iter().any(|&v| v != 0.0),
            "real token has activations"
        );
        assert!(m.row(2).iter().all(|&v| v == 0.0), "padding row is zero");
        assert!(m.row(3).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn column_demux_matches_direct_extraction() {
        let behaviors = Matrix::from_fn(12, 5, |r, c| (r * 10 + c) as f32);
        let ext = PrecomputedExtractor::new(behaviors, 2);
        let recs = records(6, 2);
        let refs: Vec<&Record> = recs.iter().collect();
        let union_units = vec![0, 2, 3, 4];
        let union = ext.extract(&refs, &union_units).transpose();
        let demux = ColumnDemux::new(&union_units, &[4, 2]).unwrap();
        assert_eq!(demux.cols.len(), 2);
        let picked = demux.pick(&column_runs(union.as_slice(), 12, 4)).concat();
        let direct = ext.extract(&refs, &[4, 2]).transpose();
        assert_eq!(picked, direct.as_slice());
    }

    #[test]
    fn column_demux_rejects_units_outside_the_union_with_an_error() {
        // Regression: a demux over a non-superset union used to panic and
        // abort the process; it must surface a query error instead.
        let err = ColumnDemux::new(&[0, 1], &[3]).unwrap_err();
        assert!(matches!(err, DniError::Query(_)), "got {err:?}");
        assert!(err.to_string().contains("unit 3 missing"));
        // A partially covered request errors too (no silent truncation).
        assert!(ColumnDemux::new(&[0, 1, 5], &[1, 4]).is_err());
        // And the superset case still succeeds.
        assert_eq!(ColumnDemux::new(&[0, 1, 5], &[5, 0]).unwrap().cols.len(), 2);
    }
}
