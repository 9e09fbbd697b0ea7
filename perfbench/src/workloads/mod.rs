//! The seven workloads and the fixtures they share. `BENCHMARK.json`
//! says why each exists; `README.md` says which layer should dominate
//! where.

mod append;
mod cold;
mod serve;
mod warm;

use crate::harness::{check_tables, inspect_op, probe_ms, Env, Recorder, Workload};
use crate::trace::Tracer;
use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_nn::{CharLstmModel, OutputMode};
use deepbase_relational::Table;
use deepbase_store::format;
use deepbase_tensor::Matrix;
use std::path::Path;
use std::sync::Arc;

pub const NAMES: [&str; 7] = [
    "cold_sql_corr",
    "cold_nmt_logreg",
    "cold_cnn_jaccard",
    "warm_scan",
    "warm_sql_hyp",
    "append_refresh",
    "serve_mixed",
];

/// Builds a workload: trains its model, builds its catalog, computes the
/// reference answers, populates its store, starts its server.
pub fn setup(name: &str, env: &Env) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cold_sql_corr" => Box::new(cold::sql_corr(env)),
        "cold_nmt_logreg" => Box::new(cold::nmt_logreg(env)),
        "cold_cnn_jaccard" => Box::new(cold::cnn_jaccard(env)),
        "warm_scan" => Box::new(warm::scan(env)),
        "warm_sql_hyp" => Box::new(warm::sql_hyp(env)),
        "append_refresh" => Box::new(append::setup(env)),
        "serve_mixed" => Box::new(serve::setup(env)),
        _ => return None,
    })
}

/// `n` distinct indices below `pool`, drawn from `seed` (a partial
/// Fisher–Yates shuffle): which records of a fixed pool a run inspects.
pub fn sample_indices(pool: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut rng = crate::harness::SplitMix(seed);
    let mut order: Vec<usize> = (0..pool).collect();
    let n = n.min(pool);
    for i in 0..n {
        order.swap(i, i + rng.below(pool - i));
    }
    order.truncate(n);
    order
}

/// The full-stream settings every workload inspects under: `--seed`
/// shuffles the records, and a tiny ε keeps every pass streaming the
/// whole dataset. With the measures' default ε the block a pass stops at
/// depends on which records were sampled, and op time spread 7–25%
/// across seeds; streaming everything makes the work the same for every
/// seed, cold runs materialize complete columns, and warm runs scan
/// every block pushdown does not prune.
pub fn full_stream(block_records: usize, seed: u64) -> InspectionConfig {
    InspectionConfig {
        block_records,
        epsilon: Some(1e-12),
        seed,
        ..Default::default()
    }
}

/// The demo alphabet's records, drawn from `rng_seed`: `nd` sequences of
/// `ns` symbols over a–d with the demo catalog's 2:2:1:2 letter mix, ids
/// starting at `first_id`.
pub fn demo_records(first_id: usize, nd: usize, ns: usize, rng_seed: u64) -> Vec<Record> {
    let mut rng = crate::harness::SplitMix(rng_seed ^ (first_id as u64).wrapping_mul(0x51_7cc1));
    (first_id..first_id + nd)
        .map(|id| {
            let chars: Vec<char> = (0..ns)
                .map(|_| match rng.below(7) {
                    0 | 4 => 'a',
                    1 | 5 => 'b',
                    2 => 'c',
                    _ => 'd',
                })
                .collect();
            let symbols = chars.iter().map(|&c| c as u32 - 'a' as u32).collect();
            Record::standalone(id, symbols, chars.into_iter().collect())
        })
        .collect()
}

/// How a [`DemoLstmExtractor`] post-processes raw activations.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum UnitMix {
    /// Raw LSTM activations (the server demo catalog).
    Raw,
    /// `fig_pushdown`'s mix: units ≡ 0 (mod 4) constant, ≡ 1 (mod 4)
    /// saturated to ±1, the rest raw — what trained gates look like to
    /// the zone map and the block codecs.
    Saturated,
}

/// Owned char-LSTM extractor over the demo alphabet, fingerprinted by its
/// weights (and mix) so store columns survive across sessions.
pub struct DemoLstmExtractor {
    pub model: CharLstmModel,
    pub mix: UnitMix,
}

impl DemoLstmExtractor {
    pub fn new(units: usize, mix: UnitMix) -> DemoLstmExtractor {
        DemoLstmExtractor {
            model: CharLstmModel::new(4, units, OutputMode::LastStep, 42),
            mix,
        }
    }
}

impl Extractor for DemoLstmExtractor {
    fn n_units(&self) -> usize {
        self.model.hidden()
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        if records.is_empty() {
            return Matrix::zeros(0, unit_ids.len());
        }
        let inputs: Vec<Vec<u32>> = records.iter().map(|r| r.symbols.clone()).collect();
        let full = self.model.extract_activations(&inputs);
        let mut out = Matrix::zeros(full.rows(), unit_ids.len());
        for r in 0..full.rows() {
            let src = full.row(r);
            for (dst, &u) in out.row_mut(r).iter_mut().zip(unit_ids) {
                *dst = match (self.mix, u % 4) {
                    (UnitMix::Saturated, 0) => 0.5,
                    (UnitMix::Saturated, 1) => {
                        if src[u] >= 0.0 {
                            1.0
                        } else {
                            -1.0
                        }
                    }
                    _ => src[u],
                };
            }
        }
        out
    }

    fn fingerprint(&self) -> Option<u64> {
        let salt = match self.mix {
            UnitMix::Raw => 0,
            UnitMix::Saturated => 0x7075_7368_646f_776e,
        };
        Some(char_model_fingerprint(&self.model) ^ salt)
    }
}

/// The demo catalog shape: model `probe` (layer = uid % 2), hypothesis
/// sets `chars` and `position`, and the given datasets.
pub fn demo_catalog(extractor: Arc<dyn Extractor>, datasets: Vec<(&str, Arc<Dataset>)>) -> Catalog {
    let units = extractor.n_units();
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "probe",
        5,
        extractor,
        (0..units)
            .map(|uid| UnitMeta {
                uid,
                layer: (uid % 2) as i64,
            })
            .collect(),
    );
    catalog.add_hypotheses(
        "chars",
        vec![
            Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a')),
            Arc::new(FnHypothesis::char_class("is_b", |c| c == 'b')),
            Arc::new(FnHypothesis::char_class("is_c", |c| c == 'c')),
        ],
    );
    catalog.add_hypotheses("position", vec![Arc::new(FnHypothesis::position_counter())]);
    for (name, dataset) in datasets {
        catalog.add_dataset(name, dataset);
    }
    catalog
}

/// The shared body of every in-process INSPECT workload: a fresh session
/// per op over `catalog`, answers checked against `reference`, per-op
/// counters recorded. With `warm` set, any extractor forward pass is a
/// failure (the store must serve every column).
pub struct InspectLoop {
    pub tracer: Arc<Tracer>,
    pub config: SessionConfig,
    pub statements: Vec<String>,
    pub reference: Vec<Table>,
    pub warm: bool,
}

impl InspectLoop {
    pub fn statements(&self) -> Vec<&str> {
        self.statements.iter().map(String::as_str).collect()
    }

    /// One op over `catalog` (already instrumented).
    pub fn op(&self, catalog: Catalog, rec: &mut Recorder) {
        rec.tick();
        let before = self.tracer.counts();
        let result = inspect_op(
            &self.tracer,
            catalog,
            self.config.clone(),
            &self.statements(),
        );
        let wrapped = self.tracer.counts().since(&before);
        rec.push("core.extract.calls", wrapped.extract_calls as f64);
        rec.push("core.extract.records", wrapped.extract_records as f64);
        rec.push("core.hypothesis.calls", wrapped.hypothesis_calls as f64);
        match result {
            Err(e) => rec.op(Err(format!("inspect failed: {e}"))),
            Ok((out, session, elapsed)) => {
                rec.time("inspect_ms", elapsed);
                rec.report(&out.report, session.stats());
                let mut check = check_tables(&out.tables, &self.reference);
                if check.is_ok() && self.warm && wrapped.extract_calls != 0 {
                    check = Err(format!(
                        "warm op ran {} extractor forward passes",
                        wrapped.extract_calls
                    ));
                }
                if check.is_ok() && out.report.query_errors.iter().any(Option::is_some) {
                    check = Err("a query of the batch failed".into());
                }
                rec.op(check);
            }
        }
    }
}

/// `query::parse`, `plan::bind` and `plan::optimize_store` on the
/// workload's statements (milliseconds per batch).
pub fn plan_probes(
    catalog: &Catalog,
    inspection: &InspectionConfig,
    statements: &[&str],
    binding: Option<&StoreBinding>,
    rec: &mut Recorder,
) {
    const REPS: usize = 30;
    rec.push(
        "core.query.parse_ms",
        probe_ms(REPS, || {
            for s in statements {
                std::hint::black_box(parse(s).expect("statement parses"));
            }
        }),
    );
    let parsed: Vec<_> = statements
        .iter()
        .map(|s| parse(s).expect("parses"))
        .collect();
    rec.push(
        "core.plan.bind_ms",
        probe_ms(REPS, || {
            for q in &parsed {
                std::hint::black_box(bind(q, catalog).expect("statement binds"));
            }
        }),
    );
    let plans: Vec<Arc<LogicalPlan>> = parsed
        .iter()
        .map(|q| Arc::new(bind(q, catalog).expect("binds")))
        .collect();
    rec.push(
        "core.plan.optimize_ms",
        probe_ms(REPS, || {
            std::hint::black_box(optimize_store(
                &plans,
                inspection,
                AdmissionConfig::default(),
                binding,
            ));
        }),
    );
}

/// `StreamingPearson::push_block_strided` at the workload's block shape:
/// every unit column of one `rows x units` block against one hypothesis
/// column (milliseconds per block per hypothesis).
pub fn pearson_probe(rows: usize, units: usize, rec: &mut Recorder) {
    let block = Matrix::from_fn(rows, units, |r, c| ((r * 31 + c * 17) % 97) as f32 / 97.0);
    let hyp: Vec<f32> = (0..rows).map(|r| (r % 3 == 0) as u8 as f32).collect();
    rec.push(
        "stats.pearson_ms",
        probe_ms(50, || {
            let mut states = vec![deepbase_stats::StreamingPearson::new(); units];
            for (u, state) in states.iter_mut().enumerate() {
                state.push_block_strided(block.as_slice(), u, units, &hyp);
            }
            std::hint::black_box(&states);
        }),
    );
}

/// `Matrix::matmul` at `m x k · k x n` (milliseconds and flop per call).
pub fn matmul_probe(m: usize, k: usize, n: usize, rec: &mut Recorder) {
    let a = Matrix::from_fn(m, k, |r, c| ((r + 2 * c) % 13) as f32 / 13.0);
    let b = Matrix::from_fn(k, n, |r, c| ((3 * r + c) % 11) as f32 / 11.0);
    rec.push(
        "tensor.matmul_ms",
        probe_ms(50, || {
            std::hint::black_box(a.matmul(&b));
        }),
    );
    rec.push("tensor.matmul_flops", (2 * m * k * n) as f64);
}

/// The store-side layers on a populated store: `BehaviorStore::open`,
/// `scan_into` over every listed column with a cold then a filled pool,
/// and `format::read_block` per block of one column file.
pub fn store_probes(
    config: &StoreConfig,
    model_fp: u64,
    dataset: &Dataset,
    units: &[usize],
    rec: &mut Recorder,
) {
    rec.push(
        "store.open_ms",
        probe_ms(10, || {
            std::hint::black_box(BehaviorStore::open(config).expect("store opens"));
        }),
    );
    let (nd, ns) = (dataset.len(), dataset.ns);
    let dataset_fp = dataset.content_fingerprint();
    let positions: Vec<usize> = (0..nd).collect();
    let key = |unit| ColumnKey {
        model_fp,
        dataset_fp,
        unit,
    };
    let scan_all = |store: &BehaviorStore| {
        let mut out = vec![0f32; nd * ns * units.len()];
        let mut stats = StoreStats::default();
        for (col, &unit) in units.iter().enumerate() {
            store
                .scan_into(
                    &key(unit),
                    nd,
                    ns,
                    &positions,
                    &mut out,
                    units.len(),
                    col,
                    true,
                    &mut stats,
                )
                .expect("stored column scans");
        }
        std::hint::black_box(out);
    };
    let mut cold = Vec::new();
    let mut hot = Vec::new();
    for _ in 0..5 {
        let store = BehaviorStore::open(config).expect("store opens");
        cold.push(crate::harness::timed(|| scan_all(&store)).1);
        hot.push(crate::harness::timed(|| scan_all(&store)).1);
    }
    rec.push("store.scan_cold_ms", crate::stats::median(&cold));
    rec.push("store.scan_hot_ms", crate::stats::median(&hot));

    let path = config
        .path
        .join(format!("{model_fp:016x}.{dataset_fp:016x}"))
        .join(format!("u{}.col", units[units.len() - 1]));
    read_block_probe(&path, rec);
}

/// `format::read_block` over every block of one column file (median
/// milliseconds per block).
pub fn read_block_probe(path: &Path, rec: &mut Recorder) {
    let mut file = std::fs::File::open(path).expect("column file exists");
    let column = format::read_meta(&mut file).expect("column metadata reads");
    let mut per_block = Vec::new();
    for _ in 0..5 {
        for b in 0..column.meta.n_blocks() {
            per_block.push(
                crate::harness::timed(|| {
                    format::read_block(&mut file, &column, b).expect("block reads")
                })
                .1,
            );
        }
    }
    rec.push(
        "store.format.read_block_ms",
        crate::stats::median(&per_block),
    );
}

/// `write_column` of one `nd x ns` column into a scratch store
/// (milliseconds per column, fsync included).
pub fn write_column_probe(dir: &Path, nd: usize, ns: usize, rec: &mut Recorder) {
    let store = BehaviorStore::open(&StoreConfig::at(dir.join("probe-write"))).expect("opens");
    let data: Vec<f32> = (0..nd * ns).map(|i| (i % 101) as f32 / 101.0).collect();
    let mut unit = 0;
    rec.push(
        "store.write_column_ms",
        probe_ms(20, || {
            unit += 1;
            let key = ColumnKey {
                model_fp: 1,
                dataset_fp: 2,
                unit,
            };
            store
                .write_column(&key, nd, ns, &data)
                .expect("column writes");
        }),
    );
}

/// `ViewCatalog::save` / `load` of a stored view document.
pub fn view_probes(store: &BehaviorStore, view: &str, rec: &mut Recorder) {
    let doc = store
        .views()
        .load(view)
        .expect("view loads")
        .expect("view exists");
    let mut probe = (*doc).clone();
    probe.name = format!("{view}-probe");
    rec.push(
        "store.views.save_ms",
        probe_ms(20, || {
            store.views().save(&probe).expect("view saves");
        }),
    );
    // `load` serves unchanged files from memory; a fresh catalog handle
    // per call measures the read + checksum + decode path.
    rec.push(
        "store.views.load_ms",
        probe_ms(20, || {
            let fresh = ViewCatalog::open(store.root(), true);
            std::hint::black_box(fresh.load(&probe.name).expect("view loads"));
        }),
    );
    let _ = store.views().remove(&probe.name);
}
