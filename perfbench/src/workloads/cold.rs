//! The three cold workloads: no store, a fresh session per op, so every
//! op pays extractor forward passes. They differ in extractor family
//! (char-LSTM, seq2seq encoder, CNN) and in measure (Pearson, merged
//! logistic regression, buffered Jaccard).

use super::{full_stream, matmul_probe, pearson_probe, plan_probes, sample_indices, InspectLoop};
use crate::harness::{instrument, probe_ms, reference_tables, Env, Recorder, Workload};
use deepbase::prelude::*;
use deepbase::vision;
use deepbase::workloads::{nmt, sql};
use deepbase_stats::{LogRegConfig, MultiLogReg};
use deepbase_tensor::Matrix;
use std::sync::Arc;

pub struct Cold {
    looper: InspectLoop,
    plain: Catalog,
    catalog: Catalog,
    layer_probes: Box<dyn Fn(&mut Recorder)>,
}

impl Workload for Cold {
    fn iterate(&mut self, rec: &mut Recorder) {
        self.looper.op(self.catalog.clone(), rec);
    }

    fn probes(&mut self, rec: &mut Recorder) {
        plan_probes(
            &self.plain,
            &self.looper.config.inspection,
            &self.looper.statements(),
            None,
            rec,
        );
        (self.layer_probes)(rec);
    }
}

fn cold(
    env: &Env,
    plain: Catalog,
    inspection: InspectionConfig,
    statement: &str,
    layer_probes: Box<dyn Fn(&mut Recorder)>,
) -> Cold {
    let reference = reference_tables(&plain, &inspection, &[statement]);
    Cold {
        looper: InspectLoop {
            tracer: Arc::clone(&env.tracer),
            config: SessionConfig {
                inspection,
                ..SessionConfig::default()
            },
            statements: vec![statement.to_string()],
            reference,
            warm: false,
        },
        catalog: instrument(&plain, &env.tracer),
        plain,
        layer_probes,
    }
}

/// The SQL auto-completion catalog of paper §6.2 at harness scale: a
/// fixed pool of windows over the medium grammar, a char-LSTM trained on
/// it, the first parse hypotheses of the library — and, per `--seed`, the
/// sample of windows a run inspects. Shared with `warm_sql_hyp`.
pub struct SqlFixture {
    pub workload: sql::SqlWorkload,
    pub dataset: Arc<Dataset>,
    pub model: &'static deepbase_nn::CharLstmModel,
    pub n_hypotheses: usize,
    pub inspection: InspectionConfig,
}

pub const SQL_STATEMENT: &str = "SELECT S.uid, S.hyp_id, S.unit_score \
     INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D";

impl SqlFixture {
    pub fn build(env: &Env, prepopulate_parse_cache: bool) -> SqlFixture {
        let records = env.scale.pick(384, 64);
        // The pool and the model are the catalog: the same for every
        // seed, so set-up and per-op work do not depend on it.
        let workload = sql::build(&sql::SqlWorkloadConfig {
            n_queries: records / 3,
            max_records: 2 * records,
            prepopulate_parse_cache,
            ..Default::default()
        });
        let hidden = env.scale.pick(64, 8);
        let model = sql::train_model(&workload, hidden, env.scale.pick(2, 1), 0.02, 0)
            .pop()
            .expect("training returns snapshots");
        let pool = &workload.dataset;
        let sampled = sample_indices(pool.len(), records, env.seed)
            .into_iter()
            .map(|i| pool.records[i].clone())
            .collect();
        SqlFixture {
            dataset: Arc::new(Dataset::new("seq", pool.ns, sampled).expect("sampled windows")),
            workload,
            // The extractor adapters borrow their model; the benchmark
            // process keeps one model per set-up alive for its whole life.
            model: Box::leak(Box::new(model)),
            n_hypotheses: env.scale.pick(16, 4),
            inspection: full_stream(128, env.seed),
        }
    }

    /// A catalog over the fixture whose parse hypotheses share `cache`.
    pub fn catalog(&self, cache: &Arc<ParseCache>) -> Catalog {
        let mut catalog = Catalog::new();
        catalog.add_model(
            "sqlparser",
            0,
            Arc::new(CharModelExtractor::new(self.model)),
        );
        catalog.add_hypotheses(
            "parse",
            ParseHypothesis::library(
                &self.workload.grammar,
                &[
                    deepbase_lang::TreeRepr::Time,
                    deepbase_lang::TreeRepr::Signal,
                ],
                cache,
            )
            .into_iter()
            .take(self.n_hypotheses)
            .map(|h| Arc::new(h) as Arc<dyn HypothesisFn>)
            .collect(),
        );
        catalog.add_dataset("seq", Arc::clone(&self.dataset));
        catalog
    }

    /// Kernel and forward probes at the per-block shapes of this model.
    pub fn forward_probes(&self, rec: &mut Recorder) {
        let block = self.inspection.block_records.min(self.dataset.len());
        let hidden = self.model.hidden();
        // The recurrent product of one LSTM step over a block: B x H
        // times H x 4H (the input product is the same shape or smaller).
        matmul_probe(block, hidden, 4 * hidden, rec);
        let inputs: Vec<Vec<u32>> = self.dataset.records[..block]
            .iter()
            .map(|r| r.symbols.clone())
            .collect();
        rec.push(
            "nn.forward_ms",
            probe_ms(20, || {
                std::hint::black_box(self.model.extract_activations(&inputs));
            }),
        );
        pearson_probe(block * self.dataset.ns, hidden, rec);
    }
}

pub fn sql_corr(env: &Env) -> Cold {
    let fixture = SqlFixture::build(env, true);
    let plain = fixture.catalog(&fixture.workload.parse_cache);
    let inspection = fixture.inspection.clone();
    cold(
        env,
        plain,
        inspection,
        SQL_STATEMENT,
        Box::new(move |rec| {
            fixture.forward_probes(rec);
            // One batched forward per extract call.
            let calls = rec.median("core.extract.calls");
            rec.push("nn.forward_calls", calls);
        }),
    )
}

pub fn nmt_logreg(env: &Env) -> Cold {
    let sentences = env.scale.pick(256, 24);
    // A fixed corpus and model; `--seed` samples the inspected sentences.
    let workload = nmt::build(&nmt::NmtWorkloadConfig {
        n_sentences: 2 * sentences,
        ..Default::default()
    });
    let hidden = env.scale.pick(16, 4);
    let model: &'static deepbase_nn::Seq2Seq = Box::leak(Box::new(nmt::train_model(
        &workload,
        16,
        hidden,
        env.scale.pick(3, 1),
        0.01,
        100,
    )));
    let tags = workload.corpus.observed_tags();
    let tags: Vec<&str> = tags.iter().take(8).map(String::as_str).collect();
    let mut plain = Catalog::new();
    plain.add_model("nmt", 0, Arc::new(Seq2SeqEncoderExtractor::new(model)));
    plain.add_hypotheses(
        "pos",
        nmt::tag_hypotheses(&workload, &tags)
            .into_iter()
            .map(|h| Arc::new(h) as Arc<dyn HypothesisFn>)
            .collect(),
    );
    let sampled = sample_indices(workload.dataset.len(), sentences, env.seed)
        .into_iter()
        .map(|i| workload.dataset.records[i].clone())
        .collect();
    let dataset =
        Arc::new(Dataset::new("seq", workload.dataset.ns, sampled).expect("sampled sentences"));
    plain.add_dataset("seq", Arc::clone(&dataset));
    let inspection = full_stream(64, env.seed);
    let block = inspection.block_records.min(dataset.len());
    let n_hyps = tags.len();
    cold(
        env,
        plain,
        inspection,
        "SELECT S.uid, S.hyp_id, S.unit_score, S.group_score \
         INSPECT U.uid AND H.h USING logreg_l1 OVER D.seq AS S \
         FROM models M, units U, hypotheses H, inputs D",
        Box::new(move |rec| {
            // One encoder LSTM step of one sentence: 1 x H times H x 4H.
            matmul_probe(1, hidden, 4 * hidden, rec);
            rec.push(
                "nn.forward_ms",
                probe_ms(10, || {
                    for r in &dataset.records[..block] {
                        std::hint::black_box(
                            model.encoder_activations_all(&r.symbols[..r.visible]),
                        );
                    }
                }),
            );
            // The encoder runs once per record, not once per block.
            let records = rec.median("core.extract.records");
            rec.push("nn.forward_calls", records);
            // One merged SGD step at the measure's mini-batch shape: 64
            // symbols x all encoder units, one output per hypothesis.
            let x = Matrix::from_fn(64, 2 * hidden, |r, c| ((r * 7 + c * 3) % 19) as f32 / 19.0);
            let y = Matrix::from_fn(64, n_hyps, |r, c| ((r + c) % 4 == 0) as u8 as f32);
            let mut probe = MultiLogReg::new(2 * hidden, n_hyps, LogRegConfig::default());
            rec.push(
                "stats.logreg_step_ms",
                probe_ms(200, || probe.sgd_step(&x, &y)),
            );
        }),
    )
}

pub fn cnn_jaccard(env: &Env) -> Cold {
    const SIZE: usize = 16;
    let n_images = env.scale.pick(256, 16);
    // A fixed image pool and a CNN trained on it; `--seed` samples the
    // inspected images.
    let pool = vision::generate_shape_images(2 * n_images, SIZE, 7);
    let cnn: &'static deepbase_nn::SmallCnn = Box::leak(Box::new(vision::train_shape_cnn(
        &pool[..n_images],
        SIZE,
        env.scale.pick(3, 1),
        0.01,
        8,
    )));
    let images: Vec<vision::ShapeImage> = sample_indices(pool.len(), n_images, env.seed)
        .into_iter()
        .map(|i| pool[i].clone())
        .collect();
    let mut plain = Catalog::new();
    plain.add_model(
        "shape_cnn",
        0,
        Arc::new(vision::CnnPixelExtractor::new(cnn, &images, SIZE)),
    );
    plain.add_hypotheses(
        "concepts",
        vision::concept_hypotheses(&images)
            .into_iter()
            .map(|h| Arc::new(h) as Arc<dyn HypothesisFn>)
            .collect(),
    );
    plain.add_dataset("seq", Arc::new(vision::pixel_dataset(&images, SIZE)));
    let inspection = full_stream(64, env.seed);
    let block = inspection.block_records.min(images.len());
    cold(
        env,
        plain,
        inspection,
        "SELECT S.uid, S.hyp_id, S.unit_score \
         INSPECT U.uid AND H.h USING jaccard OVER D.seq AS S \
         FROM models M, units U, hypotheses H, inputs D",
        Box::new(move |rec| {
            rec.push(
                "nn.forward_ms",
                probe_ms(10, || {
                    for img in &images[..block] {
                        std::hint::black_box(cnn.unit_maps(&img.pixels));
                    }
                }),
            );
            let records = rec.median("core.extract.records");
            rec.push("nn.forward_calls", records);
        }),
    )
}
