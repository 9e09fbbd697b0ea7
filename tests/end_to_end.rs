//! Cross-crate integration tests: the full pipeline — PCFG sampling,
//! window datasets, LSTM training, extraction, inspection engines,
//! verification and the INSPECT query language — exercised together the
//! way the paper's evaluation uses them.

use deepbase::prelude::*;
use deepbase::verify::{verify_units, VerifyConfig};
use deepbase::workloads::{nmt, paren, sql};
use std::sync::Arc;

fn small_sql_workload() -> sql::SqlWorkload {
    sql::build(&sql::SqlWorkloadConfig {
        n_queries: 24,
        max_records: 256,
        ..Default::default()
    })
}

#[test]
fn sql_pipeline_end_to_end() {
    let workload = small_sql_workload();
    let snapshots = sql::train_model(&workload, 24, 2, 0.02, 0);
    let model = snapshots.last().unwrap();

    let extractor = CharModelExtractor::new(model);
    let corr = CorrelationMeasure;
    let hyps: Vec<&dyn HypothesisFn> = workload
        .hypotheses
        .iter()
        .take(6)
        .map(|h| h as &dyn HypothesisFn)
        .collect();
    let n_hyps = hyps.len();
    let request = InspectionRequest {
        model_id: "sql".into(),
        extractor: &extractor,
        groups: vec![UnitGroup::all(model.hidden())],
        dataset: &workload.dataset,
        hypotheses: hyps,
        measures: vec![&corr],
    };
    let (frame, profile) = inspect(&request, &InspectionConfig::default()).unwrap();
    assert_eq!(frame.len(), n_hyps * model.hidden());
    assert!(frame
        .rows
        .iter()
        .all(|r| (-1.0..=1.0).contains(&r.unit_score)));
    assert!(profile.records_read > 0);
}

#[test]
fn trained_model_has_stronger_keyword_affinity_than_untrained() {
    let workload = small_sql_workload();
    let snapshots = sql::train_model(&workload, 24, 5, 0.02, 1);
    let untrained = &snapshots[0];
    let trained = snapshots.last().unwrap();

    // Probe with logreg over all units against the select keyword rule.
    let logreg = LogRegMeasure::l2(0.001);
    let select_hyp = workload
        .hypotheses
        .iter()
        .find(|h| h.id() == "select_kw:time")
        .unwrap();
    let run = |model: &deepbase_nn::CharLstmModel| {
        let extractor = CharModelExtractor::new(model);
        let request = InspectionRequest {
            model_id: "m".into(),
            extractor: &extractor,
            groups: vec![UnitGroup::all(model.hidden())],
            dataset: &workload.dataset,
            hypotheses: vec![select_hyp as &dyn HypothesisFn],
            measures: vec![&logreg],
        };
        inspect(&request, &InspectionConfig::default())
            .unwrap()
            .0
            .group_score("logreg_l2", "select_kw:time")
            .unwrap()
    };
    let trained_f1 = run(trained);
    let untrained_f1 = run(untrained);
    // The keyword position is predictable from a trained LSTM's state; an
    // untrained one provides a weaker signal (Fig. 12b's contrast).
    assert!(
        trained_f1 >= untrained_f1 - 0.05,
        "trained {trained_f1} vs untrained {untrained_f1}"
    );
    assert!(trained_f1 > 0.5, "trained probe F1 {trained_f1}");
}

#[test]
fn engines_agree_on_a_real_model() {
    let workload = small_sql_workload();
    let snapshots = sql::train_model(&workload, 16, 1, 0.02, 2);
    let model = snapshots.last().unwrap();
    let extractor = CharModelExtractor::new(model);
    let corr = CorrelationMeasure;
    let hyp = workload
        .hypotheses
        .iter()
        .find(|h| h.id() == "from_kw:time")
        .unwrap();

    let run = |engine: EngineKind| {
        let request = InspectionRequest {
            model_id: "m".into(),
            extractor: &extractor,
            groups: vec![UnitGroup::all(model.hidden())],
            dataset: &workload.dataset,
            hypotheses: vec![hyp as &dyn HypothesisFn],
            measures: vec![&corr],
        };
        let config = InspectionConfig {
            epsilon: Some(1e-5),
            ..Default::default()
        };
        inspect_as(engine, &request, &config)
            .unwrap()
            .0
            .unit_scores("corr", "from_kw:time")
    };
    let pybase = run(EngineKind::PyBase);
    let deepbase_scores = run(EngineKind::DeepBase);
    let madlib = run(EngineKind::Madlib);
    for ((u, a), ((_, b), (_, c))) in pybase.iter().zip(deepbase_scores.iter().zip(madlib.iter())) {
        assert!((a - b).abs() < 0.02, "unit {u}: pybase {a} vs deepbase {b}");
        assert!((a - c).abs() < 0.02, "unit {u}: pybase {a} vs madlib {c}");
    }
}

#[test]
fn specialized_units_outscore_free_units_and_verify() {
    let workload = paren::build(&paren::ParenWorkloadConfig {
        n_strings: 64,
        ns: 16,
        seed: 3,
    });
    let model = paren::train_specialized(&workload, 16, 4, 0.7, 15, 4);
    let extractor = CharModelExtractor::new(&model);

    // Correlation of each unit with the paren-symbol hypothesis.
    let hypotheses = paren::hypotheses();
    let corr = CorrelationMeasure;
    let request = InspectionRequest {
        model_id: "paren".into(),
        extractor: &extractor,
        groups: vec![UnitGroup::all(16)],
        dataset: &workload.dataset,
        hypotheses: vec![&hypotheses[0] as &dyn HypothesisFn],
        measures: vec![&corr],
    };
    let (frame, _) = inspect(&request, &InspectionConfig::default()).unwrap();
    let scores = frame.unit_scores("corr", "paren_symbols");
    let spec_mean: f32 = scores.iter().take(4).map(|(_, s)| s.abs()).sum::<f32>() / 4.0;
    let free_mean: f32 = scores.iter().skip(4).map(|(_, s)| s.abs()).sum::<f32>() / 12.0;
    assert!(
        spec_mean > free_mean,
        "specialized mean |r| {spec_mean} vs free {free_mean}"
    );

    // Verification separates the specialized units.
    let alphabet: Vec<u32> = (1..workload.vocab.size() as u32).collect();
    let vocab = workload.vocab.clone();
    let result = verify_units(
        &extractor,
        &workload.dataset,
        &hypotheses[0],
        &[0, 1, 2, 3],
        &alphabet,
        &move |s| vocab.char(s),
        &VerifyConfig {
            max_records: 20,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(result.n_baseline() > 0);
    assert!(result.n_treatment() > 0);
    assert!(result.silhouette > 0.0, "silhouette {}", result.silhouette);
}

#[test]
fn nmt_probe_runs_over_encoder_layers() {
    let workload = nmt::build(&nmt::NmtWorkloadConfig {
        n_sentences: 200,
        seed: 5,
    });
    let model = nmt::train_model(&workload, 16, 16, 12, 0.01, 6);
    let extractor = Seq2SeqEncoderExtractor::new(&model);
    let hypotheses = nmt::tag_hypotheses(&workload, &["DT", "."]);
    let hyp_refs: Vec<&dyn HypothesisFn> =
        hypotheses.iter().map(|h| h as &dyn HypothesisFn).collect();
    // Small corpus: give the probe more optimization passes per block so
    // the rare-class hypotheses (one period per sentence) are learnable.
    let logreg = LogRegMeasure {
        inner_epochs: 40,
        ..LogRegMeasure::l2(0.001)
    };
    let request = InspectionRequest {
        model_id: "nmt".into(),
        extractor: &extractor,
        groups: vec![
            UnitGroup::new("layer0", (0..16).collect()),
            UnitGroup::new("layer1", (16..32).collect()),
        ],
        dataset: &workload.dataset,
        hypotheses: hyp_refs,
        measures: vec![&logreg],
    };
    let (frame, _) = inspect(&request, &InspectionConfig::default()).unwrap();
    // 2 groups x 2 hypotheses x 16 units.
    assert_eq!(frame.len(), 2 * 2 * 16);
    // Determiners and periods are frequent, lexically-anchored tags: the
    // trained encoder must carry usable signal for at least one of them
    // (our scaled-down analog of Fig. 12b's mid-range F1 scores).
    let best_f1 = frame
        .rows
        .iter()
        .filter(|r| r.hyp_id == "pos:." || r.hyp_id == "pos:DT")
        .map(|r| r.group_score)
        .fold(0.0f32, f32::max);
    assert!(best_f1 > 0.15, "best tag probe F1 {best_f1}");
}

#[test]
fn inspect_query_over_real_catalog() {
    let workload = small_sql_workload();
    let snapshots = sql::train_model(&workload, 16, 1, 0.02, 7);

    struct Owned(deepbase_nn::CharLstmModel);
    impl Extractor for Owned {
        fn n_units(&self) -> usize {
            self.0.hidden()
        }
        fn extract(&self, records: &[&Record], units: &[usize]) -> deepbase_tensor::Matrix {
            CharModelExtractor::new(&self.0).extract(records, units)
        }
    }

    let mut catalog = Catalog::new();
    for (epoch, model) in snapshots.into_iter().enumerate() {
        catalog.add_model("sqlparser", epoch as i64, Arc::new(Owned(model)));
    }
    catalog.add_hypotheses(
        "keywords",
        sql::keyword_hypotheses()
            .into_iter()
            .take(3)
            .map(|h| Arc::new(h) as Arc<dyn HypothesisFn>)
            .collect(),
    );
    catalog.add_dataset("seq", Arc::new(workload.dataset.clone()));

    let table = Session::new(catalog)
        .run(
            "SELECT M.epoch, S.uid, S.unit_score \
             INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
             FROM models M, units U, hypotheses H, inputs D \
             WHERE M.mid = 'sqlparser' AND M.epoch = 1 \
             HAVING S.unit_score > -2.0",
        )
        .unwrap();
    // epoch-1 model only: 16 units x 3 hypotheses.
    assert_eq!(table.len(), 48);
}

#[test]
fn result_frames_post_process_relationally() {
    let workload = small_sql_workload();
    let snapshots = sql::train_model(&workload, 16, 1, 0.02, 8);
    let model = snapshots.last().unwrap();
    let extractor = CharModelExtractor::new(model);
    let corr = CorrelationMeasure;
    let hyps: Vec<&dyn HypothesisFn> = workload
        .hypotheses
        .iter()
        .take(4)
        .map(|h| h as &dyn HypothesisFn)
        .collect();
    let request = InspectionRequest {
        model_id: "sql".into(),
        extractor: &extractor,
        groups: vec![UnitGroup::all(model.hidden())],
        dataset: &workload.dataset,
        hypotheses: hyps,
        measures: vec![&corr],
    };
    let (frame, _) = inspect(&request, &InspectionConfig::default()).unwrap();

    // The §4.1 post-processing path: results land in the relational
    // engine and are filtered/grouped with SQL-style operators.
    let table = frame.to_table();
    let mut stats = deepbase_relational::ExecStats::default();
    let high = deepbase_relational::select(&table, &mut stats, |t, r| {
        t.value(r, "val").unwrap().as_f32().unwrap().abs() > 0.5
    });
    let grouped = deepbase_relational::aggregate(
        &high,
        &mut stats,
        &["hyp_id"],
        &[deepbase_relational::AggFn::Count],
    )
    .unwrap();
    // Sanity: groups partition the filtered rows.
    let total: i64 = (0..grouped.len())
        .map(|r| grouped.value(r, "count").unwrap().as_i64().unwrap())
        .sum();
    assert_eq!(total as usize, high.len());
}
