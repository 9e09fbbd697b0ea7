//! The two warm workloads: the store is populated in set-up and every op
//! opens it with a fresh session (cold buffer pool, warm OS cache), so an
//! op pays zero extractor forward passes — asserted — and what remains is
//! store open / decode / pool / gather, hypothesis evaluation and the
//! measure update.

use super::cold::{SqlFixture, SQL_STATEMENT};
use super::{
    demo_catalog, demo_records, full_stream, pearson_probe, plan_probes, store_probes,
    DemoLstmExtractor, InspectLoop, UnitMix,
};
use crate::harness::{dir_bytes, instrument, reference_tables, Env, Recorder, Workload};
use deepbase::prelude::*;
use std::sync::Arc;

/// `fig_pushdown`'s three statements: a HAVING filter over everything, a
/// GROUP BY over one hypothesis set, and a projection over the other.
pub const SCAN_STATEMENTS: [&str; 3] = [
    "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D HAVING S.unit_score > 0.5",
    "SELECT S.group_id, S.uid INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D \
     WHERE H.name = 'chars' GROUP BY U.layer",
    "SELECT S.uid, S.hyp_id, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D WHERE H.name = 'position'",
];

/// What both warm workloads keep after set-up.
struct WarmStore {
    looper: InspectLoop,
    store: StoreConfig,
    plain: Catalog,
    model_fp: u64,
    dataset: Arc<Dataset>,
    units: Vec<usize>,
    stored_bytes_per_raw_byte: f64,
}

impl WarmStore {
    /// Populates the store with one cold read-write pass and proves a
    /// fresh session then answers from it.
    fn populate(
        env: &Env,
        plain: Catalog,
        inspection: InspectionConfig,
        statements: &[&str],
    ) -> WarmStore {
        let store = StoreConfig {
            block_records: 64,
            ..StoreConfig::at(env.dir.join("store"))
        };
        let config = SessionConfig {
            inspection: inspection.clone(),
            store: Some(store.clone()),
            ..SessionConfig::default()
        };
        let reference = reference_tables(&plain, &inspection, statements);
        let populated = Session::with_config(plain.clone(), config.clone())
            .run_batch(statements)
            .expect("populating pass");
        assert_eq!(
            populated.report.store.columns_written,
            plain.models()[0].extractor.n_units(),
            "the cold pass streams everything, so it materializes every column completely"
        );
        let raw = populated.report.store.raw_bytes_written;
        let model = &plain.models()[0];
        let dataset = plain.dataset("seq").expect("dataset registered");
        WarmStore {
            looper: InspectLoop {
                tracer: Arc::clone(&env.tracer),
                config,
                statements: statements.iter().map(|s| s.to_string()).collect(),
                reference,
                warm: true,
            },
            stored_bytes_per_raw_byte: dir_bytes(&store.path) as f64 / raw as f64,
            store,
            model_fp: model.extractor.fingerprint().expect("fingerprinted model"),
            units: (0..model.extractor.n_units()).collect(),
            dataset,
            plain,
        }
    }

    fn op(&self, catalog: Catalog, rec: &mut Recorder) {
        self.looper.op(catalog, rec);
        rec.push("stored_bytes_per_raw_byte", self.stored_bytes_per_raw_byte);
    }

    fn probes(&self, rec: &mut Recorder) {
        let binding = StoreBinding {
            store: BehaviorStore::open(&self.store).expect("store opens"),
            policy: self.store.policy,
            writeback_limit_bytes: self.store.writeback_limit_bytes,
        };
        plan_probes(
            &self.plain,
            &self.looper.config.inspection,
            &self.looper.statements(),
            Some(&binding),
            rec,
        );
        drop(binding);
        store_probes(&self.store, self.model_fp, &self.dataset, &self.units, rec);
        let block = self
            .looper
            .config
            .inspection
            .block_records
            .min(self.dataset.len());
        pearson_probe(block * self.dataset.ns, self.units.len(), rec);
    }
}

pub struct Scan {
    warm: WarmStore,
    catalog: Catalog,
}

impl Workload for Scan {
    fn iterate(&mut self, rec: &mut Recorder) {
        self.warm.op(self.catalog.clone(), rec);
    }

    fn probes(&mut self, rec: &mut Recorder) {
        self.warm.probes(rec);
    }
}

pub fn scan(env: &Env) -> Scan {
    let (nd, ns, units) = (env.scale.pick(1536, 128), 16, env.scale.pick(96, 16));
    let dataset = Dataset::new("seq", ns, demo_records(0, nd, ns, env.seed)).expect("records");
    let plain = demo_catalog(
        Arc::new(DemoLstmExtractor::new(units, UnitMix::Saturated)),
        vec![("seq", Arc::new(dataset))],
    );
    let warm = WarmStore::populate(env, plain, full_stream(64, env.seed), &SCAN_STATEMENTS);
    Scan {
        catalog: instrument(&warm.plain, &env.tracer),
        warm,
    }
}

pub struct SqlHyp {
    warm: WarmStore,
    fixture: SqlFixture,
}

impl Workload for SqlHyp {
    fn iterate(&mut self, rec: &mut Recorder) {
        // A fresh parse cache per op: every op re-parses every source
        // with the Earley parser, as a fresh process would.
        let catalog = instrument(
            &self.fixture.catalog(&ParseCache::new()),
            &self.warm.looper.tracer,
        );
        self.warm.op(catalog, rec);
    }

    fn probes(&mut self, rec: &mut Recorder) {
        self.warm.probes(rec);
    }
}

pub fn sql_hyp(env: &Env) -> SqlHyp {
    let fixture = SqlFixture::build(env, false);
    let plain = fixture.catalog(&ParseCache::new());
    let warm = WarmStore::populate(env, plain, fixture.inspection.clone(), &[SQL_STATEMENT]);
    SqlHyp { warm, fixture }
}
