//! `append_refresh`: the write side of the store next to the read side.
//! A dataset grows by sealed segments while one named view and one
//! uncovered statement are kept answered; the buffer pool holds a quarter
//! of the final decoded working set and the disk budget forces eviction,
//! so the data is larger than every cache.

use super::{
    demo_catalog, demo_records, full_stream, plan_probes, view_probes, write_column_probe,
    DemoLstmExtractor, UnitMix,
};
use crate::harness::{
    check_tables, copy_dir, dir_bytes, execute_traced, instrument, reference_config, Env, Recorder,
    Workload,
};
use crate::trace::Tracer;
use deepbase::prelude::*;
use deepbase_relational::Table;
use std::path::PathBuf;
use std::sync::Arc;

const VIEW: &str = "dashboard";
const VIEW_STATEMENT: &str =
    "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D WHERE H.name = 'chars'";
/// Matches no view, so it is answered by a (warm, segmented) execution.
const UNCOVERED_STATEMENT: &str =
    "SELECT S.uid, S.hyp_id, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D WHERE H.name = 'position'";
const NS: usize = 16;
const APPENDS: usize = 4;
const VIEW_READS: usize = 4;

pub struct AppendRefresh {
    tracer: Arc<Tracer>,
    /// Instrumented catalog holding the base segment only.
    catalog: Catalog,
    plain: Catalog,
    config: SessionConfig,
    /// The store as set-up left it: base columns plus the built view.
    base_dir: PathBuf,
    work_dir: PathBuf,
    segments: Vec<Vec<Record>>,
    /// Reference answers after `k` appends: `(view, uncovered)`.
    reference: Vec<(Table, Table)>,
    raw_bytes_per_record: u64,
}

impl AppendRefresh {
    fn store_config(&self) -> &StoreConfig {
        self.config.store.as_ref().expect("store configured")
    }

    fn fresh_store(&self) {
        let _ = std::fs::remove_dir_all(&self.work_dir);
        copy_dir(&self.base_dir, &self.work_dir).expect("copy base store");
    }
}

impl Workload for AppendRefresh {
    fn iterate(&mut self, rec: &mut Recorder) {
        self.fresh_store();
        let store_root = &self.store_config().path;
        let mut session = Session::with_config(self.catalog.clone(), self.config.clone());
        let t = &self.tracer;
        for round in 1..=APPENDS {
            let (want_view, want_uncovered) = &self.reference[round];

            let before = t.counts();
            let refreshed = rec.timed_op(t, "refresh", "refresh_ms", || {
                {
                    let _span = t.span("core.session.append");
                    session.append_records("seq", self.segments[round].clone())
                }
                .and_then(|()| {
                    let _span = t.span("core.session.refresh_view");
                    session.refresh_view(VIEW)
                })
            });
            // The forward passes of a refresh: the appended segment only.
            let wrapped = t.counts().since(&before);
            rec.push("core.extract.calls", wrapped.extract_calls as f64);
            rec.push("core.extract.records", wrapped.extract_records as f64);
            rec.op(match refreshed {
                Ok(ViewRefresh::Incremental { new_segments: 1 }) => Ok(()),
                other => Err(format!("refresh after append {round}: {other:?}")),
            });

            for _ in 0..VIEW_READS {
                let table = rec.timed_op(t, "view_read", "view_read_ms", || {
                    let _span = t.span("core.session.read_view");
                    session.read_view(VIEW)
                });
                rec.op(match table {
                    Ok(table) => check_tables(&[table], std::slice::from_ref(want_view)),
                    Err(e) => Err(format!("view read: {e}")),
                });
            }

            let out = rec.timed_op(t, "inspect", "inspect_ms", || {
                execute_traced(t, &mut session, &[UNCOVERED_STATEMENT])
            });
            let check = match out {
                Ok(out) => {
                    rec.report(&out.report, session.stats());
                    check_tables(&out.tables, std::slice::from_ref(want_uncovered))
                }
                Err(e) => Err(format!("re-inspect: {e}")),
            };
            rec.op(check);
        }

        let report = rec.timed_op(t, "compact", "store.compact_ms", || {
            let _span = t.span("core.session.compact");
            session.compact_store()
        });
        rec.op(report
            .map(|_| ())
            .ok_or_else(|| "no writable store to compact".into()));

        let stats = session.store_stats();
        rec.push("store.columns_evicted", stats.columns_evicted as f64);
        rec.push("store.view_bytes_written", stats.view_bytes_written as f64);
        let appended_raw = (APPENDS * self.segments[1].len()) as u64 * self.raw_bytes_per_record;
        let written = stats.stored_bytes_written + stats.view_bytes_written;
        rec.push(
            "store.bytes_written_per_appended_byte",
            written as f64 / appended_raw as f64,
        );
        let raw_total = appended_raw + self.segments[0].len() as u64 * self.raw_bytes_per_record;
        rec.push(
            "stored_bytes_per_raw_byte",
            dir_bytes(store_root) as f64 / raw_total as f64,
        );
    }

    /// Reopen check: a new session over the directory the last iteration
    /// left behind must read the view back bit-identically.
    fn finish(&mut self, rec: &mut Recorder) {
        let mut grown = self.plain.clone();
        for segment in &self.segments[1..] {
            grown
                .append_to_dataset("seq", segment.clone())
                .expect("append to reference catalog");
        }
        let mut session = Session::with_config(grown, self.config.clone());
        rec.op(match session.read_view(VIEW) {
            Ok(table) => check_tables(&[table], std::slice::from_ref(&self.reference[APPENDS].0))
                .map_err(|e| format!("reopened view: {e}")),
            Err(e) => Err(format!("reopened view read: {e}")),
        });
    }

    fn probes(&mut self, rec: &mut Recorder) {
        self.fresh_store();
        let store = BehaviorStore::open(self.store_config()).expect("store opens");
        let binding = StoreBinding {
            store: Arc::clone(&store),
            policy: MaterializationPolicy::ReadWrite,
            writeback_limit_bytes: self.store_config().writeback_limit_bytes,
        };
        plan_probes(
            &self.plain,
            &self.config.inspection,
            &[UNCOVERED_STATEMENT],
            Some(&binding),
            rec,
        );
        view_probes(&store, VIEW, rec);
        write_column_probe(&self.work_dir, self.segments[1].len(), NS, rec);
        rec.push(
            "store.open_ms",
            crate::harness::probe_ms(10, || {
                std::hint::black_box(BehaviorStore::open(self.store_config()).expect("opens"));
            }),
        );
    }
}

pub fn setup(env: &Env) -> AppendRefresh {
    // Few units and long segments: a refresh fsyncs one column file per
    // unit, and fsync latency on the build box's disk doubles from one
    // minute to the next, so compute has to outweigh it for the numbers
    // to repeat.
    let (base, segment, units) = (
        env.scale.pick(768, 64),
        env.scale.pick(192, 16),
        env.scale.pick(24, 16),
    );
    let mut segments = vec![demo_records(0, base, NS, env.seed)];
    for k in 0..APPENDS {
        segments.push(demo_records(base + k * segment, segment, NS, env.seed));
    }
    let dataset = Dataset::new("seq", NS, segments[0].clone()).expect("base records");
    let plain = demo_catalog(
        Arc::new(DemoLstmExtractor::new(units, UnitMix::Raw)),
        vec![("seq", Arc::new(dataset))],
    );
    let inspection = full_stream(64, env.seed);

    // Store-less, cache-less reference answers after each append.
    let mut reference = Vec::new();
    let mut session = Session::with_config(plain.clone(), reference_config(&inspection));
    for (round, segment) in segments.iter().enumerate() {
        if round > 0 {
            session
                .append_records("seq", segment.clone())
                .expect("reference append");
        }
        let mut tables = session
            .run_batch(&[VIEW_STATEMENT, UNCOVERED_STATEMENT])
            .expect("reference batch")
            .tables;
        let uncovered = tables.pop().expect("two tables");
        reference.push((tables.pop().expect("two tables"), uncovered));
    }

    // The base store: the view built and the uncovered statement's
    // columns materialized over the base segment, unbounded.
    let base_dir = env.dir.join("base");
    let mut base_session = Session::with_config(
        plain.clone(),
        SessionConfig {
            inspection: inspection.clone(),
            store: Some(StoreConfig::at(&base_dir)),
            ..SessionConfig::default()
        },
    );
    base_session
        .create_view(VIEW, VIEW_STATEMENT)
        .expect("view builds");
    base_session.run(UNCOVERED_STATEMENT).expect("base columns");
    drop(base_session);
    let base_columns = dir_bytes(&base_dir);

    let raw_bytes_per_record = (NS * units * std::mem::size_of::<f32>()) as u64;
    let final_records = (base + APPENDS * segment) as u64;
    let work_dir = env.dir.join("work");
    AppendRefresh {
        tracer: Arc::clone(&env.tracer),
        catalog: instrument(&plain, &env.tracer),
        plain,
        config: SessionConfig {
            inspection,
            store: Some(StoreConfig {
                // A quarter of the final decoded working set.
                pool_bytes: (final_records * raw_bytes_per_record / 4) as usize,
                // The base columns fit; the appended segments' columns
                // do not all fit beside them, so compaction must evict.
                disk_budget_bytes: base_columns + base_columns / 4,
                ..StoreConfig::at(&work_dir)
            }),
            ..SessionConfig::default()
        },
        base_dir,
        work_dir,
        segments,
        reference,
        raw_bytes_per_record,
    }
}
