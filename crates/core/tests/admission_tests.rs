//! Admission through a session's scheduler: bounded batches on the
//! parallel device never deadlock, and a view pass is charged at its
//! wave's widths.
//!
//! The deadlock test is a regression loop under a watchdog (as the
//! runtime's `pool_drop_stress`): six groups, each nearly as wide as the
//! stream budget, on `Device::Parallel(3)`. Were the groups fanned out
//! across the runtime pool, a wave holding the permit could pop a sibling
//! group's job while its own pass waits on scoped work, and that job
//! would wait forever for the permit the helping wave holds. A hang
//! fails after 30 s of silence instead of blocking.

mod common;

use common::bare;
use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_relational::Table;
use deepbase_tensor::Matrix;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const NS: usize = 6;
const UNITS: usize = 32;
const DATASETS: usize = 6;
const PER_DATASET: usize = 48;
/// One statement per dataset: 32 unit columns + 1 hypothesis column.
const WIDTH: usize = UNITS + 1;
/// Fits one group's wave, never two.
const STREAM_BUDGET: usize = 40;
const BATCHES: usize = 50;
/// Longest silence the watchdog accepts; one batch takes milliseconds.
const SILENCE: Duration = Duration::from_secs(30);

fn text_of(id: usize) -> String {
    (0..NS)
        .map(|t| match (id * 5 + t * 3) % 4 {
            0 | 2 => 'a',
            1 => 'b',
            _ => 'c',
        })
        .collect()
}

fn record(id: usize) -> Record {
    let text = text_of(id);
    Record::standalone(id, text.chars().map(|c| c as u32).collect(), text)
}

/// Six datasets over disjoint record ids behind one 32-unit
/// `PrecomputedExtractor`, one single-hypothesis set.
fn catalog() -> Catalog {
    let rows = DATASETS * PER_DATASET * NS;
    let behaviors = Matrix::from_fn(rows, UNITS, |r, u| {
        let noise = ((r * (u + 3) * 31 + u * 7) % 101) as f32 / 101.0 - 0.5;
        let signal = if text_of(r / NS).as_bytes()[r % NS] == b'a' {
            1.0
        } else {
            0.0
        };
        if u % 3 == 0 {
            0.6 * signal + 0.4 * noise
        } else {
            noise
        }
    });
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m",
        0,
        Arc::new(PrecomputedExtractor::new(behaviors, NS)),
        (0..UNITS).map(|uid| UnitMeta { uid, layer: 0 }).collect(),
    );
    catalog.add_hypotheses(
        "h",
        vec![Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a'))],
    );
    for k in 0..DATASETS {
        let records = (k * PER_DATASET..(k + 1) * PER_DATASET)
            .map(record)
            .collect();
        let name = format!("d{k}");
        catalog.add_dataset(&name, Arc::new(Dataset::new(&name, NS, records).unwrap()));
    }
    catalog
}

fn statements() -> Vec<String> {
    (0..DATASETS)
        .map(|k| {
            format!(
                "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
                 FROM models M, units U, hypotheses H, inputs D WHERE D.name = 'd{k}'"
            )
        })
        .collect()
}

fn inspection(device: Device) -> InspectionConfig {
    InspectionConfig {
        device,
        block_records: 8,
        epsilon: Some(1e-12),
        ..InspectionConfig::default()
    }
}

#[test]
fn bounded_batches_on_the_parallel_device_never_deadlock() {
    let catalog = catalog();
    let statements = statements();
    let reference: Vec<Table> = statements
        .iter()
        .map(|q| {
            bare(&catalog, &inspection(Device::SingleCore))
                .run(q)
                .unwrap()
        })
        .collect();
    let template = Session::with_config(
        catalog.clone(),
        SessionConfig {
            inspection: inspection(Device::Parallel(3)),
            admission: AdmissionConfig {
                max_stream_width: Some(STREAM_BUDGET),
                max_scan_width: None,
            },
            // Every batch must execute its six waves.
            reuse_scores: false,
            ..SessionConfig::default()
        },
    );
    // Half the batches run through the template, the other half
    // alternate between two forks on a second thread, so the two threads
    // contend for the one budget.
    let forks = [template.fork(catalog.clone()), template.fork(catalog)];
    let scheduler = Arc::clone(template.scheduler());
    let (progress, watchdog) = channel::<String>();
    let runs = [(vec![template], 0), (forks.into(), 1)].map(|(mut sessions, lane)| {
        let (progress, statements, reference) =
            (progress.clone(), statements.clone(), reference.clone());
        thread::spawn(move || {
            let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
            for batch in (lane..BATCHES).step_by(2) {
                let n = sessions.len();
                let out = sessions[batch / 2 % n].run_batch(&refs).unwrap();
                assert_eq!(out.tables, reference, "batch {batch}");
                assert_eq!(out.report.groups.len(), DATASETS, "batch {batch}");
                let _ = progress.send(format!("batch {batch}"));
            }
        })
    });
    drop(progress);
    let mut last = String::from("none");
    loop {
        match watchdog.recv_timeout(SILENCE) {
            Ok(done) => last = done,
            // Both loops finished and dropped their senders.
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => panic!(
                "admission deadlock: no batch finished for {SILENCE:?} \
                 (last finished: {last})"
            ),
        }
    }
    for run in runs {
        run.join().expect("a batch loop panicked");
    }
    let stats = scheduler.stats();
    assert_eq!(stats.waves_admitted, (BATCHES * DATASETS) as u64);
    assert_eq!(
        stats.peak_stream_width, WIDTH,
        "one {WIDTH}-wide wave in flight at a time under budget {STREAM_BUDGET}"
    );
}

/// A view build is a one-item plan: its single wave is admitted at the
/// wave's own `(extract, scan)` widths — the hypothesis columns
/// deduplicated by function identity plus the unit columns the store
/// cannot serve, and the stored columns on the scan budget — not at every
/// union unit plus every hypothesis the statement names.
#[test]
fn a_view_pass_is_charged_at_its_wave_widths() {
    let dir = std::env::temp_dir().join(format!("deepbase-admission-view-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut catalog = catalog();
    // `is_b` is named by two sets: four mentions, three columns.
    let is_b: Arc<dyn HypothesisFn> = Arc::new(FnHypothesis::char_class("is_b", |c| c == 'b'));
    catalog.add_hypotheses(
        "more",
        vec![
            Arc::clone(&is_b),
            Arc::new(FnHypothesis::char_class("is_c", |c| c == 'c')),
        ],
    );
    catalog.add_hypotheses("again", vec![is_b]);
    let store = StoreConfig {
        block_records: 16,
        ..StoreConfig::at(&dir)
    };
    let config = SessionConfig {
        inspection: inspection(Device::SingleCore),
        admission: AdmissionConfig {
            max_stream_width: Some(STREAM_BUDGET),
            max_scan_width: None,
        },
        store: Some(store),
        ..SessionConfig::default()
    };
    // Warm half the units: a first session stores columns 0..16.
    let mut warmup = Session::with_config(catalog.clone(), config.clone());
    let warmed = warmup
        .run(
            "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
             FROM models M, units U, hypotheses H, inputs D \
             WHERE D.name = 'd0' AND U.uid < 16 AND H.name = 'h'",
        )
        .unwrap();
    assert!(!warmed.is_empty());
    drop(warmup);

    let view = "SELECT S.uid, S.hyp_id, S.unit_score INSPECT U.uid AND H.h USING corr \
                OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                WHERE D.name = 'd0'";
    let (mentions, hyps, stored) = (4, 3, 16);
    let extract = UNITS - stored + hyps;
    let mut session = Session::with_config(catalog, config);
    let explain = session.explain(view).unwrap();
    assert!(
        explain.contains(&format!(
            "admission: 1 wave (extract width {extract} <= bound {STREAM_BUDGET}; \
             {stored} columns on the scan budget)"
        )),
        "got:\n{explain}"
    );
    session.create_view("v", view).unwrap();
    let stats = session.scheduler().stats();
    assert_eq!(stats.waves_admitted, 1, "a view pass is one wave");
    assert_eq!(
        stats.peak_stream_width,
        extract,
        "charged at the wave's extract width, not {} (every union unit plus every mention)",
        UNITS + mentions
    );
    assert_eq!(stats.peak_scan_width, stored);
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}
