//! One round trip through the TCP server, against the same reference as
//! every other parity test: INSPECT, BATCH, VIEW_CREATE → VIEW_READ and
//! an APPEND + re-INSPECT go through `Client` to an in-process
//! `InspectionServer` on an ephemeral port, and every table that comes
//! back over the wire equals, bit for bit, what a bare `Session` over
//! the same catalog answers.

mod common;

use common::bare;
use deepbase::prelude::*;
use deepbase_client::{Client, ViewRefreshOutcome};
use deepbase_relational::Table;
use deepbase_server::wire::{WireBudget, WireRecord, STATUS_CONVERGED};
use deepbase_server::{demo, InspectionServer, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

const ND: usize = 96;
const NS: usize = 12;
const UNITS: usize = 32;
const APPENDED: usize = 32;

/// The statement the view materializes (no HAVING: every score row).
const VIEW_STATEMENT: &str = demo::QUERIES[2];

fn store_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp-server-round-trip")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every cell of a table with floats as bit patterns (`Table`'s own `==`
/// compares floats by value, which lets `-0.0` pass for `0.0`).
fn bits(table: &Table) -> (Vec<String>, Vec<Vec<String>>) {
    let names = table.schema().names().into_iter().map(String::from);
    let rows = (0..table.len()).map(|r| {
        (0..table.schema().arity())
            .map(|c| match table.column_at(c).floats() {
                Some(floats) => format!("{:#010x}", floats[r].to_bits()),
                None => format!("{:?}", table.column_at(c).value(r)),
            })
            .collect()
    });
    (names.collect(), rows.collect())
}

fn assert_same_bits(got: &Table, want: &Table, what: &str) {
    assert!(!want.is_empty(), "{what}: the reference table is empty");
    assert_eq!(bits(got), bits(want), "{what}");
}

#[test]
fn inspect_batch_view_and_append_over_tcp_match_the_bare_session() {
    let passes = Arc::new(AtomicUsize::new(0));
    let mut catalog = demo::catalog_sized(ND, NS, UNITS, &passes);
    let inspection = demo::inspection();
    let reference = |catalog: &Catalog| -> Vec<Table> {
        bare(catalog, &inspection)
            .run_batch(&demo::QUERIES)
            .expect("reference batch")
            .tables
    };
    let before = reference(&catalog);

    let dir = store_dir();
    let session = SessionConfig {
        inspection: inspection.clone(),
        store: Some(StoreConfig {
            block_records: 64,
            ..StoreConfig::at(&dir)
        }),
        ..SessionConfig::default()
    };
    let config = ServerConfig {
        session,
        ..ServerConfig::default()
    };
    let handle = InspectionServer::start("127.0.0.1:0", catalog.clone(), config)
        .expect("bind an ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // INSPECT.
    let answer = client.inspect(demo::QUERIES[0]).expect("INSPECT");
    assert_eq!(answer.status, STATUS_CONVERGED);
    assert_same_bits(&answer.table, &before[0], "INSPECT");

    // BATCH: every statement, in order.
    let batch = client
        .batch(&demo::QUERIES, WireBudget::default())
        .expect("BATCH");
    assert_eq!(batch.status, STATUS_CONVERGED);
    assert_eq!(batch.results.len(), before.len());
    for (i, (got, want)) in batch.results.iter().zip(&before).enumerate() {
        let got = got.as_ref().expect("statement succeeded");
        assert_same_bits(got, want, &format!("BATCH statement {i}"));
    }

    // VIEW_CREATE → VIEW_READ replays the cold answer.
    client
        .create_view("positions", VIEW_STATEMENT)
        .expect("VIEW_CREATE");
    let view = client.read_view("positions").expect("VIEW_READ");
    assert_same_bits(&view, &before[2], "VIEW_READ");

    // APPEND one sealed segment, then re-INSPECT: the reference is a bare
    // session over the same catalog grown by the same records.
    let grown = demo::records(ND + APPENDED, NS).split_off(ND);
    let wire_records = grown
        .iter()
        .map(|r| WireRecord {
            id: r.id as u64,
            symbols: r.symbols.clone(),
            text: r.text.clone(),
        })
        .collect();
    let acknowledged = client.append("seq", wire_records).expect("APPEND");
    assert_eq!(acknowledged, APPENDED as u64);
    catalog
        .append_to_dataset("seq", grown)
        .expect("append to the reference catalog");
    let after = reference(&catalog);
    assert_ne!(bits(&after[0]), bits(&before[0]), "the append moved scores");
    let answer = client.inspect(demo::QUERIES[0]).expect("re-INSPECT");
    assert_eq!(answer.status, STATUS_CONVERGED);
    assert_same_bits(&answer.table, &after[0], "INSPECT after APPEND");

    // The view went stale with the append; an incremental refresh folds
    // the new segment in and reads as the grown dataset's cold answer.
    let refreshed = client.refresh_view("positions").expect("VIEW_REFRESH");
    assert_eq!(
        refreshed,
        ViewRefreshOutcome::Incremental { new_segments: 1 }
    );
    let view = client.read_view("positions").expect("VIEW_READ");
    assert_same_bits(&view, &after[2], "VIEW_READ after refresh");

    // Clean shutdown: acknowledged, drained, nothing failed on the way.
    client.shutdown().expect("SHUTDOWN acknowledged");
    drop(client);
    let stats = handle.stats();
    assert_eq!((stats.query_errors, stats.protocol_errors), (0, 0));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
