//! End-to-end tests of the inspection server over real TCP sockets:
//! bit-identical warm serving, per-connection panic isolation, one
//! admission budget across connections, one hypothesis cache across
//! connections, shutdown drain, and cross-connection appends that leave
//! other connections' plans in place.
//!
//! Every test binds `127.0.0.1:0` (an ephemeral port) so they run in
//! parallel without colliding.

use deepbase::prelude::*;
use deepbase_client::{Client, ClientError};
use deepbase_server::{demo, wire, InspectionServer, ServerConfig, ServerHandle};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Small demo sizing: fast enough for tests, big enough that the
/// workload still streams multiple blocks (block size 64).
const ND: usize = 96;
const NS: usize = 12;
const UNITS: usize = 32;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "deepbase-server-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_config(dir: &PathBuf) -> StoreConfig {
    StoreConfig {
        block_records: 64,
        ..StoreConfig::at(dir)
    }
}

fn session_config(store: Option<StoreConfig>) -> SessionConfig {
    SessionConfig {
        inspection: demo::inspection(),
        store,
        ..SessionConfig::default()
    }
}

fn start_server(catalog: Catalog, session: SessionConfig) -> ServerHandle {
    InspectionServer::start(
        "127.0.0.1:0",
        catalog,
        ServerConfig {
            session,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// Reference answers from a plain in-process library session (no store,
/// live extraction) — the ground truth every serving path must match
/// bit for bit.
fn reference_tables() -> Vec<deepbase_relational::Table> {
    let passes = Arc::new(AtomicUsize::new(0));
    let mut session = Session::with_config(
        demo::catalog_sized(ND, NS, UNITS, &passes),
        session_config(None),
    );
    session
        .run_batch(&demo::QUERIES)
        .expect("reference batch")
        .tables
}

#[test]
fn concurrent_warm_queries_are_bit_identical_with_zero_forward_passes() {
    let reference = reference_tables();

    // Populate the store once with a throwaway library session.
    let dir = temp_dir("warm");
    let populate_passes = Arc::new(AtomicUsize::new(0));
    let mut populate = Session::with_config(
        demo::catalog_sized(ND, NS, UNITS, &populate_passes),
        session_config(Some(store_config(&dir))),
    );
    populate.run_batch(&demo::QUERIES).expect("populate store");
    drop(populate);
    assert!(populate_passes.load(Ordering::SeqCst) > 0);

    // Serve the same catalog (same weights, same fingerprints) from the
    // warm store; the server's own extractor must never run.
    let serve_passes = Arc::new(AtomicUsize::new(0));
    let handle = start_server(
        demo::catalog_sized(ND, NS, UNITS, &serve_passes),
        session_config(Some(store_config(&dir))),
    );
    let addr = handle.addr();

    thread::scope(|scope| {
        for _ in 0..3 {
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (statement, expected) in demo::QUERIES.iter().zip(reference) {
                    let result = client.inspect(statement).expect("inspect over TCP");
                    assert_eq!(result.status, wire::STATUS_CONVERGED);
                    assert_eq!(
                        &result.table, expected,
                        "TCP answer must be bit-identical to the library run"
                    );
                }
            });
        }
    });

    assert_eq!(
        serve_passes.load(Ordering::SeqCst),
        0,
        "warm serving must run zero extractor forward passes"
    );
    let stats = handle.stats();
    assert_eq!(stats.connections, 3);
    assert_eq!(stats.queries_ok, 3 * demo::QUERIES.len() as u64);
    assert_eq!(stats.query_errors, 0);
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_connection_does_not_disturb_siblings() {
    let reference = reference_tables();
    let passes = Arc::new(AtomicUsize::new(0));
    let mut catalog = demo::catalog_sized(ND, NS, UNITS, &passes);
    catalog.add_hypotheses(
        "poison",
        vec![Arc::new(FnHypothesis::new("boom", |_| {
            panic!("poison hypothesis")
        }))],
    );
    let handle = start_server(catalog, session_config(None));
    let addr = handle.addr();

    const POISON: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr \
                          OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                          WHERE H.name = 'poison'";
    // Statements that name their hypothesis set explicitly — an
    // unfiltered `H.h` would bind the poison set too and panic
    // legitimately. These three never touch it.
    let safe: Vec<usize> = vec![1, 2, 4];
    thread::scope(|scope| {
        // One connection repeatedly triggers a worker panic...
        scope.spawn(|| {
            let mut client = Client::connect(addr).expect("connect poison");
            for _ in 0..3 {
                match client.inspect(POISON) {
                    Err(ClientError::Server(e)) => {
                        assert!(
                            matches!(e, DniError::Internal(_)),
                            "contained panic must surface as DniError::Internal, got {e:?}"
                        );
                        assert_eq!(e.code(), 8);
                    }
                    other => panic!("poison query must fail with a server error, got {other:?}"),
                }
            }
            // The connection itself survives its own panics.
            let ok = client.inspect(demo::QUERIES[1]).expect("post-panic query");
            assert_eq!(&ok.table, &reference[1]);
        });
        // ...while sibling connections keep getting exact answers.
        for _ in 0..2 {
            let reference = &reference;
            let safe = &safe;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect sibling");
                for round in 0..3 {
                    for &qi in safe {
                        let result = client.inspect(demo::QUERIES[qi]).expect("sibling inspect");
                        assert_eq!(&result.table, &reference[qi], "round {round} query {qi}");
                    }
                }
            });
        }
    });

    let stats = handle.stats();
    assert_eq!(stats.query_errors, 3);
    assert_eq!(
        stats.queries_ok,
        1 + 2 * 3 * safe.len() as u64,
        "sibling queries (and the post-panic one) all succeed"
    );
}

#[test]
fn concurrent_batches_share_the_global_admission_budget() {
    // Budget of 12 stream columns against 32-unit queries: every batch
    // must split into waves, and *all* waves — across both connections'
    // forks of the template session — acquire permits from one scheduler.
    let passes = Arc::new(AtomicUsize::new(0));
    let handle = start_server(
        demo::catalog_sized(ND, NS, UNITS, &passes),
        SessionConfig {
            admission: AdmissionConfig {
                max_stream_width: Some(12),
                max_scan_width: None,
            },
            ..session_config(None)
        },
    );
    let addr = handle.addr();

    let mut explain_client = Client::connect(addr).expect("connect explain");
    let explain = explain_client.explain(demo::QUERIES[0]).expect("explain");
    // The group's own admission line states the budget it is admitted
    // under: one statement is a lone item, wider than the bound.
    assert!(
        explain.contains("└─ admission: 1 wave (lone item, width ")
            && explain.contains(" > bound 12)"),
        "explain must show the group's admission line:\n{explain}"
    );

    let plans: Vec<PlanStats> = thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect batch");
                    let batch = client
                        .batch(&demo::QUERIES, wire::WireBudget::default())
                        .expect("over-wide batch");
                    for result in &batch.results {
                        assert!(result.is_ok());
                    }
                    batch.plan
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let mut total_waves = 0;
    for plan in &plans {
        assert!(
            plan.admission_splits > 0,
            "a 32-wide group under budget 12 must split: {plan:?}"
        );
        assert!(plan.waves >= 2, "{plan:?}");
        total_waves += plan.waves;
    }
    let sched = handle.scheduler().stats();
    assert_eq!(
        sched.waves_admitted, total_waves as u64,
        "every wave a batch executed acquired a permit from the one scheduler"
    );
    assert!(
        sched.peak_stream_width <= 12,
        "summed in-flight width across connections stayed under the one budget \
         (peak {})",
        sched.peak_stream_width
    );
    assert!(sched.max_queue_depth >= 1);
}

#[test]
fn shutdown_drains_flushes_and_leaves_no_temporaries() {
    let dir = temp_dir("shutdown");
    let passes = Arc::new(AtomicUsize::new(0));
    let handle = start_server(
        demo::catalog_sized(ND, NS, UNITS, &passes),
        session_config(Some(store_config(&dir))),
    );
    let addr = handle.addr();

    let mut client = Client::connect(addr).expect("connect");
    let batch = client
        .batch(&demo::QUERIES, wire::WireBudget::default())
        .expect("populating batch");
    assert!(batch.results.iter().all(Result::is_ok));
    client.shutdown().expect("shutdown acknowledged");
    // Blocks until every handler exited and the final compaction ran.
    handle.join();

    let mut stack = vec![dir.clone()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("store dir readable") {
            let entry = entry.expect("dir entry");
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let name = entry.file_name().to_string_lossy().into_owned();
                assert!(
                    !name.contains(".tmp"),
                    "shutdown must not leave temporaries: {name}"
                );
            }
        }
    }

    // The write-backs that batch produced are durable: a fresh library
    // session over the same store serves the workload with zero passes.
    let warm_passes = Arc::new(AtomicUsize::new(0));
    let mut warm = Session::with_config(
        demo::catalog_sized(ND, NS, UNITS, &warm_passes),
        session_config(Some(store_config(&dir))),
    );
    warm.run_batch(&demo::QUERIES).expect("warm re-read");
    assert_eq!(
        warm_passes.load(Ordering::SeqCst),
        0,
        "columns flushed before shutdown must serve a fresh session warm"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn appends_are_visible_to_every_connection() {
    let passes = Arc::new(AtomicUsize::new(0));
    let handle = start_server(
        demo::catalog_sized(ND, NS, UNITS, &passes),
        session_config(None),
    );
    let addr = handle.addr();

    let mut writer = Client::connect(addr).expect("connect writer");
    let mut reader = Client::connect(addr).expect("connect reader");

    let before = reader.inspect(demo::QUERIES[0]).expect("cold inspect");
    assert_eq!(before.rows_read, ND as u64);

    // Grow the dataset over the wire: 16 fresh records in the demo
    // pattern, appended as one sealed segment.
    let grown = demo::records(ND + 16, NS).split_off(ND);
    let wire_records: Vec<wire::WireRecord> = grown
        .iter()
        .map(|r| wire::WireRecord {
            id: r.id as u64,
            symbols: r.symbols.clone(),
            text: r.text.clone(),
        })
        .collect();
    assert_eq!(writer.append("seq", wire_records).expect("append"), 16);

    // Both the writer's and the reader's next queries see the growth
    // (the reader's session silently rebuilds from the bumped master).
    for client in [&mut writer, &mut reader] {
        let after = client.inspect(demo::QUERIES[0]).expect("warm inspect");
        assert_eq!(after.rows_read, (ND + 16) as u64);
    }
    // And the answer matches an in-process session over the same grown
    // dataset, bit for bit.
    let check_passes = Arc::new(AtomicUsize::new(0));
    let mut check = Session::with_config(
        demo::catalog_sized(ND, NS, UNITS, &check_passes),
        session_config(None),
    );
    check
        .append_records("seq", demo::records(ND + 16, NS).split_off(ND))
        .expect("library append");
    let expected = check.run(demo::QUERIES[0]).expect("library run");
    let over_wire = reader.inspect(demo::QUERIES[0]).expect("post-append");
    assert_eq!(over_wire.table, expected);

    assert_eq!(handle.stats().appends, 1);
}

/// Hypothesis wrapper counting its evaluations.
struct CountingHypothesis {
    inner: FnHypothesis,
    calls: Arc<AtomicUsize>,
}

impl HypothesisFn for CountingHypothesis {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn behavior(&self, record: &Record) -> Result<Vec<f32>, DniError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.behavior(record)
    }
}

/// The demo catalog plus a counted hypothesis set and a second dataset,
/// `feed`, that appends go to.
fn counted_catalog(calls: &Arc<AtomicUsize>) -> Catalog {
    let passes = Arc::new(AtomicUsize::new(0));
    let mut catalog = demo::catalog_sized(ND, NS, UNITS, &passes);
    catalog.add_hypotheses(
        "counted",
        vec![Arc::new(CountingHypothesis {
            inner: FnHypothesis::char_class("is_d", |c| c == 'd'),
            calls: Arc::clone(calls),
        })],
    );
    catalog.add_dataset(
        "feed",
        Arc::new(Dataset::new("feed", NS, demo::records(16, NS)).unwrap()),
    );
    catalog
}

/// Connections are forks of one template session and share its
/// hypothesis cache: a statement one connection ran costs the next no
/// hypothesis call, and an APPEND to a dataset the statement does not
/// read costs none either.
#[test]
fn connections_share_the_hypothesis_cache_and_an_append_elsewhere_costs_no_call() {
    const COUNTED: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr \
                           OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                           WHERE H.name = 'counted' AND D.name = 'seq'";
    let reference_calls = Arc::new(AtomicUsize::new(0));
    let reference = Session::with_config(
        counted_catalog(&reference_calls),
        SessionConfig {
            reuse_scores: false,
            cache_bytes: 0,
            ..session_config(None)
        },
    )
    .run(COUNTED)
    .expect("bare session");

    let calls = Arc::new(AtomicUsize::new(0));
    let handle = start_server(counted_catalog(&calls), session_config(None));
    let mut a = Client::connect(handle.addr()).expect("connect A");
    let mut b = Client::connect(handle.addr()).expect("connect B");

    let first = a.inspect(COUNTED).expect("A inspects");
    assert_eq!(first.table, reference);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        ND,
        "one call per record, ε streams them all"
    );

    let second = b.inspect(COUNTED).expect("B inspects");
    assert_eq!(second.table, reference);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        ND,
        "B's fork is served A's behaviors"
    );

    assert_eq!(a.append("feed", feed_segment()).expect("append"), 16);
    let third = a.inspect(COUNTED).expect("A inspects after its APPEND");
    assert_eq!(third.table, reference);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        ND,
        "the unchanged dataset still costs no call"
    );
    assert_eq!(handle.stats().appends, 1);
}

/// The 16 records appended to `feed`, as records and on the wire.
fn feed_records() -> Vec<Record> {
    demo::records(32, NS).split_off(16)
}

fn feed_segment() -> Vec<wire::WireRecord> {
    feed_records()
        .iter()
        .map(|r| wire::WireRecord {
            id: r.id as u64,
            symbols: r.symbols.clone(),
            text: r.text.clone(),
        })
        .collect()
}

/// Connections keep their sessions across an APPEND from another
/// connection: B's cached plan over `seq` keeps serving (a plan-cache
/// hit, no re-bind), while B's cached plan over `feed` re-binds and sees
/// the appended records.
#[test]
fn an_append_leaves_other_connections_plans_in_place_and_is_visible_to_them() {
    const SEQ: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr \
                       OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                       WHERE H.name = 'counted' AND D.name = 'seq'";
    const FEED: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr \
                        OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                        WHERE H.name = 'counted' AND D.name = 'feed'";
    let calls = Arc::new(AtomicUsize::new(0));
    let handle = start_server(counted_catalog(&calls), session_config(None));
    let mut a = Client::connect(handle.addr()).expect("connect A");
    let mut b = Client::connect(handle.addr()).expect("connect B");
    let budget = wire::WireBudget::default;
    a.batch(&[SEQ], budget()).expect("A's batch");
    let first = b.batch(&[SEQ], budget()).expect("B's batch");
    assert_eq!(
        (first.plan.plan_cache_hits, first.plan.plan_cache_misses),
        (0, 1)
    );
    let feed_before = b.inspect(FEED).expect("B inspects feed").table;

    assert_eq!(a.append("feed", feed_segment()).expect("append"), 16);
    let again = b
        .batch(&[SEQ], budget())
        .expect("B's batch after A's APPEND");
    assert_eq!(
        (again.plan.plan_cache_hits, again.plan.plan_cache_misses),
        (1, 0),
        "B's plan over `seq` is still current"
    );
    assert_eq!(again.results, first.results);

    let mut grown = counted_catalog(&Arc::new(AtomicUsize::new(0)));
    grown.append_to_dataset("feed", feed_records()).unwrap();
    let reference = Session::with_config(
        grown,
        SessionConfig {
            reuse_scores: false,
            cache_bytes: 0,
            ..session_config(None)
        },
    )
    .run(FEED)
    .expect("bare session");
    assert_ne!(reference, feed_before, "the APPEND changed the answer");
    assert_eq!(b.inspect(FEED).expect("B inspects feed").table, reference);
}

#[test]
fn malformed_frames_get_protocol_errors_and_the_connection_survives() {
    use std::io::Write;
    let passes = Arc::new(AtomicUsize::new(0));
    let handle = start_server(
        demo::catalog_sized(ND, NS, UNITS, &passes),
        session_config(None),
    );

    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect raw");
    // A well-framed payload with a bogus opcode.
    let garbage = [0x7fu8, 1, 2, 3];
    raw.write_all(&(garbage.len() as u32).to_be_bytes())
        .unwrap();
    raw.write_all(&garbage).unwrap();
    let payload = wire::read_frame(&mut raw, wire::MAX_FRAME_BYTES).expect("error frame");
    match wire::decode_response(&payload).expect("decodable response") {
        wire::Response::Error { code, .. } => assert_eq!(code, wire::PROTOCOL_ERROR),
        other => panic!("expected a protocol error frame, got {other:?}"),
    }

    // The stream is still at a frame boundary: a real request works.
    let req = wire::encode_request(&wire::Request::Stats);
    raw.write_all(&(req.len() as u32).to_be_bytes()).unwrap();
    raw.write_all(&req).unwrap();
    let payload = wire::read_frame(&mut raw, wire::MAX_FRAME_BYTES).expect("stats frame");
    assert!(matches!(
        wire::decode_response(&payload),
        Ok(wire::Response::Text(_))
    ));
    assert_eq!(handle.stats().protocol_errors, 1);
}

#[test]
fn per_request_budgets_tag_interrupted_answers() {
    let passes = Arc::new(AtomicUsize::new(0));
    let handle = start_server(
        demo::catalog_sized(ND, NS, UNITS, &passes),
        session_config(None),
    );
    let mut client = Client::connect(handle.addr()).expect("connect");

    // One block of 64 records out of 96: the run budget stops the pass
    // early and the status byte says so.
    let capped = client
        .inspect_with_budget(
            demo::QUERIES[0],
            wire::WireBudget {
                deadline_ms: 0,
                max_records: 0,
                max_blocks: 1,
            },
        )
        .expect("budgeted inspect");
    assert_eq!(capped.status, wire::STATUS_BUDGET);
    assert!(capped.rows_read < ND as u64);

    // The same statement unbudgeted converges on the same connection:
    // interrupted frames never poison the score cache.
    let full = client.inspect(demo::QUERIES[0]).expect("full inspect");
    assert_eq!(full.status, wire::STATUS_CONVERGED);
    assert_eq!(full.rows_read, ND as u64);
    assert_eq!(full.table, reference_tables()[0]);
}

/// A request's run budget is its own: after a budgeted INSPECT, the same
/// connection explains like a fresh one and builds a view with a
/// complete pass.
#[test]
fn a_request_budget_does_not_outlive_its_request() {
    let dir = temp_dir("budget-scope");
    let passes = Arc::new(AtomicUsize::new(0));
    let handle = start_server(
        demo::catalog_sized(ND, NS, UNITS, &passes),
        session_config(Some(store_config(&dir))),
    );
    let mut client = Client::connect(handle.addr()).expect("connect");
    let one_block = wire::WireBudget {
        deadline_ms: 0,
        max_records: 0,
        max_blocks: 1,
    };
    let capped = client
        .inspect_with_budget(demo::QUERIES[0], one_block)
        .expect("budgeted inspect");
    assert_eq!(capped.status, wire::STATUS_BUDGET);

    let explain = client.explain(demo::QUERIES[0]).expect("explain");
    let mut fresh = Client::connect(handle.addr()).expect("connect fresh");
    let fresh_explain = fresh.explain(demo::QUERIES[0]).expect("fresh explain");
    assert_eq!(explain, fresh_explain);
    assert!(!explain.contains("budget:"), "{explain}");

    client
        .create_view("v", demo::QUERIES[0])
        .expect("create view");
    let view = client.read_view("v").expect("read view");
    assert_eq!(view, reference_tables()[0]);
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// 16 fresh demo records extending the `ND`-record dataset by one
/// sealed segment, as wire records (offset by `extra` prior appends).
fn wire_segment(extra: usize) -> Vec<wire::WireRecord> {
    demo::records(ND + (extra + 1) * 16, NS)
        .split_off(ND + extra * 16)
        .iter()
        .map(|r| wire::WireRecord {
            id: r.id as u64,
            symbols: r.symbols.clone(),
            text: r.text.clone(),
        })
        .collect()
}

/// In-process reference table for `QUERIES[0]` after `appends` 16-record
/// segments landed on the demo dataset.
fn reference_after_appends(appends: usize) -> deepbase_relational::Table {
    let passes = Arc::new(AtomicUsize::new(0));
    let mut session = Session::with_config(
        demo::catalog_sized(ND, NS, UNITS, &passes),
        session_config(None),
    );
    for extra in 0..appends {
        session
            .append_records(
                "seq",
                demo::records(ND + (extra + 1) * 16, NS).split_off(ND + extra * 16),
            )
            .expect("library append");
    }
    session.run(demo::QUERIES[0]).expect("library reference")
}

#[test]
fn view_read_over_tcp_replays_bit_identically_with_zero_passes_and_zero_scans() {
    let dir = temp_dir("views");
    let passes = Arc::new(AtomicUsize::new(0));
    let handle = start_server(
        demo::catalog_sized(ND, NS, UNITS, &passes),
        session_config(Some(store_config(&dir))),
    );
    let addr = handle.addr();
    let store = Arc::clone(handle.store().expect("store open"));

    // Grow to two segments so the optimizer's replay rule applies, then
    // take the cold answer as the bit-exactness yardstick.
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.append("seq", wire_segment(0)).expect("append"), 16);
    let cold = client.inspect(demo::QUERIES[0]).expect("cold inspect");
    assert_eq!(cold.table, reference_after_appends(1));
    client.create_view("v", demo::QUERIES[0]).expect("create");

    // VIEW_READ replays the stored frame: zero extractor forward passes
    // AND zero store block reads (the buffer pool is never consulted).
    let passes_before = passes.load(Ordering::SeqCst);
    let pool_before = store.pool().stats();
    let replay = client.read_view("v").expect("read view");
    assert_eq!(
        replay, cold.table,
        "VIEW_READ must be bit-identical to the cold INSPECT"
    );
    assert_eq!(
        passes.load(Ordering::SeqCst),
        passes_before,
        "replay must run zero forward passes"
    );
    let pool_after = store.pool().stats();
    assert_eq!(
        (pool_after.hits, pool_after.misses),
        (pool_before.hits, pool_before.misses),
        "replay must read zero store blocks"
    );

    // Views are shared across connections, and a *plain INSPECT* from a
    // fresh connection short-circuits to the same replay.
    let mut sibling = Client::connect(addr).expect("connect sibling");
    let listed = sibling.list_views().expect("list");
    assert_eq!(listed.len(), 1);
    assert_eq!((listed[0].0.as_str(), listed[0].1.as_str()), ("v", "fresh"));
    let explain = sibling.explain(demo::QUERIES[0]).expect("explain");
    assert!(
        explain.contains("view: v, fresh"),
        "explain must show the replay:\n{explain}"
    );
    let optimized = sibling.inspect(demo::QUERIES[0]).expect("replayed inspect");
    assert_eq!(optimized.table, cold.table);
    assert_eq!(
        passes.load(Ordering::SeqCst),
        passes_before,
        "the optimizer replay must run zero forward passes"
    );
    let pool_final = store.pool().stats();
    assert_eq!(
        (pool_final.hits, pool_final.misses),
        (pool_before.hits, pool_before.misses),
        "the optimizer replay must read zero store blocks"
    );

    let stats_text = client.stats().expect("stats");
    assert!(
        stats_text.contains("views: builds=1 reads=1 refreshes=0"),
        "STATS must report view counters:\n{stats_text}"
    );
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_views_refuse_reads_and_refresh_folds_new_segments() {
    let dir = temp_dir("view-refresh");
    let passes = Arc::new(AtomicUsize::new(0));
    let handle = start_server(
        demo::catalog_sized(ND, NS, UNITS, &passes),
        session_config(Some(store_config(&dir))),
    );
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.append("seq", wire_segment(0)).expect("append"), 16);
    client.create_view("v", demo::QUERIES[0]).expect("create");
    assert_eq!(
        client.refresh_view("v").expect("noop refresh"),
        deepbase_client::ViewRefreshOutcome::Noop
    );

    // A second append leaves the view stale: reads refuse with the typed
    // error, refresh folds exactly the one new segment in.
    assert_eq!(client.append("seq", wire_segment(1)).expect("append"), 16);
    match client.read_view("v") {
        Err(ClientError::Server(DniError::ViewStale { view, reason })) => {
            assert_eq!(view, "v");
            assert!(reason.contains("1 new segments"), "{reason}");
        }
        other => panic!("stale read must raise ViewStale, got {other:?}"),
    }
    assert_eq!(
        client.refresh_view("v").expect("incremental refresh"),
        deepbase_client::ViewRefreshOutcome::Incremental { new_segments: 1 }
    );
    assert_eq!(
        client.read_view("v").expect("refreshed read"),
        reference_after_appends(2),
        "the folded frame must be bit-identical to a cold rebuild"
    );

    assert!(client.drop_view("v").expect("drop"));
    assert!(!client.drop_view("v").expect("second drop"));
    match client.read_view("v") {
        Err(ClientError::Server(DniError::UnknownView(name))) => assert_eq!(name, "v"),
        other => panic!("dropped view must be unknown, got {other:?}"),
    }
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restarted server keeps its store and views but not the records
/// APPEND added: a view refreshed over an appended segment reads as
/// invalid after the restart, and its refresh rebuilds it over the base
/// dataset.
#[test]
fn after_a_restart_a_view_over_appended_records_is_invalid_and_rebuilds() {
    let dir = temp_dir("view-restart");
    let passes = Arc::new(AtomicUsize::new(0));
    let first = start_server(
        demo::catalog_sized(ND, NS, UNITS, &passes),
        session_config(Some(store_config(&dir))),
    );
    let mut client = Client::connect(first.addr()).expect("connect");
    client.create_view("v", demo::QUERIES[0]).expect("create");
    assert_eq!(client.append("seq", wire_segment(0)).expect("append"), 16);
    assert_eq!(
        client.refresh_view("v").expect("incremental refresh"),
        deepbase_client::ViewRefreshOutcome::Incremental { new_segments: 1 }
    );
    client.shutdown().expect("shutdown acknowledged");
    first.join();

    let second = start_server(
        demo::catalog_sized(ND, NS, UNITS, &passes),
        session_config(Some(store_config(&dir))),
    );
    let mut client = Client::connect(second.addr()).expect("reconnect");
    let listed = client.list_views().expect("list");
    assert_eq!(
        (listed[0].0.as_str(), listed[0].1.as_str()),
        ("v", "invalid")
    );
    match client.read_view("v") {
        Err(ClientError::Server(DniError::ViewStale { view, reason })) => {
            assert_eq!(view, "v");
            assert_eq!(reason, "inputs changed; refresh rebuilds the view");
        }
        other => panic!("a read after restart must raise ViewStale, got {other:?}"),
    }
    assert_eq!(
        client.refresh_view("v").expect("rebuild"),
        deepbase_client::ViewRefreshOutcome::Rebuilt
    );
    assert_eq!(
        client.read_view("v").expect("rebuilt read"),
        reference_after_appends(0),
        "the rebuilt frame must be bit-identical to a cold run over the base dataset"
    );
    drop(second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two connections read the view in a loop while a third appends and
/// refreshes: every successful read is bit-identical to the old frame or
/// the new one — never torn — and stale windows surface only as the
/// typed `ViewStale` error.
#[test]
fn concurrent_view_readers_see_old_or_new_frames_never_torn() {
    let dir = temp_dir("view-concurrent");
    let passes = Arc::new(AtomicUsize::new(0));
    let handle = start_server(
        demo::catalog_sized(ND, NS, UNITS, &passes),
        session_config(Some(store_config(&dir))),
    );
    let addr = handle.addr();

    let mut writer = Client::connect(addr).expect("connect writer");
    assert_eq!(writer.append("seq", wire_segment(0)).expect("append"), 16);
    writer.create_view("v", demo::QUERIES[0]).expect("create");
    let old_frame = writer.read_view("v").expect("old frame");
    assert_eq!(old_frame, reference_after_appends(1));
    let new_frame = reference_after_appends(2);

    let stop = AtomicUsize::new(0);
    thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (stop, old_frame, new_frame) = (&stop, &old_frame, &new_frame);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect reader");
                    let (mut saw_old, mut saw_new) = (0usize, 0usize);
                    while stop.load(Ordering::SeqCst) == 0 {
                        match client.read_view("v") {
                            Ok(table) if table == *old_frame => saw_old += 1,
                            Ok(table) if table == *new_frame => saw_new += 1,
                            Ok(_) => panic!("torn frame: matches neither old nor new"),
                            Err(ClientError::Server(DniError::ViewStale { .. })) => {}
                            Err(e) => panic!("reader failed: {e}"),
                        }
                    }
                    (saw_old, saw_new)
                })
            })
            .collect();

        // Let the readers hammer the old frame, then append + refresh.
        thread::sleep(Duration::from_millis(50));
        assert_eq!(writer.append("seq", wire_segment(1)).expect("append"), 16);
        assert_eq!(
            writer.refresh_view("v").expect("refresh"),
            deepbase_client::ViewRefreshOutcome::Incremental { new_segments: 1 }
        );
        // Both readers must observe the refreshed frame before stopping.
        thread::sleep(Duration::from_millis(50));
        stop.store(1, Ordering::SeqCst);
        for reader in readers {
            let (saw_old, saw_new) = reader.join().expect("reader thread");
            assert!(saw_old > 0, "reader never saw the pre-append frame");
            assert!(saw_new > 0, "reader never saw the refreshed frame");
        }
    });
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// 500 deterministic fuzz cases against the frame decoder: random
/// payloads and truncated real requests. The server must answer every
/// delivered frame with a decodable response (protocol errors carry
/// code 0) or close the connection cleanly — never hang, never panic.
#[test]
fn fuzzed_frames_never_panic_the_decoder() {
    use std::io::Write;
    let passes = Arc::new(AtomicUsize::new(0));
    let handle = start_server(
        demo::catalog_sized(ND, NS, UNITS, &passes),
        session_config(None),
    );
    let addr = handle.addr();

    // xorshift64: deterministic, dependency-free.
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let templates = [
        wire::encode_request(&wire::Request::Append {
            dataset: "seq".into(),
            records: vec![wire::WireRecord {
                id: 1,
                symbols: vec![1, 2, 3],
                text: "abc".into(),
            }],
        }),
        wire::encode_request(&wire::Request::Batch {
            statements: vec!["a".into(), "b".into()],
            budget: wire::WireBudget::default(),
        }),
        wire::encode_request(&wire::Request::ViewCreate {
            name: "v".into(),
            statement: "SELECT".into(),
        }),
        wire::encode_request(&wire::Request::ViewRead { name: "v".into() }),
    ];

    let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
    for case in 0..500 {
        let payload: Vec<u8> = if case % 3 == 0 {
            // A real request truncated mid-structure.
            let template = &templates[(rng() % templates.len() as u64) as usize];
            let cut = 1 + (rng() as usize) % template.len();
            template[..cut].to_vec()
        } else {
            let len = (rng() % 64) as usize;
            (0..len).map(|_| (rng() & 0xff) as u8).collect()
        };
        // A random frame that happens to spell SHUTDOWN would drain the
        // server out from under the remaining cases.
        if matches!(wire::decode_request(&payload), Ok(wire::Request::Shutdown)) {
            continue;
        }
        let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(&payload);
        if raw.write_all(&framed).is_err() {
            raw = std::net::TcpStream::connect(addr).expect("reconnect after close");
            continue;
        }
        match wire::read_frame(&mut raw, wire::MAX_FRAME_BYTES) {
            Ok(frame) => {
                // Whatever came back must decode; malformed requests
                // specifically carry the reserved protocol-error code.
                let response = wire::decode_response(&frame)
                    .unwrap_or_else(|e| panic!("case {case}: undecodable response: {e}"));
                if let wire::Response::Error { code, .. } = response {
                    assert!(
                        code == wire::PROTOCOL_ERROR || code > 0,
                        "case {case}: error frame with invalid code"
                    );
                }
            }
            // Clean close is a legal answer; reconnect and continue.
            Err(_) => raw = std::net::TcpStream::connect(addr).expect("reconnect"),
        }
    }

    // The server survived all 500 cases and still answers real requests.
    let mut client = Client::connect(addr).expect("connect after fuzz");
    assert!(client
        .stats()
        .expect("stats after fuzz")
        .contains("server:"));
    assert!(!handle.is_shutting_down());
}

#[test]
fn idle_connections_are_closed_after_the_timeout() {
    let passes = Arc::new(AtomicUsize::new(0));
    let handle = InspectionServer::start(
        "127.0.0.1:0",
        demo::catalog_sized(ND, NS, UNITS, &passes),
        ServerConfig {
            session: session_config(None),
            idle_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.stats().expect("first request on a live connection");
    thread::sleep(Duration::from_millis(400));
    // The server closed the idle connection; the next call fails with an
    // IO error rather than hanging.
    match client.stats() {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected a closed connection, got {other:?}"),
    }
}
