//! `serve_mixed`: the wire, the socket, thread-per-connection, global
//! admission and pool-lock contention on top of `warm_scan`'s work. An
//! in-process server over a warm shared store; two client connections in
//! closed loop (dashboard callers wait for their replies) on a fixed
//! seeded schedule. Per 20 requests client A sends 18 INSPECT, 1 EXPLAIN
//! and 1 STATS; client B — the writer and the view's only reader, so no
//! read can land between its own append and refresh — sends 10 INSPECT,
//! 8 VIEW_READ, 1 EXPLAIN and 1 APPEND followed by its VIEW_REFRESH.
//! Together that is the 28 : 8 : 2 : 1 : 1 mix of the issue.

use super::{demo_catalog, demo_records, full_stream, DemoLstmExtractor, UnitMix};
use crate::harness::{
    check_tables, instrument, probe_ms, reference_config, timed, Env, Limit, Recorder, SplitMix,
    Workload,
};
use crate::stats;
use crate::trace::Tracer;
use deepbase::prelude::*;
use deepbase_client::{Client, ViewRefreshOutcome};
use deepbase_relational::Table;
use deepbase_server::wire::{self, Request, Response, WireBudget, WireRecord};
use deepbase_server::{InspectionServer, ServerConfig, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NS: usize = 16;
const VIEW: &str = "feed_dashboard";
const APPEND_RECORDS: usize = 16;
/// Process-wide stream-width budget, as in `fig_server`.
const STREAM_BUDGET: usize = 48;

/// The server demo batch, pinned to the static dataset.
const INSPECTS: [&str; 5] = [
    "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D \
     WHERE D.name = 'seq' HAVING S.unit_score > 0.5",
    "SELECT S.group_id, S.uid INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D \
     WHERE H.name = 'chars' AND D.name = 'seq' GROUP BY U.layer",
    "SELECT S.uid, S.hyp_id, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D \
     WHERE H.name = 'position' AND D.name = 'seq'",
    "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D \
     WHERE U.layer = 0 AND D.name = 'seq' HAVING S.unit_score > 0.3",
    "SELECT S.uid, S.unit_score, S.group_score INSPECT U.uid AND H.h USING corr \
     OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
     WHERE U.uid < 24 AND H.name = 'chars' AND D.name = 'seq'",
];

const VIEW_STATEMENT: &str =
    "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D \
     WHERE U.uid < 16 AND H.name = 'chars' AND D.name = 'feed'";

#[derive(Clone, Copy)]
enum Step {
    Inspect,
    ViewRead,
    Explain,
    Stats,
    AppendRefresh,
}

/// One client's 20-request cycle, shuffled by the seed.
fn cycle(writer: bool, rng: &mut SplitMix) -> Vec<Step> {
    let mut steps = if writer {
        let mut s = vec![Step::Inspect; 10];
        s.extend([Step::ViewRead; 8]);
        s.extend([Step::Explain, Step::AppendRefresh]);
        s
    } else {
        let mut s = vec![Step::Inspect; 18];
        s.extend([Step::Explain, Step::Stats]);
        s
    };
    for i in (1..steps.len()).rev() {
        steps.swap(i, rng.below(i + 1));
    }
    steps
}

pub struct ServeMixed {
    tracer: Arc<Tracer>,
    server: ServerHandle,
    plain: Catalog,
    session: SessionConfig,
    seed: u64,
    feed_base: usize,
    /// Reference answers of [`INSPECTS`].
    reference: Vec<Table>,
    refreshes: u64,
}

impl ServeMixed {
    /// One client's closed loop. Returns its samples, how many refreshes
    /// it completed, and every view answer it read tagged with the number
    /// of refreshes that preceded it (checked after the run, so computing
    /// references does not compete with the server for the two cores).
    fn client(&self, writer: bool, limit: Limit) -> (Recorder, u64, Vec<(u64, Table)>) {
        let mut rec = Recorder::default();
        let mut view_reads = Vec::new();
        let mut rng = SplitMix(self.seed ^ if writer { 0xb } else { 0xa });
        let mut client = Client::connect(self.server.addr()).expect("connect");
        let deadline = match limit {
            Limit::For(window) => Some(Instant::now() + window),
            Limit::Iterations(_) => None,
        };
        let mut remaining = match limit {
            Limit::Iterations(cycles) => cycles * 20,
            Limit::For(_) => usize::MAX,
        };
        let (mut next_inspect, mut refreshes) = (usize::from(writer), 0u64);
        // Ids of appended records continue after everything the writer
        // of an earlier `run` on this server already appended.
        let mut next_id = self.feed_base + self.refreshes as usize * APPEND_RECORDS;
        let t = &self.tracer;
        'run: loop {
            for step in cycle(writer, &mut rng) {
                if remaining == 0 || deadline.is_some_and(|d| Instant::now() >= d) {
                    break 'run;
                }
                remaining -= 1;
                match step {
                    Step::Inspect => {
                        let which = next_inspect % INSPECTS.len();
                        next_inspect += 1;
                        let result = rec.timed_op(t, "inspect", "inspect_ms", || {
                            client.inspect(INSPECTS[which])
                        });
                        rec.op(match result {
                            Ok(r) if r.status == wire::STATUS_CONVERGED => check_tables(
                                &[r.table],
                                std::slice::from_ref(&self.reference[which]),
                            ),
                            Ok(r) => Err(format!("inspect status {}", r.status)),
                            Err(e) => Err(format!("inspect: {e}")),
                        });
                    }
                    Step::ViewRead => {
                        let result =
                            rec.timed_op(t, "view_read", "view_read_ms", || client.read_view(VIEW));
                        match result {
                            Ok(table) => view_reads.push((self.refreshes + refreshes, table)),
                            Err(e) => rec.op(Err(format!("view read: {e}"))),
                        }
                    }
                    Step::Explain => {
                        let _op = t.op("explain");
                        rec.op(client
                            .explain(INSPECTS[0])
                            .map(|_| ())
                            .map_err(|e| format!("explain: {e}")));
                    }
                    Step::Stats => {
                        let _op = t.op("stats");
                        rec.op(client
                            .stats()
                            .map(|_| ())
                            .map_err(|e| format!("stats: {e}")));
                    }
                    Step::AppendRefresh => {
                        let records = demo_records(next_id, APPEND_RECORDS, NS, self.seed)
                            .into_iter()
                            .map(|r| WireRecord {
                                id: r.id as u64,
                                symbols: r.symbols,
                                text: r.text,
                            })
                            .collect();
                        next_id += APPEND_RECORDS;
                        let appended = {
                            let _op = t.op("append");
                            client.append("feed", records)
                        };
                        rec.op(appended.map(|_| ()).map_err(|e| format!("append: {e}")));
                        let result =
                            rec.timed_op(t, "refresh", "refresh_ms", || client.refresh_view(VIEW));
                        rec.op(match result {
                            Ok(ViewRefreshOutcome::Incremental { new_segments: 1 }) => {
                                refreshes += 1;
                                Ok(())
                            }
                            other => Err(format!("refresh: {other:?}")),
                        });
                    }
                }
            }
        }
        (rec, refreshes, view_reads)
    }

    fn feed_segment(&self, k: u64) -> Vec<Record> {
        demo_records(
            self.feed_base + k as usize * APPEND_RECORDS,
            APPEND_RECORDS,
            NS,
            self.seed,
        )
    }

    /// Checks view answers against a store-less execution over the feed
    /// as it stood after that many refreshes. A reference costs a full
    /// inspection of the grown feed, so checking every level would grow
    /// quadratically with the run; every read at about sixteen evenly
    /// spaced levels and at the last one is compared bit for bit, the
    /// rest only had to be answered.
    fn check_view_reads(&self, reads: Vec<(u64, Table)>, rec: &mut Recorder) {
        let Some(&(last, _)) = reads.last() else {
            return;
        };
        let first = reads[0].0;
        let stride = ((last - first) / 16).max(1);
        let mut reference = Session::with_config(
            self.plain.clone(),
            reference_config(&self.session.inspection),
        );
        let mut appended = 0;
        let mut want: Option<(u64, Table)> = None;
        for (k, got) in reads {
            if !(k - first).is_multiple_of(stride) && k != last {
                rec.op(Ok(()));
                continue;
            }
            while appended < k {
                reference
                    .append_records("feed", self.feed_segment(appended))
                    .expect("append to reference feed");
                appended += 1;
            }
            if want.as_ref().is_none_or(|(at, _)| *at != k) {
                want = Some((k, reference.run(VIEW_STATEMENT).expect("reference view")));
            }
            let (_, want) = want.as_ref().expect("reference computed");
            rec.op(check_tables(&[got], std::slice::from_ref(want))
                .map_err(|e| format!("view read after {k} refreshes: {e}")));
        }
    }

    /// The catalog as the server now holds it, rebuilt locally.
    fn catalog_now(&self) -> Catalog {
        let mut grown = self.plain.clone();
        for k in 0..self.refreshes {
            grown
                .append_to_dataset("feed", self.feed_segment(k))
                .expect("append to local feed");
        }
        grown
    }
}

impl Workload for ServeMixed {
    fn iterate(&mut self, _rec: &mut Recorder) {
        unreachable!("serve_mixed drives its own client threads in `run`");
    }

    /// `Iterations(n)` is `n` cycles of 20 requests per client.
    fn run(&mut self, limit: Limit, rec: &mut Recorder) -> Duration {
        let before = self.tracer.counts();
        let start = Instant::now();
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| self.client(false, limit));
            let b = scope.spawn(|| self.client(true, limit));
            (a.join().expect("client A"), b.join().expect("client B"))
        });
        let window = start.elapsed();
        rec.merge(a.0);
        rec.merge(b.0);
        self.check_view_reads(b.2, rec);
        self.refreshes += b.1;
        // The only forward passes a warm server may run are the ones a
        // refresh spends on its appended segment (one block each); any
        // more means an INSPECT missed the store.
        let wrapped = self.tracer.counts().since(&before);
        let inspects = rec.pending("inspect_ms").count().max(1) as f64;
        rec.push(
            "core.extract.calls",
            wrapped.extract_calls.saturating_sub(b.1) as f64 / inspects,
        );
        rec.push(
            "core.hypothesis.calls",
            wrapped.hypothesis_calls as f64 / inspects,
        );
        rec.op(if wrapped.extract_calls == b.1 {
            Ok(())
        } else {
            Err(format!(
                "{} forward passes for {} refreshes: an INSPECT missed the store",
                wrapped.extract_calls, b.1
            ))
        });
        if self.tracer.enabled() {
            // Server threads carry no op context; their wrapper time is
            // only known as a total over the traced window.
            let total_ms: f64 = ["inspect_ms", "view_read_ms", "refresh_ms"]
                .iter()
                .flat_map(|s| rec.pending(s))
                .sum();
            if total_ms > 0.0 {
                rec.push(
                    "trace.share.hypothesis",
                    wrapped.hypothesis_busy_ns as f64 / 1e6 / total_ms,
                );
                rec.push(
                    "trace.share.extract",
                    wrapped.extract_busy_ns as f64 / 1e6 / total_ms,
                );
            }
        }
        window
    }

    fn concurrent(&self) -> bool {
        true
    }

    fn finish(&mut self, rec: &mut Recorder) {
        let stats = self.server.stats();
        rec.push("server.query_errors", stats.query_errors as f64);
        rec.push("server.protocol_errors", stats.protocol_errors as f64);
        let sched = self.server.scheduler().stats();
        rec.push("core.admission.waves_admitted", sched.waves_admitted as f64);
        rec.push("core.admission.waves_waited", sched.waves_waited as f64);
        rec.push(
            "core.admission.peak_stream_width",
            sched.peak_stream_width as f64,
        );
        if let Some(q) = stats::highest_percentile(rec.get("inspect_ms").len()) {
            if q >= 0.99 {
                rec.push(
                    "server.inspect_ms.p99",
                    stats::percentile(rec.get("inspect_ms"), 0.99),
                );
            }
        }
    }

    fn probes(&mut self, rec: &mut Recorder) {
        let mut client = Client::connect(self.server.addr()).expect("connect");
        // The floor: a STATS round trip does no engine work.
        let floor: Vec<f64> = (0..300)
            .map(|_| timed(|| client.stats().expect("stats")).1)
            .collect();
        rec.push("server.roundtrip_floor_ms", stats::median(&floor));
        // Overhead: the same statement over TCP and in process, both on
        // long-lived sessions over the same store directory.
        let over_tcp: Vec<f64> = (0..60)
            .map(|_| timed(|| client.inspect(INSPECTS[0]).expect("inspect")).1)
            .collect();
        let mut local = Session::with_config(self.catalog_now(), self.session.clone());
        let in_process: Vec<f64> = (0..60)
            .map(|_| timed(|| local.run(INSPECTS[0]).expect("in-process inspect")).1)
            .collect();
        rec.push(
            "server.overhead_ms",
            stats::median(&over_tcp) - stats::median(&in_process),
        );
        // The four codec calls on this workload's real frames.
        let request = Request::Inspect {
            statement: INSPECTS[0].to_string(),
            budget: WireBudget::default(),
        };
        let response = Response::Result {
            status: wire::STATUS_CONVERGED,
            rows_read: 0,
            table: self.reference[0].clone(),
        };
        let (request_bytes, response_bytes) = (
            wire::encode_request(&request),
            wire::encode_response(&response),
        );
        rec.push(
            "server.wire.encode_ms",
            probe_ms(200, || {
                std::hint::black_box((
                    wire::encode_request(&request),
                    wire::encode_response(&response),
                ));
            }),
        );
        rec.push(
            "server.wire.decode_ms",
            probe_ms(200, || {
                std::hint::black_box((
                    wire::decode_request(&request_bytes).expect("request decodes"),
                    wire::decode_response(&response_bytes).expect("response decodes"),
                ));
            }),
        );
        rec.push(
            "server.wire.bytes_per_response",
            response_bytes.len() as f64,
        );
        super::plan_probes(&self.plain, &self.session.inspection, &INSPECTS, None, rec);
    }
}

pub fn setup(env: &Env) -> ServeMixed {
    let (nd, feed_base, units) = (
        env.scale.pick(384, 64),
        env.scale.pick(64, 32),
        env.scale.pick(96, 24),
    );
    let seq = Dataset::new("seq", NS, demo_records(0, nd, NS, env.seed)).expect("seq records");
    // Feed ids start past `seq`'s, so no record id is shared.
    let feed_first = 1 << 20;
    let feed = Dataset::new(
        "feed",
        NS,
        demo_records(feed_first, feed_base, NS, env.seed),
    )
    .expect("feed records");
    let extractor: Arc<dyn Extractor> = Arc::new(DemoLstmExtractor::new(units, UnitMix::Raw));
    let plain = demo_catalog(
        Arc::clone(&extractor),
        vec![("seq", Arc::new(seq)), ("feed", Arc::new(feed))],
    );
    let inspection = full_stream(64, env.seed);
    let reference = Session::with_config(plain.clone(), reference_config(&inspection))
        .run_batch(&INSPECTS)
        .expect("reference batch")
        .tables;

    let session = SessionConfig {
        inspection,
        admission: AdmissionConfig {
            max_stream_width: Some(STREAM_BUDGET),
            max_scan_width: None,
        },
        store: Some(StoreConfig::at(env.dir.join("store"))),
        // Every request must execute: the score cache would otherwise
        // answer repeats without touching extractor or store.
        reuse_scores: false,
        ..SessionConfig::default()
    };
    // Warm the store and build the view before the server starts.
    let mut warmup = Session::with_config(plain.clone(), session.clone());
    warmup.run_batch(&INSPECTS).expect("populate store");
    warmup
        .create_view(VIEW, VIEW_STATEMENT)
        .expect("view builds");
    drop(warmup);

    let server = InspectionServer::start(
        "127.0.0.1:0",
        instrument(&plain, &env.tracer),
        ServerConfig {
            session: session.clone(),
            ..ServerConfig::default()
        },
    )
    .expect("bind an ephemeral port");
    ServeMixed {
        tracer: Arc::clone(&env.tracer),
        server,
        plain,
        session,
        seed: env.seed,
        feed_base: feed_first + feed_base,
        reference,
        refreshes: 0,
    }
}
