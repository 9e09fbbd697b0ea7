//! What every workload shares: the sample recorder, the timed closed
//! loop, the one in-process INSPECT op (open a session, prepare, execute,
//! check the answer), and the metric catalogue both `BENCHMARK.json` and
//! the printed results are held to.

use crate::calib::{now_s, Calibrator, SpeedCurve};
use crate::stats;
use crate::trace::{per_op_layers, Span, Tracer, EXTRACT, HYPOTHESIS};
use deepbase::prelude::*;
use deepbase_relational::Table;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("inspect_ms.p50", "ms"),
    ("inspect_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload on a traced run; a
/// layer a workload does not enter reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("view_read_ms.p50", "ms"),
    ("refresh_ms.p50", "ms"),
    ("failed_share", "ratio"),
    ("stored_bytes_per_raw_byte", "ratio"),
    ("trace_overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.share.session", "ratio"),
    ("trace.share.extract", "ratio"),
    ("trace.share.store_scan", "ratio"),
    ("trace.share.hypothesis", "ratio"),
    ("trace.share.cache", "ratio"),
    ("trace.share.measure", "ratio"),
    ("trace.share.engine_self", "ratio"),
    ("tensor.matmul_ms", "ms"),
    ("tensor.matmul_flops", "flop"),
    ("nn.forward_ms", "ms"),
    ("nn.forward_calls", "count"),
    ("core.extract.ms", "ms"),
    ("core.extract.calls", "count"),
    ("core.extract.records", "count"),
    ("core.hypothesis.ms", "ms"),
    ("core.hypothesis.calls", "count"),
    ("core.cache.ms", "ms"),
    ("core.cache.hit_ratio", "ratio"),
    ("stats.pearson_ms", "ms"),
    ("stats.logreg_step_ms", "ms"),
    ("core.measure.ms", "ms"),
    ("core.query.parse_ms", "ms"),
    ("core.plan.bind_ms", "ms"),
    ("core.plan.optimize_ms", "ms"),
    ("core.session.open_ms", "ms"),
    ("core.session.prepare_ms", "ms"),
    ("core.session.plan_cache_hit_ratio", "ratio"),
    ("core.engine.execute_ms", "ms"),
    ("core.engine.self_ms", "ms"),
    ("core.engine.records_read", "count"),
    ("core.engine.blocks_processed", "count"),
    ("core.engine.passes", "count"),
    ("store.open_ms", "ms"),
    ("store.scan_ms", "ms"),
    ("store.scan_cold_ms", "ms"),
    ("store.scan_hot_ms", "ms"),
    ("store.format.read_block_ms", "ms"),
    ("store.blocks_read", "count"),
    ("store.blocks_pruned", "count"),
    ("store.pool.hit_ratio", "ratio"),
    ("store.pool.evictions", "count"),
    ("store.forward_passes_avoided", "count"),
    ("store.segment_passes", "count"),
    ("store.io_retries", "count"),
    ("store.error_count", "count"),
    ("store.write_column_ms", "ms"),
    ("store.bytes_written_per_appended_byte", "ratio"),
    ("store.compact_ms", "ms"),
    ("store.columns_evicted", "count"),
    ("store.views.save_ms", "ms"),
    ("store.views.load_ms", "ms"),
    ("store.view_bytes_written", "B"),
    ("core.admission.waves_admitted", "count"),
    ("core.admission.waves_waited", "count"),
    ("core.admission.peak_stream_width", "count"),
    ("server.wire.encode_ms", "ms"),
    ("server.wire.decode_ms", "ms"),
    ("server.wire.bytes_per_response", "B"),
    ("server.roundtrip_floor_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.inspect_ms.p99", "ms"),
    ("server.query_errors", "count"),
    ("server.protocol_errors", "count"),
    ("machine.speed_factor", "ratio"),
    ("raw.inspect_ms.p50", "ms"),
];

/// Per-op counts that must repeat exactly between two runs of one
/// commit; `bench diff` fails when one does not.
pub const EXACT_COUNTERS: &[&str] = &[
    "store.blocks_read",
    "store.blocks_pruned",
    "core.engine.records_read",
    "core.extract.calls",
    "stored_bytes_per_raw_byte",
];

/// Input scale: `Full` is what `BENCHMARK.json` measures; `Smoke` shrinks
/// every input so the test suite can run each workload in a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// How long a closed loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    For(Duration),
    Iterations(usize),
}

/// Named sample series plus the attempted/failed op counts of one run.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    pub series: BTreeMap<String, Vec<f64>>,
    /// Op latencies as `(moment, raw milliseconds)`, waiting to be scaled
    /// by the machine speed around their moment ([`Recorder::normalize`]).
    timed: BTreeMap<String, Vec<(f64, f64)>>,
    calibrator: Calibrator,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the human reader.
    pub failures: Vec<String>,
}

impl Recorder {
    pub fn push(&mut self, name: &str, value: f64) {
        self.series.entry(name.to_string()).or_default().push(value);
    }

    /// Records an op latency measured just now.
    pub fn time(&mut self, name: &str, millis: f64) {
        self.timed
            .entry(name.to_string())
            .or_default()
            .push((now_s(), millis));
    }

    /// Runs one timed op: lets the calibration sample first, opens the op
    /// span `op`, and records `f`'s wall time in the latency series
    /// `series`.
    pub fn timed_op<R>(
        &mut self,
        tracer: &Arc<Tracer>,
        op: &'static str,
        series: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        self.tick();
        let mut span = tracer.op(op);
        let (out, elapsed) = timed(f);
        span.finish();
        self.time(series, elapsed);
        out
    }

    /// Raw values of a latency series not yet normalized.
    pub fn pending(&self, name: &str) -> impl Iterator<Item = f64> + '_ {
        self.timed.get(name).into_iter().flatten().map(|s| s.1)
    }

    /// Lets the machine-speed calibration take a sample if one is due.
    /// Call between ops, never inside a timed one.
    pub fn tick(&mut self) {
        self.calibrator.tick();
    }

    /// Scales every timed latency by the machine speed around its moment
    /// into the series of its name and keeps the raw values as
    /// `raw.<name>`. Returns the speed curve and the nominal-speed seconds
    /// spent inside timed ops (the two windows `ops_per_s` divides by).
    pub fn normalize(&mut self) -> (SpeedCurve, f64) {
        let curve = SpeedCurve::new(std::mem::take(&mut self.calibrator.samples));
        let mut busy_ms = 0.0;
        for (name, samples) in std::mem::take(&mut self.timed) {
            for (t, millis) in samples {
                let nominal = millis * curve.factor_at(t);
                busy_ms += nominal;
                self.push(&name, nominal);
                self.push(&format!("raw.{name}"), millis);
            }
        }
        (curve, busy_ms / 1e3)
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.series.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> f64 {
        stats::median(self.get(name))
    }

    /// Counts one op; `check` is `Err(why)` when it errored, was refused,
    /// or answered differently from the reference.
    pub fn op(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(why);
            }
        }
    }

    pub fn merge(&mut self, other: Recorder) {
        for (name, values) in other.series {
            self.series.entry(name).or_default().extend(values);
        }
        for (name, values) in other.timed {
            self.timed.entry(name).or_default().extend(values);
        }
        self.calibrator.samples.extend(other.calibrator.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
    }

    /// Per-op store, cache, plan and engine counters of one batch.
    pub fn report(&mut self, report: &BatchReport, session: SessionStats) {
        let s = &report.store;
        self.push("store.blocks_read", s.blocks_read as f64);
        self.push("store.blocks_pruned", s.blocks_pruned as f64);
        self.push(
            "store.pool.hit_ratio",
            ratio(s.pool_hits, s.pool_hits + s.pool_misses),
        );
        self.push("store.pool.evictions", s.pool_evictions as f64);
        self.push(
            "store.forward_passes_avoided",
            s.forward_passes_avoided as f64,
        );
        self.push("store.segment_passes", s.segment_passes as f64);
        self.push("store.io_retries", s.io_retries as f64);
        self.push("store.error_count", s.error_count as f64);
        let c = &report.cache;
        self.push("core.cache.hit_ratio", ratio(c.hits, c.hits + c.misses));
        self.push(
            "core.session.plan_cache_hit_ratio",
            ratio(
                session.plan_cache_hits,
                session.plan_cache_hits + session.plan_cache_misses,
            ),
        );
        let passes = &report.groups;
        self.push("core.engine.passes", passes.len() as f64);
        self.push(
            "core.engine.records_read",
            passes.iter().map(|g| g.pass.records_read).sum::<usize>() as f64,
        );
        self.push(
            "core.engine.blocks_processed",
            passes
                .iter()
                .map(|g| g.pass.blocks_processed)
                .sum::<usize>() as f64,
        );
    }
}

pub fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f`, returning its result and the elapsed milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, ms(start.elapsed()))
}

/// Median milliseconds of `f` over `reps` calls after one warm-up call.
pub fn probe_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    stats::median(&samples)
}

/// One benchmark workload after set-up: its inputs are built, its
/// reference answers computed, its stores populated.
pub trait Workload {
    /// One turn of the closed loop: one or more timed ops, each checked
    /// against the reference and counted in `rec`.
    fn iterate(&mut self, rec: &mut Recorder);

    /// Runs the closed loop and returns how long it ran (the window
    /// `ops_per_s` divides by). The default drives [`Workload::iterate`]
    /// from this thread; `serve_mixed` overrides it with its two client
    /// threads.
    fn run(&mut self, limit: Limit, rec: &mut Recorder) -> Duration {
        let start = Instant::now();
        match limit {
            Limit::For(window) => {
                while start.elapsed() < window {
                    self.iterate(rec);
                }
            }
            Limit::Iterations(n) => (0..n).for_each(|_| self.iterate(rec)),
        }
        start.elapsed()
    }

    /// Whether ops overlap in time (several generator threads). Then
    /// `ops_per_s` divides by the wall window; otherwise by the time spent
    /// inside ops, because what the single generator does between them —
    /// copying a base store, comparing answers with the reference — is
    /// the harness's work, not the system's.
    fn concurrent(&self) -> bool {
        false
    }

    /// Checks that only make sense once, after the loop (the
    /// `append_refresh` reopen check). Counted as ops.
    fn finish(&mut self, _rec: &mut Recorder) {}

    /// Times the public calls of each layer this workload enters, on the
    /// workload's own inputs.
    fn probes(&mut self, rec: &mut Recorder);
}

/// Everything set-up needs from the caller.
pub struct Env {
    pub seed: u64,
    pub scale: Scale,
    /// A fresh directory this set-up may fill; removed by the caller.
    pub dir: PathBuf,
    pub tracer: Arc<Tracer>,
}

/// Rebuilds `catalog` with every extractor and hypothesis behind the
/// bench-owned timing wrappers. Datasets are shared, measures are the
/// standard library, so plans bind exactly as against the original.
pub fn instrument(catalog: &Catalog, tracer: &Arc<Tracer>) -> Catalog {
    use crate::trace::{TimedExtractor, TimedHypothesis};
    let mut out = Catalog::new();
    for m in catalog.models() {
        out.add_model_with_units(
            &m.mid,
            m.epoch,
            TimedExtractor::wrap(Arc::clone(&m.extractor), tracer),
            m.units.clone(),
        );
    }
    for (name, set) in catalog.hypothesis_sets() {
        out.add_hypotheses(
            name,
            set.iter()
                .map(|h| TimedHypothesis::wrap(Arc::clone(h), tracer))
                .collect(),
        );
    }
    for (name, dataset) in catalog.datasets() {
        out.add_dataset(name, Arc::clone(dataset));
    }
    out
}

/// Session settings of the reference: no store, no score reuse, and a
/// hypothesis cache too small to hold two entries.
pub fn reference_config(inspection: &InspectionConfig) -> SessionConfig {
    SessionConfig {
        inspection: inspection.clone(),
        reuse_scores: false,
        cache_bytes: 0,
        ..SessionConfig::default()
    }
}

/// The answers every op is compared against, bit for bit.
pub fn reference_tables(
    catalog: &Catalog,
    inspection: &InspectionConfig,
    statements: &[&str],
) -> Vec<Table> {
    Session::with_config(catalog.clone(), reference_config(inspection))
        .run_batch(statements)
        .expect("reference batch")
        .tables
}

/// Bit-for-bit table equality: float cells compare by bit pattern, so a
/// `-0.0` for a `0.0` or a changed NaN payload counts as a difference
/// (`Table`'s own `==` compares floats by value).
fn same_bits(a: &Table, b: &Table) -> bool {
    a.schema().names() == b.schema().names()
        && a.len() == b.len()
        && (0..a.schema().arity()).all(|c| {
            let (x, y) = (a.column_at(c), b.column_at(c));
            match (x.floats(), y.floats()) {
                (Some(fx), Some(fy)) => fx
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(fy.iter().map(|v| v.to_bits())),
                (None, None) => (0..a.len()).all(|r| x.value(r) == y.value(r)),
                _ => false,
            }
        })
}

/// `Ok` when every table of `got` equals its reference bit for bit.
pub fn check_tables(got: &[Table], want: &[Table]) -> Result<(), String> {
    if got.len() == want.len() && got.iter().zip(want).all(|(g, w)| same_bits(g, w)) {
        Ok(())
    } else {
        Err("answer differs from the store-less reference".into())
    }
}

/// One in-process INSPECT op on a fresh session: open (which opens the
/// store when one is configured), prepare, execute. Returns the batch,
/// the session and the op's wall milliseconds; spans and report-derived
/// layer times are recorded while tracing is on.
pub fn inspect_op(
    tracer: &Arc<Tracer>,
    catalog: Catalog,
    config: SessionConfig,
    statements: &[&str],
) -> Result<(BatchOutput, Session, f64), DniError> {
    let start = Instant::now();
    let mut op = tracer.op("inspect");
    let mut session = {
        let _span = tracer.span("core.session.open");
        Session::with_config(catalog, config)
    };
    let out = execute_traced(tracer, &mut session, statements)?;
    let elapsed = ms(start.elapsed());
    op.finish();
    Ok((out, session, elapsed))
}

/// Prepare + execute on an existing session, with the spans of one op's
/// inner half: `core.session.prepare`, `core.engine.execute`, and under
/// the latter the wrapper leaves plus what the batch report attributes to
/// store scan, hypothesis cache and measures.
pub fn execute_traced(
    tracer: &Arc<Tracer>,
    session: &mut Session,
    statements: &[&str],
) -> Result<BatchOutput, DniError> {
    let prepared = {
        let _span = tracer.span("core.session.prepare");
        session.prepare_batch(statements)?
    };
    let before = tracer.counts();
    let mut exec = tracer.span("core.engine.execute");
    let out = session.execute_batch(&prepared)?;
    exec.finish();
    if tracer.enabled() {
        let wrapped = tracer.counts().since(&before);
        let pass = out
            .report
            .groups
            .iter()
            .fold(Profile::default(), |mut acc, g| {
                acc.accumulate(&g.pass);
                acc
            });
        let blocks = pass.blocks_processed as u64;
        // The pass clocks unit sourcing and hypothesis evaluation as a
        // whole; what the wrappers did not spend inside the extractor or
        // the hypothesis functions is store scan + demux, respectively
        // hypothesis-cache work.
        exec.note(
            "store.scan",
            pass.unit_extraction
                .saturating_sub(Duration::from_nanos(wrapped.extract_busy_ns)),
            blocks,
        );
        exec.note(
            "core.cache",
            pass.hypothesis_extraction
                .saturating_sub(Duration::from_nanos(wrapped.hypothesis_busy_ns)),
            blocks,
        );
        exec.note("core.measure", pass.inspection, blocks);
    }
    Ok(out)
}

/// Folds traced spans into the per-layer series: for each layer name the
/// per-op busy milliseconds (over the ops it occurs in), and the share of
/// all traced op time each layer's self time takes.
pub fn record_trace(spans: &[Span], rec: &mut Recorder) {
    let per_op = per_op_layers(spans);
    let mut total_op_ns = 0u64;
    let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for layers in per_op.values() {
        for (&name, time) in layers {
            *self_ns.entry(name).or_default() += time.self_ns;
            let series = match name {
                "core.session.open" => "core.session.open_ms",
                "core.session.prepare" => "core.session.prepare_ms",
                "core.engine.execute" => "core.engine.execute_ms",
                EXTRACT => "core.extract.ms",
                HYPOTHESIS => "core.hypothesis.ms",
                "core.cache" => "core.cache.ms",
                "core.measure" => "core.measure.ms",
                "store.scan" => "store.scan_ms",
                _ => continue,
            };
            rec.push(series, time.busy_ns as f64 / 1e6);
            if name == "core.engine.execute" {
                rec.push("core.engine.self_ms", time.self_ns as f64 / 1e6);
            }
        }
    }
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        total_op_ns += s.busy_ns;
    }
    if total_op_ns == 0 {
        return;
    }
    let share = |names: &[&str]| {
        names
            .iter()
            .map(|n| self_ns.get(n).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / total_op_ns as f64
    };
    let roots: std::collections::BTreeSet<&str> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.name)
        .collect();
    rec.push(
        "trace.unattributed_share",
        share(&roots.into_iter().collect::<Vec<_>>()),
    );
    rec.push(
        "trace.share.session",
        share(&[
            "core.session.open",
            "core.session.prepare",
            "core.session.append",
            "core.session.refresh_view",
            "core.session.read_view",
            "core.session.compact",
        ]),
    );
    rec.push("trace.share.extract", share(&[EXTRACT]));
    rec.push("trace.share.store_scan", share(&["store.scan"]));
    rec.push("trace.share.hypothesis", share(&[HYPOTHESIS]));
    rec.push("trace.share.cache", share(&["core.cache"]));
    rec.push("trace.share.measure", share(&["core.measure"]));
    rec.push("trace.share.engine_self", share(&["core.engine.execute"]));
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every regular file under `root`.
pub fn dir_bytes(root: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(root) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copies a directory tree (the `append_refresh` base store) and syncs
/// every copied file: left dirty, the copy would be flushed by the first
/// `fsync` of the timed ops that follow and be billed to them.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest)?;
            std::fs::File::open(&dest)?.sync_all()?;
        }
    }
    Ok(())
}

/// `<build dir>/bench`: the only place the harness writes. The build
/// directory is where cargo put this executable, so results never land in
/// the source tree whatever `CARGO_TARGET_DIR` says.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    let profile_dir = exe.parent().expect("executable has a directory");
    // Test executables live one level deeper (`<profile>/deps`).
    let profile_dir = if profile_dir.ends_with("deps") {
        profile_dir.parent().expect("deps has a parent")
    } else {
        profile_dir
    };
    profile_dir
        .parent()
        .expect("profile directory has a parent")
        .join("bench")
}

/// A fresh scratch directory under [`out_dir`], unique in this process
/// and across concurrent processes.
pub fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = out_dir().join(format!(
        "work-{}-{}-{label}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// SplitMix64: the harness's only random source, so `--seed` fully
/// determines every generated input and schedule.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
