//! Harness-side spans: the program under test is not instrumented, so
//! every span is recorded from this crate — around the public calls an op
//! makes, inside the bench-owned extractor and hypothesis wrappers, and
//! from the timings the program's own reports return.
//!
//! A span has a name, start, end, parent and op id. Wrapper calls are
//! *leaves*: thousands per op, so consecutive calls of one name under one
//! parent fold into a single span that keeps `calls` and `busy_ns` (the
//! summed call time) next to its first-start/last-end envelope. A span's
//! self time is its busy time minus its children's busy time.

use crate::json::{obj, Value};
use deepbase::prelude::{DniError, Extractor, HypothesisFn, Record};
use deepbase_tensor::Matrix;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const EXTRACT: &str = "core.extract";
pub const HYPOTHESIS: &str = "core.hypothesis";
/// Leaf kinds, as indices into the per-thread accumulators.
const LEAF_NAMES: [&str; 2] = [EXTRACT, HYPOTHESIS];
const EXTRACT_LEAF: usize = 0;
const HYPOTHESIS_LEAF: usize = 1;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Id of the op span this span belongs to (an op span names itself).
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
    pub busy_ns: u64,
}

#[derive(Clone, Copy, Default)]
struct Leaf {
    calls: u64,
    busy_ns: u64,
    first_ns: u64,
    last_ns: u64,
}

#[derive(Default)]
struct ThreadCtx {
    /// Open spans on this thread, innermost last: `(span id, op id)`.
    open: Vec<(u32, u32)>,
    leaves: [Leaf; 2],
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx::default());
}

/// Always-on call counters of the wrappers, with the busy time they
/// accumulated while tracing was on (all threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WrapperCounts {
    pub extract_calls: u64,
    pub extract_records: u64,
    pub hypothesis_calls: u64,
    pub extract_busy_ns: u64,
    pub hypothesis_busy_ns: u64,
}

impl WrapperCounts {
    pub fn since(&self, before: &WrapperCounts) -> WrapperCounts {
        WrapperCounts {
            extract_calls: self.extract_calls - before.extract_calls,
            extract_records: self.extract_records - before.extract_records,
            hypothesis_calls: self.hypothesis_calls - before.hypothesis_calls,
            extract_busy_ns: self.extract_busy_ns - before.extract_busy_ns,
            hypothesis_busy_ns: self.hypothesis_busy_ns - before.hypothesis_busy_ns,
        }
    }
}

pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    extract_calls: AtomicU64,
    extract_records: AtomicU64,
    hypothesis_calls: AtomicU64,
    extract_busy_ns: AtomicU64,
    hypothesis_busy_ns: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            extract_calls: AtomicU64::new(0),
            extract_records: AtomicU64::new(0),
            hypothesis_calls: AtomicU64::new(0),
            extract_busy_ns: AtomicU64::new(0),
            hypothesis_busy_ns: AtomicU64::new(0),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn counts(&self) -> WrapperCounts {
        WrapperCounts {
            extract_calls: self.extract_calls.load(Ordering::Relaxed),
            extract_records: self.extract_records.load(Ordering::Relaxed),
            hypothesis_calls: self.hypothesis_calls.load(Ordering::Relaxed),
            extract_busy_ns: self.extract_busy_ns.load(Ordering::Relaxed),
            hypothesis_busy_ns: self.hypothesis_busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Opens an op span (the root of one timed sample).
    pub fn op(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        self.open(name, true)
    }

    /// Opens a span under the innermost open span of this thread.
    pub fn span(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        self.open(name, false)
    }

    fn open(self: &Arc<Self>, name: &'static str, is_op: bool) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard { live: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, op) = CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let top = if is_op {
                None
            } else {
                ctx.open.last().copied()
            };
            let op = top.map_or(id, |(_, op)| op);
            if ctx.open.is_empty() {
                // Leaves recorded outside any span on this thread belong
                // to nobody; drop them so they cannot leak into this one.
                ctx.leaves = Default::default();
            }
            ctx.open.push((id, op));
            (top.map(|(p, _)| p), op)
        });
        SpanGuard {
            live: Some(LiveSpan {
                tracer: Arc::clone(self),
                id,
                parent,
                op,
                name,
                start_ns: self.now_ns(),
                end_ns: None,
            }),
        }
    }

    fn leaf(&self, which: usize, start_ns: u64, end_ns: u64) {
        let busy = end_ns - start_ns;
        let total = if which == EXTRACT_LEAF {
            &self.extract_busy_ns
        } else {
            &self.hypothesis_busy_ns
        };
        total.fetch_add(busy, Ordering::Relaxed);
        CTX.with(|ctx| {
            let leaf = &mut ctx.borrow_mut().leaves[which];
            if leaf.calls == 0 {
                leaf.first_ns = start_ns;
            }
            leaf.calls += 1;
            leaf.busy_ns += busy;
            leaf.last_ns = end_ns;
        });
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.lock().expect("span lock"))
    }
}

struct LiveSpan {
    tracer: Arc<Tracer>,
    id: u32,
    parent: Option<u32>,
    op: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// Closes its span when dropped; inert while tracing is off.
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl SpanGuard {
    /// Stamps the span's end now but keeps it open, so time the
    /// program's report attributes to parts of it can still be
    /// [`SpanGuard::note`]d as children without stretching it.
    pub fn finish(&mut self) {
        if let Some(live) = &mut self.live {
            live.end_ns.get_or_insert(live.tracer.now_ns());
        }
    }

    /// Records time the program's own report attributes to `name` as a
    /// child of this span. A report gives a duration but no position, so
    /// the child carries this span's start as both its stamps.
    pub fn note(&self, name: &'static str, busy: Duration, calls: u64) {
        let Some(live) = &self.live else {
            return;
        };
        live.tracer.spans.lock().expect("span lock").push(Span {
            id: live.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent: Some(live.id),
            op: live.op,
            name,
            start_ns: live.start_ns,
            end_ns: live.start_ns,
            calls,
            busy_ns: busy.as_nanos() as u64,
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let end_ns = live.end_ns.unwrap_or_else(|| live.tracer.now_ns());
        let leaves = CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            ctx.open.retain(|&(id, _)| id != live.id);
            std::mem::take(&mut ctx.leaves)
        });
        let mut spans = live.tracer.spans.lock().expect("span lock");
        for (leaf, name) in leaves.iter().zip(LEAF_NAMES) {
            if leaf.calls > 0 {
                spans.push(Span {
                    id: live.tracer.next_id.fetch_add(1, Ordering::Relaxed),
                    parent: Some(live.id),
                    op: live.op,
                    name,
                    start_ns: leaf.first_ns,
                    end_ns: leaf.last_ns,
                    calls: leaf.calls,
                    busy_ns: leaf.busy_ns,
                });
            }
        }
        spans.push(Span {
            id: live.id,
            parent: live.parent,
            op: live.op,
            name: live.name,
            start_ns: live.start_ns,
            end_ns,
            calls: 1,
            busy_ns: end_ns - live.start_ns,
        });
    }
}

/// The bench-owned extractor wrapper: counts forward passes always (the
/// zero-forward-pass check reads it on untraced runs too) and records a
/// leaf span per call while tracing is on. `n_units` and `fingerprint`
/// pass through, so planner and store see the inner extractor.
pub struct TimedExtractor {
    inner: Arc<dyn Extractor>,
    tracer: Arc<Tracer>,
}

impl TimedExtractor {
    pub fn wrap(inner: Arc<dyn Extractor>, tracer: &Arc<Tracer>) -> Arc<dyn Extractor> {
        Arc::new(TimedExtractor {
            inner,
            tracer: Arc::clone(tracer),
        })
    }
}

impl Extractor for TimedExtractor {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        let t = &self.tracer;
        t.extract_calls.fetch_add(1, Ordering::Relaxed);
        t.extract_records
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        if !t.enabled() {
            return self.inner.extract(records, unit_ids);
        }
        let start = t.now_ns();
        let out = self.inner.extract(records, unit_ids);
        t.leaf(EXTRACT_LEAF, start, t.now_ns());
        out
    }

    fn fingerprint(&self) -> Option<u64> {
        self.inner.fingerprint()
    }
}

/// The bench-owned hypothesis wrapper (same contract as
/// [`TimedExtractor`]; the id passes through, so caches key as before).
pub struct TimedHypothesis {
    inner: Arc<dyn HypothesisFn>,
    tracer: Arc<Tracer>,
}

impl TimedHypothesis {
    pub fn wrap(inner: Arc<dyn HypothesisFn>, tracer: &Arc<Tracer>) -> Arc<dyn HypothesisFn> {
        Arc::new(TimedHypothesis {
            inner,
            tracer: Arc::clone(tracer),
        })
    }
}

impl HypothesisFn for TimedHypothesis {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn behavior(&self, record: &Record) -> Result<Vec<f32>, DniError> {
        let t = &self.tracer;
        t.hypothesis_calls.fetch_add(1, Ordering::Relaxed);
        if !t.enabled() {
            return self.inner.behavior(record);
        }
        let start = t.now_ns();
        let out = self.inner.behavior(record);
        t.leaf(HYPOTHESIS_LEAF, start, t.now_ns());
        out
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub busy_ns: u64,
    pub self_ns: u64,
    pub calls: u64,
}

/// Busy and self time per span name, for each op: `op id -> name ->
/// time`. A span's self time is its busy time minus its children's.
pub fn per_op_layers(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, LayerTime>> {
    let mut child_busy: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_busy.entry(p).or_default() += s.busy_ns;
        }
    }
    let mut out: BTreeMap<u32, BTreeMap<&'static str, LayerTime>> = BTreeMap::new();
    for s in spans {
        let entry = out.entry(s.op).or_default().entry(s.name).or_default();
        entry.busy_ns += s.busy_ns;
        entry.calls += s.calls;
        entry.self_ns += s
            .busy_ns
            .saturating_sub(child_busy.get(&s.id).copied().unwrap_or(0));
    }
    out
}

pub fn spans_json(workload: &str, spans: &[Span]) -> Value {
    obj(vec![
        ("workload", Value::Str(workload.into())),
        (
            "spans",
            Value::Arr(
                spans
                    .iter()
                    .map(|s| {
                        obj(vec![
                            ("id", Value::Num(s.id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                            ("op", Value::Num(s.op as f64)),
                            ("name", Value::Str(s.name.into())),
                            ("start_ns", Value::Num(s.start_ns as f64)),
                            ("end_ns", Value::Num(s.end_ns as f64)),
                            ("calls", Value::Num(s.calls as f64)),
                            ("busy_ns", Value::Num(s.busy_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepbase::prelude::FnHypothesis;

    #[test]
    fn disabled_tracer_counts_calls_but_records_nothing() {
        let tracer = Tracer::new();
        let hyp = TimedHypothesis::wrap(Arc::new(FnHypothesis::position_counter()), &tracer);
        let rec = Record::standalone(0, vec![0, 1], "ab".into());
        {
            let _op = tracer.op("op");
            hyp.behavior(&rec).unwrap();
        }
        assert_eq!(tracer.counts().hypothesis_calls, 1);
        assert!(tracer.take_spans().is_empty());
    }

    #[test]
    fn leaves_fold_under_the_innermost_span_and_self_time_subtracts_children() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let hyp = TimedHypothesis::wrap(Arc::new(FnHypothesis::position_counter()), &tracer);
        let rec = Record::standalone(0, vec![0, 1], "ab".into());
        {
            let _op = tracer.op("op");
            let mut exec = tracer.span("execute");
            for _ in 0..3 {
                hyp.behavior(&rec).unwrap();
            }
            exec.finish();
            exec.note("core.measure", Duration::from_nanos(5), 1);
        }
        let spans = tracer.take_spans();
        let op = spans.iter().find(|s| s.name == "op").unwrap();
        let exec = spans.iter().find(|s| s.name == "execute").unwrap();
        let leaf = spans.iter().find(|s| s.name == HYPOTHESIS).unwrap();
        assert_eq!(exec.parent, Some(op.id));
        assert_eq!(
            (leaf.parent, leaf.calls, leaf.op),
            (Some(exec.id), 3, op.id)
        );
        let layers = &per_op_layers(&spans)[&op.id];
        assert_eq!(
            layers["execute"].self_ns,
            exec.busy_ns - leaf.busy_ns - 5,
            "self = busy - children"
        );
        assert_eq!(layers["op"].self_ns, op.busy_ns - exec.busy_ns);
    }
}
