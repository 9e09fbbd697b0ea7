//! One workload, one process: set-up, warm-up, the timed window, the
//! checks, and the metrics in the shape `BENCHMARK.json` promises.

use crate::calib::{now_s, Calibrator, NOMINAL_MS};
use crate::harness::{
    out_dir, peak_rss_mb, record_trace, scratch_dir, Env, Limit, Recorder, Scale, Workload,
    END_TO_END, PER_LAYER,
};
use crate::json::{obj, Value};
use crate::stats::{self, summarize};
use crate::trace::{spans_json, Tracer};
use crate::workloads;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// A traced run alternates untraced and traced slices of its loop, so
/// that drift over the run (caches, a growing feed, the host) cancels out
/// of `trace_overhead_share`: this many slices of this share of
/// `--seconds` each. The probes take about as long again.
const TRACED_SLICES: usize = 6;
const TRACED_SLICE_SHARE: f64 = 0.1;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where to write the per-metric distributions (`bench run` over
    /// several workloads collects these into one result file).
    pub detail: Option<PathBuf>,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    rec: Recorder,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                obj(vec![
                                    ("value", Value::Num(m.value)),
                                    ("unit", Value::Str(m.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Per metric `{unit, median, p10, p90, min, samples}`: `median` is
    /// the reported value, the band comes from the samples behind it (a
    /// single derived value is its own band).
    pub fn detail(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let backing = match m.name {
                    "inspect_ms.p50" | "inspect_ms.p90" | "server.inspect_ms.p99" => "inspect_ms",
                    "view_read_ms.p50" => "view_read_ms",
                    "refresh_ms.p50" => "refresh_ms",
                    other => other,
                };
                let samples = self.rec.get(backing);
                let band = if samples.is_empty() {
                    summarize(&[m.value])
                } else {
                    summarize(samples)
                };
                (
                    m.name.to_string(),
                    obj(vec![
                        ("unit", Value::Str(m.unit.into())),
                        ("median", Value::Num(m.value)),
                        ("p10", Value::Num(band.p10)),
                        ("p90", Value::Num(band.p90)),
                        ("min", Value::Num(band.min)),
                        ("samples", Value::Num(band.samples as f64)),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    pub fn print_table(&self, workload: &str, traced: bool) {
        println!(
            "== {workload} ({}) : {} ops attempted, {} failed ==",
            if traced {
                "traced, per layer"
            } else {
                "untraced, end to end"
            },
            self.attempted,
            self.failed
        );
        for why in &self.failures {
            println!("   failure: {why}");
        }
        for m in &self.metrics {
            println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
}

struct Ready {
    workload: Box<dyn Workload>,
    tracer: std::sync::Arc<Tracer>,
    dir: PathBuf,
    setup_s: f64,
}

fn set_up(args: &RunArgs) -> Result<Ready, String> {
    let tracer = Tracer::new();
    let dir = scratch_dir(&args.workload);
    let env = Env {
        seed: args.seed,
        scale: args.scale,
        dir: dir.clone(),
        tracer: std::sync::Arc::clone(&tracer),
    };
    // Set-up is one uninterrupted stretch of work, so the machine speed
    // it ran at is judged by a kernel sample on either side.
    let mut calibrator = Calibrator::default();
    calibrator.sample();
    let start = Instant::now();
    let workload = workloads::setup(&args.workload, &env).ok_or_else(|| {
        format!(
            "unknown workload {:?}; one of {:?}",
            args.workload,
            workloads::NAMES
        )
    })?;
    let raw_s = start.elapsed().as_secs_f64();
    calibrator.sample();
    let kernel_ms = calibrator.samples.iter().map(|s| s.1).sum::<f64>() / 2.0;
    Ok(Ready {
        workload,
        tracer,
        dir,
        setup_s: raw_s * NOMINAL_MS / kernel_ms,
    })
}

fn tear_down(ready: Ready) {
    // Servers stop and stores close before their directory goes.
    drop(ready.workload);
    let _ = std::fs::remove_dir_all(&ready.dir);
}

fn window(args: &RunArgs, share: f64) -> Limit {
    match args.scale {
        Scale::Full => Limit::For(Duration::from_secs_f64(args.seconds * share)),
        // The smoke scale counts ops instead of seconds.
        Scale::Smoke => Limit::Iterations(2),
    }
}

pub fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn untraced(args: &RunArgs) -> Result<Outcome, String> {
    let mut setup_times = Vec::new();
    let mut ready = set_up(args)?;
    setup_times.push(ready.setup_s);
    for _ in 1..args.scale.pick(SETUP_REPS, 1) {
        tear_down(ready);
        ready = set_up(args)?;
        setup_times.push(ready.setup_s);
    }
    let mut rec = Recorder::default();
    // Let caches fill and lazy initialization finish before timing.
    ready
        .workload
        .run(Limit::Iterations(1), &mut Recorder::default());
    let start_s = now_s();
    let elapsed = ready
        .workload
        .run(window(args, 1.0), &mut rec)
        .as_secs_f64();
    let ops = rec.attempted;
    let (curve, busy_s) = rec.normalize();
    let elapsed = if ready.workload.concurrent() {
        curve.effective_s(start_s, start_s + elapsed)
    } else {
        busy_s
    };
    ready.workload.finish(&mut rec);
    tear_down(ready);

    let inspect = rec.get("inspect_ms");
    let values = [
        stats::median(&setup_times),
        stats::median(inspect),
        stats::percentile(inspect, 0.9),
        ops as f64 / elapsed,
        peak_rss_mb(),
    ];
    Ok(outcome(
        rec,
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect(),
    ))
}

fn traced(args: &RunArgs) -> Result<Outcome, String> {
    let mut ready = set_up(args)?;
    ready
        .workload
        .run(Limit::Iterations(1), &mut Recorder::default());

    let (mut plain, mut rec) = (Recorder::default(), Recorder::default());
    for slice in 0..TRACED_SLICES {
        let on = slice % 2 == 1;
        ready.tracer.set_enabled(on);
        let into = if on { &mut rec } else { &mut plain };
        ready.workload.run(window(args, TRACED_SLICE_SHARE), into);
    }
    ready.tracer.set_enabled(false);
    let spans = ready.tracer.take_spans();

    let (curve, _) = plain.normalize();
    rec.normalize();
    let (untraced_p50, traced_p50) = (plain.median("inspect_ms"), rec.median("inspect_ms"));
    if untraced_p50 > 0.0 {
        rec.push("trace_overhead_share", traced_p50 / untraced_p50 - 1.0);
    }
    // Per-layer latencies pool both loops (twice the samples; the spans
    // cost 0–4%); end-to-end metrics come from untraced runs only.
    rec.merge(plain);
    rec.push("machine.speed_factor", curve.median_factor());
    rec.push("raw.inspect_ms.p50", rec.median("raw.inspect_ms"));
    ready.workload.finish(&mut rec);
    record_trace(&spans, &mut rec);
    ready.workload.probes(&mut rec);
    tear_down(ready);

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let trace_path = dir.join(format!("trace-{}.json", args.workload));
    std::fs::write(&trace_path, spans_json(&args.workload, &spans).render())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    println!("trace: {} spans -> {}", spans.len(), trace_path.display());

    rec.push("view_read_ms.p50", rec.median("view_read_ms"));
    rec.push("refresh_ms.p50", rec.median("refresh_ms"));
    rec.push(
        "failed_share",
        rec.failed as f64 / rec.attempted.max(1) as f64,
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: rec.median(name),
        })
        .collect();
    Ok(outcome(rec, metrics))
}

fn outcome(rec: Recorder, metrics: Vec<Metric>) -> Outcome {
    Outcome {
        attempted: rec.attempted,
        failed: rec.failed,
        failures: rec.failures.clone(),
        metrics,
        rec,
    }
}

/// Runs one workload in this process and prints its table and contract
/// line; writes the detail file when asked. Returns whether every answer
/// was correct.
pub fn run_and_print(args: &RunArgs) -> Result<bool, String> {
    let outcome = run_workload(args)?;
    outcome.print_table(&args.workload, args.trace);
    if let Some(path) = &args.detail {
        std::fs::write(path, outcome.detail().render())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", outcome.contract_line());
    Ok(outcome.correct())
}
