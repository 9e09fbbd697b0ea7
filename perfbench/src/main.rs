//! `bench run [--workload w] [--seed n] [--seconds s] [--trace [0|1]]`
//! and `bench diff base.json new.json [--spec BENCHMARK.json]`.
//!
//! With `--workload`, `run` measures that workload in this process and
//! ends its output with the one-line JSON result `BENCHMARK.json`
//! describes. Without it, `run` re-executes itself once per workload (so
//! set-up time and peak memory are per workload) and collects every
//! metric's distribution into `<build dir>/bench/<run-id>.json`.

use perfbench::harness::{out_dir, Scale};
use perfbench::json::{self, obj, Value};
use perfbench::run::{run_and_print, RunArgs};
use perfbench::{diff, workloads};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  bench run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
  bench diff BASE.json NEW.json [--spec BENCHMARK.json]";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `Some(true)`: per-layer run; `Some(false)`: end-to-end run;
    /// `None` (bare `--trace` on a multi-workload run): both.
    trace: Option<bool>,
    detail: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 11,
        seconds: 10.0,
        trace: Some(false),
        detail: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--detail" => cli.detail = Some(PathBuf::from(value("--detail")?)),
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => Some(false),
                    Some("1") => Some(true),
                    _ => None,
                };
                if cli.trace.is_some() {
                    it.next();
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(cli)
}

/// Re-executes this binary for one workload and returns its detail.
fn child(workload: &str, cli: &Cli, trace: bool) -> Result<Value, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let detail = dir.join(format!(
        "detail-{}-{workload}-{}.json",
        std::process::id(),
        trace as u8
    ));
    let status = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(["run", "--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .status()
        .map_err(|e| format!("spawn bench for {workload}: {e}"))?;
    let text = std::fs::read_to_string(&detail).map_err(|e| format!("{workload}: no result ({e})"));
    let _ = std::fs::remove_file(&detail);
    if !status.success() {
        return Err(format!("{workload}: bench exited with {status}"));
    }
    json::parse(&text?)
}

fn run_all(cli: &Cli) -> Result<bool, String> {
    let kinds: &[(bool, &str)] = match cli.trace {
        Some(false) => &[(false, "end_to_end")],
        Some(true) => &[(true, "per_layer")],
        None => &[(false, "end_to_end"), (true, "per_layer")],
    };
    let mut workloads_out = Vec::new();
    let mut all_correct = true;
    for name in workloads::NAMES {
        let mut runs = Vec::new();
        for &(trace, key) in kinds {
            let detail = child(name, cli, trace)?;
            all_correct &= detail.get("failed").and_then(Value::as_f64) == Some(0.0);
            runs.push((key, detail));
        }
        workloads_out.push((name, obj(runs)));
    }
    let run_id = format!(
        "run-{}-seed{}",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        cli.seed
    );
    let result = obj(vec![
        ("run_id", Value::Str(run_id.clone())),
        ("seed", Value::Num(cli.seed as f64)),
        ("seconds", Value::Num(cli.seconds)),
        (
            "available_parallelism",
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("workloads", obj(workloads_out)),
    ]);
    let path = out_dir().join(format!("{run_id}.json"));
    std::fs::write(&path, result.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("results: {}", path.display());
    Ok(all_correct)
}

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let cli = parse_run(&args[1..])?;
            match &cli.workload {
                Some(workload) => run_and_print(&RunArgs {
                    workload: workload.clone(),
                    seed: cli.seed,
                    seconds: cli.seconds,
                    // A bare `--trace` on one workload means the traced run.
                    trace: cli.trace.unwrap_or(true),
                    scale: Scale::Full,
                    detail: cli.detail.clone(),
                }),
                None => run_all(&cli),
            }
        }
        Some("diff") => {
            let mut files = Vec::new();
            let mut spec = PathBuf::from("BENCHMARK.json");
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                if arg == "--spec" {
                    spec = PathBuf::from(it.next().ok_or("--spec needs a path")?);
                } else {
                    files.push(arg);
                }
            }
            let [base, new] = files[..] else {
                return Err(USAGE.into());
            };
            let read = |p: &std::path::Path| {
                std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))
            };
            let (text, clean) =
                diff::diff(&read(base.as_ref())?, &read(new.as_ref())?, &read(&spec)?)?;
            print!("{text}");
            Ok(clean)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        // A wrong answer or a worse metric is reported in the output;
        // the exit code says so too.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}
