//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation (Figs. 1–15 and the
//! appendix benchmarks) has a binary in `src/bin/` that prints the same
//! rows/series the paper reports. Defaults are scaled to finish in
//! seconds–minutes on a laptop; pass `--paper` for paper-scale parameters
//! (§6.2: 29,696 records, 512 units, 142 rules, 190 hypotheses) and
//! `--scale X` to multiply a figure's record, sentence, string or image
//! count ([`Args::scaled`]; fig02's survey has none).

use deepbase::prelude::*;
use deepbase::workloads::sql;
use deepbase_lang::sql::SqlGrammarConfig;
use std::time::{Duration, Instant};

/// Common CLI arguments for harness binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Run at the paper's full scale.
    pub paper: bool,
    /// Extra scale multiplier on records (1.0 = preset).
    pub scale: f32,
}

impl Args {
    /// Parses `--paper` and `--scale X` from `std::env::args`. A bad flag
    /// prints what is wrong and the usage line and exits with status 2;
    /// `--help` prints the usage line and exits with status 0.
    pub fn parse() -> Args {
        const USAGE: &str = "flags: --paper (full paper scale), --scale X (record multiplier, > 0)";
        match Args::parse_from(std::env::args().skip(1)) {
            Ok(Some(args)) => args,
            Ok(None) => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses harness flags (the program name already skipped):
    /// `Ok(None)` asks for the usage line (`--help`); an unknown flag or a
    /// `--scale` that is missing, not finite or not positive is an `Err`
    /// naming it.
    pub fn parse_from(flags: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
        let mut args = Args {
            paper: false,
            scale: 1.0,
        };
        let mut flags = flags.into_iter();
        while let Some(flag) = flags.next() {
            match flag.as_str() {
                "--paper" => args.paper = true,
                "--scale" => {
                    let value = flags.next().unwrap_or_default();
                    args.scale = value
                        .parse()
                        .ok()
                        .filter(|scale: &f32| scale.is_finite() && *scale > 0.0)
                        .ok_or_else(|| {
                            format!("--scale needs a finite number > 0, got {value:?}")
                        })?;
                }
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Some(args))
    }

    /// `n` times `--scale`, at least `floor`: the one rule every harness
    /// scales its record, sentence, string and image counts by.
    pub fn scaled(&self, n: usize, floor: usize) -> usize {
        ((n as f32 * self.scale) as usize).max(floor)
    }
}

/// Times a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Seconds as a compact string.
pub fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Prints an aligned table: header row then data rows.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// The §6.2 scalability setup: SQL workload + trained model, at harness
/// scale.
pub struct SqlBenchSetup {
    /// The workload (dataset, hypotheses, parse cache, vocab).
    pub workload: sql::SqlWorkload,
    /// The trained auto-completion model.
    pub model: deepbase_nn::CharLstmModel,
    /// Hidden width used.
    pub hidden: usize,
}

/// Builds the benchmark setup at the size the caller passes: `records`
/// (times `--scale`) windows and `hidden` units, under `--paper` too —
/// a paper-scale sweep varies them point by point, so the caller picks
/// the §6.2 sizes (29,696 records, 512 hidden units at the base point);
/// `--paper` itself only lengthens training.
pub fn sql_bench_setup(args: &Args, records: usize, hidden: usize) -> SqlBenchSetup {
    let records = args.scaled(records, 64);
    let workload = sql::build(&sql::SqlWorkloadConfig {
        grammar: SqlGrammarConfig::medium(),
        n_queries: (records / 6).max(8),
        max_records: records,
        ..Default::default()
    });
    let epochs = if args.paper { 8 } else { 2 };
    let snapshots = sql::train_model(&workload, hidden, epochs, 0.02, 0);
    let model = snapshots.into_iter().last().expect("at least one snapshot");
    SqlBenchSetup {
        workload,
        model,
        hidden,
    }
}

/// Runs one inspection with the given engine/measure and returns its
/// profile (scores are discarded; the harnesses report runtimes).
pub fn run_engine(
    setup: &SqlBenchSetup,
    hypotheses: &[&dyn HypothesisFn],
    measure: &dyn Measure,
    engine: EngineKind,
    device: Device,
    epsilon: Option<f32>,
) -> Profile {
    let extractor = CharModelExtractor::new(&setup.model);
    let request = InspectionRequest {
        model_id: "sql_char_model".into(),
        extractor: &extractor,
        groups: vec![UnitGroup::all(setup.model.hidden())],
        dataset: &setup.workload.dataset,
        hypotheses: hypotheses.to_vec(),
        measures: vec![measure],
    };
    let config = InspectionConfig {
        device,
        epsilon,
        ..Default::default()
    };
    let (_, profile) = inspect_as(engine, &request, &config).expect("benchmark inspection");
    profile
}

/// The runtime sweep Figs. 5–7 share: per measure, one table for each
/// axis (#hypotheses, #records, #hidden units) with a row per axis value
/// and a [`run_engine`] time per variant, the other two axes held at
/// their base. The paper-scale sizes are §6.2's; `quick_records` is the
/// figure's default record sweep (its last value is the base). A measure
/// labelled `""` gets the short section title; `x_headers` name the first
/// column of the three tables.
pub fn sweep_figure(
    args: &Args,
    title: &str,
    measures: &[(&str, &dyn Measure)],
    variants: &[(&str, EngineKind, Device)],
    quick_records: [usize; 3],
    x_headers: [&str; 3],
) {
    println!("== {title} ==");
    let (records, units, hyps, base_units) = if args.paper {
        ([7_424, 14_848, 29_696], [128, 256, 512], [48, 96, 190], 512)
    } else {
        (quick_records, [16, 32, 64], [4, 8, 16], 32)
    };
    let base_records = records[2];
    // Per axis: its name, what it holds fixed, and the (records, units,
    // #hypotheses) point of each row.
    let axes = [
        (
            "#hypotheses",
            format!("{base_records} records, {base_units} units"),
            hyps.map(|h| (base_records, base_units, h)),
        ),
        (
            "#records",
            format!("{base_units} units"),
            records.map(|r| (r, base_units, hyps[1])),
        ),
        (
            "#hidden units",
            format!("{base_records} records"),
            units.map(|u| (base_records, u, hyps[1])),
        ),
    ];
    // The trained setup of the last point, rebuilt only when (records,
    // units) move: the whole hypothesis axis shares one.
    let mut built: Option<((usize, usize), SqlBenchSetup)> = None;
    for (axis, ((name, fixed, points), x_header)) in axes.iter().zip(x_headers).enumerate() {
        for (label, measure) in measures {
            if label.is_empty() {
                println!("\n-- sweep over {name} --");
            } else {
                println!("\n-- {label}: sweep over {name} ({fixed}) --");
            }
            let mut rows = Vec::new();
            for &(n_records, n_units, n_hyps) in points {
                let at = (n_records, n_units);
                let kept = built.take().filter(|(was, _)| *was == at);
                let (_, setup) = built.insert(
                    kept.unwrap_or_else(|| (at, sql_bench_setup(args, n_records, n_units))),
                );
                let hyps = hypothesis_refs(&setup.workload, n_hyps);
                let x = [n_hyps, setup.workload.dataset.len(), n_units][axis];
                let mut cells = vec![x.to_string()];
                for &(_, engine, device) in variants {
                    let profile = run_engine(setup, &hyps, *measure, engine, device, None);
                    cells.push(secs(profile.total));
                }
                rows.push(cells);
            }
            let header: Vec<&str> = std::iter::once(x_header)
                .chain(variants.iter().map(|v| v.0))
                .collect();
            print_table(&header, &rows);
        }
    }
}

/// Subset of the hypothesis library as trait objects.
pub fn hypothesis_refs(workload: &sql::SqlWorkload, n: usize) -> Vec<&dyn HypothesisFn> {
    workload
        .hypotheses
        .iter()
        .take(n)
        .map(|h| h as &dyn HypothesisFn)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_setup_builds_and_runs() {
        let args = Args {
            paper: false,
            scale: 1.0,
        };
        let setup = sql_bench_setup(&args, 128, 12);
        assert!(setup.workload.dataset.len() <= 128);
        let hyps = hypothesis_refs(&setup.workload, 4);
        assert_eq!(hyps.len(), 4);
        let corr = CorrelationMeasure;
        let profile = run_engine(
            &setup,
            &hyps,
            &corr,
            EngineKind::DeepBase,
            Device::SingleCore,
            Some(0.1),
        );
        assert!(profile.records_read > 0);
    }

    #[test]
    fn paper_setup_honours_the_size_it_is_asked_for() {
        // Two points of the paper-scale record sweep, shrunk by --scale
        // so nothing trains at paper scale: they must not resolve to one
        // (29,696 x 512) model.
        let args = Args {
            paper: true,
            scale: 0.01,
        };
        let small = sql_bench_setup(&args, 7_424, 6);
        let large = sql_bench_setup(&args, 14_848, 8);
        assert!(
            small.workload.dataset.len() < large.workload.dataset.len(),
            "{} vs {} records",
            small.workload.dataset.len(),
            large.workload.dataset.len()
        );
        assert!(large.workload.dataset.len() <= 148);
        assert_eq!((small.model.hidden(), large.model.hidden()), (6, 8));
        assert_eq!((small.hidden, large.hidden), (6, 8));
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let parse = |flags: &[&str]| Args::parse_from(flags.iter().map(|f| f.to_string()));
        let args = parse(&[]).unwrap().unwrap();
        assert_eq!((args.paper, args.scale), (false, 1.0));
        let args = parse(&["--scale", "0.25", "--paper"]).unwrap().unwrap();
        assert_eq!((args.paper, args.scale), (true, 0.25));
        assert!(parse(&["--help"]).unwrap().is_none());
        assert!(parse(&["--scal", "0.25"]).unwrap_err().contains("--scal"));
        for bad in ["inf", "-inf", "NaN", "0", "-1", "x"] {
            assert!(parse(&["--scale", bad]).is_err(), "--scale {bad}");
        }
        assert!(parse(&["--scale"]).is_err());
    }

    #[test]
    fn scaled_counts_keep_their_floor() {
        let at = |scale| Args {
            paper: false,
            scale,
        };
        assert_eq!(at(1.0).scaled(480, 64), 480);
        assert_eq!(at(0.25).scaled(480, 64), 120);
        assert_eq!(at(0.01).scaled(480, 64), 64);
    }

    #[test]
    fn table_printer_aligns() {
        print_table(
            &["engine", "time"],
            &[
                vec!["PyBase".into(), "1.0s".into()],
                vec!["DeepBase".into(), "0.1s".into()],
            ],
        );
    }
}
