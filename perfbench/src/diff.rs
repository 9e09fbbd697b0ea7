//! `bench diff base.json new.json`: one row per workload × metric with
//! the ratio and its base, judged against the bound `BENCHMARK.json`
//! fixes for that metric.

use crate::harness::EXACT_COUNTERS;
use crate::json::Value;
use crate::stats::band_overlap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The medians differ by more than the bound, but the two sides'
    /// p10–p90 bands overlap by more than the bound: run longer.
    Unresolved,
}

#[derive(Debug, Clone, Copy)]
pub struct Band {
    pub median: f64,
    pub p10: f64,
    pub p90: f64,
}

pub fn verdict(base: Band, new: Band, lower_is_better: bool, bound: f64) -> Verdict {
    if base.median == 0.0 {
        return if new.median == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let change = (new.median - base.median) / base.median.abs();
    let worse_by = if lower_is_better { change } else { -change };
    if worse_by.abs() <= bound {
        Verdict::Same
    } else if band_overlap((base.p10, base.p90), (new.p10, new.p90), base.median) > bound {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

/// `(lower_is_better, bound)` per metric name; per-layer metrics carry
/// no bound.
struct Spec {
    end_to_end: Vec<(String, bool, f64)>,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let root = crate::json::parse(text)?;
        let end_to_end = root
            .get("end_to_end")
            .ok_or("spec has no end_to_end list")?
            .as_arr()
            .iter()
            .map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("better")?.as_str()? == "lower",
                    m.get("bound")?.as_f64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("malformed end_to_end entry in spec")?;
        Ok(Spec { end_to_end })
    }
}

fn band(metric: &Value) -> Option<Band> {
    Some(Band {
        median: metric.get("median")?.as_f64()?,
        p10: metric.get("p10")?.as_f64()?,
        p90: metric.get("p90")?.as_f64()?,
    })
}

/// Renders the comparison; `Ok(true)` when nothing is worse and every
/// exact counter repeated.
pub fn diff(base: &str, new: &str, spec: &str) -> Result<(String, bool), String> {
    let spec = Spec::parse(spec)?;
    let (base, new) = (crate::json::parse(base)?, crate::json::parse(new)?);
    let mut out = format!(
        "{:<18} {:<36} {:>14} {:>14} {:>8}  {}\n",
        "workload", "metric", "base", "new", "ratio", "verdict"
    );
    let mut clean = true;
    let workloads = base.get("workloads").ok_or("base has no workloads")?;
    for (workload, base_runs) in workloads.as_obj() {
        let Some(new_runs) = new.get("workloads").and_then(|w| w.get(workload)) else {
            out.push_str(&format!("{workload:<18} missing from the new result\n"));
            clean = false;
            continue;
        };
        for kind in ["end_to_end", "per_layer"] {
            let (Some(b), Some(n)) = (base_runs.get(kind), new_runs.get(kind)) else {
                continue;
            };
            let no_metrics = Value::Obj(Vec::new());
            let metrics = b.get("metrics").unwrap_or(&no_metrics);
            for (name, base_metric) in metrics.as_obj() {
                let (Some(bb), Some(nb)) = (
                    band(base_metric),
                    n.get("metrics").and_then(|m| m.get(name)).and_then(band),
                ) else {
                    continue;
                };
                let label = if EXACT_COUNTERS.contains(&name.as_str()) {
                    if bb.median == nb.median {
                        "exact"
                    } else {
                        clean = false;
                        "MISMATCH (must repeat exactly)"
                    }
                } else if let Some((_, lower, bound)) =
                    spec.end_to_end.iter().find(|(n, _, _)| n == name)
                {
                    match verdict(bb, nb, *lower, *bound) {
                        Verdict::Better => "better",
                        Verdict::Same => "same",
                        Verdict::Unresolved => "unresolved",
                        Verdict::Worse => {
                            clean = false;
                            "WORSE"
                        }
                    }
                } else {
                    "-"
                };
                let ratio = if bb.median == 0.0 {
                    "-".to_string()
                } else {
                    format!("{:.3}", nb.median / bb.median)
                };
                out.push_str(&format!(
                    "{workload:<18} {name:<36} {:>14.4} {:>14.4} {ratio:>8}  {label}\n",
                    bb.median, nb.median
                ));
            }
        }
        let failed = |runs: &Value| {
            ["end_to_end", "per_layer"]
                .iter()
                .filter_map(|k| runs.get(k)?.get("failed")?.as_f64())
                .sum::<f64>()
        };
        if failed(new_runs) > failed(base_runs) {
            out.push_str(&format!("{workload:<18} more failed ops than the base\n"));
            clean = false;
        }
    }
    Ok((out, clean))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Band {
        Band {
            median,
            p10: median * 0.99,
            p90: median * 1.01,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        assert_eq!(verdict(tight(10.0), tight(10.5), true, 0.1), Verdict::Same);
        assert_eq!(verdict(tight(10.0), tight(12.0), true, 0.1), Verdict::Worse);
        assert_eq!(verdict(tight(10.0), tight(8.0), true, 0.1), Verdict::Better);
        assert_eq!(
            verdict(tight(10.0), tight(12.0), false, 0.1),
            Verdict::Better
        );
        assert_eq!(verdict(tight(10.0), tight(8.0), false, 0.1), Verdict::Worse);
    }

    #[test]
    fn overlapping_bands_leave_a_shift_unresolved() {
        let wide = |median: f64| Band {
            median,
            p10: median - 4.0,
            p90: median + 4.0,
        };
        assert_eq!(
            verdict(wide(10.0), wide(12.0), true, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(verdict(wide(10.0), wide(30.0), true, 0.1), Verdict::Worse);
    }

    #[test]
    fn diff_flags_worse_metrics_and_counter_mismatches() {
        let spec = r#"{"end_to_end": [{"name": "inspect_ms.p50", "unit": "ms", "better": "lower", "bound": 0.1}]}"#;
        let result = |p50: f64, blocks: f64| {
            format!(
                r#"{{"workloads": {{"w": {{
                    "end_to_end": {{"attempted": 5, "failed": 0, "metrics": {{
                        "inspect_ms.p50": {{"unit": "ms", "median": {p50}, "p10": {p50}, "p90": {p50}, "min": {p50}, "samples": 9}}}}}},
                    "per_layer": {{"attempted": 5, "failed": 0, "metrics": {{
                        "store.blocks_read": {{"unit": "count", "median": {blocks}, "p10": {blocks}, "p90": {blocks}, "min": {blocks}, "samples": 9}}}}}}}}}}}}"#
            )
        };
        let (text, clean) = diff(&result(10.0, 7.0), &result(10.2, 7.0), spec).unwrap();
        assert!(clean, "{text}");
        assert!(text.contains("same") && text.contains("exact"));
        let (text, clean) = diff(&result(10.0, 7.0), &result(13.0, 7.0), spec).unwrap();
        assert!(!clean && text.contains("WORSE"));
        let (text, clean) = diff(&result(10.0, 7.0), &result(10.0, 8.0), spec).unwrap();
        assert!(!clean && text.contains("MISMATCH"));
    }
}
