//! Runs every workload at smoke scale for two turns of its loop, end to
//! end and traced, with every check on: answers bit-identical to the
//! store-less reference, zero forward passes on the warm workloads, the
//! `append_refresh` reopen check. Also holds `BENCHMARK.json` to the
//! metric catalogue the harness prints.

use perfbench::harness::{Scale, END_TO_END, PER_LAYER};
use perfbench::json;
use perfbench::run::{run_workload, Outcome, RunArgs};
use perfbench::workloads::NAMES;

fn smoke(workload: &str, trace: bool) -> Outcome {
    let outcome = run_workload(&RunArgs {
        workload: workload.to_string(),
        seed: 11,
        seconds: 1.0,
        trace,
        scale: Scale::Smoke,
        detail: None,
    })
    .expect("workload runs");
    assert!(
        outcome.correct(),
        "{workload} (trace {trace}): {} of {} ops failed: {:?}",
        outcome.failed,
        outcome.attempted,
        outcome.failures
    );
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in NAMES {
        let outcome = smoke(workload, false);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{workload}");
        for m in &outcome.metrics {
            assert!(m.value > 0.0, "{workload}: {} is never 0", m.name);
        }
        let line = json::parse(&outcome.contract_line()).expect("contract line is JSON");
        let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_the_predicted_contrasts() {
    for workload in NAMES {
        let outcome = smoke(workload, true);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{workload}");
        let warm = matches!(workload, "warm_scan" | "warm_sql_hyp" | "serve_mixed");
        if warm {
            assert_eq!(value(&outcome, "core.extract.calls"), 0.0, "{workload}");
            assert_eq!(value(&outcome, "store.error_count"), 0.0, "{workload}");
        }
        if workload.starts_with("cold_") {
            assert!(value(&outcome, "core.extract.calls") > 0.0, "{workload}");
            assert_eq!(value(&outcome, "store.blocks_read"), 0.0, "{workload}");
            assert!(value(&outcome, "nn.forward_ms") > 0.0, "{workload}");
        }
        if workload == "warm_scan" {
            assert_eq!(value(&outcome, "store.pool.evictions"), 0.0);
            assert!(value(&outcome, "store.blocks_pruned") > 0.0);
            assert!(value(&outcome, "store.scan_cold_ms") > 0.0);
        }
        if workload == "append_refresh" {
            assert!(value(&outcome, "store.pool.evictions") > 0.0);
            assert!(value(&outcome, "refresh_ms.p50") > 0.0);
            assert!(value(&outcome, "view_read_ms.p50") > 0.0);
        }
        if workload == "serve_mixed" {
            assert!(value(&outcome, "server.roundtrip_floor_ms") > 0.0);
            assert_eq!(value(&outcome, "server.query_errors"), 0.0);
        }
        assert_eq!(value(&outcome, "failed_share"), 0.0, "{workload}");
    }
}

#[test]
fn benchmark_json_names_what_the_harness_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec =
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .expect(key)
            .as_arr()
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(|n| n.as_str())
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    };
    let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(END_TO_END));
    assert_eq!(listed("per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = listed("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, NAMES);
}
