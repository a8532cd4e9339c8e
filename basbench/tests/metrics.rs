//! Smoke-size runs of every workload in both modes: each run passes its
//! correctness checks and emits exactly the metrics `BENCHMARK.json`
//! lists for that mode, each with its listed unit.

use std::process::Command;

use bas_benchmark::json::Json;
use bas_benchmark::workloads::ALL;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one of BENCHMARK.json's lists.
fn listed(bench: &Json, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_listed_metric_with_its_unit() {
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(names, ALL.map(|w| w.name()));

    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = listed(&bench, list);
        for workload in names.iter().copied() {
            let out = Command::new(env!("CARGO_BIN_EXE_basbench"))
                .args([
                    "run",
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "0",
                ])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("basbench runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{workload} trace={trace}:\n{stdout}");
            let result = Json::parse(stdout.lines().last().expect("a result line"))
                .expect("the last line is JSON");
            let keys: Vec<&str> = result
                .as_obj()
                .expect("result object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
            let emitted: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object")
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(emitted, expected, "{workload} trace={trace}");
            if trace == "0" {
                for (name, m) in result
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .expect("metrics")
                {
                    let v = m.get("value").and_then(Json::as_f64).expect("value");
                    assert!(v > 0.0, "{workload}: end-to-end {name} = {v}");
                }
            }
        }
    }
}
