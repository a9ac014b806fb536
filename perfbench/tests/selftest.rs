//! Fast self-test of the benchmark at tiny sizes (`--tiny`): every metric
//! named in `BENCHMARK.json` is printed with its unit, and two runs of the
//! same seed give identical counts.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Value) -> Vec<String> {
    v.as_array()
        .expect("an array")
        .iter()
        .map(|e| e["name"].as_str().expect("a name").to_string())
        .collect()
}

/// Runs one tiny workload and returns its result line, parsed.
fn run(workload: &str, traced: bool) -> Value {
    let trace_out = format!(
        "{}/trace-{workload}-{traced}.json",
        env!("CARGO_TARGET_TMPDIR")
    );
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", if traced { "1" } else { "0" }, "--tiny"])
        .args(["--trace-out", &trace_out])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (traced={traced}) failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the result line is JSON");
    assert_eq!(result["correct"].as_bool(), Some(true), "{last}");
    assert_eq!(result["failed"].as_u64(), Some(0), "{last}");
    assert!(result["attempted"].as_u64().unwrap_or(0) >= 1, "{last}");
    result
}

fn value(result: &Value, name: &str) -> f64 {
    result["metrics"][name]["value"]
        .as_f64()
        .unwrap_or_else(|| panic!("{name} missing from {result:?}"))
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let bench = benchmark_json();
    for workload in names(&bench["workloads"]) {
        for (traced, table) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(&workload, traced);
            let Value::Object(printed) = &result["metrics"] else {
                panic!("{workload}: no metrics object");
            };
            let expected = bench[table].as_array().expect("a metric table");
            assert_eq!(printed.len(), expected.len(), "{workload} {table}");
            for metric in expected {
                let name = metric["name"].as_str().expect("a name");
                assert_eq!(
                    result["metrics"][name]["unit"], metric["unit"],
                    "{workload}: unit of {name}"
                );
                assert!(value(&result, name).is_finite(), "{workload}: {name}");
            }
        }
    }
}

#[test]
fn counts_repeat_exactly() {
    let bench = benchmark_json();
    for workload in names(&bench["workloads"]) {
        let (a, b) = (run(&workload, false), run(&workload, false));
        assert_eq!(value(&a, "colors"), value(&b, "colors"), "{workload}");
        assert_eq!(value(&a, "ok_frac"), 1.0, "{workload}");
        let (a, b) = (run(&workload, true), run(&workload, true));
        for name in [
            "core.candidate_pairs",
            "core.conflict_edges",
            "core.iterations",
            "service.cache_hit_frac",
            "service.solved",
        ] {
            assert_eq!(value(&a, name), value(&b, name), "{workload}: {name}");
        }
        assert!(value(&a, "core.candidate_pairs") > 0.0, "{workload}");
    }
}
