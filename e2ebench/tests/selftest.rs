//! Benchmark self-test: tiny runs of every workload must emit exactly the
//! metrics `BENCHMARK.json` names, each with its unit; the exact metrics
//! must repeat for a fixed seed; and a run whose oracle is handed a wrong
//! winner must fail loudly.

use fact_serve::{parse, Value};
use std::collections::BTreeMap;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_fact-e2ebench");
const WORKLOADS: [&str; 3] = ["search-cold", "sim-heavy", "serve-warm"];

/// `(exit ok, stdout, parsed last line)` of one tiny run.
fn tiny_run(workload: &str, trace: bool, extra: &[&str]) -> (bool, String, Value) {
    let out = Command::new(EXE)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let result = parse(&last).unwrap_or_else(|e| panic!("{workload}: last line {last:?}: {e}"));
    (out.status.success(), stdout, result)
}

/// `name -> unit` of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(result: &Value) -> BTreeMap<String, String> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite),
                "{name} has no finite value"
            );
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_emits_every_named_metric() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for workload in WORKLOADS {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let (ok, stdout, result) = tiny_run(workload, trace, &[]);
            assert!(ok, "{workload} trace={trace} failed:\n{stdout}");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
            assert_eq!(result.get("failed"), Some(&Value::Int(0)), "{stdout}");
            assert!(result.get("attempted").and_then(Value::as_i64) >= Some(1));
            assert_eq!(&reported(&result), want, "{workload} trace={trace}");
        }
    }
}

#[test]
fn exact_metrics_repeat_for_a_fixed_seed() {
    let exact = |r: &Value, names: &[&str]| -> Vec<u64> {
        names
            .iter()
            .map(|n| {
                let v = r
                    .get("metrics")
                    .and_then(|m| m.get(n))
                    .and_then(|m| m.get("value"));
                v.and_then(Value::as_f64)
                    .expect("exact metric present")
                    .to_bits()
            })
            .collect()
    };
    for workload in WORKLOADS {
        let quality = ["cycles_ratio", "power_ratio", "pareto_hv"];
        let a = tiny_run(workload, false, &[]).2;
        let b = tiny_run(workload, false, &[]).2;
        assert_eq!(exact(&a, &quality), exact(&b, &quality), "{workload}");
        let counts = ["core.evaluated", "sim.vectors", "xform.candidates"];
        let a = tiny_run(workload, true, &[]).2;
        let b = tiny_run(workload, true, &[]).2;
        assert_eq!(exact(&a, &counts), exact(&b, &counts), "{workload}");
    }
}

#[test]
fn a_wrong_winner_fails_the_run() {
    let (ok, stdout, result) = tiny_run("search-cold", false, &["--sabotage-oracle"]);
    assert!(!ok, "a sabotaged run must exit nonzero:\n{stdout}");
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert!(result.get("failed").and_then(Value::as_i64) > Some(0));
    assert!(
        stdout.contains("FAILED") && stdout.contains("oracle"),
        "{stdout}"
    );
}
