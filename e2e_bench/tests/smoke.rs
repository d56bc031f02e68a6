//! Runs all four workloads at `--quick` scale and holds the benchmark to
//! its description: every metric `BENCHMARK.json` names is printed with
//! its unit, two runs of one seed agree on every exact count and on the
//! final state root, and another seed changes it.

use lsc_abi::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one of BENCHMARK.json's metric lists.
fn listed(document: &JsonValue, list: &str) -> Vec<(String, String)> {
    document
        .get(list)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_else(|| panic!("{list} entry without {key}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// What one run printed.
struct Run {
    /// `exact <name> <value>` lines.
    exact: BTreeMap<String, String>,
    /// `metric <name> <value> <unit>` lines: name → unit.
    units: BTreeMap<String, String>,
    /// The last line.
    result: JsonValue,
}

/// The repository root, where the driver runs the benchmark from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn scratch(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"))
}

fn report() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_e2e_report"));
    command.current_dir(repo_root());
    command
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let output = report()
        .args(["--quick", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--data-dir")
        .arg(scratch(workload))
        .output()
        .expect("run e2e_report");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 report");
    assert!(
        output.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut run = Run {
        exact: BTreeMap::new(),
        units: BTreeMap::new(),
        result: JsonValue::Null,
    };
    for line in stdout.lines() {
        let words: Vec<&str> = line.split(' ').collect();
        match words.as_slice() {
            ["exact", name, value] => {
                run.exact.insert((*name).to_string(), (*value).to_string());
            }
            ["metric", name, value, unit] => {
                value.parse::<f64>().expect("metric value is a number");
                run.units.insert((*name).to_string(), (*unit).to_string());
            }
            _ => {}
        }
    }
    let last = stdout.lines().last().expect("a result line");
    run.result = json::parse(last).expect("the last line is one JSON object");
    run
}

/// The run printed exactly the listed metrics, each with its unit, both
/// as text and in the result line, and the result line has the contract's
/// keys.
fn assert_prints(run: &Run, listed: &[(String, String)], what: &str) {
    let JsonValue::Object(result) = &run.result else {
        panic!("{what}: result line is not an object");
    };
    let keys: Vec<&str> = result.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(result["correct"], JsonValue::Bool(true), "{what}");
    assert_eq!(result["failed"], JsonValue::Number(0.0), "{what}");
    let JsonValue::Object(metrics) = &result["metrics"] else {
        panic!("{what}: metrics is not an object");
    };
    assert_eq!(metrics.len(), listed.len(), "{what}: metric count");
    assert_eq!(
        run.units.len(),
        listed.len(),
        "{what}: printed metric count"
    );
    for (name, unit) in listed {
        assert_eq!(
            run.units.get(name),
            Some(unit),
            "{what}: {name} printed with its unit"
        );
        let entry = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} missing from the result line"));
        assert_eq!(
            entry.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str())
        );
        assert!(
            matches!(entry.get("value"), Some(JsonValue::Number(_))),
            "{what}: {name}"
        );
    }
}

fn check_workload(workload: &str) {
    let document = benchmark_json();
    let first = run(workload, 7, false);
    assert_prints(&first, &listed(&document, "end_to_end"), workload);
    let again = run(workload, 7, false);
    assert_eq!(first.exact, again.exact, "{workload}: one seed, one chain");
    assert!(first.exact.contains_key("final_height"));
    let other = run(workload, 8, false);
    assert_ne!(
        first.exact["final_state_root"], other.exact["final_state_root"],
        "{workload}: another seed, another chain"
    );

    let traced = run(workload, 7, true);
    assert_prints(&traced, &listed(&document, "per_layer"), workload);
    let trace_file = repo_root().join(&traced.exact["trace_file"]);
    let trace = std::fs::read_to_string(&trace_file).expect("trace file written");
    let trace = json::parse(&trace).expect("trace file parses");
    let spans = trace
        .get("spans")
        .and_then(JsonValue::as_array)
        .expect("spans");
    assert!(
        !spans.is_empty(),
        "{workload}: the traced run recorded spans"
    );
    let _ = std::fs::remove_file(trace_file);
}

#[test]
fn rent_wire_durable() {
    check_workload("rent_wire_durable");
}

#[test]
fn rent_day_batch_memory() {
    check_workload("rent_day_batch_memory");
}

#[test]
fn dashboard_reads_wire() {
    check_workload("dashboard_reads_wire");
}

#[test]
fn lifecycle_upgrade_durable() {
    check_workload("lifecycle_upgrade_durable");
}

#[test]
fn benchmark_json_lists_the_four_workloads_and_the_one_command() {
    let document = benchmark_json();
    let names: Vec<&str> = document
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
        .collect();
    assert_eq!(
        names,
        [
            "rent_wire_durable",
            "rent_day_batch_memory",
            "dashboard_reads_wire",
            "lifecycle_upgrade_durable"
        ]
    );
    let command: Vec<&str> = document
        .get("command")
        .and_then(JsonValue::as_array)
        .expect("command")
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert!(command.contains(&"e2e_bench/Cargo.toml") && command.contains(&"e2e_report"));
    assert!(listed(&document, "end_to_end")
        .iter()
        .any(|(name, unit)| name == "setup_s" && unit == "s"));
}

fn refused(args: &[&str]) {
    let output = report().args(args).output().expect("run e2e_report");
    assert!(!output.status.success(), "{args:?} is refused");
    assert!(output.stdout.is_empty(), "{args:?}: no result is printed");
}

#[test]
fn a_run_names_one_known_workload_and_only_the_benchmarks_run_length() {
    refused(&["--workload", "no_such_workload"]);
    refused(&["--seed", "1"]);
    refused(&[
        "--quick",
        "--workload",
        "rent_day_batch_memory",
        "--seconds",
        "5",
    ]);
}
