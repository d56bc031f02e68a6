//! Results files and `--compare`.
//!
//! `--out <file>` appends each run to a results file together with the
//! machine shape it ran on. `--compare a.json b.json` then applies the
//! benchmark's own bounds to the two sets of runs, one row per
//! end-to-end metric and workload: each side's median and quartiles,
//! the share of pairs the second side won, and a verdict. Where a side's
//! own runs spread wider than the metric's bound the verdict is
//! `unresolved`, never `unchanged`.

use crate::estate::DataRoot;
use crate::report::{Args, Report};
use crate::stats::{self, median_f64, quartiles};
use lsc_abi::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;

fn read_json(path: &Path) -> Result<JsonValue, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn string(value: impl Into<String>) -> JsonValue {
    JsonValue::String(value.into())
}

/// Append one run to the results file at `path` (created if missing).
pub fn append_run(
    path: &Path,
    report: &Report,
    args: &Args,
    root: &DataRoot,
) -> Result<(), String> {
    let mut runs = if path.exists() {
        match read_json(path)?.get("runs") {
            Some(JsonValue::Array(runs)) => runs.clone(),
            _ => return Err(format!("{} is not a results file", path.display())),
        }
    } else {
        Vec::new()
    };
    let w = args.workload;
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value)| ((*name).to_string(), JsonValue::Number(*value)))
        .collect();
    let exact = report
        .exact
        .iter()
        .map(|(name, value)| ((*name).to_string(), string(value.as_str())))
        .collect();
    runs.push(JsonValue::object([
        ("workload", string(w.name())),
        ("seed", string(args.seed.to_string())),
        ("n", JsonValue::Number(report.n as f64)),
        ("trace", JsonValue::Bool(args.trace)),
        ("nproc", JsonValue::Number(stats::nproc() as f64)),
        ("durable", JsonValue::Bool(w.durable())),
        ("filesystem", string(stats::filesystem_of(root.path()))),
        ("rustc", string(stats::RUSTC_VERSION)),
        ("correct", JsonValue::Bool(report.correct())),
        ("attempted", JsonValue::Number(report.attempted as f64)),
        ("failed", JsonValue::Number(report.failed as f64)),
        ("metrics", JsonValue::Object(metrics)),
        ("exact", JsonValue::Object(exact)),
    ]));
    let document = JsonValue::object([("runs", JsonValue::Array(runs))]);
    std::fs::write(path, document.to_json() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// One side's end-to-end runs: workload → metric → values in run order,
/// the op count of each workload's runs, and how many ops failed.
struct Side {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    n: BTreeMap<String, f64>,
    failed: f64,
}

fn load_side(path: &Path) -> Result<Side, String> {
    let document = read_json(path)?;
    let runs = document
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{} is not a results file", path.display()))?;
    let mut side = Side {
        values: BTreeMap::new(),
        n: BTreeMap::new(),
        failed: 0.0,
    };
    for run in runs {
        if run.get("trace").and_then(JsonValue::as_bool) == Some(true) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(JsonValue::as_str)
            .unwrap_or("?");
        if let Some(JsonValue::Number(failed)) = run.get("failed") {
            side.failed += failed;
        }
        // Per-op cost depends on how far the chain grew, so runs of
        // different op counts are runs of different benchmarks.
        let Some(JsonValue::Number(n)) = run.get("n") else {
            return Err(format!("{}: a run without its n", path.display()));
        };
        if *side.n.entry(workload.to_string()).or_insert(*n) != *n {
            return Err(format!(
                "{}: runs of {workload} with different n",
                path.display()
            ));
        }
        if let Some(JsonValue::Object(metrics)) = run.get("metrics") {
            for (name, value) in metrics {
                if let JsonValue::Number(value) = value {
                    side.values
                        .entry(workload.to_string())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(*value);
                }
            }
        }
    }
    Ok(side)
}

/// Both sides ran each workload with the same op count.
fn same_work(a: &Side, b: &Side) -> Result<(), String> {
    for (workload, n) in &a.n {
        if let Some(other) = b.n.get(workload).filter(|other| *other != n) {
            return Err(format!(
                "{workload}: n is {n} on one side and {other} on the other; they do not compare"
            ));
        }
    }
    Ok(())
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load_bounds(benchmark: &Path) -> Result<Vec<Bound>, String> {
    let document = read_json(benchmark)?;
    document
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{} has no end_to_end list", benchmark.display()))?
        .iter()
        .map(|metric| {
            let field = |key: &str| metric.get(key).and_then(JsonValue::as_str);
            match (field("name"), field("better"), metric.get("bound")) {
                (Some(name), Some(better), Some(JsonValue::Number(bound))) => Ok(Bound {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound: *bound,
                }),
                _ => Err(format!(
                    "malformed end_to_end entry in {}",
                    benchmark.display()
                )),
            }
        })
        .collect()
}

/// The rule of one row. `a` is the baseline side, `b` the other.
fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> (&'static str, f64, f64) {
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let pairs = a.len().min(b.len());
    let won = a
        .iter()
        .zip(b)
        .filter(|(a, b)| sign * (*b - *a) < 0.0)
        .count() as f64
        / pairs.max(1) as f64;
    let (median_a, median_b) = (median_f64(a), median_f64(b));
    let worse = sign * (median_b - median_a) / median_a;
    if a.len() < 2 || b.len() < 2 {
        return ("unresolved", worse, won);
    }
    let spread = |values: &[f64]| {
        let (q1, q3) = quartiles(values);
        (q3 - q1) / median_f64(values)
    };
    let verdict = if spread(a) > bound.bound || spread(b) > bound.bound {
        "unresolved"
    } else if worse > bound.bound {
        "regressed"
    } else if won >= 0.9
        && pairs >= 10
        && (median_b - median_a).abs() > {
            let (q1, q3) = quartiles(a);
            q3 - q1
        }
    {
        "improved"
    } else {
        "unchanged"
    };
    (verdict, worse, won)
}

fn summary(values: &[f64]) -> String {
    if values.len() < 2 {
        return format!("{:.4} [n/a]", median_f64(values));
    }
    let (q1, q3) = quartiles(values);
    format!("{:.4} [{q1:.4}, {q3:.4}]", median_f64(values))
}

/// Print the comparison; `Ok(true)` when no row regressed or stayed
/// unresolved and neither side had a failed op.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = load_bounds(Path::new("BENCHMARK.json"))?;
    let (side_a, side_b) = (load_side(a)?, load_side(b)?);
    same_work(&side_a, &side_b)?;
    println!(
        "{:<26} {:<14} {:>6} {:>5} {:<34} {:<34} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "bound",
        "runs",
        "a: median [q1, q3]",
        "b: median [q1, q3]",
        "worse",
        "b won"
    );
    let mut settled = side_a.failed == 0.0 && side_b.failed == 0.0;
    for (workload, metrics_a) in &side_a.values {
        for bound in &bounds {
            let values_a = metrics_a.get(&bound.name).map_or(&[][..], Vec::as_slice);
            let values_b = side_b
                .values
                .get(workload)
                .and_then(|metrics| metrics.get(&bound.name))
                .map_or(&[][..], Vec::as_slice);
            if values_a.is_empty() || values_b.is_empty() {
                println!("{workload:<26} {:<14} missing on one side", bound.name);
                settled = false;
                continue;
            }
            let (verdict, worse, won) = verdict(values_a, values_b, bound);
            settled &= matches!(verdict, "unchanged" | "improved");
            println!(
                "{workload:<26} {:<14} {:>5.0}% {:>2}/{:<2} {:<34} {:<34} {:>+7.2}% {:>5.0}%  {verdict}",
                bound.name,
                bound.bound * 100.0,
                values_a.len(),
                values_b.len(),
                summary(values_a),
                summary(values_b),
                worse * 100.0,
                won * 100.0,
            );
        }
    }
    println!("ops failed: a {} b {}", side_a.failed, side_b.failed);
    Ok(settled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "op_p50_us".to_string(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn sides_that_ran_different_op_counts_do_not_compare() {
        let side = |n: f64| Side {
            values: BTreeMap::new(),
            n: BTreeMap::from([("rent_wire_durable".to_string(), n)]),
            failed: 0.0,
        };
        assert!(same_work(&side(11_000.0), &side(11_000.0)).is_ok());
        assert!(same_work(&side(11_000.0), &side(5_500.0)).is_err());
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [100.0, 80.0, 120.0, 90.0, 115.0];
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        assert_eq!(verdict(&noisy, &steady, &lower(0.07)).0, "unresolved");
        assert_eq!(verdict(&steady, &steady, &lower(0.07)).0, "unchanged");
    }

    #[test]
    fn a_median_past_the_bound_is_a_regression_in_the_metrics_direction() {
        let base = [100.0, 100.5, 99.5, 100.2, 99.8];
        let slower: Vec<f64> = base.iter().map(|v| v * 1.1).collect();
        assert_eq!(verdict(&base, &slower, &lower(0.07)).0, "regressed");
        let higher_is_better = Bound {
            lower_is_better: false,
            ..lower(0.07)
        };
        assert_eq!(verdict(&base, &slower, &higher_is_better).0, "unchanged");
        assert_eq!(verdict(&slower, &base, &higher_is_better).0, "regressed");
    }

    #[test]
    fn a_gain_needs_nine_pairs_in_ten_and_more_than_the_baselines_spread() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        let faster: Vec<f64> = base.iter().map(|v| v * 0.97).collect();
        let (verdict_, worse, won) = verdict(&base, &faster, &lower(0.07));
        assert_eq!(verdict_, "improved");
        assert!(worse < 0.0 && won == 1.0);
    }
}
