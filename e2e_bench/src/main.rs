//! `e2e_report`: one fixed-work benchmark for the whole stack.
//!
//! ```text
//! e2e_report --workload <name> [--seed <u64>] [--trace <0|1>] [--seconds <run_seconds>]
//!            [--quick] [--data-dir <dir>] [--out <results.json>]
//! e2e_report --compare <a.json> <b.json>
//! ```
//!
//! One process runs one workload, from the root of the repository. See
//! `README.md` beside this crate for what is measured and why.

mod affinity;
mod client;
mod compare;
mod estate;
mod layers;
mod report;
mod rng;
mod spec;
mod stage;
mod stats;
mod trace;
mod workloads;

use estate::DataRoot;
use report::{Args, Report};
use spec::Workload;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

enum Command {
    Run(Args),
    Compare { a: PathBuf, b: PathBuf },
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let (mut seed, mut trace, mut quick, mut out) = (1, false, false, None);
    let mut data_dir = PathBuf::from(".bench_data");
    let mut compare = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} takes {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; one of {}", known.join(", "))
                })?);
            }
            "--seed" => {
                seed = value("a u64")?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_string())?;
            }
            // The driver states the run length; the work of a run is a
            // constant sized for that length, so no other value is taken.
            "--seconds" => {
                if value("a whole number")?.parse() != Ok(spec::RUN_SECONDS) {
                    return Err(format!(
                        "--seconds takes only {}, BENCHMARK.json's run_seconds: the work of a run is fixed",
                        spec::RUN_SECONDS
                    ));
                }
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--quick" => quick = true,
            "--data-dir" => data_dir = PathBuf::from(value("a directory")?),
            "--out" => out = Some(PathBuf::from(value("a file")?)),
            "--compare" => {
                let a = PathBuf::from(value("two results files")?);
                let b = PathBuf::from(value("two results files")?);
                compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (compare, workload) {
        (Some((a, b)), _) => Ok(Command::Compare { a, b }),
        (None, Some(workload)) => Ok(Command::Run(Args {
            workload,
            seed,
            trace,
            quick,
            data_dir,
            out,
        })),
        (None, None) => Err("--workload is required: one process runs one workload".to_string()),
    }
}

/// The machine shape and load shape every number is stated with.
fn context_line(report: &Report, args: &Args, root: &DataRoot) -> String {
    let w = args.workload;
    format!(
        "workload {} | seed {} | n {} | closed loop, 1 client thread, {} | nproc {} | {} | data dir on {} | {}",
        w.name(),
        args.seed,
        report.n,
        if w.on_wire() {
            "1 keep-alive HTTP connection, server workers 2"
        } else {
            "in-process"
        },
        stats::nproc(),
        if w.durable() { "durable" } else { "in-memory" },
        stats::filesystem_of(root.path()),
        stats::RUSTC_VERSION,
    )
}

/// The result line the driver reads: one JSON object, last on stdout.
fn result_json(report: &Report, units: &[(&str, &str)]) -> String {
    let mut metrics = String::new();
    for ((name, value), (_, unit)) in report.metrics.iter().zip(units) {
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value:.4}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct(),
        report.attempted,
        report.failed
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let root = DataRoot::create(&args.data_dir).map_err(|e| format!("data dir: {e}"))?;
    let (report, units): (_, &[(&str, &str)]) = if args.trace {
        (report::traced(args, &root), &spec::PER_LAYER)
    } else {
        (report::end_to_end(args, &root), &spec::END_TO_END)
    };
    println!("{}", context_line(&report, args, &root));
    println!(
        "ops_attempted {} ops_failed {}",
        report.attempted, report.failed
    );
    for (name, value) in &report.exact {
        println!("exact {name} {value}");
    }
    for ((name, value), (_, unit)) in report.metrics.iter().zip(units) {
        println!("metric {name} {value:.4} {unit}");
    }
    if let Err(why) = &report.check {
        println!("check FAILED: {why}");
    }
    if let Some(out) = &args.out {
        compare::append_run(out, &report, args, &root)?;
    }
    println!("{}", result_json(&report, units));
    Ok(report.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::Compare { a, b }) => compare::compare(&a, &b),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A failed op or a failed check: the numbers were printed, the
        // exit code says not to trust them.
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e_report: {e}");
            ExitCode::from(2)
        }
    }
}
