//! The two kinds of run. An end-to-end run measures with tracing off and
//! reports the six end-to-end metrics; a traced run is a separate run
//! that produces the per-layer numbers: the workload's own op stream
//! replayed in-process under spans, plus the layer kernels.

use crate::estate::{chain_config, DataRoot, Estate, MINE};
use crate::layers::{self, height_ratio, Metrics};
use crate::spec::{self, Workload, SETUP_REPEATS};
use crate::stage::layer;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::lifecycle::{self, step};
use crate::workloads::{dashboard, rent_batch, rent_wire, Measured};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub quick: bool,
    pub data_dir: PathBuf,
    /// A results file to append this run to, for `--compare`.
    pub out: Option<PathBuf>,
}

/// Where a traced run writes its spans, from the repository root.
const TRACE_DIR: &str = "e2e_bench/results";

/// One finished run of one workload.
pub struct Report {
    /// Ops of the measured phase — of each phase, in a traced run.
    pub n: usize,
    pub attempted: u64,
    pub failed: u64,
    pub check: Result<(), String>,
    pub exact: Vec<(&'static str, String)>,
    /// In the order of `spec::END_TO_END` or `spec::PER_LAYER`.
    pub metrics: Metrics,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.check.is_ok() && self.failed == 0
    }
}

/// Build the estate a workload starts from; the time this takes is the
/// workload's set-up.
fn set_up(workload: Workload, args: &Args, root: &DataRoot) -> Estate {
    let build = |auto_compact| {
        let dir = workload.durable().then(|| root.fresh());
        Estate::build(
            args.seed,
            spec::scale(args.quick),
            chain_config(auto_compact),
            dir.as_deref(),
        )
    };
    match workload {
        Workload::RentWireDurable | Workload::RentDayBatchMemory => build(None),
        // Compacted, then restarted: the reads run against a trie adopted
        // from disk pages.
        Workload::DashboardReadsWire => build(None).restart(),
        // A node keeps the configuration it was first opened with, so
        // this estate compacts itself while it is built too.
        Workload::LifecycleUpgradeDurable => build(Some(4)),
    }
}

fn discard(estate: Estate, root: &DataRoot) {
    let dir = estate.data_dir().map(Path::to_path_buf);
    drop(estate);
    if let Some(dir) = dir {
        root.discard(&dir);
    }
}

/// How a workload's op stream is driven.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Via {
    /// As the workload defines it: over the socket for the wire
    /// workloads, in-process for the other two.
    Workload,
    /// Through the staged replay, in-process, for every workload.
    Staged,
}

/// Generate `n` ops for the estate and run them.
fn measure(
    workload: Workload,
    estate: Estate,
    args: &Args,
    n: usize,
    via: Via,
    t: &mut Tracer,
    root: &DataRoot,
) -> Measured {
    let dir = estate.data_dir().map(Path::to_path_buf);
    let measured = match workload {
        Workload::RentWireDurable => {
            let ops = rent_wire::generate(&estate, args.seed, n);
            match via {
                Via::Workload => rent_wire::measure_wire(estate, &ops),
                Via::Staged => rent_wire::measure_staged(estate, &ops, t),
            }
        }
        Workload::RentDayBatchMemory => {
            let blocks = rent_batch::generate(&estate, args.seed, n / rent_batch::BLOCK_TXS);
            rent_batch::measure(estate, &blocks, t)
        }
        Workload::DashboardReadsWire => match dashboard::generate(&estate, args.seed, n) {
            Ok(ops) if via == Via::Workload => dashboard::measure_wire(estate, &ops),
            Ok(ops) => dashboard::measure_staged(estate, &ops, t),
            Err(e) => Measured::aborted(n, e),
        },
        Workload::LifecycleUpgradeDurable => {
            let plans = lifecycle::generate(&estate, args.seed, n / lifecycle::STEPS);
            lifecycle::measure(estate, &plans, spec::restart_every(args.quick), t)
        }
    };
    if let Some(dir) = dir {
        root.discard(&dir);
    }
    measured
}

/// The untraced run: set up `SETUP_REPEATS` times, measure once, on the
/// last estate.
pub fn end_to_end(args: &Args, root: &DataRoot) -> Report {
    let workload = args.workload;
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut estate = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = estate.take() {
            discard(previous, root);
        }
        let start = Instant::now();
        estate = Some(set_up(workload, args, root));
        setups.push(start.elapsed().as_secs_f64());
    }
    let estate = estate.expect("SETUP_REPEATS is at least one");
    let n = workload.op_count(args.quick);
    // Set-up's peak is set-up's; `rss_peak_mb` is the measured phase's.
    stats::reset_rss_peak();
    let m = measure(
        workload,
        estate,
        args,
        n,
        Via::Workload,
        &mut Tracer::off(),
        root,
    );

    let mut sorted = m.latencies_ns.clone();
    sorted.sort_unstable();
    let ops = m.attempted as f64;
    let metrics = vec![
        ("ops_per_s", ops / m.wall.as_secs_f64()),
        ("op_p50_us", stats::percentile(&sorted, 0.50) as f64 / 1e3),
        ("op_p99_us", stats::percentile(&sorted, 0.99) as f64 / 1e3),
        ("cpu_us_per_op", m.cpu.as_secs_f64() * 1e6 / ops),
        ("rss_peak_mb", stats::rss_peak_mb()),
        ("setup_s", stats::median_f64(&setups)),
    ];
    let mut exact = m.exact;
    exact.push(("latency_samples", m.latencies_ns.len().to_string()));
    Report {
        n,
        attempted: m.attempted,
        failed: m.failed,
        check: m.check,
        exact,
        metrics,
    }
}

/// The traced run. Three phases on three fresh estates of the same seed
/// — the staged replay under spans, the staged replay again with the
/// tracer off (over the first half of the ops; the difference is the
/// tracing overhead), and on the wire workloads the workload over the
/// socket — then the layer kernels. Each phase does a third of the work
/// of an end-to-end run, so that a traced run takes no longer than one:
/// per-op cost depends on chain height, so the phases must agree with
/// each other, not with the end-to-end run.
pub fn traced(args: &Args, root: &DataRoot) -> Report {
    let workload = args.workload;
    let n = workload.whole_units(workload.op_count(args.quick) / 3);
    let half = workload.whole_units(n / 2);
    let phase = |n: usize, via: Via, t: &mut Tracer| {
        measure(
            workload,
            set_up(workload, args, root),
            args,
            n,
            via,
            t,
            root,
        )
    };

    let mut spans = Tracer::on();
    let staged = phase(n, Via::Staged, &mut spans);
    let untraced = phase(half, Via::Staged, &mut Tracer::off());
    // For the in-process workloads the staged replay is the workload.
    let wire = workload
        .on_wire()
        .then(|| phase(n, Via::Workload, &mut Tracer::off()));

    let staged_p50 = stats::p50_us(&staged.latencies_ns);
    let wire_p50 = wire
        .as_ref()
        .map_or(staged_p50, |w| stats::p50_us(&w.latencies_ns));
    // Latency samples are blocks on the batch workload, ops elsewhere;
    // per-op figures divide by ops.
    let ops = staged.attempted;
    let samples = untraced.latencies_ns.len();
    let traced_ns: u64 = staged.latencies_ns[..samples].iter().sum();
    let untraced_ns: u64 = untraced.latencies_ns.iter().sum();
    let self_times = spans.self_times();
    let self_us =
        |name: &str| self_times.get(name).map_or(0.0, |(_, ns)| *ns as f64) / 1_000.0 / ops as f64;
    // Everything under an op's root span that is not JSON or wire codec
    // is the node doing the work.
    let codec_layers = [
        crate::trace::OP,
        layer::JSON_PARSE,
        layer::JSON_ENCODE,
        layer::WIRE_DECODE,
        layer::WIRE_ENCODE,
    ];
    let node_us: f64 = self_times
        .iter()
        .filter(|(name, _)| !codec_layers.contains(name))
        .map(|(_, (_, ns))| *ns as f64 / 1_000.0)
        .sum();
    let exact_count = |m: &Measured, name: &str| {
        m.exact
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let wire_count = |name: &str| wire.as_ref().map_or(0.0, |w| exact_count(w, name));

    let mut path: Metrics = vec![
        ("rpc.transport_us_p50", wire_p50 - staged_p50),
        ("rpc.req_bytes_per_op", wire_count("rpc.req_bytes_per_op")),
        ("rpc.resp_bytes_per_op", wire_count("rpc.resp_bytes_per_op")),
        ("abi.json_parse_us_per_op", self_us(layer::JSON_PARSE)),
        ("abi.json_encode_us_per_op", self_us(layer::JSON_ENCODE)),
        ("web3.wire_decode_us_per_op", self_us(layer::WIRE_DECODE)),
        ("web3.wire_encode_us_per_op", self_us(layer::WIRE_ENCODE)),
        ("path.node_us_per_op", node_us / ops as f64),
        ("chain.compact_count", exact_count(&staged, "compactions")),
        (
            "chain.mine_max_ms",
            spans.durations(MINE).into_iter().max().unwrap_or(0) as f64 / 1e6,
        ),
        ("trace.coverage", spans.coverage()),
        (
            "trace.overhead_pct",
            (traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0) * 100.0,
        ),
        ("trace.staged_p50_us", staged_p50),
        ("trace.wire_p50_us", wire_p50),
        ("trace.spans", spans.spans().len() as f64),
    ];
    for (metric, span) in [
        ("core.deploy_us_p50", step::DEPLOY),
        ("core.deploy_version_us_p50", step::DEPLOY_VERSION),
        ("core.confirm_us_p50", step::CONFIRM),
        ("core.pay_rent_us_p50", step::PAY_RENT),
        ("core.proof_us_p50", step::PROOF),
        ("core.verify_chain_us_p50", step::VERIFY_CHAIN),
        ("core.terminate_us_p50", step::TERMINATE),
    ] {
        path.push((metric, stats::p50_us(&spans.durations(span))));
    }
    // The same call at the start and at the end of the run: on the write
    // workloads the workload's own, which then shadows the kernel's.
    let own_sends = match workload {
        Workload::RentWireDurable => Some(layer::SEND_TX),
        Workload::LifecycleUpgradeDurable => Some(step::PAY_RENT),
        _ => None,
    };
    if let Some(span) = own_sends {
        path.push((
            "chain.send_tx_height_ratio",
            height_ratio(&spans.durations(span)),
        ));
    }

    let trace_file = Path::new(TRACE_DIR).join(format!("trace-{}.json", workload.name()));
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&trace_file, spans.to_json(workload.name(), args.seed)));
    drop(spans);

    let mut kernels = layers::run(args.seed, args.quick, root);
    let (hits, misses) = lsc_evm::memo_stats::snapshot();
    kernels.push((
        "evm.compile_memo_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    ));
    let value_of = |name: &str| {
        path.iter()
            .chain(kernels.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("no value for per-layer metric {name}"))
    };
    let metrics = spec::PER_LAYER
        .iter()
        .map(|(name, _)| (*name, value_of(name)))
        .collect();

    let phases = [Some(&staged), Some(&untraced), wire.as_ref()];
    let mut check = written.map_err(|e| format!("write {}: {e}", trace_file.display()));
    for m in phases.into_iter().flatten() {
        check = check.and(m.check.clone());
    }
    let mut exact = staged.exact.clone();
    exact.push(("trace_file", trace_file.display().to_string()));
    Report {
        n,
        attempted: phases.iter().flatten().map(|m| m.attempted).sum(),
        failed: phases.iter().flatten().map(|m| m.failed).sum(),
        check,
        exact,
        metrics,
    }
}
