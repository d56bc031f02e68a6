//! The four workloads. Each runs a fixed number of operations — never a
//! fixed time — in a closed loop from one client thread, times every
//! operation, and checks what the node answered and what it kept.

pub mod dashboard;
pub mod lifecycle;
pub mod rent_batch;
pub mod rent_wire;

use crate::affinity::{self, CpuMask};
use crate::client::Client;
use crate::estate::Estate;
use crate::stage;
use crate::stats::process_cpu;
use crate::trace::Tracer;
use lsc_abi::json::JsonValue;
use lsc_chain::LocalNode;
use lsc_primitives::H256;
use lsc_rpc::{MiningMode, RpcConfig, RpcServer};
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What one measured phase produced.
pub struct Measured {
    /// Operations attempted; fixed by the workload, not by the clock.
    pub attempted: u64,
    /// Error replies, reverted receipts, refused submissions, timeouts
    /// and wrong answers.
    pub failed: u64,
    /// One latency per sample, in nanoseconds, in issue order.
    pub latencies_ns: Vec<u64>,
    pub wall: Duration,
    pub cpu: Duration,
    /// Counts that repeat exactly for a seed, printed so that two runs
    /// can be diffed.
    pub exact: Vec<(&'static str, String)>,
    /// The post-run state checks.
    pub check: Result<(), String>,
}

/// Wall and process-CPU time of a phase.
pub struct PhaseClock {
    start: Instant,
    cpu_start: Duration,
}

impl PhaseClock {
    pub fn start() -> PhaseClock {
        PhaseClock {
            cpu_start: process_cpu(),
            start: Instant::now(),
        }
    }

    pub fn stop(self) -> (Duration, Duration) {
        let wall = self.start.elapsed();
        (wall, process_cpu().saturating_sub(self.cpu_start))
    }
}

/// A JSON-RPC request body.
pub fn request_body(id: u64, method: &str, params: Vec<JsonValue>) -> String {
    JsonValue::object([
        ("jsonrpc", JsonValue::String("2.0".to_string())),
        ("id", JsonValue::Number(id as f64)),
        ("method", JsonValue::String(method.to_string())),
        ("params", JsonValue::Array(params)),
    ])
    .to_json()
}

/// Where the threads of a wire session may run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Wherever the scheduler puts them: client and server workers can
    /// overlap, so work moved off the request thread shows.
    Free,
    /// All on one CPU; see `affinity.rs` for which workload needs this
    /// and why.
    OneCpu,
}

/// The load shape of the wire workloads: the server gets two workers,
/// the client is one thread on one keep-alive connection. A second
/// connection buys nothing on a node that is one mutex and triples the
/// run-to-run spread, because three threads then share two cores.
struct WireSession {
    server: RpcServer,
    client: Client,
    /// The affinity mask to restore on close, if the session changed it.
    unpinned: Option<CpuMask>,
}

impl WireSession {
    fn open(estate: &Estate, placement: Placement) -> Result<WireSession, String> {
        // Before the bind: the server's threads inherit the mask.
        let unpinned = match placement {
            Placement::Free => None,
            Placement::OneCpu => affinity::pin_to_one_cpu(),
        };
        let connect = || {
            let server = RpcServer::bind(
                estate.web3.clone(),
                "127.0.0.1:0",
                RpcConfig {
                    workers: 2,
                    mining: MiningMode::Instant,
                    ..RpcConfig::default()
                },
            )
            .map_err(|e| format!("bind: {e}"))?;
            let mut client =
                Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
            // The first request absorbs accept and worker assignment; it
            // is not part of any sample or byte count.
            client.round_trip(&request_body(0, "eth_blockNumber", Vec::new()))?;
            client.bytes_sent = 0;
            client.bytes_received = 0;
            Ok((server, client))
        };
        match connect() {
            Ok((server, client)) => Ok(WireSession {
                server,
                client,
                unpinned,
            }),
            Err(e) => {
                restore(unpinned);
                Err(e)
            }
        }
    }

    /// Stop the server, wait for its threads, and give the process its
    /// CPUs back.
    fn close(self) {
        self.server.shutdown();
        restore(self.unpinned);
    }
}

fn restore(unpinned: Option<CpuMask>) {
    if let Some(mask) = unpinned {
        affinity::set(&mask);
    }
}

/// A request stream sent and timed. `R` is what the workload keeps of
/// each reply.
pub struct Driven<R> {
    pub latencies_ns: Vec<u64>,
    pub replies: Vec<R>,
    pub wall: Duration,
    pub cpu: Duration,
}

/// Send every request through `send`, one after the other, timing each.
pub fn drive<'q, Q, R>(requests: &'q [Q], mut send: impl FnMut(u32, &'q Q) -> R) -> Driven<R> {
    let mut latencies_ns = Vec::with_capacity(requests.len());
    let mut replies = Vec::with_capacity(requests.len());
    let clock = PhaseClock::start();
    for (i, request) in requests.iter().enumerate() {
        let start = Instant::now();
        let reply = send(i as u32, request);
        latencies_ns.push(start.elapsed().as_nanos() as u64);
        replies.push(reply);
    }
    let (wall, cpu) = clock.stop();
    Driven {
        latencies_ns,
        replies,
        wall,
        cpu,
    }
}

/// A reply as the client got it: the body, or why there is none.
pub type Reply = Result<String, String>;

/// A stream sent over the socket, with the exact counts of the session.
pub struct WireRun<R> {
    pub driven: Driven<R>,
    pub exact: Vec<(&'static str, String)>,
}

/// Send the stream over the socket: `render` gives a request's body,
/// `keep` what the workload keeps of the reply.
pub fn drive_wire<'q, Q, R>(
    estate: &Estate,
    placement: Placement,
    requests: &'q [Q],
    render: impl Fn(&'q Q) -> Cow<'q, str>,
    keep: impl Fn(Reply) -> R,
) -> Result<WireRun<R>, String> {
    let mut session = WireSession::open(estate, placement)?;
    let driven = drive(requests, |_, request| {
        keep(session.client.round_trip(&render(request)))
    });
    let n = requests.len() as u64;
    let exact = vec![
        ("rpc.req_bytes_per_op", per_op(session.client.bytes_sent, n)),
        (
            "rpc.resp_bytes_per_op",
            per_op(session.client.bytes_received, n),
        ),
        ("pinned_to_one_cpu", session.unpinned.is_some().to_string()),
    ];
    session.close();
    Ok(WireRun { driven, exact })
}

/// Send the stream through the staged replay, in-process, one root span
/// per op.
pub fn drive_staged<'q, Q, R>(
    estate: &Estate,
    requests: &'q [Q],
    render: impl Fn(&'q Q) -> Cow<'q, str>,
    keep: impl Fn(Reply) -> R,
    t: &mut Tracer,
) -> Driven<R> {
    drive(requests, |i, request| {
        let op = t.begin_op(i);
        let reply = stage::serve(&estate.web3, &render(request), t);
        t.end(op);
        keep(reply)
    })
}

/// A total as a per-op figure with fixed digits, so exact counts diff.
pub fn per_op(total: u64, ops: u64) -> String {
    format!("{:.3}", total as f64 / ops.max(1) as f64)
}

impl Measured {
    /// A phase that could not start: every op counts as failed.
    pub fn aborted(attempted: usize, why: String) -> Measured {
        Measured {
            attempted: attempted as u64,
            failed: attempted as u64,
            latencies_ns: vec![0],
            wall: Duration::from_nanos(1),
            cpu: Duration::ZERO,
            exact: Vec::new(),
            check: Err(why),
        }
    }
}

/// Bytes in the data dir's WAL segments.
pub fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|entry| {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            name.starts_with("wal-") && name.ends_with(".log")
        })
        .filter_map(|entry| entry.metadata().ok())
        .map(|meta| meta.len())
        .sum()
}

/// The newest snapshot image in a data dir. Each compaction leaves one
/// under a new name, which is how a compaction is seen from outside.
pub fn newest_snapshot(dir: &Path) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .is_some_and(|name| name.to_string_lossy().starts_with("snapshot-"))
        })
        .max()
}

/// No acknowledged write lost: `LocalNode::recover` on the data dir
/// reproduces the height and state root the live node reported.
pub fn check_recovery(dir: &Path, height: u64, state_root: H256) -> Result<(), String> {
    let mut recovered =
        LocalNode::recover(dir, lsc_chain::Faults::none()).map_err(|e| format!("recover: {e}"))?;
    if recovered.block_number() != height {
        return Err(format!(
            "recovered height {} differs from the live node's {height}",
            recovered.block_number()
        ));
    }
    let root = recovered.state_root();
    if root != state_root {
        return Err(format!(
            "recovered state root {root} differs from the live node's {state_root}"
        ));
    }
    Ok(())
}

/// FNV-1a over a reply: what `dashboard_reads_wire` keeps of each
/// expected answer instead of the answer itself.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
