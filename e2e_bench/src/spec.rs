//! The benchmark's names: workloads, metrics and their units, exactly as
//! `BENCHMARK.json` lists them (the smoke test holds the two together),
//! and the fixed amount of work each workload does.

use crate::estate::Scale;
use crate::workloads::lifecycle::STEPS;
use crate::workloads::rent_batch::BLOCK_TXS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RentWireDurable,
    RentDayBatchMemory,
    DashboardReadsWire,
    LifecycleUpgradeDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RentWireDurable,
        Workload::RentDayBatchMemory,
        Workload::DashboardReadsWire,
        Workload::LifecycleUpgradeDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RentWireDurable => "rent_wire_durable",
            Workload::RentDayBatchMemory => "rent_day_batch_memory",
            Workload::DashboardReadsWire => "dashboard_reads_wire",
            Workload::LifecycleUpgradeDurable => "lifecycle_upgrade_durable",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn durable(self) -> bool {
        self != Workload::RentDayBatchMemory
    }

    /// Do its requests cross the socket?
    pub fn on_wire(self) -> bool {
        matches!(
            self,
            Workload::RentWireDurable | Workload::DashboardReadsWire
        )
    }

    /// The fixed work of one run, in ops — a constant, never read off a
    /// clock and never scaled by an argument: per-op cost on this node
    /// grows with chain height, so a time-boxed run would reach a
    /// different height each time and every per-op number would move
    /// with it, and runs of different lengths do not compare. Sized once,
    /// on the commit that introduced the benchmark at `nproc = 2`, so
    /// that the measured phase takes about 15 s there. Each workload's
    /// `why` in `BENCHMARK.json` leads with the same number (the smoke
    /// test holds the two together).
    pub fn full_op_count(self) -> usize {
        match self {
            Workload::RentWireDurable => 11_000,
            Workload::RentDayBatchMemory => 3_840 * BLOCK_TXS,
            Workload::DashboardReadsWire => 750_000,
            Workload::LifecycleUpgradeDurable => 256 * STEPS,
        }
    }

    /// Ops of one run: the workload's constant, or a fiftieth of it at
    /// the smoke test's `--quick` scale.
    pub fn op_count(self, quick: bool) -> usize {
        if quick {
            self.whole_units(self.full_op_count() / 50)
        } else {
            self.full_op_count()
        }
    }

    /// `ops` rounded down to whole blocks or lifecycles, at least one.
    pub fn whole_units(self, ops: usize) -> usize {
        let unit = match self {
            Workload::RentDayBatchMemory => BLOCK_TXS,
            Workload::LifecycleUpgradeDurable => STEPS,
            _ => 1,
        };
        (ops / unit).max(1) * unit
    }
}

/// Lifecycles between two restarts of `lifecycle_upgrade_durable`.
pub fn restart_every(quick: bool) -> usize {
    if quick {
        4
    } else {
        64
    }
}

pub fn scale(quick: bool) -> Scale {
    if quick {
        Scale::QUICK
    } else {
        Scale::FULL
    }
}

/// `run_seconds` of `BENCHMARK.json`: the nominal length of a measured
/// phase, which the driver passes as `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// Estates built per untraced run; `setup_s` is the median of their
/// build times.
pub const SETUP_REPEATS: usize = 3;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_peak_mb", "MB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric, reported by a traced run.
/// A metric of a layer the workload's requests do not pass through reads
/// 0 there.
pub const PER_LAYER: [(&str, &str); 58] = [
    // lsc-rpc: what the socket adds to the staged replay.
    ("rpc.transport_us_p50", "us"),
    ("rpc.req_bytes_per_op", "B"),
    ("rpc.resp_bytes_per_op", "B"),
    // lsc-abi
    ("abi.json_parse_us_per_op", "us"),
    ("abi.json_encode_us_per_op", "us"),
    ("abi.codec_us_per_op", "us"),
    // lsc-web3
    ("web3.wire_decode_us_per_op", "us"),
    ("web3.wire_encode_us_per_op", "us"),
    ("web3.proof_verify_us", "us"),
    // The node call between decode and encode, whichever layer serves it.
    ("path.node_us_per_op", "us"),
    // lsc-chain: engines
    ("chain.send_tx_us_p50", "us"),
    ("chain.send_tx_memory_us_p50", "us"),
    ("chain.send_tx_height_ratio", "ratio"),
    ("chain.engine_residual_us", "us"),
    ("chain.submit_us_per_tx", "us"),
    ("chain.mine_us_per_tx", "us"),
    ("chain.mine_seq_us_per_tx", "us"),
    ("chain.parallel_speedup", "ratio"),
    ("chain.mine_max_ms", "ms"),
    // lsc-evm
    ("evm.exec_us_per_tx", "us"),
    ("evm.create_us", "us"),
    ("evm.call_us_p50", "us"),
    ("evm.superinstr_ratio", "ratio"),
    ("evm.compile_memo_hit_rate", "ratio"),
    // lsc-chain: trie and page store
    ("trie.apply_us_per_block", "us"),
    ("trie.apply_us_per_tx", "us"),
    ("store.proof_us_p50", "us"),
    ("store.proof_small_cache_us_p50", "us"),
    ("store.persist_ms", "ms"),
    ("store.page_file_mb", "MB"),
    // lsc-chain: write-ahead log
    ("wal.append_us_p50", "us"),
    ("wal.append_batch64_us", "us"),
    ("wal.bytes_per_op", "B"),
    // lsc-chain: compaction and recovery
    ("chain.compact_ms_p50", "ms"),
    ("chain.compact_count", "count"),
    ("chain.snapshot_image_mb", "MB"),
    ("chain.recover_ms_p50", "ms"),
    ("chain.recover_replay_ms", "ms"),
    // lsc-chain: MVCC read path
    ("mvcc.snapshot_read_us_p50", "us"),
    ("mvcc.get_logs_us_p50", "us"),
    // lsc-core
    ("core.deploy_us_p50", "us"),
    ("core.deploy_version_us_p50", "us"),
    ("core.confirm_us_p50", "us"),
    ("core.pay_rent_us_p50", "us"),
    ("core.proof_us_p50", "us"),
    ("core.verify_chain_us_p50", "us"),
    ("core.terminate_us_p50", "us"),
    // lsc-analyzer, lsc-ipfs, lsc-solc, lsc-primitives
    ("analyzer.vet_deploy_us_warm", "us"),
    ("analyzer.vet_upgrade_us_warm", "us"),
    ("analyzer.vet_upgrade_us_cold", "us"),
    ("ipfs.put_get_us", "us"),
    ("solc.compile_ms", "ms"),
    ("primitives.keccak_ns_per_64b", "ns"),
    // The trace itself.
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.staged_p50_us", "us"),
    ("trace.wire_p50_us", "us"),
    ("trace.spans", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use lsc_abi::json::{self, JsonValue};

    /// `BENCHMARK.json` has a fixed set of keys and none for an op count,
    /// so each workload's `why` leads with it: `N=<ops> ...`.
    #[test]
    fn benchmark_json_states_the_work_and_the_run_length_the_program_uses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let document = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            document.get("run_seconds"),
            Some(&JsonValue::Number(RUN_SECONDS as f64))
        );
        let workloads = document
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (listed, workload) in workloads.iter().zip(Workload::ALL) {
            let field = |key| listed.get(key).and_then(JsonValue::as_str).expect(key);
            assert_eq!(field("name"), workload.name());
            let lead = format!("N={} ", workload.full_op_count());
            assert!(
                field("why").starts_with(&lead),
                "{}: why should lead with {lead}",
                workload.name()
            );
        }
    }
}
