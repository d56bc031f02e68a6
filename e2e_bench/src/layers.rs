//! Layer kernels: one public function of one layer, timed from here on
//! inputs taken from the estate. They run in every traced run, whatever
//! the workload, because they describe the layer, not the workload; the
//! metrics that describe a workload's own path through the layers come
//! from its staged replay's spans instead (see `report.rs`).
//!
//! A kernel's number is not a share of any end-to-end metric — the
//! README's interaction table says which end-to-end metric each should
//! move, on which workload.

use crate::estate::{chain_config, DataRoot, Estate, Scale, BLOCK_TXS, MINE, SUBMIT};
use crate::stats::p50_us;
use crate::trace::Tracer;
use lsc_abi::AbiValue;
use lsc_chain::{
    Faults, LocalNode, StateStore, StateTrie, Transaction, Wal, WalRecord, WorldState,
};
use lsc_core::contracts;
use lsc_evm::{superinstr, BlockEnv, Evm, Message, SnapshotHost};
use lsc_ipfs::IpfsNode;
use lsc_primitives::keccak::keccak256;
use lsc_primitives::{H256, U256};
use lsc_web3::{verify_proof_response, wire};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

pub type Metrics = Vec<(&'static str, f64)>;

/// How many times each kernel runs.
struct Reps {
    /// Cheap calls (microseconds each).
    many: usize,
    /// Instant-mined transactions in the `send_transaction` kernels.
    sends: usize,
    /// Calls that take milliseconds.
    few: usize,
}

fn time_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_nanos() as u64)
}

/// `n` timed calls of `f(i)`, in nanoseconds.
fn samples(n: usize, mut f: impl FnMut(usize)) -> Vec<u64> {
    (0..n).map(|i| time_ns(|| f(i)).1).collect()
}

fn mean_us(samples: &[u64]) -> f64 {
    samples.iter().sum::<u64>() as f64 / 1_000.0 / samples.len().max(1) as f64
}

fn file_mb(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / (1024.0 * 1024.0))
}

/// p50 of the last tenth of `samples` over p50 of the first tenth: how
/// much one and the same call got slower as the chain grew under it.
pub fn height_ratio(samples: &[u64]) -> f64 {
    let decile = (samples.len() / 10).max(1);
    let first = p50_us(&samples[..decile.min(samples.len())]);
    let last = p50_us(&samples[samples.len().saturating_sub(decile)..]);
    if first == 0.0 {
        0.0
    } else {
        last / first
    }
}

/// Run every kernel.
pub fn run(seed: u64, quick: bool, root: &DataRoot) -> Metrics {
    let reps = if quick {
        Reps {
            many: 200,
            sends: 100,
            few: 3,
        }
    } else {
        Reps {
            many: 2_000,
            sends: 1_000,
            few: 5,
        }
    };
    let scale = if quick { Scale::QUICK } else { Scale::KERNEL };
    let mut m = Metrics::new();
    toolchain(&mut m, &reps);
    let memory_send_p50 = in_memory(&mut m, seed, scale, &reps);
    let durable_send_p50 = on_disk(&mut m, seed, scale, &reps, root);
    // What `send_transaction` costs beyond the three kernels it contains
    // (EVM, one-transaction trie update, WAL append): sealing, receipts,
    // snapshot publish.
    let get = |name: &str| m.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
    let residual = durable_send_p50
        - get("evm.exec_us_per_tx")
        - get("trie.apply_us_per_tx")
        - get("wal.append_us_p50");
    m.push(("chain.engine_residual_us", residual));
    m.push(("chain.send_tx_memory_us_p50", memory_send_p50));
    m.push(("chain.send_tx_us_p50", durable_send_p50));
    m
}

/// `lsc-solc`, `lsc-primitives`, `lsc-analyzer`, `lsc-ipfs`: no chain.
fn toolchain(m: &mut Metrics, reps: &Reps) {
    let compile = samples(reps.few, |_| {
        black_box(contracts::compile_base_rental().expect("Fig. 5 compiles"));
        black_box(contracts::compile_rental_agreement().expect("Fig. 6 compiles"));
    });
    m.push(("solc.compile_ms", p50_us(&compile) / 1_000.0));

    // Trie hashing is keccak over short node encodings; 64 bytes is a
    // branch node's two child hashes.
    let mut block = [0x5au8; 64];
    let rounds = reps.many * 50;
    let ((), ns) = time_ns(|| {
        for _ in 0..rounds {
            let digest = keccak256(black_box(&block));
            block[..32].copy_from_slice(&digest);
        }
    });
    m.push(("primitives.keccak_ns_per_64b", ns as f64 / rounds as f64));

    let base = contracts::compile_base_rental().expect("Fig. 5 compiles");
    let v2 = contracts::compile_rental_agreement().expect("Fig. 6 compiles");
    lsc_analyzer::vet_deployment_cached(&base.bytecode);
    let warm = samples(reps.many, |_| {
        black_box(lsc_analyzer::vet_deployment_cached(black_box(
            &base.bytecode,
        )));
    });
    m.push(("analyzer.vet_deploy_us_warm", p50_us(&warm)));
    lsc_analyzer::vet_upgrade(&base.runtime, &v2.bytecode);
    let warm = samples(reps.many, |_| {
        black_box(lsc_analyzer::vet_upgrade(&base.runtime, &v2.bytecode));
    });
    m.push(("analyzer.vet_upgrade_us_warm", p50_us(&warm)));
    // The layout memo is keyed by code bytes: an unreachable trailer that
    // differs per call (as solc's metadata hash does per build) makes
    // every call a first sight of both runtimes.
    let cold = samples(reps.few, |i| {
        let trailer = [0xfe, 0xa1, i as u8, (i >> 8) as u8];
        let old = [base.runtime.as_slice(), &trailer].concat();
        let new = [v2.runtime.as_slice(), &trailer].concat();
        black_box(lsc_analyzer::vet_upgrade_runtime(&old, &new));
    });
    m.push(("analyzer.vet_upgrade_us_cold", p50_us(&cold)));

    let ipfs = IpfsNode::new();
    let abi_json = base.abi.to_json();
    let put_get = samples(reps.many, |i| {
        let document = format!("{abi_json}{i}");
        let cid = ipfs.add_pinned(document.as_bytes());
        black_box(ipfs.cat(&cid).expect("pinned block is there"));
    });
    m.push(("ipfs.put_get_us", p50_us(&put_get)));
}

/// Kernels on an in-memory estate; returns the p50 of `send_transaction`.
fn in_memory(m: &mut Metrics, seed: u64, scale: Scale, reps: &Reps) -> f64 {
    let estate = Estate::build(seed, scale, chain_config(None), None);
    let snap = estate.web3.read_snapshot();
    let pay_rent = &estate.pay_rent_data;
    let agreement = |i: usize| &estate.agreements[i % estate.agreements.len()];

    // lsc-evm: the payRent message alone, on a read-only host over the
    // published snapshot — no validation, no sealing, no trie.
    let env = BlockEnv {
        number: snap.block_number() + 1,
        timestamp: snap.timestamp(),
        ..BlockEnv::default()
    };
    let exec = |i: usize| {
        let a = agreement(i);
        let mut host = SnapshotHost::new(&*snap, &env, U256::from_u64(1_000_000_000), &[]);
        let result = Evm::new(&mut host).execute(Message::call(
            a.tenant,
            a.address,
            a.rent,
            pay_rent.clone(),
            7_000_000,
        ));
        assert!(result.success, "payRent kernel reverted");
    };
    let on = mean_us(&samples(reps.many, exec));
    superinstr::set_enabled(false);
    let off = mean_us(&samples(reps.many, exec));
    superinstr::set_enabled(true);
    m.push(("evm.exec_us_per_tx", on));
    m.push(("evm.superinstr_ratio", off / on));

    let mut init_code = estate.base.bytecode.clone();
    init_code.extend(
        estate
            .base
            .abi
            .encode_constructor(&[
                AbiValue::Uint(U256::from_u64(1_234)),
                AbiValue::string("10001-42 Main St"),
                AbiValue::uint(31_536_000),
            ])
            .expect("constructor arguments encode"),
    );
    let create = samples(reps.many / 10, |_| {
        let mut host = SnapshotHost::new(&*snap, &env, U256::from_u64(1_000_000_000), &[]);
        let result = Evm::new(&mut host).execute(Message::create(
            estate.landlord,
            U256::ZERO,
            init_code.clone(),
            11_000_000,
        ));
        assert!(result.success, "create kernel failed");
    });
    m.push(("evm.create_us", mean_us(&create)));

    let abi = &estate.base.abi;
    let state_call = abi
        .function("state")
        .expect("state()")
        .encode_call(&[])
        .expect("encodes");
    let call = samples(reps.many, |i| {
        let result = snap.call(estate.landlord, agreement(i).address, state_call.clone());
        assert!(result.success);
    });
    m.push(("evm.call_us_p50", p50_us(&call)));

    // lsc-abi: one call encoded and its reply decoded.
    let paidrents = abi.function("paidrents").expect("paidrents()");
    let output = snap
        .call(
            estate.landlord,
            agreement(0).address,
            paidrents
                .encode_call(&[AbiValue::uint(0)])
                .expect("encodes"),
        )
        .output;
    let codec = samples(reps.many, |i| {
        black_box(
            paidrents
                .encode_call(&[AbiValue::uint(i as u64 % 12)])
                .expect("encodes"),
        );
        black_box(paidrents.decode_output(&output).expect("decodes"));
    });
    m.push(("abi.codec_us_per_op", mean_us(&codec)));

    // lsc-chain::mvcc: reads off the published snapshot. One read is
    // shorter than a clock reading, so a sample is a hundred of them.
    let tip = snap.block_number();
    let reads = samples(reps.many / 10, |i| {
        for k in 0..100 {
            let j = i * 100 + k;
            black_box(snap.balance(agreement(j).tenant));
            black_box(snap.receipt(estate.rent_hashes[j % estate.rent_hashes.len()]));
            black_box(snap.block(1 + (j as u64 % tip)));
        }
    });
    m.push(("mvcc.snapshot_read_us_p50", p50_us(&reads) / 300.0));
    let logs = samples(reps.many, |i| {
        let filter = lsc_chain::LogFilter::address_topic0(Some(agreement(i).address), None);
        black_box(snap.logs_filtered(tip.saturating_sub(63), tip, &filter));
    });
    m.push(("mvcc.get_logs_us_p50", p50_us(&logs)));

    // lsc-web3: an eth_getProof reply verified with nothing but the root.
    let proof = estate
        .web3
        .proof(agreement(0).address, &[U256::ZERO, U256::ONE])
        .expect("proof");
    let (reply, root) = (wire::proof_to_json(&proof), proof.state_root);
    let verify = samples(reps.many / 10, |_| {
        black_box(verify_proof_response(&reply, root).expect("proof verifies"));
    });
    m.push(("web3.proof_verify_us", p50_us(&verify)));

    trie_apply(m, &estate, reps);
    batch_engines(m, &estate, seed, reps);

    // lsc-chain: the instant engine with nothing underneath it.
    p50_us(&samples(reps.sends, |i| send_rent(&estate, i)))
}

/// One instant-mined rent payment, which must succeed.
fn send_rent(estate: &Estate, i: usize) {
    let receipt = estate
        .web3
        .send_transaction_raw(estate.rent_transaction(i % estate.agreements.len()))
        .expect("payment accepted");
    assert!(receipt.is_success());
}

/// `StateTrie::apply` on the dirty set of a rent-day block (and of a
/// one-payment block), against a copy of the estate's world state.
fn trie_apply(m: &mut Metrics, estate: &Estate, reps: &Reps) {
    let mut state = WorldState::new();
    for (address, account) in estate.web3.with_node(|node| node.state_accounts()) {
        state.restore_account(address, account);
    }
    state.commit();
    let mut store = StateStore::in_memory();
    let mut trie = StateTrie::rebuild_from(&mut store, &state).expect("in-memory rebuild");
    let _ = state.take_trie_dirty();
    let length_slot = estate.paidrents_slot();
    let elements = H256::keccak(length_slot.to_be_bytes()).to_u256();
    // What payRent writes: the tenant pays, the landlord is paid, the
    // array grows by one two-word element.
    let pay = |state: &mut WorldState, i: usize| {
        let a = &estate.agreements[i % estate.agreements.len()];
        let paid = state.storage(a.address, length_slot);
        state.set_nonce(a.tenant, state.nonce(a.tenant) + 1);
        assert!(state.debit(a.tenant, a.rent));
        state.credit(estate.landlord, a.rent);
        let element = elements + paid * U256::from_u64(2);
        state.set_storage(a.address, element, paid + U256::ONE);
        state.set_storage(a.address, element + U256::ONE, a.rent);
        state.set_storage(a.address, length_slot, paid + U256::ONE);
        state.commit();
    };
    let mut next = 0usize;
    let mut apply = |payments: usize, blocks: usize| {
        // Only the trie update is timed, not the writes that dirty it.
        let mut times = Vec::with_capacity(blocks);
        for _ in 0..blocks {
            for _ in 0..payments {
                pay(&mut state, next);
                next += 1;
            }
            let dirt = state.take_trie_dirty();
            let (root, ns) = time_ns(|| trie.apply(&mut store, &state, &dirt));
            root.expect("in-memory apply");
            times.push(ns);
        }
        times
    };
    m.push((
        "trie.apply_us_per_block",
        mean_us(&apply(BLOCK_TXS, reps.many / 40)),
    ));
    m.push(("trie.apply_us_per_tx", mean_us(&apply(1, reps.many / 4))));
}

/// The batch engines: rent-day blocks through `mine_block` (parallel
/// where the machine allows) and `mine_block_sequential`.
fn batch_engines(m: &mut Metrics, estate: &Estate, seed: u64, reps: &Reps) {
    let blocks = crate::workloads::rent_batch::generate(estate, seed, reps.many / 50);
    let txs = blocks.iter().map(Vec::len).sum::<usize>() as f64;
    let mut t = Tracer::on();
    for block in &blocks {
        estate
            .submit_and_mine(block, &mut t)
            .expect("kernel rent day");
    }
    let total_us = |name: &str| t.durations(name).iter().sum::<u64>() as f64 / 1_000.0;
    let mine = total_us(MINE) / txs;
    m.push(("chain.submit_us_per_tx", total_us(SUBMIT) / txs));
    m.push(("chain.mine_us_per_tx", mine));

    let mut sequential_ns = 0;
    for block in &blocks {
        let batch: Vec<Transaction> = block.iter().map(|&i| estate.rent_transaction(i)).collect();
        estate
            .web3
            .submit_transactions(batch)
            .expect("kernel submit");
        let ((_, errors), ns) = time_ns(|| estate.web3.with_node(LocalNode::mine_block_sequential));
        assert!(errors.is_empty(), "{errors:?}");
        sequential_ns += ns;
    }
    let sequential = sequential_ns as f64 / 1_000.0 / txs;
    m.push(("chain.mine_seq_us_per_tx", sequential));
    m.push(("chain.parallel_speedup", sequential / mine));
}

/// Kernels that need a data dir; returns the p50 of a durable
/// `send_transaction`.
fn on_disk(m: &mut Metrics, seed: u64, scale: Scale, reps: &Reps, root: &DataRoot) -> f64 {
    let dir = root.fresh();
    let estate = Estate::build(seed, scale, chain_config(None), Some(&dir));
    m.push((
        "chain.snapshot_image_mb",
        crate::workloads::newest_snapshot(&dir).map_or(0.0, |p| file_mb(&p)),
    ));

    // lsc-chain, durable: WAL append + fsync per block on the path.
    let sends = samples(reps.sends, |i| send_rent(&estate, i));
    m.push(("chain.send_tx_height_ratio", height_ratio(&sends)));

    // Inputs the later kernels take from the estate while it is live.
    let rent_tx = estate.rent_transaction(0);
    let rent_batch: Vec<WalRecord> = (0..BLOCK_TXS)
        .map(|i| WalRecord::SubmitTx(estate.rent_transaction(i % estate.agreements.len())))
        .collect();
    let agreements: Vec<_> = estate.agreements.iter().map(|a| a.address).collect();

    // Recovery with a log tail to replay: every send above.
    let estate = {
        let (estate, ns) = time_ns(|| estate.restart());
        m.push(("chain.recover_replay_ms", ns as f64 / 1e6));
        estate
    };

    // Compaction: JSON image + live trie nodes to pages, each time after
    // one rent-day block's worth of new writes.
    let mut compact_ns = Vec::with_capacity(reps.few);
    for round in 0..reps.few {
        for i in 0..BLOCK_TXS {
            send_rent(&estate, round * BLOCK_TXS + i);
        }
        let (result, ns) = time_ns(|| estate.web3.with_node(LocalNode::compact));
        result.expect("compact");
        compact_ns.push(ns);
    }
    m.push(("chain.compact_ms_p50", p50_us(&compact_ns) / 1_000.0));
    m.push(("store.page_file_mb", file_mb(&dir.join("state.pages"))));

    // Recovery right after a compaction: image import + adopted pages.
    let mut estate = estate;
    let mut adopt_ns = Vec::with_capacity(reps.few);
    for _ in 0..reps.few {
        let (restarted, ns) = time_ns(|| estate.restart());
        estate = restarted;
        adopt_ns.push(ns);
    }
    m.push(("chain.recover_ms_p50", p50_us(&adopt_ns) / 1_000.0));
    drop(estate);

    // lsc-chain::store: proofs straight off the page file, with a cache
    // that holds the trie (the default) and one that does not.
    for (name, cache_bytes) in [
        ("store.proof_us_p50", lsc_chain::DEFAULT_CACHE_BYTES),
        ("store.proof_small_cache_us_p50", 16 * 1024),
    ] {
        let mut store = StateStore::open(&dir, cache_bytes, Faults::none()).expect("open pages");
        let (state_root, _) = store.persisted_root().expect("compacted estate has a root");
        let mut trie = StateTrie::from_root(state_root);
        let proofs = samples(reps.many / 2, |i| {
            let address = agreements[i % agreements.len()];
            black_box(
                trie.prove_account(&mut store, address)
                    .expect("account proof"),
            );
            black_box(
                trie.prove_storage(&mut store, address, U256::ZERO)
                    .expect("slot proof"),
            );
        });
        m.push((name, p50_us(&proofs)));
    }

    // Persisting a whole trie into an empty page file.
    let node = LocalNode::recover(&dir, Faults::none()).expect("recover for persist kernel");
    let mut state = WorldState::new();
    for (address, account) in node.state_accounts() {
        state.restore_account(address, account);
    }
    let height = node.block_number();
    drop(node);
    root.discard(&dir);
    let pages_dir = root.fresh();
    std::fs::create_dir_all(&pages_dir).expect("create pages dir");
    let mut store = StateStore::open(&pages_dir, lsc_chain::DEFAULT_CACHE_BYTES, Faults::none())
        .expect("open empty pages");
    let trie = StateTrie::rebuild_from(&mut store, &state).expect("rebuild");
    let live = trie.live_nodes(&mut store).expect("walk");
    let (result, ns) = time_ns(|| store.persist(trie.root(), height, &live));
    result.expect("persist");
    m.push(("store.persist_ms", ns as f64 / 1e6));
    drop(store);
    root.discard(&pages_dir);

    // lsc-chain::wal alone: one InstantTx record with its fsync, and a
    // rent-day block's 64 submissions group-committed with one.
    let wal_dir = root.fresh();
    let mut wal = Wal::open(&wal_dir, Faults::none()).expect("open wal");
    let record = WalRecord::InstantTx(rent_tx);
    let appends = samples(reps.many / 4, |_| wal.append(&record).expect("append"));
    let bytes = crate::workloads::wal_bytes(&wal_dir);
    m.push(("wal.append_us_p50", p50_us(&appends)));
    m.push(("wal.bytes_per_op", bytes as f64 / appends.len() as f64));
    let batches = samples(reps.many / 40, |_| {
        wal.append_batch(&rent_batch).expect("append batch");
    });
    m.push(("wal.append_batch64_us", p50_us(&batches)));
    drop(wal);
    root.discard(&wal_dir);

    p50_us(&sends)
}
