//! End-to-end durability tests for the chain layer: a node opened on a
//! data directory, crashed (by dropping it, tearing the log, or injected
//! faults), and recovered must reproduce the committed state
//! bit-identically — block hashes, receipts, storage, pending queue.

use lsc_chain::wal::{FaultPlan, Faults};
use lsc_chain::{
    fault_injection_enabled, ChainConfig, CommittedSnapshot, LocalNode, Transaction, TxError,
};
use lsc_primitives::U256;
use std::path::PathBuf;

mod common;
use common::{
    child_runtime, deploy_child, destroy_child, factory_runtime, init_for, read_constant,
    set_template,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lsc-recovery-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tiny init code: PUSH1 5; PUSH1 1; SSTORE; PUSH1 0; PUSH1 0; LOG0;
/// PUSH1 0; PUSH1 0; RETURN — a contract with storage and one (empty)
/// log but empty runtime.
fn storing_init_code() -> Vec<u8> {
    vec![
        0x60, 0x05, 0x60, 0x01, 0x55, 0x60, 0x00, 0x60, 0x00, 0xa0, 0x60, 0x00, 0x60, 0x00, 0xf3,
    ]
}

/// A representative workload: faucet, instant transfers, a deployment,
/// batch mining, clock warps, and a still-pending queue at the end.
fn run_workload(node: &mut LocalNode) {
    let [a, b, c] = [node.accounts()[0], node.accounts()[1], node.accounts()[2]];
    node.faucet(
        lsc_primitives::Address::from_label("grant"),
        U256::from_u64(777),
    );
    node.send_transaction(
        Transaction::call(a, b, vec![])
            .with_value(lsc_primitives::ether(3))
            .with_gas(21_000),
    )
    .unwrap();
    node.send_transaction(Transaction::deploy(a, storing_init_code()))
        .unwrap();
    node.increase_time(86_400);
    node.submit_transaction(Transaction::call(b, c, vec![]).with_value(U256::from_u64(9)));
    node.submit_transaction(Transaction::call(c, a, vec![]).with_value(U256::from_u64(4)));
    let (block, errors) = node.mine_block();
    // Exactly 2 on a fresh node; a leftover pending tx from a previous
    // workload run rides along when the workload repeats.
    assert!(block.tx_hashes.len() >= 2);
    assert!(errors.is_empty());
    node.set_timestamp(node.timestamp() + 55);
    // Leave something in the pending queue: recovery must restore it too.
    node.submit_transaction(Transaction::call(a, b, vec![]).with_value(U256::from_u64(1)));
}

/// Full-fidelity comparison via the checksummed image (covers accounts,
/// storage, blocks, receipts, pending queue and the clock).
fn assert_identical(expected: &LocalNode, recovered: &LocalNode) {
    assert_eq!(expected.export_state(), recovered.export_state());
    assert_eq!(expected.block_number(), recovered.block_number());
    assert_eq!(expected.pending_count(), recovered.pending_count());
    for n in 0..=expected.block_number() {
        assert_eq!(
            expected.block(n).unwrap().hash,
            recovered.block(n).unwrap().hash
        );
    }
    assert_same_published_history(
        &expected.published_snapshot(),
        &recovered.published_snapshot(),
    );
}

/// Replay appends straight into the history the node publishes: the
/// snapshot a reader gets after recovery must equal the pre-crash one —
/// blocks, hash lookup, receipts and the log index.
fn assert_same_published_history(before: &CommittedSnapshot, after: &CommittedSnapshot) {
    assert_eq!(before.block_number(), after.block_number());
    for n in 0..=before.block_number() {
        let (want, got) = (before.block(n).unwrap(), after.block(n).unwrap());
        assert_eq!(got.hash, want.hash);
        assert_eq!(got.tx_hashes, want.tx_hashes);
        assert_eq!(after.block_by_hash(want.hash).unwrap().number, n);
        for tx_hash in &want.tx_hashes {
            let (want, got) = (
                before.receipt(*tx_hash).unwrap(),
                after.receipt(*tx_hash).unwrap(),
            );
            assert_eq!(
                (got.block_number, got.tx_index, got.status, got.gas_used),
                (want.block_number, want.tx_index, want.status, want.gas_used)
            );
            assert_eq!(got.logs, want.logs);
        }
    }
    let logs = before.logs(0, u64::MAX, None, None);
    assert!(!logs.is_empty(), "the workload emits logs");
    assert_eq!(after.logs(0, u64::MAX, None, None), logs);
}

#[test]
fn recover_replays_the_full_log() {
    let dir = temp_dir("replay");
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 5, Faults::none()).unwrap();
    run_workload(&mut node);
    let expected = node.export_state();
    let published = node.published_snapshot();
    drop(node);

    let recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(recovered.export_state(), expected);
    assert_same_published_history(&published, &recovered.published_snapshot());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_on_an_existing_dir_recovers_and_continues() {
    let dir = temp_dir("reopen");
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 5, Faults::none()).unwrap();
    run_workload(&mut node);
    let height = node.block_number();
    drop(node);

    // Same entry point, existing directory: recovery, not a fresh chain.
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 5, Faults::none()).unwrap();
    assert_eq!(node.block_number(), height);
    // The chain keeps working and the new work is durable too.
    let [a, b] = [node.accounts()[0], node.accounts()[1]];
    node.send_transaction(
        Transaction::call(a, b, vec![])
            .with_value(U256::from_u64(2))
            .with_gas(21_000),
    )
    .unwrap();
    let expected = node.export_state();
    drop(node);
    let recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(recovered.export_state(), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_truncates_a_torn_tail() {
    let dir = temp_dir("torn");
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 5, Faults::none()).unwrap();
    run_workload(&mut node);
    let committed = node.export_state();
    drop(node);

    // Crash mid-append: garbage half-record at the end of the newest
    // segment.
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(std::result::Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .max()
        .unwrap();
    let mut bytes = std::fs::read(&newest).unwrap();
    bytes.extend_from_slice(&[0x2a, 0x00, 0x00, 0x00, 0xde, 0xad]);
    std::fs::write(&newest, &bytes).unwrap();

    let recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(
        recovered.export_state(),
        committed,
        "torn tail dropped, committed prefix intact"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_prunes_and_recovery_uses_the_snapshot() {
    let dir = temp_dir("compact");
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 5, Faults::none()).unwrap();
    run_workload(&mut node);
    let wal_from = node.compact().unwrap();
    assert!(wal_from > 1);

    // Old segments are gone, the snapshot exists.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(std::result::Result::ok)
        .filter_map(|e| e.file_name().to_str().map(String::from))
        .collect();
    assert!(
        names.iter().any(|n| n.starts_with("snapshot-")),
        "snapshot published: {names:?}"
    );
    assert!(
        !names.contains(&"wal-000001.log".to_string()),
        "covered segment pruned: {names:?}"
    );

    // Work after compaction lands in the new segment and recovery stacks
    // it on top of the snapshot.
    let [a, b] = [node.accounts()[0], node.accounts()[1]];
    node.send_transaction(
        Transaction::call(a, b, vec![])
            .with_value(U256::from_u64(8))
            .with_gas(21_000),
    )
    .unwrap();
    node.submit_transaction(Transaction::call(b, a, vec![]).with_value(U256::from_u64(6)));
    let expected = node.export_state();
    drop(node);

    let recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(recovered.export_state(), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_fault_poisons_node_at_exactly_the_recoverable_state() {
    if !fault_injection_enabled() {
        eprintln!("fault-injection feature off; skipping");
        return;
    }
    let dir = temp_dir("poison");
    let plan = FaultPlan {
        fail_fsync: Some(4),
        ..FaultPlan::default()
    };
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 5, Faults::plan(plan)).unwrap();
    let [a, b] = [node.accounts()[0], node.accounts()[1]];
    let mut failed = false;
    for i in 0..8u64 {
        match node.send_transaction(
            Transaction::call(a, b, vec![])
                .with_value(U256::from_u64(i + 1))
                .with_gas(21_000),
        ) {
            Ok(_) => assert!(!failed, "op applied after poisoning"),
            Err(TxError::Durability(_)) => failed = true,
            Err(other) => panic!("unexpected: {other}"),
        }
    }
    assert!(failed, "the armed fault fired");
    assert!(node.poisoned_reason().is_some());
    // Further mutations of every kind refuse to run.
    assert!(matches!(
        node.try_increase_time(5),
        Err(TxError::Durability(_))
    ));
    assert!(matches!(
        node.try_submit_transaction(Transaction::call(a, b, vec![])),
        Err(TxError::Durability(_))
    ));
    assert!(matches!(node.try_mine_block(), Err(TxError::Durability(_))));

    let frozen = node.export_state();
    drop(node);
    let recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(
        recovered.export_state(),
        frozen,
        "in-memory state at the failure point == recoverable state"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_skips_an_invalid_snapshot() {
    let dir = temp_dir("badsnap");
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 5, Faults::none()).unwrap();
    run_workload(&mut node);
    node.compact().unwrap();
    let expected = node.export_state();
    drop(node);

    // Corrupt the published snapshot: one flipped bit.
    let snapshot = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(std::result::Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snapshot-"))
        })
        .unwrap();
    let mut bytes = std::fs::read(&snapshot).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&snapshot, &bytes).unwrap();

    // The snapshot fails its checksum, so recovery falls back to replaying
    // the full log from genesis... but compaction pruned those segments.
    // The fallback is only exact when the segments still exist, so this
    // asserts the *detection*: recovery must not silently trust a corrupt
    // snapshot. With the covered segments pruned, the recovered chain is
    // shorter than the original — never corrupt.
    let recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_ne!(recovered.export_state(), expected);
    assert!(recovered.block_number() < 6, "replayed from genesis only");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn in_memory_nodes_are_unaffected() {
    // No data dir: the WAL machinery must stay entirely out of the way.
    let mut node = LocalNode::new(3);
    let [a, b] = [node.accounts()[0], node.accounts()[1]];
    node.send_transaction(
        Transaction::call(a, b, vec![])
            .with_value(U256::from_u64(5))
            .with_gas(21_000),
    )
    .unwrap();
    assert!(node.data_dir().is_none());
    assert!(node.wal_segment().is_none());
    assert!(node.poisoned_reason().is_none());
}

#[test]
fn segment_rotation_under_real_workload() {
    let dir = temp_dir("rotation");
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 5, Faults::none()).unwrap();
    // Enough instant transactions to exceed the default 256 KiB segment
    // limit would take a while; instead verify rotation via compaction
    // (which rotates) happening twice, then a full-fidelity recovery.
    run_workload(&mut node);
    node.compact().unwrap();
    run_workload(&mut node);
    let second = node.compact().unwrap();
    assert!(node.wal_segment() == Some(second));
    run_workload(&mut node);
    let expected = node.export_state();
    drop(node);
    let recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(recovered.export_state(), expected);
    // Recovery is deterministic: a second independent recovery is
    // identical block-for-block.
    let again = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_identical(&recovered, &again);
    std::fs::remove_dir_all(&dir).ok();
}

/// Superinstruction satellite: WAL recovery rebuilds the per-account
/// compiled artifacts from the recovered code, never resurrecting a stale
/// one. The metamorphic CREATE2 harness changes the code at a fixed
/// address mid-history; after each crash/recover the compiled path must
/// execute the FINAL incarnation's blocks.
#[test]
fn recovery_rebuilds_compiled_artifacts_for_final_code() {
    let dir = temp_dir("superinstr");
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 3, Faults::none()).unwrap();
    let from = node.accounts()[0];
    let factory = node
        .send_transaction(Transaction::deploy(from, init_for(&factory_runtime())))
        .unwrap()
        .contract_address
        .unwrap();
    set_template(&mut node, from, factory, 0x11);
    let child = deploy_child(&mut node, from, factory);
    assert_eq!(read_constant(&mut node, from, child), 0x11);
    drop(node); // crash 1: v1 live, its compiled blocks warm

    let mut node = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(
        read_constant(&mut node, from, child),
        0x11,
        "recovered node must compile the recovered code"
    );

    // Upgrade on the recovered node: destroy, retarget, CREATE2 again —
    // same address, new runtime.
    destroy_child(&mut node, from, child);
    set_template(&mut node, from, factory, 0x22);
    let reborn = deploy_child(&mut node, from, factory);
    assert_eq!(child, reborn, "CREATE2 redeploy must reuse the address");
    assert_eq!(read_constant(&mut node, from, child), 0x22);
    drop(node); // crash 2: after the upgrade

    let mut node = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(node.code(child).as_slice(), &child_runtime(0x22));
    assert_eq!(
        read_constant(&mut node, from, child),
        0x22,
        "recovery resurrected a stale compiled artifact"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_nodes_refuse_to_revert() {
    // A revert is not a logged intent: were it allowed, a restart would
    // replay the reverted blocks and serve another chain than the one
    // acknowledged. A durable node refuses it instead.
    let dir = temp_dir("revert");
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 3, Faults::none()).unwrap();
    let [a, b] = [node.accounts()[0], node.accounts()[1]];
    let snap = node.snapshot();
    node.send_transaction(
        Transaction::call(a, b, vec![])
            .with_value(U256::from_u64(3))
            .with_gas(21_000),
    )
    .unwrap();
    assert!(!node.revert_to_snapshot(snap), "durable revert refused");
    let (height, root) = (node.block_number(), node.state_root());
    assert_eq!(height, 1);
    drop(node);

    let mut recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(
        (recovered.block_number(), recovered.state_root()),
        (height, root),
        "the restarted node serves the acknowledged chain"
    );
    std::fs::remove_dir_all(&dir).ok();
}
