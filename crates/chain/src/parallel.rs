//! Optimistic parallel block execution (Block-STM-lite).
//!
//! [`crate::node::LocalNode::mine_block`] executes every queued
//! transaction *speculatively* against the immutable block-start state,
//! in parallel, recording each transaction's read/write set with
//! `lsc-evm`'s [`RecordingHost`]. A sequential commit pass then walks the
//! transactions in submission order: a speculation whose reads are
//! untouched by earlier commits has its buffered writes applied verbatim;
//! anything else is re-executed against the committed state, which is
//! exactly what sequential mining would have seen at that point. The
//! mined block is therefore bit-identical to sequential execution
//! (property-tested in `tests/parallel_determinism.rs`), while
//! independent transactions pay no serialisation cost.
//!
//! Coinbase fees are deliberately excluded from the recorded write sets:
//! fee credits commute, so they are applied at commit time instead.
//! Any transaction that *observes* the coinbase account (balance or
//! existence) after an earlier transaction has committed is forced onto
//! the re-execution path, keeping GASPRICE/fee-sensitive contracts exact.

use crate::state::WorldState;
use crate::tx::{Receipt, Transaction, TxError};
use lsc_evm::{AccessKey, AccessSet, BlockEnv, Overlay, RecordingHost, SnapshotHost, StateView};
use lsc_primitives::{H256, U256};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The buffered result of speculatively executing one transaction.
pub(crate) struct SpecOutcome {
    /// Receipt (with block fields unset) or the validation error.
    pub result: Result<Receipt, TxError>,
    /// Everything the execution read and wrote.
    pub access: AccessSet,
    /// The field-level write overlay; `None` marks a self-destructed
    /// account.
    pub writes: Overlay,
    /// Gas fee owed to the coinbase, applied commutatively at commit.
    pub fee: U256,
}

/// Speculatively execute `tx` against `view` without touching it.
///
/// `view` is the node's live [`WorldState`] (in-lock mining) or a
/// published [`crate::mvcc::CommittedSnapshot`] (the pipelined producer's
/// lock-free stage A). The two are equal at a given state epoch — every
/// committed mutation publishes before its entry point returns — so
/// speculation outcomes are interchangeable between them.
///
/// Runs [`Transaction::execute`], the same routine the sequential
/// executor runs, so a conflict-free speculation is indistinguishable
/// from a sequential run. A validation failure wrote nothing, but its
/// recorded *reads* still matter: the error itself (wrong nonce, poor
/// balance) must be revalidated if an earlier transaction touched them.
pub(crate) fn speculate<V: StateView + Sync>(
    view: &V,
    env: &BlockEnv,
    block_gas_limit: u64,
    recent_hashes: &[(u64, H256)],
    tx: &Transaction,
) -> SpecOutcome {
    let mut host = RecordingHost::new(SnapshotHost::new(view, env, tx.gas_price, recent_hashes));
    let executed = tx.execute(&mut host, block_gas_limit);
    let (host, access) = host.into_parts();
    let (writes, logs) = host.into_writes();
    let (result, fee) = match executed {
        Ok((mut receipt, fee)) => {
            receipt.logs = logs;
            (Ok(receipt), fee)
        }
        Err(error) => (Err(error), U256::ZERO),
    };
    SpecOutcome {
        result,
        access,
        writes,
        fee,
    }
}

/// Speculate every transaction concurrently against the same base state.
/// Results come back in input order.
pub(crate) fn speculate_batch<V: StateView + Sync>(
    state: &V,
    env: &BlockEnv,
    block_gas_limit: u64,
    recent_hashes: &[(u64, H256)],
    txs: &[Transaction],
    workers: usize,
) -> Vec<SpecOutcome> {
    let workers = workers.min(txs.len()).max(1);
    if workers == 1 {
        return txs
            .iter()
            .map(|tx| speculate(state, env, block_gas_limit, recent_hashes, tx))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<SpecOutcome>>> = txs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= txs.len() {
                    break;
                }
                let outcome = speculate(state, env, block_gas_limit, recent_hashes, &txs[index]);
                *slots[index].lock().expect("no poisoned speculation slot") = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no poisoned speculation slot")
                .expect("every index claimed by a worker")
        })
        .collect()
}

/// Apply a validated speculation's buffered writes to the world state.
///
/// The overlay is field-level — it holds exactly what the transaction
/// wrote and did not roll back, every entry under a key of the recorded
/// write set — so state written by *earlier commits* on fields this
/// transaction never touched survives. A self-destructed account is the
/// exception: it is wiped first (and, if resurrected, rebuilt from the
/// overlay alone), which is sound because selfdestruct also *reads*
/// `StorageAll` and therefore conflicts with any earlier per-slot write
/// (see `RecordingHost::selfdestruct`).
pub(crate) fn apply_writes(state: &mut WorldState, access: &AccessSet, writes: &Overlay) {
    let wrote = |key: AccessKey| access.writes.contains(&key);
    for (&address, entry) in writes {
        if entry.as_ref().is_none_or(|written| written.erased) {
            debug_assert!(wrote(AccessKey::StorageAll(address)));
            state.destroy_account(address);
        }
        let Some(written) = entry else { continue };
        state.create_account(address);
        if let Some(balance) = written.balance {
            debug_assert!(wrote(AccessKey::Balance(address)));
            state.set_balance(address, balance);
        }
        if let Some(nonce) = written.nonce {
            debug_assert!(wrote(AccessKey::Nonce(address)));
            state.set_nonce(address, nonce);
        }
        if let Some(code) = &written.code {
            debug_assert!(wrote(AccessKey::Code(address)));
            // Share the blob and its analysis instead of copying the
            // bytecode and re-analyzing it after commit.
            state.install_code(address, Arc::clone(code), written.analysis());
        }
        for (&slot, &value) in &written.storage {
            debug_assert!(wrote(AccessKey::Storage(address, slot)));
            state.set_storage(address, slot, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsc_evm::asm::Asm;
    use lsc_evm::opcode::op;
    use lsc_primitives::Address;

    fn addr(label: &str) -> Address {
        Address::from_label(label)
    }

    fn funded_state(pairs: &[(&str, u64)]) -> WorldState {
        let mut state = WorldState::new();
        for (label, wei) in pairs {
            state.credit(addr(label), U256::from_u64(*wei));
        }
        state.commit();
        state
    }

    fn transfer_tx(from: &str, to: &str, wei: u64) -> Transaction {
        let mut tx = Transaction::call(addr(from), addr(to), vec![])
            .with_value(U256::from_u64(wei))
            .with_gas(50_000);
        tx.gas_price = U256::from_u64(1);
        tx
    }

    #[test]
    fn speculation_leaves_base_untouched() {
        let state = funded_state(&[("alice", 1_000_000)]);
        let env = BlockEnv::default();
        let tx = transfer_tx("alice", "bob", 7);
        let outcome = speculate(&state, &env, 30_000_000, &[], &tx);
        assert!(outcome.result.is_ok());
        assert_eq!(state.balance(addr("bob")), U256::ZERO);
        assert!(outcome.writes.contains_key(&addr("bob")));
        assert!(outcome
            .access
            .writes
            .contains(&AccessKey::Balance(addr("alice"))));
    }

    #[test]
    fn apply_writes_matches_direct_execution() {
        let state = funded_state(&[("alice", 1_000_000)]);
        let env = BlockEnv::default();
        let tx = transfer_tx("alice", "bob", 7);
        let outcome = speculate(&state, &env, 30_000_000, &[], &tx);
        let mut committed = funded_state(&[("alice", 1_000_000)]);
        apply_writes(&mut committed, &outcome.access, &outcome.writes);
        committed.commit();
        assert_eq!(committed.balance(addr("bob")), U256::from_u64(7));
        let receipt = outcome.result.expect("transfer succeeds");
        let spent = U256::from_u64(7) + U256::from(receipt.gas_used) * tx.gas_price;
        assert_eq!(
            committed.balance(addr("alice")),
            U256::from_u64(1_000_000) - spent
        );
        assert_eq!(committed.nonce(addr("alice")), 1);
    }

    #[test]
    fn independent_writes_do_not_conflict() {
        let state = funded_state(&[("alice", 1_000_000), ("carol", 1_000_000)]);
        let env = BlockEnv::default();
        let tx1 = transfer_tx("alice", "bob", 5);
        let tx2 = transfer_tx("carol", "dave", 5);
        let o1 = speculate(&state, &env, 30_000_000, &[], &tx1);
        let o2 = speculate(&state, &env, 30_000_000, &[], &tx2);
        assert!(!o2.access.reads_conflict_with(&o1.access.writes));
    }

    #[test]
    fn dependent_transfer_conflicts() {
        let state = funded_state(&[("alice", 1_000_000), ("carol", 1_000_000)]);
        let env = BlockEnv::default();
        let tx1 = transfer_tx("alice", "bob", 5);
        let tx2 = transfer_tx("carol", "bob", 5);
        let o1 = speculate(&state, &env, 30_000_000, &[], &tx1);
        let o2 = speculate(&state, &env, 30_000_000, &[], &tx2);
        // Both credit bob: tx2 read bob's balance, tx1 wrote it.
        assert!(o2.access.reads_conflict_with(&o1.access.writes));
    }

    #[test]
    fn storage_contention_is_detected() {
        // Runtime bytecode: storage[0] += 1.
        let mut asm = Asm::new();
        asm.push_u64(0)
            .op(op::SLOAD)
            .push_u64(1)
            .op(op::ADD)
            .push_u64(0)
            .op(op::SSTORE)
            .op(op::STOP);
        let runtime = asm.assemble().expect("valid asm");
        let counter = addr("counter");
        let mut state = funded_state(&[("alice", 10_000_000), ("carol", 10_000_000)]);
        state.set_code(counter, runtime);
        state.commit();

        let env = BlockEnv::default();
        let mut tx1 = Transaction::call(addr("alice"), counter, vec![]).with_gas(200_000);
        tx1.gas_price = U256::from_u64(1);
        let mut tx2 = Transaction::call(addr("carol"), counter, vec![]).with_gas(200_000);
        tx2.gas_price = U256::from_u64(1);
        let o1 = speculate(&state, &env, 30_000_000, &[], &tx1);
        let o2 = speculate(&state, &env, 30_000_000, &[], &tx2);
        let r1 = o1.result.as_ref().expect("tx1 ok");
        assert_eq!(r1.status, 1);
        assert!(o2.access.reads_conflict_with(&o1.access.writes));
        assert!(o2
            .access
            .reads
            .contains(&AccessKey::Storage(counter, U256::ZERO)));
    }

    #[test]
    fn speculated_error_records_its_reads() {
        let state = funded_state(&[("poor", 10)]);
        let env = BlockEnv::default();
        let tx = transfer_tx("poor", "bob", 1_000_000);
        let outcome = speculate(&state, &env, 30_000_000, &[], &tx);
        assert!(matches!(outcome.result, Err(TxError::InsufficientFunds)));
        assert!(outcome.writes.is_empty());
        assert!(outcome
            .access
            .reads
            .contains(&AccessKey::Balance(addr("poor"))));
    }

    #[test]
    fn batch_returns_outcomes_in_order() {
        let state = funded_state(&[("alice", 1_000_000), ("carol", 1_000_000)]);
        let env = BlockEnv::default();
        let txs = vec![
            transfer_tx("alice", "bob", 1),
            transfer_tx("carol", "dave", 2),
        ];
        let outcomes = speculate_batch(&state, &env, 30_000_000, &[], &txs, 4);
        assert_eq!(outcomes.len(), 2);
        let r0 = outcomes[0].result.as_ref().expect("tx0 ok");
        assert_eq!(r0.tx_hash, txs[0].hash(0));
    }
}
