//! Property tests for the checksummed chain image: `export_state` →
//! `import_state` is an identity on arbitrary reachable states —
//! accounts, contract storage (including version-pointer-style address
//! links), full block history, receipts, the chain clock and the pending
//! queue — and a corrupted image (truncated anywhere, or any bit
//! flipped) is rejected with an error *without* touching the node.

use lsc_chain::{LocalNode, Transaction};
use lsc_primitives::{Address, U256};
use proptest::prelude::*;

const N_ACCOUNTS: usize = 4;

/// Init code: PUSH1 value; PUSH1 slot; SSTORE; PUSH1 0; PUSH1 0; LOG0;
/// PUSH1 0; PUSH1 0; RETURN — one storage write and one (empty) log.
fn storing_init_code(value: u8, slot: u8) -> Vec<u8> {
    vec![
        0x60, value, 0x60, slot, 0x55, 0x60, 0x00, 0x60, 0x00, 0xa0, 0x60, 0x00, 0x60, 0x00, 0xf3,
    ]
}

/// Init code that stores a 20-byte address at slot 1 — the storage shape
/// of the paper's version-pointer links (`setNext`/`setPrev`).
fn linking_init_code(target: Address) -> Vec<u8> {
    let mut code = vec![0x73]; // PUSH20
    code.extend_from_slice(target.as_bytes());
    code.extend_from_slice(&[0x60, 0x01, 0x55, 0x60, 0x00, 0x60, 0x00, 0xf3]);
    code
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Transfer(usize, usize, u64),
    DeployStore(u8, u8),
    /// Deploy a contract whose storage points at an earlier deployment.
    DeployLink(usize),
    Faucet(u64, u64),
    Submit(usize, usize, u64),
    Mine,
    Warp(u64),
}

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        (0usize..N_ACCOUNTS, 0usize..N_ACCOUNTS, 1u64..9000)
            .prop_map(|(f, t, v)| Op::Transfer(f, t, v)),
        (1u8..200, 0u8..6).prop_map(|(v, s)| Op::DeployStore(v, s)),
        (0usize..4).prop_map(Op::DeployLink),
        (0u64..5, 1u64..1_000_000).prop_map(|(l, v)| Op::Faucet(l, v)),
        (0usize..N_ACCOUNTS, 0usize..N_ACCOUNTS, 1u64..9000)
            .prop_map(|(f, t, v)| Op::Submit(f, t, v)),
        Just(Op::Mine),
        (1u64..1_000_000).prop_map(Op::Warp),
    ]
    .boxed()
}

/// Drive a node into an arbitrary reachable state.
fn apply_ops(node: &mut LocalNode, ops: &[Op]) {
    let accounts: Vec<Address> = node.accounts().to_vec();
    let mut deployed: Vec<Address> = Vec::new();
    for op in ops {
        match *op {
            Op::Transfer(f, t, v) => {
                let _ = node.send_transaction(
                    Transaction::call(accounts[f], accounts[t], vec![])
                        .with_value(U256::from_u64(v))
                        .with_gas(21_000),
                );
            }
            Op::DeployStore(value, slot) => {
                if let Ok(receipt) = node.send_transaction(Transaction::deploy(
                    accounts[0],
                    storing_init_code(value, slot),
                )) {
                    deployed.extend(receipt.contract_address);
                }
            }
            Op::DeployLink(i) if !deployed.is_empty() => {
                let target = deployed[i % deployed.len()];
                if let Ok(receipt) = node
                    .send_transaction(Transaction::deploy(accounts[1], linking_init_code(target)))
                {
                    deployed.extend(receipt.contract_address);
                }
            }
            Op::Faucet(label, value) => {
                node.faucet(
                    Address::from_label(&format!("grant-{label}")),
                    U256::from_u64(value),
                );
            }
            Op::Submit(f, t, v) => {
                node.submit_transaction(
                    Transaction::call(accounts[f], accounts[t], vec![])
                        .with_value(U256::from_u64(v)),
                );
            }
            Op::Mine => {
                let _ = node.mine_block();
            }
            Op::Warp(seconds) => node.increase_time(seconds),
            _ => {}
        }
    }
    // Always leave something in the pending queue — the image must carry
    // it (and re-importing must not execute it).
    node.submit_transaction(
        Transaction::call(accounts[0], accounts[1], vec![]).with_value(U256::from_u64(1)),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn export_import_is_an_identity_on_reachable_states(
        ops in proptest::collection::vec(op_strategy(), 0..14)
    ) {
        let mut node = LocalNode::new(N_ACCOUNTS);
        apply_ops(&mut node, &ops);
        let image = node.export_state();

        let mut fresh = LocalNode::new(N_ACCOUNTS);
        fresh.import_state(&image).expect("a self-exported image imports");

        // Identity: the re-export is byte-for-byte the same image.
        prop_assert_eq!(&fresh.export_state(), &image);
        // And the interesting pieces explicitly: history, receipts' home
        // blocks, clock and pending queue.
        prop_assert_eq!(fresh.block_number(), node.block_number());
        prop_assert_eq!(fresh.timestamp(), node.timestamp());
        prop_assert_eq!(fresh.pending_count(), node.pending_count());
        for n in 0..=node.block_number() {
            prop_assert_eq!(
                fresh.block(n).expect("block").hash,
                node.block(n).expect("block").hash
            );
        }

        // An importer with a history of its own has it replaced
        // wholesale (deploy values the op strategy never generates, so
        // the two chains share no block): nothing of the old history is
        // left in any index, on the node or on the snapshot it publishes.
        let mut busy = LocalNode::new(N_ACCOUNTS);
        let sender = busy.accounts()[0];
        for value in 250..253 {
            busy.send_transaction(Transaction::deploy(sender, storing_init_code(value, 0)))
                .expect("pre-import deploy");
        }
        let replaced: Vec<_> = (1..=3).map(|n| busy.block(n).unwrap().clone()).collect();
        busy.import_state(&image).expect("a self-exported image imports");
        let snap = busy.published_snapshot();
        for block in &replaced {
            prop_assert!(snap.block_by_hash(block.hash).is_none());
            prop_assert!(busy.block(block.number).is_none_or(|b| b.hash != block.hash));
            for tx_hash in &block.tx_hashes {
                prop_assert!(snap.receipt(*tx_hash).is_none());
                prop_assert!(busy.receipt(*tx_hash).is_none());
            }
        }
        let walked = busy.logs(0, u64::MAX, None, None);
        prop_assert!(walked.iter().all(|(number, _)| *number <= node.block_number()));
        prop_assert_eq!(&walked, &node.logs(0, u64::MAX, None, None));
        prop_assert_eq!(&snap.logs(0, u64::MAX, None, None), &walked);
        prop_assert_eq!(&snap.logs_scan(0, u64::MAX, None, None), &walked);
    }

    #[test]
    fn truncated_images_are_rejected_without_side_effects(
        ops in proptest::collection::vec(op_strategy(), 0..8),
        cut_num in 1usize..8
    ) {
        let mut node = LocalNode::new(N_ACCOUNTS);
        apply_ops(&mut node, &ops);
        let image = node.export_state();
        let cut = image.len() * cut_num / 8;

        let mut fresh = LocalNode::new(N_ACCOUNTS);
        let pristine = fresh.export_state();
        prop_assert!(fresh.import_state(&image[..cut]).is_err());
        // Validation happens before any mutation: the node is untouched.
        prop_assert_eq!(fresh.export_state(), pristine);
    }

    #[test]
    fn bit_flipped_images_are_rejected_without_side_effects(
        ops in proptest::collection::vec(op_strategy(), 0..8),
        position in 0usize..10_000
    ) {
        let mut node = LocalNode::new(N_ACCOUNTS);
        apply_ops(&mut node, &ops);
        let image = node.export_state();

        let mut bytes = image.clone().into_bytes();
        let at = position % bytes.len();
        bytes[at] ^= 0x01;
        let corrupted = String::from_utf8_lossy(&bytes).into_owned();

        let mut fresh = LocalNode::new(N_ACCOUNTS);
        let pristine = fresh.export_state();
        prop_assert!(
            fresh.import_state(&corrupted).is_err(),
            "flip at byte {} must be caught",
            at
        );
        prop_assert_eq!(fresh.export_state(), pristine);
    }
}

/// An import is one committed mutation, so it is one publication: a
/// subscriber wakes once, and no reader can catch the imported accounts
/// over the history they do not belong to. (The sequence number counts
/// every publication, seen or not, so this needs no racing watcher.)
#[test]
fn import_publishes_exactly_once() {
    let mut source = LocalNode::new(N_ACCOUNTS);
    apply_ops(
        &mut source,
        &[
            Op::DeployStore(7, 1),
            Op::DeployLink(0),
            Op::Transfer(0, 1, 500),
            Op::Faucet(1, 99),
            Op::Warp(60),
        ],
    );
    let image = source.export_state();

    let mut target = LocalNode::new(N_ACCOUNTS);
    apply_ops(&mut target, &[Op::Transfer(2, 3, 42)]);
    let accounts: Vec<Address> = target.accounts().to_vec();
    let handle = target.read_handle();
    let (seq, old) = (handle.publication_seq(), handle.snapshot());
    let old_balances: Vec<U256> = accounts.iter().map(|a| old.balance(*a)).collect();
    assert_ne!(old.block_number(), source.block_number());

    target.import_state(&image).unwrap();

    assert_eq!(handle.publication_seq(), seq + 1, "publications per import");
    // That one publication carries imported state and imported history
    // together…
    let new = handle.snapshot();
    assert_eq!(new.block_number(), source.block_number());
    assert_eq!(new.timestamp(), source.timestamp());
    for account in &accounts {
        assert_eq!(new.balance(*account), source.balance(*account));
    }
    assert_eq!(
        new.balance(Address::from_label("grant-1")),
        U256::from_u64(99)
    );
    // …and the snapshot a reader held from before still reads as before.
    assert_eq!(old.block_number(), 1);
    for (account, balance) in accounts.iter().zip(old_balances) {
        assert_eq!(old.balance(*account), balance);
    }
    assert_eq!(old.balance(Address::from_label("grant-1")), U256::ZERO);
}
