//! Differential property tests for the authenticated state layer.
//!
//! Three oracles pin the trie down:
//!
//! * a plain `BTreeMap` model — every `get` after every op must agree;
//! * canonicity — the root is a pure function of the final key→value
//!   map, independent of operation order and of intermediate churn;
//! * scratch-vs-incremental — folding per-block dirt into a live
//!   [`StateTrie`] lands on the bit-identical root a from-scratch
//!   rebuild of the same world state produces (this is the invariant
//!   recovery relies on to adopt or rebuild interchangeably);
//! * exact release — at every sync point the store's in-memory overlay
//!   holds the live nodes that are not in pages, each counted once per
//!   position, and nothing else: no node freed early, none leaked.

use lsc_chain::state::TrieDirt;
use lsc_chain::wal::Faults;
use lsc_chain::{
    account_key, decode_account, decode_slot_value, storage_key, verify_proof, MemNodes,
    StateStore, StateTrie, Trie, WorldState,
};
use lsc_primitives::{Address, FxHashMap, H256, U256};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn key(n: u8) -> H256 {
    H256::keccak([n])
}

#[derive(Debug, Clone, Copy)]
enum MapOp {
    Insert(u8, u64),
    Remove(u8),
}

fn map_op() -> BoxedStrategy<MapOp> {
    prop_oneof![
        (0u8..40, 0u64..1_000_000).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (0u8..40).prop_map(MapOp::Remove),
    ]
    .boxed()
}

/// Build a trie holding exactly `map`, inserting in the given order.
fn trie_of<'a>(entries: impl Iterator<Item = (&'a u8, &'a u64)>) -> (Trie, MemNodes) {
    let mut store = MemNodes::new();
    let mut trie = Trie::empty();
    for (k, v) in entries {
        trie.insert(&mut store, key(*k), &v.to_be_bytes()).unwrap();
    }
    (trie, store)
}

#[derive(Debug, Clone, Copy)]
enum StateOp {
    Credit(u8, u64),
    SetNonce(u8, u64),
    SetStorage(u8, u8, u64),
    SetCode(u8, u8),
    Destroy(u8),
    /// Give the second account exactly the first one's storage: their
    /// storage tries become one set of nodes held from two places.
    Mirror(u8, u8),
    /// Commit the journal and fold the dirt into the live trie.
    Sync,
    /// Sync, then move the trie to pages (a no-op on an in-memory store).
    Persist,
}

fn state_op() -> BoxedStrategy<StateOp> {
    prop_oneof![
        (0u8..6, 1u64..1_000_000).prop_map(|(a, v)| StateOp::Credit(a, v)),
        (0u8..6, 0u64..50).prop_map(|(a, n)| StateOp::SetNonce(a, n)),
        (0u8..6, 0u8..8, 0u64..1000).prop_map(|(a, s, v)| StateOp::SetStorage(a, s, v)),
        (0u8..6, 1u8..200).prop_map(|(a, b)| StateOp::SetCode(a, b)),
        (0u8..6).prop_map(StateOp::Destroy),
        (0u8..6, 0u8..6).prop_map(|(a, b)| StateOp::Mirror(a, b)),
        Just(StateOp::Sync),
        Just(StateOp::Sync),
        Just(StateOp::Persist),
    ]
    .boxed()
}

fn addr(n: u8) -> Address {
    Address::from_label(&format!("acct-{n}"))
}

/// A fresh directory for one disk-backed case.
fn scratch_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lsc-trie-diff-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn apply_state_op(state: &mut WorldState, op: StateOp) {
    let slot = |s: u8| U256::from_u64(u64::from(s));
    match op {
        StateOp::Credit(a, v) => state.credit(addr(a), U256::from_u64(v)),
        StateOp::SetNonce(a, n) => state.set_nonce(addr(a), n),
        StateOp::SetStorage(a, s, v) => {
            // Storage on a non-existent account is meaningless;
            // make sure it exists first (as the EVM would).
            state.create_account(addr(a));
            state.set_storage(addr(a), slot(s), U256::from_u64(v));
        }
        StateOp::SetCode(a, b) => {
            state.create_account(addr(a));
            state.set_code(addr(a), vec![b; 4]);
        }
        StateOp::Destroy(a) => state.destroy_account(addr(a)),
        StateOp::Mirror(from, to) => {
            state.create_account(addr(to));
            for s in 0u8..8 {
                let value = state.storage(addr(from), slot(s));
                state.set_storage(addr(to), slot(s), value);
            }
        }
        StateOp::Sync | StateOp::Persist => {}
    }
    state.commit();
}

/// Fold `state`'s dirt into `trie` and hold it to both oracles: the
/// scratch rebuild's root, and an exact overlay.
fn sync_and_check(
    state: &mut WorldState,
    trie: &mut StateTrie,
    store: &mut StateStore,
) -> Result<(), proptest::TestCaseError> {
    let dirt = state.take_trie_dirty();
    let incremental = trie.apply(store, state, &dirt).unwrap();
    let mut scratch_store = StateStore::in_memory();
    let scratch = StateTrie::rebuild_from(&mut scratch_store, state).unwrap();
    prop_assert_eq!(incremental, scratch.root());
    let live = trie.live_nodes(store).unwrap();
    prop_assert_eq!(store.check_overlay(&live), Ok(()));
    Ok(())
}

fn run_state_ops(ops: &[StateOp], mut store: StateStore) -> Result<(), proptest::TestCaseError> {
    let mut state = WorldState::new();
    let mut trie = StateTrie::new();
    for (step, op) in ops.iter().enumerate() {
        apply_state_op(&mut state, *op);
        if matches!(op, StateOp::Sync | StateOp::Persist) {
            sync_and_check(&mut state, &mut trie, &mut store)?;
        }
        if matches!(op, StateOp::Persist) {
            let live = trie.live_nodes(&mut store).unwrap();
            store.persist(trie.root(), step as u64, &live).unwrap();
            prop_assert_eq!(store.check_overlay(&live), Ok(()), "after persist");
        }
    }
    // Final sync: whatever dirt remains must fold to the scratch root.
    sync_and_check(&mut state, &mut trie, &mut store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The trie agrees with a plain map after every operation, and its
    /// final root is canonical: rebuilding the final map fresh — in
    /// ascending and in descending key order — reproduces it exactly.
    #[test]
    fn trie_matches_map_model_and_root_is_canonical(
        ops in proptest::collection::vec(map_op(), 0..60)
    ) {
        let mut store = MemNodes::new();
        let mut trie = Trie::empty();
        let mut model: BTreeMap<u8, u64> = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    trie.insert(&mut store, key(k), &v.to_be_bytes()).unwrap();
                    model.insert(k, v);
                }
                MapOp::Remove(k) => {
                    trie.remove(&mut store, key(k)).unwrap();
                    model.remove(&k);
                }
            }
            for k in 0u8..40 {
                prop_assert_eq!(
                    trie.get(&mut store, key(k)).unwrap(),
                    model.get(&k).map(|v| v.to_be_bytes().to_vec())
                );
            }
        }
        let (forward, _) = trie_of(model.iter());
        let (reverse, _) = trie_of(model.iter().rev());
        prop_assert_eq!(trie.root(), forward.root());
        prop_assert_eq!(trie.root(), reverse.root());
        prop_assert_eq!(trie.root() == H256::ZERO, model.is_empty());
    }

    /// Proofs generated for present and absent keys verify against the
    /// root, and any single-byte tamper is rejected.
    #[test]
    fn proofs_survive_the_model_and_reject_tampering(
        entries in proptest::collection::btree_map(0u8..40, 0u64..1_000_000, 1..20),
        probe in 0u8..50,
        flip in 0usize..1000,
    ) {
        let (trie, mut store) = trie_of(entries.iter());
        let root = trie.root();
        let proof = trie.prove(&mut store, key(probe)).unwrap();
        let verdict = verify_proof(root, key(probe), &proof).unwrap();
        prop_assert_eq!(verdict, entries.get(&probe).map(|v| v.to_be_bytes().to_vec()));
        // Flip one byte anywhere in the proof: it must no longer verify
        // as-is (either an error, or — never — a different value).
        let mut tampered = proof.clone();
        let total: usize = tampered.iter().map(Vec::len).sum();
        let mut at = flip % total;
        for node in &mut tampered {
            if at < node.len() {
                node[at] ^= 0x01;
                break;
            }
            at -= node.len();
        }
        prop_assert!(verify_proof(root, key(probe), &tampered).is_err());
    }

    /// Incremental dirt-folding and scratch rebuild agree on the root at
    /// every sync point, for arbitrary interleavings of account and
    /// storage mutations (including destroys, re-creations within one
    /// block and accounts with identical storage) — and the overlay is
    /// exact at each of them, in memory and over pages, across persists.
    #[test]
    fn incremental_apply_equals_scratch_rebuild(
        ops in proptest::collection::vec(state_op(), 0..40)
    ) {
        run_state_ops(&ops, StateStore::in_memory())?;
        let dir = scratch_dir();
        let outcome = run_state_ops(
            &ops,
            StateStore::open(&dir, lsc_chain::PAGE_SIZE, Faults::none()).unwrap(),
        );
        std::fs::remove_dir_all(&dir).ok();
        outcome?;
    }

    /// The two-level proof chain (account leaf → storage root → slot
    /// leaf) verifies offline for arbitrary states.
    #[test]
    fn account_and_storage_proof_chain_verifies(
        balances in proptest::collection::btree_map(0u8..5, 1u64..1_000_000, 1..5),
        slots in proptest::collection::btree_map(0u8..5, 1u64..1000, 1..6),
        target in 0u8..5,
    ) {
        let mut state = WorldState::new();
        for (a, v) in &balances {
            state.credit(addr(*a), U256::from_u64(*v));
        }
        for (s, v) in &slots {
            state.create_account(addr(target));
            state.set_storage(addr(target), U256::from_u64(u64::from(*s)), U256::from_u64(*v));
        }
        state.commit();
        let mut store = StateStore::in_memory();
        let mut trie = StateTrie::rebuild_from(&mut store, &state).unwrap();
        let root = trie.root();

        let account_proof = trie.prove_account(&mut store, addr(target)).unwrap();
        let leaf = verify_proof(root, account_key(addr(target)), &account_proof)
            .expect("account proof verifies");
        let Some(bytes) = leaf else {
            // Account untouched by both maps — absence is the honest answer.
            prop_assert!(!balances.contains_key(&target) && slots.is_empty());
            return Ok(());
        };
        let account = decode_account(&bytes).expect("account leaf decodes");
        prop_assert_eq!(account.balance, U256::from_u64(*balances.get(&target).unwrap_or(&0)));

        for (s, v) in &slots {
            let slot = U256::from_u64(u64::from(*s));
            let proof = trie.prove_storage(&mut store, addr(target), slot).unwrap();
            let value = verify_proof(account.storage_root, storage_key(slot), &proof)
                .expect("storage proof verifies")
                .and_then(|bytes| decode_slot_value(&bytes))
                .unwrap_or(U256::ZERO);
            prop_assert_eq!(value, U256::from_u64(*v));
        }
    }
}

/// Rebuilding from a `WorldState` that carries dirt marks must not
/// depend on the marks (regression guard: rebuild iterates accounts, not
/// dirt).
#[test]
fn rebuild_ignores_pending_dirt_marks() {
    let mut state = WorldState::new();
    state.credit(addr(1), U256::from_u64(10));
    state.commit();
    let mut s1 = StateStore::in_memory();
    let r1 = StateTrie::rebuild_from(&mut s1, &state).unwrap().root();
    // Drain the dirt and rebuild again: same state, same root.
    let drained: FxHashMap<Address, TrieDirt> = state.take_trie_dirty();
    assert!(!drained.is_empty());
    let mut s2 = StateStore::in_memory();
    let r2 = StateTrie::rebuild_from(&mut s2, &state).unwrap().root();
    assert_eq!(r1, r2);
}

/// The two cases a per-hash (rather than per-position) release gets
/// wrong, spelled out: storage shared node for node between accounts,
/// and an account destroyed and re-created inside one block.
#[test]
fn shared_and_recreated_storage_keep_the_overlay_exact() {
    let script = [
        StateOp::SetStorage(0, 1, 11),
        StateOp::SetStorage(0, 2, 22),
        StateOp::SetStorage(0, 3, 33),
        StateOp::Mirror(0, 1),
        StateOp::Sync,
        // One of the twins moves on; the other must keep every node.
        StateOp::SetStorage(0, 2, 99),
        StateOp::Sync,
        StateOp::Persist,
        // Twins again, now over pages; then one is destroyed outright…
        StateOp::Mirror(1, 0),
        StateOp::Sync,
        StateOp::Destroy(1),
        StateOp::Sync,
        // …and the other destroyed and re-created within one block,
        // with some of its old storage and some new.
        StateOp::Destroy(0),
        StateOp::SetStorage(0, 1, 11),
        StateOp::SetStorage(0, 7, 77),
        StateOp::Credit(0, 5),
        StateOp::Sync,
        StateOp::Persist,
        StateOp::Mirror(0, 2),
        StateOp::Destroy(0),
    ];
    run_state_ops(&script, StateStore::in_memory()).unwrap();
    let dir = scratch_dir();
    let store = StateStore::open(&dir, lsc_chain::PAGE_SIZE, Faults::none()).unwrap();
    let outcome = run_state_ops(&script, store);
    std::fs::remove_dir_all(&dir).ok();
    outcome.unwrap();
}
