//! Crash-recovery property test for the durable stack: run a random
//! landlord/tenant workload (deploys, rent payments, version
//! migrations, clock warps, batch mining, log compaction) against a
//! durable node, then — for **every** crash point the clean run
//! enumerates (each WAL write, each fsync, each snapshot rename, plus a
//! short-write variant of every write) — re-run the same workload with
//! that exact fault injected, recover from disk, and assert the
//! recovered chain equals the committed prefix bit-identically: block
//! hashes, receipts, storage, clock and pending queue. No committed
//! block may be lost; no uncommitted transaction may become visible.

use lsc_abi::AbiValue;
use lsc_app::{AppError, RentalApp};
use lsc_chain::wal::{FaultPlan, Faults};
use lsc_chain::{ChainConfig, LocalNode, TxError};
use lsc_core::{contracts, CoreError};
use lsc_ipfs::IpfsNode;
use lsc_primitives::{ether, Address, U256};
use lsc_solc::Artifact;
use lsc_web3::{Web3, Web3Error};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One scripted workload step. Index arguments pick among the contracts
/// deployed so far (modulo), so every generated script is executable.
#[derive(Debug, Clone, Copy)]
enum Op {
    Deploy,
    Confirm(usize),
    Pay(usize),
    QueuePay(usize),
    /// Drain the app-side rent queue: one group-committed WAL batch
    /// (N appends, ONE fsync) followed by a mined block. Crash points
    /// between the batch's appends and its fsync are enumerated like any
    /// other write/fsync, and recovery must see no partial batch.
    RentDay,
    Mine,
    Warp(u64),
    Modify(usize),
    Compact,
}

fn artifacts() -> &'static (Artifact, Artifact) {
    static CACHE: OnceLock<(Artifact, Artifact)> = OnceLock::new();
    CACHE.get_or_init(|| {
        (
            contracts::compile_base_rental().expect("base contract compiles"),
            contracts::compile_rental_agreement().expect("v2 contract compiles"),
        )
    })
}

fn fresh_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lsc-recovery-prop-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn is_durability(error: &AppError) -> bool {
    matches!(
        error,
        AppError::Core(CoreError::Web3(Web3Error::Tx(TxError::Durability(_))))
    )
}

fn is_durability_web3(error: &Web3Error) -> bool {
    matches!(error, Web3Error::Tx(TxError::Durability(_)))
}

fn open_app(dir: &Path, faults: Faults) -> (RentalApp, Web3) {
    let node = LocalNode::open(dir, ChainConfig::default(), 3, faults).expect("durable node opens");
    let web3 = Web3::new(node);
    let app = RentalApp::recover(web3.clone(), IpfsNode::new()).expect("app recovers");
    (app, web3)
}

/// Run the scripted workload. Returns `false` when a durability failure
/// stopped it (the node is poisoned; nothing after the failure applied).
/// Business-rule rejections (confirming twice, paying before confirming…)
/// are deterministic, identical in every run, and simply skipped.
fn run_workload(app: &RentalApp, web3: &Web3, ops: &[Op]) -> bool {
    macro_rules! step {
        ($r:expr) => {
            match $r {
                Ok(_) => {}
                Err(e) if is_durability(&e) => return false,
                Err(_) => {}
            }
        };
    }
    let (base, v2) = artifacts();
    let accounts = web3.accounts();
    step!(app.register("landlady", "l@x", "pw", accounts[0]));
    step!(app.register("tenant", "t@x", "pw", accounts[1]));
    let Ok(landlord) = app.login("landlady", "pw") else {
        return false;
    };
    let Ok(tenant) = app.login("tenant", "pw") else {
        return false;
    };
    step!(app.upload_contract(
        landlord,
        "Base rental",
        base.bytecode.clone(),
        &base.abi.to_json()
    ));
    step!(app.upload_contract(
        landlord,
        "Rental v2",
        v2.bytecode.clone(),
        &v2.abi.to_json()
    ));

    let mut deployed: Vec<Address> = Vec::new();
    let pick = |deployed: &Vec<Address>, i: usize| deployed[i % deployed.len()];
    for op in ops {
        match *op {
            Op::Deploy => match app.deploy_contract(
                landlord,
                0,
                &[
                    AbiValue::Uint(ether(1)),
                    AbiValue::string("10001-42 Main St"),
                    AbiValue::uint(31_536_000),
                ],
                U256::ZERO,
            ) {
                Ok(address) => deployed.push(address),
                Err(e) if is_durability(&e) => return false,
                Err(_) => {}
            },
            Op::Confirm(i) if !deployed.is_empty() => {
                step!(app.confirm_agreement(tenant, pick(&deployed, i)));
            }
            Op::Pay(i) if !deployed.is_empty() => {
                step!(app.pay_rent(tenant, pick(&deployed, i)));
            }
            Op::QueuePay(i) if !deployed.is_empty() => {
                step!(app.queue_rent_payment(tenant, pick(&deployed, i)));
            }
            Op::RentDay => match app.try_run_rent_day() {
                Err(e) if is_durability(&e) => return false,
                _ => {}
            },
            Op::Mine => match web3.try_mine_block() {
                Err(e) if is_durability_web3(&e) => return false,
                _ => {}
            },
            Op::Warp(seconds) => match web3.try_increase_time(seconds) {
                Err(e) if is_durability_web3(&e) => return false,
                _ => {}
            },
            Op::Modify(i) if !deployed.is_empty() => {
                match app.modify_contract(
                    landlord,
                    pick(&deployed, i),
                    1,
                    &[
                        AbiValue::Uint(ether(1)),
                        AbiValue::Uint(ether(2)),
                        AbiValue::uint(31_536_000),
                        AbiValue::Uint(U256::ZERO),
                        AbiValue::Uint(ether(2) / U256::from_u64(4)),
                        AbiValue::string("10001-42 Main St"),
                    ],
                    &[],
                ) {
                    Ok(address) => deployed.push(address),
                    Err(e) if is_durability(&e) => return false,
                    Err(_) => {}
                }
            }
            // A compaction that dies mid-way (its fault is swallowed here)
            // must leave the log fully recoverable — the workload keeps
            // going and the final recovery check still has to hold.
            Op::Compact => {
                let _ = web3.with_node(lsc_chain::LocalNode::compact);
            }
            _ => {}
        }
    }
    true
}

/// History chunk files in a data dir, ascending.
fn history_chunks(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("data dir")
        .filter_map(Result::ok)
        .filter_map(|entry| entry.file_name().to_str().map(String::from))
        .filter(|name| name.starts_with("history-") && name.ends_with(".json"))
        .collect();
    names.sort();
    names
}

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        Just(Op::Deploy),
        (0usize..3).prop_map(Op::Confirm),
        (0usize..3).prop_map(Op::Pay),
        (0usize..3).prop_map(Op::QueuePay),
        Just(Op::RentDay),
        Just(Op::Mine),
        (1u64..100_000).prop_map(Op::Warp),
        (0usize..3).prop_map(Op::Modify),
        Just(Op::Compact),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn every_crash_point_recovers_exactly_the_committed_prefix(
        ops in proptest::collection::vec(op_strategy(), 3..8)
    ) {
        prop_assert!(
            lsc_chain::fault_injection_enabled(),
            "this test requires the fault-injection feature"
        );

        // Every run ends with two compactions, each followed by one more
        // block, so the enumerated crash-point set always holds the
        // paged state store's persist sequence (page appends, the page
        // fsync, the `state.root` tmp-write/fsync/rename) and the write,
        // fsync and rename of a history chunk appended to an existing
        // series. A crash between the snapshot rename and the root-file
        // flip must recover bit-identically via the rebuild fallback; a
        // crash between a chunk's rename and its image's rename, from
        // the previous image plus the log.
        let mut ops = ops;
        ops.extend([Op::Compact, Op::Mine, Op::Compact, Op::Mine]);

        // Clean run: executes the whole workload and — via the shared
        // fault handle's counters — enumerates every crash point it
        // touched.
        let clean_dir = fresh_dir();
        let clean_faults = Faults::none();
        let (clean_app, clean_web3) = open_app(&clean_dir, clean_faults.clone());
        prop_assert!(run_workload(&clean_app, &clean_web3, &ops));
        let counts = clean_faults.op_counts();
        let clean_export = clean_web3.with_node(|node| node.export_state());
        drop(clean_app);
        drop(clean_web3);
        prop_assert!(counts.writes > 0, "the workload must hit the log");
        prop_assert!(
            history_chunks(&clean_dir).len() >= 2,
            "the second compaction appends a chunk"
        );

        // A fault-free recovery reproduces the clean run exactly.
        let recovered = LocalNode::recover(&clean_dir, Faults::none()).expect("clean recovery");
        prop_assert_eq!(recovered.export_state(), clean_export);
        drop(recovered);
        std::fs::remove_dir_all(&clean_dir).ok();

        // Every enumerated crash point: fail the Nth write (and a
        // short-write variant of it), the Nth fsync, the Nth rename.
        let mut plans = Vec::new();
        for n in 1..=counts.writes {
            plans.push(FaultPlan { fail_write: Some(n), ..FaultPlan::default() });
            plans.push(FaultPlan { short_write: Some((n, 7)), ..FaultPlan::default() });
        }
        for n in 1..=counts.fsyncs {
            plans.push(FaultPlan { fail_fsync: Some(n), ..FaultPlan::default() });
        }
        for n in 1..=counts.renames {
            plans.push(FaultPlan { fail_rename: Some(n), ..FaultPlan::default() });
        }

        for plan in plans {
            let dir = fresh_dir();
            let (app, web3) = open_app(&dir, Faults::plan(plan.clone()));
            run_workload(&app, &web3, &ops);
            // Whether the fault poisoned the node mid-workload or was
            // swallowed by a compaction, the in-memory state now IS the
            // committed prefix: append-before-apply plus stop-on-error
            // guarantee it.
            let expected = web3.with_node(|node| node.export_state());
            let expected_blocks = web3.with_node(|node| {
                (0..=node.block_number())
                    .map(|n| node.block(n).expect("block exists").hash)
                    .collect::<Vec<_>>()
            });
            let expected_pending = web3.pending_count();
            drop(app);
            drop(web3);

            let recovered = LocalNode::recover(&dir, Faults::none())
                .unwrap_or_else(|e| panic!("recovery failed under {plan:?}: {e}"));
            // Bit-identical committed prefix: full image (accounts,
            // storage, receipts, clock)…
            prop_assert_eq!(
                recovered.export_state(),
                expected,
                "state mismatch under {:?}",
                plan.clone()
            );
            // …no committed block lost, hash for hash…
            let recovered_blocks: Vec<_> = (0..=recovered.block_number())
                .map(|n| recovered.block(n).expect("block exists").hash)
                .collect();
            prop_assert_eq!(recovered_blocks, expected_blocks, "blocks lost under {:?}", plan.clone());
            // …and no uncommitted transaction visible anywhere, including
            // the pending queue.
            prop_assert_eq!(recovered.pending_count(), expected_pending);

            // The app tier replays its committed events without error.
            let web3 = Web3::new(recovered);
            let app = RentalApp::recover(web3.clone(), IpfsNode::new());
            prop_assert!(app.is_ok(), "app replay failed under {:?}", plan);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Restart equivalence for the authenticated state store: recovering by
/// *adopting* the persisted trie pages and recovering by *rebuilding*
/// the trie from the imported world state (persisted root deleted) must
/// produce bit-identical nodes — same image, same block hashes, same
/// state root, and proofs generated by either verify against it.
#[test]
fn adopted_and_rebuilt_restarts_agree() {
    let ops = [
        Op::Deploy,
        Op::Confirm(0),
        Op::Pay(0),
        Op::Warp(40_000),
        Op::Compact,
        Op::Pay(0),
        Op::Mine,
    ];
    let dir = fresh_dir();
    let (app, web3) = open_app(&dir, Faults::none());
    assert!(run_workload(&app, &web3, &ops));
    let expected = web3.with_node(|node| node.export_state());
    let expected_root = web3.with_node(lsc_chain::LocalNode::state_root);
    drop(app);
    drop(web3);

    // Adoption path: `state.root` matches the newest snapshot's trie
    // root, so recovery walks the persisted pages instead of re-hashing.
    let mut adopted = LocalNode::recover(&dir, Faults::none()).expect("adopting recovery");
    assert_eq!(adopted.export_state(), expected);
    assert_eq!(adopted.state_root(), expected_root);
    let account = adopted.accounts()[0];
    let proof = adopted
        .proof(account, &[U256::ZERO, U256::from_u64(1)])
        .expect("proof over adopted trie");
    assert_eq!(proof.state_root, expected_root);
    assert!(lsc_chain::verify_proof(
        proof.state_root,
        lsc_chain::account_key(account),
        &proof.account_proof
    )
    .is_ok());
    drop(adopted);

    // Rebuild path: delete the persisted root — recovery must fall back
    // to the canonical from-scratch rebuild and land on the same root.
    std::fs::remove_file(dir.join("state.root")).expect("persisted root exists");
    let mut rebuilt = LocalNode::recover(&dir, Faults::none()).expect("rebuilding recovery");
    assert_eq!(rebuilt.export_state(), expected);
    assert_eq!(rebuilt.state_root(), expected_root);
    drop(rebuilt);

    // Paranoia: a torn page file must not break the rebuild either.
    let pages = dir.join("state.pages");
    if pages.exists() {
        let bytes = std::fs::read(&pages).unwrap();
        std::fs::write(&pages, &bytes[..bytes.len() / 2]).unwrap();
    }
    let mut torn = LocalNode::recover(&dir, Faults::none()).expect("recovery over torn pages");
    assert_eq!(torn.export_state(), expected);
    assert_eq!(torn.state_root(), expected_root);
    std::fs::remove_dir_all(&dir).ok();
}

/// The compaction layout across a restart: compact, restart, work,
/// compact again. The second compaction appends to the chunk series the
/// restarted node read back, and a further restart lands on the same
/// chain with the app tier's events intact.
#[test]
fn compaction_continues_its_history_across_a_restart() {
    let dir = fresh_dir();
    let (app, web3) = open_app(&dir, Faults::none());
    assert!(run_workload(
        &app,
        &web3,
        &[Op::Deploy, Op::Confirm(0), Op::Pay(0), Op::Compact]
    ));
    let first = history_chunks(&dir);
    assert_eq!(first.len(), 1, "{first:?}");
    drop(app);
    drop(web3);

    // Restart, more work (re-running the workload registers nothing new;
    // the rejections it meets are deterministic), compact again.
    let (app, web3) = open_app(&dir, Faults::none());
    assert!(run_workload(
        &app,
        &web3,
        &[
            Op::Pay(0),
            Op::Warp(40_000),
            Op::Pay(0),
            Op::Compact,
            Op::Mine
        ]
    ));
    let second = history_chunks(&dir);
    assert_eq!(second.len(), 2, "{second:?}");
    assert_eq!(second[0], first[0], "the first chunk is never rewritten");
    let expected = web3.with_node(|node| node.export_state());
    let expected_root = web3.with_node(LocalNode::state_root);
    let events = web3.with_node(|node| node.app_events().len());
    drop(app);
    drop(web3);

    let mut recovered = LocalNode::recover(&dir, Faults::none()).expect("recovery");
    assert_eq!(recovered.export_state(), expected);
    assert_eq!(recovered.state_root(), expected_root);
    assert_eq!(recovered.app_events().len(), events);
    let web3 = Web3::new(recovered);
    assert!(RentalApp::recover(web3.clone(), IpfsNode::new()).is_ok());
    drop(web3);
    std::fs::remove_dir_all(&dir).ok();
}
