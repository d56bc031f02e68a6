//! Compaction's on-disk layout: each compaction appends one history
//! chunk (`history-<wal_from>.json`) and publishes an image that lists
//! the chunks, stores each contract code once and holds no history of
//! its own. Recovery must land on the identical chain from that layout,
//! from the self-contained single-file image older compactions wrote,
//! and across a crash between a chunk's rename and its image's rename.

use lsc_abi::json::{self, JsonValue};
use lsc_chain::wal::{FaultPlan, Faults};
use lsc_chain::{fault_injection_enabled, ChainConfig, LocalNode, Transaction};
use lsc_primitives::{hex, keccak256, Address, U256};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[allow(dead_code)] // this binary uses two of the shared fixtures
mod common;
use common::{factory_runtime, init_for};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lsc-chunks-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn files(dir: &Path, prefix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().to_str().map(String::from))
        .filter(|n| n.starts_with(prefix) && n.ends_with(".json"))
        .collect();
    names.sort();
    names
}

fn transfer(node: &mut LocalNode, value: u64) {
    let [a, b] = [node.accounts()[0], node.accounts()[1]];
    node.send_transaction(
        Transaction::call(a, b, vec![])
            .with_value(U256::from_u64(value))
            .with_gas(21_000),
    )
    .unwrap();
}

/// Deploy the same contract `n` times; returns the addresses.
fn deploy_copies(node: &mut LocalNode, n: usize) -> Vec<Address> {
    let from = node.accounts()[0];
    (0..n)
        .map(|_| {
            node.send_transaction(Transaction::deploy(from, init_for(&factory_runtime())))
                .unwrap()
                .contract_address
                .unwrap()
        })
        .collect()
}

/// Height, state root and the full self-contained image of a node.
fn fingerprint(node: &mut LocalNode) -> (u64, lsc_primitives::H256, String) {
    (node.block_number(), node.state_root(), node.export_state())
}

fn state_of(image: &str) -> JsonValue {
    json::parse(image).unwrap().get("state").unwrap().clone()
}

#[test]
fn compactions_append_chunks_and_store_code_once() {
    let dir = temp_dir("append");
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 3, Faults::none()).unwrap();
    let contracts = deploy_copies(&mut node, 4);
    node.append_app_event("first").unwrap();
    let first = node.compact().unwrap();
    transfer(&mut node, 5);
    node.append_app_event("second").unwrap();
    let second = node.compact().unwrap();
    // Nothing new: the next image lists the same chunks, no chunk added.
    let third = node.compact().unwrap();
    assert_eq!(
        files(&dir, "history-"),
        [
            format!("history-{first:06}.json"),
            format!("history-{second:06}.json")
        ]
    );
    assert_eq!(
        files(&dir, "snapshot-"),
        [format!("snapshot-{third:06}.json")]
    );

    let image = std::fs::read_to_string(dir.join(format!("snapshot-{third:06}.json"))).unwrap();
    let state = state_of(&image);
    for inline in ["blocks", "receipts", "app_events"] {
        assert!(state.get(inline).is_none(), "image holds no {inline}");
    }
    assert_eq!(state.get("history").unwrap().as_array().unwrap().len(), 2);
    let Some(JsonValue::Object(codes)) = state.get("codes") else {
        panic!("image has a code table");
    };
    assert_eq!(
        codes.len(),
        1,
        "four copies of one contract, one code entry"
    );

    let expected = fingerprint(&mut node);
    drop(node);
    let mut recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(fingerprint(&mut recovered), expected);
    assert_eq!(recovered.app_events(), ["first", "second"]);
    // Accounts running the same code share one blob after recovery.
    let code = recovered.code(contracts[0]);
    assert!(!code.is_empty());
    for other in &contracts[1..] {
        assert!(std::sync::Arc::ptr_eq(&code, &recovered.code(*other)));
    }

    // The recovered node continues the same series.
    transfer(&mut recovered, 6);
    let fourth = recovered.compact().unwrap();
    assert_eq!(files(&dir, "history-").len(), 3);
    assert!(files(&dir, "history-").contains(&format!("history-{fourth:06}.json")));
    let expected = fingerprint(&mut recovered);
    drop(recovered);
    let mut again = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(fingerprint(&mut again), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_missing_or_altered_chunk_fails_the_image() {
    let dir = temp_dir("altered");
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 3, Faults::none()).unwrap();
    transfer(&mut node, 1);
    let first = node.compact().unwrap();
    transfer(&mut node, 2);
    node.compact().unwrap();
    drop(node);
    let chunk = dir.join(format!("history-{first:06}.json"));
    let text = std::fs::read_to_string(&chunk).unwrap();
    // Re-sealed with a valid checksum of its own, but not the listed one.
    let mut altered = json::parse(&text).unwrap().get("history").unwrap().clone();
    if let JsonValue::Object(fields) = &mut altered {
        fields.insert(
            "app_events".into(),
            JsonValue::Array(vec![JsonValue::String("forged".into())]),
        );
    }
    let body = altered.to_json();
    let resealed = format!(
        "{{\"checksum\":\"{}\",\"history\":{body}}}",
        hex::encode_prefixed(keccak256(body.as_bytes()))
    );
    std::fs::write(&chunk, resealed).unwrap();
    // The only snapshot fails, so recovery falls back to the log alone —
    // whose covered segments are pruned: a shorter chain, never a forged one.
    let recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert!(recovered.app_events().is_empty());
    assert!(recovered.block_number() < 2);
    std::fs::remove_file(&chunk).unwrap();
    let recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert!(recovered.block_number() < 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrite a compaction image in the self-contained single-file format
/// compaction wrote before history chunks: `export_state`'s document
/// plus the `wal_from` marker, code and history inline.
fn write_single_file_image(node: &LocalNode, dir: &Path, wal_from: u64) {
    let JsonValue::Object(mut state) = state_of(&node.export_state()) else {
        unreachable!("the image state is an object");
    };
    state.insert("wal_from".into(), JsonValue::Number(wal_from as f64));
    let state = JsonValue::Object(state);
    let checksum = hex::encode_prefixed(keccak256(state.to_json().as_bytes()));
    let image = JsonValue::Object(BTreeMap::from([
        ("checksum".to_string(), JsonValue::String(checksum)),
        ("state".to_string(), state),
    ]));
    std::fs::write(
        dir.join(format!("snapshot-{wal_from:06}.json")),
        image.to_json(),
    )
    .unwrap();
    for chunk in files(dir, "history-") {
        std::fs::remove_file(dir.join(chunk)).unwrap();
    }
}

#[test]
fn a_single_file_image_still_recovers() {
    let dir = temp_dir("legacy");
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 3, Faults::none()).unwrap();
    deploy_copies(&mut node, 2);
    transfer(&mut node, 7);
    node.append_app_event("before").unwrap();
    let wal_from = node.compact().unwrap();
    write_single_file_image(&node, &dir, wal_from);
    // Work after the image replays from the log on top of it.
    transfer(&mut node, 8);
    node.append_app_event("after").unwrap();
    let expected = fingerprint(&mut node);
    drop(node);

    let mut recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(fingerprint(&mut recovered), expected);
    assert_eq!(recovered.app_events(), ["before", "after"]);
    // The next compaction starts a chunk series from genesis.
    let next = recovered.compact().unwrap();
    assert_eq!(files(&dir, "history-"), [format!("history-{next:06}.json")]);
    drop(recovered);
    let mut again = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(fingerprint(&mut again), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_imported_history_starts_a_fresh_series() {
    let dir = temp_dir("imported");
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 3, Faults::none()).unwrap();
    transfer(&mut node, 1);
    node.compact().unwrap();
    let mut other = LocalNode::new(3);
    transfer(&mut other, 2);
    transfer(&mut other, 3);
    node.import_state(&other.export_state()).unwrap();
    let wal_from = node.compact().unwrap();
    assert_eq!(
        files(&dir, "history-"),
        [format!("history-{wal_from:06}.json")]
    );
    let expected = fingerprint(&mut node);
    drop(node);
    let mut recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(fingerprint(&mut recovered), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_crash_between_chunk_and_image_recovers_from_the_previous_image() {
    if !fault_injection_enabled() {
        eprintln!("fault-injection feature off; skipping");
        return;
    }
    // The workload: compact once, seal more, compact again. A clean run
    // counts the renames before the second compaction; that compaction
    // renames its chunk, then its image.
    let run = |faults: Faults, dir: &Path| -> (LocalNode, Option<u64>, u64) {
        let mut node = LocalNode::open(dir, ChainConfig::default(), 3, faults.clone()).unwrap();
        transfer(&mut node, 1);
        node.append_app_event("one").unwrap();
        node.compact().unwrap();
        transfer(&mut node, 2);
        node.append_app_event("two").unwrap();
        let renames = faults.op_counts().renames;
        let second = node.compact().ok();
        (node, second, renames)
    };
    let clean = temp_dir("crash-clean");
    let (_, second, renames) = run(Faults::none(), &clean);
    assert!(second.is_some());
    std::fs::remove_dir_all(&clean).ok();

    let dir = temp_dir("crash");
    let plan = FaultPlan {
        fail_rename: Some(renames + 2),
        ..FaultPlan::default()
    };
    let (mut node, second, _) = run(Faults::plan(plan), &dir);
    assert!(second.is_none(), "the image rename failed");
    let chunks = files(&dir, "history-");
    assert_eq!(chunks.len(), 2, "the chunk landed: {chunks:?}");
    assert_eq!(files(&dir, "snapshot-").len(), 1, "the old image stands");
    transfer(&mut node, 3);
    let expected = fingerprint(&mut node);
    drop(node);

    // The previous image plus the log; the orphan chunk is ignored…
    let mut recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(fingerprint(&mut recovered), expected);
    assert_eq!(recovered.app_events(), ["one", "two"]);
    // …and the next compaction deletes it.
    let next = recovered.compact().unwrap();
    let after = files(&dir, "history-");
    assert_eq!(after.len(), 2, "{after:?}");
    assert_eq!(after[0], chunks[0]);
    assert_eq!(after[1], format!("history-{next:06}.json"));
    drop(recovered);
    let mut again = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(fingerprint(&mut again), expected);
    std::fs::remove_dir_all(&dir).ok();
}
