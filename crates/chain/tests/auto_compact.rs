//! Auto-compaction: a durable node with
//! [`ChainConfig::auto_compact_segments`] set compacts its own log once
//! the live log outgrows the budget — and a node with the default
//! `None` never compacts on its own (tests that enumerate crash points
//! rely on that).

use lsc_chain::wal::Faults;
use lsc_chain::{ChainConfig, LocalNode, Transaction};
use lsc_primitives::U256;
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lsc-autocompact-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn snapshot_count(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.starts_with("snapshot-") && name.ends_with(".json")
            })
            .count()
    })
}

fn transfer(node: &mut LocalNode) {
    let [a, b] = [node.accounts()[0], node.accounts()[1]];
    node.send_transaction(
        Transaction::call(a, b, vec![])
            .with_value(U256::from_u64(5))
            .with_gas(21_000),
    )
    .unwrap();
}

#[test]
fn default_config_never_compacts_on_its_own() {
    let dir = temp_dir("off");
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 3, Faults::none()).unwrap();
    for _ in 0..8 {
        transfer(&mut node);
    }
    assert_eq!(snapshot_count(&dir), 0, "no snapshot without opting in");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threshold_one_compacts_after_every_block() {
    let dir = temp_dir("eager");
    let config = ChainConfig {
        auto_compact_segments: Some(1),
        ..ChainConfig::default()
    };
    let mut node = LocalNode::open(&dir, config, 3, Faults::none()).unwrap();
    // The live log always spans >= 1 segment beyond the newest snapshot,
    // so every sealed block triggers a compaction cycle.
    transfer(&mut node);
    let after_one = snapshot_count(&dir);
    assert_eq!(after_one, 1, "first seal compacts");
    transfer(&mut node);
    // Old snapshots are pruned: exactly one (the newest) remains.
    assert_eq!(snapshot_count(&dir), 1, "superseded snapshot pruned");
    // The page store's commit point exists alongside the snapshot.
    assert!(dir.join("state.root").exists(), "trie root persisted");

    // Recovery over the auto-compacted layout is bit-identical.
    let expected = node.export_state();
    let head = node.block_number();
    drop(node);
    let recovered = LocalNode::recover(&dir, Faults::none()).unwrap();
    assert_eq!(recovered.export_state(), expected);
    assert_eq!(recovered.block_number(), head);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn large_threshold_waits_for_the_log_to_grow() {
    let dir = temp_dir("patient");
    let config = ChainConfig {
        auto_compact_segments: Some(1000),
        ..ChainConfig::default()
    };
    let mut node = LocalNode::open(&dir, config, 3, Faults::none()).unwrap();
    for _ in 0..6 {
        transfer(&mut node);
    }
    // Segment indices climb by (at most) one per compaction-free 256KiB
    // of records; six transfers stay far below segment 1000.
    assert_eq!(snapshot_count(&dir), 0, "budget not exhausted yet");
    // Manual compaction still works and resets the budget.
    node.compact().unwrap();
    assert_eq!(snapshot_count(&dir), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bytes one compaction adds to the data dir: its new image plus the
/// history chunk it appended.
fn compaction_bytes(dir: &Path, wal_from: u64) -> u64 {
    let size = |name: String| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());
    size(format!("snapshot-{wal_from:06}.json")) + size(format!("history-{wal_from:06}.json"))
}

#[test]
fn compaction_writes_stay_flat_as_history_grows() {
    // A fixed account set and a fixed amount of work between
    // compactions: what each compaction writes must not grow with the
    // height. A full-history image grows by a round's blocks (~17 KB)
    // each time; the image's chunk list grows by one ~200-byte entry.
    let dir = temp_dir("flat");
    let mut node = LocalNode::open(&dir, ChainConfig::default(), 4, Faults::none()).unwrap();
    let accounts = node.accounts().to_vec();
    let mut written = Vec::new();
    for _ in 0..8 {
        for i in 0..24 {
            node.send_transaction(
                Transaction::call(accounts[i % 4], accounts[(i + 1) % 4], vec![])
                    .with_value(U256::from_u64(5))
                    .with_gas(21_000),
            )
            .unwrap();
        }
        let wal_from = node.compact().unwrap();
        written.push(compaction_bytes(&dir, wal_from));
    }
    let (min, max) = (
        *written.iter().min().unwrap(),
        *written.iter().max().unwrap(),
    );
    assert!(max - min <= 8 * 256, "bytes per compaction: {written:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
