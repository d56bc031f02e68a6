//! State snapshots: export the world state to a JSON document (using the
//! workspace's self-contained JSON module) and import it into a fresh
//! node — the dev-chain equivalent of a genesis file, so a test fixture
//! or a demo deployment can be frozen and revived.

use crate::codec;
use crate::node::LocalNode;
use crate::state::Account;
use crate::tx::{Block, Receipt, Transaction};
use core::fmt;
use lsc_abi::json::{parse, JsonValue};
use lsc_primitives::{hex, keccak256, Address, U256};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Error importing a snapshot document.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotError(pub String);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot error: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

fn bad<T>(message: impl Into<String>) -> Result<T, SnapshotError> {
    Err(SnapshotError(message.into()))
}

/// Decode one account body from either snapshot format.
fn account_from_json(body: &JsonValue) -> Result<Account, SnapshotError> {
    let balance = body
        .get("balance")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| SnapshotError("missing balance".into()))?;
    let balance = U256::from_decimal_str(balance).map_err(|e| SnapshotError(e.to_string()))?;
    let nonce = match body.get("nonce") {
        Some(JsonValue::Number(n)) => *n as u64,
        _ => return bad("missing nonce"),
    };
    let code = body
        .get("code")
        .and_then(JsonValue::as_str)
        .map(hex::decode)
        .transpose()
        .map_err(|e| SnapshotError(e.to_string()))?
        .unwrap_or_default();
    let mut storage = lsc_primitives::FxHashMap::default();
    if let Some(JsonValue::Object(slots)) = body.get("storage") {
        for (slot, value) in slots {
            let slot = U256::from_hex_str(slot).map_err(|e| SnapshotError(e.to_string()))?;
            let value = value
                .as_str()
                .ok_or_else(|| SnapshotError("storage value must be a string".into()))?;
            let value = U256::from_hex_str(value).map_err(|e| SnapshotError(e.to_string()))?;
            storage.insert(slot, value);
        }
    }
    Ok(Account {
        balance,
        nonce,
        code: Arc::new(code),
        storage,
        ..Account::default()
    })
}

/// Decode and fully validate the accounts section before any of it is
/// applied to a node.
fn accounts_from_json(
    accounts: &BTreeMap<String, JsonValue>,
) -> Result<Vec<(Address, Account)>, SnapshotError> {
    let mut out = Vec::with_capacity(accounts.len());
    for (address, body) in accounts {
        let address: Address = address
            .parse()
            .map_err(|_| SnapshotError(format!("bad address {address}")))?;
        out.push((address, account_from_json(body)?));
    }
    Ok(out)
}

impl LocalNode {
    /// Export the whole node as a checksummed JSON image: accounts
    /// (balances, nonces, code, storage), the chain clock, the pending
    /// transaction queue, and the full block/receipt history. The
    /// envelope is `{"checksum": keccak(state), "state": {...}}`;
    /// serialization is deterministic, so the checksum detects any
    /// bit-flip or truncation.
    pub fn export_state(&self) -> String {
        self.export_image(None)
    }

    /// [`LocalNode::export_state`] with an optional `wal_from` marker —
    /// the first WAL segment this image does NOT cover (written by
    /// compaction; recovery takes the boundary from the snapshot's file
    /// name, the field makes the image self-describing).
    pub(crate) fn export_image(&self, wal_from: Option<u64>) -> String {
        let mut accounts: BTreeMap<String, JsonValue> = BTreeMap::new();
        for (address, account) in self.state_accounts() {
            let mut storage: BTreeMap<String, JsonValue> = BTreeMap::new();
            for (slot, value) in &account.storage {
                storage.insert(format!("{slot:x}"), JsonValue::String(format!("{value:x}")));
            }
            accounts.insert(
                address.to_string(),
                JsonValue::object([
                    (
                        "balance",
                        JsonValue::String(account.balance.to_decimal_string()),
                    ),
                    ("nonce", JsonValue::Number(account.nonce as f64)),
                    (
                        "code",
                        JsonValue::String(hex::encode(account.code.as_slice())),
                    ),
                    ("storage", JsonValue::Object(storage)),
                ]),
            );
        }
        let mut receipts: BTreeMap<String, JsonValue> = BTreeMap::new();
        for receipt in self.history().receipts().values() {
            receipts.insert(
                codec::h256_to_str(&receipt.tx_hash),
                codec::receipt_to_json(receipt),
            );
        }
        let mut fields = vec![
            ("timestamp", JsonValue::Number(self.timestamp() as f64)),
            ("accounts", JsonValue::Object(accounts)),
            (
                "pending",
                JsonValue::Array(self.pending_txs().iter().map(codec::tx_to_json).collect()),
            ),
            (
                "blocks",
                JsonValue::Array(
                    self.history()
                        .blocks()
                        .iter()
                        .map(|block| codec::block_to_json(block))
                        .collect(),
                ),
            ),
            ("receipts", JsonValue::Object(receipts)),
            // The app tier's event history rides in the image so that
            // compaction (which prunes the WAL segments holding the
            // original AppEvent records) never loses it.
            (
                "app_events",
                JsonValue::Array(
                    self.app_events()
                        .iter()
                        .map(|e| JsonValue::String(e.clone()))
                        .collect(),
                ),
            ),
        ];
        // The trie root of the exported account set: recovery adopts the
        // persisted page store without rebuilding iff its committed root
        // matches this (the trie is canonical, so the root is a pure
        // function of the accounts above).
        fields.push((
            "state_root",
            JsonValue::String(codec::h256_to_str(&self.canonical_state_root())),
        ));
        if let Some(wal_from) = wal_from {
            fields.push(("wal_from", JsonValue::Number(wal_from as f64)));
        }
        let state = JsonValue::object(fields);
        let serialized = state.to_json();
        JsonValue::object([
            (
                "checksum",
                JsonValue::String(hex::encode_prefixed(keccak256(serialized.as_bytes()))),
            ),
            ("state", state),
        ])
        .to_json()
    }

    /// Import a state document. Two formats are accepted:
    ///
    /// * the checksummed full image written by [`LocalNode::export_state`]
    ///   — verified end to end (envelope checksum, recomputed block
    ///   hashes, parent links, receipt keys) before anything is applied;
    ///   accounts merge, while clock, pending queue and history are
    ///   replaced;
    /// * the legacy flat `{timestamp, accounts}` document — accounts
    ///   merge, the clock only moves forward.
    ///
    /// Returns the number of accounts imported.
    pub fn import_state(&mut self, document: &str) -> Result<usize, SnapshotError> {
        let doc = parse(document).map_err(|e| SnapshotError(e.to_string()))?;
        if doc.get("state").is_some() {
            return self.import_image(&doc);
        }
        let Some(JsonValue::Object(accounts)) = doc.get("accounts") else {
            return bad("missing \"accounts\" object");
        };
        if let Some(ts) = doc.get("timestamp").and_then(|v| match v {
            JsonValue::Number(n) => Some(*n as u64),
            _ => None,
        }) {
            self.set_timestamp(ts);
        }
        let accounts = accounts_from_json(accounts)?;
        let imported = accounts.len();
        self.restore_accounts(accounts);
        self.publish();
        Ok(imported)
    }

    fn import_image(&mut self, doc: &JsonValue) -> Result<usize, SnapshotError> {
        let checksum = doc
            .get("checksum")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| SnapshotError("missing checksum".into()))?;
        let state = doc.get("state").expect("checked by caller");
        // Serialization is deterministic, so re-serializing the parsed
        // state reproduces the exact bytes the checksum was taken over.
        let serialized = state.to_json();
        if hex::encode_prefixed(keccak256(serialized.as_bytes())) != checksum.to_lowercase() {
            return bad("checksum mismatch (corrupt or tampered snapshot)");
        }
        let timestamp = match state.get("timestamp") {
            Some(JsonValue::Number(n)) if *n >= 0.0 => *n as u64,
            _ => return bad("missing timestamp"),
        };
        let Some(JsonValue::Object(accounts)) = state.get("accounts") else {
            return bad("missing \"accounts\" object");
        };
        let accounts = accounts_from_json(accounts)?;
        let blocks = state
            .get("blocks")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| SnapshotError("missing \"blocks\" array".into()))?
            .iter()
            .map(|b| codec::block_from_json(b).map_err(SnapshotError))
            .collect::<Result<Vec<Block>, _>>()?;
        if blocks.is_empty() {
            return bad("image has no genesis block");
        }
        for (i, block) in blocks.iter().enumerate() {
            if block.hash
                != Block::compute_hash(
                    block.number,
                    block.parent_hash,
                    block.timestamp,
                    block.state_root,
                    &block.tx_hashes,
                )
            {
                return bad(format!(
                    "block {} hash does not match contents",
                    block.number
                ));
            }
            if i > 0 && block.parent_hash != blocks[i - 1].hash {
                return bad(format!("block {} breaks the parent chain", block.number));
            }
        }
        let Some(JsonValue::Object(receipt_docs)) = state.get("receipts") else {
            return bad("missing \"receipts\" object");
        };
        let mut receipts: Vec<Receipt> = Vec::with_capacity(receipt_docs.len());
        for (key, body) in receipt_docs {
            let receipt = codec::receipt_from_json(body).map_err(SnapshotError)?;
            let key_hash = codec::h256_from_str(key).map_err(SnapshotError)?;
            if key_hash != receipt.tx_hash {
                return bad(format!("receipt key {key} does not match its tx_hash"));
            }
            receipts.push(receipt);
        }
        let pending = state
            .get("pending")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| SnapshotError("missing \"pending\" array".into()))?
            .iter()
            .map(|t| codec::tx_from_json(t).map_err(SnapshotError))
            .collect::<Result<Vec<Transaction>, _>>()?;
        let app_events = state
            .get("app_events")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| SnapshotError("missing \"app_events\" array".into()))?
            .iter()
            .map(|e| {
                e.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| SnapshotError("app_events entry is not a string".into()))
            })
            .collect::<Result<Vec<String>, _>>()?;

        // Everything validated — apply, and publish once at the end.
        let imported = accounts.len();
        self.restore_accounts(accounts);
        // Remember the image's trie root (when present): recovery uses it
        // to decide whether the on-disk page store can be adopted as-is.
        self.set_adoptable_root(
            state
                .get("state_root")
                .and_then(JsonValue::as_str)
                .and_then(|s| codec::h256_from_str(s).ok()),
        );
        self.install_history(blocks, receipts);
        self.install_pending(pending);
        self.install_app_events(app_events);
        self.set_clock(timestamp);
        self.rebuild_published();
        Ok(imported)
    }
}

impl LocalNode {
    /// Save the state snapshot to a file.
    pub fn save_state(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        std::fs::write(path, self.export_state())
            .map_err(|e| SnapshotError(format!("write {}: {e}", path.display())))
    }

    /// Load a state snapshot from a file into this node.
    pub fn load_state(&mut self, path: &std::path::Path) -> Result<usize, SnapshotError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SnapshotError(format!("read {}: {e}", path.display())))?;
        self.import_state(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;

    #[test]
    fn export_import_roundtrip() {
        let mut node = LocalNode::new(3);
        let [a, b] = [node.accounts()[0], node.accounts()[1]];
        // Make some history: transfer + a contract with storage.
        let tx = Transaction {
            from: a,
            to: Some(b),
            value: lsc_primitives::ether(7),
            data: vec![],
            gas: 21_000,
            gas_price: U256::from_u64(1),
            nonce: None,
        };
        node.send_transaction(tx).unwrap();
        // Tiny init code that SSTOREs and deploys empty runtime:
        // PUSH1 5; PUSH1 1; SSTORE; PUSH1 0; PUSH1 0; RETURN
        let init = vec![0x60, 0x05, 0x60, 0x01, 0x55, 0x60, 0x00, 0x60, 0x00, 0xf3];
        let receipt = node.send_transaction(Transaction::deploy(a, init)).unwrap();
        let contract = receipt.contract_address.unwrap();
        node.increase_time(999);

        let snapshot = node.export_state();

        let mut fresh = LocalNode::new(0);
        let imported = fresh.import_state(&snapshot).unwrap();
        assert!(imported >= 4, "three dev accounts + coinbase + contract");
        assert_eq!(fresh.balance(a), node.balance(a));
        assert_eq!(fresh.balance(b), node.balance(b));
        assert_eq!(fresh.nonce(a), node.nonce(a));
        assert_eq!(
            fresh.storage_at(contract, U256::ONE),
            U256::from_u64(5),
            "contract storage travelled"
        );
        assert_eq!(fresh.timestamp(), node.timestamp());
        // The revived chain keeps working: the imported account can pay.
        let tx = Transaction {
            from: a,
            to: Some(b),
            value: U256::from_u64(1),
            data: vec![],
            gas: 21_000,
            gas_price: U256::from_u64(1),
            nonce: None,
        };
        assert!(fresh.send_transaction(tx).is_ok());
    }

    #[test]
    fn import_rejects_garbage() {
        let mut node = LocalNode::new(0);
        assert!(node.import_state("not json").is_err());
        assert!(node.import_state("{}").is_err());
        assert!(node.import_state(r#"{"accounts":{"0xzz":{}}}"#).is_err());
        assert!(node
            .import_state(r#"{"accounts":{"0x0000000000000000000000000000000000000001":{}}}"#)
            .is_err());
    }

    #[test]
    fn snapshot_is_deterministic() {
        let node = LocalNode::new(2);
        assert_eq!(node.export_state(), node.export_state());
    }

    #[test]
    fn save_and_load_files() {
        let mut node = LocalNode::new(2);
        node.faucet(
            lsc_primitives::Address::from_label("extra"),
            U256::from_u64(55),
        );
        let path = std::env::temp_dir().join("lsc-chain-snapshot-test.json");
        node.save_state(&path).unwrap();
        let mut fresh = LocalNode::new(0);
        let imported = fresh.load_state(&path).unwrap();
        assert!(imported >= 3);
        assert_eq!(
            fresh.balance(lsc_primitives::Address::from_label("extra")),
            U256::from_u64(55)
        );
        std::fs::remove_file(&path).ok();
        assert!(fresh
            .load_state(std::path::Path::new("/nonexistent/nope.json"))
            .is_err());
    }
}
