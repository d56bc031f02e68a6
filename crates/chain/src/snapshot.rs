//! State snapshots: the node's world state as a checksummed JSON image.
//!
//! Two layouts share one envelope, `{"checksum": keccak(body), "<key>":
//! body}`, and one set of field codecs.
//!
//! * **Self-contained image** ([`LocalNode::export_state`] /
//!   [`LocalNode::import_state`]): one file holding the accounts (code
//!   inline), the chain clock, the pending pool and the full history —
//!   blocks, receipts and app events. The dev-chain equivalent of a
//!   genesis file: a fixture or demo deployment frozen and revived.
//! * **Compaction image** (written by [`LocalNode::compact`] as
//!   `snapshot-<wal_from>.json`): the accounts, clock and pool, a
//!   `codes` table that stores each distinct contract code once (accounts
//!   reference it by code hash), and a `history` list naming the history
//!   chunk files that hold the chain's past, in order. Each compaction
//!   appends one chunk, `history-<wal_from>.json`, holding only the
//!   blocks sealed since the previous chunk, their receipts and the new
//!   app events; a chunk is written once and never rewritten. The image
//!   lists, per chunk, its checksum, the `(number, hash)` of its last
//!   block and the app-event count through it. Recovery loads exactly the
//!   listed chunks, verifies each checksum and re-checks block hashes and
//!   parent links across their concatenation. A chunk file the image does
//!   not list (left by a crash between the chunk's and the image's rename)
//!   is ignored, and the next compaction deletes it. When the live chain
//!   no longer extends the last listed chunk, compaction starts a fresh
//!   series from genesis.
//!
//! A compaction therefore writes O(state + blocks since the last
//! compaction), while a restart still parses the whole history.
//! Recovery also opens self-contained images, the format compaction
//! wrote before history chunks existed.

use crate::codec;
use crate::mvcc::CommittedSnapshot;
use crate::node::LocalNode;
use crate::state::Account;
use crate::tx::{Block, Receipt, Transaction};
use crate::wal::{self, Faults, WalError};
use core::fmt;
use lsc_abi::json::{parse, JsonValue};
use lsc_evm::AnalyzedCode;
use lsc_primitives::{hex, Address, FxHashMap, H256, U256};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};

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

/// One entry of a compaction image's `history` list: which chunk file,
/// its checksum, and where the chain stands at its end.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HistoryChunk {
    /// The WAL boundary of the compaction that wrote the chunk; names
    /// the file.
    pub(crate) wal_from: u64,
    checksum: H256,
    last_number: u64,
    last_hash: H256,
    /// App events in this chunk and all before it.
    app_events: usize,
}

impl HistoryChunk {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("wal_from", JsonValue::Number(self.wal_from as f64)),
            (
                "checksum",
                JsonValue::String(codec::h256_to_str(&self.checksum)),
            ),
            ("last_number", JsonValue::Number(self.last_number as f64)),
            (
                "last_hash",
                JsonValue::String(codec::h256_to_str(&self.last_hash)),
            ),
            ("app_events", JsonValue::Number(self.app_events as f64)),
        ])
    }

    fn from_json(doc: &JsonValue) -> Result<HistoryChunk, SnapshotError> {
        let chunk = || -> Result<HistoryChunk, String> {
            Ok(HistoryChunk {
                wal_from: codec::u64_field(doc, "wal_from")?,
                checksum: codec::h256_field(doc, "checksum")?,
                last_number: codec::u64_field(doc, "last_number")?,
                last_hash: codec::h256_field(doc, "last_hash")?,
                app_events: codec::u64_field(doc, "app_events")? as usize,
            })
        };
        chunk().map_err(SnapshotError)
    }
}

// ---- envelope --------------------------------------------------------

/// Wrap an already-serialized body as `{"checksum":…,"<key>":body}`,
/// byte-identical to serializing the two-field object (`"checksum"`
/// sorts before every key used here), without serializing the body a
/// second time. Returns the document and the checksum.
fn seal(key: &str, body: &str) -> (String, H256) {
    let checksum = H256::keccak(body);
    let checksum_hex = codec::h256_to_str(&checksum);
    let mut out = String::with_capacity(body.len() + key.len() + 96);
    out.push_str("{\"checksum\":\"");
    out.push_str(&checksum_hex);
    out.push_str("\",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(body);
    out.push('}');
    (out, checksum)
}

/// Verify a sealed document's checksum and return its body with the
/// checksum. A document in exactly the shape [`seal`] writes is checked
/// over its raw body bytes; any other layout of the same JSON is
/// re-serialized first, so the checksum stays a property of the content.
fn open_sealed<'a>(
    text: &str,
    doc: &'a JsonValue,
    key: &str,
) -> Result<(&'a JsonValue, H256), SnapshotError> {
    let checksum = doc
        .get("checksum")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| SnapshotError("missing checksum".into()))
        .and_then(|s| codec::h256_from_str(s).map_err(SnapshotError))?;
    let body = doc
        .get(key)
        .ok_or_else(|| SnapshotError(format!("missing \"{key}\"")))?;
    let raw_body = text
        .strip_prefix("{\"checksum\":\"")
        .and_then(|rest| rest.get(66..))
        .and_then(|rest| rest.strip_prefix("\",\""))
        .and_then(|rest| rest.strip_prefix(key))
        .and_then(|rest| rest.strip_prefix("\":"))
        .and_then(|rest| rest.strip_suffix('}'));
    let matches = |bytes: &[u8]| H256::keccak(bytes) == checksum;
    if raw_body.is_some_and(|raw| matches(raw.as_bytes())) || matches(body.to_json().as_bytes()) {
        Ok((body, checksum))
    } else {
        bad("checksum mismatch (corrupt or tampered snapshot)")
    }
}

// ---- accounts --------------------------------------------------------

/// A compaction image's code table, decoded: code hash → the shared blob
/// and its analysis, so every account running the same code shares one
/// copy of both.
type CodeTable = FxHashMap<String, (Arc<Vec<u8>>, Arc<AnalyzedCode>)>;

fn codes_from_json(doc: Option<&JsonValue>) -> Result<CodeTable, SnapshotError> {
    let mut table = CodeTable::default();
    let Some(doc) = doc else {
        return Ok(table);
    };
    let JsonValue::Object(codes) = doc else {
        return bad("\"codes\" must be an object");
    };
    for (hash, code) in codes {
        let code = code
            .as_str()
            .ok_or_else(|| SnapshotError("code must be a hex string".into()))?;
        let code = Arc::new(hex::decode(code).map_err(|e| SnapshotError(e.to_string()))?);
        let analysis = AnalyzedCode::analyze(Arc::clone(&code));
        if codec::h256_to_str(&analysis.code_hash()) != *hash {
            return bad(format!("code {hash} does not hash to its key"));
        }
        table.insert(hash.clone(), (code, analysis));
    }
    Ok(table)
}

/// Decode one account body from either image layout: code inline
/// (`"code"`) or referenced into the code table (`"code_hash"`).
fn account_from_json(body: &JsonValue, codes: &CodeTable) -> Result<Account, SnapshotError> {
    let balance = body
        .get("balance")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| SnapshotError("missing balance".into()))?;
    let balance = U256::from_decimal_str(balance).map_err(|e| SnapshotError(e.to_string()))?;
    let nonce = match body.get("nonce") {
        Some(JsonValue::Number(n)) => *n as u64,
        _ => return bad("missing nonce"),
    };
    let (code, analysis) = match body.get("code_hash").map(JsonValue::as_str) {
        Some(Some(hash)) => {
            let (code, analysis) = codes
                .get(hash)
                .ok_or_else(|| SnapshotError(format!("code {hash} missing from the table")))?;
            (Arc::clone(code), OnceLock::from(Arc::clone(analysis)))
        }
        Some(None) => return bad("code_hash must be a string"),
        None => {
            let code = body
                .get("code")
                .and_then(JsonValue::as_str)
                .map(hex::decode)
                .transpose()
                .map_err(|e| SnapshotError(e.to_string()))?
                .unwrap_or_default();
            (Arc::new(code), OnceLock::new())
        }
    };
    let mut storage = FxHashMap::default();
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
        code,
        storage,
        analysis,
    })
}

/// Decode and fully validate the accounts section before any of it is
/// applied to a node.
fn accounts_from_json(
    accounts: &BTreeMap<String, JsonValue>,
    codes: &CodeTable,
) -> Result<Vec<(Address, Account)>, SnapshotError> {
    let mut out = Vec::with_capacity(accounts.len());
    for (address, body) in accounts {
        let address: Address = address
            .parse()
            .map_err(|_| SnapshotError(format!("bad address {address}")))?;
        out.push((address, account_from_json(body, codes)?));
    }
    Ok(out)
}

// ---- history ---------------------------------------------------------

/// The `blocks` / `receipts` / `app_events` fields for a run of blocks:
/// the whole history in a self-contained image, the blocks since the
/// previous chunk in a history chunk.
fn history_fields<'a>(
    blocks: impl Iterator<Item = &'a Arc<Block>>,
    history: &CommittedSnapshot,
    app_events: &[String],
) -> [(&'static str, JsonValue); 3] {
    let mut block_docs = Vec::new();
    let mut receipts: BTreeMap<String, JsonValue> = BTreeMap::new();
    for block in blocks {
        block_docs.push(codec::block_to_json(block));
        for tx_hash in &block.tx_hashes {
            if let Some(receipt) = history.receipts().get(tx_hash) {
                receipts.insert(codec::h256_to_str(tx_hash), codec::receipt_to_json(receipt));
            }
        }
    }
    [
        ("blocks", JsonValue::Array(block_docs)),
        ("receipts", JsonValue::Object(receipts)),
        // The app tier's event history rides along so that compaction
        // (which prunes the WAL segments holding the original AppEvent
        // records) never loses it.
        (
            "app_events",
            JsonValue::Array(
                app_events
                    .iter()
                    .map(|e| JsonValue::String(e.clone()))
                    .collect(),
            ),
        ),
    ]
}

/// History decoded from an image or a run of chunks, in chain order.
#[derive(Default)]
struct History {
    blocks: Vec<Block>,
    receipts: Vec<Receipt>,
    app_events: Vec<String>,
}

impl History {
    /// Decode one `blocks` / `receipts` / `app_events` section and append
    /// it.
    fn extend_from_json(&mut self, doc: &JsonValue) -> Result<(), SnapshotError> {
        for block in doc
            .get("blocks")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| SnapshotError("missing \"blocks\" array".into()))?
        {
            self.blocks
                .push(codec::block_from_json(block).map_err(SnapshotError)?);
        }
        let Some(JsonValue::Object(receipt_docs)) = doc.get("receipts") else {
            return bad("missing \"receipts\" object");
        };
        for (key, body) in receipt_docs {
            let receipt = codec::receipt_from_json(body).map_err(SnapshotError)?;
            let key_hash = codec::h256_from_str(key).map_err(SnapshotError)?;
            if key_hash != receipt.tx_hash {
                return bad(format!("receipt key {key} does not match its tx_hash"));
            }
            self.receipts.push(receipt);
        }
        for event in doc
            .get("app_events")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| SnapshotError("missing \"app_events\" array".into()))?
        {
            let event = event
                .as_str()
                .ok_or_else(|| SnapshotError("app_events entry is not a string".into()))?;
            self.app_events.push(event.to_string());
        }
        Ok(())
    }

    /// Every block hashes to its contents and links to its parent, from
    /// genesis on.
    fn validate(&self) -> Result<(), SnapshotError> {
        if self.blocks.is_empty() {
            return bad("image has no genesis block");
        }
        for (i, block) in self.blocks.iter().enumerate() {
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
            if i > 0 && block.parent_hash != self.blocks[i - 1].hash {
                return bad(format!("block {} breaks the parent chain", block.number));
            }
        }
        Ok(())
    }

    /// Read, verify and append the listed chunks from `dir`.
    fn load_chunks(&mut self, dir: &Path, chunks: &[HistoryChunk]) -> Result<(), SnapshotError> {
        for chunk in chunks {
            let path = wal::history_path(dir, chunk.wal_from);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| SnapshotError(format!("read {}: {e}", path.display())))?;
            let doc = parse(&text).map_err(|e| SnapshotError(e.to_string()))?;
            let (body, checksum) = open_sealed(&text, &doc, "history")?;
            if checksum != chunk.checksum {
                return bad(format!("{} is not the listed chunk", path.display()));
            }
            self.extend_from_json(body)?;
            let last = self.blocks.last().map(|b| (b.number, b.hash));
            if last != Some((chunk.last_number, chunk.last_hash))
                || self.app_events.len() != chunk.app_events
            {
                return bad(format!(
                    "{} does not end where the image says",
                    path.display()
                ));
            }
        }
        Ok(())
    }
}

// ---- export ----------------------------------------------------------

impl LocalNode {
    /// Export the whole node as a self-contained checksummed JSON image:
    /// accounts (balances, nonces, code, storage), the chain clock, the
    /// pending transaction queue, the full block/receipt history and the
    /// app events. The envelope is `{"checksum": keccak(state), "state":
    /// {...}}`; serialization is deterministic, so the checksum detects
    /// any bit-flip or truncation.
    pub fn export_state(&self) -> String {
        let history = self.history();
        let mut fields = self.state_fields(false);
        fields.extend(history_fields(
            history.blocks().iter(),
            history,
            self.app_events(),
        ));
        // The trie root of the exported account set; the trie is
        // canonical, so the root is a pure function of the accounts.
        fields.push((
            "state_root",
            JsonValue::String(codec::h256_to_str(&self.canonical_state_root())),
        ));
        seal("state", &JsonValue::object(fields).to_json()).0
    }

    /// The account set, clock and pool. With `code_table`, each distinct
    /// code blob is stored once in a `codes` table keyed by its memoized
    /// code hash and accounts carry `code_hash`; otherwise code is inline.
    fn state_fields(&self, code_table: bool) -> Vec<(&'static str, JsonValue)> {
        let mut accounts: BTreeMap<String, JsonValue> = BTreeMap::new();
        let mut codes: BTreeMap<String, JsonValue> = BTreeMap::new();
        for (address, account) in self.world_state().iter_accounts() {
            let mut storage: BTreeMap<String, JsonValue> = BTreeMap::new();
            for (slot, value) in &account.storage {
                storage.insert(format!("{slot:x}"), JsonValue::String(format!("{value:x}")));
            }
            let code = if !code_table || account.code.is_empty() {
                (
                    "code",
                    JsonValue::String(hex::encode(account.code.as_slice())),
                )
            } else {
                let hash = codec::h256_to_str(&account.analysis().code_hash());
                if !codes.contains_key(&hash) {
                    codes.insert(
                        hash.clone(),
                        JsonValue::String(hex::encode(account.code.as_slice())),
                    );
                }
                ("code_hash", JsonValue::String(hash))
            };
            accounts.insert(
                address.to_string(),
                JsonValue::object([
                    (
                        "balance",
                        JsonValue::String(account.balance.to_decimal_string()),
                    ),
                    ("nonce", JsonValue::Number(account.nonce as f64)),
                    code,
                    ("storage", JsonValue::Object(storage)),
                ]),
            );
        }
        let mut fields = vec![
            ("timestamp", JsonValue::Number(self.timestamp() as f64)),
            ("accounts", JsonValue::Object(accounts)),
            (
                "pending",
                JsonValue::Array(self.pending_txs().iter().map(codec::tx_to_json).collect()),
            ),
        ];
        if code_table {
            fields.push(("codes", JsonValue::Object(codes)));
        }
        fields
    }

    /// Write what one compaction publishes into `dir`: a history chunk
    /// with everything sealed since the last listed chunk (skipped when
    /// there is nothing new), then the compaction image
    /// `snapshot-<wal_from>.json` listing the chunks. `state_root` is the
    /// live trie's root, synced by the caller. Both files go through
    /// [`wal::write_durable`]; the image's rename is the commit point.
    /// Returns the chunk list the new image holds.
    pub(crate) fn write_compaction(
        &self,
        dir: &Path,
        wal_from: u64,
        state_root: H256,
        faults: &Faults,
    ) -> Result<Vec<HistoryChunk>, WalError> {
        let history = self.history();
        let blocks = history.blocks();
        let events = self.app_events();
        // Continue the series only while the live chain still extends its
        // last chunk; otherwise start over from genesis.
        let extends = |last: &HistoryChunk| {
            usize::try_from(last.last_number)
                .ok()
                .and_then(|n| blocks.get(n))
                .is_some_and(|block| block.hash == last.last_hash)
                && events.len() >= last.app_events
        };
        let mut chunks = match self.history_chunks().last() {
            Some(last) if extends(last) => self.history_chunks().to_vec(),
            _ => Vec::new(),
        };
        let (first_block, first_event) = chunks.last().map_or((0, 0), |last| {
            (last.last_number as usize + 1, last.app_events)
        });
        if first_block < blocks.len() || first_event < events.len() {
            let body = JsonValue::object(history_fields(
                blocks.iter_from(first_block),
                history,
                &events[first_event..],
            ))
            .to_json();
            let (text, checksum) = seal("history", &body);
            wal::write_durable(&wal::history_path(dir, wal_from), text.as_bytes(), faults)?;
            let last = blocks.last().expect("genesis always present");
            chunks.push(HistoryChunk {
                wal_from,
                checksum,
                last_number: last.number,
                last_hash: last.hash,
                app_events: events.len(),
            });
        }
        let mut fields = self.state_fields(true);
        fields.push((
            "history",
            JsonValue::Array(chunks.iter().map(HistoryChunk::to_json).collect()),
        ));
        fields.push((
            "state_root",
            JsonValue::String(codec::h256_to_str(&state_root)),
        ));
        fields.push(("wal_from", JsonValue::Number(wal_from as f64)));
        let (image, _) = seal("state", &JsonValue::object(fields).to_json());
        wal::write_durable(&wal::snapshot_path(dir, wal_from), image.as_bytes(), faults)?;
        Ok(chunks)
    }
}

// ---- import ----------------------------------------------------------

impl LocalNode {
    /// Import a state document. Two formats are accepted:
    ///
    /// * the checksummed self-contained image written by
    ///   [`LocalNode::export_state`] — verified end to end (envelope
    ///   checksum, recomputed block hashes, parent links, receipt keys)
    ///   before anything is applied; accounts merge, while clock, pending
    ///   queue and history are replaced;
    /// * the legacy flat `{timestamp, accounts}` document — accounts
    ///   merge, the clock only moves forward.
    ///
    /// A compaction image lists history chunks that live in its data
    /// directory, so it is refused here; [`LocalNode::recover`] reads it.
    ///
    /// Returns the number of accounts imported.
    pub fn import_state(&mut self, document: &str) -> Result<usize, SnapshotError> {
        let doc = parse(document).map_err(|e| SnapshotError(e.to_string()))?;
        if doc.get("state").is_some() {
            return self.import_image(document, &doc, None);
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
        let accounts = accounts_from_json(accounts, &CodeTable::default())?;
        let imported = accounts.len();
        self.restore_accounts(accounts);
        self.publish();
        Ok(imported)
    }

    /// Import a snapshot file from data dir `dir`: a compaction image
    /// (its history chunks are read from `dir`) or a self-contained one.
    pub(crate) fn import_snapshot(&mut self, dir: &Path, text: &str) -> Result<(), SnapshotError> {
        let doc = parse(text).map_err(|e| SnapshotError(e.to_string()))?;
        self.import_image(text, &doc, Some(dir)).map(|_| ())
    }

    fn import_image(
        &mut self,
        text: &str,
        doc: &JsonValue,
        dir: Option<&Path>,
    ) -> Result<usize, SnapshotError> {
        let (state, _) = open_sealed(text, doc, "state")?;
        let timestamp = match state.get("timestamp") {
            Some(JsonValue::Number(n)) if *n >= 0.0 => *n as u64,
            _ => return bad("missing timestamp"),
        };
        let Some(JsonValue::Object(accounts)) = state.get("accounts") else {
            return bad("missing \"accounts\" object");
        };
        let accounts = accounts_from_json(accounts, &codes_from_json(state.get("codes"))?)?;
        let mut history = History::default();
        let chunks = match (state.get("history"), dir) {
            (None, _) => {
                history.extend_from_json(state)?;
                Vec::new()
            }
            (Some(list), Some(dir)) => {
                let chunks = list
                    .as_array()
                    .ok_or_else(|| SnapshotError("\"history\" must be an array".into()))?
                    .iter()
                    .map(HistoryChunk::from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                history.load_chunks(dir, &chunks)?;
                chunks
            }
            (Some(_), None) => {
                return bad("a compaction image keeps its history in its data dir; recover it")
            }
        };
        history.validate()?;
        let pending = state
            .get("pending")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| SnapshotError("missing \"pending\" array".into()))?
            .iter()
            .map(|t| codec::tx_from_json(t).map_err(SnapshotError))
            .collect::<Result<Vec<Transaction>, _>>()?;

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
        self.install_history(history.blocks, history.receipts);
        self.set_history_chunks(chunks);
        self.install_pending(pending);
        self.install_app_events(history.app_events);
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
    fn seal_matches_the_serialized_envelope() {
        let body = JsonValue::object([
            ("b", JsonValue::Number(1.0)),
            ("a", JsonValue::String("x".into())),
        ]);
        for key in ["state", "history"] {
            let (sealed, checksum) = seal(key, &body.to_json());
            let expected = JsonValue::Object(BTreeMap::from([
                (
                    "checksum".to_string(),
                    JsonValue::String(codec::h256_to_str(&checksum)),
                ),
                (key.to_string(), body.clone()),
            ]))
            .to_json();
            assert_eq!(sealed, expected);
            let doc = parse(&sealed).unwrap();
            assert_eq!(open_sealed(&sealed, &doc, key).unwrap(), (&body, checksum));
            // The same content laid out differently still verifies…
            let spaced = sealed.replace(',', ", ");
            let doc = parse(&spaced).unwrap();
            assert!(open_sealed(&spaced, &doc, key).is_ok());
            // …and different content does not.
            let tampered = sealed.replace("\"x\"", "\"y\"");
            let doc = parse(&tampered).unwrap();
            assert!(open_sealed(&tampered, &doc, key).is_err());
        }
    }

    #[test]
    fn compaction_images_need_their_data_dir() {
        let dir = std::env::temp_dir().join(format!("lsc-chain-chunked-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut node =
            LocalNode::open(&dir, crate::ChainConfig::default(), 2, Faults::none()).unwrap();
        let wal_from = node.compact().unwrap();
        let image = std::fs::read_to_string(wal::snapshot_path(&dir, wal_from)).unwrap();
        let err = LocalNode::new(0).import_state(&image).unwrap_err();
        assert!(err.0.contains("data dir"), "{err}");
        let mut fresh = LocalNode::new(0);
        fresh.import_snapshot(&dir, &image).unwrap();
        assert_eq!(fresh.export_state(), node.export_state());
        drop(node);
        let _ = std::fs::remove_dir_all(&dir);
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
