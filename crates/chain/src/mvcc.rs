//! The MVCC read path: immutable published snapshots and lock-free
//! read handles.
//!
//! On every committed mutation (instant tx, mined batch, faucet, clock
//! move, snapshot revert, WAL recovery, image import) the node publishes
//! an immutable [`CommittedSnapshot`] — world state, block headers,
//! receipts and a log index — by swapping an `Arc` behind a
//! `parking_lot::RwLock`. A [`ReadHandle`] clones that `Arc` (one brief
//! read-lock of the *slot*, never of the node) and then serves every read
//! — balances, code, storage, receipts, `eth_getLogs`, even full
//! `eth_call`/`eth_estimateGas` via a [`SnapshotHost`] overlay — against
//! a frozen committed prefix of the chain. Readers scale with cores.
//!
//! What a publication costs the writer: the snapshot's tables are
//! persistent collections (`persistent.rs`), so the clone that
//! `publish` hands to readers is a refcount bump per table, whatever the
//! chain's length. The copying happens afterwards and piecemeal — the
//! next block's writes into the publisher's working copy path-copy the
//! tree nodes the published snapshot still shares (at most one node of
//! 32 slots per level, log₃₂ n levels) and mutate in place what it does
//! not. Per sealed block that is the right spine of the block-indexed
//! vectors, one map path per receipt and per dirty account (and a clone
//! of that account, storage map included), and the tail leaf of each
//! posting list the block appends to: O(block · log₃₂ history).
//! Posting lists are persistent vectors rather than `Arc<Vec<_>>`
//! because `Arc::make_mut` on a shared `Vec` copies the whole list, and
//! the busiest list — topic-0 of the payment event — is every payment
//! ever made. A snapshot a reader keeps holds on to exactly the nodes
//! that were live when it was taken; nothing later reaches into them.
//!
//! The publication invariant: **by the time any public state-changing
//! entry point of `LocalNode` returns, the published snapshot reflects
//! it.** A handle therefore always observes some committed prefix of the
//! chain — never a mid-block, mid-call or rolled-back state — and a
//! single-threaded caller gets read-after-write consistency.
//!
//! One deliberate exception: the *pool depth* is live, not part of the
//! committed prefix. The count lives in an atomic shared between the
//! publisher's shadow and every clone it published, so a submission
//! updates it in place (plus a sequence bump waking publication
//! waiters) instead of publishing. Chain state in the snapshot stays
//! frozen; only the depth gauge moves.
//!
//! The snapshot is also where committed history *lives*: the node keeps
//! no block or receipt list of its own. Sealing moves each block and its
//! receipts into the publisher's working snapshot once, and the node's
//! own readers go through that same copy.

use crate::node::ChainConfig;
use crate::persistent::{PMap, PVec};
use crate::state::Account;
use crate::tx::{Block, Receipt, Transaction};
use lsc_evm::{
    gas, AnalyzedCode, BlockEnv, CallResult, Config, Evm, Log, Message, SnapshotHost, StateView,
    TraceStep,
};
use lsc_primitives::{keccak256, Address, H256, U256};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An `eth_getLogs` filter with the full wire-format semantics: an
/// OR-list of emitting addresses (empty = any) and a *positional* topic
/// filter — `topics[i]` is an OR-list the log's `i`-th topic must hit,
/// and an empty list at a position is the JSON `null` wildcard.
///
/// Every log-filtering path in the chain — the node's reference scan,
/// the snapshot scan and the inverted-index query — evaluates candidates
/// through [`LogFilter::matches`], so the paths cannot drift apart.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogFilter {
    /// Emitting addresses to accept; empty accepts every address.
    pub addresses: Vec<Address>,
    /// Positional topic OR-lists; an empty inner list is a wildcard.
    /// Positions beyond the log's topic count never match (per spec: a
    /// filter on topic-1 cannot match a log with a single topic).
    pub topics: Vec<Vec<H256>>,
}

impl LogFilter {
    /// The historical (address, topic0) filter shape as a [`LogFilter`].
    pub fn address_topic0(address: Option<Address>, topic0: Option<H256>) -> Self {
        LogFilter {
            addresses: address.into_iter().collect(),
            topics: match topic0 {
                Some(t) => vec![vec![t]],
                None => Vec::new(),
            },
        }
    }

    /// Does `log` pass this filter?
    pub fn matches(&self, log: &Log) -> bool {
        if !self.addresses.is_empty() && !self.addresses.contains(&log.address) {
            return false;
        }
        for (position, or_list) in self.topics.iter().enumerate() {
            if or_list.is_empty() {
                continue; // null wildcard
            }
            match log.topics.get(position) {
                Some(topic) if or_list.contains(topic) => {}
                _ => return false,
            }
        }
        true
    }
}

/// The shared filter predicate for the historical `eth_getLogs` surface
/// (one optional address, one optional topic-0) — a thin wrapper over
/// [`LogFilter::matches`], kept for the many call sites that predate the
/// positional filter.
pub fn log_matches(log: &Log, address: Option<Address>, topic0: Option<H256>) -> bool {
    LogFilter::address_topic0(address, topic0).matches(log)
}

/// A 256-bit per-block bloom filter over log addresses and topic-0
/// values — a constant-time "definitely not in this block" check used to
/// skip whole blocks when a query carries a second filter.
#[derive(Clone, Copy, Default)]
pub struct BlockBloom([u64; 4]);

impl BlockBloom {
    /// Three bit positions derived from the keccak of the item.
    fn bits(item: &[u8]) -> [u8; 3] {
        let h = keccak256(item);
        [h[0], h[1], h[2]]
    }

    fn insert(&mut self, item: &[u8]) {
        for b in Self::bits(item) {
            self.0[usize::from(b >> 6)] |= 1 << (b & 63);
        }
    }

    fn contains_bits(&self, bits: [u8; 3]) -> bool {
        bits.iter()
            .all(|b| self.0[usize::from(b >> 6)] & (1 << (b & 63)) != 0)
    }
}

/// Position of one log: block number + ordinal within the block's flat
/// log list (transaction order, then intra-receipt order — exactly the
/// order the reference scan emits).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogPos {
    /// Block height.
    pub block: u64,
    /// Index into the block's flattened log list.
    pub ordinal: u32,
}

/// Inverted index over the chain's logs: per-block flat lists, per-block
/// blooms, and per-address / per-topic0 posting lists. All four tables
/// are persistent (see the module docs), posting lists included, so an
/// append copies a few nodes of each touched list and a clone of the
/// index is four refcount bumps.
#[derive(Clone, Default)]
pub struct LogIndex {
    /// Logs of block `n`, flattened in emission order.
    per_block: PVec<Arc<Vec<Log>>>,
    /// Bloom over addresses + topic-0s of block `n`.
    blooms: PVec<BlockBloom>,
    by_address: PMap<Address, PVec<LogPos>>,
    by_topic0: PMap<H256, PVec<LogPos>>,
}

impl LogIndex {
    /// Index one newly sealed block. A receipt missing from the map is
    /// skipped — the same (historically silent) semantics as the
    /// reference scan, now shared by construction.
    fn append_block(&mut self, block: &Block, receipts: &PMap<H256, Arc<Receipt>>) {
        debug_assert_eq!(self.per_block.len() as u64, block.number);
        let mut logs = Vec::new();
        for tx_hash in &block.tx_hashes {
            let Some(receipt) = receipts.get(tx_hash) else {
                continue;
            };
            logs.extend(receipt.logs.iter().cloned());
        }
        let mut bloom = BlockBloom::default();
        for (ordinal, log) in logs.iter().enumerate() {
            let pos = LogPos {
                block: block.number,
                ordinal: ordinal as u32,
            };
            bloom.insert(&log.address.0);
            self.by_address
                .get_or_insert_with(log.address, PVec::new)
                .push(pos);
            if let Some(topic0) = log.topics.first() {
                bloom.insert(&topic0.0);
                self.by_topic0
                    .get_or_insert_with(*topic0, PVec::new)
                    .push(pos);
            }
        }
        self.per_block.push(Arc::new(logs));
        self.blooms.push(bloom);
    }

    /// Collect the posting positions of every key in `lists`, restricted
    /// to the block range. Lists for distinct addresses (or distinct
    /// topic-0 values) are disjoint — a log has exactly one address and
    /// at most one topic-0 — so a sort restores global emission order
    /// without deduplication.
    fn union_postings<'a>(
        lists: impl Iterator<Item = Option<&'a PVec<LogPos>>>,
        from_block: u64,
        to_block: u64,
    ) -> Vec<LogPos> {
        let mut positions: Vec<LogPos> = Vec::new();
        for postings in lists.flatten() {
            let start = postings.partition_point(|pos| pos.block < from_block);
            positions.extend(
                postings
                    .iter_from(start)
                    .take_while(|pos| pos.block <= to_block)
                    .copied(),
            );
        }
        positions.sort_unstable_by_key(|pos| (pos.block, pos.ordinal));
        positions
    }

    /// Indexed `eth_getLogs` with full positional-filter semantics:
    /// O(postings in range) whenever an address or topic-0 constraint is
    /// present (the posting lists are the prefilter, [`LogFilter::matches`]
    /// decides), O(logs in range) otherwise — never O(whole chain).
    /// Results are emitted in exactly the reference-scan order (block
    /// ascending, then flat emission order within the block).
    pub fn query_filter(
        &self,
        from_block: u64,
        to_block: u64,
        filter: &LogFilter,
    ) -> Vec<(u64, Log)> {
        let topic0 = filter.topics.first().map_or(&[] as &[H256], Vec::as_slice);
        // Bloom bits of the *other* single-valued constraint, if any —
        // lets whole blocks be skipped without touching their logs.
        let (positions, other_bits) = if !filter.addresses.is_empty() {
            let positions = Self::union_postings(
                filter.addresses.iter().map(|a| self.by_address.get(a)),
                from_block,
                to_block,
            );
            let bits = match topic0 {
                [only] => Some(BlockBloom::bits(&only.0)),
                _ => None,
            };
            (positions, bits)
        } else if !topic0.is_empty() {
            let positions = Self::union_postings(
                topic0.iter().map(|t| self.by_topic0.get(t)),
                from_block,
                to_block,
            );
            (positions, None)
        } else {
            // No indexed constraint (topic-1+ only, or no filter at
            // all): walk the range.
            return self.scan_filter(from_block, to_block, filter);
        };
        let mut out = Vec::new();
        for pos in positions {
            if let Some(bits) = other_bits {
                if !self.blooms[pos.block as usize].contains_bits(bits) {
                    continue;
                }
            }
            let log = &self.per_block[pos.block as usize][pos.ordinal as usize];
            if filter.matches(log) {
                out.push((pos.block, log.clone()));
            }
        }
        out
    }

    /// [`LogIndex::query_filter`] for the historical (address, topic0)
    /// surface.
    pub fn query(
        &self,
        from_block: u64,
        to_block: u64,
        address: Option<Address>,
        topic0: Option<H256>,
    ) -> Vec<(u64, Log)> {
        self.query_filter(
            from_block,
            to_block,
            &LogFilter::address_topic0(address, topic0),
        )
    }

    /// Reference implementation: linear scan over the per-block lists
    /// with the same shared predicate. Kept for differential tests and
    /// the indexed-vs-scan benchmark.
    pub fn scan_filter(
        &self,
        from_block: u64,
        to_block: u64,
        filter: &LogFilter,
    ) -> Vec<(u64, Log)> {
        let mut out = Vec::new();
        for (number, logs) in self.per_block.iter().enumerate() {
            let number = number as u64;
            if number < from_block || number > to_block {
                continue;
            }
            for log in logs.iter() {
                if filter.matches(log) {
                    out.push((number, log.clone()));
                }
            }
        }
        out
    }

    /// [`LogIndex::scan_filter`] for the historical (address, topic0)
    /// surface.
    pub fn scan(
        &self,
        from_block: u64,
        to_block: u64,
        address: Option<Address>,
        topic0: Option<H256>,
    ) -> Vec<(u64, Log)> {
        self.scan_filter(
            from_block,
            to_block,
            &LogFilter::address_topic0(address, topic0),
        )
    }
}

/// One immutable, committed-prefix view of the whole chain. Cloning is
/// O(1) in chain length: the four history tables and the log index are
/// persistent collections shared with the previous snapshot node by
/// node, and what they hold (accounts, code blobs, analyses, blocks,
/// receipts) sits behind `Arc`s — the publisher re-shares only what a
/// block changed.
#[derive(Clone)]
pub struct CommittedSnapshot {
    config: ChainConfig,
    accounts: PMap<Address, Arc<Account>>,
    dev_accounts: Arc<Vec<Address>>,
    blocks: PVec<Arc<Block>>,
    /// Block hash → height (`eth_getBlockByHash`).
    blocks_by_hash: PMap<H256, u64>,
    receipts: PMap<H256, Arc<Receipt>>,
    timestamp: u64,
    /// Live pool-depth gauge, shared between the publisher's shadow and
    /// every published clone (see the module docs) — submissions update
    /// it without republishing.
    pending_count: Arc<AtomicUsize>,
    log_index: LogIndex,
    /// Hashes of the most recent 256 blocks, newest first (BLOCKHASH).
    recent_hashes: Vec<(u64, H256)>,
}

impl CommittedSnapshot {
    pub(crate) fn new(config: ChainConfig, dev_accounts: Vec<Address>) -> Self {
        CommittedSnapshot {
            config,
            accounts: PMap::new(),
            dev_accounts: Arc::new(dev_accounts),
            blocks: PVec::new(),
            blocks_by_hash: PMap::new(),
            receipts: PMap::new(),
            timestamp: 0,
            pending_count: Arc::new(AtomicUsize::new(0)),
            log_index: LogIndex::default(),
            recent_hashes: Vec::new(),
        }
    }

    /// Re-share one account's current state (publisher side, per dirty
    /// address).
    pub(crate) fn upsert_account(&mut self, address: Address, account: Account) {
        self.accounts.insert(address, Arc::new(account));
    }

    /// Drop a destroyed account (publisher side).
    pub(crate) fn remove_account(&mut self, address: Address) {
        self.accounts.remove(&address);
    }

    /// Replace the account set wholesale (publisher side, after a
    /// revert, import or recovery changed state outside the dirty marks).
    pub(crate) fn replace_accounts<'a>(
        &mut self,
        accounts: impl Iterator<Item = (&'a Address, &'a Account)>,
    ) {
        self.accounts = accounts
            .map(|(address, account)| (*address, Arc::new(account.clone())))
            .collect();
    }

    /// Move one newly sealed block and its receipts (in block order)
    /// into the history and index them. O(block · log₃₂ history).
    pub(crate) fn append_block(&mut self, block: Block, receipts: Vec<Receipt>) {
        for receipt in receipts {
            self.receipts.insert(receipt.tx_hash, Arc::new(receipt));
        }
        let block = Arc::new(block);
        self.index_block(&block);
        self.blocks.push(block);
        self.refresh_recent_hashes();
    }

    /// Keep the first `len` blocks; drop the rest together with their
    /// receipts, then rebuild the derived indexes from the kept prefix.
    pub(crate) fn truncate_history(&mut self, len: usize) {
        if len >= self.blocks.len() {
            return;
        }
        for block in self.blocks.iter_from(len) {
            for tx_hash in &block.tx_hashes {
                self.receipts.remove(tx_hash);
            }
        }
        self.blocks.truncate(len);
        self.reindex();
    }

    /// Replace the whole history (full-image import).
    pub(crate) fn install_history(&mut self, blocks: Vec<Block>, receipts: Vec<Receipt>) {
        self.blocks = blocks.into_iter().map(Arc::new).collect();
        self.receipts = receipts
            .into_iter()
            .map(|receipt| (receipt.tx_hash, Arc::new(receipt)))
            .collect();
        self.reindex();
    }

    /// Enter `block` in the hash lookup and the log index (its receipts
    /// are already in the map).
    fn index_block(&mut self, block: &Block) {
        self.log_index.append_block(block, &self.receipts);
        self.blocks_by_hash.insert(block.hash, block.number);
    }

    fn refresh_recent_hashes(&mut self) {
        let oldest = self.blocks.len().saturating_sub(256);
        self.recent_hashes = self
            .blocks
            .iter_from(oldest)
            .map(|b| (b.number, b.hash))
            .collect();
        self.recent_hashes.reverse();
    }

    /// Rebuild every derived index from `blocks` + `receipts`.
    fn reindex(&mut self) {
        self.blocks_by_hash = PMap::new();
        self.log_index = LogIndex::default();
        let blocks = self.blocks.clone();
        for block in blocks.iter() {
            self.index_block(block);
        }
        self.refresh_recent_hashes();
    }

    /// Every block, genesis first.
    pub(crate) fn blocks(&self) -> &PVec<Arc<Block>> {
        &self.blocks
    }

    /// Every receipt by transaction hash.
    pub(crate) fn receipts(&self) -> &PMap<H256, Arc<Receipt>> {
        &self.receipts
    }

    /// Hashes of the most recent 256 blocks, newest first (BLOCKHASH).
    pub(crate) fn recent_hashes(&self) -> &[(u64, H256)] {
        &self.recent_hashes
    }

    pub(crate) fn set_clock(&mut self, timestamp: u64) {
        self.timestamp = timestamp;
    }

    pub(crate) fn set_pending(&mut self, count: usize) {
        self.pending_count.store(count, Ordering::Release);
    }

    // ---- read API -----------------------------------------------------

    /// The chain parameters this snapshot was committed under.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// The pre-funded dev accounts, shared.
    pub fn accounts(&self) -> Arc<Vec<Address>> {
        Arc::clone(&self.dev_accounts)
    }

    /// Account balance at this snapshot.
    pub fn balance(&self, address: Address) -> U256 {
        self.accounts
            .get(&address)
            .map_or(U256::ZERO, |a| a.balance)
    }

    /// Account nonce at this snapshot.
    pub fn nonce(&self, address: Address) -> u64 {
        self.accounts.get(&address).map_or(0, |a| a.nonce)
    }

    /// Contract code at this snapshot (shared, zero-copy).
    pub fn code(&self, address: Address) -> Arc<Vec<u8>> {
        self.accounts
            .get(&address)
            .map(|a| Arc::clone(&a.code))
            .unwrap_or_default()
    }

    /// Keccak of the code, served from the account's memoized analysis.
    pub fn code_hash(&self, address: Address) -> H256 {
        match self.accounts.get(&address) {
            Some(a) if !a.code.is_empty() => a.analysis().code_hash(),
            _ => H256::ZERO,
        }
    }

    /// Read a storage slot at this snapshot.
    pub fn storage_at(&self, address: Address, key: U256) -> U256 {
        self.accounts
            .get(&address)
            .and_then(|a| a.storage.get(&key).copied())
            .unwrap_or(U256::ZERO)
    }

    /// Block height of this snapshot.
    pub fn block_number(&self) -> u64 {
        self.blocks.last().map_or(0, |b| b.number)
    }

    /// Chain clock of this snapshot.
    pub fn timestamp(&self) -> u64 {
        self.timestamp
    }

    /// Pooled (not yet mined) transactions — a *live* gauge shared with
    /// the publisher, not a frozen part of this snapshot (module docs).
    pub fn pending_count(&self) -> usize {
        self.pending_count.load(Ordering::Acquire)
    }

    /// Fetch a block by number, shared.
    pub fn block(&self, number: u64) -> Option<Arc<Block>> {
        self.blocks.get(usize::try_from(number).ok()?).cloned()
    }

    /// Fetch a block by hash, shared (`eth_getBlockByHash`).
    pub fn block_by_hash(&self, hash: H256) -> Option<Arc<Block>> {
        self.block(*self.blocks_by_hash.get(&hash)?)
    }

    /// Fetch a receipt by transaction hash, shared.
    pub fn receipt(&self, tx_hash: H256) -> Option<Arc<Receipt>> {
        self.receipts.get(&tx_hash).cloned()
    }

    /// `eth_getLogs` via the inverted index — O(matching entries).
    pub fn logs(
        &self,
        from_block: u64,
        to_block: u64,
        address: Option<Address>,
        topic0: Option<H256>,
    ) -> Vec<(u64, Log)> {
        self.log_index.query(from_block, to_block, address, topic0)
    }

    /// `eth_getLogs` with full positional wire-format semantics, via the
    /// inverted index.
    pub fn logs_filtered(
        &self,
        from_block: u64,
        to_block: u64,
        filter: &LogFilter,
    ) -> Vec<(u64, Log)> {
        self.log_index.query_filter(from_block, to_block, filter)
    }

    /// `eth_getLogs` by linear scan — the differential-test and
    /// benchmark baseline for [`CommittedSnapshot::logs`].
    pub fn logs_scan(
        &self,
        from_block: u64,
        to_block: u64,
        address: Option<Address>,
        topic0: Option<H256>,
    ) -> Vec<(u64, Log)> {
        self.log_index.scan(from_block, to_block, address, topic0)
    }

    /// [`CommittedSnapshot::logs_filtered`] by linear scan — the
    /// differential baseline for the positional filter.
    pub fn logs_scan_filtered(
        &self,
        from_block: u64,
        to_block: u64,
        filter: &LogFilter,
    ) -> Vec<(u64, Log)> {
        self.log_index.scan_filter(from_block, to_block, filter)
    }

    /// The environment the *next* block would execute under — the same
    /// env the locked node uses for `eth_call`, so results agree bit for
    /// bit.
    fn block_env(&self) -> BlockEnv {
        BlockEnv {
            number: self.block_number() + 1,
            timestamp: self.timestamp + self.config.block_time,
            coinbase: self.config.coinbase,
            gas_limit: self.config.block_gas_limit,
            difficulty: U256::ZERO,
            chain_id: self.config.chain_id,
        }
    }

    /// Read-only `eth_call` against this snapshot: the interpreter runs
    /// over a [`SnapshotHost`] overlay, so SSTOREs/CREATEs inside the
    /// call work and are discarded — without locking the node.
    pub fn call(&self, from: Address, to: Address, data: Vec<u8>) -> CallResult {
        let env = self.block_env();
        run_call(self, &env, &self.recent_hashes, from, to, data)
    }

    /// `debug_traceCall` against this snapshot (read-only, lock-free).
    pub fn debug_trace_call(
        &self,
        from: Address,
        to: Address,
        data: Vec<u8>,
    ) -> (CallResult, Vec<TraceStep>) {
        let env = self.block_env();
        run_trace_call(self, &env, &self.recent_hashes, from, to, data)
    }

    /// Read-only `eth_estimateGas` against this snapshot.
    pub fn estimate_gas(&self, tx: &Transaction) -> Result<u64, crate::tx::TxError> {
        let env = self.block_env();
        Ok(run_estimate(
            self,
            &env,
            &self.recent_hashes,
            self.config.block_gas_limit,
            tx,
        ))
    }
}

impl StateView for CommittedSnapshot {
    fn view_exists(&self, address: Address) -> bool {
        self.accounts.contains_key(&address)
    }
    fn view_balance(&self, address: Address) -> U256 {
        self.balance(address)
    }
    fn view_nonce(&self, address: Address) -> u64 {
        self.nonce(address)
    }
    fn view_code(&self, address: Address) -> Arc<Vec<u8>> {
        self.code(address)
    }
    fn view_code_hash(&self, address: Address) -> H256 {
        self.code_hash(address)
    }
    fn view_code_analysis(&self, address: Address) -> Arc<AnalyzedCode> {
        match self.accounts.get(&address) {
            Some(a) if !a.code.is_empty() => a.analysis(),
            _ => AnalyzedCode::empty(),
        }
    }
    fn view_storage(&self, address: Address, key: U256) -> U256 {
        self.storage_at(address, key)
    }
}

// ---- shared read-only execution helpers ------------------------------
//
// Generic over any immutable view so the node's `&mut`-compatible entry
// points (running over `&WorldState` between transactions) and the
// lock-free handle (running over a `CommittedSnapshot`) execute the
// exact same code path.

/// Run a read-only `eth_call` over an immutable view.
pub(crate) fn run_call<V: StateView + Sync>(
    view: &V,
    env: &BlockEnv,
    recent_hashes: &[(u64, H256)],
    from: Address,
    to: Address,
    data: Vec<u8>,
) -> CallResult {
    let mut host = SnapshotHost::new(view, env, U256::from_u64(1), recent_hashes);
    Evm::new(&mut host).execute(Message::call(from, to, U256::ZERO, data, 30_000_000))
}

/// Run a traced read-only call over an immutable view.
pub(crate) fn run_trace_call<V: StateView + Sync>(
    view: &V,
    env: &BlockEnv,
    recent_hashes: &[(u64, H256)],
    from: Address,
    to: Address,
    data: Vec<u8>,
) -> (CallResult, Vec<TraceStep>) {
    let mut host = SnapshotHost::new(view, env, U256::from_u64(1), recent_hashes);
    let config = Config {
        trace: true,
        ..Default::default()
    };
    let mut evm = Evm::with_config(&mut host, config);
    let result = evm.execute(Message::call(from, to, U256::ZERO, data, 30_000_000));
    let trace = std::mem::take(&mut evm.trace);
    (result, trace)
}

/// Run a read-only gas estimate over an immutable view. Mirrors the
/// node's settlement arithmetic exactly: intrinsic + execution gas used.
pub(crate) fn run_estimate<V: StateView + Sync>(
    view: &V,
    env: &BlockEnv,
    recent_hashes: &[(u64, H256)],
    block_gas_limit: u64,
    tx: &Transaction,
) -> u64 {
    let intrinsic = gas::tx_intrinsic_gas(tx.to.is_none(), &tx.data);
    let exec_gas = block_gas_limit - intrinsic;
    let message = match tx.to {
        Some(to) => Message::call(tx.from, to, tx.value, tx.data.clone(), exec_gas),
        None => Message::create(tx.from, tx.value, tx.data.clone(), exec_gas),
    };
    let mut host = SnapshotHost::new(view, env, tx.gas_price, recent_hashes);
    let result = Evm::new(&mut host).execute(message);
    intrinsic + (exec_gas - result.gas_left)
}

// ---- the handle ------------------------------------------------------

/// The slot a node publishes into and handles read from: the current
/// snapshot `Arc` plus a monotone publication sequence number with a
/// condvar, so long-lived subscribers (`eth_subscribe`) can *block*
/// until the chain moves instead of polling.
pub struct PublishedInner {
    slot: RwLock<Arc<CommittedSnapshot>>,
    seq: std::sync::Mutex<u64>,
    publish_signal: std::sync::Condvar,
}

impl PublishedInner {
    pub(crate) fn new(snapshot: Arc<CommittedSnapshot>) -> Self {
        PublishedInner {
            slot: RwLock::new(snapshot),
            seq: std::sync::Mutex::new(0),
            publish_signal: std::sync::Condvar::new(),
        }
    }

    /// The currently published snapshot (one brief read-lock of the slot).
    pub(crate) fn load(&self) -> Arc<CommittedSnapshot> {
        Arc::clone(&self.slot.read())
    }

    /// Swap in a new snapshot, bump the publication sequence and wake
    /// every subscriber blocked in [`ReadHandle::wait_for_publication`].
    pub(crate) fn store(&self, snapshot: Arc<CommittedSnapshot>) {
        *self.slot.write() = snapshot;
        let mut seq = self.seq.lock().expect("publication seq poisoned");
        *seq += 1;
        drop(seq);
        self.publish_signal.notify_all();
    }

    /// Bump the publication sequence and wake waiters *without* swapping
    /// the snapshot — used when only the live pool-depth gauge moved
    /// (see the module docs): subscribers re-check, readers keep the
    /// same committed prefix, and no snapshot clone is paid.
    pub(crate) fn notify_publication(&self) {
        let mut seq = self.seq.lock().expect("publication seq poisoned");
        *seq += 1;
        drop(seq);
        self.publish_signal.notify_all();
    }

    fn sequence(&self) -> u64 {
        *self.seq.lock().expect("publication seq poisoned")
    }
}

/// The slot a node publishes into and handles read from.
pub(crate) type PublishedSlot = Arc<PublishedInner>;

/// A lock-free read handle onto a node's published snapshots.
///
/// Cloning the handle is cheap; every read first clones the currently
/// published `Arc<CommittedSnapshot>` (a brief read-lock of the slot —
/// never of the node's mutex) and then runs entirely on that immutable
/// snapshot. Use [`ReadHandle::snapshot`] directly when several reads
/// must observe the *same* committed prefix (e.g. an audit).
#[derive(Clone)]
pub struct ReadHandle {
    slot: PublishedSlot,
}

impl ReadHandle {
    pub(crate) fn new(slot: PublishedSlot) -> Self {
        ReadHandle { slot }
    }

    /// The latest published snapshot. Everything read from it is frozen
    /// at one committed prefix of the chain.
    pub fn snapshot(&self) -> Arc<CommittedSnapshot> {
        self.slot.load()
    }

    /// The monotone publication sequence number: bumped on every
    /// committed mutation the node publishes. Use with
    /// [`ReadHandle::wait_for_publication`] to follow the chain without
    /// polling.
    pub fn publication_seq(&self) -> u64 {
        self.slot.sequence()
    }

    /// Block until a publication newer than `seen` lands (or `timeout`
    /// expires), then return the current sequence number and snapshot.
    /// The subscription hook: a `newHeads`/`logs` pusher sleeps here and
    /// diffs the block range it has already delivered on wake-up.
    pub fn wait_for_publication(
        &self,
        seen: u64,
        timeout: Duration,
    ) -> (u64, Arc<CommittedSnapshot>) {
        let deadline = std::time::Instant::now() + timeout;
        let mut seq = self.slot.seq.lock().expect("publication seq poisoned");
        while *seq <= seen {
            let now = std::time::Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now) else {
                break;
            };
            let (guard, wait) = self
                .slot
                .publish_signal
                .wait_timeout(seq, remaining)
                .expect("publication seq poisoned");
            seq = guard;
            if wait.timed_out() {
                break;
            }
        }
        let current = *seq;
        drop(seq);
        (current, self.slot.load())
    }

    /// The pre-funded dev accounts (shared, zero-copy).
    pub fn accounts(&self) -> Arc<Vec<Address>> {
        self.snapshot().accounts()
    }

    /// Latest committed balance.
    pub fn balance(&self, address: Address) -> U256 {
        self.snapshot().balance(address)
    }

    /// Latest committed nonce.
    pub fn nonce(&self, address: Address) -> u64 {
        self.snapshot().nonce(address)
    }

    /// Latest committed code (shared, zero-copy).
    pub fn code(&self, address: Address) -> Arc<Vec<u8>> {
        self.snapshot().code(address)
    }

    /// Latest committed storage slot value.
    pub fn storage_at(&self, address: Address, key: U256) -> U256 {
        self.snapshot().storage_at(address, key)
    }

    /// Latest committed block height.
    pub fn block_number(&self) -> u64 {
        self.snapshot().block_number()
    }

    /// Latest committed chain time.
    pub fn timestamp(&self) -> u64 {
        self.snapshot().timestamp()
    }

    /// Queued transactions at the latest committed snapshot.
    pub fn pending_count(&self) -> usize {
        self.snapshot().pending_count()
    }

    /// Fetch a block by number.
    pub fn block(&self, number: u64) -> Option<Arc<Block>> {
        self.snapshot().block(number)
    }

    /// Fetch a receipt by transaction hash.
    pub fn receipt(&self, tx_hash: H256) -> Option<Arc<Receipt>> {
        self.snapshot().receipt(tx_hash)
    }

    /// Indexed `eth_getLogs` over the latest committed snapshot.
    pub fn logs(
        &self,
        from_block: u64,
        to_block: u64,
        address: Option<Address>,
        topic0: Option<H256>,
    ) -> Vec<(u64, Log)> {
        self.snapshot().logs(from_block, to_block, address, topic0)
    }

    /// Indexed `eth_getLogs` with full positional wire-format semantics
    /// over the latest committed snapshot.
    pub fn logs_filtered(
        &self,
        from_block: u64,
        to_block: u64,
        filter: &LogFilter,
    ) -> Vec<(u64, Log)> {
        self.snapshot().logs_filtered(from_block, to_block, filter)
    }

    /// Lock-free read-only `eth_call`.
    pub fn call(&self, from: Address, to: Address, data: Vec<u8>) -> CallResult {
        self.snapshot().call(from, to, data)
    }

    /// Lock-free read-only `eth_estimateGas`.
    pub fn estimate_gas(&self, tx: &Transaction) -> Result<u64, crate::tx::TxError> {
        self.snapshot().estimate_gas(tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(address: Address, topic0: Option<H256>) -> Log {
        Log {
            address,
            topics: topic0.into_iter().collect(),
            data: vec![],
        }
    }

    #[test]
    fn log_matches_filters() {
        let a = Address::from_label("a");
        let b = Address::from_label("b");
        let t = H256::keccak(b"Event()");
        let l = log(a, Some(t));
        assert!(log_matches(&l, None, None));
        assert!(log_matches(&l, Some(a), Some(t)));
        assert!(!log_matches(&l, Some(b), None));
        assert!(!log_matches(&l, None, Some(H256::keccak(b"Other()"))));
        let bare = log(a, None);
        assert!(!log_matches(&bare, None, Some(t)));
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut bloom = BlockBloom::default();
        let a = Address::from_label("a");
        bloom.insert(&a.0);
        assert!(bloom.contains_bits(BlockBloom::bits(&a.0)));
    }

    #[test]
    fn index_query_matches_scan() {
        let a = Address::from_label("a");
        let b = Address::from_label("b");
        let t1 = H256::keccak(b"T1()");
        let t2 = H256::keccak(b"T2()");
        let mut index = LogIndex::default();
        let mut receipts: PMap<H256, Arc<Receipt>> = PMap::new();
        // Block 0: genesis, no txs.
        let genesis = Block {
            number: 0,
            hash: H256::ZERO,
            parent_hash: H256::ZERO,
            timestamp: 0,
            state_root: H256::ZERO,
            tx_hashes: vec![],
            gas_used: 0,
        };
        index.append_block(&genesis, &receipts);
        // Blocks 1..=6 with a mix of logs.
        for n in 1u64..=6 {
            let tx_hash = H256::keccak(n.to_be_bytes());
            let logs = vec![
                log(if n % 2 == 0 { a } else { b }, Some(t1)),
                log(a, if n % 3 == 0 { Some(t2) } else { None }),
            ];
            receipts.insert(
                tx_hash,
                Arc::new(Receipt {
                    tx_hash,
                    block_number: n,
                    tx_index: 0,
                    status: 1,
                    gas_used: 0,
                    effective_gas_price: U256::ZERO,
                    contract_address: None,
                    logs,
                    output: vec![],
                }),
            );
            let block = Block {
                number: n,
                hash: H256::keccak(n.to_le_bytes()),
                parent_hash: H256::ZERO,
                timestamp: n,
                state_root: H256::ZERO,
                tx_hashes: vec![tx_hash],
                gas_used: 0,
            };
            index.append_block(&block, &receipts);
        }
        let filters = [
            (None, None),
            (Some(a), None),
            (Some(b), None),
            (None, Some(t1)),
            (None, Some(t2)),
            (Some(a), Some(t1)),
            (Some(a), Some(t2)),
            (Some(b), Some(t2)),
        ];
        for (address, topic0) in filters {
            for (from, to) in [(0, 6), (2, 4), (5, 3), (7, 9)] {
                assert_eq!(
                    index.query(from, to, address, topic0),
                    index.scan(from, to, address, topic0),
                    "filter {address:?}/{topic0:?} range {from}..={to}"
                );
            }
        }
    }
}
