//! The local development node — the workspace's Ganache.
//!
//! Instant mining: every submitted transaction is validated, executed by
//! `lsc-evm` against the journaled [`WorldState`], and sealed into its own
//! block. Dev accounts are pre-funded exactly like Ganache's unlocked
//! accounts; time can be warped for testing time-dependent contract
//! clauses (rent due dates, contract duration).

use crate::mempool::Mempool;
use crate::mvcc::{self, CommittedSnapshot, LogFilter, PublishedInner, PublishedSlot, ReadHandle};
use crate::parallel;
use crate::snapshot::HistoryChunk;
use crate::state::WorldState;
use crate::store::{AccountProof, StateStore, StateTrie, StorageProof, DEFAULT_CACHE_BYTES};
use crate::trie::TrieError;
use crate::tx::{Block, Receipt, Transaction, TxError};
use crate::wal::{self, Faults, Wal, WalError, WalRecord};
use lsc_abi::json::{parse, JsonValue};
use lsc_evm::{AccessKey, AnalyzedCode, BlockEnv, CallResult, Host, Log};
use lsc_primitives::{Address, FxHashSet, H256, U256};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default balance for pre-funded dev accounts: 1000 ether.
pub fn default_dev_balance() -> U256 {
    lsc_primitives::ether(1000)
}

/// Default [`ChainConfig::max_pending`]: generous for batch workloads,
/// but bounded — a hostile client cannot grow node memory without limit.
pub const DEFAULT_MAX_PENDING: usize = 8_192;

/// A pre-execution hook over create-transaction init code. The chain tier
/// stays ignorant of *what* the check is (the app tier installs the
/// static bytecode verifier here); it only promises to run it before any
/// deployment executes, in every mining mode.
///
/// The check must be a pure function of the init code — both mining
/// engines and WAL replay assume the same bytes always produce the same
/// verdict.
#[derive(Clone)]
pub struct DeployGuard(Arc<GuardFn>);

/// The predicate a [`DeployGuard`] runs over init code.
type GuardFn = dyn Fn(&[u8]) -> Result<(), String> + Send + Sync;

impl DeployGuard {
    /// Wrap a checking function; `Err(reason)` rejects the transaction.
    pub fn new(check: impl Fn(&[u8]) -> Result<(), String> + Send + Sync + 'static) -> Self {
        DeployGuard(Arc::new(check))
    }

    /// Run the guard over a create transaction's init code.
    pub fn check(&self, init_code: &[u8]) -> Result<(), String> {
        (self.0)(init_code)
    }
}

impl std::fmt::Debug for DeployGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DeployGuard(..)")
    }
}

/// A pre-execution hook over version-chain relinking. When a call
/// transaction carries a `setNext(address)`/`setPrev(address)` payload —
/// the designated upgrade path from the paper's doubly linked version
/// list — the node resolves both sides' runtime code from state and runs
/// this check over (predecessor, successor) before the pointer moves.
/// The app tier installs the storage-layout compatibility gate here; the
/// chain tier only promises the check runs in every mining mode.
///
/// The check must be a pure function of the two code blobs. The code a
/// given transaction sees is determined by its position in the committed
/// order, so both mining engines and WAL replay reach the same verdict.
#[derive(Clone)]
pub struct UpgradeGuard(Arc<UpgradeGuardFn>);

/// The predicate an [`UpgradeGuard`] runs over (old, new) runtime code.
type UpgradeGuardFn = dyn Fn(&[u8], &[u8]) -> Result<(), String> + Send + Sync;

impl UpgradeGuard {
    /// Wrap a checking function over `(old_runtime, new_runtime)`;
    /// `Err(reason)` rejects the transaction.
    pub fn new(check: impl Fn(&[u8], &[u8]) -> Result<(), String> + Send + Sync + 'static) -> Self {
        UpgradeGuard(Arc::new(check))
    }

    /// Run the guard over a predecessor/successor runtime pair.
    pub fn check(&self, old_runtime: &[u8], new_runtime: &[u8]) -> Result<(), String> {
        (self.0)(old_runtime, new_runtime)
    }
}

impl std::fmt::Debug for UpgradeGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("UpgradeGuard(..)")
    }
}

/// When `tx` is a `setNext(address)`/`setPrev(address)` call, the
/// (predecessor, successor) pair it would link: `setNext` on the old
/// version names the new one, `setPrev` on the new version names the old.
fn version_pointer_call(tx: &Transaction) -> Option<(Address, Address)> {
    use std::sync::OnceLock;
    static SELECTORS: OnceLock<([u8; 4], [u8; 4])> = OnceLock::new();
    let (set_next, set_prev) = SELECTORS.get_or_init(|| {
        let sel = |sig: &str| {
            let hash = lsc_primitives::keccak::keccak256(sig.as_bytes());
            [hash[0], hash[1], hash[2], hash[3]]
        };
        (sel("setNext(address)"), sel("setPrev(address)"))
    });
    let to = tx.to?;
    if tx.data.len() != 36 {
        return None;
    }
    let mut arg = [0u8; 20];
    arg.copy_from_slice(&tx.data[16..36]);
    let arg = Address::from(arg);
    match &tx.data[..4] {
        s if s == set_next => Some((to, arg)),
        s if s == set_prev => Some((arg, to)),
        _ => None,
    }
}

/// Chain configuration.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// EIP-155 chain id.
    pub chain_id: u64,
    /// Per-block gas limit.
    pub block_gas_limit: u64,
    /// Seconds the chain clock advances per mined block.
    pub block_time: u64,
    /// Genesis timestamp.
    pub genesis_timestamp: u64,
    /// Miner/coinbase address.
    pub coinbase: Address,
    /// Worker threads for parallel batch mining; `None` uses the
    /// machine's available parallelism. On a single-core machine (or
    /// with `Some(1)`) batch mining runs sequentially.
    pub mining_workers: Option<usize>,
    /// Upper bound on the pending (submitted, unmined) queue. Submissions
    /// beyond it fail with [`TxError::QueueFull`] — backpressure instead
    /// of unbounded node memory under hostile or runaway clients.
    pub max_pending: usize,
    /// Optional vetting hook run over every create transaction's init
    /// code before execution; `Err` rejects with
    /// [`TxError::DeployRejected`].
    pub deploy_guard: Option<DeployGuard>,
    /// Optional compatibility hook run over (predecessor, successor)
    /// runtime code before any `setNext`/`setPrev` version-pointer call
    /// executes; `Err` rejects with [`TxError::UpgradeRejected`].
    pub upgrade_guard: Option<UpgradeGuard>,
    /// Byte budget for the authenticated state store's page cache on
    /// disk-backed nodes (see [`crate::store::DEFAULT_CACHE_BYTES`]).
    /// Smaller budgets bound resident memory; reads past the budget hit
    /// the page file.
    pub state_cache_bytes: usize,
    /// When set, a durable node compacts its write-ahead log on its own
    /// once the live log spans this many segments beyond the newest
    /// snapshot. `None` (the default) leaves compaction to explicit
    /// [`LocalNode::compact`] calls, keeping crash-point enumeration in
    /// tests free of background triggers.
    pub auto_compact_segments: Option<u64>,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            chain_id: 1337,
            block_gas_limit: 30_000_000,
            block_time: 1,
            genesis_timestamp: 1_577_836_800, // 2020-01-01
            coinbase: Address::from_label("coinbase"),
            mining_workers: None,
            max_pending: DEFAULT_MAX_PENDING,
            deploy_guard: None,
            upgrade_guard: None,
            state_cache_bytes: DEFAULT_CACHE_BYTES,
            auto_compact_segments: None,
        }
    }
}

impl ChainConfig {
    /// Worker threads batch mining speculates on: `mining_workers`, or
    /// the machine's available parallelism.
    pub(crate) fn workers(&self) -> usize {
        self.mining_workers.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        })
    }
}

/// A Ganache-style instant-mining local node.
pub struct LocalNode {
    config: ChainConfig,
    state: WorldState,
    timestamp: u64,
    dev_accounts: Vec<Address>,
    snapshots: Vec<NodeSnapshot>,
    /// The fee-ordered pending pool: per-sender nonce chains, priced
    /// dequeue, replacement and eviction rules (see [`crate::mempool`]).
    pool: Mempool,
    /// Bumped by every committed-state or block-env mutation (sealing,
    /// faucet, time warps, reverts, imports) — NOT by pure submissions.
    /// The pipelined producer stamps its speculation hints with this and
    /// the commit step refuses a stale stamp, so overlapping execution
    /// can never commit against a world that moved underneath it.
    state_epoch: u64,
    /// Write-ahead log; `None` for a purely in-memory node.
    durable_log: Option<Wal>,
    /// True while recovery replays the log (suppresses re-appending).
    replaying: bool,
    /// First durability failure; once set, every state-changing call
    /// fails — the in-memory state is frozen at exactly what disk can
    /// recover.
    poisoned: Option<String>,
    /// App-tier events collected during replay for `RentalApp::recover`.
    app_events: Vec<String>,
    /// Latest published MVCC snapshot; swapped whole on every committed
    /// mutation, read lock-free through [`ReadHandle`]s.
    published: PublishedSlot,
    /// The publisher's working copy and the one home of committed
    /// history: sealed blocks and receipts are moved into it, every
    /// node-side reader goes through it, and it is cloned (pointer
    /// copies) into `published` on each publication.
    shadow: CommittedSnapshot,
    /// The authenticated state trie mirroring the committed world state;
    /// synced lazily from the state's dirt marks (see
    /// [`LocalNode::sync_state_trie`]).
    state_trie: StateTrie,
    /// Node store backing the trie: in-memory for dev nodes, a paged
    /// page file behind an LRU cache for durable ones.
    state_store: StateStore,
    /// First WAL segment not covered by the newest snapshot — what the
    /// auto-compaction trigger measures live-log growth against.
    compacted_from: u64,
    /// Trie root recorded in the last imported snapshot image, stashed
    /// for recovery's adopt-or-rebuild decision.
    adoptable_root: Option<H256>,
    /// The history chunk series the newest compaction image lists (empty
    /// before the first compaction and after importing a self-contained
    /// image); the next compaction appends to it.
    history_chunks: Vec<HistoryChunk>,
}

struct NodeSnapshot {
    state: WorldState,
    blocks_len: usize,
    timestamp: u64,
    pending: Vec<Transaction>,
}

/// A captured next-block candidate for the pipelined producer: the
/// ready prefix in drain order, its identity (hashes), the environment
/// it executes under, and the state epoch it was captured at. See
/// [`LocalNode::peek_block_hint`] / [`LocalNode::commit_pipelined`].
pub(crate) struct BlockHint {
    pub(crate) txs: Vec<Transaction>,
    pub(crate) hashes: Vec<H256>,
    pub(crate) take: Option<usize>,
    pub(crate) epoch: u64,
    pub(crate) env: BlockEnv,
}

impl WorldState {
    fn deep_clone(&self) -> WorldState {
        // Journals are empty between transactions, so cloning accounts is
        // a complete copy. `Account::clone` shares the `Arc` code blob and
        // the populated analysis cache instead of copying bytecode, so
        // snapshots cost O(accounts + storage), not O(code bytes).
        let mut clone = WorldState::new();
        for (address, account) in self.iter_accounts() {
            clone.restore_account(*address, account.clone());
        }
        clone
    }
}

impl LocalNode {
    /// Start a node with `n_accounts` pre-funded dev accounts.
    pub fn new(n_accounts: usize) -> Self {
        Self::with_config(ChainConfig::default(), n_accounts)
    }

    /// Start a node with explicit configuration.
    pub fn with_config(config: ChainConfig, n_accounts: usize) -> Self {
        let mut state = WorldState::new();
        let mut dev_accounts = Vec::with_capacity(n_accounts);
        for i in 0..n_accounts {
            let address = Address::from_label(&format!("dev-account-{i}"));
            state.credit(address, default_dev_balance());
            dev_accounts.push(address);
        }
        state.commit();
        let mut state_store = StateStore::in_memory();
        let mut state_trie = StateTrie::new();
        let genesis_dirt = state.take_trie_dirty();
        let state_root = state_trie
            .apply(&mut state_store, &state, &genesis_dirt)
            .expect("genesis trie build against an in-memory store");
        let genesis = Block {
            number: 0,
            hash: Block::compute_hash(0, H256::ZERO, config.genesis_timestamp, state_root, &[]),
            parent_hash: H256::ZERO,
            timestamp: config.genesis_timestamp,
            state_root,
            tx_hashes: vec![],
            gas_used: 0,
        };
        let mut shadow = CommittedSnapshot::new(config.clone(), dev_accounts.clone());
        shadow.append_block(genesis, Vec::new());
        let mut node = LocalNode {
            timestamp: config.genesis_timestamp,
            pool: Mempool::new(config.max_pending),
            config,
            state,
            dev_accounts,
            snapshots: Vec::new(),
            state_epoch: 0,
            durable_log: None,
            replaying: false,
            poisoned: None,
            app_events: Vec::new(),
            published: Arc::new(PublishedInner::new(Arc::new(shadow.clone()))),
            shadow,
            state_trie,
            state_store,
            compacted_from: 0,
            adoptable_root: None,
            history_chunks: Vec::new(),
        };
        node.rebuild_published();
        node
    }

    /// A lock-free [`ReadHandle`] onto this node's published snapshots.
    /// Handles stay valid (and keep observing new publications) for the
    /// node's whole life, across snapshot reverts and compactions.
    pub fn read_handle(&self) -> ReadHandle {
        ReadHandle::new(Arc::clone(&self.published))
    }

    /// The currently published snapshot (what a fresh handle would see).
    pub fn published_snapshot(&self) -> Arc<CommittedSnapshot> {
        self.published.load()
    }

    /// Current undo-journal depth — read-only entry points must leave
    /// this untouched (regression guard for the MVCC call path).
    pub fn journal_depth(&self) -> usize {
        self.state.journal_depth()
    }

    /// Publish the node's committed state: re-share every dirty account
    /// into the shadow snapshot (sealing already moved new blocks in),
    /// then swap the published `Arc`. Suppressed during WAL replay
    /// ([`LocalNode::recover`] republishes once at the end instead of
    /// once per replayed record).
    pub(crate) fn publish(&mut self) {
        if self.replaying {
            return;
        }
        for address in self.state.take_dirty() {
            match self.state.account(address) {
                Some(account) => self.shadow.upsert_account(address, account.clone()),
                None => self.shadow.remove_account(address),
            }
        }
        self.shadow.set_clock(self.timestamp);
        self.shadow.set_pending(self.pool.len());
        self.published.store(Arc::new(self.shadow.clone()));
    }

    /// Publish only the pool depth: the count lives in an atomic shared
    /// between the shadow and every published clone, so readers observe
    /// the new depth immediately without the node cloning a whole
    /// snapshot per submission (the old write-path bottleneck). The
    /// publication sequence is still bumped so blocked
    /// `wait_for_publication` callers re-check.
    fn note_pool_depth(&mut self) {
        if self.replaying {
            return;
        }
        self.shadow.set_pending(self.pool.len());
        self.published.notify_publication();
    }

    /// Re-share the whole account set and publish. Used when state was
    /// replaced outside the dirty marks (snapshot revert, full-image
    /// import, end of WAL recovery); history is already in the shadow.
    pub(crate) fn rebuild_published(&mut self) {
        self.shadow.replace_accounts(self.state.iter_accounts());
        let _ = self.state.take_dirty();
        self.state_epoch += 1;
        self.shadow.set_clock(self.timestamp);
        self.shadow.set_pending(self.pool.len());
        self.published.store(Arc::new(self.shadow.clone()));
    }

    /// The pre-funded dev accounts.
    pub fn accounts(&self) -> &[Address] {
        &self.dev_accounts
    }

    /// Chain configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Current block height.
    pub fn block_number(&self) -> u64 {
        self.shadow.block_number()
    }

    /// Current chain time.
    pub fn timestamp(&self) -> u64 {
        self.timestamp
    }

    /// Fetch a block by number.
    pub fn block(&self, number: u64) -> Option<&Block> {
        let index = usize::try_from(number).ok()?;
        self.shadow.blocks().get(index).map(Arc::as_ref)
    }

    /// Fetch a receipt by transaction hash.
    pub fn receipt(&self, tx_hash: H256) -> Option<&Receipt> {
        self.shadow.receipts().get(&tx_hash).map(Arc::as_ref)
    }

    /// `eth_getLogs`: logs in the inclusive block range, optionally
    /// filtered by emitting address and/or topic-0.
    pub fn logs(
        &self,
        from_block: u64,
        to_block: u64,
        address: Option<Address>,
        topic0: Option<H256>,
    ) -> Vec<(u64, lsc_evm::Log)> {
        self.logs_filtered(
            from_block,
            to_block,
            &LogFilter::address_topic0(address, topic0),
        )
    }

    /// `eth_getLogs` with the full positional wire-format filter
    /// (address OR-list, per-position topic OR-lists, null wildcards).
    /// A plain walk over blocks and receipts — the oracle the snapshot's
    /// inverted index is checked against.
    pub fn logs_filtered(
        &self,
        from_block: u64,
        to_block: u64,
        filter: &LogFilter,
    ) -> Vec<(u64, lsc_evm::Log)> {
        let mut out = Vec::new();
        for block in self.shadow.blocks().iter() {
            if block.number < from_block || block.number > to_block {
                continue;
            }
            for tx_hash in &block.tx_hashes {
                let Some(receipt) = self.shadow.receipts().get(tx_hash) else {
                    continue;
                };
                for log in &receipt.logs {
                    // Same predicate as the snapshot's indexed query —
                    // scan and index cannot drift apart.
                    if filter.matches(log) {
                        out.push((block.number, log.clone()));
                    }
                }
            }
        }
        out
    }

    /// Account balance.
    pub fn balance(&self, address: Address) -> U256 {
        self.state.balance(address)
    }

    /// Account nonce.
    pub fn nonce(&self, address: Address) -> u64 {
        self.state.nonce(address)
    }

    /// Contract code, shared (zero-copy — the same `Arc` the EVM and the
    /// published snapshots hold).
    pub fn code(&self, address: Address) -> Arc<Vec<u8>> {
        self.state.code(address)
    }

    /// Read contract storage directly (diagnostics; `eth_getStorageAt`).
    pub fn storage_at(&self, address: Address, key: U256) -> U256 {
        self.state.storage(address, key)
    }

    // -- authenticated state ------------------------------------------

    /// Fold pending committed-state changes into the authenticated trie
    /// and return the resulting root. Every trie consumer (block
    /// sealing, proofs, compaction) goes through here, so the root is
    /// always a pure function of the committed world state — which is
    /// what makes live sealing, WAL replay and snapshot recovery land
    /// on bit-identical roots.
    fn sync_state_trie(&mut self) -> H256 {
        let dirty = self.state.take_trie_dirty();
        if dirty.is_empty() {
            return self.state_trie.root();
        }
        self.state_trie
            .apply(&mut self.state_store, &self.state, &dirty)
            .expect("state trie update over committed state")
    }

    /// The authenticated state root over the committed world state.
    /// Equals the head block's `state_root` unless faucet or import
    /// changes landed since it was sealed.
    pub fn state_root(&mut self) -> H256 {
        self.sync_state_trie()
    }

    /// Canonical trie root of the committed world state, computed from
    /// scratch against a throwaway in-memory store — [`LocalNode::export_state`]
    /// runs through `&self`, so it cannot fold pending changes into the
    /// live trie. Canonicity makes this equal the incrementally
    /// maintained root whenever the live trie is synced; compaction,
    /// which syncs first, records the live root instead.
    pub(crate) fn canonical_state_root(&self) -> H256 {
        let mut scratch = StateStore::in_memory();
        StateTrie::rebuild_from(&mut scratch, &self.state)
            .expect("scratch trie build against an in-memory store")
            .root()
    }

    pub(crate) fn set_adoptable_root(&mut self, root: Option<H256>) {
        self.adoptable_root = root;
    }

    /// `eth_getProof`: Merkle proofs for an account and a set of its
    /// storage slots against the current state root. The bundle is
    /// verifiable offline with [`crate::trie::verify_proof`] — no node
    /// access needed; absence (account or slot) is proven too.
    pub fn proof(&mut self, address: Address, slots: &[U256]) -> Result<AccountProof, TrieError> {
        let state_root = self.sync_state_trie();
        let account = self
            .state_trie
            .account_data(&mut self.state_store, address)?;
        let account_proof = self
            .state_trie
            .prove_account(&mut self.state_store, address)?;
        let mut storage_proofs = Vec::with_capacity(slots.len());
        for &slot in slots {
            let proof = self
                .state_trie
                .prove_storage(&mut self.state_store, address, slot)?;
            storage_proofs.push(StorageProof {
                key: slot,
                value: self.state.storage(address, slot),
                proof,
            });
        }
        Ok(AccountProof {
            state_root,
            address,
            account,
            account_proof,
            storage_proofs,
        })
    }

    /// Iterate all account states (state snapshot export).
    pub fn state_accounts(&self) -> Vec<(Address, crate::state::Account)> {
        self.state
            .iter_accounts()
            .map(|(address, account)| (*address, account.clone()))
            .collect()
    }

    /// Install an account wholesale (state snapshot import).
    pub fn restore_account_state(&mut self, address: Address, account: crate::state::Account) {
        self.restore_accounts(vec![(address, account)]);
        self.publish();
    }

    /// Install accounts wholesale *without* publishing: an import applies
    /// its whole account set, then publishes once — readers never see
    /// imported accounts over the history they replace.
    pub(crate) fn restore_accounts(&mut self, accounts: Vec<(Address, crate::state::Account)>) {
        for (address, account) in accounts {
            self.state.restore_account(address, account);
        }
        self.state.commit();
        self.state_epoch += 1;
    }

    /// Credit an account out of thin air (dev faucet). Panics on a
    /// durability failure — see [`LocalNode::try_faucet`].
    pub fn faucet(&mut self, address: Address, value: U256) {
        self.try_faucet(address, value).expect("durability failure");
    }

    /// [`LocalNode::faucet`], surfacing durability failures.
    pub fn try_faucet(&mut self, address: Address, value: U256) -> Result<(), TxError> {
        self.log_record(|| WalRecord::Faucet(address, value))?;
        self.state.credit(address, value);
        self.state.commit();
        self.state_epoch += 1;
        self.publish();
        Ok(())
    }

    /// Warp the chain clock forward (`evm_increaseTime`). Panics on a
    /// durability failure — see [`LocalNode::try_increase_time`].
    pub fn increase_time(&mut self, seconds: u64) {
        self.try_increase_time(seconds).expect("durability failure");
    }

    /// [`LocalNode::increase_time`], surfacing durability failures.
    pub fn try_increase_time(&mut self, seconds: u64) -> Result<(), TxError> {
        self.log_record(|| WalRecord::IncreaseTime(seconds))?;
        self.timestamp += seconds;
        self.state_epoch += 1;
        self.publish();
        Ok(())
    }

    /// Set the chain clock (`evm_setTime`); only forward jumps are
    /// allowed. Panics on a durability failure — see
    /// [`LocalNode::try_set_timestamp`].
    pub fn set_timestamp(&mut self, timestamp: u64) {
        self.try_set_timestamp(timestamp)
            .expect("durability failure");
    }

    /// [`LocalNode::set_timestamp`], surfacing durability failures.
    pub fn try_set_timestamp(&mut self, timestamp: u64) -> Result<(), TxError> {
        self.log_record(|| WalRecord::SetTime(timestamp))?;
        self.timestamp = self.timestamp.max(timestamp);
        self.state_epoch += 1;
        self.publish();
        Ok(())
    }

    /// Take a snapshot of the whole chain (`evm_snapshot`).
    pub fn snapshot(&mut self) -> usize {
        self.snapshots.push(NodeSnapshot {
            state: self.state.deep_clone(),
            blocks_len: self.shadow.blocks().len(),
            timestamp: self.timestamp,
            pending: self.pool.dump(),
        });
        self.snapshots.len() - 1
    }

    /// Roll the chain back to a snapshot (`evm_revert`). Returns `false`
    /// for an unknown id, and always on a durable node: a revert is not
    /// a logged intent, so a restart would replay the reverted blocks
    /// and serve a chain other than the one acknowledged.
    pub fn revert_to_snapshot(&mut self, id: usize) -> bool {
        if id >= self.snapshots.len() || self.durable_log.is_some() {
            return false;
        }
        let snapshot = self.snapshots.swap_remove(id);
        self.snapshots.truncate(id);
        self.shadow.truncate_history(snapshot.blocks_len);
        self.state = snapshot.state;
        self.timestamp = snapshot.timestamp;
        self.install_pending(snapshot.pending);
        // The trie tracked state that no longer exists — rebuild it over
        // the restored world. The trie is canonical, so the root equals
        // what an untouched chain at this point carried.
        self.state_trie = StateTrie::rebuild_from(&mut self.state_store, &self.state)
            .expect("state trie rebuild over restored state");
        let _ = self.state.take_trie_dirty();
        self.rebuild_published();
        true
    }

    /// The environment the *next* block will execute under. Per-transaction
    /// data (gas price) deliberately lives outside it — every transaction
    /// in a batch sees its own `tx.gas_price`, whether mined instantly or
    /// together.
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

    /// Run the configured deploy guard over a create transaction's init
    /// code; calls and guard-less nodes always pass.
    fn check_deploy_guard(&self, tx: &Transaction) -> Result<(), TxError> {
        if tx.to.is_none() {
            if let Some(guard) = &self.config.deploy_guard {
                guard.check(&tx.data).map_err(TxError::DeployRejected)?;
            }
        }
        Ok(())
    }

    /// Run the configured upgrade guard when `tx` is a version-pointer
    /// call (`setNext`/`setPrev`); anything else — and guard-less nodes —
    /// always passes. The check is skipped when either side has no code
    /// yet: a pointer aimed at an empty account is not an upgrade, and
    /// the designated path always deploys the successor first.
    ///
    /// The guard reads committed code only, so its verdict is a function
    /// of the transaction's position in the committed order — identical
    /// across instant, sequential, and parallel mining and across WAL
    /// replay (which re-executes in that same order).
    fn check_upgrade_guard(&self, tx: &Transaction) -> Result<(), TxError> {
        let Some(guard) = &self.config.upgrade_guard else {
            return Ok(());
        };
        let Some((old, new)) = version_pointer_call(tx) else {
            return Ok(());
        };
        let old_code = self.state.code(old);
        let new_code = self.state.code(new);
        if old_code.is_empty() || new_code.is_empty() {
            return Ok(());
        }
        guard
            .check(&old_code, &new_code)
            .map_err(TxError::UpgradeRejected)
    }

    /// Validate and execute one transaction against the given block env
    /// on the journaled state — the sequential executor. Returns the
    /// receipt with its block fields unset (sealing is the caller's job).
    fn execute_transaction(
        &mut self,
        tx: &Transaction,
        env: &BlockEnv,
    ) -> Result<Receipt, TxError> {
        // The deploy guard depends only on the payload bytes, so it runs
        // first: both mining engines can then agree on the verdict
        // without ordering it against state-dependent checks. The upgrade
        // guard reads committed code, which is equally fixed by the
        // transaction's position in the committed order.
        self.check_deploy_guard(tx)?;
        self.check_upgrade_guard(tx)?;
        let mut host = StateHost {
            state: &mut self.state,
            env,
            gas_price: tx.gas_price,
            logs: Vec::new(),
            snapshots: Vec::new(),
            recent_hashes: self.shadow.recent_hashes(),
        };
        let (mut receipt, fee) = tx.execute(&mut host, self.config.block_gas_limit)?;
        receipt.logs = host.logs;
        self.state.credit(self.config.coinbase, fee);
        self.state.commit();
        Ok(receipt)
    }

    /// Seal a block containing the given executed transactions. Block
    /// and receipts are moved into the history (not cloned); the block is
    /// cloned only for the return value.
    fn seal_block(&mut self, mut receipts: Vec<Receipt>) -> Block {
        let parent = self
            .shadow
            .blocks()
            .last()
            .expect("genesis always present")
            .hash;
        self.timestamp += self.config.block_time;
        let number = self.block_number() + 1;
        let tx_hashes: Vec<H256> = receipts.iter().map(|r| r.tx_hash).collect();
        let gas_used = receipts.iter().map(|r| r.gas_used).sum();
        // Fold this block's state changes (and anything pending since
        // the last seal) into the authenticated trie; the resulting root
        // goes into the hashed header, so the header attests to the
        // post-state.
        let state_root = self.sync_state_trie();
        let block = Block {
            number,
            hash: Block::compute_hash(number, parent, self.timestamp, state_root, &tx_hashes),
            parent_hash: parent,
            timestamp: self.timestamp,
            state_root,
            tx_hashes,
            gas_used,
        };
        for (index, receipt) in receipts.iter_mut().enumerate() {
            receipt.block_number = number;
            receipt.tx_index = index;
        }
        self.shadow.append_block(block.clone(), receipts);
        self.state_epoch += 1;
        // All four mining modes funnel through here: every sealed block
        // is published before its entry point returns.
        self.publish();
        self.maybe_auto_compact();
        block
    }

    /// Validate, execute and instantly mine a transaction into its own
    /// block; returns its receipt. The intent is logged to the WAL (when
    /// one is attached) *before* execution: append-before-apply is what
    /// makes a crash at any point recoverable.
    ///
    /// If the sender already has *ready* submissions pooled, the pool is
    /// mined first: pooled nonces (and therefore hashes) were fixed at
    /// submit time, so an instant transaction may never jump ahead of
    /// them. The flush is logged as an ordinary `MineBlock` record ahead
    /// of the `InstantTx` record, keeping replay exact. Gap-parked
    /// transactions from the sender stay pooled — they cannot execute
    /// before the hole fills, so the instant transaction (which executes
    /// at the committed nonce) correctly goes first.
    pub fn send_transaction(&mut self, tx: Transaction) -> Result<Receipt, TxError> {
        while self.pool.has_ready(tx.from, self.state.nonce(tx.from)) {
            self.try_mine_block()?;
        }
        self.log_record(|| WalRecord::InstantTx(tx.clone()))?;
        let env = self.block_env();
        let receipt = self.execute_transaction(&tx, &env)?;
        let tx_hash = receipt.tx_hash;
        self.seal_block(vec![receipt]);
        // Re-read to pick up the sealed block number / index.
        Ok(self
            .receipt(tx_hash)
            .cloned()
            .expect("seal_block stored the receipt"))
    }

    /// The nonce a `nonce: None` submission from `from` resolves to: the
    /// first unoccupied nonce at or above the account's committed nonce
    /// (pooled transactions execute first; holes are filled first).
    fn next_pending_nonce(&self, from: Address) -> u64 {
        self.pool.next_nonce(from, self.state.nonce(from))
    }

    /// Resolve a submission's nonce **once, now** — from this point the
    /// transaction hash is stable: the hash returned at submit time is
    /// the hash the receipt is stored under after mining, no matter what
    /// other traffic lands in between.
    fn resolve_submission(&self, tx: &mut Transaction) -> H256 {
        let nonce = tx.nonce.unwrap_or_else(|| self.next_pending_nonce(tx.from));
        tx.nonce = Some(nonce);
        tx.hash(nonce)
    }

    /// Re-pool a replayed `SubmitTx` record — the WAL-recovery path.
    /// Replay re-runs the *same* insert decision live submission made:
    /// the pool before each record is the same fold over the same prior
    /// records, so every committed record re-accepts with the same plan
    /// (replacement, eviction) and recovery reconstructs the identical
    /// pool — entries, priority order and tie-breaks included.
    /// Transactions from legacy logs may still carry `nonce: None`; they
    /// resolve here with the same rule as live submission.
    fn enqueue_pending_unchecked(&mut self, mut tx: Transaction) {
        let hash = self.resolve_submission(&mut tx);
        let state_nonce = self.state.nonce(tx.from);
        // An error is only reachable replaying a log written by an older
        // node version with weaker rules; drop deterministically rather
        // than poison recovery.
        let _ = self.pool.insert(tx, hash, state_nonce);
    }

    /// Queue a transaction without mining (batch mode); returns its
    /// stable hash. Validation happens at mining time, when prior queued
    /// transactions have executed. Panics on a durability failure — see
    /// [`LocalNode::try_submit_transaction`].
    pub fn submit_transaction(&mut self, tx: Transaction) -> H256 {
        self.try_submit_transaction(tx).expect("durability failure")
    }

    /// [`LocalNode::submit_transaction`], surfacing failures.
    ///
    /// The nonce is resolved here — the returned hash is the
    /// transaction's identity for its whole life ([`LocalNode::receipt`]
    /// finds it after mining). Every rejection — duplicate hash, stale
    /// nonce, underpriced replacement, full pool without an evictable
    /// cheaper tail — is decided *before* anything is logged to the WAL
    /// ([`Mempool::plan_insert`]), and the planned outcome is applied
    /// verbatim after the append: append-before-apply, decision-first.
    pub fn try_submit_transaction(&mut self, mut tx: Transaction) -> Result<H256, TxError> {
        let hash = self.resolve_submission(&mut tx);
        let plan = self
            .pool
            .plan_insert(&tx, hash, self.state.nonce(tx.from))?;
        self.log_record(|| WalRecord::SubmitTx(tx.clone()))?;
        self.pool.commit_insert(tx, hash, plan);
        self.note_pool_depth();
        Ok(hash)
    }

    /// Queue a batch of transactions without mining, appending all of
    /// their WAL records with a single fsync (group commit); returns the
    /// stable hashes in submission order. Panics on a durability failure
    /// — see [`LocalNode::try_submit_transactions`].
    pub fn submit_transactions(&mut self, txs: Vec<Transaction>) -> Vec<H256> {
        self.try_submit_transactions(txs)
            .expect("durability failure")
    }

    /// [`LocalNode::submit_transactions`], surfacing failures.
    ///
    /// Either the whole batch becomes durable (then pooled) or none of
    /// it does: the batch is staged on a scratch copy of the pool where
    /// every insert runs the full live decision — nonce resolution
    /// against earlier batch entries, duplicate, replacement and
    /// eviction rules — and the first rejection aborts the batch before
    /// anything touches the WAL. The WAL rolls back to the pre-batch
    /// offset on any append or fsync failure, so recovery never observes
    /// a partial batch; committing the staged pool wholesale equals the
    /// sequential per-record inserts replay performs.
    pub fn try_submit_transactions(&mut self, txs: Vec<Transaction>) -> Result<Vec<H256>, TxError> {
        if txs.is_empty() {
            return Ok(Vec::new());
        }
        let mut staged = self.pool.clone();
        let mut resolved = Vec::with_capacity(txs.len());
        let mut hashes = Vec::with_capacity(txs.len());
        for mut tx in txs {
            let state_nonce = self.state.nonce(tx.from);
            let nonce = tx
                .nonce
                .unwrap_or_else(|| staged.next_nonce(tx.from, state_nonce));
            tx.nonce = Some(nonce);
            let hash = tx.hash(nonce);
            staged.insert(tx.clone(), hash, state_nonce)?;
            hashes.push(hash);
            resolved.push(tx);
        }
        self.log_batch(|| resolved.iter().cloned().map(WalRecord::SubmitTx).collect())?;
        self.pool = staged;
        self.note_pool_depth();
        Ok(hashes)
    }

    /// Number of pooled transactions (ready + gap-parked).
    pub fn pending_count(&self) -> usize {
        self.pool.len()
    }

    /// Current state epoch (see the field docs); pure submissions do not
    /// bump it.
    pub fn state_epoch(&self) -> u64 {
        self.state_epoch
    }

    /// Mine every queued transaction into ONE block (in submission order),
    /// executing them in parallel where their state accesses are disjoint.
    /// Returns the sealed block and the errors of transactions that failed
    /// validation (they are dropped, matching dev-node behaviour).
    ///
    /// The result — state, receipts, gas totals, errors — is bit-identical
    /// to [`LocalNode::mine_block_sequential`]: transactions execute
    /// speculatively against the block-start state with their read/write
    /// sets recorded, then commit in submission order; any transaction
    /// whose reads were invalidated by an earlier commit (or that observes
    /// the coinbase account after fees started accruing) is re-executed
    /// against the committed state, which is exactly the sequential view.
    pub fn mine_block(&mut self) -> (Block, Vec<TxError>) {
        self.try_mine_block().expect("durability failure")
    }

    /// [`LocalNode::mine_block`], surfacing durability failures.
    pub fn try_mine_block(&mut self) -> Result<(Block, Vec<TxError>), TxError> {
        self.log_record(|| WalRecord::MineBlock { take: None })?;
        Ok(self.mine_block_inner(None))
    }

    /// Drain up to `take` ready transactions from the pool in priority
    /// order (everything ready when `None`). Gap-parked transactions
    /// stay pooled — no gap execution, ever.
    fn drain_ready(&mut self, take: Option<usize>) -> Vec<Transaction> {
        let state = &self.state;
        self.pool.take_ready(|address| state.nonce(address), take)
    }

    fn mine_block_inner(&mut self, take: Option<usize>) -> (Block, Vec<TxError>) {
        let pending = self.drain_ready(take);
        let workers = self.config.workers();
        if pending.len() < 2 || workers < 2 {
            return self.mine_batch_sequential(pending);
        }

        let env = self.block_env();
        let outcomes = parallel::speculate_batch(
            &self.state,
            &env,
            self.config.block_gas_limit,
            self.shadow.recent_hashes(),
            &pending,
            workers,
        );
        self.commit_speculated(&pending, outcomes, &env)
    }

    /// The ordered, conflict-checked commit pass shared by in-lock batch
    /// mining and the pipelined producer: transactions committed in batch
    /// order; any whose speculative reads were invalidated by an earlier
    /// commit (or that observes the coinbase balance after fees started
    /// accruing) is re-executed against the committed state — which is
    /// exactly the sequential view, making the result bit-identical to
    /// [`LocalNode::mine_block_sequential`] no matter where the
    /// speculation ran.
    fn commit_speculated(
        &mut self,
        pending: &[Transaction],
        outcomes: Vec<parallel::SpecOutcome>,
        env: &BlockEnv,
    ) -> (Block, Vec<TxError>) {
        let coinbase = self.config.coinbase;
        let block_gas_limit = self.config.block_gas_limit;
        let mut committed_writes: FxHashSet<AccessKey> = FxHashSet::default();
        let mut any_committed = false;
        let mut executed = Vec::with_capacity(pending.len());
        let mut errors = Vec::new();
        for (tx, speculated) in pending.iter().zip(outcomes) {
            if let Err(error) = self
                .check_deploy_guard(tx)
                .and_then(|()| self.check_upgrade_guard(tx))
            {
                errors.push(error);
                continue;
            }
            let stale = speculated.access.reads_conflict_with(&committed_writes)
                || (any_committed && speculated.access.touches_account_balance(coinbase));
            let outcome = if stale {
                // Re-execute against the committed state: at this point it
                // is exactly what sequential mining would see.
                parallel::speculate(
                    &self.state,
                    env,
                    block_gas_limit,
                    self.shadow.recent_hashes(),
                    tx,
                )
            } else {
                speculated
            };
            match outcome.result {
                Ok(entry) => {
                    parallel::apply_writes(&mut self.state, &outcome.access, &outcome.writes);
                    self.state.credit(coinbase, outcome.fee);
                    self.state.commit();
                    committed_writes.extend(outcome.access.writes.iter().copied());
                    any_committed = true;
                    executed.push(entry);
                }
                Err(error) => errors.push(error),
            }
        }
        (self.seal_block(executed), errors)
    }

    /// Mine every queued transaction into ONE block strictly one after
    /// another — the reference implementation [`LocalNode::mine_block`] is
    /// checked against, and the baseline for the speedup benchmarks.
    pub fn mine_block_sequential(&mut self) -> (Block, Vec<TxError>) {
        self.try_mine_block_sequential()
            .expect("durability failure")
    }

    /// [`LocalNode::mine_block_sequential`], surfacing durability
    /// failures. The WAL record is the same `mine_block` intent — both
    /// paths are bit-identical, so recovery replays through the default
    /// engine regardless of which one logged it.
    pub fn try_mine_block_sequential(&mut self) -> Result<(Block, Vec<TxError>), TxError> {
        self.log_record(|| WalRecord::MineBlock { take: None })?;
        let pending = self.drain_ready(None);
        Ok(self.mine_batch_sequential(pending))
    }

    fn mine_batch_sequential(&mut self, pending: Vec<Transaction>) -> (Block, Vec<TxError>) {
        let env = self.block_env();
        let mut executed = Vec::with_capacity(pending.len());
        let mut errors = Vec::new();
        for tx in pending {
            match self.execute_transaction(&tx, &env) {
                Ok(entry) => executed.push(entry),
                Err(e) => errors.push(e),
            }
        }
        (self.seal_block(executed), errors)
    }

    /// Capture everything stage A of the pipelined producer needs under
    /// a brief lock: the exact ready prefix [`LocalNode::mine_block`]
    /// would drain next (order included), the block environment it will
    /// execute under, and the state epoch of the capture. Speculation
    /// then runs *outside* the lock against the published snapshot —
    /// which equals the committed state at this epoch — and
    /// [`LocalNode::commit_pipelined`] refuses the hint if either the
    /// epoch moved or the ready prefix changed in the meantime.
    /// `None` when nothing is ready.
    pub(crate) fn peek_block_hint(&self, take: Option<usize>) -> Option<BlockHint> {
        let state = &self.state;
        let peeked = self.pool.peek_ready(|address| state.nonce(address), take);
        if peeked.is_empty() {
            return None;
        }
        let (hashes, txs) = peeked.into_iter().unzip();
        Some(BlockHint {
            txs,
            hashes,
            take,
            epoch: self.state_epoch,
            env: self.block_env(),
        })
    }

    /// Stage B of the pipeline: re-validate a hint and commit its
    /// speculated outcomes as the next block. The hint is fresh iff the
    /// state epoch is unchanged (no block sealed, no time warp, revert
    /// or import since the peek) *and* the pool's ready prefix still
    /// drains the identical transaction sequence (concurrent submissions
    /// that would reorder or replace any hinted transaction invalidate
    /// it). A stale hint falls back to plain in-lock mining —
    /// correctness never depends on the fast path. The `MineBlock`
    /// record carries the drained count so WAL replay takes exactly the
    /// same prefix.
    pub(crate) fn commit_pipelined(
        &mut self,
        hint: &BlockHint,
        outcomes: Vec<parallel::SpecOutcome>,
    ) -> Result<(Block, Vec<TxError>), TxError> {
        let fresh = self.state_epoch == hint.epoch && outcomes.len() == hint.txs.len() && {
            let state = &self.state;
            let peeked = self
                .pool
                .peek_ready(|address| state.nonce(address), hint.take);
            peeked.len() == hint.hashes.len()
                && peeked
                    .iter()
                    .map(|(hash, _)| *hash)
                    .eq(hint.hashes.iter().copied())
        };
        if !fresh {
            return self.try_mine_block();
        }
        self.log_record(|| WalRecord::MineBlock {
            take: Some(hint.txs.len()),
        })?;
        let drained = self.drain_ready(Some(hint.txs.len()));
        debug_assert_eq!(drained.len(), hint.txs.len(), "validated prefix drains");
        Ok(self.commit_speculated(&drained, outcomes, &hint.env))
    }

    /// Mine one block through the two-stage pipelined path
    /// *synchronously*: stage A speculates against the published
    /// snapshot (exactly what the producer thread does lock-free),
    /// stage B validates the hint and commits. Exists so tests and
    /// benches can drive the pipelined engine deterministically; the
    /// result is bit-identical to [`LocalNode::mine_block`].
    pub fn try_mine_block_pipelined(&mut self) -> Result<(Block, Vec<TxError>), TxError> {
        let Some(hint) = self.peek_block_hint(None) else {
            return self.try_mine_block();
        };
        let snapshot = self.published_snapshot();
        let workers = self.config.workers();
        let outcomes = parallel::speculate_batch(
            snapshot.as_ref(),
            &hint.env,
            self.config.block_gas_limit,
            snapshot.recent_hashes(),
            &hint.txs,
            workers,
        );
        self.commit_pipelined(&hint, outcomes)
    }

    /// `debug_traceCall`: execute a read-only call with a structured
    /// instruction trace. Runs over an overlay host — the shared state
    /// (journal, analysis caches) is never touched.
    pub fn debug_trace_call(
        &self,
        from: Address,
        to: Address,
        data: Vec<u8>,
    ) -> (CallResult, Vec<lsc_evm::TraceStep>) {
        let env = self.block_env();
        mvcc::run_trace_call(
            &self.state,
            &env,
            self.shadow.recent_hashes(),
            from,
            to,
            data,
        )
    }

    /// Execute a read-only call (`eth_call`): writes land in a private
    /// overlay and are discarded — the shared journaled state is never
    /// mutated (no checkpoint, no rollback, no cache churn).
    pub fn call(&self, from: Address, to: Address, data: Vec<u8>) -> CallResult {
        let env = self.block_env();
        mvcc::run_call(
            &self.state,
            &env,
            self.shadow.recent_hashes(),
            from,
            to,
            data,
        )
    }

    /// Estimate the gas a transaction would use (`eth_estimateGas`):
    /// executes against a private overlay and reports actual usage.
    pub fn estimate_gas(&self, tx: &Transaction) -> Result<u64, TxError> {
        let env = self.block_env();
        Ok(mvcc::run_estimate(
            &self.state,
            &env,
            self.shadow.recent_hashes(),
            self.config.block_gas_limit,
            tx,
        ))
    }
}

// ---- durability ------------------------------------------------------

fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta.json")
}

fn meta_json(config: &ChainConfig, n_accounts: usize) -> String {
    JsonValue::object([
        ("chain_id", JsonValue::Number(config.chain_id as f64)),
        (
            "block_gas_limit",
            JsonValue::Number(config.block_gas_limit as f64),
        ),
        ("block_time", JsonValue::Number(config.block_time as f64)),
        (
            "genesis_timestamp",
            JsonValue::Number(config.genesis_timestamp as f64),
        ),
        ("coinbase", JsonValue::String(config.coinbase.to_string())),
        (
            "mining_workers",
            match config.mining_workers {
                Some(n) => JsonValue::Number(n as f64),
                None => JsonValue::Null,
            },
        ),
        ("max_pending", JsonValue::Number(config.max_pending as f64)),
        (
            "state_cache_bytes",
            JsonValue::Number(config.state_cache_bytes as f64),
        ),
        (
            "auto_compact_segments",
            match config.auto_compact_segments {
                Some(n) => JsonValue::Number(n as f64),
                None => JsonValue::Null,
            },
        ),
        ("n_accounts", JsonValue::Number(n_accounts as f64)),
    ])
    .to_json()
}

fn parse_meta(text: &str) -> Result<(ChainConfig, usize), WalError> {
    let corrupt = |m: String| WalError::Corrupt(format!("meta.json: {m}"));
    let doc = parse(text).map_err(|e| corrupt(e.to_string()))?;
    let mining_workers = match doc.get("mining_workers") {
        Some(JsonValue::Number(n)) if *n >= 0.0 => Some(*n as usize),
        _ => None,
    };
    // Metas written before the queue bound existed fall back to the
    // default — the cap must survive restarts, not weaken across them.
    let max_pending = match doc.get("max_pending") {
        Some(JsonValue::Number(n)) if *n >= 1.0 => *n as usize,
        _ => DEFAULT_MAX_PENDING,
    };
    // Both trie-store knobs post-date early metas; absent fields fall
    // back to the defaults rather than failing the whole recovery.
    let state_cache_bytes = match doc.get("state_cache_bytes") {
        Some(JsonValue::Number(n)) if *n >= 1.0 => *n as usize,
        _ => DEFAULT_CACHE_BYTES,
    };
    let auto_compact_segments = match doc.get("auto_compact_segments") {
        Some(JsonValue::Number(n)) if *n >= 1.0 => Some(*n as u64),
        _ => None,
    };
    let config = ChainConfig {
        chain_id: crate::codec::u64_field(&doc, "chain_id").map_err(corrupt)?,
        block_gas_limit: crate::codec::u64_field(&doc, "block_gas_limit").map_err(corrupt)?,
        block_time: crate::codec::u64_field(&doc, "block_time").map_err(corrupt)?,
        genesis_timestamp: crate::codec::u64_field(&doc, "genesis_timestamp").map_err(corrupt)?,
        coinbase: crate::codec::address_field(&doc, "coinbase").map_err(corrupt)?,
        mining_workers,
        max_pending,
        // Guards are code, not data: whoever recovers the node re-installs
        // theirs after replay (replayed deployments already passed it).
        deploy_guard: None,
        upgrade_guard: None,
        state_cache_bytes,
        auto_compact_segments,
    };
    let n_accounts = crate::codec::u64_field(&doc, "n_accounts").map_err(corrupt)? as usize;
    Ok((config, n_accounts))
}

impl LocalNode {
    /// Open a durable node in `dir`: start fresh (recording the chain
    /// parameters in `meta.json` and appending every state-changing
    /// intent to the write-ahead log) or, if the directory already holds
    /// a chain, recover it — so a restarting process needs only this one
    /// entry point.
    pub fn open(
        dir: &Path,
        config: ChainConfig,
        n_accounts: usize,
        faults: Faults,
    ) -> Result<LocalNode, WalError> {
        if meta_path(dir).exists() {
            let mut node = LocalNode::recover(dir, faults)?;
            // Guards are code, not data: meta.json cannot carry them, so
            // the caller's hooks are re-installed over the replayed chain
            // (every replayed transaction already passed them — the WAL
            // only ever holds admitted submissions).
            node.config.deploy_guard = config.deploy_guard;
            node.config.upgrade_guard = config.upgrade_guard;
            return Ok(node);
        }
        std::fs::create_dir_all(dir).map_err(|e| WalError::Io(format!("create data dir: {e}")))?;
        // Meta is written once, before any user data exists, and is
        // idempotent — it bypasses the fault hooks so crash-point
        // enumeration covers data operations only.
        wal::write_durable(
            &meta_path(dir),
            meta_json(&config, n_accounts).as_bytes(),
            &Faults::none(),
        )?;
        let mut node = LocalNode::with_config(config, n_accounts);
        // Swap the in-memory node store for the disk-backed one; on a
        // fresh chain the rebuild re-hashes the genesis accounts only.
        let mut store = StateStore::open(dir, node.config.state_cache_bytes, faults.clone())?;
        node.state_trie = StateTrie::rebuild_from(&mut store, &node.state)
            .map_err(|e| WalError::Corrupt(format!("state trie rebuild: {e}")))?;
        let _ = node.state.take_trie_dirty();
        node.state_store = store;
        node.durable_log = Some(Wal::open(dir, faults)?);
        Ok(node)
    }

    /// Rebuild a node from `dir`: genesis parameters from `meta.json`,
    /// state from the newest *valid* snapshot (invalid or torn snapshots
    /// are skipped), then every committed WAL record from the snapshot's
    /// `wal_from` segment onward replayed on top — truncating a torn
    /// tail. Execution is deterministic, so the result is bit-identical
    /// to the pre-crash committed state: block hashes, receipts, storage
    /// and the pending queue included.
    pub fn recover(dir: &Path, faults: Faults) -> Result<LocalNode, WalError> {
        let text = std::fs::read_to_string(meta_path(dir))
            .map_err(|e| WalError::Io(format!("read meta.json: {e}")))?;
        let (config, n_accounts) = parse_meta(&text)?;
        let mut node = LocalNode::with_config(config.clone(), n_accounts);
        let mut wal_from = 0;
        for (index, path) in wal::list_snapshots(dir)?.into_iter().rev() {
            let Ok(image) = std::fs::read_to_string(&path) else {
                continue;
            };
            // Import into a throwaway candidate: a snapshot that fails
            // validation mid-way must not taint the recovered node.
            let mut candidate = LocalNode::with_config(config.clone(), n_accounts);
            if candidate.import_snapshot(dir, &image).is_ok() {
                node = candidate;
                wal_from = index;
                break;
            }
        }
        // Attach the disk-backed node store. When its committed root is
        // exactly the imported image's trie root and every reachable
        // node is present and checksummed (the walk verifies both),
        // adopt the pages as-is: restart cost stays O(live state + log
        // tail) — flat in history length. Anything else — no root file,
        // no snapshot, a torn page, a crash between the snapshot rename
        // and the root-file flip — falls back to rebuilding the
        // canonical trie from the imported world state, which lands on
        // the bit-identical root.
        let mut store = StateStore::open(dir, config.state_cache_bytes, faults.clone())?;
        let adopted = match (store.persisted_root(), node.adoptable_root) {
            (Some((root, _)), Some(expected)) if root == expected => {
                let trie = StateTrie::from_root(root);
                trie.live_nodes(&mut store).is_ok().then_some(trie)
            }
            _ => None,
        };
        node.state_store = store;
        node.state_trie = match adopted {
            Some(trie) => trie,
            None => StateTrie::rebuild_from(&mut node.state_store, &node.state)
                .map_err(|e| WalError::Corrupt(format!("state trie rebuild: {e}")))?,
        };
        // Either way the trie now mirrors the imported state exactly;
        // the dirt marks import left behind describe work already done.
        let _ = node.state.take_trie_dirty();
        node.compacted_from = wal_from;
        node.replaying = true;
        for record in wal::committed_records(dir, wal_from)? {
            node.apply_record(record);
        }
        node.replaying = false;
        // Publication was suppressed during replay (sealed blocks went
        // straight into the history); publish the recovered chain once.
        node.rebuild_published();
        node.durable_log = Some(Wal::open(dir, faults)?);
        Ok(node)
    }

    /// Compact the log: rotate to a fresh segment, durably append a
    /// history chunk with the blocks sealed since the last one, publish
    /// a compaction image (state, clock, pool, chunk list) covering
    /// everything before the new segment (each file tmp + fsync + atomic
    /// rename; see [`crate::snapshot`]), then prune the shadowed segments,
    /// older snapshots and unlisted chunks. Crash-safe at every step —
    /// until the image's rename lands, the previous snapshot, its chunks
    /// and the full log remain the recovery source. Returns the first
    /// segment the new snapshot does NOT cover.
    pub fn compact(&mut self) -> Result<u64, WalError> {
        if let Some(reason) = &self.poisoned {
            return Err(WalError::Io(format!("node poisoned: {reason}")));
        }
        // Fold any pending changes first: the image records the live
        // trie's root, which the persisted page store commits below.
        let state_root = self.sync_state_trie();
        let Some(log) = self.durable_log.as_mut() else {
            return Err(WalError::Io("node has no write-ahead log".into()));
        };
        let wal_from = log.rotate()?;
        let dir = log.dir().to_path_buf();
        let faults = log.faults();
        self.history_chunks = self.write_compaction(&dir, wal_from, state_root, &faults)?;
        if let Some(log) = self.durable_log.as_ref() {
            log.prune_segments(wal_from)?;
        }
        for (index, path) in wal::list_snapshots(&dir)? {
            if index < wal_from {
                let _ = std::fs::remove_file(path);
            }
        }
        // Chunks the new image does not list: a superseded series, or an
        // orphan a crash left between a chunk's and an image's rename.
        for (index, path) in wal::list_history(&dir)? {
            if !self.history_chunks.iter().any(|c| c.wal_from == index) {
                let _ = std::fs::remove_file(path);
            }
        }
        // Persist the trie: live nodes to pages (one fsync), then the
        // root file — the page store's atomic commit point. The next
        // restart adopts the pages instead of re-hashing the world
        // state out of the image.
        let live = self
            .state_trie
            .live_nodes(&mut self.state_store)
            .map_err(|e| WalError::Corrupt(format!("state trie walk: {e}")))?;
        self.state_store
            .persist(self.state_trie.root(), self.block_number(), &live)?;
        self.compacted_from = wal_from;
        Ok(wal_from)
    }

    /// Compact automatically once the live log outgrows the configured
    /// segment budget ([`ChainConfig::auto_compact_segments`]).
    /// Best-effort: compaction is crash-safe at every step, so on a
    /// failure the previous snapshot + full log remain the recovery
    /// source and sealing carries on.
    fn maybe_auto_compact(&mut self) {
        if self.replaying || self.poisoned.is_some() {
            return;
        }
        let Some(threshold) = self.config.auto_compact_segments else {
            return;
        };
        let Some(log) = self.durable_log.as_ref() else {
            return;
        };
        if log.segment() >= self.compacted_from + threshold {
            let _ = self.compact();
        }
    }

    /// Append a record for a state change about to be applied; no-op for
    /// in-memory nodes and during replay. The first failure poisons the
    /// node: nothing further applies, so the in-memory state stays equal
    /// to what [`LocalNode::recover`] reproduces from disk.
    fn log_record(&mut self, record: impl FnOnce() -> WalRecord) -> Result<(), TxError> {
        if self.replaying || self.durable_log.is_none() {
            return Ok(());
        }
        if let Some(reason) = &self.poisoned {
            return Err(TxError::Durability(reason.clone()));
        }
        let log = self.durable_log.as_mut().expect("checked above");
        match log.append(&record()) {
            Ok(()) => Ok(()),
            Err(e) => {
                let message = e.to_string();
                self.poisoned = Some(message.clone());
                Err(TxError::Durability(message))
            }
        }
    }

    /// Batch variant of [`LocalNode::log_record`]: appends every record,
    /// then fsyncs once. Same poisoning discipline — a failed batch leaves
    /// no partial frames on disk (the WAL truncates back to the batch
    /// start) and poisons the node.
    fn log_batch(&mut self, records: impl FnOnce() -> Vec<WalRecord>) -> Result<(), TxError> {
        if self.replaying || self.durable_log.is_none() {
            return Ok(());
        }
        if let Some(reason) = &self.poisoned {
            return Err(TxError::Durability(reason.clone()));
        }
        let log = self.durable_log.as_mut().expect("checked above");
        match log.append_batch(&records()) {
            Ok(()) => Ok(()),
            Err(e) => {
                let message = e.to_string();
                self.poisoned = Some(message.clone());
                Err(TxError::Durability(message))
            }
        }
    }

    /// Re-apply one committed record during recovery.
    fn apply_record(&mut self, record: WalRecord) {
        match record {
            // A logged transaction may have failed validation originally;
            // replay reproduces the same (deterministic) outcome.
            WalRecord::InstantTx(tx) => {
                let _ = self.send_transaction(tx);
            }
            // Committed submissions re-enter the queue unconditionally —
            // the cap and duplicate checks already held when the record
            // was logged, and replay must reproduce the committed prefix
            // exactly (never drop below it, never exceed it).
            WalRecord::SubmitTx(tx) => self.enqueue_pending_unchecked(tx),
            WalRecord::MineBlock { take } => {
                let _ = self.mine_block_inner(take);
            }
            WalRecord::IncreaseTime(seconds) => self.timestamp += seconds,
            WalRecord::SetTime(timestamp) => self.timestamp = self.timestamp.max(timestamp),
            WalRecord::Faucet(address, value) => {
                self.state.credit(address, value);
                self.state.commit();
            }
            // Audit marker only — the pointer writes are InstantTx records.
            WalRecord::VersionPointer { .. } => {}
            WalRecord::AppEvent(event) => self.app_events.push(event),
        }
    }

    /// Durably record an opaque app-tier event (user rows, uploads,
    /// version records…); replayed to the app by
    /// [`LocalNode::app_events`] after recovery. The node retains the
    /// cumulative event history so compaction can fold it into the
    /// snapshot image — otherwise pruning WAL segments would lose the
    /// app tier while keeping the chain.
    pub fn append_app_event(&mut self, event: &str) -> Result<(), TxError> {
        self.log_record(|| WalRecord::AppEvent(event.to_string()))?;
        self.app_events.push(event.to_string());
        Ok(())
    }

    /// Durably mark a version-chain pointer update (the Fig. 2 evidence
    /// line) in the log.
    pub fn note_version_pointer(
        &mut self,
        previous: Address,
        next: Address,
    ) -> Result<(), TxError> {
        self.log_record(|| WalRecord::VersionPointer { previous, next })
    }

    /// The full app-tier event history, in append order: events replayed
    /// during recovery (from snapshot and WAL) plus everything appended
    /// since. The app tier rebuilds its database by replaying these.
    pub fn app_events(&self) -> &[String] {
        &self.app_events
    }

    /// Directory the write-ahead log lives in, if the node is durable.
    pub fn data_dir(&self) -> Option<&Path> {
        self.durable_log.as_ref().map(super::wal::Wal::dir)
    }

    /// Index of the WAL segment currently appended to, if durable.
    pub fn wal_segment(&self) -> Option<u64> {
        self.durable_log.as_ref().map(super::wal::Wal::segment)
    }

    /// The first durability failure, if the node is poisoned.
    pub fn poisoned_reason(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    // -- snapshot plumbing (full-image export/import lives in snapshot.rs)

    /// The committed history (blocks, receipts) — image export.
    pub(crate) fn history(&self) -> &CommittedSnapshot {
        &self.shadow
    }

    /// The committed world state — image export.
    pub(crate) fn world_state(&self) -> &WorldState {
        &self.state
    }

    /// The history chunks the newest compaction image lists.
    pub(crate) fn history_chunks(&self) -> &[HistoryChunk] {
        &self.history_chunks
    }

    pub(crate) fn set_history_chunks(&mut self, chunks: Vec<HistoryChunk>) {
        self.history_chunks = chunks;
    }

    /// Pooled transactions in arrival order (snapshot-image export).
    pub(crate) fn pending_txs(&self) -> Vec<Transaction> {
        self.pool.dump()
    }

    /// Full pool content split into `(ready, parked)` per-sender groups
    /// — the `txpool_content` introspection shape.
    #[allow(clippy::type_complexity)]
    pub fn txpool_content(
        &self,
    ) -> (
        Vec<(Address, u64, Transaction)>,
        Vec<(Address, u64, Transaction)>,
    ) {
        let state = &self.state;
        self.pool.content(|address| state.nonce(address))
    }

    /// `(ready, parked)` pool counts — the `txpool_status` split.
    pub fn txpool_status(&self) -> (usize, usize) {
        let state = &self.state;
        self.pool.status(|address| state.nonce(address))
    }

    pub(crate) fn install_history(&mut self, blocks: Vec<Block>, receipts: Vec<Receipt>) {
        self.shadow.install_history(blocks, receipts);
    }

    /// Replace the pool with a dumped transaction list (image import,
    /// snapshot revert). Entries install verbatim in dump order — no
    /// cap, duplicate or replacement checks; the dump is authoritative —
    /// so arrival order, and with it every equal-price tie-break, is
    /// reconstructed exactly.
    pub(crate) fn install_pending(&mut self, pending: Vec<Transaction>) {
        self.pool = Mempool::new(self.config.max_pending);
        for mut tx in pending {
            let nonce = tx
                .nonce
                .unwrap_or_else(|| self.pool.next_nonce(tx.from, self.state.nonce(tx.from)));
            tx.nonce = Some(nonce);
            let hash = tx.hash(nonce);
            self.pool.insert_unchecked(tx, hash);
        }
    }

    pub(crate) fn install_app_events(&mut self, events: Vec<String>) {
        self.app_events = events;
    }

    pub(crate) fn set_clock(&mut self, timestamp: u64) {
        self.timestamp = timestamp;
    }
}

/// Adapter implementing the EVM [`Host`] over [`WorldState`].
struct StateHost<'a> {
    state: &'a mut WorldState,
    env: &'a BlockEnv,
    gas_price: U256,
    logs: Vec<Log>,
    /// Snapshot id → (state checkpoint, logs length).
    snapshots: Vec<(usize, usize)>,
    recent_hashes: &'a [(u64, H256)],
}

impl Host for StateHost<'_> {
    fn block(&self) -> &BlockEnv {
        self.env
    }

    fn blockhash(&self, number: u64) -> H256 {
        self.recent_hashes
            .iter()
            .find(|(n, _)| *n == number)
            .map_or(H256::ZERO, |(_, h)| *h)
    }

    fn gas_price(&self) -> U256 {
        self.gas_price
    }

    fn exists(&self, address: Address) -> bool {
        self.state.exists(address)
    }

    fn balance(&self, address: Address) -> U256 {
        self.state.balance(address)
    }

    fn nonce(&self, address: Address) -> u64 {
        self.state.nonce(address)
    }

    fn code(&self, address: Address) -> Vec<u8> {
        self.state.code(address).as_ref().clone()
    }

    fn code_hash(&self, address: Address) -> H256 {
        self.state.code_hash(address)
    }

    fn code_analysis(&self, address: Address) -> Arc<AnalyzedCode> {
        self.state.code_analysis(address)
    }

    fn sload(&mut self, address: Address, key: U256) -> U256 {
        self.state.storage(address, key)
    }

    fn sstore(&mut self, address: Address, key: U256, value: U256) -> U256 {
        self.state.set_storage(address, key, value)
    }

    fn mint(&mut self, to: Address, value: U256) {
        self.state.credit(to, value);
    }

    fn debit(&mut self, from: Address, value: U256) -> bool {
        self.state.debit(from, value)
    }

    fn inc_nonce(&mut self, address: Address) -> u64 {
        let nonce = self.state.nonce(address);
        self.state.set_nonce(address, nonce + 1);
        nonce
    }

    fn set_code(&mut self, address: Address, code: Vec<u8>) {
        self.state.set_code(address, code);
    }

    fn create_account(&mut self, address: Address) {
        self.state.create_account(address);
    }

    fn selfdestruct(&mut self, address: Address, beneficiary: Address) {
        let balance = self.state.balance(address);
        if !balance.is_zero() {
            let debited = self.state.debit(address, balance);
            debug_assert!(debited);
            self.state.credit(beneficiary, balance);
        }
        self.state.destroy_account(address);
    }

    fn log(&mut self, log: Log) {
        self.logs.push(log);
    }

    fn snapshot(&mut self) -> usize {
        self.snapshots
            .push((self.state.checkpoint(), self.logs.len()));
        self.snapshots.len() - 1
    }

    fn revert(&mut self, snapshot: usize) {
        let (checkpoint, logs_len) = self.snapshots[snapshot];
        self.state.revert_to(checkpoint);
        self.logs.truncate(logs_len);
        self.snapshots.truncate(snapshot);
    }
}
