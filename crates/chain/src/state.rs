//! Journaled world state: accounts, balances, nonces, code and storage,
//! with O(changes) snapshots/rollbacks (unlike the clone-everything
//! `MockHost` used in `lsc-evm`'s own tests).

use lsc_evm::analysis::AnalyzedCode;
use lsc_evm::StateView;
use lsc_primitives::{Address, FxHashMap, FxHashSet, H256, U256};
use std::sync::{Arc, OnceLock};

/// One account's state.
#[derive(Debug, Clone, Default)]
pub struct Account {
    /// Balance in wei.
    pub balance: U256,
    /// Transaction/creation counter.
    pub nonce: u64,
    /// Contract code (shared; empty for EOAs).
    pub code: Arc<Vec<u8>>,
    /// Storage slots (zero-valued slots are pruned).
    pub storage: FxHashMap<U256, U256>,
    /// Cached jumpdest/hash analysis of `code`, populated on first
    /// execution and **always consistent with `code`**: every site that
    /// assigns `code` (including journal rollback) resets this slot.
    pub analysis: OnceLock<Arc<AnalyzedCode>>,
}

impl Account {
    /// True when the account holds nothing at all (prunable).
    pub fn is_empty(&self) -> bool {
        self.balance.is_zero() && self.nonce == 0 && self.code.is_empty() && self.storage.is_empty()
    }

    /// The cached code analysis, computing and memoizing it on first use.
    pub fn analysis(&self) -> Arc<AnalyzedCode> {
        self.analysis
            .get_or_init(|| AnalyzedCode::analyze(Arc::clone(&self.code)))
            .clone()
    }
}

/// Reversible operations recorded while executing a transaction.
#[derive(Debug, Clone)]
enum JournalEntry {
    BalanceChange {
        address: Address,
        previous: U256,
    },
    NonceChange {
        address: Address,
        previous: u64,
    },
    StorageChange {
        address: Address,
        key: U256,
        previous: U256,
    },
    CodeChange {
        address: Address,
        previous: Arc<Vec<u8>>,
        /// The analysis cached for `previous`, if any, so rollback can
        /// reinstate the cache together with the code it describes.
        previous_analysis: Option<Arc<AnalyzedCode>>,
    },
    AccountCreated {
        address: Address,
    },
    AccountDestroyed {
        address: Address,
        previous: Box<Account>,
    },
}

/// Per-account dirt granularity for the authenticated state trie:
/// `Some(slots)` means only those storage slots (plus the account
/// fields) changed — the trie updates them incrementally; `None` means
/// the storage set changed wholesale (destroy/restore) and the
/// account's storage trie is rebuilt from scratch.
pub type TrieDirt = Option<FxHashSet<U256>>;

/// The full world state with an undo journal.
#[derive(Debug, Default)]
pub struct WorldState {
    accounts: FxHashMap<Address, Account>,
    journal: Vec<JournalEntry>,
    /// Addresses whose state may have changed since the last
    /// [`WorldState::take_dirty`] — the copy-on-write seed for MVCC
    /// snapshot publication (only these accounts are re-shared).
    dirty: FxHashSet<Address>,
    /// Slot-granular dirt since the last [`WorldState::take_trie_dirty`]
    /// — tells the state trie exactly which paths to rehash at the next
    /// block seal. Kept separate from `dirty`, which the (more frequent)
    /// MVCC publication drains.
    trie_dirty: FxHashMap<Address, TrieDirt>,
}

impl WorldState {
    /// Empty state.
    pub fn new() -> Self {
        WorldState::default()
    }

    /// Number of live (non-empty) accounts.
    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }

    /// Immutable account view.
    pub fn account(&self, address: Address) -> Option<&Account> {
        self.accounts.get(&address)
    }

    /// Does the account exist?
    pub fn exists(&self, address: Address) -> bool {
        self.accounts.contains_key(&address)
    }

    /// Balance (zero for unknown accounts).
    pub fn balance(&self, address: Address) -> U256 {
        self.accounts
            .get(&address)
            .map_or(U256::ZERO, |a| a.balance)
    }

    /// Nonce (zero for unknown accounts).
    pub fn nonce(&self, address: Address) -> u64 {
        self.accounts.get(&address).map_or(0, |a| a.nonce)
    }

    /// Code (shared buffer; empty for unknown accounts).
    pub fn code(&self, address: Address) -> Arc<Vec<u8>> {
        self.accounts
            .get(&address)
            .map(|a| Arc::clone(&a.code))
            .unwrap_or_default()
    }

    /// Keccak hash of the code, or the zero hash for empty accounts.
    /// Served from the account's cached analysis: keccak runs at most
    /// once per distinct code blob.
    pub fn code_hash(&self, address: Address) -> H256 {
        match self.accounts.get(&address) {
            Some(a) if !a.code.is_empty() => a.analysis().code_hash(),
            _ => H256::ZERO,
        }
    }

    /// Cached jumpdest/hash analysis of the account's code.
    pub fn code_analysis(&self, address: Address) -> Arc<AnalyzedCode> {
        match self.accounts.get(&address) {
            Some(a) if !a.code.is_empty() => a.analysis(),
            _ => AnalyzedCode::empty(),
        }
    }

    /// Read a storage slot.
    pub fn storage(&self, address: Address, key: U256) -> U256 {
        self.accounts
            .get(&address)
            .and_then(|a| a.storage.get(&key).copied())
            .unwrap_or(U256::ZERO)
    }

    /// Iterate all storage slots of an account (test/diagnostic helper).
    pub fn storage_of(&self, address: Address) -> impl Iterator<Item = (&U256, &U256)> {
        self.accounts
            .get(&address)
            .into_iter()
            .flat_map(|a| a.storage.iter())
    }

    fn entry(&mut self, address: Address) -> &mut Account {
        self.accounts.entry(address).or_default()
    }

    /// Mark an account's non-storage fields trie-dirty. A `None`
    /// (rebuild-wholesale) mark is never downgraded.
    fn mark_trie_account(&mut self, address: Address) {
        self.trie_dirty
            .entry(address)
            .or_insert_with(|| Some(FxHashSet::default()));
    }

    /// Mark one storage slot trie-dirty.
    fn mark_trie_slot(&mut self, address: Address, key: U256) {
        if let Some(slots) = self
            .trie_dirty
            .entry(address)
            .or_insert_with(|| Some(FxHashSet::default()))
        {
            slots.insert(key);
        }
    }

    /// Mark an account's storage as changed wholesale (destroy/restore):
    /// the trie rebuilds its storage trie from the account state.
    fn mark_trie_wholesale(&mut self, address: Address) {
        self.trie_dirty.insert(address, None);
    }

    /// Set a balance, journaling the previous value.
    pub fn set_balance(&mut self, address: Address, balance: U256) {
        let previous = self.balance(address);
        self.journal
            .push(JournalEntry::BalanceChange { address, previous });
        self.dirty.insert(address);
        self.mark_trie_account(address);
        self.entry(address).balance = balance;
    }

    /// Credit `value` wei.
    pub fn credit(&mut self, address: Address, value: U256) {
        let balance = self.balance(address);
        self.set_balance(address, balance + value);
    }

    /// Debit `value` wei; `false` (and no change) on insufficient funds.
    #[must_use]
    pub fn debit(&mut self, address: Address, value: U256) -> bool {
        let balance = self.balance(address);
        if balance < value {
            return false;
        }
        self.set_balance(address, balance - value);
        true
    }

    /// Set a nonce, journaling the previous value.
    pub fn set_nonce(&mut self, address: Address, nonce: u64) {
        let previous = self.nonce(address);
        self.journal
            .push(JournalEntry::NonceChange { address, previous });
        self.dirty.insert(address);
        self.mark_trie_account(address);
        self.entry(address).nonce = nonce;
    }

    /// Write a storage slot, journaling; returns the previous value.
    pub fn set_storage(&mut self, address: Address, key: U256, value: U256) -> U256 {
        let previous = self.storage(address, key);
        self.journal.push(JournalEntry::StorageChange {
            address,
            key,
            previous,
        });
        self.dirty.insert(address);
        self.mark_trie_slot(address, key);
        let account = self.entry(address);
        if value.is_zero() {
            account.storage.remove(&key);
        } else {
            account.storage.insert(key, value);
        }
        previous
    }

    /// Install contract code.
    pub fn set_code(&mut self, address: Address, code: Vec<u8>) {
        self.install_code(address, Arc::new(code), None);
    }

    /// Install an already-shared code blob, optionally together with its
    /// analysis (parallel commit reuses the overlay account's cache
    /// instead of copying the bytecode and re-analyzing). Journaled like
    /// [`WorldState::set_code`]; the cache slot is reset so it can never
    /// describe stale code.
    pub fn install_code(
        &mut self,
        address: Address,
        code: Arc<Vec<u8>>,
        analysis: Option<Arc<AnalyzedCode>>,
    ) {
        self.dirty.insert(address);
        self.mark_trie_account(address);
        let entry = self.accounts.entry(address).or_default();
        let previous = Arc::clone(&entry.code);
        let previous_analysis = entry.analysis.get().cloned();
        self.journal.push(JournalEntry::CodeChange {
            address,
            previous,
            previous_analysis,
        });
        entry.code = code;
        entry.analysis = OnceLock::new();
        if let Some(analysis) = analysis {
            let _ = entry.analysis.set(analysis);
        }
    }

    /// Mark an account created (so rollback can remove it again).
    pub fn create_account(&mut self, address: Address) {
        if !self.exists(address) {
            self.journal.push(JournalEntry::AccountCreated { address });
            self.dirty.insert(address);
            self.mark_trie_account(address);
            self.accounts.insert(address, Account::default());
        }
    }

    /// Delete an account, journaling its full previous state.
    pub fn destroy_account(&mut self, address: Address) {
        if let Some(account) = self.accounts.remove(&address) {
            self.journal.push(JournalEntry::AccountDestroyed {
                address,
                previous: Box::new(account),
            });
            self.dirty.insert(address);
            self.mark_trie_wholesale(address);
        }
    }

    /// Current journal length — pass to [`WorldState::revert_to`].
    pub fn checkpoint(&self) -> usize {
        self.journal.len()
    }

    /// Undo everything journaled after `checkpoint`.
    ///
    /// Reverted addresses are re-marked dirty: relative to the last
    /// published snapshot their value may still differ (publication
    /// re-shares them; re-sharing an unchanged account is merely
    /// redundant, never wrong).
    pub fn revert_to(&mut self, checkpoint: usize) {
        while self.journal.len() > checkpoint {
            match self.journal.pop().expect("len > checkpoint") {
                JournalEntry::BalanceChange { address, previous } => {
                    self.dirty.insert(address);
                    self.mark_trie_account(address);
                    self.entry(address).balance = previous;
                }
                JournalEntry::NonceChange { address, previous } => {
                    self.dirty.insert(address);
                    self.mark_trie_account(address);
                    self.entry(address).nonce = previous;
                }
                JournalEntry::StorageChange {
                    address,
                    key,
                    previous,
                } => {
                    self.dirty.insert(address);
                    self.mark_trie_slot(address, key);
                    let account = self.entry(address);
                    if previous.is_zero() {
                        account.storage.remove(&key);
                    } else {
                        account.storage.insert(key, previous);
                    }
                }
                JournalEntry::CodeChange {
                    address,
                    previous,
                    previous_analysis,
                } => {
                    self.dirty.insert(address);
                    self.mark_trie_account(address);
                    let account = self.entry(address);
                    account.code = previous;
                    // Reinstate the cache that described the restored
                    // code (or clear it: never leave a stale analysis).
                    account.analysis = OnceLock::new();
                    if let Some(analysis) = previous_analysis {
                        let _ = account.analysis.set(analysis);
                    }
                }
                JournalEntry::AccountCreated { address } => {
                    self.dirty.insert(address);
                    self.mark_trie_account(address);
                    self.accounts.remove(&address);
                }
                JournalEntry::AccountDestroyed { address, previous } => {
                    self.dirty.insert(address);
                    // The full storage map comes back: rebuild wholesale.
                    self.mark_trie_wholesale(address);
                    self.accounts.insert(address, *previous);
                }
            }
        }
    }

    /// Drop journal history (end of a committed transaction). State keeps
    /// its current values; earlier checkpoints become invalid.
    pub fn commit(&mut self) {
        self.journal.clear();
    }

    /// Iterate all accounts (node snapshots, diagnostics).
    pub fn iter_accounts(&self) -> impl Iterator<Item = (&Address, &Account)> {
        self.accounts.iter()
    }

    /// Install an account wholesale (node snapshot restore). Not journaled.
    pub fn restore_account(&mut self, address: Address, account: Account) {
        self.dirty.insert(address);
        self.mark_trie_wholesale(address);
        self.accounts.insert(address, account);
    }

    /// Drain the set of addresses touched since the last call. The MVCC
    /// publication path re-shares exactly these accounts into the next
    /// [`crate::mvcc::CommittedSnapshot`].
    pub fn take_dirty(&mut self) -> FxHashSet<Address> {
        std::mem::take(&mut self.dirty)
    }

    /// Drain the slot-granular trie dirt accumulated since the last call
    /// — consumed once per sealed block by the state trie's incremental
    /// rehash (see `StateTrie::apply`).
    pub fn take_trie_dirty(&mut self) -> FxHashMap<Address, TrieDirt> {
        std::mem::take(&mut self.trie_dirty)
    }

    /// Current journal depth (diagnostic: read-only call paths must leave
    /// this untouched).
    pub fn journal_depth(&self) -> usize {
        self.journal.len()
    }
}

/// A journaled world state doubles as an immutable [`StateView`] between
/// mutations: the node's `&mut` read-only entry points run a
/// [`lsc_evm::SnapshotHost`] directly over `&self.state` with zero
/// journal traffic.
impl StateView for WorldState {
    fn view_exists(&self, address: Address) -> bool {
        self.exists(address)
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
        self.code_analysis(address)
    }
    fn view_storage(&self, address: Address, key: U256) -> U256 {
        self.storage(address, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(label: &str) -> Address {
        Address::from_label(label)
    }

    #[test]
    fn balances_credit_debit() {
        let mut s = WorldState::new();
        s.credit(a("x"), U256::from_u64(100));
        assert!(s.debit(a("x"), U256::from_u64(40)));
        assert_eq!(s.balance(a("x")), U256::from_u64(60));
        assert!(!s.debit(a("x"), U256::from_u64(61)));
        assert_eq!(s.balance(a("x")), U256::from_u64(60));
    }

    #[test]
    fn rollback_restores_prior_state() {
        let mut s = WorldState::new();
        s.credit(a("x"), U256::from_u64(10));
        s.set_storage(a("x"), U256::ONE, U256::from_u64(5));
        s.commit();
        let cp = s.checkpoint();
        s.set_balance(a("x"), U256::ZERO);
        s.set_storage(a("x"), U256::ONE, U256::from_u64(99));
        s.set_storage(a("x"), U256::from_u64(2), U256::from_u64(7));
        s.set_code(a("x"), vec![1, 2, 3]);
        s.set_nonce(a("x"), 9);
        s.create_account(a("y"));
        s.revert_to(cp);
        assert_eq!(s.balance(a("x")), U256::from_u64(10));
        assert_eq!(s.storage(a("x"), U256::ONE), U256::from_u64(5));
        assert_eq!(s.storage(a("x"), U256::from_u64(2)), U256::ZERO);
        assert!(s.code(a("x")).is_empty());
        assert_eq!(s.nonce(a("x")), 0);
        assert!(!s.exists(a("y")));
    }

    #[test]
    fn nested_checkpoints() {
        let mut s = WorldState::new();
        s.set_storage(a("x"), U256::ONE, U256::from_u64(1));
        let outer = s.checkpoint();
        s.set_storage(a("x"), U256::ONE, U256::from_u64(2));
        let inner = s.checkpoint();
        s.set_storage(a("x"), U256::ONE, U256::from_u64(3));
        s.revert_to(inner);
        assert_eq!(s.storage(a("x"), U256::ONE), U256::from_u64(2));
        s.revert_to(outer);
        assert_eq!(s.storage(a("x"), U256::ONE), U256::from_u64(1));
    }

    #[test]
    fn destroy_and_restore_account() {
        let mut s = WorldState::new();
        s.credit(a("c"), U256::from_u64(5));
        s.set_code(a("c"), vec![0xfe]);
        s.commit();
        let cp = s.checkpoint();
        s.destroy_account(a("c"));
        assert!(!s.exists(a("c")));
        s.revert_to(cp);
        assert_eq!(s.balance(a("c")), U256::from_u64(5));
        assert_eq!(*s.code(a("c")), vec![0xfe]);
    }

    #[test]
    fn zero_storage_pruned() {
        let mut s = WorldState::new();
        s.set_storage(a("x"), U256::ONE, U256::from_u64(3));
        s.set_storage(a("x"), U256::ONE, U256::ZERO);
        assert_eq!(s.account(a("x")).unwrap().storage.len(), 0);
    }

    #[test]
    fn commit_invalidates_journal_but_keeps_state() {
        let mut s = WorldState::new();
        s.credit(a("x"), U256::from_u64(10));
        s.commit();
        assert_eq!(s.checkpoint(), 0);
        assert_eq!(s.balance(a("x")), U256::from_u64(10));
    }
}
