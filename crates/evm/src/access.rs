//! Per-transaction state access tracking for optimistic parallel
//! execution.
//!
//! `lsc-chain`'s Block-STM-lite block builder executes queued
//! transactions speculatively against a snapshot of the world state and
//! needs to know, per transaction, exactly which pieces of state were
//! read and written — at account-field and storage-slot granularity — so
//! that it can commit non-conflicting transactions in submission order
//! and re-execute the rest sequentially. [`RecordingHost`] wraps any
//! [`Host`] and records that [`AccessSet`] as execution proceeds.

use crate::analysis::AnalyzedCode;
use crate::host::{BlockEnv, Host, Log};
use lsc_primitives::{Address, FxHashSet, H256, U256};
use std::cell::RefCell;
use std::sync::Arc;

/// One trackable piece of world state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKey {
    /// An account's balance.
    Balance(Address),
    /// An account's nonce.
    Nonce(Address),
    /// An account's code.
    Code(Address),
    /// Whether the account exists at all.
    Existence(Address),
    /// One storage slot of an account.
    Storage(Address, U256),
    /// Every storage slot of an account (produced by SELFDESTRUCT, which
    /// wipes the account wholesale; conflicts with any slot access).
    StorageAll(Address),
}

impl AccessKey {
    /// The account this key belongs to.
    pub fn address(&self) -> Address {
        match self {
            AccessKey::Balance(a)
            | AccessKey::Nonce(a)
            | AccessKey::Code(a)
            | AccessKey::Existence(a)
            | AccessKey::Storage(a, _)
            | AccessKey::StorageAll(a) => *a,
        }
    }
}

/// The read and write sets accumulated over one transaction.
///
/// `AccessKey`s hash keccak-derived addresses and slots, so the sets use
/// the cheap [`FxHashSet`] rather than SipHash.
#[derive(Debug, Clone, Default)]
pub struct AccessSet {
    /// State read during execution (writes that observe the previous
    /// value, like SSTORE, appear in both sets).
    pub reads: FxHashSet<AccessKey>,
    /// State written during execution.
    pub writes: FxHashSet<AccessKey>,
}

impl AccessSet {
    /// Empty set.
    pub fn new() -> Self {
        AccessSet::default()
    }

    /// Record a read.
    pub fn read(&mut self, key: AccessKey) {
        self.reads.insert(key);
    }

    /// Record a write. Writes that observe prior state must additionally
    /// be recorded as reads by the caller.
    pub fn write(&mut self, key: AccessKey) {
        self.writes.insert(key);
    }

    /// Does `key` (a read) collide with `writes` of another transaction,
    /// honouring the wildcard [`AccessKey::StorageAll`]?
    fn key_conflicts(key: &AccessKey, writes: &FxHashSet<AccessKey>) -> bool {
        if writes.contains(key) {
            return true;
        }
        match key {
            // A slot read collides with a whole-account wipe …
            AccessKey::Storage(address, _) => writes.contains(&AccessKey::StorageAll(*address)),
            // … and a wipe collides with any slot write on that account.
            AccessKey::StorageAll(address) => writes
                .iter()
                .any(|w| matches!(w, AccessKey::Storage(a, _) if a == address)),
            _ => false,
        }
    }

    /// True when any of this set's **reads** hits `other_writes`. The
    /// commit loop uses this to decide whether a speculative result
    /// computed against the block-start state is still valid after the
    /// given writes have been applied.
    pub fn reads_conflict_with(&self, other_writes: &FxHashSet<AccessKey>) -> bool {
        self.reads
            .iter()
            .any(|r| Self::key_conflicts(r, other_writes))
    }

    /// True when either set touches the given account's balance or
    /// existence (used for the coinbase, whose fee credits are applied
    /// commutatively outside the recorded write sets).
    pub fn touches_account_balance(&self, address: Address) -> bool {
        let balance = AccessKey::Balance(address);
        let existence = AccessKey::Existence(address);
        self.reads.contains(&balance)
            || self.reads.contains(&existence)
            || self.writes.contains(&balance)
            || self.writes.contains(&existence)
    }
}

/// A [`Host`] adapter recording every state access into an [`AccessSet`]
/// while forwarding to the wrapped host.
///
/// The set lives in a `RefCell` because several [`Host`] reads
/// (`balance`, `nonce`, `code`, `exists`) take `&self`; the wrapper is
/// single-threaded per transaction, so the interior mutability is safe.
///
/// Reverts roll back the inner host but deliberately *not* the recorded
/// sets: a read inside a reverted frame still observed pre-state, and
/// keeping reverted writes only makes conflict detection conservative,
/// never unsound.
#[derive(Debug)]
pub struct RecordingHost<H> {
    /// The wrapped host.
    pub inner: H,
    access: RefCell<AccessSet>,
}

impl<H: Host> RecordingHost<H> {
    /// Wrap `inner` with empty access sets.
    pub fn new(inner: H) -> Self {
        RecordingHost {
            inner,
            access: RefCell::new(AccessSet::new()),
        }
    }

    /// Unwrap, returning the host and the recorded accesses.
    pub fn into_parts(self) -> (H, AccessSet) {
        (self.inner, self.access.into_inner())
    }

    /// Snapshot of the accesses recorded so far.
    pub fn access(&self) -> AccessSet {
        self.access.borrow().clone()
    }

    fn record_read(&self, key: AccessKey) {
        self.access.borrow_mut().read(key);
    }

    fn record_write(&self, key: AccessKey) {
        self.access.borrow_mut().write(key);
    }

    fn note_existence_write(&mut self, address: Address) {
        // Creating an account observes (and changes) its existence.
        if !self.inner.exists(address) {
            self.record_read(AccessKey::Existence(address));
            self.record_write(AccessKey::Existence(address));
        }
    }
}

impl<H: Host> Host for RecordingHost<H> {
    fn block(&self) -> &BlockEnv {
        self.inner.block()
    }

    fn blockhash(&self, number: u64) -> H256 {
        self.inner.blockhash(number)
    }

    fn gas_price(&self) -> U256 {
        self.inner.gas_price()
    }

    fn exists(&self, address: Address) -> bool {
        self.record_read(AccessKey::Existence(address));
        self.inner.exists(address)
    }

    fn balance(&self, address: Address) -> U256 {
        self.record_read(AccessKey::Balance(address));
        self.inner.balance(address)
    }

    fn nonce(&self, address: Address) -> u64 {
        self.record_read(AccessKey::Nonce(address));
        self.inner.nonce(address)
    }

    fn code(&self, address: Address) -> Vec<u8> {
        self.record_read(AccessKey::Code(address));
        self.inner.code(address)
    }

    fn code_hash(&self, address: Address) -> H256 {
        self.record_read(AccessKey::Code(address));
        self.inner.code_hash(address)
    }

    fn code_analysis(&self, address: Address) -> Arc<AnalyzedCode> {
        self.record_read(AccessKey::Code(address));
        self.inner.code_analysis(address)
    }

    fn sload(&mut self, address: Address, key: U256) -> U256 {
        self.record_read(AccessKey::Storage(address, key));
        self.inner.sload(address, key)
    }

    fn sstore(&mut self, address: Address, key: U256, value: U256) -> U256 {
        // SSTORE observes the previous value (gas metering), so it is a
        // read as well as a write.
        self.record_read(AccessKey::Storage(address, key));
        self.record_write(AccessKey::Storage(address, key));
        self.inner.sstore(address, key, value)
    }

    fn transfer(&mut self, from: Address, to: Address, value: U256) -> bool {
        self.record_read(AccessKey::Balance(from));
        if value.is_zero() {
            // Zero-value transfers read the sender balance at most; the
            // inner host short-circuits without touching `to`.
            return self.inner.transfer(from, to, value);
        }
        self.record_read(AccessKey::Balance(to));
        self.record_write(AccessKey::Balance(from));
        self.record_write(AccessKey::Balance(to));
        self.note_existence_write(to);
        self.inner.transfer(from, to, value)
    }

    fn mint(&mut self, to: Address, value: U256) {
        self.record_read(AccessKey::Balance(to));
        self.record_write(AccessKey::Balance(to));
        self.note_existence_write(to);
        self.inner.mint(to, value);
    }

    fn debit(&mut self, from: Address, value: U256) -> bool {
        self.record_read(AccessKey::Balance(from));
        self.record_write(AccessKey::Balance(from));
        self.inner.debit(from, value)
    }

    fn inc_nonce(&mut self, address: Address) -> u64 {
        self.record_read(AccessKey::Nonce(address));
        self.record_write(AccessKey::Nonce(address));
        self.inner.inc_nonce(address)
    }

    fn set_code(&mut self, address: Address, code: Vec<u8>) {
        self.record_read(AccessKey::Code(address));
        self.record_write(AccessKey::Code(address));
        self.note_existence_write(address);
        self.inner.set_code(address, code);
    }

    fn create_account(&mut self, address: Address) {
        self.record_read(AccessKey::Existence(address));
        self.record_write(AccessKey::Existence(address));
        self.inner.create_account(address);
    }

    fn selfdestruct(&mut self, address: Address, beneficiary: Address) {
        self.record_read(AccessKey::Balance(address));
        self.record_read(AccessKey::Balance(beneficiary));
        self.record_write(AccessKey::Balance(address));
        self.record_write(AccessKey::Balance(beneficiary));
        self.note_existence_write(beneficiary);
        // The account vanishes wholesale: existence, nonce, code and every
        // storage slot change under later readers. The wipe also counts as
        // a whole-storage *read*: committing it replaces the account's full
        // storage, so it must conflict with any earlier per-slot write
        // (including the case where the selfdestruct itself was reverted
        // and the final state is the pre-wipe storage).
        self.record_read(AccessKey::Existence(address));
        self.record_write(AccessKey::Existence(address));
        self.record_write(AccessKey::Nonce(address));
        self.record_write(AccessKey::Code(address));
        self.record_read(AccessKey::StorageAll(address));
        self.record_write(AccessKey::StorageAll(address));
        self.inner.selfdestruct(address, beneficiary);
    }

    fn log(&mut self, log: Log) {
        self.inner.log(log);
    }

    fn snapshot(&mut self) -> usize {
        self.inner.snapshot()
    }

    fn revert(&mut self, snapshot: usize) {
        self.inner.revert(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::MockHost;

    fn addr(label: &str) -> Address {
        Address::from_label(label)
    }

    #[test]
    fn records_reads_and_writes() {
        let mut host = RecordingHost::new(MockHost::new());
        let a = addr("a");
        let b = addr("b");
        host.inner.fund(a, U256::from_u64(100));
        host.sload(a, U256::ONE);
        host.sstore(a, U256::from_u64(2), U256::from_u64(9));
        assert!(host.transfer(a, b, U256::from_u64(5)));
        let access = host.access();
        assert!(access.reads.contains(&AccessKey::Storage(a, U256::ONE)));
        assert!(access
            .writes
            .contains(&AccessKey::Storage(a, U256::from_u64(2))));
        assert!(access
            .reads
            .contains(&AccessKey::Storage(a, U256::from_u64(2))));
        assert!(access.writes.contains(&AccessKey::Balance(a)));
        assert!(access.writes.contains(&AccessKey::Balance(b)));
        // b was fresh: the transfer changed its existence too.
        assert!(access.writes.contains(&AccessKey::Existence(b)));
        // Nothing read a's nonce.
        assert!(!access.reads.contains(&AccessKey::Nonce(a)));
    }

    #[test]
    fn shared_reads_are_recorded() {
        let host = RecordingHost::new(MockHost::new());
        let a = addr("a");
        host.balance(a);
        host.nonce(a);
        host.code(a);
        host.exists(a);
        let access = host.access();
        assert!(access.reads.contains(&AccessKey::Balance(a)));
        assert!(access.reads.contains(&AccessKey::Nonce(a)));
        assert!(access.reads.contains(&AccessKey::Code(a)));
        assert!(access.reads.contains(&AccessKey::Existence(a)));
        assert!(access.writes.is_empty());
    }

    #[test]
    fn conflict_detection_honours_wildcards() {
        let a = addr("a");
        let mut reader = AccessSet::new();
        reader.read(AccessKey::Storage(a, U256::ONE));
        let mut wiper = AccessSet::new();
        wiper.write(AccessKey::StorageAll(a));
        assert!(reader.reads_conflict_with(&wiper.writes));

        let mut unrelated = AccessSet::new();
        unrelated.write(AccessKey::Storage(addr("b"), U256::ONE));
        assert!(!reader.reads_conflict_with(&unrelated.writes));
    }

    #[test]
    fn selfdestruct_wipes_conservatively() {
        let mut host = RecordingHost::new(MockHost::new());
        let c = addr("contract");
        let b = addr("beneficiary");
        host.inner.fund(c, U256::from_u64(10));
        host.selfdestruct(c, b);
        let access = host.access();
        assert!(access.writes.contains(&AccessKey::StorageAll(c)));
        assert!(access.writes.contains(&AccessKey::Code(c)));
        let mut later_reader = AccessSet::new();
        later_reader.read(AccessKey::Storage(c, U256::from_u64(7)));
        assert!(later_reader.reads_conflict_with(&access.writes));
    }

    #[test]
    fn reverts_keep_accesses_conservative() {
        let mut host = RecordingHost::new(MockHost::new());
        let a = addr("a");
        let snap = host.snapshot();
        host.sstore(a, U256::ONE, U256::from_u64(4));
        host.revert(snap);
        assert_eq!(host.inner.sload(a, U256::ONE), U256::ZERO);
        // The reverted write stays recorded: conservative, never unsound.
        assert!(host
            .access()
            .writes
            .contains(&AccessKey::Storage(a, U256::ONE)));
    }
}
