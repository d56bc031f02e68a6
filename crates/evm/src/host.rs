//! The interface the interpreter uses to touch world state.
//!
//! `lsc-chain` implements [`Host`] on top of its journaled state; tests in
//! this crate use the in-memory [`MockHost`].

use crate::analysis::AnalyzedCode;
use lsc_primitives::{Address, H256, U256};
use std::collections::HashMap;
use std::sync::Arc;

/// Block-level execution environment.
#[derive(Debug, Clone)]
pub struct BlockEnv {
    /// Block height.
    pub number: u64,
    /// Unix timestamp of the block (`block.timestamp` / Solidity `now`).
    pub timestamp: u64,
    /// Miner address (`COINBASE`).
    pub coinbase: Address,
    /// Block gas limit.
    pub gas_limit: u64,
    /// Difficulty / prevrandao word.
    pub difficulty: U256,
    /// EIP-155 chain id.
    pub chain_id: u64,
}

impl Default for BlockEnv {
    fn default() -> Self {
        BlockEnv {
            number: 1,
            timestamp: 1_577_836_800, // 2020-01-01, the paper's era
            coinbase: Address::ZERO,
            gas_limit: 30_000_000,
            difficulty: U256::ZERO,
            chain_id: 1337,
        }
    }
}

/// An event emitted by `LOG0..LOG4`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log {
    /// Emitting contract.
    pub address: Address,
    /// Indexed topics (topic 0 is the event signature hash).
    pub topics: Vec<H256>,
    /// ABI-encoded unindexed payload.
    pub data: Vec<u8>,
}

/// State interface consumed by the interpreter.
pub trait Host {
    /// Current block environment.
    fn block(&self) -> &BlockEnv;
    /// Hash of a recent block (zero if unavailable).
    fn blockhash(&self, number: u64) -> H256;
    /// Effective gas price of the current transaction.
    fn gas_price(&self) -> U256;

    /// Does the account exist (has balance, code or nonce)?
    fn exists(&self, address: Address) -> bool;
    /// Account balance in wei.
    fn balance(&self, address: Address) -> U256;
    /// Account nonce.
    fn nonce(&self, address: Address) -> u64;
    /// Contract code (empty for EOAs).
    fn code(&self, address: Address) -> Vec<u8>;
    /// Keccak of the code (zero hash for empty accounts).
    fn code_hash(&self, address: Address) -> H256;
    /// Jumpdest/hash analysis of the account's code. The default
    /// recomputes per call; hosts with an account store override this to
    /// return a cached `Arc` so nested frames share one analysis per
    /// code blob (see [`AnalyzedCode`]).
    fn code_analysis(&self, address: Address) -> Arc<AnalyzedCode> {
        let code = self.code(address);
        if code.is_empty() {
            AnalyzedCode::empty()
        } else {
            AnalyzedCode::analyze(Arc::new(code))
        }
    }

    /// Read a storage slot.
    fn sload(&mut self, address: Address, key: U256) -> U256;
    /// Write a storage slot; returns the previous value for gas metering.
    fn sstore(&mut self, address: Address, key: U256, value: U256) -> U256;
    /// Move `value` wei; `false` if the sender's balance is insufficient.
    /// A zero-value transfer touches neither account.
    fn transfer(&mut self, from: Address, to: Address, value: U256) -> bool {
        if value.is_zero() {
            return true;
        }
        if !self.debit(from, value) {
            return false;
        }
        self.mint(to, value);
        true
    }
    /// Credit `value` wei out of thin air (block rewards, test faucets,
    /// the gas reimbursement at transaction settlement).
    fn mint(&mut self, to: Address, value: U256);
    /// Debit `value` wei into thin air (the gas purchase at transaction
    /// start); `false`, and no change, if the balance is insufficient.
    fn debit(&mut self, from: Address, value: U256) -> bool;
    /// Increment an account's nonce, returning the value *before*.
    fn inc_nonce(&mut self, address: Address) -> u64;
    /// Install code at an address (end of a successful CREATE).
    fn set_code(&mut self, address: Address, code: Vec<u8>);
    /// Mark an account as existing (start of CREATE).
    fn create_account(&mut self, address: Address);
    /// Self-destruct: move the balance and delete the account.
    fn selfdestruct(&mut self, address: Address, beneficiary: Address);
    /// Record an event log.
    fn log(&mut self, log: Log);

    /// Take a journal snapshot; [`Host::revert`] rolls back to it.
    fn snapshot(&mut self) -> usize;
    /// Roll state (storage, balances, nonces, logs, created accounts) back.
    fn revert(&mut self, snapshot: usize);
}

/// A simple fully in-memory host used by unit tests and benchmarks in this
/// crate. Snapshots are implemented by cloning the whole state — fine for
/// tests, not for a real node (the chain crate journals instead).
#[derive(Debug, Clone, Default)]
pub struct MockHost {
    /// Block environment returned by [`Host::block`].
    pub env: BlockEnv,
    /// Account balances.
    pub balances: HashMap<Address, U256>,
    /// Account nonces.
    pub nonces: HashMap<Address, u64>,
    /// Account code.
    pub codes: HashMap<Address, Vec<u8>>,
    /// Contract storage.
    pub storage: HashMap<(Address, U256), U256>,
    /// Accumulated logs.
    pub logs: Vec<Log>,
    /// Accounts explicitly created.
    pub created: Vec<Address>,
    /// Self-destructed accounts.
    pub destroyed: Vec<Address>,
    snapshots: Vec<MockHostState>,
}

#[derive(Debug, Clone, Default)]
struct MockHostState {
    balances: HashMap<Address, U256>,
    nonces: HashMap<Address, u64>,
    codes: HashMap<Address, Vec<u8>>,
    storage: HashMap<(Address, U256), U256>,
    logs_len: usize,
    created_len: usize,
    destroyed_len: usize,
}

impl MockHost {
    /// Fresh empty host with the default block environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set an account balance directly (test setup).
    pub fn fund(&mut self, address: Address, amount: U256) {
        self.balances.insert(address, amount);
    }
}

impl Host for MockHost {
    fn block(&self) -> &BlockEnv {
        &self.env
    }

    fn blockhash(&self, number: u64) -> H256 {
        if number >= self.env.number || self.env.number - number > 256 {
            H256::ZERO
        } else {
            H256::keccak(number.to_be_bytes())
        }
    }

    fn gas_price(&self) -> U256 {
        U256::from_u64(1)
    }

    fn exists(&self, address: Address) -> bool {
        self.balances.contains_key(&address)
            || self.nonces.contains_key(&address)
            || self.codes.contains_key(&address)
    }

    fn balance(&self, address: Address) -> U256 {
        self.balances.get(&address).copied().unwrap_or(U256::ZERO)
    }

    fn nonce(&self, address: Address) -> u64 {
        self.nonces.get(&address).copied().unwrap_or(0)
    }

    fn code(&self, address: Address) -> Vec<u8> {
        self.codes.get(&address).cloned().unwrap_or_default()
    }

    fn code_hash(&self, address: Address) -> H256 {
        match self.codes.get(&address) {
            Some(code) => H256::keccak(code),
            None => H256::ZERO,
        }
    }

    fn sload(&mut self, address: Address, key: U256) -> U256 {
        self.storage
            .get(&(address, key))
            .copied()
            .unwrap_or(U256::ZERO)
    }

    fn sstore(&mut self, address: Address, key: U256, value: U256) -> U256 {
        let prev = self
            .storage
            .insert((address, key), value)
            .unwrap_or(U256::ZERO);
        if value.is_zero() {
            self.storage.remove(&(address, key));
        }
        prev
    }

    fn mint(&mut self, to: Address, value: U256) {
        let balance = self.balance(to);
        self.balances.insert(to, balance + value);
    }

    fn debit(&mut self, from: Address, value: U256) -> bool {
        let balance = self.balance(from);
        if balance < value {
            return false;
        }
        self.balances.insert(from, balance - value);
        true
    }

    fn inc_nonce(&mut self, address: Address) -> u64 {
        let n = self.nonce(address);
        self.nonces.insert(address, n + 1);
        n
    }

    fn set_code(&mut self, address: Address, code: Vec<u8>) {
        self.codes.insert(address, code);
    }

    fn create_account(&mut self, address: Address) {
        self.created.push(address);
        self.nonces.entry(address).or_insert(0);
        self.balances.entry(address).or_insert(U256::ZERO);
    }

    fn selfdestruct(&mut self, address: Address, beneficiary: Address) {
        let balance = self.balance(address);
        self.balances.remove(&address);
        self.mint(beneficiary, balance);
        self.codes.remove(&address);
        self.nonces.remove(&address);
        self.destroyed.push(address);
    }

    fn log(&mut self, log: Log) {
        self.logs.push(log);
    }

    fn snapshot(&mut self) -> usize {
        self.snapshots.push(MockHostState {
            balances: self.balances.clone(),
            nonces: self.nonces.clone(),
            codes: self.codes.clone(),
            storage: self.storage.clone(),
            logs_len: self.logs.len(),
            created_len: self.created.len(),
            destroyed_len: self.destroyed.len(),
        });
        self.snapshots.len() - 1
    }

    fn revert(&mut self, snapshot: usize) {
        let state = self.snapshots[snapshot].clone();
        self.balances = state.balances;
        self.nonces = state.nonces;
        self.codes = state.codes;
        self.storage = state.storage;
        self.logs.truncate(state.logs_len);
        self.created.truncate(state.created_len);
        self.destroyed.truncate(state.destroyed_len);
        self.snapshots.truncate(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_and_balance() {
        let mut h = MockHost::new();
        let a = Address::from_label("a");
        let b = Address::from_label("b");
        h.fund(a, U256::from_u64(100));
        assert!(h.transfer(a, b, U256::from_u64(40)));
        assert_eq!(h.balance(a), U256::from_u64(60));
        assert_eq!(h.balance(b), U256::from_u64(40));
        assert!(!h.transfer(a, b, U256::from_u64(1000)));
    }

    #[test]
    fn snapshot_revert_restores_everything() {
        let mut h = MockHost::new();
        let a = Address::from_label("a");
        h.fund(a, U256::from_u64(5));
        let snap = h.snapshot();
        h.sstore(a, U256::ONE, U256::from_u64(7));
        h.log(Log {
            address: a,
            topics: vec![],
            data: vec![],
        });
        h.inc_nonce(a);
        h.revert(snap);
        assert_eq!(h.sload(a, U256::ONE), U256::ZERO);
        assert!(h.logs.is_empty());
        assert_eq!(h.nonce(a), 0);
        assert_eq!(h.balance(a), U256::from_u64(5));
    }

    #[test]
    fn sstore_returns_previous_and_clears_zero() {
        let mut h = MockHost::new();
        let a = Address::from_label("a");
        assert_eq!(h.sstore(a, U256::ONE, U256::from_u64(3)), U256::ZERO);
        assert_eq!(h.sstore(a, U256::ONE, U256::ZERO), U256::from_u64(3));
        assert!(h.storage.is_empty());
    }

    #[test]
    fn selfdestruct_moves_funds() {
        let mut h = MockHost::new();
        let c = Address::from_label("contract");
        let b = Address::from_label("beneficiary");
        h.fund(c, U256::from_u64(9));
        h.set_code(c, vec![0x00]);
        h.selfdestruct(c, b);
        assert_eq!(h.balance(b), U256::from_u64(9));
        assert!(h.code(c).is_empty());
        assert_eq!(h.destroyed, vec![c]);
    }
}
