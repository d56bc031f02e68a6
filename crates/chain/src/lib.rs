//! # lsc-chain
//!
//! A local Ethereum-like chain — the workspace's Ganache. Provides the
//! journaled [`WorldState`], [`Transaction`]/[`Receipt`]/[`Block`] types
//! and the instant-mining [`LocalNode`] that executes transactions through
//! `lsc-evm`.
//!
//! The paper tests its rental-agreement dapp against Ganache and deploys
//! to mainnet via MetaMask; [`LocalNode`] plays both roles here (the
//! wallet lives in `lsc-web3`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
pub mod mempool;
pub mod mvcc;
pub mod node;
mod parallel;
mod persistent;
pub mod producer;
pub mod snapshot;
pub mod state;
pub mod store;
pub mod trie;
pub mod tx;
pub mod wal;

pub use mempool::{Mempool, PRICE_BUMP_PERCENT};
pub use mvcc::{log_matches, CommittedSnapshot, LogFilter, LogIndex, ReadHandle};
pub use node::{ChainConfig, DeployGuard, LocalNode, UpgradeGuard, DEFAULT_MAX_PENDING};
pub use producer::{BlockProducer, ProducerConfig};
pub use snapshot::SnapshotError;
pub use state::{Account, WorldState};
pub use store::{
    AccountProof, StateStore, StateTrie, StorageProof, DEFAULT_CACHE_BYTES, PAGE_SIZE,
};
pub use trie::{
    account_key, decode_account, decode_slot_value, storage_key, verify_proof, AccountData,
    MemNodes, NodeStore, ProofError, Trie, TrieError,
};
pub use tx::{Block, Receipt, Transaction, TxError};
pub use wal::{fault_injection_enabled, FaultPlan, Faults, Wal, WalError, WalRecord};
