//! Transactions, receipts and blocks.

use lsc_evm::{gas, Evm, Host, Log, Message};
use lsc_primitives::rlp::{self, Item};
use lsc_primitives::{Address, H256, U256};

/// A transaction request submitted to the node. In a real client this would
/// be signed; our local node (like Ganache's unlocked accounts) accepts a
/// `from` field and performs the signature check at the wallet layer
/// (`lsc-web3`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Sender account.
    pub from: Address,
    /// Recipient; `None` deploys a contract.
    pub to: Option<Address>,
    /// Value in wei.
    pub value: U256,
    /// Calldata or init code.
    pub data: Vec<u8>,
    /// Gas limit.
    pub gas: u64,
    /// Gas price in wei.
    pub gas_price: U256,
    /// Account nonce; `None` lets the node fill in the next nonce.
    pub nonce: Option<u64>,
}

impl Transaction {
    /// A plain call transaction with default gas settings.
    pub fn call(from: Address, to: Address, data: Vec<u8>) -> Self {
        Transaction {
            from,
            to: Some(to),
            value: U256::ZERO,
            data,
            gas: 8_000_000,
            gas_price: U256::from_u64(1_000_000_000),
            nonce: None,
        }
    }

    /// A deployment transaction with default gas settings.
    pub fn deploy(from: Address, init_code: Vec<u8>) -> Self {
        Transaction {
            from,
            to: None,
            value: U256::ZERO,
            data: init_code,
            gas: 12_000_000,
            gas_price: U256::from_u64(1_000_000_000),
            nonce: None,
        }
    }

    /// Attach a value.
    pub fn with_value(mut self, value: U256) -> Self {
        self.value = value;
        self
    }

    /// Attach an explicit gas limit.
    pub fn with_gas(mut self, gas: u64) -> Self {
        self.gas = gas;
        self
    }

    /// Attach an explicit nonce.
    pub fn with_nonce(mut self, nonce: u64) -> Self {
        self.nonce = Some(nonce);
        self
    }

    /// Hash of the RLP encoding (with the resolved nonce) — the tx id.
    pub fn hash(&self, resolved_nonce: u64) -> H256 {
        let encoded = rlp::encode(&Item::List(vec![
            Item::from_u64(resolved_nonce),
            Item::from_u256(self.gas_price),
            Item::from_u64(self.gas),
            Item::Bytes(self.to.map(|a| a.0.to_vec()).unwrap_or_default()),
            Item::from_u256(self.value),
            Item::Bytes(self.data.clone()),
            Item::Bytes(self.from.0.to_vec()),
        ]));
        H256::keccak(&encoded)
    }

    /// The one transaction routine: validate against the host's view,
    /// buy gas, bump the nonce, run the EVM, settle with the refund
    /// capped at half the gas used, and build the receipt. Every block
    /// engine runs exactly this — the sequential executor over the
    /// journaled state, speculation over an overlay — so the engines
    /// cannot drift apart.
    ///
    /// Validation fails before anything is written. The host keeps the
    /// emitted logs (the returned receipt's `logs` is empty and its
    /// block fields unset — the caller fills both in) and the coinbase
    /// fee is returned rather than credited: the sequential executor
    /// credits it in place, speculation commutatively at commit.
    pub(crate) fn execute<H: Host + Send>(
        &self,
        host: &mut H,
        block_gas_limit: u64,
    ) -> Result<(Receipt, U256), TxError> {
        let expected_nonce = host.nonce(self.from);
        let nonce = self.nonce.unwrap_or(expected_nonce);
        if nonce != expected_nonce {
            return Err(TxError::NonceMismatch {
                expected: expected_nonce,
                got: nonce,
            });
        }
        let intrinsic = gas::tx_intrinsic_gas(self.to.is_none(), &self.data);
        if self.gas < intrinsic {
            return Err(TxError::IntrinsicGasTooLow {
                required: intrinsic,
            });
        }
        if self.gas > block_gas_limit {
            return Err(TxError::ExceedsBlockGasLimit);
        }
        let upfront = U256::from(self.gas) * self.gas_price;
        let total = upfront
            .checked_add(self.value)
            .ok_or(TxError::InsufficientFunds)?;
        if host.balance(self.from) < total {
            return Err(TxError::InsufficientFunds);
        }

        // Buy gas.
        let debited = host.debit(self.from, upfront);
        debug_assert!(debited, "balance checked above");

        let exec_gas = self.gas - intrinsic;
        let message = match self.to {
            Some(to) => {
                // Calls bump the sender nonce here; creations bump it inside
                // the EVM (the CREATE address derivation consumes it).
                host.inc_nonce(self.from);
                Message::call(self.from, to, self.value, self.data.clone(), exec_gas)
            }
            None => Message::create(self.from, self.value, self.data.clone(), exec_gas),
        };
        let result = Evm::new(host).execute(message);

        // Settle gas: refund capped at half of what was used.
        let exec_used = exec_gas - result.gas_left;
        let refund = result.gas_refund.min(exec_used / 2);
        let gas_used = intrinsic + exec_used - refund;
        host.mint(self.from, U256::from(self.gas - gas_used) * self.gas_price);

        let receipt = Receipt {
            tx_hash: self.hash(nonce),
            block_number: 0,
            tx_index: 0,
            status: u64::from(result.success),
            gas_used,
            effective_gas_price: self.gas_price,
            contract_address: result.created,
            logs: Vec::new(),
            output: result.output,
        };
        Ok((receipt, U256::from(gas_used) * self.gas_price))
    }
}

/// Why a transaction was rejected before execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError {
    /// `nonce` did not match the account's next nonce.
    NonceMismatch {
        /// Expected next nonce.
        expected: u64,
        /// Provided nonce.
        got: u64,
    },
    /// Balance cannot cover `gas * gas_price + value`.
    InsufficientFunds,
    /// Gas limit below the intrinsic cost of the payload.
    IntrinsicGasTooLow {
        /// Minimum required.
        required: u64,
    },
    /// Gas limit above the block gas limit.
    ExceedsBlockGasLimit,
    /// A create transaction's init code was refused by the node's deploy
    /// guard (see `ChainConfig::deploy_guard`).
    DeployRejected(String),
    /// A version-pointer call (`setNext`/`setPrev`) was refused by the
    /// node's upgrade guard because the successor's storage layout is
    /// incompatible with the live predecessor's (see
    /// `ChainConfig::upgrade_guard`).
    UpgradeRejected(String),
    /// The pending queue is at `ChainConfig::max_pending`; the client
    /// should mine (or wait for the miner) and resubmit — backpressure
    /// instead of unbounded node memory.
    QueueFull {
        /// The configured queue bound.
        limit: usize,
    },
    /// A transaction with this submit-time hash is already queued.
    DuplicateTransaction(H256),
    /// A different transaction already occupies this sender/nonce slot
    /// and the new gas price does not clear the replacement price bump
    /// (see `mempool::PRICE_BUMP_PERCENT`).
    ReplacementUnderpriced,
    /// The durability layer failed to log the transaction (write-ahead
    /// log append error or injected fault); the transaction was not
    /// applied and the node refuses further state changes — the process
    /// is expected to restart and recover from disk.
    Durability(String),
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonceMismatch { expected, got } => {
                write!(f, "nonce mismatch: expected {expected}, got {got}")
            }
            Self::InsufficientFunds => write!(f, "insufficient funds for gas * price + value"),
            Self::IntrinsicGasTooLow { required } => {
                write!(f, "intrinsic gas too low (need {required})")
            }
            Self::ExceedsBlockGasLimit => write!(f, "gas limit exceeds block gas limit"),
            Self::DeployRejected(message) => write!(f, "deployment rejected: {message}"),
            Self::UpgradeRejected(message) => write!(f, "upgrade rejected: {message}"),
            Self::QueueFull { limit } => {
                write!(f, "pending queue full ({limit} transactions)")
            }
            Self::DuplicateTransaction(hash) => {
                write!(f, "transaction already queued: {hash}")
            }
            Self::ReplacementUnderpriced => {
                write!(f, "replacement transaction underpriced")
            }
            Self::Durability(message) => write!(f, "durability failure: {message}"),
        }
    }
}

impl std::error::Error for TxError {}

/// Execution receipt, mirroring `eth_getTransactionReceipt`.
#[derive(Debug, Clone)]
pub struct Receipt {
    /// Transaction hash.
    pub tx_hash: H256,
    /// Block that included the transaction.
    pub block_number: u64,
    /// Position within the block.
    pub tx_index: usize,
    /// 1 = success, 0 = reverted/halted.
    pub status: u64,
    /// Gas consumed (after refunds).
    pub gas_used: u64,
    /// The per-gas price the transaction actually paid — its own
    /// `gas_price` bid (no base-fee mechanics here), surfaced so fees
    /// are auditable end-to-end: submit bid → pool priority → receipt.
    pub effective_gas_price: U256,
    /// Deployed contract address, if a deployment.
    pub contract_address: Option<Address>,
    /// Event logs emitted.
    pub logs: Vec<Log>,
    /// Return/revert data (not part of real receipts, but Ganache-style
    /// nodes surface it and the contract manager uses it for diagnostics).
    pub output: Vec<u8>,
}

impl Receipt {
    /// True iff the transaction succeeded.
    pub fn is_success(&self) -> bool {
        self.status == 1
    }
}

/// A mined block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Height.
    pub number: u64,
    /// Block hash (keccak of header fields).
    pub hash: H256,
    /// Parent block hash.
    pub parent_hash: H256,
    /// Unix timestamp.
    pub timestamp: u64,
    /// Root of the authenticated state trie after this block executed
    /// — what `eth_getProof` responses verify against.
    pub state_root: H256,
    /// Hashes of included transactions.
    pub tx_hashes: Vec<H256>,
    /// Total gas used.
    pub gas_used: u64,
}

impl Block {
    /// Compute a block hash from header contents. The state root is part
    /// of the hashed header, so a header attests to the post-state and a
    /// proof checked against `state_root` is anchored by `hash`.
    pub fn compute_hash(
        number: u64,
        parent: H256,
        timestamp: u64,
        state_root: H256,
        tx_hashes: &[H256],
    ) -> H256 {
        let encoded = rlp::encode(&Item::List(vec![
            Item::from_u64(number),
            Item::Bytes(parent.0.to_vec()),
            Item::from_u64(timestamp),
            Item::Bytes(state_root.0.to_vec()),
            Item::List(
                tx_hashes
                    .iter()
                    .map(|h| Item::Bytes(h.0.to_vec()))
                    .collect(),
            ),
        ]));
        H256::keccak(&encoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_hash_depends_on_nonce_and_fields() {
        let a = Address::from_label("a");
        let b = Address::from_label("b");
        let tx = Transaction::call(a, b, vec![1, 2, 3]);
        assert_ne!(tx.hash(0), tx.hash(1));
        let tx2 = Transaction::call(a, b, vec![1, 2, 4]);
        assert_ne!(tx.hash(0), tx2.hash(0));
    }

    #[test]
    fn deploy_has_no_recipient() {
        let tx = Transaction::deploy(Address::from_label("a"), vec![0x60]);
        assert!(tx.to.is_none());
        let tx = tx.with_value(U256::from_u64(5)).with_gas(100);
        assert_eq!(tx.value, U256::from_u64(5));
        assert_eq!(tx.gas, 100);
    }

    #[test]
    fn block_hash_changes_with_contents() {
        let h1 = Block::compute_hash(1, H256::ZERO, 100, H256::ZERO, &[]);
        let h2 = Block::compute_hash(1, H256::ZERO, 101, H256::ZERO, &[]);
        let h3 = Block::compute_hash(1, H256::ZERO, 100, H256::ZERO, &[H256::keccak(b"tx")]);
        let h4 = Block::compute_hash(1, H256::ZERO, 100, H256::keccak(b"root"), &[]);
        assert_ne!(h1, h2);
        assert_ne!(h1, h3);
        assert_ne!(h1, h4, "state root is part of the hashed header");
    }

    #[test]
    fn receipt_status_helper() {
        let r = Receipt {
            tx_hash: H256::ZERO,
            block_number: 0,
            tx_index: 0,
            status: 1,
            gas_used: 0,
            effective_gas_price: U256::ZERO,
            contract_address: None,
            logs: vec![],
            output: vec![],
        };
        assert!(r.is_success());
    }
}
