//! Random bytecode through an uncached and a cached analysis host must
//! be indistinguishable: identical results, output, gas, refunds, logs
//! and final host state. "Uncached" is `MockHost`'s default
//! `code_analysis` (a fresh analysis per call); "cached" wraps the same
//! host with a per-address memoized analysis — the shape the chain's
//! account store uses — which must be invalidated on every code change
//! and rollback.

use lsc_evm::{AnalyzedCode, BlockEnv, CallResult, Evm, Host, Log, MockHost};
use lsc_primitives::{Address, H256, U256};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// `MockHost` plus the chain-style memoized analysis cache, invalidated
/// whenever the adjacent code changes.
struct CachingHost {
    inner: MockHost,
    cache: RefCell<HashMap<Address, Arc<AnalyzedCode>>>,
}

impl CachingHost {
    fn new(inner: MockHost) -> Self {
        CachingHost {
            inner,
            cache: RefCell::new(HashMap::new()),
        }
    }
}

impl Host for CachingHost {
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
        self.inner.exists(address)
    }
    fn balance(&self, address: Address) -> U256 {
        self.inner.balance(address)
    }
    fn nonce(&self, address: Address) -> u64 {
        self.inner.nonce(address)
    }
    fn code(&self, address: Address) -> Vec<u8> {
        self.inner.code(address)
    }
    fn code_hash(&self, address: Address) -> H256 {
        self.inner.code_hash(address)
    }
    fn code_analysis(&self, address: Address) -> Arc<AnalyzedCode> {
        self.cache
            .borrow_mut()
            .entry(address)
            .or_insert_with(|| {
                let code = self.inner.code(address);
                if code.is_empty() {
                    AnalyzedCode::empty()
                } else {
                    AnalyzedCode::analyze(Arc::new(code))
                }
            })
            .clone()
    }
    fn sload(&mut self, address: Address, key: U256) -> U256 {
        self.inner.sload(address, key)
    }
    fn sstore(&mut self, address: Address, key: U256, value: U256) -> U256 {
        self.inner.sstore(address, key, value)
    }
    fn transfer(&mut self, from: Address, to: Address, value: U256) -> bool {
        self.inner.transfer(from, to, value)
    }
    fn debit(&mut self, from: Address, value: U256) -> bool {
        self.inner.debit(from, value)
    }
    fn mint(&mut self, to: Address, value: U256) {
        self.inner.mint(to, value);
    }
    fn inc_nonce(&mut self, address: Address) -> u64 {
        self.inner.inc_nonce(address)
    }
    fn set_code(&mut self, address: Address, code: Vec<u8>) {
        self.cache.borrow_mut().remove(&address);
        self.inner.set_code(address, code);
    }
    fn create_account(&mut self, address: Address) {
        self.inner.create_account(address);
    }
    fn selfdestruct(&mut self, address: Address, beneficiary: Address) {
        self.cache.borrow_mut().remove(&address);
        self.inner.selfdestruct(address, beneficiary);
    }
    fn log(&mut self, log: Log) {
        self.inner.log(log);
    }
    fn snapshot(&mut self) -> usize {
        self.inner.snapshot()
    }
    fn revert(&mut self, snapshot: usize) {
        // The cache may hold analyses for codes the rollback removes;
        // drop everything (coarse but always correct — the chain's
        // journaled variant restores exact entries instead).
        self.cache.borrow_mut().clear();
        self.inner.revert(snapshot);
    }
}

fn caller() -> Address {
    Address::from_label("cache-caller")
}

fn contract() -> Address {
    Address::from_label("cache-contract")
}

fn setup_host(code: &[u8]) -> MockHost {
    let mut host = MockHost::new();
    host.fund(caller(), U256::from_u64(1_000_000_000));
    host.fund(contract(), U256::from_u64(500));
    host.set_code(contract(), code.to_vec());
    host
}

fn run_message(code: &[u8], data: &[u8]) -> lsc_evm::Message {
    let _ = code;
    lsc_evm::Message::call(
        caller(),
        contract(),
        U256::from_u64(3),
        data.to_vec(),
        200_000,
    )
}

fn digest(result: &CallResult) -> (bool, bool, Option<lsc_evm::Halt>, Vec<u8>, u64, u64) {
    (
        result.success,
        result.reverted,
        result.halt,
        result.output.clone(),
        result.gas_left,
        result.gas_refund,
    )
}

fn host_digest(host: &MockHost) -> String {
    let mut balances: Vec<_> = host
        .balances
        .iter()
        .map(|(a, v)| format!("{a}={v:x}"))
        .collect();
    balances.sort();
    let mut storage: Vec<_> = host
        .storage
        .iter()
        .map(|((a, k), v)| format!("{a}/{k:x}={v:x}"))
        .collect();
    storage.sort();
    let mut codes: Vec<_> = host
        .codes
        .iter()
        .map(|(a, c)| format!("{a}:{}", H256::keccak(c)))
        .collect();
    codes.sort();
    format!(
        "b={balances:?} s={storage:?} c={codes:?} logs={} created={:?} destroyed={:?}",
        host.logs.len(),
        host.created,
        host.destroyed
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_and_uncached_execution_are_bit_identical(
        code in proptest::collection::vec(any::<u8>(), 0..160),
        data in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut plain = setup_host(&code);
        let plain_result = Evm::new(&mut plain).execute(run_message(&code, &data));

        let mut caching = CachingHost::new(setup_host(&code));
        let cached_result = Evm::new(&mut caching).execute(run_message(&code, &data));

        prop_assert_eq!(
            digest(&plain_result),
            digest(&cached_result),
            "result diverged for code {:02x?} data {:02x?}",
            code,
            data
        );
        prop_assert_eq!(
            host_digest(&plain),
            host_digest(&caching.inner),
            "state diverged for code {:02x?} data {:02x?}",
            code,
            data
        );
    }
}
