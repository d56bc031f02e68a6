//! Execution over an immutable state view.
//!
//! [`SnapshotHost`] adapts any [`StateView`] — an *immutable* account
//! store, typically a published MVCC snapshot — into a full [`Host`]:
//! reads fall through to the view, writes land in a private overlay, so
//! arbitrary bytecode (including SSTOREs, CREATEs and SELFDESTRUCTs)
//! runs without a `&mut` anywhere near the underlying state. Any number
//! of concurrent executions can share one view. `eth_call` /
//! `eth_estimateGas` drop the overlay; speculative block execution takes
//! it with [`SnapshotHost::into_writes`] and commits it later.
//!
//! The overlay semantics mirror the chain tier's journaled `StateHost`
//! step for step (the differential tests in `lsc-chain` hold the two
//! paths bit-identical): reads prefer the overlay, a self-destructed
//! account shadows the base entirely, and EVM-level snapshot/revert
//! clones the overlay — cheap, because read-only executions only ever
//! touch a handful of accounts.

use crate::analysis::AnalyzedCode;
use crate::host::{BlockEnv, Host, Log};
use lsc_primitives::{Address, FxHashMap, H256, U256};
use std::sync::{Arc, OnceLock};

/// An immutable, lock-free view of committed account state.
///
/// Implementors promise the view never changes for the lifetime of the
/// borrow — the MVCC read path hands out `Arc`-shared snapshots, so the
/// promise is structural, not a discipline.
pub trait StateView {
    /// Does the account exist?
    fn view_exists(&self, address: Address) -> bool;
    /// Balance in wei (zero for unknown accounts).
    fn view_balance(&self, address: Address) -> U256;
    /// Nonce (zero for unknown accounts).
    fn view_nonce(&self, address: Address) -> u64;
    /// Shared code blob (empty for EOAs and unknown accounts).
    fn view_code(&self, address: Address) -> Arc<Vec<u8>>;
    /// Keccak of the code (zero hash for empty accounts).
    fn view_code_hash(&self, address: Address) -> H256;
    /// Cached jumpdest/hash analysis of the account's code.
    fn view_code_analysis(&self, address: Address) -> Arc<AnalyzedCode>;
    /// Read a storage slot (zero for absent slots).
    fn view_storage(&self, address: Address, key: U256) -> U256;
}

/// Per-account write overlay. `None` fields fall through to the base
/// view unless `erased` is set (the account was self-destructed and
/// later resurrected — the base must stay shadowed).
#[derive(Clone, Default)]
pub struct OverlayAccount {
    /// The base account is shadowed entirely: unset fields read as zero.
    pub erased: bool,
    /// Written balance.
    pub balance: Option<U256>,
    /// Written nonce.
    pub nonce: Option<u64>,
    /// Written code.
    pub code: Option<Arc<Vec<u8>>>,
    /// Memoized analysis of the *overlay* code (base code analysis is
    /// served by the view's own cache).
    analysis: OnceLock<Arc<AnalyzedCode>>,
    /// Written slots; zero values are kept explicitly so they shadow
    /// non-zero base values instead of falling through.
    pub storage: FxHashMap<U256, U256>,
}

impl OverlayAccount {
    /// The analysis of the overlay code, if execution computed one.
    pub fn analysis(&self) -> Option<Arc<AnalyzedCode>> {
        self.analysis.get().cloned()
    }

    /// The (memoized) analysis of the written code; `None` when this
    /// overlay never wrote code.
    fn written_analysis(&self) -> Option<Arc<AnalyzedCode>> {
        let code = self.code.as_ref()?;
        Some(if code.is_empty() {
            AnalyzedCode::empty()
        } else {
            self.analysis
                .get_or_init(|| AnalyzedCode::analyze(Arc::clone(code)))
                .clone()
        })
    }
}

/// A [`SnapshotHost`]'s buffered writes; `None` marks a self-destructed
/// account (base shadowed).
pub type Overlay = FxHashMap<Address, Option<OverlayAccount>>;

/// A [`Host`] that executes against an immutable [`StateView`], buffering
/// every write in an overlay. Dropping the host discards the writes —
/// exactly the contract of `eth_call`; [`SnapshotHost::into_writes`]
/// keeps them.
pub struct SnapshotHost<'a, V: StateView> {
    base: &'a V,
    env: &'a BlockEnv,
    gas_price: U256,
    recent_hashes: &'a [(u64, H256)],
    overlay: Overlay,
    /// Logs emitted during execution.
    pub logs: Vec<Log>,
    /// Snapshot id → (overlay clone, logs length).
    snapshots: Vec<(Overlay, usize)>,
}

impl<'a, V: StateView> SnapshotHost<'a, V> {
    /// Wrap a view for one execution.
    pub fn new(
        base: &'a V,
        env: &'a BlockEnv,
        gas_price: U256,
        recent_hashes: &'a [(u64, H256)],
    ) -> Self {
        SnapshotHost {
            base,
            env,
            gas_price,
            recent_hashes,
            overlay: FxHashMap::default(),
            logs: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// Copy-on-write mutable account, resurrecting destroyed ones as
    /// fully-erased empties (a resurrected account must never read the
    /// base through its `None` fields).
    fn entry(&mut self, address: Address) -> &mut OverlayAccount {
        let slot = self
            .overlay
            .entry(address)
            .or_insert_with(|| Some(OverlayAccount::default()));
        if slot.is_none() {
            *slot = Some(OverlayAccount {
                erased: true,
                ..OverlayAccount::default()
            });
        }
        slot.as_mut().expect("slot populated above")
    }

    /// Resolve one account field — the single statement of the overlay's
    /// shadowing rule: the written value if there is one; else `None`
    /// (the field reads as zero/empty) when the base is shadowed by a
    /// self-destruct; else the base view's value.
    fn read<T>(
        &self,
        address: Address,
        written: impl FnOnce(&OverlayAccount) -> Option<T>,
        base: impl FnOnce(&V) -> T,
    ) -> Option<T> {
        let shadowed = match self.overlay.get(&address) {
            Some(Some(o)) => match written(o) {
                Some(value) => return Some(value),
                None => o.erased,
            },
            Some(None) => true,
            None => false,
        };
        (!shadowed).then(|| base(self.base))
    }

    /// Consume the host, keeping what the execution wrote: the
    /// field-level overlay and the emitted logs.
    pub fn into_writes(self) -> (Overlay, Vec<Log>) {
        (self.overlay, self.logs)
    }
}

impl<V: StateView> Host for SnapshotHost<'_, V> {
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
        match self.overlay.get(&address) {
            Some(entry) => entry.is_some(),
            None => self.base.view_exists(address),
        }
    }

    fn balance(&self, address: Address) -> U256 {
        self.read(address, |o| o.balance, |base| base.view_balance(address))
            .unwrap_or(U256::ZERO)
    }

    fn nonce(&self, address: Address) -> u64 {
        self.read(address, |o| o.nonce, |base| base.view_nonce(address))
            .unwrap_or(0)
    }

    fn code(&self, address: Address) -> Vec<u8> {
        self.read(
            address,
            |o| o.code.as_ref().map(|code| code.as_ref().clone()),
            |base| base.view_code(address).as_ref().clone(),
        )
        .unwrap_or_default()
    }

    fn code_hash(&self, address: Address) -> H256 {
        self.read(
            address,
            |o| o.written_analysis().map(|analysis| analysis.code_hash()),
            |base| base.view_code_hash(address),
        )
        .unwrap_or(H256::ZERO)
    }

    fn code_analysis(&self, address: Address) -> Arc<AnalyzedCode> {
        self.read(address, OverlayAccount::written_analysis, |base| {
            base.view_code_analysis(address)
        })
        .unwrap_or_else(AnalyzedCode::empty)
    }

    fn sload(&mut self, address: Address, key: U256) -> U256 {
        self.read(
            address,
            |o| o.storage.get(&key).copied(),
            |base| base.view_storage(address, key),
        )
        .unwrap_or(U256::ZERO)
    }

    fn sstore(&mut self, address: Address, key: U256, value: U256) -> U256 {
        let previous = self.sload(address, key);
        // Zero values stay in the overlay: they must shadow a non-zero
        // base slot rather than fall through to it.
        self.entry(address).storage.insert(key, value);
        previous
    }

    fn mint(&mut self, to: Address, value: U256) {
        let balance = self.balance(to);
        self.entry(to).balance = Some(balance + value);
    }

    fn debit(&mut self, from: Address, value: U256) -> bool {
        let balance = self.balance(from);
        if balance < value {
            return false;
        }
        self.entry(from).balance = Some(balance - value);
        true
    }

    fn inc_nonce(&mut self, address: Address) -> u64 {
        let nonce = self.nonce(address);
        self.entry(address).nonce = Some(nonce + 1);
        nonce
    }

    fn set_code(&mut self, address: Address, code: Vec<u8>) {
        let account = self.entry(address);
        account.code = Some(Arc::new(code));
        // The memoized analysis must never describe the previous code.
        account.analysis = OnceLock::new();
    }

    fn create_account(&mut self, address: Address) {
        if !self.exists(address) {
            self.entry(address);
        }
    }

    fn selfdestruct(&mut self, address: Address, beneficiary: Address) {
        let balance = self.balance(address);
        if !balance.is_zero() {
            let debited = self.debit(address, balance);
            debug_assert!(debited);
            self.mint(beneficiary, balance);
        }
        self.overlay.insert(address, None);
    }

    fn log(&mut self, log: Log) {
        self.logs.push(log);
    }

    fn snapshot(&mut self) -> usize {
        self.snapshots.push((self.overlay.clone(), self.logs.len()));
        self.snapshots.len() - 1
    }

    fn revert(&mut self, snapshot: usize) {
        let (overlay, logs_len) = self.snapshots[snapshot].clone();
        self.overlay = overlay;
        self.logs.truncate(logs_len);
        self.snapshots.truncate(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpreter::{Evm, Message};
    use std::collections::HashMap;

    /// Minimal immutable view for unit tests.
    #[derive(Default)]
    struct MapView {
        balances: HashMap<Address, U256>,
        codes: HashMap<Address, Arc<Vec<u8>>>,
        storage: HashMap<(Address, U256), U256>,
    }

    impl StateView for MapView {
        fn view_exists(&self, a: Address) -> bool {
            self.balances.contains_key(&a) || self.codes.contains_key(&a)
        }
        fn view_balance(&self, a: Address) -> U256 {
            self.balances.get(&a).copied().unwrap_or(U256::ZERO)
        }
        fn view_nonce(&self, _a: Address) -> u64 {
            0
        }
        fn view_code(&self, a: Address) -> Arc<Vec<u8>> {
            self.codes.get(&a).cloned().unwrap_or_default()
        }
        fn view_code_hash(&self, a: Address) -> H256 {
            match self.codes.get(&a) {
                Some(code) if !code.is_empty() => H256::keccak(code.as_slice()),
                _ => H256::ZERO,
            }
        }
        fn view_code_analysis(&self, a: Address) -> Arc<AnalyzedCode> {
            let code = self.view_code(a);
            if code.is_empty() {
                AnalyzedCode::empty()
            } else {
                AnalyzedCode::analyze(code)
            }
        }
        fn view_storage(&self, a: Address, key: U256) -> U256 {
            self.storage.get(&(a, key)).copied().unwrap_or(U256::ZERO)
        }
    }

    fn a(label: &str) -> Address {
        Address::from_label(label)
    }

    #[test]
    fn writes_stay_in_overlay() {
        let mut view = MapView::default();
        view.balances.insert(a("x"), U256::from_u64(100));
        view.storage.insert((a("c"), U256::ONE), U256::from_u64(7));
        let env = BlockEnv::default();
        let mut host = SnapshotHost::new(&view, &env, U256::from_u64(1), &[]);
        assert!(host.transfer(a("x"), a("y"), U256::from_u64(30)));
        assert_eq!(
            host.sstore(a("c"), U256::ONE, U256::ZERO),
            U256::from_u64(7)
        );
        assert_eq!(host.sload(a("c"), U256::ONE), U256::ZERO);
        assert_eq!(host.balance(a("x")), U256::from_u64(70));
        assert_eq!(host.balance(a("y")), U256::from_u64(30));
        // The base is untouched.
        assert_eq!(view.view_balance(a("x")), U256::from_u64(100));
        assert_eq!(view.view_storage(a("c"), U256::ONE), U256::from_u64(7));
    }

    #[test]
    fn selfdestruct_shadows_base_until_resurrected() {
        let mut view = MapView::default();
        view.balances.insert(a("c"), U256::from_u64(10));
        view.codes.insert(a("c"), Arc::new(vec![0xfe]));
        view.storage.insert((a("c"), U256::ONE), U256::from_u64(5));
        let env = BlockEnv::default();
        let mut host = SnapshotHost::new(&view, &env, U256::from_u64(1), &[]);
        host.selfdestruct(a("c"), a("b"));
        assert!(!host.exists(a("c")));
        assert_eq!(host.balance(a("b")), U256::from_u64(10));
        assert!(host.code(a("c")).is_empty());
        assert_eq!(host.sload(a("c"), U256::ONE), U256::ZERO);
        // Resurrection must not read the dead base account through.
        host.mint(a("c"), U256::from_u64(3));
        assert_eq!(host.balance(a("c")), U256::from_u64(3));
        assert!(host.code(a("c")).is_empty());
        assert_eq!(host.sload(a("c"), U256::ONE), U256::ZERO);
    }

    #[test]
    fn snapshot_revert_restores_overlay() {
        let view = MapView::default();
        let env = BlockEnv::default();
        let mut host = SnapshotHost::new(&view, &env, U256::from_u64(1), &[]);
        host.mint(a("x"), U256::from_u64(5));
        let snap = host.snapshot();
        host.mint(a("x"), U256::from_u64(5));
        host.log(Log {
            address: a("x"),
            topics: vec![],
            data: vec![],
        });
        host.revert(snap);
        assert_eq!(host.balance(a("x")), U256::from_u64(5));
        assert!(host.logs.is_empty());
    }

    #[test]
    fn executes_bytecode_against_view() {
        // Runtime: return 32-byte storage[1].
        let mut asm = crate::asm::Asm::new();
        asm.push_u64(1)
            .op(crate::opcode::op::SLOAD)
            .push_u64(0)
            .op(crate::opcode::op::MSTORE)
            .push_u64(32)
            .push_u64(0)
            .op(crate::opcode::op::RETURN);
        let runtime = asm.assemble().unwrap();
        let mut view = MapView::default();
        view.codes.insert(a("c"), Arc::new(runtime));
        view.storage.insert((a("c"), U256::ONE), U256::from_u64(42));
        let env = BlockEnv::default();
        let mut host = SnapshotHost::new(&view, &env, U256::from_u64(1), &[]);
        let result = Evm::new(&mut host).execute(Message::call(
            a("caller"),
            a("c"),
            U256::ZERO,
            vec![],
            1_000_000,
        ));
        assert!(result.success);
        assert_eq!(result.output, U256::from_u64(42).to_be_bytes().to_vec());
    }
}
