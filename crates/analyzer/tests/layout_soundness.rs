//! Soundness of storage-layout recovery, cross-checked against the real
//! interpreter: every slot an execution actually SSTOREs in the analyzed
//! contract must be *covered* by the recovered layout — either present
//! in its constant slot map, reachable through a recovered keccak base
//! (any keccak-tagged write makes `covers_write` true for all slots, by
//! design), or blanketed by the unknown-writes bit. An executed write
//! the layout neither lists nor disclaims would make the upgrade gate's
//! verdicts unsound.
//!
//! Same two program populations as the main soundness suite: raw random
//! bytes and structured asm-builder programs, the latter biased toward
//! SSTORE so the property is exercised densely.

use lsc_analyzer::layout::{recover_layout, StorageLayout};
use lsc_evm::asm::Asm;
use lsc_evm::opcode::{self, op};
use lsc_evm::{BlockEnv, Config, Evm, Host, Log, Message, MockHost};
use lsc_primitives::{Address, H256, U256};
use proptest::prelude::*;
use std::sync::Arc;

const GAS: u64 = 200_000;

/// A host that delegates everything to [`MockHost`] and records the keys
/// of every SSTORE against the contract under analysis — reverted or
/// not: a rolled-back write was still an executed write the layout must
/// account for.
struct TapHost {
    inner: MockHost,
    watched: Address,
    sstored: Vec<U256>,
}

impl Host for TapHost {
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
    fn sload(&mut self, address: Address, key: U256) -> U256 {
        self.inner.sload(address, key)
    }
    fn sstore(&mut self, address: Address, key: U256, value: U256) -> U256 {
        if address == self.watched {
            self.sstored.push(key);
        }
        self.inner.sstore(address, key, value)
    }
    fn transfer(&mut self, from: Address, to: Address, value: U256) -> bool {
        self.inner.transfer(from, to, value)
    }
    fn mint(&mut self, to: Address, value: U256) {
        self.inner.mint(to, value);
    }
    fn debit(&mut self, from: Address, value: U256) -> bool {
        self.inner.debit(from, value)
    }
    fn inc_nonce(&mut self, address: Address) -> u64 {
        self.inner.inc_nonce(address)
    }
    fn set_code(&mut self, address: Address, code: Vec<u8>) {
        self.inner.set_code(address, code);
    }
    fn create_account(&mut self, address: Address) {
        self.inner.create_account(address);
    }
    fn selfdestruct(&mut self, address: Address, beneficiary: Address) {
        self.inner.selfdestruct(address, beneficiary);
    }
    fn log(&mut self, log: Log) {
        self.inner.log(log);
    }
    fn snapshot(&mut self) -> usize {
        self.inner.snapshot()
    }
    fn revert(&mut self, snapshot: usize) {
        // Deliberately NOT unwinding `sstored`: see the struct docs.
        self.inner.revert(snapshot);
    }
}

/// Execute `code` and return every storage key it SSTOREd.
fn executed_sstore_keys(code: &[u8]) -> Vec<U256> {
    let contract = Address::from_label("layout-contract");
    let caller = Address::from_label("layout-caller");
    let mut inner = MockHost::new();
    inner.fund(caller, U256::from_u64(1_000_000_000));
    inner.fund(contract, U256::from_u64(777));
    inner.set_code(contract, code.to_vec());
    let mut host = TapHost {
        inner,
        watched: contract,
        sstored: Vec::new(),
    };
    let mut evm = Evm::with_config(&mut host, Config::default());
    let _ = evm.execute(Message::call(
        caller,
        contract,
        U256::from_u64(3),
        vec![0xaa; 8],
        GAS,
    ));
    drop(evm);
    host.sstored
}

fn check_layout_soundness(code: &[u8]) -> (Arc<StorageLayout>, usize) {
    let layout = Arc::new(recover_layout(code));
    let keys = executed_sstore_keys(code);
    let covered_writes = keys.len();
    for key in keys {
        assert!(
            layout.covers_write(key),
            "executed SSTORE to slot {key} not covered by recovered layout: {}",
            layout.summary(),
        );
    }
    (layout, covered_writes)
}

/// Structured-program token; mirrors the main soundness suite but with a
/// storage-heavy pool.
#[derive(Debug, Clone)]
enum Tok {
    Wild(u8),
    Push(u64),
    Balanced(u8),
    /// `PUSH value; PUSH slot; SSTORE` with small constants.
    StoreConst(u64, u64),
    /// Store through the keccak-of-base mapping idiom.
    StoreHashed(u64),
    /// Store to a key derived from the environment (CALLER/TIMESTAMP) —
    /// must be blanketed by unknown-writes or a keccak base.
    StoreEscaped(bool),
    Jump(usize),
    Branch(u64, usize),
    Halt(bool),
}

const WILD_POOL: &[u8] = &[
    op::ADD,
    op::MUL,
    op::SUB,
    op::ISZERO,
    op::NOT,
    op::POP,
    op::DUP1,
    op::SWAP1,
    op::CALLER,
    op::CALLVALUE,
    op::CALLDATALOAD,
    op::MLOAD,
    op::MSTORE,
    op::SLOAD,
    op::SSTORE,
    op::KECCAK256,
    op::JUMP,
    op::JUMPI,
];

const BALANCED_POOL: &[u8] = &[
    op::ADD,
    op::MUL,
    op::ISZERO,
    op::EQ,
    op::POP,
    op::DUP1,
    op::SWAP1,
    op::MSTORE,
    op::MLOAD,
    op::SLOAD,
    op::SSTORE,
    op::KECCAK256,
    op::CALLER,
];

fn assemble(segments: &[Vec<Tok>]) -> Vec<u8> {
    let mut asm = Asm::new();
    let labels: Vec<_> = segments.iter().map(|_| asm.new_label()).collect();
    for (i, seg) in segments.iter().enumerate() {
        asm.place(labels[i]);
        for tok in seg {
            match tok {
                Tok::Wild(b) => {
                    asm.op(*b);
                }
                Tok::Push(v) => {
                    asm.push_u64(*v);
                }
                Tok::Balanced(b) => {
                    let (pops, _) = opcode::stack_io(*b).expect("pool ops are defined");
                    for k in 0..pops {
                        asm.push_u64(k as u64 + 1);
                    }
                    asm.op(*b);
                }
                Tok::StoreConst(value, slot) => {
                    asm.push_u64(*value).push_u64(*slot).op(op::SSTORE);
                }
                Tok::StoreHashed(base) => {
                    asm.push_u64(7);
                    asm.push_u64(*base).push_u64(0).op(op::MSTORE);
                    asm.push_u64(32).push_u64(0).op(op::KECCAK256);
                    asm.op(op::SSTORE);
                }
                Tok::StoreEscaped(use_caller) => {
                    asm.push_u64(1);
                    asm.op(if *use_caller {
                        op::CALLER
                    } else {
                        op::TIMESTAMP
                    });
                    asm.op(op::SSTORE);
                }
                Tok::Jump(t) => {
                    asm.push_label(labels[t % labels.len()]);
                    asm.op(op::JUMP);
                }
                Tok::Branch(cond, t) => {
                    asm.push_u64(*cond);
                    asm.push_label(labels[t % labels.len()]);
                    asm.op(op::JUMPI);
                }
                Tok::Halt(true) => {
                    asm.op(op::STOP);
                }
                Tok::Halt(false) => {
                    asm.push_u64(1).push_u64(2).op(op::RETURN);
                }
            }
        }
    }
    asm.assemble().expect("all labels are placed")
}

fn tok_strategy(wild: bool, segs: usize) -> BoxedStrategy<Tok> {
    let pick = move |pool: &'static [u8]| (0..pool.len()).prop_map(move |i| pool[i]).boxed();
    let mut arms = vec![
        pick(BALANCED_POOL).prop_map(Tok::Balanced).boxed(),
        (0u64..512).prop_map(Tok::Push).boxed(),
        ((0u64..64), (0u64..16))
            .prop_map(|(v, s)| Tok::StoreConst(v, s))
            .boxed(),
        (0u64..8).prop_map(Tok::StoreHashed).boxed(),
        any::<bool>().prop_map(Tok::StoreEscaped).boxed(),
        (0..segs).prop_map(Tok::Jump).boxed(),
        ((0u64..2), (0..segs))
            .prop_map(|(c, t)| Tok::Branch(c, t))
            .boxed(),
        (0..2usize).prop_map(|v| Tok::Halt(v == 0)).boxed(),
    ];
    if wild {
        arms.push(pick(WILD_POOL).prop_map(Tok::Wild).boxed());
    }
    proptest::Union::new(arms).boxed()
}

fn program_strategy(wild: bool) -> BoxedStrategy<Vec<Vec<Tok>>> {
    const SEGS: usize = 5;
    proptest::collection::vec(
        proptest::collection::vec(tok_strategy(wild, SEGS), 0..10),
        1..=SEGS,
    )
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn layout_covers_executed_writes_on_raw_random_bytes(
        code in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        check_layout_soundness(&code);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn layout_covers_executed_writes_on_structured_programs(
        segments in program_strategy(true),
    ) {
        check_layout_soundness(&assemble(&segments));
    }
}

#[test]
fn executed_writes_are_exercised_not_vacuous() {
    // Deterministic sweep without the wild arm: a healthy share of the
    // programs must actually reach an SSTORE, or the property above is
    // tested against empty write sets.
    let strat = program_strategy(false);
    let mut rng = proptest::TestRng::for_test("layout-soundness");
    let mut programs_with_writes = 0u32;
    const CASES: u32 = 192;
    for _ in 0..CASES {
        let code = assemble(&strat.generate(&mut rng));
        let (_, writes) = check_layout_soundness(&code);
        if writes > 0 {
            programs_with_writes += 1;
        }
    }
    assert!(
        programs_with_writes >= CASES / 4,
        "only {programs_with_writes}/{CASES} programs executed an SSTORE — generator degraded",
    );
}
