//! Cached per-blob code analysis: jumpdest bitmap + lazily memoized
//! keccak code hash.
//!
//! Before this module every call frame re-scanned its bytecode for
//! `JUMPDEST`s (`opcode::jumpdest_map` allocates a `Vec<bool>` the size
//! of the code) and every `EXTCODEHASH`/`WorldState::code_hash` re-ran
//! keccak over the full blob. [`AnalyzedCode`] computes both at most once
//! per distinct code blob and is shared behind an `Arc`: the account
//! store caches it next to its `Arc<Vec<u8>>` code, hosts hand it out via
//! [`Host::code_analysis`](crate::Host::code_analysis), and the
//! interpreter consumes it without copying the bytecode.
//!
//! Invariant: an `AnalyzedCode` is immutable and always consistent with
//! the code it was built from. Cache *slots* (e.g. the per-account
//! `OnceLock` in `lsc-chain`) must be cleared whenever the code they sit
//! next to changes — `set_code`, `destroy_account`, journal rollback.

use lsc_primitives::{FxHashMap, H256};
use std::sync::{Arc, Mutex, OnceLock};

use crate::compile::{self, CompiledCode};
use crate::opcode;

/// Bound on the process-wide content-addressed compile memo. Entries are
/// immutable and keyed by code keccak, so eviction is purely a memory
/// cap, never a correctness concern.
const COMPILED_MEMO_CAP: usize = 4096;

/// fx(code) → (code, compiled artifact or memoized bail) chains, shared
/// across every account that carries the same bytecode. The key is a
/// cheap non-cryptographic hash, so hits verify the stored code is
/// byte-identical before serving — a collision costs one memcmp, never
/// a wrong artifact. (keccak would make the key collision-free but costs
/// more than the compile amortization saves on multi-KB blobs.)
type MemoChain = Vec<(Arc<Vec<u8>>, Option<Arc<CompiledCode>>)>;

fn compiled_memo() -> &'static Mutex<FxHashMap<u64, MemoChain>> {
    static MEMO: OnceLock<Mutex<FxHashMap<u64, MemoChain>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(FxHashMap::default()))
}

/// Process-wide hit/miss counters for the content-addressed compile
/// memo. A "hit" is a [`AnalyzedCode::compiled`] call that found an
/// existing artifact (or memoized bail) for byte-identical code; a
/// "miss" ran the block compiler. Per-account `OnceLock` reuse never
/// reaches the memo, so these count exactly the cross-account sharing
/// the memo exists for — redeploys of template bytecode.
pub mod memo_stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    static HITS: AtomicU64 = AtomicU64::new(0);
    static MISSES: AtomicU64 = AtomicU64::new(0);

    pub(super) fn record(hit: bool) {
        let counter = if hit { &HITS } else { &MISSES };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// `(hits, misses)` accumulated since process start or [`reset`].
    pub fn snapshot() -> (u64, u64) {
        (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
    }

    /// Zero both counters (test/bench isolation).
    pub fn reset() {
        HITS.store(0, Ordering::Relaxed);
        MISSES.store(0, Ordering::Relaxed);
    }
}

fn fx_bytes(bytes: &[u8]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = lsc_primitives::FxHasher::default();
    bytes.hash(&mut hasher);
    hasher.finish()
}

/// Immutable analysis of one bytecode blob.
#[derive(Debug, Default)]
pub struct AnalyzedCode {
    code: Arc<Vec<u8>>,
    /// One bit per code byte; set where a `JUMPDEST` opcode begins
    /// (push immediates are skipped, per the Yellow Paper).
    jumpdests: Box<[u64]>,
    /// keccak256 of the code, memoized on first use. Empty code hashes
    /// to `H256::ZERO` to match `WorldState::code_hash` semantics.
    hash: OnceLock<H256>,
    /// Superinstruction artifact, compiled lazily on first use. `None`
    /// inside means compilation bailed: this blob permanently takes the
    /// plain path. Living *inside* the analysis means the per-account
    /// cache slot, `install_code` invalidation and journal rollback
    /// cover the jumpdest bitmap, the memoized keccak AND the compiled
    /// artifact as one entry — they cannot split-brain.
    compiled: OnceLock<Option<Arc<CompiledCode>>>,
}

impl AnalyzedCode {
    /// Analyze a code blob (single pass over the bytecode; the keccak
    /// hash is deferred until [`code_hash`](Self::code_hash) first asks).
    pub fn analyze(code: Arc<Vec<u8>>) -> Arc<AnalyzedCode> {
        let map = opcode::jumpdest_map(&code);
        let mut jumpdests = vec![0u64; code.len().div_ceil(64)].into_boxed_slice();
        for (i, is_dest) in map.iter().enumerate() {
            if *is_dest {
                jumpdests[i >> 6] |= 1u64 << (i & 63);
            }
        }
        Arc::new(AnalyzedCode {
            code,
            jumpdests,
            hash: OnceLock::new(),
            compiled: OnceLock::new(),
        })
    }

    /// The shared analysis of empty code (accounts without code).
    pub fn empty() -> Arc<AnalyzedCode> {
        static EMPTY: OnceLock<Arc<AnalyzedCode>> = OnceLock::new();
        EMPTY
            .get_or_init(|| AnalyzedCode::analyze(Arc::new(Vec::new())))
            .clone()
    }

    /// The analyzed bytecode.
    #[inline]
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// The shared code blob.
    pub fn code_arc(&self) -> &Arc<Vec<u8>> {
        &self.code
    }

    /// Code length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True for empty code.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// True if `pc` is a valid jump destination.
    #[inline]
    pub fn is_jumpdest(&self, pc: usize) -> bool {
        pc < self.code.len() && (self.jumpdests[pc >> 6] >> (pc & 63)) & 1 == 1
    }

    /// keccak256 of the code (`H256::ZERO` for empty code), computed at
    /// most once per blob and memoized.
    pub fn code_hash(&self) -> H256 {
        *self.hash.get_or_init(|| {
            if self.code.is_empty() {
                H256::ZERO
            } else {
                H256::keccak(self.code.as_slice())
            }
        })
    }

    /// The superinstruction artifact for this blob, compiling on first
    /// use and memoizing the result (including a bail, which pins the
    /// blob to the plain path).
    ///
    /// Artifacts are additionally shared process-wide through a
    /// content-addressed memo: the per-account analysis cache holds one
    /// `AnalyzedCode` per *account*, so without the memo every redeploy
    /// of identical bytecode — factories stamping out template
    /// contracts, or a bench world rebuilt per iteration — would pay
    /// the block compiler again. Hits are verified byte-for-byte
    /// against the stored blob, so staleness is impossible: different
    /// code can never alias an entry.
    pub fn compiled(&self) -> Option<Arc<CompiledCode>> {
        self.compiled
            .get_or_init(|| {
                if self.code.is_empty() {
                    return None;
                }
                let key = fx_bytes(&self.code);
                let memo = compiled_memo();
                if let Some(chain) = memo.lock().expect("compile memo poisoned").get(&key) {
                    for (blob, artifact) in chain {
                        if Arc::ptr_eq(blob, &self.code) || **blob == *self.code {
                            memo_stats::record(true);
                            return artifact.clone();
                        }
                    }
                }
                memo_stats::record(false);
                let artifact = compile::try_compile(self).map(Arc::new);
                let mut memo = memo.lock().expect("compile memo poisoned");
                // Content-addressed entries never go stale, so when the
                // memo fills up, dropping it wholesale is safe — worst
                // case the next user of each blob recompiles once.
                if memo.len() >= COMPILED_MEMO_CAP {
                    memo.clear();
                }
                memo.entry(key)
                    .or_default()
                    .push((Arc::clone(&self.code), artifact.clone()));
                artifact
            })
            .clone()
    }

    /// Peek at the compiled slot without triggering compilation
    /// (cache-identity tests).
    pub fn compiled_if_cached(&self) -> Option<Option<Arc<CompiledCode>>> {
        self.compiled.get().cloned()
    }
}

/// Process-wide A/B toggle for the basic-block superinstruction path.
/// Defaults to **on**; the plain interpreter remains the executable
/// oracle and can be restored at runtime by flipping this off. Semantics
/// are bit-identical either way — the differential suite in
/// `tests/superinstr_equivalence.rs` enforces it.
pub mod superinstr {
    use std::sync::atomic::{AtomicBool, Ordering};

    static ENABLED: AtomicBool = AtomicBool::new(true);

    /// Is the superinstruction path on?
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Turn the superinstruction path on or off (A/B benches and tests).
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::op;

    #[test]
    fn bitmap_matches_reference_map() {
        // PUSH2 with a fake JUMPDEST inside the immediate, then a real one.
        let push2 = op::PUSH1 + 1;
        let code = vec![push2, op::JUMPDEST, 0x00, op::JUMPDEST, op::STOP];
        let analysis = AnalyzedCode::analyze(Arc::new(code.clone()));
        let reference = opcode::jumpdest_map(&code);
        for (i, expect) in reference.iter().enumerate() {
            assert_eq!(analysis.is_jumpdest(i), *expect, "pc {i}");
        }
        assert!(!analysis.is_jumpdest(code.len()));
        assert!(!analysis.is_jumpdest(usize::MAX));
    }

    #[test]
    fn hash_matches_keccak_and_empty_is_zero() {
        let code = vec![op::STOP, op::STOP, op::JUMPDEST];
        let analysis = AnalyzedCode::analyze(Arc::new(code.clone()));
        assert_eq!(analysis.code_hash(), H256::keccak(&code));
        // Memoized: second call returns the same value.
        assert_eq!(analysis.code_hash(), H256::keccak(&code));
        assert_eq!(AnalyzedCode::empty().code_hash(), H256::ZERO);
        assert!(AnalyzedCode::empty().is_empty());
    }
}
