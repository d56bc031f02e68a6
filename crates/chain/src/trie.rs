//! Binary Merkle trie over 32-byte keys — the authenticated state layer.
//!
//! The trie is a **crit-bit** (path-compressed binary) tree: every
//! internal node records the first bit position at which its two
//! subtrees' keys diverge, so lookup walks at most one node per
//! distinguishing bit and the structure is *canonical* — a given
//! key→value map has exactly one trie shape and therefore exactly one
//! root hash, regardless of insertion order. Canonicity is what lets
//! recovery rebuild the trie from a plain `WorldState` and land on the
//! bit-identical root the crashed process had committed.
//!
//! Nodes are content-addressed: `hash = keccak(encoding)`, and the
//! encoding is the node's identity in the [`NodeStore`]. Two encodings
//! exist:
//!
//! * Leaf:   `[0x00][key: 32 bytes][value: remaining bytes]`
//! * Branch: `[0x01][bit: u16 BE][left: 32 bytes][right: 32 bytes]`
//!
//! Key bit `i` is bit `7 - (i % 8)` of byte `i / 8` (MSB-first), so bit
//! 0 is the highest bit of the first byte. At a branch with crit-bit
//! `b`, keys with bit `b` clear go left, set go right; crit-bits
//! strictly increase from root to leaf. The empty trie's root is
//! [`H256::ZERO`].
//!
//! A proof for key `k` is simply the node encodings along the lookup
//! path, root first. The pure [`verify_proof`] function re-hashes each
//! encoding, checks the chain against the expected root, and follows
//! `k`'s bits — yielding the bound value for inclusion or demonstrating
//! absence (non-inclusion) when the terminal leaf holds a different
//! key. No node, no store, no chain required: a court-side auditor can
//! run it over a header's `state_root` and a serialized proof alone.

use lsc_primitives::{Address, FxHashMap, H256, U256};
use std::sync::Arc;

/// Backing storage for trie nodes, keyed by content hash.
///
/// Methods take `&mut self` because disk-backed implementations update
/// an LRU page cache on reads.
pub trait NodeStore {
    /// Fetch a node's encoding by hash, `None` if absent.
    fn node(&mut self, hash: H256) -> Option<Arc<Vec<u8>>>;
    /// Insert an encoding, returning its content hash. Called once per
    /// *position* a trie creates: the same bytes can sit at many positions
    /// (identical leaves in different tries), and a store that frees
    /// nodes counts them.
    fn insert_node(&mut self, bytes: Vec<u8>) -> H256;
    /// One position holding `hash` is gone — the counterpart of
    /// [`NodeStore::insert_node`]. Stores that never free ignore it.
    fn release_node(&mut self, _hash: H256) {}
}

/// Why a trie operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrieError {
    /// A node referenced by hash was not found in the store — the store
    /// is corrupt or truncated (never expected in normal operation).
    MissingNode(H256),
    /// A stored encoding did not parse as a leaf or branch.
    BadNode(H256),
}

impl core::fmt::Display for TrieError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TrieError::MissingNode(h) => write!(f, "trie node missing from store: {h}"),
            TrieError::BadNode(h) => write!(f, "trie node encoding invalid: {h}"),
        }
    }
}

impl std::error::Error for TrieError {}

/// Why a proof failed to verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// A node's keccak did not match the hash expected at its position.
    HashMismatch,
    /// A node encoding was malformed.
    BadEncoding,
    /// The proof ended before reaching a leaf (or was empty against a
    /// non-empty root).
    Truncated,
    /// The proof carried nodes beyond the terminal leaf.
    TrailingNodes,
    /// Crit-bit positions did not strictly increase along the path.
    BadStructure,
}

impl core::fmt::Display for ProofError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let msg = match self {
            ProofError::HashMismatch => "node hash does not match expected",
            ProofError::BadEncoding => "node encoding malformed",
            ProofError::Truncated => "proof truncated before a leaf",
            ProofError::TrailingNodes => "proof has trailing nodes after the leaf",
            ProofError::BadStructure => "crit-bit positions not strictly increasing",
        };
        write!(f, "invalid proof: {msg}")
    }
}

impl std::error::Error for ProofError {}

const LEAF_TAG: u8 = 0x00;
pub(crate) const BRANCH_TAG: u8 = 0x01;

/// A parsed node.
enum Node {
    Leaf { key: H256, value: Vec<u8> },
    Branch { bit: u16, left: H256, right: H256 },
}

fn encode_leaf(key: H256, value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(33 + value.len());
    out.push(LEAF_TAG);
    out.extend_from_slice(&key.0);
    out.extend_from_slice(value);
    out
}

fn encode_branch(bit: u16, left: H256, right: H256) -> Vec<u8> {
    let mut out = Vec::with_capacity(67);
    out.push(BRANCH_TAG);
    out.extend_from_slice(&bit.to_be_bytes());
    out.extend_from_slice(&left.0);
    out.extend_from_slice(&right.0);
    out
}

fn decode_node(bytes: &[u8]) -> Option<Node> {
    match *bytes.first()? {
        LEAF_TAG if bytes.len() >= 33 => Some(Node::Leaf {
            key: H256::from_slice(&bytes[1..33])?,
            value: bytes[33..].to_vec(),
        }),
        BRANCH_TAG if bytes.len() == 67 => Some(Node::Branch {
            bit: u16::from_be_bytes([bytes[1], bytes[2]]),
            left: H256::from_slice(&bytes[3..35])?,
            right: H256::from_slice(&bytes[35..67])?,
        }),
        _ => None,
    }
}

/// Bit `i` of a 32-byte key, MSB-first within each byte.
fn key_bit(key: &H256, i: u16) -> bool {
    let byte = key.0[(i / 8) as usize];
    (byte >> (7 - (i % 8))) & 1 == 1
}

/// First bit position at which two distinct keys differ.
fn first_diff_bit(a: &H256, b: &H256) -> u16 {
    for i in 0..32 {
        let x = a.0[i] ^ b.0[i];
        if x != 0 {
            return (i as u16) * 8 + x.leading_zeros() as u16;
        }
    }
    unreachable!("keys are distinct")
}

/// One branch on the way down to a key: the node's own hash (what an
/// update that re-encodes it gives back to the store), its fields, and
/// the side taken.
struct Step {
    hash: H256,
    bit: u16,
    left: H256,
    right: H256,
    went_right: bool,
}

impl Step {
    /// This branch with the taken side replaced by `child`.
    fn with_child(&self, child: H256) -> Vec<u8> {
        if self.went_right {
            encode_branch(self.bit, self.left, child)
        } else {
            encode_branch(self.bit, child, self.right)
        }
    }
}

/// A handle to one authenticated map: just the root hash; all nodes
/// live in the [`NodeStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trie {
    root: H256,
}

impl Trie {
    /// The empty trie.
    pub fn empty() -> Trie {
        Trie { root: H256::ZERO }
    }

    /// A trie rooted at a known hash (e.g. adopted from disk).
    pub fn from_root(root: H256) -> Trie {
        Trie { root }
    }

    /// Current root hash; [`H256::ZERO`] when empty.
    pub fn root(&self) -> H256 {
        self.root
    }

    /// True when the trie holds no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_zero()
    }

    fn load(store: &mut impl NodeStore, hash: H256) -> Result<Node, TrieError> {
        let bytes = store.node(hash).ok_or(TrieError::MissingNode(hash))?;
        decode_node(&bytes).ok_or(TrieError::BadNode(hash))
    }

    /// Look up the value bound to `key`.
    pub fn get(&self, store: &mut impl NodeStore, key: H256) -> Result<Option<Vec<u8>>, TrieError> {
        if self.root.is_zero() {
            return Ok(None);
        }
        let mut cursor = self.root;
        loop {
            match Trie::load(store, cursor)? {
                Node::Leaf { key: k, value } => {
                    return Ok(if k == key { Some(value) } else { None })
                }
                Node::Branch { bit, left, right } => {
                    cursor = if key_bit(&key, bit) { right } else { left };
                }
            }
        }
    }

    /// Walk from the root to the leaf `key` leads to: the branches
    /// passed, the leaf's hash and the key it holds. The trie must not
    /// be empty.
    fn descend(
        &self,
        store: &mut impl NodeStore,
        key: &H256,
    ) -> Result<(Vec<Step>, H256, H256), TrieError> {
        let mut path = Vec::new();
        let mut cursor = self.root;
        loop {
            match Trie::load(store, cursor)? {
                Node::Leaf { key: terminal, .. } => return Ok((path, cursor, terminal)),
                Node::Branch { bit, left, right } => {
                    let went_right = key_bit(key, bit);
                    path.push(Step {
                        hash: cursor,
                        bit,
                        left,
                        right,
                        went_right,
                    });
                    cursor = if went_right { right } else { left };
                }
            }
        }
    }

    /// Re-encode `path` bottom-up over the new `child`, make the result
    /// the root, and only then release the nodes it replaces (so a node
    /// that re-encodes to itself is never freed in between).
    fn relink(&mut self, store: &mut impl NodeStore, path: &[Step], mut child: H256) -> H256 {
        for step in path.iter().rev() {
            child = store.insert_node(step.with_child(child));
        }
        for step in path {
            store.release_node(step.hash);
        }
        self.root = child;
        child
    }

    /// Bind `key` to `value`, replacing any previous binding. Returns
    /// the new root.
    pub fn insert(
        &mut self,
        store: &mut impl NodeStore,
        key: H256,
        value: &[u8],
    ) -> Result<H256, TrieError> {
        if self.root.is_zero() {
            self.root = store.insert_node(encode_leaf(key, value));
            return Ok(self.root);
        }
        let (mut path, terminal_hash, terminal) = self.descend(store, &key)?;
        let leaf_hash = store.insert_node(encode_leaf(key, value));
        if terminal == key {
            // Replace in place: rebuild hashes up the recorded path.
            let root = self.relink(store, &path, leaf_hash);
            store.release_node(terminal_hash);
            return Ok(root);
        }
        // Split: a new branch at the first differing bit, inserted at
        // the shallowest path position with a larger crit-bit. What it
        // displaces — the whole subtree rooted there (every key under it
        // agrees with the terminal leaf on bit `diff`, since all its
        // crit-bits exceed `diff`), or the terminal leaf itself — moves
        // under the new branch untouched.
        let diff = first_diff_bit(&terminal, &key);
        let split_at = path.iter().position(|step| step.bit > diff);
        let displaced = split_at.map_or(terminal_hash, |i| path[i].hash);
        path.truncate(split_at.unwrap_or(path.len()));
        let (l, r) = if key_bit(&key, diff) {
            (displaced, leaf_hash)
        } else {
            (leaf_hash, displaced)
        };
        let branch = store.insert_node(encode_branch(diff, l, r));
        Ok(self.relink(store, &path, branch))
    }

    /// Remove `key`'s binding, if any. Returns the new root.
    pub fn remove(&mut self, store: &mut impl NodeStore, key: H256) -> Result<H256, TrieError> {
        if self.root.is_zero() {
            return Ok(self.root);
        }
        let (mut path, leaf_hash, terminal) = self.descend(store, &key)?;
        if terminal != key {
            return Ok(self.root);
        }
        // The parent branch collapses to the sibling subtree.
        let root = match path.pop() {
            Some(parent) => {
                let sibling = if parent.went_right {
                    parent.left
                } else {
                    parent.right
                };
                let root = self.relink(store, &path, sibling);
                store.release_node(parent.hash);
                root
            }
            None => {
                self.root = H256::ZERO; // removing the only leaf
                self.root
            }
        };
        store.release_node(leaf_hash);
        Ok(root)
    }

    /// Merkle proof for `key`: the node encodings along the lookup path,
    /// root first. Valid for both inclusion (terminal leaf holds `key`)
    /// and non-inclusion (terminal leaf holds a different key, or the
    /// trie is empty and the proof is empty).
    pub fn prove(&self, store: &mut impl NodeStore, key: H256) -> Result<Vec<Vec<u8>>, TrieError> {
        let mut proof = Vec::new();
        if self.root.is_zero() {
            return Ok(proof);
        }
        let mut cursor = self.root;
        loop {
            let bytes = store.node(cursor).ok_or(TrieError::MissingNode(cursor))?;
            proof.push(bytes.as_ref().clone());
            match decode_node(&bytes).ok_or(TrieError::BadNode(cursor))? {
                Node::Leaf { .. } => return Ok(proof),
                Node::Branch { bit, left, right } => {
                    cursor = if key_bit(&key, bit) { right } else { left };
                }
            }
        }
    }
}

/// Verify a Merkle proof against `root` with no store and no chain:
/// returns `Ok(Some(value))` when the proof demonstrates `key` is bound
/// to `value` under `root`, `Ok(None)` when it demonstrates `key` is
/// absent, and `Err` when the proof does not authenticate.
pub fn verify_proof(
    root: H256,
    key: H256,
    proof: &[Vec<u8>],
) -> Result<Option<Vec<u8>>, ProofError> {
    if root.is_zero() {
        // The empty trie proves every key absent with an empty proof.
        return if proof.is_empty() {
            Ok(None)
        } else {
            Err(ProofError::TrailingNodes)
        };
    }
    let mut expected = root;
    let mut min_bit: u32 = 0; // crit-bits must strictly increase
    let mut nodes = proof.iter();
    loop {
        let bytes = nodes.next().ok_or(ProofError::Truncated)?;
        if H256::keccak(bytes) != expected {
            return Err(ProofError::HashMismatch);
        }
        match decode_node(bytes).ok_or(ProofError::BadEncoding)? {
            Node::Leaf { key: k, value } => {
                if nodes.next().is_some() {
                    return Err(ProofError::TrailingNodes);
                }
                return Ok(if k == key { Some(value) } else { None });
            }
            Node::Branch { bit, left, right } => {
                if u32::from(bit) < min_bit || bit > 255 {
                    return Err(ProofError::BadStructure);
                }
                min_bit = u32::from(bit) + 1;
                expected = if key_bit(&key, bit) { right } else { left };
            }
        }
    }
}

// ---- state-keying and account encoding -------------------------------

/// Trie key for an account: keccak of the 20-byte address.
pub fn account_key(address: Address) -> H256 {
    H256::keccak(address.0)
}

/// Trie key for a storage slot: keccak of the 32-byte big-endian slot.
pub fn storage_key(slot: U256) -> H256 {
    H256::keccak(slot.to_be_bytes())
}

/// What an account leaf commits to. The storage root authenticates the
/// account's own storage trie, so one account proof plus one storage
/// proof pins a slot value all the way up to the block header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccountData {
    /// Balance in wei.
    pub balance: U256,
    /// Account nonce.
    pub nonce: u64,
    /// keccak of the account's code (the empty-code hash for EOAs).
    pub code_hash: H256,
    /// Root of the account's storage trie; [`H256::ZERO`] when empty.
    pub storage_root: H256,
}

/// Fixed account leaf-value length: 32 + 8 + 32 + 32.
pub const ACCOUNT_DATA_LEN: usize = 104;

/// Encode account data as an account leaf's value bytes.
pub fn encode_account(account: &AccountData) -> Vec<u8> {
    let mut out = Vec::with_capacity(ACCOUNT_DATA_LEN);
    out.extend_from_slice(&account.balance.to_be_bytes());
    out.extend_from_slice(&account.nonce.to_be_bytes());
    out.extend_from_slice(&account.code_hash.0);
    out.extend_from_slice(&account.storage_root.0);
    out
}

/// Decode an account leaf's value bytes.
pub fn decode_account(bytes: &[u8]) -> Option<AccountData> {
    if bytes.len() != ACCOUNT_DATA_LEN {
        return None;
    }
    Some(AccountData {
        balance: U256::from_be_slice(&bytes[0..32]),
        nonce: u64::from_be_bytes(bytes[32..40].try_into().ok()?),
        code_hash: H256::from_slice(&bytes[40..72])?,
        storage_root: H256::from_slice(&bytes[72..104])?,
    })
}

/// Encode a storage slot value as a storage leaf's value bytes.
pub fn encode_slot_value(value: U256) -> Vec<u8> {
    value.to_be_bytes().to_vec()
}

/// Decode a storage leaf's value bytes.
pub fn decode_slot_value(bytes: &[u8]) -> Option<U256> {
    if bytes.len() != 32 {
        return None;
    }
    Some(U256::from_be_slice(bytes))
}

// ---- in-memory store -------------------------------------------------

/// Simple hash-map node store — unit tests and scratch rebuilds.
#[derive(Debug, Default)]
pub struct MemNodes {
    nodes: FxHashMap<H256, Arc<Vec<u8>>>,
}

impl MemNodes {
    /// An empty store.
    pub fn new() -> MemNodes {
        MemNodes::default()
    }

    /// Number of distinct nodes held.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are held.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl NodeStore for MemNodes {
    fn node(&mut self, hash: H256) -> Option<Arc<Vec<u8>>> {
        self.nodes.get(&hash).cloned()
    }

    fn insert_node(&mut self, bytes: Vec<u8>) -> H256 {
        let hash = H256::keccak(&bytes);
        self.nodes.entry(hash).or_insert_with(|| Arc::new(bytes));
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> H256 {
        H256::keccak(n.to_be_bytes())
    }

    #[test]
    fn empty_trie_semantics() {
        let mut store = MemNodes::new();
        let trie = Trie::empty();
        assert!(trie.is_empty());
        assert_eq!(trie.get(&mut store, key(1)).unwrap(), None);
        let proof = trie.prove(&mut store, key(1)).unwrap();
        assert!(proof.is_empty());
        assert_eq!(verify_proof(H256::ZERO, key(1), &proof).unwrap(), None);
        assert!(verify_proof(H256::ZERO, key(1), &[vec![0]]).is_err());
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut store = MemNodes::new();
        let mut trie = Trie::empty();
        for i in 0..100u64 {
            trie.insert(&mut store, key(i), &i.to_be_bytes()).unwrap();
        }
        for i in 0..100u64 {
            assert_eq!(
                trie.get(&mut store, key(i)).unwrap(),
                Some(i.to_be_bytes().to_vec()),
                "key {i}"
            );
        }
        assert_eq!(trie.get(&mut store, key(1000)).unwrap(), None);
    }

    #[test]
    fn root_is_insertion_order_independent() {
        let mut forward = (Trie::empty(), MemNodes::new());
        let mut reverse = (Trie::empty(), MemNodes::new());
        let mut shuffled = (Trie::empty(), MemNodes::new());
        let n = 64u64;
        for i in 0..n {
            forward.0.insert(&mut forward.1, key(i), b"v").unwrap();
        }
        for i in (0..n).rev() {
            reverse.0.insert(&mut reverse.1, key(i), b"v").unwrap();
        }
        // Deterministic shuffle: odd indices first, then even.
        for i in (1..n).step_by(2).chain((0..n).step_by(2)) {
            shuffled.0.insert(&mut shuffled.1, key(i), b"v").unwrap();
        }
        assert_eq!(forward.0.root(), reverse.0.root());
        assert_eq!(forward.0.root(), shuffled.0.root());
    }

    #[test]
    fn replacement_changes_root_and_value() {
        let mut store = MemNodes::new();
        let mut trie = Trie::empty();
        trie.insert(&mut store, key(1), b"old").unwrap();
        let r1 = trie.root();
        trie.insert(&mut store, key(1), b"new").unwrap();
        assert_ne!(trie.root(), r1);
        assert_eq!(trie.get(&mut store, key(1)).unwrap(), Some(b"new".to_vec()));
        // Replacing back restores the original root (canonical).
        trie.insert(&mut store, key(1), b"old").unwrap();
        assert_eq!(trie.root(), r1);
    }

    #[test]
    fn remove_restores_prior_roots() {
        let mut store = MemNodes::new();
        let mut trie = Trie::empty();
        let mut roots = vec![trie.root()];
        for i in 0..32u64 {
            trie.insert(&mut store, key(i), &i.to_be_bytes()).unwrap();
            roots.push(trie.root());
        }
        for i in (0..32u64).rev() {
            assert_eq!(trie.root(), roots[(i + 1) as usize]);
            trie.remove(&mut store, key(i)).unwrap();
        }
        assert_eq!(trie.root(), H256::ZERO);
        // Removing an absent key is a no-op.
        trie.insert(&mut store, key(5), b"v").unwrap();
        let r = trie.root();
        trie.remove(&mut store, key(6)).unwrap();
        assert_eq!(trie.root(), r);
    }

    #[test]
    fn proofs_verify_and_reject_tampering() {
        let mut store = MemNodes::new();
        let mut trie = Trie::empty();
        for i in 0..50u64 {
            trie.insert(&mut store, key(i), &i.to_be_bytes()).unwrap();
        }
        let root = trie.root();
        // Inclusion.
        for i in [0u64, 7, 23, 49] {
            let proof = trie.prove(&mut store, key(i)).unwrap();
            assert_eq!(
                verify_proof(root, key(i), &proof).unwrap(),
                Some(i.to_be_bytes().to_vec())
            );
        }
        // Non-inclusion.
        let absent = key(999);
        let proof = trie.prove(&mut store, absent).unwrap();
        assert_eq!(verify_proof(root, absent, &proof).unwrap(), None);
        // Tampered value byte → hash mismatch.
        let mut proof = trie.prove(&mut store, key(3)).unwrap();
        let last = proof.len() - 1;
        let end = proof[last].len() - 1;
        proof[last][end] ^= 1;
        assert_eq!(
            verify_proof(root, key(3), &proof),
            Err(ProofError::HashMismatch)
        );
        // Wrong root → rejected at the first node.
        let proof = trie.prove(&mut store, key(3)).unwrap();
        assert_eq!(
            verify_proof(H256::keccak(b"bogus"), key(3), &proof),
            Err(ProofError::HashMismatch)
        );
        // Truncated proof → rejected.
        let mut proof = trie.prove(&mut store, key(3)).unwrap();
        proof.pop();
        assert!(matches!(
            verify_proof(root, key(3), &proof),
            Err(ProofError::Truncated | ProofError::HashMismatch)
        ));
        // Trailing junk → rejected.
        let mut proof = trie.prove(&mut store, key(3)).unwrap();
        proof.push(vec![0xff]);
        assert_eq!(
            verify_proof(root, key(3), &proof),
            Err(ProofError::TrailingNodes)
        );
    }

    #[test]
    fn proof_cannot_substitute_sibling_value() {
        // A proof for key A must not verify as a proof for key B even
        // when both are present: the verifier follows B's bits.
        let mut store = MemNodes::new();
        let mut trie = Trie::empty();
        trie.insert(&mut store, key(1), b"one").unwrap();
        trie.insert(&mut store, key(2), b"two").unwrap();
        let root = trie.root();
        let proof_for_1 = trie.prove(&mut store, key(1)).unwrap();
        // Verifying key 2 against key 1's proof either fails outright or
        // (if the paths share every branch) reports the honest value.
        if let Ok(v) = verify_proof(root, key(2), &proof_for_1) {
            assert_ne!(v, Some(b"one".to_vec()));
        }
    }

    #[test]
    fn account_encoding_roundtrip() {
        let account = AccountData {
            balance: U256::from_u64(123_456_789),
            nonce: 42,
            code_hash: H256::keccak(b"code"),
            storage_root: H256::keccak(b"storage"),
        };
        let bytes = encode_account(&account);
        assert_eq!(bytes.len(), ACCOUNT_DATA_LEN);
        assert_eq!(decode_account(&bytes), Some(account));
        assert_eq!(decode_account(&bytes[..100]), None);
        let value = U256::from_u64(77);
        assert_eq!(decode_slot_value(&encode_slot_value(value)), Some(value));
    }

    #[test]
    fn key_bit_is_msb_first() {
        let mut k = H256::ZERO;
        k.0[0] = 0b1000_0000;
        assert!(key_bit(&k, 0));
        assert!(!key_bit(&k, 1));
        let mut k = H256::ZERO;
        k.0[1] = 0b0000_0001;
        assert!(key_bit(&k, 15));
        assert!(!key_bit(&k, 14));
        assert_eq!(first_diff_bit(&H256::ZERO, &k), 15);
    }
}
