//! Paged on-disk node store for the authenticated state trie.
//!
//! Layout: one append-mostly page file (`state.pages`) of fixed
//! [`PAGE_SIZE`] pages, each `[magic u32 LE][used u32 LE]` followed by
//! packed records `[len u16 LE][hash: 32 bytes][payload]`. Records are
//! content-addressed — `hash = keccak(payload)` — so opening the file
//! rebuilds the hash→location index with a single sequential scan that
//! *verifies* every record; a torn page (bad magic, bad length, or a
//! checksum mismatch) simply contributes nothing and its tail space
//! returns to the free list. The commit point is a separate tiny root
//! file (`state.root`, written atomically via tmp+fsync+rename) naming
//! the trie root and block height the pages authenticate: until the
//! rename lands, recovery sees the previous root — or none — and falls
//! back to rebuilding the (canonical) trie from world state, which
//! yields the bit-identical root.
//!
//! Reads go through an LRU page cache with a configurable byte budget,
//! so resident memory stays bounded while state exceeds RAM. All writes
//! and fsyncs route through the shared [`Faults`] handle, which makes
//! every persist-path crash point enumerable by the recovery sweep
//! exactly like the WAL's.

use crate::state::{TrieDirt, WorldState};
use crate::trie::{
    account_key, decode_account, encode_account, encode_slot_value, storage_key, AccountData,
    NodeStore, Trie, TrieError, BRANCH_TAG,
};
use crate::wal::{self, Faults, WalError, WriteCheck};
use lsc_abi::json::{parse, JsonValue};
use lsc_primitives::{Address, FxHashMap, H256, U256};
use std::collections::hash_map::Entry;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Size of one store page.
pub const PAGE_SIZE: usize = 16 * 1024;
/// Default LRU page-cache budget (bytes).
pub const DEFAULT_CACHE_BYTES: usize = 16 * 1024 * 1024;

const PAGE_MAGIC: u32 = 0x4C53_4350; // "LSCP"
const PAGE_HEADER: usize = 8;
const RECORD_HEADER: usize = 2 + 32; // len u16 + content hash
const PAGES_FILE: &str = "state.pages";
const ROOT_FILE: &str = "state.root";

fn io_err(context: &str, e: std::io::Error) -> WalError {
    WalError::Io(format!("{context}: {e}"))
}

// ---- page cache ------------------------------------------------------

/// LRU cache of whole pages under a byte budget.
struct PageCache {
    budget: usize,
    tick: u64,
    pages: FxHashMap<u32, (Arc<Vec<u8>>, u64)>,
}

impl PageCache {
    fn new(budget: usize) -> PageCache {
        PageCache {
            budget,
            tick: 0,
            pages: FxHashMap::default(),
        }
    }

    fn get(&mut self, page: u32) -> Option<Arc<Vec<u8>>> {
        self.tick += 1;
        let tick = self.tick;
        self.pages.get_mut(&page).map(|entry| {
            entry.1 = tick;
            Arc::clone(&entry.0)
        })
    }

    fn put(&mut self, page: u32, bytes: Arc<Vec<u8>>) {
        self.tick += 1;
        self.pages.insert(page, (bytes, self.tick));
        while self.pages.len() * PAGE_SIZE > self.budget && self.pages.len() > 1 {
            let oldest = self
                .pages
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(page, _)| *page)
                .expect("non-empty");
            self.pages.remove(&oldest);
        }
    }

    fn clear(&mut self) {
        self.pages.clear();
    }
}

// ---- paged file ------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct RecordLoc {
    page: u32,
    /// Offset of the record header within the page.
    offset: u32,
    /// Payload length.
    len: u32,
}

/// The on-disk page file plus its in-memory index, tail page and cache.
struct PagedFile {
    path: PathBuf,
    file: File,
    index: FxHashMap<H256, RecordLoc>,
    n_pages: u32,
    /// Fully-free page indices available for reuse (torn pages found at
    /// open, space reclaimed by vacuum).
    free: Vec<u32>,
    /// The page currently being filled; buffered until the next flush.
    tail: u32,
    tail_buf: Vec<u8>,
    tail_used: u32,
    /// Full pages not yet written to disk, in fill order.
    pending: Vec<(u32, Vec<u8>)>,
    cache: PageCache,
    /// Total record bytes referenced by the index (live upper bound).
    record_bytes: u64,
    faults: Faults,
}

fn blank_page() -> Vec<u8> {
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[0..4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
    buf
}

fn set_used(buf: &mut [u8], used: u32) {
    buf[4..8].copy_from_slice(&used.to_le_bytes());
}

/// Seek-and-write one page, honouring the injected fault schedule. A
/// free function (not a method) so [`PagedFile::flush`] can write pages
/// it still holds borrowed.
fn write_page_to(file: &mut File, faults: &Faults, page: u32, buf: &[u8]) -> Result<(), WalError> {
    file.seek(SeekFrom::Start(u64::from(page) * PAGE_SIZE as u64))
        .map_err(|e| io_err("seek page", e))?;
    match faults.check_write() {
        WriteCheck::Proceed => file.write_all(buf).map_err(|e| io_err("write page", e))?,
        WriteCheck::Fail => return Err(WalError::Injected("write".into())),
        WriteCheck::Short(k) => {
            let k = k.min(buf.len().saturating_sub(1));
            file.write_all(&buf[..k])
                .map_err(|e| io_err("write page", e))?;
            return Err(WalError::Injected(format!("short write ({k} bytes)")));
        }
    }
    Ok(())
}

impl PagedFile {
    fn open(path: PathBuf, cache_bytes: usize, faults: Faults) -> Result<PagedFile, WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open page file", e))?;
        let len = file
            .metadata()
            .map_err(|e| io_err("stat page file", e))?
            .len() as usize;
        let mut index = FxHashMap::default();
        let mut free = Vec::new();
        let mut record_bytes = 0u64;
        let full_pages = (len / PAGE_SIZE) as u32;
        let mut buf = vec![0u8; PAGE_SIZE];
        file.seek(SeekFrom::Start(0))
            .map_err(|e| io_err("seek page file", e))?;
        for page in 0..full_pages {
            file.read_exact(&mut buf)
                .map_err(|e| io_err("read page", e))?;
            let magic = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
            let used = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")) as usize;
            if magic != PAGE_MAGIC || used == 0 || used > PAGE_SIZE - PAGE_HEADER {
                free.push(page);
                continue;
            }
            let mut pos = PAGE_HEADER;
            let end = PAGE_HEADER + used;
            while pos + RECORD_HEADER <= end {
                let len = u16::from_le_bytes([buf[pos], buf[pos + 1]]) as usize;
                let payload_end = pos + RECORD_HEADER + len;
                if len == 0 || payload_end > end {
                    break; // torn tail of a page — ignore the rest
                }
                let hash = H256::from_slice(&buf[pos + 2..pos + 34]).expect("32 bytes");
                let payload = &buf[pos + RECORD_HEADER..payload_end];
                if H256::keccak(payload) != hash {
                    break; // corrupt record ends the page's valid prefix
                }
                index.entry(hash).or_insert(RecordLoc {
                    page,
                    offset: pos as u32,
                    len: len as u32,
                });
                record_bytes += (RECORD_HEADER + len) as u64;
                pos = payload_end;
            }
        }
        // A trailing partial page (crash during extension) is free space.
        let n_pages = (len as u64).div_ceil(PAGE_SIZE as u64) as u32;
        if n_pages > full_pages {
            free.push(full_pages);
        }
        // Fill a fresh tail page; existing pages are immutable history
        // (rewriting them would invalidate scanned offsets mid-session).
        let tail = free.pop().unwrap_or(n_pages);
        let n_pages = n_pages.max(tail + 1);
        Ok(PagedFile {
            path,
            file,
            index,
            n_pages,
            free,
            tail,
            tail_buf: blank_page(),
            tail_used: 0,
            pending: Vec::new(),
            cache: PageCache::new(cache_bytes),
            record_bytes,
            faults,
        })
    }

    fn contains(&self, hash: H256) -> bool {
        self.index.contains_key(&hash)
    }

    /// Fetch a record's payload by hash.
    fn get(&mut self, hash: H256) -> Option<Arc<Vec<u8>>> {
        let loc = *self.index.get(&hash)?;
        let start = loc.offset as usize + RECORD_HEADER;
        let end = start + loc.len as usize;
        if loc.page == self.tail {
            return Some(Arc::new(self.tail_buf[start..end].to_vec()));
        }
        if let Some((_, buf)) = self.pending.iter().find(|(page, _)| *page == loc.page) {
            return Some(Arc::new(buf[start..end].to_vec()));
        }
        let page_buf = match self.cache.get(loc.page) {
            Some(buf) => buf,
            None => {
                let mut buf = vec![0u8; PAGE_SIZE];
                self.file
                    .seek(SeekFrom::Start(u64::from(loc.page) * PAGE_SIZE as u64))
                    .ok()?;
                self.file.read_exact(&mut buf).ok()?;
                let buf = Arc::new(buf);
                self.cache.put(loc.page, Arc::clone(&buf));
                buf
            }
        };
        Some(Arc::new(page_buf[start..end].to_vec()))
    }

    fn alloc_page(&mut self) -> u32 {
        if let Some(page) = self.free.pop() {
            return page;
        }
        let page = self.n_pages;
        self.n_pages += 1;
        page
    }

    /// Stage a record for the next flush. No disk I/O here — pages are
    /// written (and fault-counted) in one deterministic pass by
    /// [`PagedFile::flush`].
    fn append(&mut self, hash: H256, payload: &[u8]) -> Result<(), WalError> {
        if self.contains(hash) {
            return Ok(());
        }
        let need = RECORD_HEADER + payload.len();
        if need > PAGE_SIZE - PAGE_HEADER {
            return Err(WalError::Io(format!(
                "trie node too large for a page ({} bytes)",
                payload.len()
            )));
        }
        if PAGE_HEADER + self.tail_used as usize + need > PAGE_SIZE {
            // Seal the tail and start a fresh page.
            set_used(&mut self.tail_buf, self.tail_used);
            let sealed = std::mem::replace(&mut self.tail_buf, blank_page());
            self.pending.push((self.tail, sealed));
            self.tail = self.alloc_page();
            self.tail_used = 0;
        }
        let pos = PAGE_HEADER + self.tail_used as usize;
        self.tail_buf[pos..pos + 2].copy_from_slice(&(payload.len() as u16).to_le_bytes());
        self.tail_buf[pos + 2..pos + 34].copy_from_slice(&hash.0);
        self.tail_buf[pos + RECORD_HEADER..pos + need].copy_from_slice(payload);
        self.index.insert(
            hash,
            RecordLoc {
                page: self.tail,
                offset: pos as u32,
                len: payload.len() as u32,
            },
        );
        self.tail_used += need as u32;
        self.record_bytes += need as u64;
        Ok(())
    }

    /// Write every staged page (full pages in fill order, then the
    /// tail), fsync once. After a successful flush all indexed records
    /// are durable on disk — the caller then flips the root file to
    /// commit them. On failure (including injected faults) every staged
    /// page *stays* staged: the index keeps serving the buffered copies
    /// and the next flush rewrites everything, so a crashed persist can
    /// simply be retried at the next compaction.
    fn flush(&mut self) -> Result<(), WalError> {
        for (page, buf) in &self.pending {
            // `used` was finalized when the page was sealed.
            write_page_to(&mut self.file, &self.faults, *page, buf)?;
        }
        if self.tail_used > 0 {
            set_used(&mut self.tail_buf, self.tail_used);
            write_page_to(&mut self.file, &self.faults, self.tail, &self.tail_buf)?;
        }
        if self.faults.check_fsync() {
            return Err(WalError::Injected("fsync".into()));
        }
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync page file", e))?;
        // Durable: sealed pages move to the cache; the tail keeps
        // filling in place and is rewritten by the next flush.
        for (page, buf) in std::mem::take(&mut self.pending) {
            self.cache.put(page, Arc::new(buf));
        }
        Ok(())
    }

    /// Rewrite the file keeping only `live` records (tmp + fsync +
    /// atomic rename), dropping every dead byte. The index, free list
    /// and cache are rebuilt; `live` order fixes the new layout.
    fn vacuum(&mut self, live: &[H256]) -> Result<(), WalError> {
        let mut records: Vec<(H256, Vec<u8>)> = Vec::with_capacity(live.len());
        for hash in live {
            if let Some(payload) = self.get(*hash) {
                records.push((*hash, payload.as_ref().clone()));
            }
        }
        let mut file_bytes = Vec::new();
        let mut index = FxHashMap::default();
        let mut page_buf = blank_page();
        let mut used = 0u32;
        let mut page = 0u32;
        let mut record_bytes = 0u64;
        for (hash, payload) in records {
            let need = RECORD_HEADER + payload.len();
            if PAGE_HEADER + used as usize + need > PAGE_SIZE {
                set_used(&mut page_buf, used);
                file_bytes.extend_from_slice(&page_buf);
                page_buf = blank_page();
                used = 0;
                page += 1;
            }
            let pos = PAGE_HEADER + used as usize;
            page_buf[pos..pos + 2].copy_from_slice(&(payload.len() as u16).to_le_bytes());
            page_buf[pos + 2..pos + 34].copy_from_slice(&hash.0);
            page_buf[pos + RECORD_HEADER..pos + need].copy_from_slice(&payload);
            index.insert(
                hash,
                RecordLoc {
                    page,
                    offset: pos as u32,
                    len: payload.len() as u32,
                },
            );
            used += need as u32;
            record_bytes += need as u64;
        }
        if used > 0 {
            set_used(&mut page_buf, used);
            file_bytes.extend_from_slice(&page_buf);
            page += 1;
        }
        wal::write_durable(&self.path, &file_bytes, &self.faults)?;
        self.file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("reopen page file", e))?;
        self.index = index;
        self.n_pages = page + 1;
        self.free.clear();
        self.tail = page;
        self.tail_buf = blank_page();
        self.tail_used = 0;
        self.pending.clear();
        self.cache.clear();
        self.record_bytes = record_bytes;
        Ok(())
    }
}

// ---- the store -------------------------------------------------------

/// A node of the in-memory overlay and the number of trie positions
/// holding it.
struct OverlayNode {
    bytes: Arc<Vec<u8>>,
    refs: u32,
}

/// The in-memory overlay: nodes by hash, in 256 tables picked by the
/// hash's first byte. One table would do but for how a hash table
/// grows — by rehashing all of itself inside a single insert, which at
/// 100k nodes is an 8 ms stall in whichever block trips it. Hashes are
/// uniform, so the shards fill evenly but not in step: each moves 1/256
/// of the nodes when it grows, and they get there in different blocks.
struct Overlay(Vec<FxHashMap<H256, OverlayNode>>);

impl Overlay {
    fn new() -> Overlay {
        Overlay((0..=u8::MAX).map(|_| FxHashMap::default()).collect())
    }

    fn shard_mut(&mut self, hash: &H256) -> &mut FxHashMap<H256, OverlayNode> {
        &mut self.0[usize::from(hash.0[0])]
    }

    fn get(&self, hash: &H256) -> Option<&OverlayNode> {
        self.0[usize::from(hash.0[0])].get(hash)
    }

    fn hashes(&self) -> impl Iterator<Item = &H256> {
        self.0.iter().flat_map(FxHashMap::keys)
    }

    fn clear(&mut self) {
        self.0.iter_mut().for_each(FxHashMap::clear);
    }
}

/// Node store for the state trie: an in-memory overlay of the nodes
/// created since the last persist, over an optional paged disk file.
/// In-memory nodes move to pages at persist (compaction) time;
/// afterwards reads are served through the page cache, keeping resident
/// memory at the cache budget.
///
/// The overlay holds exactly the live nodes that are not in pages. Nodes
/// are content-addressed *across* tries — the storage leaf holding
/// `landlord` is byte-identical in every agreement's trie — so a hash a
/// trie stops using may still be in use elsewhere, and the overlay keeps
/// a reference count per node: [`NodeStore::insert_node`] counts one
/// *position* (bytes already present gain a reference),
/// [`NodeStore::release_node`] gives one back, and the node goes when
/// the last is gone. A block thus frees what it supersedes as it goes,
/// and no walk over all of state is ever needed to find the garbage.
/// Nodes in pages are not counted; vacuum owns those.
pub struct StateStore {
    mem: Overlay,
    disk: Option<PagedFile>,
    persisted: Option<(H256, u64)>,
}

impl StateStore {
    /// A purely in-memory store (dev nodes, tests).
    pub fn in_memory() -> StateStore {
        StateStore {
            mem: Overlay::new(),
            disk: None,
            persisted: None,
        }
    }

    /// Open the disk-backed store in `dir`, scanning (and verifying)
    /// the page file and reading the committed root, if any.
    pub fn open(dir: &Path, cache_bytes: usize, faults: Faults) -> Result<StateStore, WalError> {
        let disk = PagedFile::open(dir.join(PAGES_FILE), cache_bytes, faults)?;
        let persisted = read_root_file(&dir.join(ROOT_FILE));
        Ok(StateStore {
            mem: Overlay::new(),
            disk: Some(disk),
            persisted,
        })
    }

    /// True when backed by a page file.
    pub fn is_disk_backed(&self) -> bool {
        self.disk.is_some()
    }

    /// The root + block height committed by the root file, if any.
    pub fn persisted_root(&self) -> Option<(H256, u64)> {
        self.persisted
    }

    /// Release every position of the subtree rooted at `root` — a
    /// storage trie whose account is gone or rebuilt. A node in pages
    /// ends the descent: what a paged node reaches was persisted with it.
    fn release_subtree(&mut self, root: H256) {
        let mut stack = vec![root];
        while let Some(hash) = stack.pop() {
            let Some(node) = self.mem.get(&hash) else {
                continue;
            };
            if let [BRANCH_TAG, _, _, children @ ..] = &node.bytes[..] {
                stack.extend(children.chunks_exact(32).filter_map(H256::from_slice));
            }
            self.release_node(hash);
        }
    }

    /// Is the overlay exactly what `live` (every position reachable from
    /// the current roots, as [`StateTrie::live_nodes`] lists them) says it
    /// should be? Each live node is in pages or in the overlay, never
    /// both (nothing freed early), and each overlay node is referenced
    /// once per live position (nothing leaked). The error names the first
    /// node that is not.
    pub fn check_overlay(&self, live: &[H256]) -> Result<(), String> {
        let mut positions: FxHashMap<H256, u32> = FxHashMap::default();
        for hash in live {
            *positions.entry(*hash).or_default() += 1;
        }
        for (hash, count) in &positions {
            let paged = self.disk.as_ref().is_some_and(|d| d.contains(*hash));
            match self.mem.get(hash) {
                None if paged => {}
                None => return Err(format!("live node {hash} is nowhere")),
                Some(_) if paged => return Err(format!("node {hash} is in pages and overlay")),
                Some(node) if node.refs != *count => {
                    return Err(format!(
                        "node {hash} holds {} references for {count} positions",
                        node.refs
                    ));
                }
                Some(_) => {}
            }
        }
        match self.mem.hashes().find(|hash| !positions.contains_key(hash)) {
            Some(hash) => Err(format!("dead node {hash} is still in the overlay")),
            None => Ok(()),
        }
    }

    /// Persist `live` (the exact reachable node set, deterministic
    /// order) to pages, fsync, then atomically commit `root`/`block`
    /// via the root file. On success the in-memory overlay is dropped —
    /// every node is servable from disk through the page cache. On any
    /// injected fault the root file still names the previous root, so
    /// recovery ignores the partially-written pages (their records are
    /// checksummed and merely unreachable).
    pub fn persist(&mut self, root: H256, block: u64, live: &[H256]) -> Result<(), WalError> {
        let Some(disk) = self.disk.as_mut() else {
            return Ok(());
        };
        for hash in live {
            if disk.contains(*hash) {
                continue;
            }
            let Some(node) = self.mem.get(hash) else {
                return Err(WalError::Corrupt(format!(
                    "live trie node {hash} in neither memory nor pages"
                )));
            };
            disk.append(*hash, &node.bytes)?;
        }
        disk.flush()?;
        let root_path = disk.path.with_file_name(ROOT_FILE);
        let faults = disk.faults.clone();
        wal::write_durable(&root_path, root_file_json(root, block).as_bytes(), &faults)?;
        self.persisted = Some((root, block));
        self.mem.clear();
        // Reclaim dead pages once they outweigh the live data.
        let disk = self.disk.as_mut().expect("disk-backed");
        let live_bytes: u64 = live
            .iter()
            .filter_map(|h| disk.index.get(h))
            .map(|loc| u64::from(RECORD_HEADER as u32 + loc.len))
            .sum();
        let dead_bytes = disk.record_bytes.saturating_sub(live_bytes);
        if dead_bytes > live_bytes && dead_bytes > 4 * PAGE_SIZE as u64 {
            disk.vacuum(live)?;
        }
        Ok(())
    }
}

impl NodeStore for StateStore {
    fn node(&mut self, hash: H256) -> Option<Arc<Vec<u8>>> {
        if let Some(node) = self.mem.get(&hash) {
            return Some(Arc::clone(&node.bytes));
        }
        self.disk.as_mut()?.get(hash)
    }

    fn insert_node(&mut self, bytes: Vec<u8>) -> H256 {
        let hash = H256::keccak(&bytes);
        if let Some(node) = self.mem.shard_mut(&hash).get_mut(&hash) {
            node.refs += 1;
        } else if !self.disk.as_ref().is_some_and(|d| d.contains(hash)) {
            let bytes = Arc::new(bytes);
            self.mem
                .shard_mut(&hash)
                .insert(hash, OverlayNode { bytes, refs: 1 });
        }
        hash
    }

    fn release_node(&mut self, hash: H256) {
        if let Entry::Occupied(mut node) = self.mem.shard_mut(&hash).entry(hash) {
            node.get_mut().refs -= 1;
            if node.get().refs == 0 {
                node.remove();
            }
        }
    }
}

fn root_file_json(root: H256, block: u64) -> String {
    JsonValue::object([
        ("block", JsonValue::Number(block as f64)),
        ("root", JsonValue::String(root.to_string())),
    ])
    .to_json()
}

fn read_root_file(path: &Path) -> Option<(H256, u64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = parse(&text).ok()?;
    let root: H256 = match doc.get("root") {
        Some(JsonValue::String(s)) => s.parse().ok()?,
        _ => return None,
    };
    let block = match doc.get("block") {
        Some(JsonValue::Number(n)) if *n >= 0.0 => *n as u64,
        _ => return None,
    };
    Some((root, block))
}

// ---- the two-level state trie ----------------------------------------

/// The authenticated view of world state: one account trie whose leaves
/// commit each account's balance/nonce/code-hash/storage-root, plus a
/// write-through cache of per-account storage tries. Fully recoverable
/// from the account trie alone — storage roots live in the account
/// leaves, so the cache is an optimization, never a source of truth.
pub struct StateTrie {
    accounts: Trie,
    storage: FxHashMap<Address, Trie>,
}

impl Default for StateTrie {
    fn default() -> Self {
        StateTrie::new()
    }
}

impl StateTrie {
    /// An empty state trie.
    pub fn new() -> StateTrie {
        StateTrie {
            accounts: Trie::empty(),
            storage: FxHashMap::default(),
        }
    }

    /// Adopt a persisted account-trie root (nodes already in `store`).
    pub fn from_root(root: H256) -> StateTrie {
        StateTrie {
            accounts: Trie::from_root(root),
            storage: FxHashMap::default(),
        }
    }

    /// Current state root ([`H256::ZERO`] when empty).
    pub fn root(&self) -> H256 {
        self.accounts.root()
    }

    /// The account's storage trie: cached, or recovered from its
    /// account leaf's committed storage root.
    fn storage_trie(
        &mut self,
        store: &mut StateStore,
        address: Address,
    ) -> Result<Trie, TrieError> {
        if let Some(trie) = self.storage.get(&address) {
            return Ok(*trie);
        }
        match self.accounts.get(store, account_key(address))? {
            Some(bytes) => {
                let account =
                    decode_account(&bytes).ok_or(TrieError::BadNode(account_key(address)))?;
                Ok(Trie::from_root(account.storage_root))
            }
            None => Ok(Trie::empty()),
        }
    }

    /// Fold one block's dirt into the trie and return the new state
    /// root. `Some(slots)` dirt updates exactly those slots
    /// incrementally; `None` rebuilds the account's storage trie from
    /// the world state. Iteration order is fixed (sorted addresses and
    /// slots) so the node-creation sequence — and with it the persist
    /// I/O schedule the fault sweep enumerates — is deterministic.
    pub fn apply(
        &mut self,
        store: &mut StateStore,
        state: &WorldState,
        dirty: &FxHashMap<Address, TrieDirt>,
    ) -> Result<H256, TrieError> {
        let mut addresses: Vec<Address> = dirty.keys().copied().collect();
        addresses.sort_by_key(|a| a.0);
        for address in addresses {
            let mut storage_trie = self.storage_trie(store, address)?;
            let Some(account) = state.account(address) else {
                // The account is gone, and its storage trie with it.
                self.accounts.remove(store, account_key(address))?;
                self.storage.remove(&address);
                store.release_subtree(storage_trie.root());
                continue;
            };
            match &dirty[&address] {
                None => {
                    // Build the replacement before releasing what it
                    // replaces, so nodes both share are never freed.
                    let replaced = std::mem::replace(&mut storage_trie, Trie::empty());
                    let mut slots: Vec<(U256, U256)> =
                        account.storage.iter().map(|(k, v)| (*k, *v)).collect();
                    slots.sort_by_key(|(k, _)| k.to_be_bytes());
                    for (slot, value) in slots {
                        storage_trie.insert(store, storage_key(slot), &encode_slot_value(value))?;
                    }
                    store.release_subtree(replaced.root());
                }
                Some(touched) => {
                    let mut touched: Vec<U256> = touched.iter().copied().collect();
                    touched.sort_by_key(U256::to_be_bytes);
                    for slot in touched {
                        match account.storage.get(&slot) {
                            Some(value) => {
                                storage_trie.insert(
                                    store,
                                    storage_key(slot),
                                    &encode_slot_value(*value),
                                )?;
                            }
                            None => {
                                storage_trie.remove(store, storage_key(slot))?;
                            }
                        }
                    }
                }
            }
            let data = AccountData {
                balance: account.balance,
                nonce: account.nonce,
                code_hash: state.code_hash(address),
                storage_root: storage_trie.root(),
            };
            self.accounts
                .insert(store, account_key(address), &encode_account(&data))?;
            self.storage.insert(address, storage_trie);
        }
        Ok(self.accounts.root())
    }

    /// Rebuild the whole trie from a world state — recovery's fallback
    /// path. The trie is canonical, so this lands on the bit-identical
    /// root an incremental history of the same state produced. The
    /// store serves one state trie: whatever the overlay held for an
    /// earlier one is dropped first.
    pub fn rebuild_from(
        store: &mut StateStore,
        state: &WorldState,
    ) -> Result<StateTrie, TrieError> {
        store.mem.clear();
        let mut trie = StateTrie::new();
        let mut dirty: FxHashMap<Address, TrieDirt> = FxHashMap::default();
        for (address, _) in state.iter_accounts() {
            dirty.insert(*address, None);
        }
        trie.apply(store, state, &dirty)?;
        Ok(trie)
    }

    /// Every node reachable from the current root, depth-first, account
    /// trie first then each storage trie (discovered by decoding the
    /// account leaves — storage roots are leaf *data*, not child
    /// pointers). This is the exact set [`StateStore::persist`] must
    /// move to disk, and walking it doubles as a full verification of
    /// an adopted on-disk trie.
    pub fn live_nodes(&self, store: &mut StateStore) -> Result<Vec<H256>, TrieError> {
        let mut out = Vec::new();
        let mut storage_roots = Vec::new();
        collect_subtree(store, self.accounts.root(), &mut out, &mut |payload| {
            if let Some(account) = decode_account(payload) {
                if !account.storage_root.is_zero() {
                    storage_roots.push(account.storage_root);
                }
            }
        })?;
        for root in storage_roots {
            collect_subtree(store, root, &mut out, &mut |_| {})?;
        }
        Ok(out)
    }

    /// Merkle proof for an account leaf.
    pub fn prove_account(
        &self,
        store: &mut StateStore,
        address: Address,
    ) -> Result<Vec<Vec<u8>>, TrieError> {
        self.accounts.prove(store, account_key(address))
    }

    /// The committed account data, if the account is in the trie.
    pub fn account_data(
        &self,
        store: &mut StateStore,
        address: Address,
    ) -> Result<Option<AccountData>, TrieError> {
        match self.accounts.get(store, account_key(address))? {
            Some(bytes) => Ok(Some(
                decode_account(&bytes).ok_or(TrieError::BadNode(account_key(address)))?,
            )),
            None => Ok(None),
        }
    }

    /// Merkle proof for a storage slot under an account's storage root.
    pub fn prove_storage(
        &mut self,
        store: &mut StateStore,
        address: Address,
        slot: U256,
    ) -> Result<Vec<Vec<u8>>, TrieError> {
        let storage_trie = self.storage_trie(store, address)?;
        storage_trie.prove(store, storage_key(slot))
    }
}

/// An `eth_getProof`-style response bundle: the account's committed
/// data with its Merkle proof, plus a proof per requested storage slot
/// — everything a verifier needs to check the evidence offline against
/// `state_root` (see [`crate::trie::verify_proof`]).
#[derive(Debug, Clone)]
pub struct AccountProof {
    /// The root the proofs verify against.
    pub state_root: H256,
    /// The proven account.
    pub address: Address,
    /// Committed account data; `None` proves non-inclusion.
    pub account: Option<AccountData>,
    /// Merkle proof of the account leaf (or of its absence).
    pub account_proof: Vec<Vec<u8>>,
    /// One proof per requested storage slot.
    pub storage_proofs: Vec<StorageProof>,
}

/// Proof for one storage slot under an account's storage root.
#[derive(Debug, Clone)]
pub struct StorageProof {
    /// The storage slot.
    pub key: U256,
    /// Its committed value (zero when absent — absence is proven).
    pub value: U256,
    /// Merkle proof against the account's `storage_root`.
    pub proof: Vec<Vec<u8>>,
}

fn collect_subtree(
    store: &mut StateStore,
    root: H256,
    out: &mut Vec<H256>,
    on_leaf_value: &mut impl FnMut(&[u8]),
) -> Result<(), TrieError> {
    if root.is_zero() {
        return Ok(());
    }
    let mut stack = vec![root];
    while let Some(hash) = stack.pop() {
        let bytes = store.node(hash).ok_or(TrieError::MissingNode(hash))?;
        out.push(hash);
        match bytes.first() {
            Some(&0x00) if bytes.len() >= 33 => on_leaf_value(&bytes[33..]),
            Some(&0x01) if bytes.len() == 67 => {
                let left = H256::from_slice(&bytes[3..35]).expect("32 bytes");
                let right = H256::from_slice(&bytes[35..67]).expect("32 bytes");
                // Right pushed first so the walk visits left-to-right.
                stack.push(right);
                stack.push(left);
            }
            _ => return Err(TrieError::BadNode(hash)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::verify_proof;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lsc-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn world_with(n: u64) -> WorldState {
        let mut state = WorldState::new();
        for i in 0..n {
            let address = Address::from_label(&format!("acct-{i}"));
            state.credit(address, U256::from_u64(1000 + i));
            state.set_nonce(address, i);
            state.set_storage(address, U256::from_u64(i), U256::from_u64(i * 7 + 1));
        }
        state.commit();
        state
    }

    #[test]
    fn incremental_apply_matches_scratch_rebuild() {
        let mut state = WorldState::new();
        let mut store = StateStore::in_memory();
        let mut trie = StateTrie::new();
        let a = Address::from_label("inc-a");
        let b = Address::from_label("inc-b");
        state.credit(a, U256::from_u64(10));
        state.commit();
        let dirt = state.take_trie_dirty();
        trie.apply(&mut store, &state, &dirt).unwrap();
        state.set_storage(a, U256::ONE, U256::from_u64(5));
        state.credit(b, U256::from_u64(20));
        state.commit();
        let dirt = state.take_trie_dirty();
        let incremental = trie.apply(&mut store, &state, &dirt).unwrap();
        let mut scratch_store = StateStore::in_memory();
        let scratch = StateTrie::rebuild_from(&mut scratch_store, &state).unwrap();
        assert_eq!(incremental, scratch.root());
    }

    #[test]
    fn destroy_account_removes_leaf() {
        let mut state = WorldState::new();
        let mut store = StateStore::in_memory();
        let mut trie = StateTrie::new();
        let a = Address::from_label("gone");
        state.credit(a, U256::from_u64(1));
        state.set_storage(a, U256::ONE, U256::ONE);
        state.commit();
        let dirt = state.take_trie_dirty();
        trie.apply(&mut store, &state, &dirt).unwrap();
        assert_ne!(trie.root(), H256::ZERO);
        state.destroy_account(a);
        state.commit();
        let dirt = state.take_trie_dirty();
        let root = trie.apply(&mut store, &state, &dirt).unwrap();
        assert_eq!(root, H256::ZERO);
    }

    #[test]
    fn persist_and_reopen_serves_all_nodes() {
        let dir = temp_dir("reopen");
        let state = world_with(50);
        let root;
        {
            let mut store = StateStore::open(&dir, DEFAULT_CACHE_BYTES, Faults::none()).unwrap();
            let trie = StateTrie::rebuild_from(&mut store, &state).unwrap();
            root = trie.root();
            let live = trie.live_nodes(&mut store).unwrap();
            store.persist(root, 1, &live).unwrap();
            assert_eq!(store.mem.hashes().count(), 0, "overlay cleared");
        }
        let mut store = StateStore::open(&dir, DEFAULT_CACHE_BYTES, Faults::none()).unwrap();
        assert_eq!(store.persisted_root(), Some((root, 1)));
        let trie = StateTrie::from_root(root);
        let live = trie.live_nodes(&mut store).unwrap();
        assert!(!live.is_empty());
        // Every account provable straight off the reopened pages.
        for (address, account) in state.iter_accounts() {
            let proof = trie.prove_account(&mut store, *address).unwrap();
            let value = verify_proof(root, account_key(*address), &proof)
                .unwrap()
                .expect("account present");
            let data = decode_account(&value).unwrap();
            assert_eq!(data.balance, account.balance);
            assert_eq!(data.nonce, account.nonce);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_cache_budget_still_serves_reads() {
        let dir = temp_dir("tiny-cache");
        let state = world_with(200);
        let root;
        {
            let mut store = StateStore::open(&dir, DEFAULT_CACHE_BYTES, Faults::none()).unwrap();
            let trie = StateTrie::rebuild_from(&mut store, &state).unwrap();
            root = trie.root();
            let live = trie.live_nodes(&mut store).unwrap();
            store.persist(root, 1, &live).unwrap();
        }
        // One-page budget: constant resident memory, correctness intact.
        let mut store = StateStore::open(&dir, PAGE_SIZE, Faults::none()).unwrap();
        let trie = StateTrie::from_root(root);
        for (address, _) in state.iter_accounts() {
            let proof = trie.prove_account(&mut store, *address).unwrap();
            assert!(verify_proof(root, account_key(*address), &proof)
                .unwrap()
                .is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreachable_root_file_means_no_adoption() {
        let dir = temp_dir("no-root");
        let store = StateStore::open(&dir, DEFAULT_CACHE_BYTES, Faults::none()).unwrap();
        assert_eq!(store.persisted_root(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_page_drops_its_records_only() {
        let dir = temp_dir("torn-page");
        let state = world_with(300); // enough accounts to span pages
        let root;
        {
            let mut store = StateStore::open(&dir, DEFAULT_CACHE_BYTES, Faults::none()).unwrap();
            let trie = StateTrie::rebuild_from(&mut store, &state).unwrap();
            root = trie.root();
            let live = trie.live_nodes(&mut store).unwrap();
            store.persist(root, 1, &live).unwrap();
        }
        // Corrupt the second page wholesale.
        let path = dir.join(PAGES_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        assert!(bytes.len() > 2 * PAGE_SIZE, "need multiple pages");
        for b in &mut bytes[PAGE_SIZE..2 * PAGE_SIZE] {
            *b = 0xff;
        }
        std::fs::write(&path, &bytes).unwrap();
        let mut store = StateStore::open(&dir, DEFAULT_CACHE_BYTES, Faults::none()).unwrap();
        // The root file still commits `root`, but the walk must fail —
        // which is exactly the signal recovery uses to fall back to a
        // canonical rebuild.
        let trie = StateTrie::from_root(root);
        assert!(trie.live_nodes(&mut store).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vacuum_reclaims_dead_bytes() {
        let dir = temp_dir("vacuum");
        let mut store = StateStore::open(&dir, DEFAULT_CACHE_BYTES, Faults::none()).unwrap();
        let mut state = WorldState::new();
        let a = Address::from_label("churn");
        let mut trie = StateTrie::new();
        // Lots of superseded versions of one account: every persist
        // leaves the previous block's nodes dead on disk.
        for round in 0..200u64 {
            for slot in 0..64u64 {
                state.set_storage(
                    a,
                    U256::from_u64(slot),
                    U256::from_u64(round * 64 + slot + 1),
                );
            }
            state.commit();
            let dirt = state.take_trie_dirty();
            let root = trie.apply(&mut store, &state, &dirt).unwrap();
            let live = trie.live_nodes(&mut store).unwrap();
            store.persist(root, round, &live).unwrap();
        }
        let final_root = trie.root();
        let live = trie.live_nodes(&mut store).unwrap();
        let live_bytes: u64 = live.len() as u64 * PAGE_SIZE as u64; // loose upper bound
        let file_len = std::fs::metadata(dir.join(PAGES_FILE)).unwrap().len();
        assert!(
            file_len < live_bytes * 4,
            "vacuum kept the file near the live set ({file_len} bytes for {} nodes)",
            live.len()
        );
        // Everything still reachable after however many vacuums ran.
        drop(store);
        let mut store = StateStore::open(&dir, DEFAULT_CACHE_BYTES, Faults::none()).unwrap();
        let trie = StateTrie::from_root(final_root);
        trie.live_nodes(&mut store).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn superseded_overlay_nodes_are_released_as_they_go() {
        let mut store = StateStore::in_memory();
        let mut state = WorldState::new();
        let mut trie = StateTrie::new();
        let a = Address::from_label("gc");
        for round in 0..50u64 {
            state.set_storage(a, U256::ONE, U256::from_u64(round + 1));
            state.commit();
            let dirt = state.take_trie_dirty();
            trie.apply(&mut store, &state, &dirt).unwrap();
            // One account leaf and one storage leaf, whatever the round.
            assert_eq!(store.mem.hashes().count(), 2, "round {round}");
        }
        let live = trie.live_nodes(&mut store).unwrap();
        store.check_overlay(&live).unwrap();
        // Proofs still work over the retained set.
        let proof = trie.prove_account(&mut store, a).unwrap();
        assert!(verify_proof(trie.root(), account_key(a), &proof)
            .unwrap()
            .is_some());
    }
}
