//! Write-ahead log for the local node: an append-only, checksummed record
//! stream that makes chain state crash-recoverable.
//!
//! Every state-changing intent (instant transaction, queued transaction,
//! mine command, clock warp, faucet credit, app-tier event) is framed as
//! `[u32 len LE][u32 checksum LE][JSON payload]` — the checksum is the
//! first four bytes of keccak(payload) — and appended to the current
//! segment file (`wal-NNNNNN.log`) with an fsync per record. The node and
//! EVM are fully deterministic, so recovery replays intents on top of the
//! latest valid snapshot and reproduces block hashes, receipts, storage
//! and the pending queue bit-for-bit. A torn tail (partial or corrupt
//! final record) is truncated; everything before it is the committed
//! prefix.
//!
//! Crash points are reachable deterministically through [`FaultPlan`]:
//! fail the Nth write, short-write K bytes of the Nth write, fail the Nth
//! fsync, fail the Nth rename. The checks live behind the
//! `fault-injection` cargo feature and compile to no-ops without it.
//! The WAL maintains one invariant the recovery tests lean on: **when an
//! append fails, the record is not durable** — a short write leaves a
//! torn tail recovery truncates, and a failed fsync rolls the file back
//! to the pre-record length (un-synced bytes carry no durability
//! guarantee, so modelling the crash as "never written" keeps in-memory
//! state at the failure point equal to recoverable state).

use core::fmt;
use lsc_abi::json::{parse, JsonValue};
use lsc_primitives::{keccak256, Address, U256};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::codec;
use crate::tx::Transaction;

/// Rotate to a fresh segment once the current one exceeds this size.
pub const DEFAULT_SEGMENT_LIMIT: u64 = 256 * 1024;

/// True when the `fault-injection` feature is compiled in — tests that
/// need to arm [`FaultPlan`]s skip themselves when it is off.
pub fn fault_injection_enabled() -> bool {
    cfg!(feature = "fault-injection")
}

// ---- errors ----------------------------------------------------------

/// A durability-layer failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Real I/O error from the operating system.
    Io(String),
    /// Deterministically injected fault (`fault-injection` feature).
    Injected(String),
    /// A record that passed its checksum but cannot be decoded, or a
    /// snapshot that fails validation — corruption beyond a torn tail.
    Corrupt(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(m) => write!(f, "wal io error: {m}"),
            WalError::Injected(m) => write!(f, "injected fault: {m}"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(context: &str, e: std::io::Error) -> WalError {
    WalError::Io(format!("{context}: {e}"))
}

// ---- fault injection -------------------------------------------------

/// A deterministic fault schedule. Counters are 1-based and count every
/// faultable operation of the given kind across the whole durability
/// layer (record appends, snapshot writes, fsyncs, renames) in the order
/// they happen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the Nth write outright (nothing reaches the file).
    pub fail_write: Option<u64>,
    /// On the Nth write, persist only the first K bytes, then fail.
    pub short_write: Option<(u64, usize)>,
    /// Fail the Nth fsync (the preceding write is rolled back — un-synced
    /// data has no durability guarantee).
    pub fail_fsync: Option<u64>,
    /// Fail the Nth atomic rename (snapshot publication).
    pub fail_rename: Option<u64>,
}

impl FaultPlan {
    /// Parse a spec like `write:3`, `short:5:7`, `fsync:2`, `rename:1`;
    /// comma-separate to combine.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let fields: Vec<&str> = part.trim().split(':').collect();
            let n = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("bad count in `{part}`"))
            };
            match fields.as_slice() {
                ["write", at] => plan.fail_write = Some(n(at)?),
                ["short", at, k] => {
                    plan.short_write = Some((
                        n(at)?,
                        k.parse()
                            .map_err(|_| format!("bad byte count in `{part}`"))?,
                    ));
                }
                ["fsync", at] => plan.fail_fsync = Some(n(at)?),
                ["rename", at] => plan.fail_rename = Some(n(at)?),
                _ => {
                    return Err(format!(
                        "bad fault spec `{part}` (write:N | short:N:K | fsync:N | rename:N)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Read the plan from the `LSC_FAULT` environment variable; unset or
    /// unparsable specs arm nothing.
    pub fn from_env() -> FaultPlan {
        std::env::var("LSC_FAULT")
            .ok()
            .and_then(|spec| FaultPlan::parse(&spec).ok())
            .unwrap_or_default()
    }
}

/// Operation counters observed by a [`Faults`] handle — tests read these
/// after a clean run to enumerate every crash point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// File writes (record appends and snapshot bodies).
    pub writes: u64,
    /// fsync calls.
    pub fsyncs: u64,
    /// Atomic renames (snapshot publication).
    pub renames: u64,
}

#[derive(Debug, Default)]
struct FaultState {
    // Only consulted when `fault-injection` is compiled in.
    #[cfg_attr(not(feature = "fault-injection"), allow(dead_code))]
    plan: FaultPlan,
    counts: OpCounts,
}

/// Shared handle to the fault schedule and its operation counters. Clones
/// share state, so the node, its WAL and the test harness observe the
/// same counts.
#[derive(Debug, Clone, Default)]
pub struct Faults(Arc<Mutex<FaultState>>);

// Fail/Short are only produced when `fault-injection` is compiled in.
#[cfg_attr(not(feature = "fault-injection"), allow(dead_code))]
pub(crate) enum WriteCheck {
    Proceed,
    Fail,
    Short(usize),
}

impl Faults {
    /// No faults, no counting overhead beyond the shared handle.
    pub fn none() -> Faults {
        Faults::default()
    }

    /// Arm a fault plan.
    pub fn plan(plan: FaultPlan) -> Faults {
        Faults(Arc::new(Mutex::new(FaultState {
            plan,
            counts: OpCounts::default(),
        })))
    }

    /// Operation counts so far (always zero without `fault-injection`).
    pub fn op_counts(&self) -> OpCounts {
        self.0.lock().expect("fault state lock").counts
    }

    #[allow(unused_variables, unused_mut)]
    pub(crate) fn check_write(&self) -> WriteCheck {
        #[cfg(feature = "fault-injection")]
        {
            let mut s = self.0.lock().expect("fault state lock");
            s.counts.writes += 1;
            let n = s.counts.writes;
            if s.plan.fail_write == Some(n) {
                return WriteCheck::Fail;
            }
            if let Some((at, k)) = s.plan.short_write {
                if at == n {
                    return WriteCheck::Short(k);
                }
            }
        }
        WriteCheck::Proceed
    }

    pub(crate) fn check_fsync(&self) -> bool {
        #[cfg(feature = "fault-injection")]
        {
            let mut s = self.0.lock().expect("fault state lock");
            s.counts.fsyncs += 1;
            if s.plan.fail_fsync == Some(s.counts.fsyncs) {
                return true;
            }
        }
        false
    }

    pub(crate) fn check_rename(&self) -> bool {
        #[cfg(feature = "fault-injection")]
        {
            let mut s = self.0.lock().expect("fault state lock");
            s.counts.renames += 1;
            if s.plan.fail_rename == Some(s.counts.renames) {
                return true;
            }
        }
        false
    }
}

// ---- records ---------------------------------------------------------

/// One durable intent. The node and EVM are deterministic, so replaying
/// intents reproduces state exactly; no post-state is logged.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `send_transaction`: validate, execute, seal into its own block.
    InstantTx(Transaction),
    /// `submit_transaction`: queue without mining.
    SubmitTx(Transaction),
    /// `mine_block`: drain the pool's ready set in priority order into
    /// one block. `take: None` drains everything ready (the classic
    /// manual/interval mine); `take: Some(n)` drains exactly the first
    /// `n` — logged by the pipelined producer so replay re-takes the
    /// identical prefix it committed.
    MineBlock {
        /// Bound on how many ready transactions the block drains.
        take: Option<usize>,
    },
    /// `increase_time`.
    IncreaseTime(u64),
    /// `set_timestamp`.
    SetTime(u64),
    /// Dev faucet credit.
    Faucet(Address, U256),
    /// Audit marker for a version-chain pointer update (Fig. 2): the
    /// pointer writes themselves are `InstantTx` records; this marks the
    /// link event so the evidence line is greppable in the log.
    VersionPointer {
        /// The superseded version.
        previous: Address,
        /// The newly linked version.
        next: Address,
    },
    /// Opaque app-tier event (users, uploads, version records, contract
    /// rows, documents) — replayed by `RentalApp::recover`.
    AppEvent(String),
}

impl WalRecord {
    fn to_json(&self) -> JsonValue {
        match self {
            WalRecord::InstantTx(tx) => JsonValue::object([
                ("type", JsonValue::String("instant_tx".into())),
                ("tx", codec::tx_to_json(tx)),
            ]),
            WalRecord::SubmitTx(tx) => JsonValue::object([
                ("type", JsonValue::String("submit_tx".into())),
                ("tx", codec::tx_to_json(tx)),
            ]),
            // `take: None` encodes byte-identically to the legacy
            // record, so logs written before the bound existed replay
            // unchanged (and checksums keep matching).
            WalRecord::MineBlock { take: None } => {
                JsonValue::object([("type", JsonValue::String("mine_block".into()))])
            }
            WalRecord::MineBlock { take: Some(n) } => JsonValue::object([
                ("type", JsonValue::String("mine_block".into())),
                ("take", JsonValue::Number(*n as f64)),
            ]),
            WalRecord::IncreaseTime(seconds) => JsonValue::object([
                ("type", JsonValue::String("increase_time".into())),
                ("seconds", JsonValue::Number(*seconds as f64)),
            ]),
            WalRecord::SetTime(timestamp) => JsonValue::object([
                ("type", JsonValue::String("set_time".into())),
                ("timestamp", JsonValue::Number(*timestamp as f64)),
            ]),
            WalRecord::Faucet(address, value) => JsonValue::object([
                ("type", JsonValue::String("faucet".into())),
                ("address", JsonValue::String(address.to_string())),
                ("value", JsonValue::String(value.to_decimal_string())),
            ]),
            WalRecord::VersionPointer { previous, next } => JsonValue::object([
                ("type", JsonValue::String("version_pointer".into())),
                ("previous", JsonValue::String(previous.to_string())),
                ("next", JsonValue::String(next.to_string())),
            ]),
            WalRecord::AppEvent(event) => JsonValue::object([
                ("type", JsonValue::String("app_event".into())),
                ("event", JsonValue::String(event.clone())),
            ]),
        }
    }

    fn from_json(doc: &JsonValue) -> Result<WalRecord, String> {
        let kind = codec::str_field(doc, "type")?;
        let tx = |doc: &JsonValue| {
            doc.get("tx")
                .ok_or_else(|| "missing `tx`".to_string())
                .and_then(codec::tx_from_json)
        };
        match kind {
            "instant_tx" => Ok(WalRecord::InstantTx(tx(doc)?)),
            "submit_tx" => Ok(WalRecord::SubmitTx(tx(doc)?)),
            "mine_block" => Ok(WalRecord::MineBlock {
                take: match doc.get("take") {
                    Some(JsonValue::Number(n)) if *n >= 0.0 => Some(*n as usize),
                    _ => None,
                },
            }),
            "increase_time" => Ok(WalRecord::IncreaseTime(codec::u64_field(doc, "seconds")?)),
            "set_time" => Ok(WalRecord::SetTime(codec::u64_field(doc, "timestamp")?)),
            "faucet" => Ok(WalRecord::Faucet(
                codec::address_field(doc, "address")?,
                codec::u256_field(doc, "value")?,
            )),
            "version_pointer" => Ok(WalRecord::VersionPointer {
                previous: codec::address_field(doc, "previous")?,
                next: codec::address_field(doc, "next")?,
            }),
            "app_event" => Ok(WalRecord::AppEvent(
                codec::str_field(doc, "event")?.to_string(),
            )),
            other => Err(format!("unknown wal record type `{other}`")),
        }
    }

    fn encode(&self) -> Vec<u8> {
        self.to_json().to_json().into_bytes()
    }
}

/// Frame a payload: `[u32 len LE][u32 checksum LE][payload]`, checksum =
/// first 4 bytes of keccak(payload).
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let digest = keccak256(payload);
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&digest[..4]);
    out.extend_from_slice(payload);
    out
}

// ---- file layout -----------------------------------------------------

pub(crate) fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.log"))
}

pub(crate) fn snapshot_path(dir: &Path, wal_from: u64) -> PathBuf {
    dir.join(format!("snapshot-{wal_from:06}.json"))
}

pub(crate) fn history_path(dir: &Path, wal_from: u64) -> PathBuf {
    dir.join(format!("history-{wal_from:06}.json"))
}

fn numbered_files(dir: &Path, prefix: &str, suffix: &str) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("read dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir entry", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(body) = name
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(suffix))
        else {
            continue;
        };
        if let Ok(index) = body.parse::<u64>() {
            out.push((index, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// WAL segments in `dir`, ascending.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    numbered_files(dir, "wal-", ".log")
}

/// Snapshot files in `dir`, ascending by the first segment they do NOT
/// cover (`wal_from`).
pub(crate) fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    numbered_files(dir, "snapshot-", ".json")
}

/// History chunk files in `dir`, ascending by the compaction that wrote
/// them.
pub(crate) fn list_history(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    numbered_files(dir, "history-", ".json")
}

/// Write `bytes` to `path` atomically: tmp file, fsync, rename. Routed
/// through the fault hooks so snapshot publication has enumerable crash
/// points. A failure leaves at worst a stale `.tmp` file, which recovery
/// ignores.
pub(crate) fn write_durable(path: &Path, bytes: &[u8], faults: &Faults) -> Result<(), WalError> {
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp).map_err(|e| io_err("create tmp", e))?;
    match faults.check_write() {
        WriteCheck::Proceed => file.write_all(bytes).map_err(|e| io_err("write tmp", e))?,
        WriteCheck::Fail => return Err(WalError::Injected("write".into())),
        WriteCheck::Short(k) => {
            let k = k.min(bytes.len().saturating_sub(1));
            file.write_all(&bytes[..k])
                .map_err(|e| io_err("write tmp", e))?;
            return Err(WalError::Injected(format!("short write ({k} bytes)")));
        }
    }
    if faults.check_fsync() {
        return Err(WalError::Injected("fsync".into()));
    }
    file.sync_data().map_err(|e| io_err("fsync tmp", e))?;
    drop(file);
    if faults.check_rename() {
        return Err(WalError::Injected("rename".into()));
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename", e))
}

// ---- the log ---------------------------------------------------------

/// Append-only write-ahead log over a directory of segment files.
pub struct Wal {
    dir: PathBuf,
    file: File,
    segment: u64,
    written: u64,
    segment_limit: u64,
    faults: Faults,
}

impl Wal {
    /// Open (or create) the log in `dir`, appending to the newest
    /// segment.
    pub fn open(dir: &Path, faults: Faults) -> Result<Wal, WalError> {
        Wal::open_with_limit(dir, faults, DEFAULT_SEGMENT_LIMIT)
    }

    /// [`Wal::open`] with an explicit rotation threshold (tests use tiny
    /// limits to exercise rotation cheaply).
    pub fn open_with_limit(
        dir: &Path,
        faults: Faults,
        segment_limit: u64,
    ) -> Result<Wal, WalError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create wal dir", e))?;
        let (segment, path) = match list_segments(dir)?.pop() {
            Some((index, path)) => (index, path),
            None => (1, segment_path(dir, 1)),
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open segment", e))?;
        let written = file
            .metadata()
            .map_err(|e| io_err("stat segment", e))?
            .len();
        Ok(Wal {
            dir: dir.to_path_buf(),
            file,
            segment,
            written,
            segment_limit,
            faults,
        })
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Index of the segment currently appended to.
    pub fn segment(&self) -> u64 {
        self.segment
    }

    /// The shared fault handle.
    pub fn faults(&self) -> Faults {
        self.faults.clone()
    }

    /// Durably append one record: frame, write, fsync. On an injected
    /// fault the record is guaranteed NOT durable (see module docs), so a
    /// caller that stops applying on error stays equal to the
    /// recoverable state.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        if self.written >= self.segment_limit {
            self.rotate()?;
        }
        let framed = frame(&record.encode());
        let offset = self.written;
        match self.faults.check_write() {
            WriteCheck::Proceed => self
                .file
                .write_all(&framed)
                .map_err(|e| io_err("append record", e))?,
            WriteCheck::Fail => return Err(WalError::Injected("write".into())),
            WriteCheck::Short(k) => {
                // Clamp below the frame length so the tail is always torn
                // (a byte-complete "short" write would be durable, which
                // would break the not-durable-on-error invariant).
                let k = k.min(framed.len().saturating_sub(1));
                self.file
                    .write_all(&framed[..k])
                    .map_err(|e| io_err("append record", e))?;
                self.written += k as u64;
                return Err(WalError::Injected(format!("short write ({k} bytes)")));
            }
        }
        self.written += framed.len() as u64;
        if self.faults.check_fsync() {
            // Un-synced bytes have no durability guarantee: model the
            // crash as "never written" so recovery matches the caller's
            // un-applied state.
            let _ = self.file.set_len(offset);
            self.written = offset;
            return Err(WalError::Injected("fsync".into()));
        }
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync record", e))?;
        Ok(())
    }

    /// Durably append a batch of records with a SINGLE fsync (group
    /// commit): every frame is written, then `sync_data` runs once. The
    /// batch is atomic with respect to recovery — on any failure (write
    /// fault, short write, fsync fault) the segment is truncated back to
    /// the pre-batch offset, so [`committed_records`] never observes a
    /// partial batch. None of the frames are durable until the final
    /// fsync succeeds, so truncating un-synced bytes models the crash the
    /// same way the single-record path does.
    ///
    /// The segment rotates before the batch if full; a batch never spans
    /// segments (it may overshoot the soft limit — the next append
    /// rotates).
    pub fn append_batch(&mut self, records: &[WalRecord]) -> Result<(), WalError> {
        if records.is_empty() {
            return Ok(());
        }
        if self.written >= self.segment_limit {
            self.rotate()?;
        }
        let batch_offset = self.written;
        let rollback = |wal: &mut Wal| {
            let _ = wal.file.set_len(batch_offset);
            wal.written = batch_offset;
        };
        for record in records {
            let framed = frame(&record.encode());
            match self.faults.check_write() {
                WriteCheck::Proceed => {
                    if let Err(e) = self.file.write_all(&framed) {
                        rollback(self);
                        return Err(io_err("append batch record", e));
                    }
                }
                WriteCheck::Fail => {
                    rollback(self);
                    return Err(WalError::Injected("write".into()));
                }
                WriteCheck::Short(k) => {
                    let k = k.min(framed.len().saturating_sub(1));
                    let _ = self.file.write_all(&framed[..k]);
                    rollback(self);
                    return Err(WalError::Injected(format!("short write ({k} bytes)")));
                }
            }
            self.written += framed.len() as u64;
        }
        if self.faults.check_fsync() {
            rollback(self);
            return Err(WalError::Injected("fsync".into()));
        }
        if let Err(e) = self.file.sync_data() {
            rollback(self);
            return Err(io_err("fsync batch", e));
        }
        Ok(())
    }

    /// Close the current segment and start a new one; returns the new
    /// segment's index. Used by size-based rotation and as the first step
    /// of compaction (the snapshot then covers everything before the new
    /// segment).
    pub fn rotate(&mut self) -> Result<u64, WalError> {
        let next = self.segment + 1;
        let path = segment_path(&self.dir, next);
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("rotate segment", e))?;
        self.segment = next;
        self.written = 0;
        Ok(next)
    }

    /// Delete segments with index `< keep_from` — called after a snapshot
    /// covering them has been durably published. Deletion failures are
    /// ignored: a leftover segment is shadowed by the snapshot's
    /// `wal_from` and never replayed.
    pub fn prune_segments(&self, keep_from: u64) -> Result<usize, WalError> {
        let mut removed = 0;
        for (index, path) in list_segments(&self.dir)? {
            if index < keep_from && std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

// ---- reading ---------------------------------------------------------

/// Records decoded from one segment, plus where the valid prefix ends.
pub(crate) struct SegmentRead {
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix.
    pub good_len: u64,
    /// True when trailing bytes after the valid prefix were torn
    /// (incomplete frame or checksum mismatch).
    pub torn: bool,
}

/// Decode a segment, stopping at the first torn record. A record whose
/// checksum passes but whose JSON does not decode is real corruption
/// (not a crash artefact) and is a hard error.
pub(crate) fn read_segment(path: &Path) -> Result<SegmentRead, WalError> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read segment", e))?;
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        if offset + 8 > bytes.len() {
            break;
        }
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let Some(end) = offset.checked_add(8).and_then(|s| s.checked_add(len)) else {
            break;
        };
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[offset + 8..end];
        if keccak256(payload)[..4] != bytes[offset + 4..offset + 8] {
            break;
        }
        let text = std::str::from_utf8(payload)
            .map_err(|_| WalError::Corrupt("record payload is not UTF-8".into()))?;
        let doc = parse(text).map_err(|e| WalError::Corrupt(format!("record json: {e}")))?;
        records.push(WalRecord::from_json(&doc).map_err(WalError::Corrupt)?);
        offset = end;
    }
    Ok(SegmentRead {
        records,
        good_len: offset as u64,
        torn: offset != bytes.len(),
    })
}

/// Replay input: every committed record at or after segment `wal_from`,
/// in order. The first torn tail truncates its file in place and ends
/// the committed prefix — segments after it (possible only if a crash
/// interrupted rotation) are ignored.
pub(crate) fn committed_records(dir: &Path, wal_from: u64) -> Result<Vec<WalRecord>, WalError> {
    let mut out = Vec::new();
    for (index, path) in list_segments(dir)? {
        if index < wal_from {
            continue;
        }
        let segment = read_segment(&path)?;
        out.extend(segment.records);
        if segment.torn {
            let file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| io_err("open torn segment", e))?;
            file.set_len(segment.good_len)
                .map_err(|e| io_err("truncate torn tail", e))?;
            file.sync_data()
                .map_err(|e| io_err("fsync truncation", e))?;
            break;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lsc-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        let a = Address::from_label("wal-a");
        let b = Address::from_label("wal-b");
        vec![
            WalRecord::Faucet(a, U256::from_u64(1000)),
            WalRecord::InstantTx(Transaction::call(a, b, vec![]).with_value(U256::from_u64(5))),
            WalRecord::SubmitTx(Transaction::call(a, b, vec![1, 2, 3])),
            WalRecord::MineBlock { take: None },
            WalRecord::IncreaseTime(86_400),
            WalRecord::SetTime(1_700_000_000),
            WalRecord::VersionPointer {
                previous: a,
                next: b,
            },
            WalRecord::AppEvent("{\"kind\":\"user\",\"name\":\"alice\"}".into()),
        ]
    }

    #[test]
    fn records_roundtrip_through_json() {
        for record in sample_records() {
            let encoded = record.encode();
            let doc = parse(std::str::from_utf8(&encoded).unwrap()).unwrap();
            assert_eq!(WalRecord::from_json(&doc).unwrap(), record);
        }
    }

    #[test]
    fn append_and_read_back() {
        let dir = temp_dir("roundtrip");
        let mut wal = Wal::open(&dir, Faults::none()).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        let back = committed_records(&dir, 0).unwrap();
        assert_eq!(back, sample_records());
        // Re-opening appends to the same segment.
        drop(wal);
        let mut wal = Wal::open(&dir, Faults::none()).unwrap();
        wal.append(&WalRecord::MineBlock { take: None }).unwrap();
        assert_eq!(
            committed_records(&dir, 0).unwrap().len(),
            sample_records().len() + 1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = temp_dir("torn");
        let mut wal = Wal::open(&dir, Faults::none()).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        drop(wal);
        // Tear the tail by hand: append half a frame.
        let path = segment_path(&dir, 1);
        let good_len = std::fs::metadata(&path).unwrap().len();
        let torn = frame(&WalRecord::MineBlock { take: None }.encode());
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&torn[..torn.len() / 2]).unwrap();
        drop(file);

        let back = committed_records(&dir, 0).unwrap();
        assert_eq!(back, sample_records(), "torn record is not replayed");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            good_len,
            "torn tail truncated in place"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checksum_ends_committed_prefix() {
        let dir = temp_dir("bitflip");
        let mut wal = Wal::open(&dir, Faults::none()).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        drop(wal);
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let back = committed_records(&dir, 0).unwrap();
        assert_eq!(
            back.len(),
            sample_records().len() - 1,
            "flipped record dropped"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_rotate_and_replay_in_order() {
        let dir = temp_dir("rotate");
        // Tiny limit: every record rotates.
        let mut wal = Wal::open_with_limit(&dir, Faults::none(), 1).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        assert!(wal.segment() > 1, "rotation happened");
        assert!(list_segments(&dir).unwrap().len() > 1);
        assert_eq!(committed_records(&dir, 0).unwrap(), sample_records());
        // Records below a snapshot's wal_from are skipped.
        let from = wal.segment();
        let after: Vec<WalRecord> = committed_records(&dir, from).unwrap();
        assert!(after.len() < sample_records().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_plan_parses_and_rejects() {
        assert_eq!(
            FaultPlan::parse("write:3").unwrap(),
            FaultPlan {
                fail_write: Some(3),
                ..FaultPlan::default()
            }
        );
        assert_eq!(
            FaultPlan::parse("short:5:7,fsync:2,rename:1").unwrap(),
            FaultPlan {
                short_write: Some((5, 7)),
                fail_fsync: Some(2),
                fail_rename: Some(1),
                fail_write: None,
            }
        );
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        assert!(FaultPlan::parse("nope:1").is_err());
        assert!(FaultPlan::parse("write:x").is_err());
    }

    #[test]
    fn injected_faults_leave_no_durable_record() {
        if !fault_injection_enabled() {
            return;
        }
        let base = sample_records();
        // Each plan fails the append of the LAST record; the committed
        // prefix must be everything before it.
        let plans = [
            FaultPlan {
                fail_write: Some(base.len() as u64),
                ..FaultPlan::default()
            },
            FaultPlan {
                short_write: Some((base.len() as u64, 5)),
                ..FaultPlan::default()
            },
            FaultPlan {
                fail_fsync: Some(base.len() as u64),
                ..FaultPlan::default()
            },
        ];
        for (i, plan) in plans.into_iter().enumerate() {
            let dir = temp_dir(&format!("fault-{i}"));
            let mut wal = Wal::open(&dir, Faults::plan(plan)).unwrap();
            let mut seen_error = false;
            for record in &base {
                match wal.append(record) {
                    Ok(()) => assert!(!seen_error, "append after failure"),
                    Err(WalError::Injected(_)) => seen_error = true,
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
            assert!(seen_error, "plan {i} fired");
            let back = committed_records(&dir, 0).unwrap();
            assert_eq!(
                back,
                base[..base.len() - 1],
                "plan {i}: failed record not durable"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn batch_append_fsyncs_once_and_replays_in_order() {
        let dir = temp_dir("batch");
        let faults = Faults::none();
        let mut wal = Wal::open(&dir, faults.clone()).unwrap();
        wal.append(&WalRecord::MineBlock { take: None }).unwrap();
        let before = faults.op_counts();
        let batch = sample_records();
        wal.append_batch(&batch).unwrap();
        let after = faults.op_counts();
        assert_eq!(
            after.writes - before.writes,
            batch.len() as u64,
            "one write per record"
        );
        assert_eq!(after.fsyncs - before.fsyncs, 1, "one fsync per batch");
        let mut expected = vec![WalRecord::MineBlock { take: None }];
        expected.extend(batch);
        assert_eq!(committed_records(&dir, 0).unwrap(), expected);
        // Empty batches are free: no I/O at all.
        wal.append_batch(&[]).unwrap();
        assert_eq!(faults.op_counts().writes, after.writes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_batch_leaves_no_partial_batch() {
        if !fault_injection_enabled() {
            return;
        }
        let batch = sample_records();
        // The prefix append is write 1 / fsync 1; the batch then issues
        // writes 2..=1+len and ONE fsync (2). Crash at each batch write,
        // a torn variant of each, and the group fsync: recovery must see
        // exactly the prefix — never a partial batch.
        let mut plans = Vec::new();
        for n in 2..=1 + batch.len() as u64 {
            plans.push(FaultPlan {
                fail_write: Some(n),
                ..FaultPlan::default()
            });
            plans.push(FaultPlan {
                short_write: Some((n, 5)),
                ..FaultPlan::default()
            });
        }
        plans.push(FaultPlan {
            fail_fsync: Some(2),
            ..FaultPlan::default()
        });
        for (i, plan) in plans.into_iter().enumerate() {
            let dir = temp_dir(&format!("batch-fault-{i}"));
            let mut wal = Wal::open(&dir, Faults::plan(plan.clone())).unwrap();
            wal.append(&WalRecord::MineBlock { take: None }).unwrap();
            let err = wal.append_batch(&batch).unwrap_err();
            assert!(matches!(err, WalError::Injected(_)), "plan {plan:?}");
            assert_eq!(
                committed_records(&dir, 0).unwrap(),
                vec![WalRecord::MineBlock { take: None }],
                "plan {plan:?}: partial batch visible after crash"
            );
            // The wal stays usable after the rollback: a retry appends
            // the whole batch cleanly at the pre-batch offset.
            wal.append_batch(&batch).unwrap();
            let mut expected = vec![WalRecord::MineBlock { take: None }];
            expected.extend(batch.clone());
            assert_eq!(committed_records(&dir, 0).unwrap(), expected);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn write_durable_is_atomic_under_faults() {
        let dir = temp_dir("durable");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot-000001.json");
        write_durable(&path, b"{\"v\":1}", &Faults::none()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\":1}");
        if fault_injection_enabled() {
            for plan in [
                FaultPlan {
                    fail_write: Some(1),
                    ..FaultPlan::default()
                },
                FaultPlan {
                    short_write: Some((1, 3)),
                    ..FaultPlan::default()
                },
                FaultPlan {
                    fail_fsync: Some(1),
                    ..FaultPlan::default()
                },
                FaultPlan {
                    fail_rename: Some(1),
                    ..FaultPlan::default()
                },
            ] {
                let err = write_durable(&path, b"{\"v\":2}", &Faults::plan(plan)).unwrap_err();
                assert!(matches!(err, WalError::Injected(_)));
                assert_eq!(
                    std::fs::read(&path).unwrap(),
                    b"{\"v\":1}",
                    "published file untouched by failed replacement"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn op_counts_enumerate_crash_points() {
        if !fault_injection_enabled() {
            return;
        }
        let dir = temp_dir("counts");
        let faults = Faults::none();
        let mut wal = Wal::open(&dir, faults.clone()).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        let counts = faults.op_counts();
        assert_eq!(counts.writes, sample_records().len() as u64);
        assert_eq!(counts.fsyncs, sample_records().len() as u64);
        assert_eq!(counts.renames, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
