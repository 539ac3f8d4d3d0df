//! The persistent tier: append-only segment logs with an in-memory index
//! and background compaction.
//!
//! Many records pack into a handful of append-only **log files**, so an
//! entry costs no inode, no `open()` and no rename of its own, recovery is
//! one sequential read per log rather than a directory walk, and reads go
//! through cached file handles:
//!
//! ```text
//! <dir>/00000001.cblog           (exclusive handles)
//! <dir>/<nonce:016x>-00000003.cblog  (shared handles: per-handle series)
//!
//! record: magic u32 | kind u8 | pad u8×3 | key u64 | payload_len u64
//!         payload (payload_len bytes)
//!         checksum u64   (word-wise FNV over header + payload)
//! ```
//!
//! `kind` is 1 for a put, 2 for a tombstone (zero-length payload). The
//! **in-memory index** maps key → (log, offset, len) and is rebuilt by a
//! sequential scan of every log at startup — logs replay in `(seq, nonce)`
//! order, later records superseding earlier ones and tombstones deleting.
//! A **torn tail** (a crash mid-append) is truncated back to the end of
//! the last valid record instead of rejecting the whole log. A damaged
//! record that a valid record *follows* (a flipped bit mid-log) is not a
//! tail: replay resynchronises at the next valid record, counts the
//! damaged region in [`LogStats::corrupt_dropped`], and leaves its bytes
//! as garbage for the compactor — one bad record never takes its
//! successors with it. Empty logs are deleted at exclusive startup.
//!
//! **Group commit.** [`SegmentLogBackend::put`] stages bytes in a pending
//! map and queues them to a flusher thread; the caller never waits on the
//! disk, and reads of a still-pending entry are served from the pending
//! map (page-cache semantics). The flusher drains its whole queue per
//! wakeup and appends the batch to the active log with **one** write
//! call, so a registration burst of 10⁴ chunks costs a handful of write
//! syscalls and no renames. [`StorageBackend::flush`] waits for the queue
//! to drain (the store calls it before shutdown); dropping the backend
//! drains it too. The active log rotates (seals) at
//! [`SegmentLogConfig::rotate_bytes`].
//!
//! **Throttling.** An optional [`Throttle`] emulates a slower device with
//! real sleeps (access latency once per read, bandwidth per byte), which
//! is how the storage benchmarks sweep the §5.2 device grid on one
//! machine.
//!
//! **Background compaction** (the crate-private `compact` module)
//! rewrites the live records of tombstone-heavy sealed logs into a fresh log
//! (temp-file + rename, crash-safe at every step) and deletes the victim,
//! reclaiming dead bytes. See the `compact` module docs for the replay-
//! ordering argument.
//!
//! **Shared directories** let several live handles — cluster replicas,
//! possibly in separate processes — serve one persistent tier
//! ([`SegmentLogBackend::open_shared`]). Each handle appends to its *own*
//! log series (handle-unique nonce prefix), so no two handles ever write
//! one file. [`StorageBackend::discover`] re-scans sibling series
//! incrementally so entries persisted by another replica become servable
//! without a reopen; a sibling's tombstone makes the key undiscoverable
//! (a handle that already claimed the record keeps serving its verified
//! bytes until it releases the claim — keys are content hashes, so the
//! bytes are still right).
//! [`StorageBackend::forget`] releases only this handle's claim — the
//! record stays on disk (and stays *live* for the compactor, so a
//! sibling's copy is never rewritten away underneath it). Shared handles
//! never truncate or compact a foreign series, and leave foreign `.ctmp`
//! files alone (they may be a live sibling's in-flight compaction).

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::backend::{
    BackendError, BytesStream, IoCounters, IoOps, MaintenanceStats, ReadStream, StorageBackend,
    Throttle,
};
use crate::checksum::fnv64;
use crate::compact;

pub(crate) const REC_MAGIC: u32 = 0x4342_4c52; // "CBLR"
pub(crate) const KIND_PUT: u8 = 1;
pub(crate) const KIND_TOMB: u8 = 2;
/// Bytes before the payload: magic, kind + padding, key, payload_len.
pub(crate) const REC_HEADER: usize = 24;
/// Full framing overhead of one record (header + trailing checksum).
pub(crate) const REC_FRAME: usize = REC_HEADER + 8;

/// Identity of one log file: `(seq, nonce)` — replay order is `seq` first
/// so a compaction output (allocated below the rotated active log) lands
/// in the right place, `nonce` second for cross-handle determinism.
pub(crate) type FileKey = (u64, u64);

/// Tuning knobs for the log store.
#[derive(Clone, Copy, Debug)]
pub struct SegmentLogConfig {
    /// Seal the active log and start a new one past this many bytes.
    pub rotate_bytes: u64,
    /// Compact a sealed log once this fraction of its bytes is dead.
    pub compact_min_garbage: f64,
    /// Never compact logs smaller than this (the reclaim is not worth the
    /// rewrite).
    pub compact_min_bytes: u64,
    /// Run the compactor automatically after write batches. Disable for
    /// deterministic tests that drive [`SegmentLogBackend::compact_now`].
    pub auto_compact: bool,
}

impl Default for SegmentLogConfig {
    fn default() -> Self {
        Self {
            rotate_bytes: 8 << 20,
            compact_min_garbage: 0.5,
            compact_min_bytes: 1 << 12,
            auto_compact: true,
        }
    }
}

/// Where one durable record lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RecordLoc {
    pub(crate) file: FileKey,
    /// Offset of the payload (the record header sits `REC_HEADER` before).
    pub(crate) payload_off: u64,
    pub(crate) len: u64,
}

impl RecordLoc {
    pub(crate) fn frame_len(&self) -> u64 {
        self.len + REC_FRAME as u64
    }
}

/// One key's index state: staged in RAM or durable in a log.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Slot {
    Pending { gen: u64, len: u64 },
    Stored(RecordLoc),
}

impl Slot {
    fn len(&self) -> u64 {
        match self {
            Slot::Pending { len, .. } => *len,
            Slot::Stored(loc) => loc.len,
        }
    }
}

#[derive(Debug)]
pub(crate) struct LogInfo {
    pub(crate) path: PathBuf,
    /// Cached read handle (records are `pread` through it — no per-read
    /// `open`). Lazily opened for foreign series.
    pub(crate) file: Option<Arc<fs::File>>,
    /// File length in bytes.
    pub(crate) len: u64,
    /// Bytes (frames) of records this handle still references. Only
    /// meaningful for own-series logs — the compactor's garbage signal.
    pub(crate) live: u64,
    /// Shared mode: how far this (foreign) series has been scanned for
    /// discovery; a torn/incomplete tail record may complete later.
    pub(crate) scan_pos: u64,
}

#[derive(Debug, Default)]
pub(crate) struct LogCounters {
    pub(crate) compactions: u64,
    pub(crate) reclaimed_bytes: u64,
    pub(crate) rewritten_bytes: u64,
    pub(crate) corrupt_dropped: u64,
}

#[derive(Debug)]
pub(crate) struct LogState {
    pub(crate) index: HashMap<u64, Slot>,
    /// Writes staged but not yet appended, newest generation wins.
    pending: HashMap<u64, (u64, Bytes)>,
    /// Shared mode: records on the medium this handle has seen but not
    /// claimed — sibling-series records awaiting `discover`, and own
    /// records released by `forget` (re-adoptable later).
    pub(crate) unclaimed: HashMap<u64, RecordLoc>,
    /// Live tombstones (needed until no older log can hold a shadowed
    /// put): key → the log holding the tombstone record.
    pub(crate) tombstones: HashMap<u64, FileKey>,
    pub(crate) logs: BTreeMap<FileKey, LogInfo>,
    /// The log currently receiving appends.
    pub(crate) active: FileKey,
    pub(crate) next_seq: u64,
    /// Payload bytes across indexed entries (pending included).
    pub(crate) used: u64,
    next_gen: u64,
    write_error: Option<String>,
    /// A compaction pass is in flight (single-flight guard).
    pub(crate) compacting: bool,
    pub(crate) counters: LogCounters,
}

impl LogState {
    /// Marks a durable record no longer referenced by the index.
    pub(crate) fn mark_dead(&mut self, loc: RecordLoc) {
        if let Some(info) = self.logs.get_mut(&loc.file) {
            info.live = info.live.saturating_sub(loc.frame_len());
        }
    }

    /// Marks a tombstone record (a bare frame) in `fk` no longer live —
    /// a newer put superseded it, so compaction may drop it.
    pub(crate) fn mark_tombstone_dead(&mut self, fk: FileKey) {
        if let Some(info) = self.logs.get_mut(&fk) {
            info.live = info.live.saturating_sub(REC_FRAME as u64);
        }
    }
}

pub(crate) enum FlushMsg {
    Append {
        key: u64,
        gen: u64,
        kind: u8,
        bytes: Bytes,
    },
    /// Seal the active log and continue appending into `to_seq` (the
    /// compactor reserves `to_seq` above its output log so every append
    /// issued after the ack replays *after* the compacted records).
    Rotate {
        to_seq: u64,
        done: Sender<()>,
    },
    Barrier(Sender<()>),
}

pub(crate) enum CompactMsg {
    Tick,
    Stop,
}

/// Aggregate counters of the log store (see [`SegmentLogBackend::log_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LogStats {
    /// Log files currently on disk (active included).
    pub logs: usize,
    /// Completed compaction passes.
    pub compactions: u64,
    /// Dead bytes reclaimed by compaction.
    pub reclaimed_bytes: u64,
    /// Live bytes rewritten by compaction.
    pub rewritten_bytes: u64,
    /// Damaged records dropped: mid-log regions that startup replay or a
    /// discovery scan skipped, plus records whose checksum failed during
    /// compaction.
    pub corrupt_dropped: u64,
    /// Torn tail records truncated away by startup recovery.
    pub torn_truncated: u64,
    /// Bytes of live (referenced) record frames across own logs.
    pub live_bytes: u64,
    /// Total bytes across all log files.
    pub file_bytes: u64,
}

/// Persistent packed-log storage backend (see module docs).
pub struct SegmentLogBackend {
    dir: PathBuf,
    throttle: Option<Throttle>,
    shared: bool,
    /// Handle-unique series id (0 for exclusive handles: bare filenames).
    nonce: u64,
    cfg: SegmentLogConfig,
    pub(crate) state: Arc<Mutex<LogState>>,
    pub(crate) io: Arc<IoCounters>,
    tx: Option<Sender<FlushMsg>>,
    flusher: Option<JoinHandle<()>>,
    compact_tx: Option<Sender<CompactMsg>>,
    compactor: Option<JoinHandle<()>>,
    recovered: usize,
    dropped: usize,
    torn_truncated: u64,
}

impl std::fmt::Debug for SegmentLogBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentLogBackend")
            .field("dir", &self.dir)
            .field("shared", &self.shared)
            .field("entries", &self.len())
            .finish()
    }
}

pub(crate) fn log_path(dir: &Path, file: FileKey) -> PathBuf {
    let (seq, nonce) = file;
    if nonce == 0 {
        dir.join(format!("{seq:08}.cblog"))
    } else {
        dir.join(format!("{nonce:016x}-{seq:08}.cblog"))
    }
}

fn parse_log_name(name: &str) -> Option<FileKey> {
    let stem = name.strip_suffix(".cblog")?;
    match stem.split_once('-') {
        Some((nonce, seq)) => Some((
            seq.parse::<u64>().ok()?,
            u64::from_str_radix(nonce, 16).ok()?,
        )),
        None => Some((stem.parse::<u64>().ok()?, 0)),
    }
}

/// Appends one framed record to `buf`; returns the payload offset
/// relative to the start of `buf`.
pub(crate) fn frame_record(buf: &mut Vec<u8>, kind: u8, key: u64, payload: &[u8]) -> u64 {
    let start = buf.len();
    buf.extend_from_slice(&REC_MAGIC.to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(&[0u8; 3]);
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = fnv64(&buf[start..]);
    buf.extend_from_slice(&sum.to_le_bytes());
    (start + REC_HEADER) as u64
}

/// A record parsed out of a log scan.
pub(crate) struct ScanRecord {
    pub(crate) key: u64,
    pub(crate) kind: u8,
    pub(crate) payload_off: u64,
    pub(crate) len: u64,
}

/// What one pass over a log's bytes found.
pub(crate) struct Scan {
    /// Every fully-valid record, in log order.
    pub(crate) records: Vec<ScanRecord>,
    /// End of the last valid record; the bytes after it are a torn (or
    /// still in-flight) tail.
    pub(crate) valid_len: u64,
    /// Damaged regions skipped because a valid record follows them.
    pub(crate) damaged: u64,
}

/// Parses the record framed at `pos`: `Some((record, end))` only if it is
/// complete and its checksum holds.
fn record_at(raw: &[u8], pos: usize) -> Option<(ScanRecord, usize)> {
    let h = raw.get(pos..pos.checked_add(REC_HEADER)?)?;
    let magic = u32::from_le_bytes(h[0..4].try_into().unwrap());
    let kind = h[4];
    if magic != REC_MAGIC || !(kind == KIND_PUT || kind == KIND_TOMB) {
        return None;
    }
    let key = u64::from_le_bytes(h[8..16].try_into().unwrap());
    let plen = usize::try_from(u64::from_le_bytes(h[16..24].try_into().unwrap())).ok()?;
    let body = (pos + REC_HEADER).checked_add(plen)?;
    let declared = raw.get(body..body.checked_add(8)?)?;
    if fnv64(&raw[pos..body]) != u64::from_le_bytes(declared.try_into().unwrap()) {
        return None;
    }
    let rec = ScanRecord {
        key,
        kind,
        payload_off: (pos + REC_HEADER) as u64,
        len: plen as u64,
    };
    Some((rec, body + 8))
}

/// Walks `raw`, yielding every fully-valid record. A record that fails
/// its framing or checksum is skipped when a valid record starts anywhere
/// after it (mid-log damage must not take its successors with it); with
/// no valid record after it, it begins the tail.
pub(crate) fn scan_records(raw: &[u8]) -> Scan {
    let mut scan = Scan {
        records: Vec::new(),
        valid_len: 0,
        damaged: 0,
    };
    let mut pos = 0;
    while pos < raw.len() {
        if let Some((rec, end)) = record_at(raw, pos) {
            scan.records.push(rec);
            scan.valid_len = end as u64;
            pos = end;
            continue;
        }
        match (pos + 1..raw.len()).find(|&p| record_at(raw, p).is_some()) {
            Some(next) => {
                scan.damaged += 1;
                pos = next;
            }
            None => break,
        }
    }
    scan
}

/// Positional read through a cached handle (no seek, no reopen).
pub(crate) fn read_exact_at(file: &fs::File, buf: &mut [u8], off: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, off)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file.try_clone()?;
        f.seek(SeekFrom::Start(off))?;
        f.read_exact(buf)
    }
}

impl SegmentLogBackend {
    /// Opens (or creates) a log dir with exclusive ownership: every log is
    /// scanned, the index rebuilt, torn tails truncated to the last valid
    /// record, and stale compaction temp files deleted.
    pub fn new(dir: impl Into<PathBuf>, throttle: Option<Throttle>) -> Result<Self, BackendError> {
        Self::open(dir, throttle, false, SegmentLogConfig::default())
    }

    /// Opens a log dir that other live handles also append to. This handle
    /// writes its own log series; sibling series are scanned at startup
    /// and re-scanned incrementally by [`StorageBackend::discover`].
    /// Foreign series are never truncated, compacted, or deleted.
    pub fn open_shared(
        dir: impl Into<PathBuf>,
        throttle: Option<Throttle>,
    ) -> Result<Self, BackendError> {
        Self::open(dir, throttle, true, SegmentLogConfig::default())
    }

    /// Opens with explicit tuning (tests shrink `rotate_bytes` and drive
    /// compaction by hand).
    pub fn with_config(
        dir: impl Into<PathBuf>,
        throttle: Option<Throttle>,
        shared: bool,
        cfg: SegmentLogConfig,
    ) -> Result<Self, BackendError> {
        Self::open(dir, throttle, shared, cfg)
    }

    fn open(
        dir: impl Into<PathBuf>,
        throttle: Option<Throttle>,
        shared: bool,
        cfg: SegmentLogConfig,
    ) -> Result<Self, BackendError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| BackendError::Io(e.to_string()))?;
        let io = Arc::new(IoCounters::default());

        static NONCE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let nonce = if shared {
            (std::process::id() as u64) << 20
                | NONCE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        } else {
            0
        };

        // --- Startup scan -------------------------------------------------
        let mut files: Vec<FileKey> = Vec::new();
        let mut dropped = 0usize;
        io.open();
        let listing = fs::read_dir(&dir).map_err(|e| BackendError::Io(e.to_string()))?;
        for entry in listing.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".ctmp") {
                // Exclusive owner: a leftover compaction temp is crash
                // debris (the rename never happened, so the victim log is
                // intact). Shared: it may be a sibling's live compaction.
                if !shared {
                    io.delete();
                    let _ = fs::remove_file(&path);
                    dropped += 1;
                }
                continue;
            }
            if let Some(key) = parse_log_name(name) {
                files.push(key);
            }
        }
        files.sort_unstable();

        let mut state = LogState {
            index: HashMap::new(),
            pending: HashMap::new(),
            unclaimed: HashMap::new(),
            tombstones: HashMap::new(),
            logs: BTreeMap::new(),
            active: (0, 0),
            next_seq: 1,
            used: 0,
            next_gen: 0,
            write_error: None,
            compacting: false,
            counters: LogCounters::default(),
        };
        let mut recovered = 0usize;
        let mut torn_truncated = 0u64;
        for fk in files {
            let path = log_path(&dir, fk);
            io.open();
            io.read();
            let raw = match fs::read(&path) {
                Ok(raw) => raw,
                Err(_) => {
                    dropped += 1;
                    continue;
                }
            };
            let Scan {
                records,
                valid_len,
                damaged,
            } = scan_records(&raw);
            state.counters.corrupt_dropped += damaged;
            let mut file_len = raw.len() as u64;
            // A foreign series is never touched: its torn tail may be a
            // sibling's append still in flight — leave the bytes, remember
            // where to resume scanning.
            let own = !shared || fk.1 == nonce;
            if own && valid_len < file_len {
                // A crash tore the tail. Truncate back to the last valid
                // record so the good prefix keeps serving.
                io.open();
                io.write();
                let ok = fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_len(valid_len));
                if ok.is_ok() {
                    file_len = valid_len;
                    torn_truncated += 1;
                }
            }
            if own && file_len == 0 {
                // Holds nothing (a session that never wrote, or a log
                // torn to nothing): delete rather than accumulate.
                io.delete();
                let _ = fs::remove_file(&path);
                dropped += 1;
                continue;
            }
            state.logs.insert(
                fk,
                LogInfo {
                    path,
                    file: None,
                    len: file_len,
                    live: 0,
                    scan_pos: valid_len,
                },
            );
            state.next_seq = state.next_seq.max(fk.0 + 1);
            for r in records {
                let loc = RecordLoc {
                    file: fk,
                    payload_off: r.payload_off,
                    len: r.len,
                };
                match r.kind {
                    KIND_PUT => {
                        if let Some(Slot::Stored(old)) = state.index.get(&r.key).copied() {
                            state.mark_dead(old);
                            state.used -= old.len;
                        }
                        state.index.insert(r.key, Slot::Stored(loc));
                        state.used += r.len;
                        if let Some(info) = state.logs.get_mut(&fk) {
                            info.live += loc.frame_len();
                        }
                        if let Some(tfk) = state.tombstones.remove(&r.key) {
                            state.mark_tombstone_dead(tfk);
                        }
                        recovered += 1;
                    }
                    _ => {
                        if let Some(Slot::Stored(old)) = state.index.remove(&r.key) {
                            state.mark_dead(old);
                            state.used -= old.len;
                        }
                        if let Some(old) = state.tombstones.insert(r.key, fk) {
                            state.mark_tombstone_dead(old);
                        }
                        if let Some(info) = state.logs.get_mut(&fk) {
                            info.live += REC_FRAME as u64; // the tombstone itself is live
                        }
                    }
                }
            }
        }

        // Fresh active log above everything already on disk.
        let active = (state.next_seq, nonce);
        state.next_seq += 1;
        let active_path = log_path(&dir, active);
        io.open();
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&active_path)
            .map_err(|e| BackendError::Io(e.to_string()))?;
        state.logs.insert(
            active,
            LogInfo {
                path: active_path,
                file: Some(Arc::new(file)),
                len: 0,
                live: 0,
                scan_pos: 0,
            },
        );
        state.active = active;

        let state = Arc::new(Mutex::new(state));

        // --- Compactor ---------------------------------------------------
        let (flush_tx, flush_rx) = unbounded::<FlushMsg>();
        let (compact_tx, compact_rx) = unbounded::<CompactMsg>();
        let compactor = {
            let ctx = compact::CompactorCtx {
                state: Arc::clone(&state),
                dir: dir.clone(),
                nonce,
                cfg,
                io: Arc::clone(&io),
                flusher: flush_tx.clone(),
            };
            std::thread::Builder::new()
                .name("cb-log-compactor".to_string())
                .spawn(move || 'outer: loop {
                    match compact_rx.recv() {
                        Err(_) | Ok(CompactMsg::Stop) => break,
                        Ok(CompactMsg::Tick) => {
                            // Coalesce queued ticks into one pass.
                            while let Ok(msg) = compact_rx.try_recv() {
                                if matches!(msg, CompactMsg::Stop) {
                                    break 'outer;
                                }
                            }
                            while compact::compact_one(&ctx, None).is_some() {}
                        }
                    }
                })
                .map_err(|e| BackendError::Io(e.to_string()))?
        };

        // --- Flusher (group commit) --------------------------------------
        let flusher = {
            let state = Arc::clone(&state);
            let io = Arc::clone(&io);
            let dir = dir.clone();
            let auto_tick = cfg.auto_compact.then(|| compact_tx.clone());
            let rotate_bytes = cfg.rotate_bytes;
            std::thread::Builder::new()
                .name("cb-log-flusher".to_string())
                .spawn(move || {
                    run_flusher(flush_rx, state, io, dir, nonce, rotate_bytes, auto_tick)
                })
                .map_err(|e| BackendError::Io(e.to_string()))?
        };

        Ok(Self {
            dir,
            throttle,
            shared,
            nonce,
            cfg,
            state,
            io,
            tx: Some(flush_tx),
            flusher: Some(flusher),
            compact_tx: Some(compact_tx),
            compactor: Some(compactor),
            recovered,
            dropped,
            torn_truncated,
        })
    }

    /// The directory holding this backend's log files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records re-indexed by startup recovery.
    pub fn recovered_records(&self) -> usize {
        self.recovered
    }

    /// Crash debris (stale `.ctmp`, unreadable logs) removed at startup.
    pub fn dropped_debris(&self) -> usize {
        self.dropped
    }

    /// Torn tail records truncated away at startup.
    pub fn torn_truncations(&self) -> u64 {
        self.torn_truncated
    }

    /// Snapshot of the filesystem-operation counters.
    pub fn io_ops(&self) -> IoOps {
        self.io.snapshot()
    }

    /// Aggregate log/compaction counters.
    pub fn log_stats(&self) -> LogStats {
        let s = self.state.lock();
        LogStats {
            logs: s.logs.len(),
            compactions: s.counters.compactions,
            reclaimed_bytes: s.counters.reclaimed_bytes,
            rewritten_bytes: s.counters.rewritten_bytes,
            corrupt_dropped: s.counters.corrupt_dropped,
            torn_truncated: self.torn_truncated,
            live_bytes: s.logs.values().map(|l| l.live).sum(),
            file_bytes: s.logs.values().map(|l| l.len).sum(),
        }
    }

    /// Runs compaction passes on the caller's thread until no sealed log
    /// exceeds the garbage threshold; returns how many logs were
    /// compacted. Tests use this for determinism; production relies on the
    /// background compactor.
    pub fn compact_now(&self) -> usize {
        let ctx = self.compactor_ctx();
        let mut n = 0;
        while compact::compact_one(&ctx, None).is_some() {
            n += 1;
        }
        n
    }

    /// Test hook: run one compaction pass but abort ("crash") after
    /// rewriting `abort_after_records` live records, leaving the `.ctmp`
    /// behind and the victim untouched. Returns `true` if a victim was
    /// selected (and therefore a temp file was left).
    #[doc(hidden)]
    pub fn compact_once_aborting(&self, abort_after_records: usize) -> bool {
        let ctx = self.compactor_ctx();
        compact::compact_one(&ctx, Some(abort_after_records)).is_some()
    }

    fn compactor_ctx(&self) -> compact::CompactorCtx {
        compact::CompactorCtx {
            state: Arc::clone(&self.state),
            dir: self.dir.clone(),
            nonce: self.nonce,
            cfg: self.cfg,
            io: Arc::clone(&self.io),
            flusher: self.tx.as_ref().expect("flusher alive").clone(),
        }
    }

    /// Cached (or lazily opened) read handle for a log.
    fn log_file(&self, fk: FileKey) -> Result<Option<Arc<fs::File>>, BackendError> {
        let mut s = self.state.lock();
        let Some(info) = s.logs.get_mut(&fk) else {
            return Ok(None);
        };
        if let Some(f) = &info.file {
            return Ok(Some(Arc::clone(f)));
        }
        let path = info.path.clone();
        self.io.open();
        match fs::File::open(&path) {
            Ok(f) => {
                let f = Arc::new(f);
                // Re-check: the map cannot have changed the entry (we held
                // the lock), so just cache.
                if let Some(info) = s.logs.get_mut(&fk) {
                    info.file = Some(Arc::clone(&f));
                }
                Ok(Some(f))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(BackendError::Io(e.to_string())),
        }
    }

    /// Reads and fully verifies one record's payload.
    fn read_record(&self, key: u64, loc: RecordLoc) -> Result<Option<Bytes>, BackendError> {
        let Some(file) = self.log_file(loc.file)? else {
            return Ok(None); // log vanished (sibling compaction)
        };
        let frame = loc.frame_len() as usize;
        let mut buf = vec![0u8; frame];
        self.io.read();
        if read_exact_at(&file, &mut buf, loc.payload_off - REC_HEADER as u64).is_err() {
            return Err(BackendError::Corrupt);
        }
        if let Some(t) = self.throttle {
            t.charge_access();
            t.charge_bytes(frame);
        }
        let body = frame - 8;
        let declared = u64::from_le_bytes(buf[body..].try_into().unwrap());
        let rec_key = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        if fnv64(&buf[..body]) != declared || rec_key != key || buf[4] != KIND_PUT {
            return Err(BackendError::Corrupt);
        }
        buf.drain(..REC_HEADER);
        buf.truncate(loc.len as usize);
        Ok(Some(Bytes::from(buf)))
    }

    /// Drops a key from the index, marking its durable record dead and
    /// (when `tombstone`) queueing a tombstone append.
    fn drop_key(&self, key: u64, tombstone: bool) -> bool {
        let mut s = self.state.lock();
        s.pending.remove(&key);
        let present = match s.index.remove(&key) {
            Some(slot) => {
                s.used -= slot.len();
                if let Slot::Stored(loc) = slot {
                    s.mark_dead(loc);
                }
                true
            }
            None => false,
        };
        let unclaimed = match s.unclaimed.remove(&key) {
            Some(loc) => {
                // An own-series record released by `forget` stayed live so
                // siblings could keep serving it; a true delete ends that
                // and frees the frame for compaction. Foreign-series live
                // counts are not tracked by this handle.
                if loc.file.1 == self.nonce {
                    s.mark_dead(loc);
                }
                true
            }
            None => false,
        };
        drop(s);
        if tombstone && (present || unclaimed) {
            let _ = self
                .tx
                .as_ref()
                .expect("flusher alive")
                .send(FlushMsg::Append {
                    key,
                    gen: 0,
                    kind: KIND_TOMB,
                    bytes: Bytes::new(),
                });
        }
        present || unclaimed
    }

    /// Shared mode: scan sibling series for records appended since the
    /// last scan, filling the unclaimed map.
    fn rescan_foreign(&self) {
        // New foreign log files since the last look.
        self.io.open();
        let Ok(listing) = fs::read_dir(&self.dir) else {
            return;
        };
        let mut found: Vec<FileKey> = Vec::new();
        for entry in listing.flatten() {
            let Some(name) = entry.file_name().to_str().map(str::to_string) else {
                continue;
            };
            if let Some(fk) = parse_log_name(&name) {
                found.push(fk);
            }
        }
        found.sort_unstable();
        {
            let mut s = self.state.lock();
            for fk in found {
                s.logs.entry(fk).or_insert_with(|| LogInfo {
                    path: log_path(&self.dir, fk),
                    file: None,
                    len: 0,
                    live: 0,
                    scan_pos: 0,
                });
            }
        }
        // Incrementally scan every foreign series past its scan position.
        let targets: Vec<(FileKey, u64)> = {
            let s = self.state.lock();
            s.logs
                .iter()
                .filter(|(fk, _)| fk.1 != self.nonce)
                .map(|(&fk, info)| (fk, info.scan_pos))
                .collect()
        };
        for (fk, from) in targets {
            let Ok(Some(file)) = self.log_file(fk) else {
                continue;
            };
            let Ok(meta) = file.metadata() else { continue };
            if meta.len() <= from {
                continue;
            }
            let mut buf = vec![0u8; (meta.len() - from) as usize];
            self.io.read();
            if read_exact_at(&file, &mut buf, from).is_err() {
                continue;
            }
            let Scan {
                records,
                valid_len,
                damaged,
            } = scan_records(&buf);
            let mut s = self.state.lock();
            s.counters.corrupt_dropped += damaged;
            if let Some(info) = s.logs.get_mut(&fk) {
                info.scan_pos = from + valid_len;
                info.len = info.len.max(from + valid_len);
            }
            for r in records {
                let loc = RecordLoc {
                    file: fk,
                    payload_off: from + r.payload_off,
                    len: r.len,
                };
                match r.kind {
                    KIND_PUT => {
                        if !s.index.contains_key(&r.key) {
                            s.unclaimed.insert(r.key, loc);
                        }
                    }
                    _ => {
                        s.unclaimed.remove(&r.key);
                    }
                }
            }
        }
    }

    /// Moves an unclaimed record into the index (room rules are the
    /// tiering policy's job, not the backend's).
    fn claim(&self, key: u64) -> Option<u64> {
        let mut s = self.state.lock();
        if let Some(slot) = s.index.get(&key) {
            return Some(slot.len());
        }
        let loc = s.unclaimed.remove(&key)?;
        s.index.insert(key, Slot::Stored(loc));
        s.used += loc.len;
        if loc.file.1 == self.nonce {
            // Re-adopted own record: it stayed live through forget, so the
            // live accounting is already right.
        }
        Some(loc.len)
    }
}

#[allow(clippy::too_many_arguments)]
fn run_flusher(
    rx: Receiver<FlushMsg>,
    state: Arc<Mutex<LogState>>,
    io: Arc<IoCounters>,
    dir: PathBuf,
    nonce: u64,
    rotate_bytes: u64,
    auto_tick: Option<Sender<CompactMsg>>,
) {
    while let Ok(first) = rx.recv() {
        // Group commit: greedily drain whatever else is queued and append
        // the whole batch with one write call.
        let mut batch = vec![first];
        let mut batch_bytes = batch
            .iter()
            .map(|m| match m {
                FlushMsg::Append { bytes, .. } => bytes.len(),
                _ => 0,
            })
            .sum::<usize>();
        while batch_bytes < rotate_bytes as usize {
            match rx.try_recv() {
                Ok(msg) => {
                    if let FlushMsg::Append { bytes, .. } = &msg {
                        batch_bytes += bytes.len();
                    }
                    batch.push(msg);
                }
                Err(_) => break,
            }
        }
        let mut appends: Vec<(u64, u64, u8, Bytes)> = Vec::new();
        let mut barriers: Vec<Sender<()>> = Vec::new();
        let mut rotations: Vec<(u64, Sender<()>)> = Vec::new();
        for msg in batch {
            match msg {
                FlushMsg::Append {
                    key,
                    gen,
                    kind,
                    bytes,
                } => appends.push((key, gen, kind, bytes)),
                FlushMsg::Barrier(done) => barriers.push(done),
                FlushMsg::Rotate { to_seq, done } => rotations.push((to_seq, done)),
            }
        }

        if !appends.is_empty() {
            // Serialize the batch against the active log's current length.
            let (active, file, base) = {
                let s = state.lock();
                let info = &s.logs[&s.active];
                (
                    s.active,
                    Arc::clone(info.file.as_ref().expect("active log open")),
                    info.len,
                )
            };
            let mut buf = Vec::new();
            let mut locs = Vec::with_capacity(appends.len());
            for (key, gen, kind, bytes) in &appends {
                let off = frame_record(&mut buf, *kind, *key, bytes);
                locs.push((
                    *key,
                    *gen,
                    *kind,
                    RecordLoc {
                        file: active,
                        payload_off: base + off,
                        len: bytes.len() as u64,
                    },
                ));
            }
            io.write();
            let res = (&*file).write_all(&buf);
            let mut s = state.lock();
            match res {
                Err(e) => {
                    // Keep pending entries serving from RAM and surface
                    // the error at the next flush(). A failed write_all
                    // can still have appended part of the batch (e.g.
                    // ENOSPC), leaving the file longer than the recorded
                    // len — and every later offset computed from that len
                    // pointing at the wrong bytes. Resync by truncating
                    // back to the recorded length; if even that fails,
                    // record the real length and seal the damaged log
                    // (startup replay treats the partial tail as torn).
                    s.write_error.get_or_insert_with(|| e.to_string());
                    io.write();
                    if file.set_len(base).is_err() {
                        if let Ok(meta) = file.metadata() {
                            if let Some(info) = s.logs.get_mut(&active) {
                                info.len = meta.len();
                            }
                        }
                        let to = s.next_seq;
                        s.next_seq += 1;
                        rotate_active(&mut s, &io, &dir, nonce, to);
                    }
                }
                Ok(()) => {
                    if let Some(info) = s.logs.get_mut(&active) {
                        info.len = base + buf.len() as u64;
                    }
                    for (key, gen, kind, loc) in locs {
                        if kind == KIND_TOMB {
                            if let Some(old) = s.tombstones.insert(key, loc.file) {
                                s.mark_tombstone_dead(old);
                            }
                            if let Some(info) = s.logs.get_mut(&loc.file) {
                                info.live += REC_FRAME as u64;
                            }
                            continue;
                        }
                        if s.pending.get(&key).is_some_and(|&(g, _)| g == gen) {
                            s.pending.remove(&key);
                        }
                        match s.index.get(&key) {
                            Some(Slot::Pending { gen: g, .. }) if *g == gen => {
                                s.index.insert(key, Slot::Stored(loc));
                                if let Some(tfk) = s.tombstones.remove(&key) {
                                    s.mark_tombstone_dead(tfk);
                                }
                                if let Some(info) = s.logs.get_mut(&loc.file) {
                                    info.live += loc.frame_len();
                                }
                            }
                            // Superseded by a newer staged write, or
                            // removed while in flight: the record is born
                            // dead (not counted live) and compaction will
                            // reclaim it.
                            _ => {}
                        }
                    }
                    // Size-based rotation.
                    if s.logs[&s.active].len >= rotate_bytes {
                        let to = s.next_seq;
                        s.next_seq += 1;
                        rotate_active(&mut s, &io, &dir, nonce, to);
                    }
                }
            }
        }
        for (to_seq, done) in rotations {
            let mut s = state.lock();
            rotate_active(&mut s, &io, &dir, nonce, to_seq);
            drop(s);
            let _ = done.send(());
        }
        for done in barriers {
            let _ = done.send(());
        }
        if let Some(t) = &auto_tick {
            let _ = t.send(CompactMsg::Tick);
        }
    }
}

/// Seals the active log (deleting it when empty) and opens `to_seq`.
/// Rotation is strictly forward: a stale request (the compactor reserved
/// its sequences, then a size-based rotation moved the active log past
/// them before the `Rotate` was processed) is a no-op — moving the active
/// log *backward* would let later appends land below records already
/// written to a higher-seq log, which replay after them and shadow them
/// at startup. The compactor's invariant still holds on the skip: the
/// current active seq is already above its reserved output log.
fn rotate_active(s: &mut LogState, io: &IoCounters, dir: &Path, nonce: u64, to_seq: u64) {
    let old = s.active;
    if to_seq <= old.0 {
        return; // stale request — never rotate backward
    }
    let fresh = (to_seq, nonce);
    if s.logs.contains_key(&fresh) {
        return; // already rotated past (coalesced requests)
    }
    let path = log_path(dir, fresh);
    io.open();
    let Ok(file) = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .read(true)
        .open(&path)
    else {
        return; // keep appending to the old active; flush() surfaces errors
    };
    s.next_seq = s.next_seq.max(to_seq + 1);
    s.logs.insert(
        fresh,
        LogInfo {
            path,
            file: Some(Arc::new(file)),
            len: 0,
            live: 0,
            scan_pos: 0,
        },
    );
    s.active = fresh;
    // An empty sealed log holds nothing: delete rather than accumulate.
    if let Some(info) = s.logs.get(&old) {
        if info.len == 0 {
            let path = info.path.clone();
            s.logs.remove(&old);
            io.delete();
            let _ = fs::remove_file(path);
        }
    }
}

impl StorageBackend for SegmentLogBackend {
    fn name(&self) -> String {
        format!("seglog:{}", self.dir.display())
    }

    fn persistent(&self) -> bool {
        true
    }

    fn shared(&self) -> bool {
        self.shared
    }

    fn put(&self, key: u64, bytes: Bytes) -> Result<(), BackendError> {
        let mut s = self.state.lock();
        s.next_gen += 1;
        let gen = s.next_gen;
        if let Some(old) = s.index.insert(
            key,
            Slot::Pending {
                gen,
                len: bytes.len() as u64,
            },
        ) {
            s.used -= old.len();
            if let Slot::Stored(loc) = old {
                s.mark_dead(loc);
            }
        }
        s.used += bytes.len() as u64;
        s.unclaimed.remove(&key);
        s.pending.insert(key, (gen, bytes.clone()));
        drop(s);
        self.tx
            .as_ref()
            .expect("flusher alive")
            .send(FlushMsg::Append {
                key,
                gen,
                kind: KIND_PUT,
                bytes,
            })
            .map_err(|_| BackendError::Io("flusher thread gone".to_string()))
    }

    fn get(&self, key: u64) -> Result<Option<Bytes>, BackendError> {
        // A reader can race a compaction delete: it copies the location,
        // the compactor repoints the index and unlinks the victim. The
        // re-check below notices the repoint and retries at the new home.
        for _ in 0..4 {
            let loc = {
                let s = self.state.lock();
                match s.index.get(&key) {
                    Some(Slot::Pending { .. }) => {
                        return Ok(s.pending.get(&key).map(|(_, b)| b.clone()));
                    }
                    Some(Slot::Stored(loc)) => *loc,
                    None => return Ok(None),
                }
            };
            match self.read_record(key, loc) {
                Ok(Some(b)) => return Ok(Some(b)),
                Ok(None) => {
                    let mut s = self.state.lock();
                    match s.index.get(&key) {
                        Some(Slot::Stored(l)) if *l == loc => {
                            // Still mapped to the vanished log: the claim
                            // is stale (a sibling compacted its series).
                            s.index.remove(&key);
                            s.used -= loc.len;
                            s.mark_dead(loc);
                            return Ok(None);
                        }
                        Some(_) => continue, // repointed — retry there
                        None => return Ok(None),
                    }
                }
                Err(BackendError::Corrupt) => {
                    // A corrupt record can never serve again: evict the
                    // claim so the tier above repairs by re-precompute.
                    self.drop_key(key, false);
                    return Err(BackendError::Corrupt);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    fn open_read(&self, key: u64) -> Result<Option<Box<dyn ReadStream + Send>>, BackendError> {
        let loc = {
            let s = self.state.lock();
            match s.index.get(&key) {
                Some(Slot::Pending { .. }) => {
                    return Ok(s
                        .pending
                        .get(&key)
                        .map(|(_, b)| Box::new(BytesStream::new(b.clone())) as _));
                }
                Some(Slot::Stored(loc)) => *loc,
                None => return Ok(None),
            }
        };
        let Some(file) = self.log_file(loc.file)? else {
            return Ok(None);
        };
        // Verify the record header before handing out a stream (payload
        // integrity is the caller's per-block checksums).
        let mut header = [0u8; REC_HEADER];
        self.io.read();
        if read_exact_at(&file, &mut header, loc.payload_off - REC_HEADER as u64).is_err() {
            self.drop_key(key, false);
            return Err(BackendError::Corrupt);
        }
        let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let rec_key = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let plen = u64::from_le_bytes(header[16..24].try_into().unwrap());
        if magic != REC_MAGIC || header[4] != KIND_PUT || rec_key != key || plen != loc.len {
            self.drop_key(key, false);
            return Err(BackendError::Corrupt);
        }
        if let Some(t) = self.throttle {
            t.charge_access();
        }
        Ok(Some(Box::new(LogStream {
            file,
            pos: loc.payload_off,
            remaining: loc.len,
            payload_len: loc.len,
            throttle: self.throttle,
            io: Arc::clone(&self.io),
        })))
    }

    fn discover(&self, key: u64) -> Option<u64> {
        if let Some(len) = self.claim(key) {
            return Some(len);
        }
        if !self.shared {
            return None; // exclusive owner: the index is the truth
        }
        self.rescan_foreign();
        self.claim(key)
    }

    fn remove(&self, key: u64) -> bool {
        self.drop_key(key, true)
    }

    fn forget(&self, key: u64) -> bool {
        if !self.shared {
            return self.drop_key(key, true);
        }
        // Shared dir: release only this handle's claim. The record stays
        // on disk — and stays *live* (not compacted away) because sibling
        // handles may still be serving it; it lands in the unclaimed map
        // so a later discover can re-adopt it without a rescan.
        let mut s = self.state.lock();
        s.pending.remove(&key);
        match s.index.remove(&key) {
            Some(slot) => {
                s.used -= slot.len();
                if let Slot::Stored(loc) = slot {
                    s.unclaimed.insert(key, loc);
                }
                true
            }
            None => false,
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.state.lock().index.contains_key(&key)
    }

    fn entries(&self) -> Vec<(u64, u64)> {
        self.state
            .lock()
            .index
            .iter()
            .map(|(&k, slot)| (k, slot.len()))
            .collect()
    }

    fn len(&self) -> usize {
        self.state.lock().index.len()
    }

    fn used_bytes(&self) -> u64 {
        self.state.lock().used
    }

    fn flush(&self) -> Result<(), BackendError> {
        let (done_tx, done_rx) = bounded::<()>(1);
        self.tx
            .as_ref()
            .expect("flusher alive")
            .send(FlushMsg::Barrier(done_tx))
            .map_err(|_| BackendError::Io("flusher thread gone".to_string()))?;
        done_rx
            .recv()
            .map_err(|_| BackendError::Io("flusher thread gone".to_string()))?;
        match self.state.lock().write_error.take() {
            Some(e) => Err(BackendError::Io(e)),
            None => Ok(()),
        }
    }

    fn maintenance(&self) -> Option<MaintenanceStats> {
        let s = self.state.lock();
        Some(MaintenanceStats {
            compactions: s.counters.compactions,
            reclaimed_bytes: s.counters.reclaimed_bytes,
        })
    }
}

impl Drop for SegmentLogBackend {
    fn drop(&mut self) {
        // The compactor holds a flusher sender, so it must exit first —
        // it may be waiting on a rotation ack, which needs the flusher
        // alive.
        if let Some(t) = self.compact_tx.take() {
            let _ = t.send(CompactMsg::Stop);
        }
        if let Some(h) = self.compactor.take() {
            let _ = h.join();
        }
        // Closing the append channel drains every queued write first, so
        // dropping the backend is itself a flush.
        self.tx.take();
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
    }
}

/// Sequential reader over one record's payload through a cached handle.
struct LogStream {
    file: Arc<fs::File>,
    pos: u64,
    remaining: u64,
    payload_len: u64,
    throttle: Option<Throttle>,
    io: Arc<IoCounters>,
}

impl ReadStream for LogStream {
    fn payload_len(&self) -> u64 {
        self.payload_len
    }

    fn read_next(&mut self, len: usize) -> Result<Bytes, BackendError> {
        let take = (len as u64).min(self.remaining) as usize;
        let mut buf = vec![0u8; take];
        if take > 0 {
            self.io.read();
            read_exact_at(&self.file, &mut buf, self.pos)
                .map_err(|e| BackendError::Io(e.to_string()))?;
        }
        self.pos += take as u64;
        self.remaining -= take as u64;
        if let Some(t) = self.throttle {
            t.charge_bytes(take);
        }
        Ok(Bytes::from(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn test_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cb-seglog-{}-{}-{}",
            std::process::id(),
            tag,
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn tiny_cfg() -> SegmentLogConfig {
        SegmentLogConfig {
            rotate_bytes: 512,
            compact_min_garbage: 0.3,
            compact_min_bytes: 64,
            auto_compact: false,
        }
    }

    #[test]
    fn put_get_roundtrips_through_pending_and_log() {
        let dir = test_dir("roundtrip");
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        let payload = Bytes::from((0u8..200).collect::<Vec<_>>());
        b.put(42, payload.clone()).unwrap();
        assert_eq!(b.get(42).unwrap().unwrap(), payload, "served from pending");
        b.flush().unwrap();
        assert_eq!(b.get(42).unwrap().unwrap(), payload, "served from the log");
        assert_eq!(b.used_bytes(), 200);
        assert!(b.contains(42));
        assert!(b.remove(42));
        assert!(b.get(42).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn many_entries_share_few_files() {
        let dir = test_dir("packed");
        let b =
            SegmentLogBackend::with_config(&dir, None, false, SegmentLogConfig::default()).unwrap();
        for k in 0..500u64 {
            b.put(k, Bytes::from(vec![k as u8; 64])).unwrap();
        }
        b.flush().unwrap();
        let files = fs::read_dir(&dir).unwrap().count();
        assert!(files <= 2, "500 entries packed into {files} files");
        for k in (0..500u64).step_by(97) {
            assert_eq!(b.get(k).unwrap().unwrap().as_ref(), &[k as u8; 64][..]);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_survive_reopen() {
        let dir = test_dir("reopen");
        {
            let b = SegmentLogBackend::new(&dir, None).unwrap();
            b.put(1, Bytes::from(vec![9u8; 64])).unwrap();
            b.put(2, Bytes::from(vec![7u8; 32])).unwrap();
            b.put(1, Bytes::from(vec![8u8; 64])).unwrap(); // overwrite
            assert!(b.remove(2));
        }
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        assert_eq!(b.len(), 1, "overwrite + tombstone replayed");
        assert_eq!(b.used_bytes(), 64);
        assert_eq!(b.get(1).unwrap().unwrap().as_ref(), &[8u8; 64][..]);
        assert!(!b.contains(2), "tombstone deletes across restart");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = test_dir("torn");
        {
            let b = SegmentLogBackend::new(&dir, None).unwrap();
            for k in 0..8u64 {
                b.put(k, Bytes::from(vec![k as u8; 40])).unwrap();
            }
        }
        // Tear the tail: append half a record's worth of garbage, then
        // also chop into the last real record of the (single) log file.
        let log = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "cblog"))
            .unwrap();
        let raw = fs::read(&log).unwrap();
        fs::write(&log, &raw[..raw.len() - 17]).unwrap();

        let b = SegmentLogBackend::new(&dir, None).unwrap();
        assert_eq!(b.torn_truncations(), 1);
        assert_eq!(b.len(), 7, "all but the torn record recover");
        for k in 0..7u64 {
            assert_eq!(b.get(k).unwrap().unwrap().as_ref(), &[k as u8; 40][..]);
        }
        assert!(!b.contains(7), "the torn record is gone");
        // The truncated log must append cleanly again (fresh active log).
        b.put(99, Bytes::from(vec![5u8; 16])).unwrap();
        b.flush().unwrap();
        drop(b);
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        assert!(b.contains(99));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_and_replays_in_order() {
        let dir = test_dir("rotate");
        let b = SegmentLogBackend::with_config(&dir, None, false, tiny_cfg()).unwrap();
        for round in 0..4u8 {
            for k in 0..16u64 {
                b.put(k, Bytes::from(vec![round; 48])).unwrap();
            }
            b.flush().unwrap();
        }
        assert!(
            b.log_stats().logs >= 2,
            "48-byte × 64 appends must rotate a 512-byte log"
        );
        drop(b);
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        for k in 0..16u64 {
            assert_eq!(
                b.get(k).unwrap().unwrap().as_ref(),
                &[3u8; 48][..],
                "latest generation wins the replay"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_read_errors_and_is_dropped() {
        let dir = test_dir("corrupt");
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        b.put(5, Bytes::from(vec![3u8; 100])).unwrap();
        b.put(6, Bytes::from(vec![4u8; 100])).unwrap();
        b.flush().unwrap();
        let stats = b.log_stats();
        let log = {
            let s = b.state.lock();
            s.logs[&s.active].path.clone()
        };
        let mut raw = fs::read(&log).unwrap();
        raw[REC_HEADER + 10] ^= 0xFF; // payload byte of record 1 (key 5)
        fs::write(&log, &raw).unwrap();
        assert_eq!(b.get(5).unwrap_err(), BackendError::Corrupt);
        assert!(!b.contains(5), "corrupt record evicted");
        assert_eq!(
            b.get(6).unwrap().unwrap().as_ref(),
            &[4u8; 100][..],
            "neighbours in the same log are unharmed"
        );
        assert_eq!(stats.compactions, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_reads_payload_in_installments() {
        let dir = test_dir("stream");
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        let payload: Vec<u8> = (0u8..=99).collect();
        b.put(7, Bytes::from(payload.clone())).unwrap();
        b.flush().unwrap();
        let mut s = b.open_read(7).unwrap().unwrap();
        assert_eq!(s.payload_len(), 100);
        let mut got = Vec::new();
        loop {
            let chunk = s.read_next(32).unwrap();
            if chunk.is_empty() {
                break;
            }
            got.extend_from_slice(&chunk);
        }
        assert_eq!(got, payload);
        assert!(b.open_read(404).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reclaims_dead_bytes_and_keeps_live_records() {
        let dir = test_dir("compact");
        let b = SegmentLogBackend::with_config(&dir, None, false, tiny_cfg()).unwrap();
        for k in 0..32u64 {
            b.put(k, Bytes::from(vec![k as u8; 64])).unwrap();
        }
        b.flush().unwrap();
        // Kill 75% of them; the sealed logs become garbage-heavy.
        for k in 0..32u64 {
            if k % 4 != 0 {
                assert!(b.remove(k));
            }
        }
        b.flush().unwrap();
        let before = b.log_stats();
        let n = b.compact_now();
        assert!(n > 0, "garbage-heavy logs must be selected");
        let after = b.log_stats();
        assert!(after.compactions >= n as u64);
        assert!(after.reclaimed_bytes > 0);
        assert!(
            after.file_bytes < before.file_bytes,
            "disk footprint must shrink: {} -> {}",
            before.file_bytes,
            after.file_bytes
        );
        for k in (0..32u64).step_by(4) {
            assert_eq!(
                b.get(k).unwrap().unwrap().as_ref(),
                &[k as u8; 64][..],
                "live record {k} survives compaction"
            );
        }
        // And the compacted state replays correctly.
        drop(b);
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        assert_eq!(b.len(), 8);
        for k in (0..32u64).step_by(4) {
            assert_eq!(b.get(k).unwrap().unwrap().as_ref(), &[k as u8; 64][..]);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_compaction_triggers_in_background() {
        let dir = test_dir("autocompact");
        let mut cfg = tiny_cfg();
        cfg.auto_compact = true;
        let b = SegmentLogBackend::with_config(&dir, None, false, cfg).unwrap();
        for k in 0..64u64 {
            b.put(k, Bytes::from(vec![k as u8; 64])).unwrap();
        }
        b.flush().unwrap();
        for k in 0..64u64 {
            if k % 8 != 0 {
                b.remove(k);
            }
        }
        b.flush().unwrap();
        // The flusher ticks the compactor after each batch; give it a
        // moment.
        let mut compactions = 0;
        for _ in 0..200 {
            compactions = b.log_stats().compactions;
            if compactions > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(compactions > 0, "background compactor never ran");
        for k in (0..64u64).step_by(8) {
            assert_eq!(b.get(k).unwrap().unwrap().as_ref(), &[k as u8; 64][..]);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_keeps_every_intact_record() {
        let dir = test_dir("mid-corrupt");
        {
            let b = SegmentLogBackend::new(&dir, None).unwrap();
            for k in 0..8u64 {
                b.put(k, Bytes::from(vec![k as u8; 40])).unwrap();
            }
        }
        let log = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "cblog"))
            .unwrap();
        let mut raw = fs::read(&log).unwrap();
        let frame = 40 + REC_FRAME;
        assert_eq!(raw.len(), 8 * frame);
        raw[2 * frame + REC_HEADER + 7] ^= 0x01; // one payload bit of key 2
        fs::write(&log, &raw).unwrap();

        let b = SegmentLogBackend::new(&dir, None).unwrap();
        assert!(!b.contains(2), "the damaged record is never indexed");
        for k in (0..8u64).filter(|&k| k != 2) {
            assert_eq!(
                b.get(k).unwrap().unwrap().as_ref(),
                &[k as u8; 40][..],
                "intact record {k} survives the damage before it"
            );
        }
        let stats = b.log_stats();
        assert_eq!(stats.corrupt_dropped, 1);
        assert_eq!(b.torn_truncations(), 0, "mid-log damage is not a tail");
        assert_eq!(
            fs::metadata(&log).unwrap().len(),
            raw.len() as u64,
            "the log keeps its suffix"
        );
        assert_eq!(
            stats.live_bytes,
            7 * frame as u64,
            "the damaged frame is garbage for the compactor"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn discovery_resyncs_past_a_damaged_foreign_record() {
        let dir = test_dir("shared-resync");
        let a = SegmentLogBackend::open_shared(&dir, None).unwrap();
        let b = SegmentLogBackend::open_shared(&dir, None).unwrap();
        for k in 1..=3u64 {
            a.put(k, Bytes::from(vec![k as u8; 48])).unwrap();
        }
        a.flush().unwrap();
        let log = {
            let s = a.state.lock();
            s.logs[&s.active].path.clone()
        };
        let mut raw = fs::read(&log).unwrap();
        raw[REC_HEADER + 3] ^= 0x10; // key 1's payload
        fs::write(&log, &raw).unwrap();
        assert_eq!(b.discover(3), Some(48), "the scan resumes past key 1");
        assert_eq!(b.get(3).unwrap().unwrap().as_ref(), &[3u8; 48][..]);
        assert_eq!(b.discover(2), Some(48));
        assert_eq!(b.discover(1), None, "the damaged record is never adopted");
        assert_eq!(b.log_stats().corrupt_dropped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_ctmp_is_removed_at_exclusive_startup() {
        let dir = test_dir("ctmp");
        fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("00000009.cblog.ctmp");
        fs::write(&stale, b"half-written compaction output").unwrap();
        // A shared handle cannot tell debris from a live sibling's
        // in-flight compaction: it leaves the file alone.
        let shared = SegmentLogBackend::open_shared(&dir, None).unwrap();
        assert_eq!(shared.dropped_debris(), 0);
        drop(shared);
        assert!(stale.exists(), "shared startup must not delete .ctmp");
        // The exclusive owner cleans it up, plus the shared session's
        // empty log.
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        assert_eq!(b.dropped_debris(), 2);
        assert!(!stale.exists());
        assert_eq!(b.log_stats().logs, 1, "only the fresh active log");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_handles_discover_each_others_records() {
        let dir = test_dir("shared");
        let a = SegmentLogBackend::open_shared(&dir, None).unwrap();
        let b = SegmentLogBackend::open_shared(&dir, None).unwrap();
        let payload = Bytes::from(vec![5u8; 80]);
        a.put(77, payload.clone()).unwrap();
        a.flush().unwrap();
        assert!(!b.contains(77), "b has not indexed a's record yet");
        assert_eq!(b.discover(77), Some(80));
        assert!(b.contains(77));
        assert_eq!(b.get(77).unwrap().unwrap(), payload);
        // forget releases only b's claim; a still serves, and b can
        // re-adopt without a rescan.
        assert!(b.forget(77));
        assert!(!b.contains(77));
        assert_eq!(a.get(77).unwrap().unwrap(), payload);
        assert_eq!(b.discover(77), Some(80), "re-adopted from unclaimed");
        // An id nowhere on the medium stays undiscoverable, and so does
        // one a sibling persisted and then removed.
        assert_eq!(b.discover(404), None);
        a.put(78, payload.clone()).unwrap();
        assert!(a.remove(78));
        a.flush().unwrap();
        assert_eq!(b.discover(78), None, "the sibling's tombstone hides it");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_shared_writers_never_tear_a_record() {
        let dir = test_dir("shared-write");
        let a = SegmentLogBackend::open_shared(&dir, None).unwrap();
        let b = SegmentLogBackend::open_shared(&dir, None).unwrap();
        // Interleaved write-behind on one key from both handles: each
        // appends to its own series, so neither flusher ever writes into
        // the other's file.
        for i in 0..16u8 {
            a.put(9, Bytes::from(vec![i; 64])).unwrap();
            b.put(9, Bytes::from(vec![i ^ 0xFF; 64])).unwrap();
        }
        a.flush().unwrap();
        b.flush().unwrap();
        assert_eq!(a.get(9).unwrap().unwrap().as_ref(), &[15u8; 64][..]);
        assert_eq!(b.get(9).unwrap().unwrap().as_ref(), &[15 ^ 0xFF; 64][..]);
        drop((a, b));
        let later = SegmentLogBackend::open_shared(&dir, None).unwrap();
        let got = later.get(9).unwrap().unwrap();
        assert!(
            got.iter().all(|&x| x == 15) || got.iter().all(|&x| x == 15 ^ 0xFF),
            "one complete final generation survives, never a torn mix"
        );
        assert_eq!(later.log_stats().corrupt_dropped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_tombstone_hides_record_from_later_discovery() {
        let dir = test_dir("shared-tomb");
        let a = SegmentLogBackend::open_shared(&dir, None).unwrap();
        a.put(9, Bytes::from(vec![1u8; 32])).unwrap();
        assert!(a.remove(9));
        a.flush().unwrap();
        let b = SegmentLogBackend::open_shared(&dir, None).unwrap();
        assert!(!b.contains(9), "tombstone replayed at startup");
        assert_eq!(b.discover(9), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn exclusive_handle_never_discovers_foreign_records() {
        let dir = test_dir("excl");
        {
            let w = SegmentLogBackend::new(&dir, None).unwrap();
            w.put(4, Bytes::from(vec![1u8; 32])).unwrap();
        }
        let later = SegmentLogBackend::new(&dir, None).unwrap();
        assert_eq!(later.discover(4), Some(32), "indexed at startup");
        {
            let sneaky = SegmentLogBackend::open_shared(&dir, None).unwrap();
            sneaky.put(5, Bytes::from(vec![2u8; 16])).unwrap();
        }
        assert_eq!(
            later.discover(5),
            None,
            "exclusive handles trust only their own index"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_replaces_and_reaccounts() {
        let dir = test_dir("overwrite");
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        b.put(9, Bytes::from(vec![1u8; 100])).unwrap();
        b.put(9, Bytes::from(vec![2u8; 50])).unwrap();
        b.flush().unwrap();
        assert_eq!(b.used_bytes(), 50);
        assert_eq!(b.get(9).unwrap().unwrap().as_ref(), &[2u8; 50][..]);
        assert_eq!(b.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_during_pending_write_does_not_resurrect() {
        let dir = test_dir("race");
        {
            let b = SegmentLogBackend::new(&dir, None).unwrap();
            b.put(3, Bytes::from(vec![4u8; 64])).unwrap();
            assert!(b.remove(3));
            b.flush().unwrap();
            assert!(!b.contains(3));
        }
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        assert!(!b.contains(3), "tombstone outlives the racing append");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_rotation_request_never_moves_active_backward() {
        let dir = test_dir("fwd-rotate");
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        let send_rotate = |to_seq: u64| {
            let (done_tx, done_rx) = bounded::<()>(1);
            let sent = b.tx.as_ref().unwrap().send(FlushMsg::Rotate {
                to_seq,
                done: done_tx,
            });
            assert!(sent.is_ok());
            done_rx.recv().unwrap();
        };
        // A size-based rotation has already moved the active log to seq 8
        // when a compactor's stale Rotate{to_seq: 7} arrives.
        send_rotate(8);
        assert_eq!(b.state.lock().active.0, 8);
        b.put(1, Bytes::from(vec![3u8; 32])).unwrap(); // older write → log 8
        b.flush().unwrap();
        send_rotate(7);
        assert_eq!(b.state.lock().active.0, 8, "rotation must be forward-only");
        b.put(1, Bytes::from(vec![4u8; 32])).unwrap(); // newer write
        b.flush().unwrap();
        drop(b);
        // Backward rotation would put the newer write in log 7, where the
        // older record in log 8 shadows it during seq-ordered replay.
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        assert_eq!(
            b.get(1).unwrap().unwrap().as_ref(),
            &[4u8; 32][..],
            "newest write must win the replay"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_batch_write_resyncs_the_active_log() {
        let dir = test_dir("werr");
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        b.put(1, Bytes::from(vec![1u8; 32])).unwrap();
        b.flush().unwrap();
        // Sabotage the active log's handle: a read-only handle makes the
        // next batch write fail — and set_len too, forcing the
        // seal-and-rotate fallback.
        {
            let mut s = b.state.lock();
            let active = s.active;
            let info = s.logs.get_mut(&active).unwrap();
            let ro = fs::File::open(&info.path).unwrap();
            info.file = Some(Arc::new(ro));
        }
        b.put(2, Bytes::from(vec![2u8; 32])).unwrap();
        assert!(b.flush().is_err(), "write failure surfaces at flush");
        // The failed append still serves from RAM, and the store accepts
        // (and correctly indexes) appends into the fresh active log.
        assert_eq!(b.get(2).unwrap().unwrap().as_ref(), &[2u8; 32][..]);
        b.put(3, Bytes::from(vec![3u8; 32])).unwrap();
        b.flush().unwrap();
        assert_eq!(b.get(1).unwrap().unwrap().as_ref(), &[1u8; 32][..]);
        assert_eq!(b.get(3).unwrap().unwrap().as_ref(), &[3u8; 32][..]);
        drop(b);
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        assert_eq!(b.get(1).unwrap().unwrap().as_ref(), &[1u8; 32][..]);
        assert_eq!(b.get(3).unwrap().unwrap().as_ref(), &[3u8; 32][..]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn superseding_put_reclaims_tombstone_live_bytes() {
        let dir = test_dir("tomb-live");
        let b = SegmentLogBackend::with_config(&dir, None, false, tiny_cfg()).unwrap();
        b.put(1, Bytes::from(vec![1u8; 64])).unwrap();
        b.flush().unwrap();
        assert!(b.remove(1));
        b.flush().unwrap();
        b.put(1, Bytes::from(vec![2u8; 64])).unwrap();
        b.flush().unwrap();
        // Only the latest put's frame is live: the first put died at the
        // tombstone, and the tombstone died when the new put superseded
        // it. Anything more under-reports garbage and delays compaction.
        let frame = 64 + REC_FRAME as u64;
        assert_eq!(b.log_stats().live_bytes, frame);
        drop(b);
        // Replay reaches the identical accounting.
        let b = SegmentLogBackend::with_config(&dir, None, false, tiny_cfg()).unwrap();
        assert_eq!(b.log_stats().live_bytes, frame);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn removing_a_forgotten_record_marks_it_dead() {
        let dir = test_dir("forget-remove");
        let a = SegmentLogBackend::open_shared(&dir, None).unwrap();
        a.put(7, Bytes::from(vec![1u8; 64])).unwrap();
        a.flush().unwrap();
        let live_claimed = a.log_stats().live_bytes;
        assert_eq!(live_claimed, 64 + REC_FRAME as u64);
        assert!(a.forget(7));
        assert_eq!(
            a.log_stats().live_bytes,
            live_claimed,
            "forget keeps the record live for siblings"
        );
        assert!(a.remove(7));
        a.flush().unwrap();
        // The record's frame is dead; only the new tombstone is live.
        assert_eq!(a.log_stats().live_bytes, REC_FRAME as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_counters_move() {
        // 300 chunk-sized (4 KiB) entries: packed into at most two log
        // files, appended by group commit, read back one read apiece.
        const N: u64 = 300;
        let dir = test_dir("io");
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        for k in 0..N {
            b.put(k, Bytes::from(vec![0u8; 4096])).unwrap();
        }
        b.flush().unwrap();
        assert!(b.log_stats().logs <= 2, "{} log files", b.log_stats().logs);
        let after_write = b.io_ops();
        assert!(
            after_write.writes < N,
            "group commit: {N} appends took {} writes",
            after_write.writes
        );
        for k in 0..N {
            b.get(k).unwrap().unwrap();
        }
        let after_read = b.io_ops();
        assert_eq!(after_read.reads - after_write.reads, N);
        assert_eq!(
            after_read.opens, after_write.opens,
            "reads go through cached handles — zero opens"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
