//! Storage backends: where serialized KV bytes physically live.
//!
//! The tiered `cb_kv::store::KvStore` tracks *which* entry sits on *which* tier
//! and when to spill/promote; a [`StorageBackend`] answers only "hold these
//! bytes under this key" for one tier. Two implementations ship:
//!
//! - [`MemBackend`] — a RAM map; the fast tier.
//! - [`SegmentLogBackend`](crate::segment_log::SegmentLogBackend) —
//!   persistent append-only logs with a group-committing write-behind
//!   flusher; the capacity tier.
//!
//! Reads come in two shapes. [`StorageBackend::get`] returns the whole
//! entry (integrity-verified where the medium can corrupt, i.e. on disk).
//! [`StorageBackend::open_read`] returns a sequential [`ReadStream`] that
//! hands out the payload in caller-sized installments — the pipelined
//! loader fetches one transformer layer per installment so the read of
//! layer *i+1* overlaps the selective recompute of layer *i*, paying the
//! device's access latency once per entry instead of once per layer.
//!
//! An optional [`Throttle`] emulates a storage device's bandwidth/latency
//! (the §5.2 device grid) with real sleeps, so pipelining claims are
//! measured on real threads rather than modeled.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::device::DeviceKind;

/// Errors surfaced by storage backends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// An I/O operation failed (message carries the OS error).
    Io(String),
    /// A segment failed its integrity checksum (or its framing was torn).
    Corrupt,
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Io(e) => write!(f, "storage backend I/O error: {e}"),
            BackendError::Corrupt => write!(f, "storage segment corrupt"),
        }
    }
}

impl std::error::Error for BackendError {}

/// Background-maintenance counters a backend may expose (log-structured
/// backends report their compactor's work here; simple backends have no
/// maintenance and return `None` from [`StorageBackend::maintenance`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Completed compaction passes.
    pub compactions: u64,
    /// Bytes of dead records reclaimed by compaction (victim file size
    /// minus the bytes rewritten for still-live records).
    pub reclaimed_bytes: u64,
}

/// Snapshot of a backend's filesystem-operation counters. Benchmarks use
/// these to count syscalls per operation without `strace`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoOps {
    /// File/dir opens (including whole-file read/write convenience calls).
    pub opens: u64,
    /// Read calls.
    pub reads: u64,
    /// Write calls.
    pub writes: u64,
    /// Renames.
    pub renames: u64,
    /// File deletions.
    pub deletes: u64,
}

impl IoOps {
    /// Total filesystem operations.
    pub fn total(&self) -> u64 {
        self.opens + self.reads + self.writes + self.renames + self.deletes
    }
}

/// Internal atomic holder behind [`IoOps`] snapshots.
#[derive(Debug, Default)]
pub(crate) struct IoCounters {
    opens: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    renames: AtomicU64,
    deletes: AtomicU64,
}

impl IoCounters {
    pub(crate) fn open(&self) {
        self.opens.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn rename(&self) {
        self.renames.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn delete(&self) {
        self.deletes.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn snapshot(&self) -> IoOps {
        IoOps {
            opens: self.opens.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            renames: self.renames.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
        }
    }
}

/// A sequential reader over one entry's payload.
///
/// Installments are served front to back; the backend charges its device
/// model's access latency at open time and bandwidth per installment.
pub trait ReadStream {
    /// Total payload bytes behind this stream.
    fn payload_len(&self) -> u64;

    /// Reads the next `len` bytes (the remainder if fewer are left).
    fn read_next(&mut self, len: usize) -> Result<Bytes, BackendError>;
}

/// One tier's byte store. Implementations are internally synchronized.
/// The tiering policy above keeps its own lock off the *read* path — a
/// slow (throttled) disk `get`/`open_read` never serializes concurrent
/// RAM hits — while management operations (spill, promote, remove,
/// persist) may issue brief backend calls under the policy lock: RAM map
/// ops, write-behind `put`s, and file deletes, all of which return
/// without device-speed waits.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// Short label for stats/reporting ("mem", "seglog:/path").
    fn name(&self) -> String;

    /// True if entries survive process restart (drives store recovery).
    fn persistent(&self) -> bool {
        false
    }

    /// True if other live handles use the same medium (shared log dir).
    /// The tiering policy above promotes *by copy* from a shared tier —
    /// deleting the source record would steal it from siblings.
    fn shared(&self) -> bool {
        false
    }

    /// Stores `bytes` under `key`, replacing any previous entry.
    fn put(&self, key: u64, bytes: Bytes) -> Result<(), BackendError>;

    /// Whole-entry read. Persistent backends verify the record checksum
    /// and drop the entry on mismatch (returning
    /// [`BackendError::Corrupt`]).
    fn get(&self, key: u64) -> Result<Option<Bytes>, BackendError>;

    /// Opens a sequential payload stream (see [`ReadStream`]). Framing is
    /// verified at open; payload integrity is the caller's per-block
    /// checksums (`cb-kv`'s wire format carries them).
    fn open_read(&self, key: u64) -> Result<Option<Box<dyn ReadStream + Send>>, BackendError>;

    /// Attempts to locate `key` on the medium even if this handle has not
    /// indexed it. Exclusive backends own their index and return `None`
    /// for unindexed keys; *shared-directory* backends (several handles —
    /// possibly several processes — over one log dir) re-probe the
    /// medium, index the record on success, and return its payload
    /// length. Integrity is still verified by the read that follows.
    fn discover(&self, _key: u64) -> Option<u64> {
        None
    }

    /// Removes an entry; `true` if one was present.
    fn remove(&self, key: u64) -> bool;

    /// Drops this handle's claim on `key` without destroying shared
    /// state: private backends free the entry (same as [`Self::remove`]);
    /// shared backends only forget their index mapping, leaving the
    /// medium's copy for sibling handles. The tiering policy above uses
    /// this for capacity eviction, which must never delete a record
    /// siblings may still serve.
    fn forget(&self, key: u64) -> bool {
        self.remove(key)
    }

    /// True if `key` is held.
    fn contains(&self, key: u64) -> bool;

    /// All `(key, payload_len)` pairs currently held (recovery indexing).
    fn entries(&self) -> Vec<(u64, u64)>;

    /// Number of entries held.
    fn len(&self) -> usize;

    /// True if no entries are held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes held (pending writes included).
    fn used_bytes(&self) -> u64;

    /// Blocks until queued write-behind work is durable. Surfaces the
    /// first write error since the previous flush.
    fn flush(&self) -> Result<(), BackendError>;

    /// Background-maintenance counters, for backends that run any (the
    /// segment log's compactor). `None` means "no maintenance machinery".
    fn maintenance(&self) -> Option<MaintenanceStats> {
        None
    }
}

/// Emulated device timing: every read sleeps `latency_s` once per access
/// plus `bytes / bytes_per_s`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Throttle {
    /// Per-access latency, seconds.
    pub latency_s: f64,
    /// Sustained read bandwidth, bytes/second.
    pub bytes_per_s: f64,
}

impl Throttle {
    /// The throttle matching a catalogue device's spec.
    pub fn device(kind: DeviceKind) -> Self {
        let spec = kind.spec();
        Self {
            latency_s: spec.latency_s,
            bytes_per_s: spec.read_bytes_per_s,
        }
    }

    /// A pure-bandwidth throttle (no access latency).
    pub fn bandwidth(bytes_per_s: f64) -> Self {
        Self {
            latency_s: 0.0,
            bytes_per_s,
        }
    }

    /// Seconds one access of `bytes` takes on this device.
    pub fn read_secs(&self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 / self.bytes_per_s
    }

    pub(crate) fn charge_access(&self) {
        if self.latency_s > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(self.latency_s));
        }
    }

    pub(crate) fn charge_bytes(&self, bytes: usize) {
        if bytes > 0 && self.bytes_per_s.is_finite() && self.bytes_per_s > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(bytes as f64 / self.bytes_per_s));
        }
    }
}

/// Stream over an in-memory payload (also used for disk entries still
/// sitting in the write-behind queue — those are served from RAM like an
/// OS page cache would).
pub(crate) struct BytesStream {
    bytes: Bytes,
    pos: usize,
}

impl BytesStream {
    pub(crate) fn new(bytes: Bytes) -> Self {
        Self { bytes, pos: 0 }
    }
}

impl ReadStream for BytesStream {
    fn payload_len(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn read_next(&mut self, len: usize) -> Result<Bytes, BackendError> {
        let end = (self.pos + len).min(self.bytes.len());
        let out = self.bytes.slice(self.pos..end);
        self.pos = end;
        Ok(out)
    }
}

/// The RAM tier: a synchronized map of entries.
#[derive(Debug, Default)]
pub struct MemBackend {
    inner: Mutex<MemState>,
}

#[derive(Debug, Default)]
struct MemState {
    entries: HashMap<u64, Bytes>,
    used: u64,
}

impl MemBackend {
    /// An empty RAM backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageBackend for MemBackend {
    fn name(&self) -> String {
        "mem".to_string()
    }

    fn put(&self, key: u64, bytes: Bytes) -> Result<(), BackendError> {
        let mut s = self.inner.lock();
        if let Some(old) = s.entries.insert(key, bytes) {
            s.used -= old.len() as u64;
        }
        let len = s.entries[&key].len() as u64;
        s.used += len;
        Ok(())
    }

    fn get(&self, key: u64) -> Result<Option<Bytes>, BackendError> {
        Ok(self.inner.lock().entries.get(&key).cloned())
    }

    fn open_read(&self, key: u64) -> Result<Option<Box<dyn ReadStream + Send>>, BackendError> {
        Ok(self
            .inner
            .lock()
            .entries
            .get(&key)
            .cloned()
            .map(|b| Box::new(BytesStream::new(b)) as Box<dyn ReadStream + Send>))
    }

    fn remove(&self, key: u64) -> bool {
        let mut s = self.inner.lock();
        match s.entries.remove(&key) {
            Some(old) => {
                s.used -= old.len() as u64;
                true
            }
            None => false,
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.inner.lock().entries.contains_key(&key)
    }

    fn entries(&self) -> Vec<(u64, u64)> {
        self.inner
            .lock()
            .entries
            .iter()
            .map(|(&k, v)| (k, v.len() as u64))
            .collect()
    }

    fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    fn used_bytes(&self) -> u64 {
        self.inner.lock().used
    }

    fn flush(&self) -> Result<(), BackendError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_roundtrips_and_accounts() {
        let b = MemBackend::new();
        assert!(!b.contains(7));
        b.put(7, Bytes::from(vec![1, 2, 3])).unwrap();
        b.put(9, Bytes::from(vec![4; 10])).unwrap();
        assert_eq!(b.get(7).unwrap().unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.used_bytes(), 13);
        // Replacement adjusts the accounting instead of double-counting.
        b.put(7, Bytes::from(vec![5; 5])).unwrap();
        assert_eq!(b.used_bytes(), 15);
        assert!(b.remove(7));
        assert!(!b.remove(7));
        assert_eq!(b.used_bytes(), 10);
    }

    #[test]
    fn mem_stream_reads_in_installments() {
        let b = MemBackend::new();
        b.put(1, Bytes::from((0u8..20).collect::<Vec<_>>()))
            .unwrap();
        let mut s = b.open_read(1).unwrap().unwrap();
        assert_eq!(s.payload_len(), 20);
        assert_eq!(s.read_next(8).unwrap().as_ref(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(s.read_next(8).unwrap().len(), 8);
        assert_eq!(s.read_next(8).unwrap().len(), 4, "remainder");
        assert!(s.read_next(8).unwrap().is_empty(), "exhausted");
        assert!(b.open_read(42).unwrap().is_none());
    }

    #[test]
    fn throttle_math_matches_device_spec() {
        let t = Throttle::device(DeviceKind::NvmeSsd);
        assert_eq!(t.bytes_per_s, 4.8e9);
        let secs = t.read_secs(4_800_000);
        assert!((secs - (100e-6 + 1e-3)).abs() < 1e-9);
        let b = Throttle::bandwidth(1e9);
        assert_eq!(b.latency_s, 0.0);
    }
}
