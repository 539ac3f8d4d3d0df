//! The tiered RAM↔disk KV cache store.
//!
//! Entries are serialized caches placed on storage tiers, each tier backed
//! by a real [`StorageBackend`] (RAM maps, persistent segment logs —
//! `cb-storage`). The store owns the *policy* layer on top:
//!
//! - **Capacity-driven LRU spill.** An insert lands on the fastest tier
//!   that can hold the entry; when a tier is full its least-recently-used
//!   entries *spill* to the next tier down (instead of being dropped), and
//!   only the last tier evicts outright.
//! - **Write-once lower tiers.** Entries are content-addressed
//!   ([`ChunkId`] is the token hash) and immutable, so a slower copy can
//!   never go stale. A read served by a slow tier *copies* the entry up to
//!   the fast tier and keeps the slow copy as the entry's *retained copy*;
//!   when the fast tier later picks that entry as its LRU victim, the fast
//!   copy is *released* — dropped, with the entry resident at the retained
//!   copy again — and nothing is written ([`StoreStats::released`]). A
//!   working set that fits in RAM still converges there, but a hit/evict
//!   cycle costs the slow device one read and no writes, and leaves the
//!   disk log nothing to compact.
//! - **Quantize-on-demote.** A tier marked [`TierConfig::quantized`]
//!   stores entries in the int8 cold format ([`crate::quantize`], ~4×
//!   smaller); bytes are transcoded at the tier boundary — quantized when
//!   they spill in, dequantized when they promote out — and callers only
//!   ever see full-precision entries. A promoted entry's resident copy is
//!   transcoded from its retained copy, so releasing onto it loses
//!   nothing the caller could see.
//! - **Verified loads.** Every load path re-checks the entry's wire-format
//!   checksums ([`crate::serialize`]); a corrupt entry is evicted and
//!   reported as [`StoreError::Corrupt`] rather than ever handed out.
//! - **Persistence.** With a persistent last tier, [`KvStore::persist`]
//!   demotes every RAM-resident entry to it (releasing onto a retained
//!   copy there instead of rewriting it) and flushes, and a new store
//!   built over the same backend re-indexes the surviving records — KV
//!   state survives process restart. A promoted entry survives a restart
//!   even without `persist`: its disk record is never deleted.
//!
//! Lookup reports *which* tier served the hit so callers can charge the
//! matching device delay; [`KvStore::prefetch`] (see [`crate::prefetch`])
//! starts a layer-granular streaming read that the pipelined loader
//! overlaps with selective recompute.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use cb_model::KvCache;
use cb_storage::backend::{BackendError, MemBackend, StorageBackend};
use parking_lot::Mutex;

use crate::chunk::ChunkId;
use crate::quantize::{dequantize_entry, quantize_entry};
use crate::serialize::{
    decode, encode, parse_dims_any, sniff_format, verify_entry, DecodeError, EntryFormat,
};

/// Configuration of one storage tier.
#[derive(Clone, Debug)]
pub struct TierConfig {
    /// Human-readable label ("cpu-ram", "nvme-ssd", …).
    pub label: String,
    /// Capacity in bytes.
    pub capacity: u64,
    /// Store entries in the int8 cold format ([`crate::quantize`]): bytes
    /// are quantized as they land on this tier and dequantized as they
    /// leave it, cutting the tier's footprint ~4× at a bounded precision
    /// cost paid once per demote.
    pub quantized: bool,
}

impl TierConfig {
    /// A full-precision tier.
    pub fn new(label: &str, capacity: u64) -> Self {
        Self {
            label: label.to_string(),
            capacity,
            quantized: false,
        }
    }

    /// A quantized cold tier (int8-resident entries).
    pub fn quantized(label: &str, capacity: u64) -> Self {
        Self {
            quantized: true,
            ..Self::new(label, capacity)
        }
    }
}

/// Aggregate store counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped entirely (no slower tier could take them).
    pub evictions: u64,
    /// Successful inserts.
    pub inserts: u64,
    /// Entries demoted to a slower tier to make room.
    pub spills: u64,
    /// Entries copied up to the fast tier on a slow-tier hit (the slow
    /// copy is kept as the entry's retained copy).
    pub promotions: u64,
    /// Fast-tier copies dropped to make room while the entry's retained
    /// copy on a slower tier kept serving it — the evictions that wrote
    /// nothing.
    pub released: u64,
    /// Entries evicted because a load failed its checksum.
    pub corrupt_evictions: u64,
    /// Entries adopted from a shared persistent tier after another store
    /// handle (a sibling replica) wrote them (see
    /// [`cb_storage::backend::StorageBackend::discover`]).
    pub discovered: u64,
    /// Bytes read from non-RAM tiers (tier index > 0) to serve loads.
    pub loaded_bytes: u64,
    /// Bytes written downward by spills (releases write none).
    pub spilled_bytes: u64,
    /// Entries transcoded to the int8 cold format at a tier boundary.
    pub quantizations: u64,
    /// Entries transcoded back to full precision at a tier boundary.
    pub dequantizations: u64,
    /// Bytes the cold format saved versus storing f32 (summed over every
    /// quantization).
    pub quantize_saved_bytes: u64,
    /// Background compaction passes completed by the tiers' backends
    /// (merged from [`cb_storage::MaintenanceStats`] at snapshot time).
    pub compactions: u64,
    /// Dead bytes reclaimed by those compactions.
    pub compaction_reclaimed_bytes: u64,
}

#[derive(Debug)]
struct IndexEntry {
    tier: usize,
    size: u64,
    /// The entry's `(n_layers, rows, width)` when known — both wire
    /// formats share it, so the tiering policy can compute the entry's
    /// *exact* size in either format before moving it across a quantized
    /// boundary. `None` for entries recovered or discovered without
    /// reading their bytes; backfilled on the first read or move.
    shape: Option<(u32, u32, u32)>,
    last_used: u64,
    /// Active streaming reads; a pinned entry is never spilled, promoted,
    /// or chosen as an eviction victim (its backing bytes are mid-read).
    pins: u32,
    /// `(tier, size)` of the copy the entry was promoted from, kept on
    /// that slower tier while the faster copy serves. Only [`promote`]
    /// records one, so the resident copy was transcoded from it and both
    /// decode to the same values; dropping either copy loses nothing.
    retained: Option<(usize, u64)>,
}

#[derive(Debug)]
struct TierState {
    cfg: TierConfig,
    backend: Arc<dyn StorageBackend>,
    /// Bytes of every copy on the tier: resident entries and retained
    /// copies.
    used: u64,
}

#[derive(Debug)]
struct Inner {
    tiers: Vec<TierState>,
    index: HashMap<ChunkId, IndexEntry>,
    clock: u64,
    stats: StoreStats,
    peak_bytes: u64,
    /// Counters already pushed to the metrics registry (see
    /// [`KvStore::publish_metrics`]); the next publish pushes the delta.
    published: StoreStats,
}

/// Errors returned by store operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The entry is larger than every tier's total capacity.
    TooLarge {
        /// Size of the rejected entry in bytes.
        size: u64,
    },
    /// A load failed its integrity checks; the poisoned entry has been
    /// evicted (a later lookup misses and can repair by re-precompute).
    Corrupt(DecodeError),
    /// A storage backend failed (I/O error, flusher gone).
    Backend(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::TooLarge { size } => {
                write!(f, "entry of {size} bytes exceeds every tier capacity")
            }
            StoreError::Corrupt(e) => write!(f, "stored entry corrupt (evicted): {e}"),
            StoreError::Backend(e) => write!(f, "storage backend error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<BackendError> for StoreError {
    fn from(e: BackendError) -> Self {
        match e {
            BackendError::Corrupt => StoreError::Corrupt(DecodeError::Corrupted),
            BackendError::Io(m) => StoreError::Backend(m),
        }
    }
}

/// A thread-safe tiered LRU store of serialized KV caches. Cloning is
/// cheap (`Arc` inside); clones share the same tiers and counters.
#[derive(Clone, Debug)]
pub struct KvStore {
    inner: Arc<Mutex<Inner>>,
}

/// Outcome of the locked lookup phase of a read.
pub(crate) enum ReadLoc {
    Miss,
    Hit {
        tier: usize,
        backend: Arc<dyn StorageBackend>,
        persistent: bool,
    },
}

impl KvStore {
    /// Creates an all-RAM store with the given tiers, fastest first.
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is empty.
    pub fn new(tiers: Vec<TierConfig>) -> Self {
        Self::with_backends(
            tiers
                .into_iter()
                .map(|cfg| (cfg, Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>))
                .collect(),
        )
    }

    /// Creates a store over explicit backends, fastest first. Persistent
    /// backends are re-indexed: entries they already hold (from a previous
    /// process) become servable immediately, and tiers recovered over
    /// capacity are trimmed by LRU spill/eviction.
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is empty.
    pub fn with_backends(tiers: Vec<(TierConfig, Arc<dyn StorageBackend>)>) -> Self {
        assert!(!tiers.is_empty(), "store needs at least one tier");
        let mut inner = Inner {
            tiers: tiers
                .into_iter()
                .map(|(cfg, backend)| TierState {
                    cfg,
                    backend,
                    used: 0,
                })
                .collect(),
            index: HashMap::new(),
            clock: 0,
            stats: StoreStats::default(),
            peak_bytes: 0,
            published: StoreStats::default(),
        };
        // Recovery: re-index whatever the backends already hold.
        for t in 0..inner.tiers.len() {
            for (key, size) in inner.tiers[t].backend.entries() {
                let id = ChunkId(key);
                if inner.index.contains_key(&id) {
                    // Duplicate across tiers: keep the faster copy.
                    inner.tiers[t].backend.remove(key);
                    continue;
                }
                inner.clock += 1;
                let clock = inner.clock;
                inner.index.insert(
                    id,
                    IndexEntry {
                        tier: t,
                        size,
                        shape: None,
                        last_used: clock,
                        pins: 0,
                        retained: None,
                    },
                );
                inner.tiers[t].used += size;
            }
        }
        for t in 0..inner.tiers.len() {
            // Trim recovered tiers down to their configured capacity.
            let _ = make_room(&mut inner, t, 0);
        }
        let used: u64 = inner.tiers.iter().map(|t| t.used).sum();
        inner.peak_bytes = used;
        Self {
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    /// Convenience: a single-tier RAM store (the paper's default
    /// configuration).
    pub fn single(label: &str, capacity: u64) -> Self {
        Self::new(vec![TierConfig::new(label, capacity)])
    }

    /// Inserts (or refreshes) a cache entry. Returns the tier index it
    /// landed on.
    pub fn insert(&self, id: ChunkId, cache: &KvCache) -> Result<usize, StoreError> {
        let bytes = encode(cache);
        self.insert_bytes(id, bytes)
    }

    /// Inserts pre-serialized bytes (used by tests and migration).
    pub fn insert_bytes(&self, id: ChunkId, bytes: Bytes) -> Result<usize, StoreError> {
        let size = bytes.len() as u64;
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let now = inner.clock;
        // Refresh in place if present anywhere (entries are
        // content-addressed, so the bytes cannot differ).
        if let Some(e) = inner.index.get_mut(&id) {
            e.last_used = now;
            return Ok(e.tier);
        }
        // Place on the first tier whose capacity fits the entry's *exact*
        // size in that tier's resident format — a quantized tier stores
        // ~¼ of the f32 bytes, so it may admit an entry whose
        // full-precision size exceeds its capacity. If the transcode
        // falls back to passthrough (unparseable bytes) and the result
        // overflows the chosen tier, continue the search from the next
        // tier instead of rejecting an entry a larger tier could hold.
        let shape = entry_shape(&bytes);
        let mut start = 0;
        let (t, bytes) = loop {
            let found = inner
                .tiers
                .iter()
                .enumerate()
                .skip(start)
                .find_map(|(i, tier)| {
                    let need = match shape {
                        Some(shape) => format_len(tier.cfg.quantized, shape),
                        None => size as u128,
                    };
                    (tier.cfg.capacity as u128 >= need).then_some((i, tier.cfg.quantized))
                });
            let Some((t, quantized)) = found else {
                return Err(StoreError::TooLarge { size });
            };
            // Always transcode from the original bytes: carrying an
            // already-quantized candidate into a later f32 tier would
            // bake the precision loss in.
            let candidate = transcode_for_tier(&mut inner.stats, bytes.clone(), quantized);
            if candidate.len() as u64 <= inner.tiers[t].cfg.capacity {
                break (t, candidate);
            }
            start = t + 1;
        };
        let size = bytes.len() as u64;
        make_room(&mut inner, t, size)?;
        inner.tiers[t].backend.put(id.0, bytes)?;
        inner.index.insert(
            id,
            IndexEntry {
                tier: t,
                size,
                shape,
                last_used: now,
                pins: 0,
                retained: None,
            },
        );
        inner.tiers[t].used += size;
        inner.stats.inserts += 1;
        note_peak(&mut inner);
        Ok(t)
    }

    /// Locked lookup phase shared by the read paths: bumps recency and the
    /// hit/miss counters, optionally pinning the entry for a streaming
    /// read. Retries of the same logical read pass `count_stats: false` so
    /// a tier-migration race does not double-count the hit.
    pub(crate) fn read_begin(&self, id: ChunkId, pin_streams: bool, count_stats: bool) -> ReadLoc {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let now = inner.clock;
        let Some(e) = inner.index.get_mut(&id) else {
            if count_stats {
                inner.stats.misses += 1;
            }
            return ReadLoc::Miss;
        };
        e.last_used = now;
        let (tier, size) = (e.tier, e.size);
        let backend = Arc::clone(&inner.tiers[tier].backend);
        let persistent = backend.persistent();
        if pin_streams && persistent {
            inner.index.get_mut(&id).expect("just seen").pins += 1;
        }
        if count_stats {
            inner.stats.hits += 1;
        }
        if tier > 0 {
            inner.stats.loaded_bytes += size;
        }
        ReadLoc::Hit {
            tier,
            backend,
            persistent,
        }
    }

    /// Attempts to adopt `id` from a shared persistent tier: another store
    /// handle over the same segment dir (a sibling cluster replica) may
    /// have persisted the entry after this store was built. On success the
    /// entry is indexed on the tier that holds it (making room by LRU
    /// spill) and becomes servable exactly like a recovered segment.
    ///
    /// `reclassify_miss` converts the miss the caller just counted into a
    /// hit — the read paths pass `true`; presence probes pass `false`.
    pub(crate) fn discover_entry(&self, id: ChunkId, reclassify_miss: bool) -> bool {
        // The caller's just-counted miss becomes a hit whenever discovery
        // succeeds — including when a concurrent insert/discovery raced us
        // to the index (each caller counted its own miss, so each
        // successful discovery reclassifies exactly one).
        let reclassify = |inner: &mut Inner| {
            if reclassify_miss {
                inner.stats.misses = inner.stats.misses.saturating_sub(1);
                inner.stats.hits += 1;
            }
        };
        let candidates: Vec<(usize, Arc<dyn StorageBackend>)> = {
            let mut inner = self.inner.lock();
            if inner.index.contains_key(&id) {
                reclassify(&mut inner); // raced: someone else adopted it
                return true;
            }
            inner
                .tiers
                .iter()
                .enumerate()
                .filter(|(_, t)| t.backend.persistent())
                .map(|(i, t)| (i, Arc::clone(&t.backend)))
                .collect()
        };
        for (t, backend) in candidates {
            // Filesystem probe outside the store lock.
            let Some(size) = backend.discover(id.0) else {
                continue;
            };
            let mut inner = self.inner.lock();
            if inner.index.contains_key(&id) {
                reclassify(&mut inner);
                return true;
            }
            if size > inner.tiers[t].cfg.capacity || make_room(&mut inner, t, size).is_err() {
                return false;
            }
            inner.clock += 1;
            let now = inner.clock;
            inner.index.insert(
                id,
                IndexEntry {
                    tier: t,
                    size,
                    shape: None,
                    last_used: now,
                    pins: 0,
                    retained: None,
                },
            );
            inner.tiers[t].used += size;
            inner.stats.discovered += 1;
            reclassify(&mut inner);
            note_peak(&mut inner);
            return true;
        }
        false
    }

    /// Drops a stale index mapping: the backend at `tier` no longer holds
    /// the bytes (a shared sibling removed or quarantined the segment), so
    /// keeping the mapping would turn every later lookup into a futile
    /// retry loop. Pinned entries and entries that already migrated to
    /// another tier are left alone.
    fn forget_if_at(&self, id: ChunkId, tier: usize) {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.index.get(&id) {
            if e.tier == tier && e.pins == 0 {
                unindex(&mut inner, id);
            }
        }
    }

    /// Looks up an entry; on a hit returns the decoded cache and the tier
    /// index that served it, bumping its recency. Every section checksum
    /// is verified; a corrupt entry is evicted and reported.
    pub fn get(&self, id: ChunkId) -> Result<Option<(KvCache, usize)>, StoreError> {
        match self.get_bytes(id)? {
            Some((bytes, tier)) => {
                let cache = decode(bytes).map_err(|e| {
                    self.evict_corrupt(id);
                    StoreError::Corrupt(e)
                })?;
                Ok(Some((cache, tier)))
            }
            None => Ok(None),
        }
    }

    /// Raw-bytes lookup (the streaming pipeline decodes layer ranges
    /// itself). The returned bytes are checksum-verified; a slow-tier hit
    /// promotes the entry back to the fast tier.
    pub fn get_bytes(&self, id: ChunkId) -> Result<Option<(Bytes, usize)>, StoreError> {
        // Unpinned reads race with concurrent spill/promote: the entry can
        // migrate tiers between the locked lookup and the backend read, in
        // which case the captured backend no longer holds the key. Re-run
        // the lookup instead of mis-reporting a present entry as a miss.
        for attempt in 0..8 {
            let (tier, backend) = match self.read_begin(id, false, attempt == 0) {
                ReadLoc::Miss => {
                    // A shared persistent tier may hold the entry even
                    // though this handle's index has never seen it.
                    if attempt == 0 && self.discover_entry(id, true) {
                        continue;
                    }
                    return Ok(None);
                }
                ReadLoc::Hit { tier, backend, .. } => (tier, backend),
            };
            // Backend I/O (possibly throttled disk) happens outside the lock.
            let bytes = match backend.get(id.0) {
                Ok(Some(b)) => b,
                Ok(None) => {
                    // Migrated concurrently (retry re-locates it) — or a
                    // shared sibling removed the segment for good, in which
                    // case the stale mapping must go or every later lookup
                    // would spin through this same futile retry.
                    self.forget_if_at(id, tier);
                    continue;
                }
                Err(BackendError::Corrupt) => {
                    self.evict_corrupt(id);
                    return Err(StoreError::Corrupt(DecodeError::Corrupted));
                }
                Err(e) => return Err(e.into()),
            };
            if let Err(e) = verify_entry(&bytes) {
                self.evict_corrupt(id);
                return Err(StoreError::Corrupt(e));
            }
            // Callers always see full precision: a quantized cold-tier hit
            // is transcoded back before it leaves the store.
            let bytes = if sniff_format(&bytes) == Ok(EntryFormat::Quantized) {
                match dequantize_entry(&bytes) {
                    Ok(f) => {
                        self.inner.lock().stats.dequantizations += 1;
                        f
                    }
                    Err(e) => {
                        self.evict_corrupt(id);
                        return Err(StoreError::Corrupt(e));
                    }
                }
            } else {
                bytes
            };
            if tier > 0 {
                let mut inner = self.inner.lock();
                let _ = promote(&mut inner, id, &bytes);
            }
            return Ok(Some((bytes, tier)));
        }
        // Only reachable under pathological migration churn: treat as a
        // removal race.
        Ok(None)
    }

    /// Unpins after a streaming read and, when the stream completed with
    /// the full entry bytes, promotes the entry to the fast tier.
    pub(crate) fn stream_finished(&self, id: ChunkId, assembled: Option<Bytes>) {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.index.get_mut(&id) {
            e.pins = e.pins.saturating_sub(1);
        }
        if let Some(bytes) = assembled {
            let _ = promote(&mut inner, id, &bytes);
        }
    }

    /// Promotes a verified slow-tier read back to the fast tier.
    pub(crate) fn promote_bytes(&self, id: ChunkId, bytes: &Bytes) {
        let mut inner = self.inner.lock();
        let _ = promote(&mut inner, id, bytes);
    }

    /// Evicts an entry whose bytes failed verification.
    pub(crate) fn evict_corrupt(&self, id: ChunkId) {
        let mut inner = self.inner.lock();
        if let Some(e) = unindex(&mut inner, id) {
            inner.tiers[e.tier].backend.remove(id.0);
            inner.stats.corrupt_evictions += 1;
        }
    }

    /// Removes an entry from whichever tier holds it, reclaiming its
    /// bytes on *every* backend (its retained copy and stale persisted
    /// copies included). Returns `true` if an entry was present.
    pub fn remove(&self, id: ChunkId) -> bool {
        let mut inner = self.inner.lock();
        let present = unindex(&mut inner, id).is_some();
        let mut any = false;
        for tier in &inner.tiers {
            any |= tier.backend.remove(id.0);
        }
        present || any
    }

    /// Demotes every entry on a non-persistent tier to the last tier (when
    /// that tier is persistent) and flushes it, so the store's contents
    /// survive the process. An entry whose retained copy is already on the
    /// last tier is released onto it, writing nothing. Entries that cannot
    /// fit are left in RAM (and lost on exit); the last tier's own LRU may
    /// evict to make room.
    pub fn persist(&self) -> Result<(), StoreError> {
        let backend = {
            let mut inner = self.inner.lock();
            let last = inner.tiers.len() - 1;
            let backend = Arc::clone(&inner.tiers[last].backend);
            if !backend.persistent() {
                return Ok(());
            }
            let mut ids: Vec<(ChunkId, u64)> = inner
                .index
                .iter()
                .filter(|(_, e)| e.tier < last && e.pins == 0)
                .map(|(&id, e)| (id, e.last_used))
                .collect();
            // Oldest first, so if the persistent tier must evict, it
            // sacrifices the least-recently-used spills.
            ids.sort_by_key(|&(_, used)| used);
            for (id, _) in ids {
                demote_to(&mut inner, id, last, false)?;
            }
            backend
        };
        backend.flush().map_err(StoreError::from)
    }

    /// Copies one entry's bytes onto the last tier's backend when that
    /// tier is persistent, *without* changing the entry's residency — the
    /// fast-tier copy keeps serving, and the persistent copy becomes
    /// discoverable by sibling stores over a shared segment dir. The copy
    /// is left unindexed: in the last tier's format it may be a lossy
    /// int8 transcode, which must never become the entry's retained copy
    /// (eviction would silently release the f32 entry onto it). No-op
    /// (`Ok(false)`) when the last tier is not persistent or the entry is
    /// already on it. Cluster registration uses this so every registered
    /// chunk is servable by every replica.
    pub fn replicate_to_persistent(&self, id: ChunkId) -> Result<bool, StoreError> {
        let (src, dst) = {
            let inner = self.inner.lock();
            let last = inner.tiers.len() - 1;
            let Some(e) = inner.index.get(&id) else {
                return Ok(false);
            };
            if e.tier == last || !inner.tiers[last].backend.persistent() {
                return Ok(false);
            }
            (
                Arc::clone(&inner.tiers[e.tier].backend),
                Arc::clone(&inner.tiers[last].backend),
            )
        };
        // Source read and destination write outside the lock; the source
        // is a RAM tier in every shipped configuration.
        let Some(bytes) = src.get(id.0)? else {
            return Ok(false); // migrated/removed concurrently
        };
        let bytes = {
            let mut inner = self.inner.lock();
            let quantized = inner.tiers[inner.tiers.len() - 1].cfg.quantized;
            transcode_for_tier(&mut inner.stats, bytes, quantized)
        };
        dst.put(id.0, bytes)?;
        Ok(true)
    }

    /// Blocks until every backend's queued write-behind work is durable.
    pub fn flush(&self) -> Result<(), StoreError> {
        let backends: Vec<Arc<dyn StorageBackend>> = {
            let inner = self.inner.lock();
            inner.tiers.iter().map(|t| Arc::clone(&t.backend)).collect()
        };
        for b in backends {
            b.flush()?;
        }
        Ok(())
    }

    /// True if the id is cached on any tier (does not bump recency or the
    /// hit/miss counters). An id absent from the index is still probed on
    /// shared persistent tiers — a sibling replica may have persisted it —
    /// and adopted on success, so registration never re-precomputes an
    /// entry the shared tier already holds.
    pub fn contains(&self, id: ChunkId) -> bool {
        if self.inner.lock().index.contains_key(&id) {
            return true;
        }
        self.discover_entry(id, false)
    }

    /// The tier currently holding `id`, if cached (no recency bump).
    pub fn tier_of(&self, id: ChunkId) -> Option<usize> {
        self.inner.lock().index.get(&id).map(|e| e.tier)
    }

    /// Number of entries across all tiers.
    pub fn len(&self) -> usize {
        self.inner.lock().index.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of configured tiers.
    pub fn n_tiers(&self) -> usize {
        self.inner.lock().tiers.len()
    }

    /// A tier's label.
    pub fn tier_label(&self, tier: usize) -> String {
        self.inner.lock().tiers[tier].cfg.label.clone()
    }

    /// A tier's configured capacity in bytes.
    pub fn tier_capacity(&self, tier: usize) -> u64 {
        self.inner.lock().tiers[tier].cfg.capacity
    }

    /// Bytes used on a tier: its resident entries and the retained copies
    /// it keeps for entries promoted off it.
    pub fn tier_used(&self, tier: usize) -> u64 {
        self.inner.lock().tiers[tier].used
    }

    /// Bytes of retained copies across all tiers: the part of
    /// [`KvStore::used_bytes`] that duplicates an entry resident on a
    /// faster tier.
    pub fn retained_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner
            .index
            .values()
            .filter_map(|e| e.retained)
            .map(|(_, size)| size)
            .sum()
    }

    /// Entries resident on a tier.
    pub fn tier_len(&self, tier: usize) -> usize {
        self.inner
            .lock()
            .index
            .values()
            .filter(|e| e.tier == tier)
            .count()
    }

    /// Bytes used across all tiers.
    pub fn used_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.tiers.iter().map(|t| t.used).sum()
    }

    /// High-water mark of [`KvStore::used_bytes`] over the store's life.
    pub fn peak_bytes(&self) -> u64 {
        self.inner.lock().peak_bytes
    }

    /// Snapshot of the counters, folding in each backend's background
    /// maintenance work (segment-log compaction) so one snapshot tells the
    /// whole storage story.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        let mut stats = inner.stats;
        for t in &inner.tiers {
            if let Some(m) = t.backend.maintenance() {
                stats.compactions += m.compactions;
                stats.compaction_reclaimed_bytes += m.reclaimed_bytes;
            }
        }
        stats
    }

    /// Publishes this store's counters into the process-global metrics
    /// registry as `cb_store_*_total` series, pushing only the *delta*
    /// since the last publish — so repeated scrapes are idempotent and
    /// several stores in one process (cluster replicas) sum correctly
    /// into the shared series. Called by the control-plane worker on
    /// every metrics scrape; safe to call from anywhere.
    pub fn publish_metrics(&self) {
        let current = self.stats();
        let prev = {
            let mut inner = self.inner.lock();
            std::mem::replace(&mut inner.published, current)
        };
        let r = cb_obs::metrics::Registry::global();
        let d = |now: u64, then: u64| now.saturating_sub(then);
        for (name, now, then) in [
            ("cb_store_hits_total", current.hits, prev.hits),
            ("cb_store_misses_total", current.misses, prev.misses),
            (
                "cb_store_evictions_total",
                current.evictions,
                prev.evictions,
            ),
            ("cb_store_inserts_total", current.inserts, prev.inserts),
            ("cb_store_spills_total", current.spills, prev.spills),
            (
                "cb_store_promotions_total",
                current.promotions,
                prev.promotions,
            ),
            ("cb_store_released_total", current.released, prev.released),
            (
                "cb_store_corrupt_evictions_total",
                current.corrupt_evictions,
                prev.corrupt_evictions,
            ),
            (
                "cb_store_discovered_total",
                current.discovered,
                prev.discovered,
            ),
            (
                "cb_store_loaded_bytes_total",
                current.loaded_bytes,
                prev.loaded_bytes,
            ),
            (
                "cb_store_spilled_bytes_total",
                current.spilled_bytes,
                prev.spilled_bytes,
            ),
            (
                "cb_store_quantizations_total",
                current.quantizations,
                prev.quantizations,
            ),
            (
                "cb_store_dequantizations_total",
                current.dequantizations,
                prev.dequantizations,
            ),
            (
                "cb_store_quantize_saved_bytes_total",
                current.quantize_saved_bytes,
                prev.quantize_saved_bytes,
            ),
            (
                "cb_store_compactions_total",
                current.compactions,
                prev.compactions,
            ),
            (
                "cb_store_compaction_reclaimed_bytes_total",
                current.compaction_reclaimed_bytes,
                prev.compaction_reclaimed_bytes,
            ),
        ] {
            let delta = d(now, then);
            if delta > 0 {
                r.counter(name).add(delta);
            }
        }
    }

    /// Test hook: overwrite an entry's bytes in place (corruption
    /// injection).
    pub fn corrupt(&self, id: ChunkId, flip_byte: usize) -> bool {
        let inner = self.inner.lock();
        let Some(e) = inner.index.get(&id) else {
            return false;
        };
        let backend = Arc::clone(&inner.tiers[e.tier].backend);
        drop(inner);
        let Ok(Some(bytes)) = backend.get(id.0) else {
            return false;
        };
        let mut raw = bytes.to_vec();
        if raw.is_empty() {
            return false;
        }
        let idx = flip_byte % raw.len();
        raw[idx] ^= 0xFF;
        backend.put(id.0, Bytes::from(raw)).is_ok()
    }
}

/// The entry's serialized shape `(n_layers, rows, width)` when its dims
/// prefix parses *and* agrees with the byte length — the only case in
/// which the dims can be trusted for sizing decisions.
fn entry_shape(bytes: &[u8]) -> Option<(u32, u32, u32)> {
    let (format, n_layers, rows, width) = parse_dims_any(bytes).ok()?;
    (bytes.len() as u128 == format.entry_len_u128(n_layers, rows, width)).then_some((
        n_layers as u32,
        rows as u32,
        width as u32,
    ))
}

/// Exact byte size of an entry of `shape` in a tier's resident format
/// (u128: the shape may be untrusted u32 dims, whose product overflows).
fn format_len(quantized: bool, shape: (u32, u32, u32)) -> u128 {
    let (n_layers, rows, width) = shape;
    let format = if quantized {
        EntryFormat::Quantized
    } else {
        EntryFormat::F32
    };
    format.entry_len_u128(n_layers as usize, rows as usize, width as usize)
}

/// True when tier `next` can hold an entry of `size` bytes coming off
/// tier `t`. Exact for same-format moves and whenever the entry's shape
/// is known (the size in the destination's wire format is computed —
/// both directions across a quantized boundary). With an unknown shape a
/// conservative *over*-bound gates the move, and [`demote_to`]'s exact
/// post-transcode check has the final say.
fn tier_can_hold(
    inner: &Inner,
    t: usize,
    next: usize,
    size: u64,
    shape: Option<(u32, u32, u32)>,
) -> bool {
    let src_q = inner.tiers[t].cfg.quantized;
    let dst_q = inner.tiers[next].cfg.quantized;
    let need: u128 = if src_q == dst_q {
        size as u128
    } else if let Some(shape) = shape {
        format_len(dst_q, shape)
    } else if dst_q {
        // f32 → int8, shape unknown: an int8 layer block is at most 5/4
        // of its f32 block (width 1) and the headers are identical.
        size as u128 + size as u128 / 4
    } else {
        // int8 → f32, shape unknown: grows by strictly less than 4×.
        4 * size as u128
    };
    inner.tiers[next].cfg.capacity as u128 >= need
}

/// Records the current footprint in [`KvStore::peak_bytes`].
fn note_peak(inner: &mut Inner) {
    let used: u64 = inner.tiers.iter().map(|tier| tier.used).sum();
    inner.peak_bytes = inner.peak_bytes.max(used);
}

/// Releases this store's claim on `id`'s copy of `size` bytes on tier `t`
/// (`forget`: a shared tier keeps its segment for sibling handles).
fn drop_copy(inner: &mut Inner, id: ChunkId, t: usize, size: u64) {
    inner.tiers[t].backend.forget(id.0);
    inner.tiers[t].used -= size;
}

/// Drops `id` from the index and its bytes from the tiers' accounting.
/// The retained copy is released here; the resident copy's bytes are left
/// to the caller, which picks `remove` or `forget` for them.
fn unindex(inner: &mut Inner, id: ChunkId) -> Option<IndexEntry> {
    let e = inner.index.remove(&id)?;
    inner.tiers[e.tier].used -= e.size;
    if let Some((t, size)) = e.retained {
        drop_copy(inner, id, t, size);
    }
    Some(e)
}

/// Frees tier `t` until `need` more bytes fit, taking LRU victims among
/// the entries with a copy on it. A victim resident on `t` that retains a
/// slower copy is released onto that copy; a victim whose retained copy is
/// on `t` loses that copy and keeps serving from above. Both write
/// nothing. Any other victim spills to the next tier, or is evicted from
/// the last. Pinned entries (mid-stream) are never victims; if only
/// pinned entries remain the tier is allowed to stay transiently over
/// capacity.
fn make_room(inner: &mut Inner, t: usize, need: u64) -> Result<(), StoreError> {
    while inner.tiers[t].used + need > inner.tiers[t].cfg.capacity {
        let victim = inner
            .index
            .iter()
            .filter(|(_, e)| e.pins == 0 && (e.tier == t || e.retained.map(|r| r.0) == Some(t)))
            .min_by_key(|(_, e)| e.last_used)
            .map(|(&id, e)| (id, e.tier, e.size, e.shape, e.retained));
        let Some((victim, tier, size, shape, retained)) = victim else {
            break; // only pinned entries left
        };
        if let Some((rt, rsize)) = retained {
            let e = inner.index.get_mut(&victim).expect("victim is indexed");
            e.retained = None;
            if tier == t {
                e.tier = rt;
                e.size = rsize;
                drop_copy(inner, victim, t, size);
                inner.stats.released += 1;
            } else {
                drop_copy(inner, victim, rt, rsize);
            }
            continue;
        }
        let next = t + 1;
        if next < inner.tiers.len() && tier_can_hold(inner, t, next, size, shape) {
            demote_to(inner, victim, next, true)?;
        } else {
            // Capacity eviction releases this store's claim only: on a
            // shared backend `forget` leaves the segment for sibling
            // replicas (which may serve it, or re-discover it here later);
            // private backends free the bytes outright.
            inner.tiers[t].backend.forget(victim.0);
            unindex(inner, victim);
            inner.stats.evictions += 1;
        }
    }
    Ok(())
}

/// Moves an entry's bytes down to tier `to` (cascading room-making there).
/// An entry whose retained copy is on `to` is released onto it instead,
/// writing nothing; a retained copy anywhere else is dropped first, so an
/// entry never has a copy both above and below its resident one.
/// Runs under the store lock: the source read is a RAM map clone in every
/// shipped configuration (spills originate from RAM tiers; recovery trim
/// runs before the store is shared). A config stacking two throttled disk
/// tiers would pay that device read under the lock — split the read out
/// if such a hierarchy is ever added.
///
/// When the exact transcoded size exceeds the destination's capacity —
/// possible only when the admitting bound worked off an unknown shape, or
/// the transcode fell back to passthrough — the entry is never stored
/// over capacity: it is evicted (`evict_on_overflow`, the make_room path,
/// where leaving it in place would re-select it forever) or left where it
/// is (the persist path, whose contract keeps unfitting entries in RAM).
fn demote_to(
    inner: &mut Inner,
    id: ChunkId,
    to: usize,
    evict_on_overflow: bool,
) -> Result<(), StoreError> {
    let Some(e) = inner.index.get_mut(&id) else {
        return Ok(());
    };
    let (from, size) = (e.tier, e.size);
    if from >= to {
        return Ok(());
    }
    match e.retained.take() {
        Some((rt, rsize)) if rt == to => {
            e.tier = to;
            e.size = rsize;
            drop_copy(inner, id, from, size);
            inner.stats.released += 1;
            return Ok(());
        }
        Some((rt, rsize)) => drop_copy(inner, id, rt, rsize),
        None => {}
    }
    let bytes = match inner.tiers[from].backend.get(id.0) {
        Ok(Some(b)) => b,
        Ok(None) => {
            // Index/backend drifted (concurrent remove): drop the index.
            unindex(inner, id);
            return Ok(());
        }
        Err(BackendError::Corrupt) => {
            unindex(inner, id);
            inner.stats.corrupt_evictions += 1;
            return Ok(());
        }
        Err(e) => return Err(e.into()),
    };
    // Backfill the shape for entries recovered without their bytes, so
    // later moves across a quantized boundary are sized exactly.
    let shape = entry_shape(&bytes);
    if let Some(e) = inner.index.get_mut(&id) {
        if e.shape.is_none() {
            e.shape = shape;
        }
    }
    // Transcode to the destination's resident format (quantize into a
    // cold tier, dequantize out of one); the entry's accounted size
    // changes with it — the old size leaves `from`, the new enters `to`.
    let bytes = transcode_for_tier(&mut inner.stats, bytes, inner.tiers[to].cfg.quantized);
    let new_size = bytes.len() as u64;
    if new_size > inner.tiers[to].cfg.capacity {
        if evict_on_overflow {
            inner.tiers[from].backend.forget(id.0);
            unindex(inner, id);
            inner.stats.evictions += 1;
        }
        return Ok(());
    }
    make_room(inner, to, new_size)?;
    inner.tiers[to].backend.put(id.0, bytes)?;
    // Release the source copy: `forget` (not `remove`) so a shared source
    // tier keeps its segment for sibling handles.
    drop_copy(inner, id, from, size);
    inner.tiers[to].used += new_size;
    let e = inner.index.get_mut(&id).expect("still indexed");
    e.tier = to;
    e.size = new_size;
    inner.stats.spills += 1;
    inner.stats.spilled_bytes += new_size;
    Ok(())
}

/// Copies a slow-tier entry up to tier 0 after a verified read (the bytes
/// are already in hand, so promotion is one RAM write). The slow copy
/// stays where it is as the entry's retained copy: no delete, no
/// tombstone, and a later eviction of the RAM copy writes nothing.
/// Skipped for pinned entries and entries that can never fit.
fn promote(inner: &mut Inner, id: ChunkId, bytes: &Bytes) -> Result<(), StoreError> {
    let Some(e) = inner.index.get_mut(&id) else {
        return Ok(());
    };
    if e.shape.is_none() {
        // Free shape backfill: the bytes are in hand anyway.
        e.shape = entry_shape(bytes);
    }
    if e.tier == 0 || e.pins > 0 {
        return Ok(());
    }
    // The bytes in hand carry whatever format the serving tier held (a
    // cold-tier streaming read assembles quantized bytes); tier 0 stores
    // its own format, so transcode at the boundary like any other move.
    let bytes = transcode_for_tier(
        &mut inner.stats,
        bytes.clone(),
        inner.tiers[0].cfg.quantized,
    );
    let new_size = bytes.len() as u64;
    if new_size > inner.tiers[0].cfg.capacity {
        return Ok(());
    }
    make_room(inner, 0, new_size)?;
    // The room-making cascade can reach the entry's own tier and demote
    // (or even evict) the entry being promoted — its location and
    // accounted size must be re-read, not carried over the cascade.
    let Some(e) = inner.index.get(&id) else {
        return Ok(());
    };
    let (from, size) = (e.tier, e.size);
    if from == 0 {
        return Ok(());
    }
    debug_assert!(e.retained.is_none(), "only a tier-0 copy retains another");
    inner.tiers[0].backend.put(id.0, bytes)?;
    inner.tiers[0].used += new_size;
    let e = inner.index.get_mut(&id).expect("still indexed");
    e.retained = Some((from, size));
    e.tier = 0;
    e.size = new_size;
    inner.stats.promotions += 1;
    note_peak(inner);
    Ok(())
}

/// Transcodes entry bytes to a tier's resident format — int8 for a
/// quantized tier, f32 otherwise. Bytes already in the right format pass
/// through untouched; bytes that fail to parse also pass through (the
/// read-path verifier owns corruption reporting, and storing them as-is
/// preserves the evidence).
fn transcode_for_tier(stats: &mut StoreStats, bytes: Bytes, quantized: bool) -> Bytes {
    match sniff_format(&bytes) {
        Ok(EntryFormat::F32) if quantized => match quantize_entry(&bytes) {
            Ok(q) => {
                stats.quantizations += 1;
                stats.quantize_saved_bytes += (bytes.len() - q.len()) as u64;
                q
            }
            Err(_) => bytes,
        },
        Ok(EntryFormat::Quantized) if !quantized => match dequantize_entry(&bytes) {
            Ok(f) => {
                stats.dequantizations += 1;
                f
            }
            Err(_) => bytes,
        },
        _ => bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_model::LayerKv;
    use cb_storage::SegmentLogBackend;
    use cb_tensor::Matrix;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn toy_cache(rows: usize, fill: f32) -> KvCache {
        let mut c = KvCache::empty(1, 4);
        let k = Matrix::from_fn(rows, 4, |r, d| fill + (r * 4 + d) as f32);
        c.layers[0] = LayerKv::empty(4);
        c.layers[0].append(&k, &k);
        c.positions = (1..=rows).collect();
        c.tokens = vec![9; rows];
        c
    }

    fn entry_size(rows: usize) -> u64 {
        encode(&toy_cache(rows, 0.0)).len() as u64
    }

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cb-store-{}-{}-{}",
            std::process::id(),
            tag,
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn ram_disk(ram_cap: u64, disk_cap: u64, dir: &std::path::Path) -> KvStore {
        KvStore::with_backends(vec![
            (TierConfig::new("ram", ram_cap), Arc::new(MemBackend::new())),
            (
                TierConfig::new("disk", disk_cap),
                Arc::new(SegmentLogBackend::new(dir, None).unwrap()),
            ),
        ])
    }

    #[test]
    fn insert_then_get_roundtrips() {
        let s = KvStore::single("ram", 1 << 20);
        let c = toy_cache(3, 1.0);
        let tier = s.insert(ChunkId(1), &c).unwrap();
        assert_eq!(tier, 0);
        let (got, t) = s.get(ChunkId(1)).unwrap().unwrap();
        assert_eq!(t, 0);
        assert_eq!(got, c);
        assert_eq!(s.stats().hits, 1);
    }

    #[test]
    fn miss_is_counted() {
        let s = KvStore::single("ram", 1 << 20);
        assert!(s.get(ChunkId(42)).unwrap().is_none());
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let sz = entry_size(2);
        let s = KvStore::single("ram", 2 * sz);
        s.insert(ChunkId(1), &toy_cache(2, 1.0)).unwrap();
        s.insert(ChunkId(2), &toy_cache(2, 2.0)).unwrap();
        // Touch 1 so 2 becomes LRU.
        let _ = s.get(ChunkId(1));
        s.insert(ChunkId(3), &toy_cache(2, 3.0)).unwrap();
        assert!(s.contains(ChunkId(1)));
        assert!(!s.contains(ChunkId(2)), "LRU entry should be evicted");
        assert!(s.contains(ChunkId(3)));
        assert_eq!(s.stats().evictions, 1);
    }

    #[test]
    fn lru_spills_to_slower_tier_instead_of_dropping() {
        let dir = test_dir("spill");
        let sz = entry_size(2);
        let s = ram_disk(2 * sz, 10 * sz, &dir);
        s.insert(ChunkId(1), &toy_cache(2, 1.0)).unwrap();
        s.insert(ChunkId(2), &toy_cache(2, 2.0)).unwrap();
        let _ = s.get(ChunkId(1)); // 2 becomes LRU
        s.insert(ChunkId(3), &toy_cache(2, 3.0)).unwrap();
        assert_eq!(s.tier_of(ChunkId(2)), Some(1), "LRU spilled, not dropped");
        assert_eq!(s.tier_of(ChunkId(3)), Some(0));
        let st = s.stats();
        assert_eq!(st.spills, 1);
        assert_eq!(st.evictions, 0);
        assert_eq!(st.spilled_bytes, sz);
        assert!(s.tier_used(0) <= 2 * sz);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slow_tier_hit_promotes_back_to_ram() {
        let dir = test_dir("promote");
        let sz = entry_size(2);
        let s = ram_disk(2 * sz, 10 * sz, &dir);
        for i in 1..=3u64 {
            s.insert(ChunkId(i), &toy_cache(2, i as f32)).unwrap();
        }
        assert_eq!(s.tier_of(ChunkId(1)), Some(1), "oldest spilled to disk");
        let (_, tier) = s.get(ChunkId(1)).unwrap().unwrap();
        assert_eq!(tier, 1, "hit reported from the serving tier");
        assert_eq!(s.tier_of(ChunkId(1)), Some(0), "promoted after the hit");
        let st = s.stats();
        assert_eq!(st.promotions, 1);
        assert!(st.loaded_bytes >= sz);
        assert!(s.tier_used(0) <= 2 * sz, "promotion made room first");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promotion_survives_its_own_room_making_cascade() {
        // Single-entry tiers: promoting 1 out of the disk tier demotes 2
        // from RAM into that same disk tier, whose own room-making then
        // evicts the promoting entry mid-promotion. The accounting must
        // follow the entry's post-cascade location — subtracting the
        // stale pre-cascade size underflowed the tier counter.
        let dir = test_dir("promote-cascade");
        let sz = entry_size(2);
        let s = ram_disk(sz, sz, &dir);
        s.insert(ChunkId(1), &toy_cache(2, 1.0)).unwrap();
        s.insert(ChunkId(2), &toy_cache(2, 2.0)).unwrap();
        assert_eq!(s.tier_of(ChunkId(1)), Some(1), "oldest spilled to disk");
        // The bytes are in hand before the cascade, so the read itself
        // still succeeds even though the entry ends up evicted.
        let (got, tier) = s.get(ChunkId(1)).unwrap().unwrap();
        assert_eq!(tier, 1);
        assert_eq!(got, toy_cache(2, 1.0));
        assert!(s.tier_used(0) <= sz, "RAM within capacity");
        assert!(s.tier_used(1) <= sz, "disk counter must not underflow");
        assert_eq!(s.tier_of(ChunkId(2)), Some(1), "2 demoted by the cascade");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn q_entry_size(rows: usize) -> u64 {
        quantize_entry(&encode(&toy_cache(rows, 0.0)))
            .unwrap()
            .len() as u64
    }

    #[test]
    fn quantized_tier_demote_uses_exact_transcoded_size() {
        let sz = entry_size(2);
        let qsz = q_entry_size(2);
        // Cold capacity admits the old size/3 heuristic but not the real
        // int8 size: the demote must evict, never store over capacity.
        assert!(sz / 3 < qsz);
        let s = KvStore::new(vec![
            TierConfig::new("ram", sz),
            TierConfig::quantized("cold", qsz - 1),
        ]);
        s.insert(ChunkId(1), &toy_cache(2, 1.0)).unwrap();
        s.insert(ChunkId(2), &toy_cache(2, 2.0)).unwrap(); // forces 1 out
        assert!(!s.contains(ChunkId(1)), "must be evicted, not wedged");
        assert_eq!(s.stats().evictions, 1);
        assert_eq!(s.tier_used(1), 0);
        // With capacity for the exact size, the same demote succeeds.
        let s = KvStore::new(vec![
            TierConfig::new("ram", sz),
            TierConfig::quantized("cold", qsz),
        ]);
        s.insert(ChunkId(1), &toy_cache(2, 1.0)).unwrap();
        s.insert(ChunkId(2), &toy_cache(2, 2.0)).unwrap();
        assert_eq!(s.tier_of(ChunkId(1)), Some(1));
        assert_eq!(s.tier_used(1), qsz);
    }

    #[test]
    fn dequantizing_demote_uses_exact_f32_size() {
        let sz = entry_size(2);
        let qsz = q_entry_size(2);
        // The old policy gated this demote on the quantized resident size
        // and then stored the ~4× dequantized entry over capacity.
        let s = KvStore::new(vec![
            TierConfig::quantized("q-ram", qsz),
            TierConfig::new("f32-disk", sz - 1),
        ]);
        s.insert(ChunkId(1), &toy_cache(2, 1.0)).unwrap();
        assert_eq!(s.tier_used(0), qsz);
        s.insert(ChunkId(2), &toy_cache(2, 2.0)).unwrap();
        assert!(!s.contains(ChunkId(1)), "exact f32 size exceeds the tier");
        assert_eq!(s.tier_used(1), 0);
        assert_eq!(s.stats().evictions, 1);
    }

    #[test]
    fn insert_falls_past_a_quantized_tier_too_small_for_the_entry() {
        let sz = entry_size(2);
        let qsz = q_entry_size(2);
        // The old code picked the cold tier off the size/3 heuristic and
        // returned TooLarge when the exact int8 size overflowed it,
        // instead of trying the larger tier below.
        let s = KvStore::new(vec![
            TierConfig::quantized("tiny-cold", qsz - 1),
            TierConfig::new("big", 4 * sz),
        ]);
        let c = toy_cache(2, 1.0);
        assert_eq!(s.insert(ChunkId(1), &c).unwrap(), 1, "falls through");
        assert_eq!(s.get(ChunkId(1)).unwrap().unwrap().0, c);
        // Still TooLarge when no tier fits the exact size.
        let s = KvStore::new(vec![TierConfig::quantized("tiny", qsz - 1)]);
        assert!(matches!(
            s.insert(ChunkId(1), &c),
            Err(StoreError::TooLarge { .. })
        ));
    }

    #[test]
    fn oversized_entry_falls_through_to_bigger_tier() {
        let small = entry_size(2);
        let s = KvStore::new(vec![
            TierConfig::new("ram", small),
            TierConfig::new("ssd", 100 * small),
        ]);
        let tier = s.insert(ChunkId(7), &toy_cache(10, 0.0)).unwrap();
        assert_eq!(tier, 1, "large entry should land on the SSD tier");
    }

    #[test]
    fn entry_larger_than_everything_is_rejected() {
        let s = KvStore::single("ram", 16);
        let err = s.insert(ChunkId(1), &toy_cache(8, 0.0)).unwrap_err();
        assert!(matches!(err, StoreError::TooLarge { .. }));
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let s = KvStore::single("ram", 1 << 20);
        s.insert(ChunkId(1), &toy_cache(2, 1.0)).unwrap();
        s.insert(ChunkId(1), &toy_cache(2, 1.0)).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn corrupt_entry_is_reported_and_evicted() {
        // Satellite regression: a flipped byte must surface as
        // StoreError::Corrupt AND evict the entry, so the next lookup is a
        // clean miss that re-precompute can repair — never poisoned KV.
        let s = KvStore::single("ram", 1 << 20);
        let c = toy_cache(3, 1.0);
        s.insert(ChunkId(1), &c).unwrap();
        let n = encode(&c).len();
        for flip in [6usize, 40, n - 9] {
            // header, layer data, last layer byte
            let s = KvStore::single("ram", 1 << 20);
            s.insert(ChunkId(1), &c).unwrap();
            assert!(s.corrupt(ChunkId(1), flip));
            let err = s.get(ChunkId(1)).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "flip {flip}: {err}");
            assert!(!s.contains(ChunkId(1)), "flip {flip}: must be evicted");
            assert_eq!(s.stats().corrupt_evictions, 1);
            // Round-trip repair: reinsert serves cleanly again.
            s.insert(ChunkId(1), &c).unwrap();
            assert_eq!(s.get(ChunkId(1)).unwrap().unwrap().0, c);
        }
    }

    #[test]
    fn used_bytes_tracked() {
        let s = KvStore::single("ram", 1 << 20);
        assert_eq!(s.tier_used(0), 0);
        s.insert(ChunkId(1), &toy_cache(2, 1.0)).unwrap();
        assert_eq!(s.tier_used(0), entry_size(2));
    }

    #[test]
    fn remove_reclaims_capacity() {
        let s = KvStore::single("ram", 1 << 20);
        s.insert(ChunkId(1), &toy_cache(2, 1.0)).unwrap();
        assert!(s.tier_used(0) > 0);
        assert!(s.remove(ChunkId(1)));
        assert!(!s.contains(ChunkId(1)));
        assert_eq!(s.tier_used(0), 0);
        assert_eq!(s.len(), 0);
        assert!(!s.remove(ChunkId(1)), "second removal is a no-op");
        assert_eq!(
            s.peak_bytes(),
            entry_size(2),
            "peak survives removal as a high-water mark"
        );
    }

    #[test]
    fn persist_then_reopen_serves_without_reinsert() {
        let dir = test_dir("persist");
        let c1 = toy_cache(2, 1.0);
        let c2 = toy_cache(3, 2.0);
        {
            let s = ram_disk(1 << 20, 1 << 20, &dir);
            s.insert(ChunkId(1), &c1).unwrap();
            s.insert(ChunkId(2), &c2).unwrap();
            assert_eq!(s.tier_of(ChunkId(1)), Some(0), "fits in RAM while live");
            s.persist().unwrap();
            assert_eq!(s.tier_of(ChunkId(1)), Some(1), "persist demotes to disk");
        }
        let s = ram_disk(1 << 20, 1 << 20, &dir);
        assert_eq!(s.len(), 2, "recovered from the cache dir");
        assert_eq!(s.tier_of(ChunkId(2)), Some(1));
        let (got, tier) = s.get(ChunkId(2)).unwrap().unwrap();
        assert_eq!(got, c2);
        assert_eq!(tier, 1);
        assert_eq!(s.tier_of(ChunkId(2)), Some(0), "recovered hit promotes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sibling_stores_over_one_shared_dir_discover_entries() {
        let dir = test_dir("shared");
        let mk = || {
            KvStore::with_backends(vec![
                (
                    TierConfig::new("ram", 1 << 20),
                    Arc::new(MemBackend::new()) as Arc<dyn cb_storage::backend::StorageBackend>,
                ),
                (
                    TierConfig::new("disk", 1 << 20),
                    Arc::new(SegmentLogBackend::open_shared(&dir, None).unwrap()),
                ),
            ])
        };
        let a = mk();
        let b = mk(); // built before `a` persists anything
        let c = toy_cache(3, 1.0);
        a.insert(ChunkId(1), &c).unwrap();
        a.persist().unwrap();

        // `b` never saw the insert, but the shared tier holds the segment:
        // contains() adopts it, get() serves it, prefetch() streams it.
        assert!(b.contains(ChunkId(1)), "discovered via the shared tier");
        assert_eq!(b.tier_of(ChunkId(1)), Some(1));
        let (got, tier) = b.get(ChunkId(1)).unwrap().unwrap();
        assert_eq!((got, tier), (c.clone(), 1));
        assert_eq!(b.stats().discovered, 1);
        assert_eq!(b.stats().hits, 1);
        assert_eq!(b.stats().misses, 0);

        // A store built after the persist sees the segment at startup
        // recovery (no discovery needed) and can stream it immediately.
        let b2 = mk();
        let mut h = b2.prefetch(ChunkId(1)).unwrap().expect("recovered");
        assert_eq!(h.tier(), 1);
        assert_eq!(h.meta().unwrap().rows, 3);
        assert_eq!(b2.stats().discovered, 0, "recovery indexed it already");

        // The prefetch path discovers too: persist a *new* entry from `a`
        // and stream it from `b2`, whose index has never seen it.
        let c2 = toy_cache(4, 2.0);
        a.insert(ChunkId(2), &c2).unwrap();
        a.persist().unwrap();
        let mut h = b2.prefetch(ChunkId(2)).unwrap().expect("discovered");
        assert_eq!(h.tier(), 1);
        assert_eq!(h.meta().unwrap().rows, 4);
        assert_eq!(b2.stats().discovered, 1);

        // An id on no tier anywhere stays a clean miss.
        assert!(!b.contains(ChunkId(99)));
        assert!(b.get(ChunkId(99)).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replicate_to_persistent_copies_without_demoting() {
        let dir = test_dir("replicate");
        let s = ram_disk(1 << 20, 1 << 20, &dir);
        let c = toy_cache(3, 4.0);
        s.insert(ChunkId(5), &c).unwrap();
        assert_eq!(s.tier_of(ChunkId(5)), Some(0));
        assert!(s.replicate_to_persistent(ChunkId(5)).unwrap());
        s.flush().unwrap();
        // Residency unchanged: the RAM copy still serves as a tier-0 hit.
        assert_eq!(s.tier_of(ChunkId(5)), Some(0));
        let (_, tier) = s.get(ChunkId(5)).unwrap().unwrap();
        assert_eq!(tier, 0);
        // But a sibling store over the same dir can serve the copy.
        let sibling = ram_disk(1 << 20, 1 << 20, &dir);
        assert_eq!(sibling.get(ChunkId(5)).unwrap().unwrap().0, c);
        // Single-tier / already-persistent cases are clean no-ops.
        let ram_only = KvStore::single("ram", 1 << 20);
        ram_only.insert(ChunkId(1), &c).unwrap();
        assert!(!ram_only.replicate_to_persistent(ChunkId(1)).unwrap());
        assert!(!s.replicate_to_persistent(ChunkId(404)).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_tier_capacity_eviction_keeps_sibling_segments() {
        // Regression (review finding): LRU eviction at a *shared* last
        // tier must release only this handle's claim — unlinking the
        // segment would steal it from sibling replicas.
        let dir = test_dir("shared-evict");
        let sz = entry_size(2);
        let shared_store = |disk_cap: u64| {
            KvStore::with_backends(vec![(
                TierConfig::new("disk", disk_cap),
                Arc::new(SegmentLogBackend::open_shared(&dir, None).unwrap())
                    as Arc<dyn cb_storage::backend::StorageBackend>,
            )])
        };
        let a = shared_store(10 * sz);
        for i in 0..3u64 {
            a.insert(ChunkId(i), &toy_cache(2, i as f32)).unwrap();
        }
        a.flush().unwrap();
        // A capacity-starved sibling over the same dir: recovery trims its
        // *claims* to capacity, but every record must survive.
        let b = shared_store(sz);
        assert_eq!(b.len(), 1, "sibling claims trimmed to capacity");
        for i in 0..3u64 {
            assert_eq!(
                a.get(ChunkId(i)).unwrap().unwrap().0,
                toy_cache(2, i as f32),
                "entry {i} must survive the sibling's eviction"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// RAM for `ram_cap` bytes over an unthrottled segment log, with a
    /// handle on the log to count what it writes.
    fn ram_log(ram_cap: u64, dir: &std::path::Path) -> (KvStore, Arc<SegmentLogBackend>) {
        let log = Arc::new(SegmentLogBackend::new(dir, None).unwrap());
        let store = KvStore::with_backends(vec![
            (TierConfig::new("ram", ram_cap), Arc::new(MemBackend::new())),
            (TierConfig::new("disk", 1 << 20), log.clone()),
        ]);
        (store, log)
    }

    /// Bytes in the log's files once its queued appends are written: every
    /// put and every tombstone grows it.
    fn log_bytes(store: &KvStore, log: &SegmentLogBackend) -> u64 {
        store.flush().unwrap();
        log.log_stats().file_bytes
    }

    #[test]
    fn promote_evict_cycles_write_nothing() {
        let dir = test_dir("write-once");
        let sz = entry_size(2);
        let (s, log) = ram_log(sz, &dir);
        let (a, b) = (toy_cache(2, 1.0), toy_cache(2, 2.0));
        s.insert(ChunkId(1), &a).unwrap();
        s.insert(ChunkId(2), &b).unwrap(); // 1 spills: written once
        assert_eq!(s.get(ChunkId(1)).unwrap().unwrap(), (a.clone(), 1));
        // 2 spilled to make room for 1's copy: both are now written once.
        assert_eq!(s.stats().spills, 2);
        let before = (log_bytes(&s, &log), s.stats());
        assert!(before.0 > 0);
        for cycle in 0..6u64 {
            let (id, want) = if cycle % 2 == 0 { (2, &b) } else { (1, &a) };
            let (got, tier) = s.get(ChunkId(id)).unwrap().unwrap();
            assert_eq!((&got, tier), (want, 1), "cycle {cycle}: bit-exact disk hit");
            assert_eq!(s.tier_of(ChunkId(id)), Some(0), "cycle {cycle}: promoted");
            assert_eq!(
                s.tier_of(ChunkId(3 - id)),
                Some(1),
                "cycle {cycle}: released"
            );
        }
        let after = (log_bytes(&s, &log), s.stats());
        assert_eq!(after.0, before.0, "no log append and no tombstone");
        assert_eq!(after.1.spills, before.1.spills);
        assert_eq!(after.1.spilled_bytes, before.1.spilled_bytes);
        assert_eq!(after.1.promotions, before.1.promotions + 6);
        assert_eq!(after.1.released, before.1.released + 6);
        assert_eq!(after.1.compactions, 0);
        // RAM holds one entry; the log holds both, one as a retained copy.
        assert_eq!((s.tier_used(0), s.tier_used(1)), (sz, 2 * sz));
        assert_eq!(s.retained_bytes(), sz);
        assert_eq!(s.used_bytes() - s.retained_bytes(), 2 * sz);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_int8_replica_is_never_a_retained_copy() {
        // RAM → f32 disk → persistent int8 cold tier. The cold tier holds
        // an int8 replica of the entry, but the f32 entry evicted from RAM
        // must spill as f32, not be released onto the lossy replica.
        let dir = test_dir("replica");
        let sz = entry_size(2);
        let s = KvStore::with_backends(vec![
            (TierConfig::new("ram", sz), Arc::new(MemBackend::new())),
            (
                TierConfig::new("disk", 1 << 20),
                Arc::new(MemBackend::new()),
            ),
            (
                TierConfig::quantized("cold", 1 << 20),
                Arc::new(SegmentLogBackend::new(&dir, None).unwrap()),
            ),
        ]);
        let a = toy_cache(2, 1.5);
        s.insert(ChunkId(1), &a).unwrap();
        assert!(s.replicate_to_persistent(ChunkId(1)).unwrap());
        assert_eq!(s.retained_bytes(), 0, "the replica is unindexed");
        s.insert(ChunkId(2), &toy_cache(2, 2.0)).unwrap();
        let st = s.stats();
        assert_eq!((st.spills, st.released), (1, 0));
        assert_eq!(st.spilled_bytes, sz, "spilled at its f32 size");
        assert_eq!(s.get(ChunkId(1)).unwrap().unwrap(), (a, 1), "bit-exact f32");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_drops_every_copy() {
        let dir = test_dir("remove-copies");
        let sz = entry_size(2);
        let (s, _log) = ram_log(sz, &dir);
        s.insert(ChunkId(1), &toy_cache(2, 1.0)).unwrap();
        s.insert(ChunkId(2), &toy_cache(2, 2.0)).unwrap();
        s.get(ChunkId(1)).unwrap().unwrap(); // 1: RAM copy + retained disk copy
        assert_eq!(s.retained_bytes(), sz);
        assert!(s.remove(ChunkId(1)));
        assert!(s.remove(ChunkId(2)));
        assert_eq!((s.tier_used(0), s.tier_used(1)), (0, 0));
        assert_eq!((s.used_bytes(), s.retained_bytes()), (0, 0));
        s.flush().unwrap();
        drop(s);
        let (reopened, _log) = ram_log(sz, &dir);
        assert!(reopened.is_empty(), "no copy survives on disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_onto_a_retained_copy_writes_nothing() {
        let dir = test_dir("persist-retained");
        let c = toy_cache(3, 4.0);
        {
            let (s, log) = ram_log(1 << 20, &dir);
            s.insert(ChunkId(1), &c).unwrap();
            s.persist().unwrap();
            assert_eq!(s.get(ChunkId(1)).unwrap().unwrap(), (c.clone(), 1));
            assert_eq!(s.tier_of(ChunkId(1)), Some(0), "promoted by copy");
            let before = (log_bytes(&s, &log), s.stats());
            s.persist().unwrap();
            let after = (log_bytes(&s, &log), s.stats());
            assert_eq!(after.0, before.0, "persist wrote nothing");
            assert_eq!(after.1.spills, before.1.spills);
            assert_eq!(after.1.released, before.1.released + 1);
            assert_eq!(s.tier_of(ChunkId(1)), Some(1));
            assert_eq!(s.retained_bytes(), 0);
        }
        let (s, _log) = ram_log(1 << 20, &dir);
        assert_eq!(
            s.get(ChunkId(1)).unwrap().unwrap(),
            (c, 1),
            "rebuilt store serves it"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_trims_to_capacity() {
        let dir = test_dir("trim");
        let sz = entry_size(2);
        {
            let s = ram_disk(1 << 20, 10 * sz, &dir);
            for i in 0..5u64 {
                s.insert(ChunkId(i), &toy_cache(2, i as f32)).unwrap();
            }
            s.persist().unwrap();
        }
        // Reopen with a disk tier that only fits two entries.
        let s = ram_disk(1 << 20, 2 * sz, &dir);
        assert_eq!(s.len(), 2, "recovered index trimmed to capacity");
        assert!(s.tier_used(1) <= 2 * sz);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
