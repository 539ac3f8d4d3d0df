//! Layer-granular prefetch: the async loader that lets the pipelined
//! blend hide disk latency behind selective recompute.
//!
//! [`KvStore::prefetch`] starts a read *without* waiting for the bytes:
//!
//! - A RAM-tier hit wraps the in-memory bytes in an
//!   [`EntryReader`](crate::serialize::EntryReader) — layers decode on
//!   demand, nothing to overlap.
//! - A persistent-tier hit spawns a reader thread that streams the entry
//!   off the backend one layer block at a time through a bounded channel
//!   (capacity 2). The device read of layer `i+1` proceeds while the
//!   consumer (the fusor's loader) is still decoding/recomputing layer
//!   `i` — the §5.2 compute/load pipeline, on real threads.
//!
//! Every block is checksum-verified before its bytes are handed out, and a
//! completed stream *promotes* the entry to the RAM tier (the reader
//! necessarily assembled the full bytes, so promotion costs no extra I/O).
//! The entry is pinned for the stream's duration so LRU spill/eviction
//! cannot delete the segment mid-read.

use bytes::{Bytes, BytesMut};
use cb_model::LayerKv;
use cb_storage::backend::ReadStream;
use crossbeam::channel::{bounded, Receiver};

use crate::chunk::ChunkId;
use crate::serialize::{
    header_len, parse_dims_any, parse_header, DecodeError, EntryFormat, EntryMeta,
};
use crate::store::{KvStore, ReadLoc, StoreError};

use bytes::BufMut;

enum State {
    /// In-memory entry: random-access layer decode.
    Ram(crate::serialize::EntryReader),
    /// Streaming read off a persistent tier. The record streams in its
    /// *stored* format: a quantized cold-tier entry arrives as int8
    /// blocks that dequantize per layer on decode — the whole entry is
    /// never materialized in f32 just to start streaming.
    Stream {
        meta_rx: Receiver<Result<(EntryMeta, EntryFormat), StoreError>>,
        block_rx: Receiver<Result<Bytes, StoreError>>,
        meta: Option<(EntryMeta, EntryFormat)>,
        next: usize,
    },
}

/// A handle to an in-flight entry read (see module docs). Obtain one per
/// chunk *before* blending starts, then consume layers in order.
pub struct PrefetchHandle {
    tier: usize,
    origin: Option<(KvStore, ChunkId)>,
    state: State,
}

impl std::fmt::Debug for PrefetchHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.state {
            State::Ram(_) => "ram",
            State::Stream { .. } => "stream",
        };
        f.debug_struct("PrefetchHandle")
            .field("tier", &self.tier)
            .field("kind", &kind)
            .finish()
    }
}

impl PrefetchHandle {
    /// Wraps already-loaded entry bytes (no store, no streaming) — used by
    /// the pipeline for caller-supplied parts.
    pub fn from_bytes(bytes: Bytes, tier: usize) -> Result<Self, DecodeError> {
        Ok(Self {
            tier,
            origin: None,
            state: State::Ram(crate::serialize::EntryReader::new(bytes)?),
        })
    }

    /// Index of the store tier serving this read (0 = fastest).
    pub fn tier(&self) -> usize {
        self.tier
    }

    /// Blocks until the entry's header is available and returns it.
    pub fn meta(&mut self) -> Result<&EntryMeta, StoreError> {
        match &mut self.state {
            State::Ram(reader) => Ok(reader.meta()),
            State::Stream { meta_rx, meta, .. } => {
                if meta.is_none() {
                    let got = meta_rx
                        .recv()
                        .map_err(|_| StoreError::Backend("prefetch reader died".into()))??;
                    *meta = Some(got);
                }
                Ok(&meta.as_ref().expect("just filled").0)
            }
        }
    }

    /// Decodes layer `l` into `out`, blocking until its bytes are
    /// available. Streamed handles must consume layers in order
    /// (`0, 1, 2, …`) — exactly how the pipelined loader walks them.
    pub fn layer_into(&mut self, l: usize, out: &mut LayerKv) -> Result<(), StoreError> {
        match &mut self.state {
            State::Ram(reader) => reader.layer_into(l, out).map_err(|e| {
                if let Some((store, id)) = &self.origin {
                    store.evict_corrupt(*id);
                }
                StoreError::Corrupt(e)
            }),
            State::Stream {
                block_rx,
                meta,
                next,
                ..
            } => {
                assert_eq!(l, *next, "streamed layers must be consumed in order");
                let (m, format) = meta.as_ref().expect("call meta() before layer_into()");
                let block = block_rx
                    .recv()
                    .map_err(|_| StoreError::Backend("prefetch reader died".into()))??;
                *next += 1;
                format
                    .decode_layer_block(&block, m.rows, m.width, out)
                    .map_err(|e| {
                        if let Some((store, id)) = &self.origin {
                            store.evict_corrupt(*id);
                        }
                        StoreError::Corrupt(e)
                    })
            }
        }
    }
}

/// Reads exactly `len` bytes from a backend stream (short reads mean the
/// segment is shorter than its header declared — torn).
fn read_exactly(stream: &mut (dyn ReadStream + Send), len: usize) -> Result<Bytes, StoreError> {
    let first = stream.read_next(len).map_err(StoreError::from)?;
    if first.len() == len {
        return Ok(first);
    }
    let mut buf = BytesMut::with_capacity(len);
    buf.put_slice(&first);
    while buf.len() < len {
        let chunk = stream
            .read_next(len - buf.len())
            .map_err(StoreError::from)?;
        if chunk.is_empty() {
            return Err(StoreError::Corrupt(DecodeError::Truncated));
        }
        buf.put_slice(&chunk);
    }
    Ok(buf.freeze())
}

impl KvStore {
    /// Begins an asynchronous entry read (see module docs). Returns
    /// `Ok(None)` on a store miss. The hit/miss/recency accounting matches
    /// [`KvStore::get_bytes`].
    pub fn prefetch(&self, id: ChunkId) -> Result<Option<PrefetchHandle>, StoreError> {
        // Like get_bytes, an unpinned RAM-tier lookup races concurrent
        // spill/promote; retry the locked lookup when the captured backend
        // no longer holds the key. (The persistent branch pins, so it
        // cannot lose the race and never loops.)
        let mut located = None;
        for attempt in 0..8 {
            match self.read_begin(id, true, attempt == 0) {
                ReadLoc::Miss => {
                    // A shared persistent tier may hold the entry even if
                    // this handle has not indexed it (sibling replica
                    // persisted it after this store was built).
                    if attempt == 0 && self.discover_entry(id, true) {
                        continue;
                    }
                    return Ok(None);
                }
                ReadLoc::Hit {
                    tier,
                    backend,
                    persistent,
                } => {
                    if persistent {
                        located = Some((tier, backend));
                        break;
                    }
                    // RAM-resident: the bytes are already in memory;
                    // verification happens per layer at decode time.
                    let bytes = match backend.get(id.0) {
                        Ok(Some(b)) => b,
                        Ok(None) => continue, // migrated or removed
                        Err(e) => return Err(e.into()),
                    };
                    // Multi-RAM-tier configurations still promote on a
                    // slow hit (Bytes clones are refcount bumps).
                    let promote_copy = (tier > 0).then(|| bytes.clone());
                    let reader = crate::serialize::EntryReader::new(bytes).map_err(|e| {
                        self.evict_corrupt(id);
                        StoreError::Corrupt(e)
                    })?;
                    if let Some(b) = promote_copy {
                        self.promote_bytes(id, &b);
                    }
                    return Ok(Some(PrefetchHandle {
                        tier,
                        origin: Some((self.clone(), id)),
                        state: State::Ram(reader),
                    }));
                }
            }
        }
        let Some((tier, backend)) = located else {
            return Ok(None); // pathological migration churn: removal race
        };

        // Persistent tier: stream layer blocks off the device on a reader
        // thread. The entry was pinned by read_begin.
        let (meta_tx, meta_rx) = bounded::<Result<(EntryMeta, EntryFormat), StoreError>>(2);
        let (block_tx, block_rx) = bounded::<Result<Bytes, StoreError>>(2);
        let store = self.clone();
        std::thread::Builder::new()
            .name("cb-prefetch".to_string())
            .spawn(move || {
                let mut assembled = BytesMut::new();
                let mut complete = false;
                let run = (|| -> Result<(), StoreError> {
                    let mut stream = backend
                        .open_read(id.0)
                        .map_err(StoreError::from)?
                        .ok_or_else(|| StoreError::Backend("entry vanished before read".into()))?;
                    let stream = &mut *stream;
                    let payload_len = stream.payload_len();
                    let dims = read_exactly(stream, crate::serialize::DIMS_LEN)?;
                    // The dims are not checksum-verified yet; bound every
                    // allocation they imply against the backend-reported
                    // payload length before trusting them (a corrupt
                    // `rows` must surface as Corrupt, not as a huge
                    // allocation).
                    let (format, n_layers, rows, width) =
                        parse_dims_any(&dims).map_err(StoreError::Corrupt)?;
                    if format.entry_len_u128(n_layers, rows, width) != payload_len as u128 {
                        return Err(StoreError::Corrupt(DecodeError::Truncated));
                    }
                    let mut header = BytesMut::with_capacity(header_len(rows));
                    header.put_slice(&dims);
                    header.put_slice(&read_exactly(stream, header_len(rows) - dims.len())?);
                    let header = header.freeze();
                    let meta = parse_header(&header).map_err(StoreError::Corrupt)?;
                    assembled.put_slice(&header);
                    if meta_tx.send(Ok((meta.clone(), format))).is_err() {
                        return Ok(()); // handle dropped before the header
                    }
                    let block_len = format.layer_block_len(meta.rows, meta.width);
                    for _ in 0..meta.n_layers {
                        let block = read_exactly(stream, block_len)?;
                        assembled.put_slice(&block);
                        if block_tx.send(Ok(block)).is_err() {
                            return Ok(()); // handle dropped mid-stream
                        }
                    }
                    complete = true;
                    Ok(())
                })();
                match run {
                    Ok(()) => {
                        let promoted = complete.then(|| assembled.freeze());
                        store.stream_finished(id, promoted);
                    }
                    Err(e) => {
                        if matches!(e, StoreError::Corrupt(_)) {
                            store.evict_corrupt(id);
                        }
                        let _ = meta_tx.send(Err(e.clone()));
                        let _ = block_tx.send(Err(e));
                        store.stream_finished(id, None);
                    }
                }
            })
            .map_err(|e| {
                // The reader never ran: release the pin read_begin took.
                self.stream_finished(id, None);
                StoreError::Backend(e.to_string())
            })?;
        Ok(Some(PrefetchHandle {
            tier,
            origin: Some((self.clone(), id)),
            state: State::Stream {
                meta_rx,
                block_rx,
                meta: None,
                next: 0,
            },
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::encode;
    use crate::store::TierConfig;
    use cb_model::KvCache;
    use cb_storage::backend::MemBackend;
    use cb_storage::{SegmentLogBackend, Throttle};
    use cb_tensor::Matrix;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn toy_cache(rows: usize, layers: usize, fill: f32) -> KvCache {
        let mut c = KvCache::empty(layers, 4);
        for l in 0..layers {
            let k = Matrix::from_fn(rows, 4, |r, d| fill + (l * 1000 + r * 4 + d) as f32);
            let v = Matrix::from_fn(rows, 4, |r, d| -(fill + (l * 1000 + r * 4 + d) as f32));
            c.layers[l].append(&k, &v);
        }
        c.positions = (1..=rows).collect();
        c.tokens = vec![7; rows];
        c
    }

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cb-prefetch-{}-{}-{}",
            std::process::id(),
            tag,
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn ram_disk(ram_cap: u64, dir: &std::path::Path, throttle: Option<Throttle>) -> KvStore {
        KvStore::with_backends(vec![
            (TierConfig::new("ram", ram_cap), Arc::new(MemBackend::new())),
            (
                TierConfig::new("disk", 1 << 24),
                Arc::new(SegmentLogBackend::new(dir, throttle).unwrap()),
            ),
        ])
    }

    #[test]
    fn ram_prefetch_decodes_all_layers() {
        let s = KvStore::single("ram", 1 << 20);
        let c = toy_cache(3, 2, 0.5);
        s.insert(ChunkId(1), &c).unwrap();
        let mut h = s.prefetch(ChunkId(1)).unwrap().unwrap();
        assert_eq!(h.tier(), 0);
        assert_eq!(h.meta().unwrap().rows, 3);
        for l in 0..2 {
            let mut out = LayerKv::empty(4);
            h.layer_into(l, &mut out).unwrap();
            assert_eq!(out, c.layers[l]);
        }
    }

    #[test]
    fn disk_prefetch_streams_layers_in_order_and_promotes() {
        let dir = test_dir("stream");
        // RAM too small for the entry: it lands on disk at insert.
        let c = toy_cache(4, 3, 1.0);
        let sz = encode(&c).len() as u64;
        let s = ram_disk(sz - 1, &dir, None);
        s.insert(ChunkId(9), &c).unwrap();
        assert_eq!(s.tier_of(ChunkId(9)), Some(1));
        let mut h = s.prefetch(ChunkId(9)).unwrap().unwrap();
        assert_eq!(h.tier(), 1);
        let meta = h.meta().unwrap().clone();
        assert_eq!(meta.n_layers, 3);
        assert_eq!(meta.tokens, vec![7; 4]);
        for l in 0..3 {
            let mut out = LayerKv::empty(4);
            h.layer_into(l, &mut out).unwrap();
            assert_eq!(out, c.layers[l], "layer {l}");
        }
        // The completed stream promotes (RAM can't fit here, so the entry
        // stays on disk — promotion must not evict it by accident).
        s.flush().unwrap();
        assert!(s.contains(ChunkId(9)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_prefetch_promotes_into_roomy_ram() {
        let dir = test_dir("promote");
        let c = toy_cache(4, 2, 2.0);
        let s = ram_disk(1 << 20, &dir, None);
        s.insert(ChunkId(3), &c).unwrap();
        s.persist().unwrap(); // demote to disk
        assert_eq!(s.tier_of(ChunkId(3)), Some(1));
        let mut h = s.prefetch(ChunkId(3)).unwrap().unwrap();
        h.meta().unwrap();
        let mut out = LayerKv::empty(4);
        for l in 0..2 {
            h.layer_into(l, &mut out).unwrap();
        }
        // Wait for the reader thread to finish promotion.
        for _ in 0..200 {
            if s.tier_of(ChunkId(3)) == Some(0) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(s.tier_of(ChunkId(3)), Some(0), "completed stream promotes");
        assert_eq!(s.stats().promotions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_layer_is_detected_and_evicted() {
        let dir = test_dir("corrupt");
        let c = toy_cache(4, 3, 3.0);
        let sz = encode(&c).len() as u64;
        let s = ram_disk(sz - 1, &dir, None);
        s.insert(ChunkId(5), &c).unwrap();
        s.flush().unwrap();
        // Flip a byte inside layer 1's block of the stored entry.
        assert!(s.corrupt(
            ChunkId(5),
            crate::serialize::header_len(4) + sz as usize / 2
        ));
        let mut h = s.prefetch(ChunkId(5)).unwrap().unwrap();
        h.meta().unwrap();
        let mut out = LayerKv::empty(4);
        let mut saw_err = None;
        for l in 0..3 {
            if let Err(e) = h.layer_into(l, &mut out) {
                saw_err = Some(e);
                break;
            }
        }
        assert!(
            matches!(saw_err, Some(StoreError::Corrupt(_))),
            "mid-stream corruption must surface: {saw_err:?}"
        );
        assert!(!s.contains(ChunkId(5)), "corrupt entry evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_dims_surface_as_corrupt_not_huge_allocation() {
        // Regression: the reader thread sizes buffers from the on-disk
        // `rows`/`n_layers` fields before their checksum is verified. A
        // flipped dims byte must be rejected against the segment's payload
        // length — never turned into a multi-gigabyte allocation.
        let dir = test_dir("dims");
        let c = toy_cache(4, 2, 5.0);
        let sz = encode(&c).len() as u64;
        let s = ram_disk(sz - 1, &dir, None);
        s.insert(ChunkId(11), &c).unwrap();
        s.flush().unwrap();
        // Flip the high byte of `rows` (dims bytes 8..12): header framing
        // still parses, declared entry length explodes.
        assert!(s.corrupt(ChunkId(11), 11));
        let mut h = s.prefetch(ChunkId(11)).unwrap().unwrap();
        let err = h.meta().unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt(_)),
            "corrupt dims must be reported, got {err:?}"
        );
        assert!(!s.contains(ChunkId(11)), "poisoned entry evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_a_handle_mid_stream_is_clean() {
        let dir = test_dir("drop");
        let c = toy_cache(6, 4, 4.0);
        let sz = encode(&c).len() as u64;
        let s = ram_disk(sz - 1, &dir, Some(Throttle::bandwidth(50.0e6)));
        s.insert(ChunkId(8), &c).unwrap();
        {
            let mut h = s.prefetch(ChunkId(8)).unwrap().unwrap();
            h.meta().unwrap();
            // Consume one layer, then abandon the stream.
            let mut out = LayerKv::empty(4);
            h.layer_into(0, &mut out).unwrap();
        }
        // The reader thread must unpin; a later spill/evict pass works.
        for _ in 0..200 {
            let inner_ok = s.get(ChunkId(8)).is_ok();
            if inner_ok {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(s.contains(ChunkId(8)));
        assert!(s.remove(ChunkId(8)), "unpinned entry can be removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefetch_miss_is_counted() {
        let s = KvStore::single("ram", 1 << 20);
        assert!(s.prefetch(ChunkId(404)).unwrap().is_none());
        assert_eq!(s.stats().misses, 1);
    }
}
