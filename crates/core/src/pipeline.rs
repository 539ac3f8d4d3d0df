//! Pipelined KV loading overlapped with selective recompute (§5/§6).
//!
//! This is the one path by which context layers reach the fusor's layer
//! loop. Every blend enters here: the engine with store handles,
//! [`blend_prefetched`] with caller handles, and
//! [`Fusor::blend`](crate::fusor::Fusor::blend) with in-RAM chunk caches
//! it wraps in decoded handles ([`PrefetchHandle::from_cache`]).
//!
//! A loader thread streams one fused context layer at a time — the BOS
//! sink's layer ([`Model::bos_cache`]), then each chunk's serialized entry
//! decoded (`cb-kv::serialize::EntryReader`), re-rotated to its place
//! (Appendix A) and appended — through a bounded channel. Layer 0 is the
//! exception: the fusor recomputes every context row there, so the loader
//! sends it empty and fetches nothing for it (a streamed handle still
//! verifies the block it reads past). The fusor
//! consumes layers in order; its per-layer `synchronize()` is simply the
//! channel `recv`. Because HKVD selection for layer `i` needs only layer
//! `i`'s loaded KV, loading layer `i+1` proceeds while layer `i` is
//! recomputed, exactly the overlap that lets CacheBlend keep KV on slow
//! devices without TTFT cost.
//!
//! An optional per-layer throttle emulates a storage device's read time for
//! tests/benches that demonstrate the overlap.
//!
//! The loader builds each fused layer in a buffer drawn from a
//! `LayerPool`, the bounded free list an engine keeps so that serving a
//! request does not allocate (and fault in) a fresh fused cache. Each
//! layer is reserved for the context, the suffix and the decoded rows, so
//! neither the fusor's suffix append nor the decode reallocates it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cb_kv::prefetch::PrefetchHandle;
use cb_kv::store::StoreError;
use cb_model::{LayerKv, Model};
use cb_obs::metrics::{Counter, Gauge, Registry};
use cb_tokenizer::TokenId;
use crossbeam::channel::bounded;
use parking_lot::Mutex;

use crate::fusor::{BlendConfig, BlendResult, Fusor};
use crate::rope_align;

/// A bounded free list of fused-cache layers.
///
/// [`blend_prefetched_pooled`] takes the layers it fuses into from here;
/// whoever ends up holding a fused cache that nobody will read again hands
/// its layers back with [`LayerPool::put`] (`Engine::recycle`). The pool
/// keeps at most [`LayerPool::bound`] layers and frees the rest.
/// `cb_layer_pool_misses_total` counts the layers [`LayerPool::take`] had
/// to allocate because the list was empty; `cb_layer_pool_layers` is the
/// list's length.
#[derive(Debug)]
pub(crate) struct LayerPool {
    free: Mutex<Vec<LayerKv>>,
    bound: AtomicUsize,
}

fn pool_obs() -> &'static (Arc<Counter>, Arc<Gauge>) {
    static OBS: OnceLock<(Arc<Counter>, Arc<Gauge>)> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = Registry::global();
        (
            r.counter("cb_layer_pool_misses_total"),
            r.gauge("cb_layer_pool_layers"),
        )
    })
}

impl LayerPool {
    /// An empty pool that keeps at most `bound` layers (`0`: keeps none,
    /// every [`LayerPool::take`] allocates).
    pub(crate) fn new(bound: usize) -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            bound: AtomicUsize::new(bound),
        }
    }

    /// Most layers the pool keeps.
    pub(crate) fn bound(&self) -> usize {
        self.bound.load(Ordering::Relaxed)
    }

    /// Raises the bound to at least `bound`; it never shrinks.
    pub(crate) fn raise_bound(&self, bound: usize) {
        self.bound.fetch_max(bound, Ordering::Relaxed);
    }

    /// Layers currently pooled.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.free.lock().len()
    }

    /// An empty `kv_width`-wide layer with capacity for `rows` rows: a
    /// pooled one if there is one, else a fresh allocation.
    pub(crate) fn take(&self, kv_width: usize, rows: usize) -> LayerKv {
        let (misses, pooled) = pool_obs();
        let mut layer = {
            let mut free = self.free.lock();
            let layer = free.pop();
            pooled.set(free.len() as f64);
            layer
        }
        .unwrap_or_else(|| {
            misses.inc();
            LayerKv::empty(kv_width)
        });
        layer.clear(kv_width);
        layer.reserve(rows);
        layer
    }

    /// Returns layers to the pool; those past the bound are freed.
    pub(crate) fn put(&self, layers: impl IntoIterator<Item = LayerKv>) {
        let mut layers = layers.into_iter();
        let bound = self.bound();
        let mut free = self.free.lock();
        let room = bound.saturating_sub(free.len());
        free.extend(layers.by_ref().take(room));
        pool_obs().1.set(free.len() as f64);
        drop(free);
        // What did not fit is freed here, outside the lock.
        drop(layers);
    }
}

/// Timing evidence from a pipelined blend.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineReport {
    /// Wall-clock of the whole blend.
    pub total: Duration,
    /// Time the fusor spent blocked waiting for a layer (`synchronize()`).
    pub wait: Duration,
    /// Time the loader spent producing layers (decode + rotate + throttle).
    pub loader_busy: Duration,
}

/// Result of [`blend_prefetched`].
#[derive(Debug)]
pub struct PipelineOutput {
    /// The blend result (cache, residual, stats).
    pub result: BlendResult,
    /// Overlap evidence.
    pub report: PipelineReport,
}

/// Fuses chunk entries delivered by [`PrefetchHandle`]s — the storage-aware
/// pipeline. RAM-resident handles decode on the loader thread; disk-backed
/// handles stream layer blocks off the device (issued at prefetch time, so
/// the device read of layer `i+1` overlaps both the decode *and* the
/// selective recompute of layer `i`). `extra_throttle` adds a per-layer
/// artificial delay on top (used to emulate a device for RAM-resident
/// entries).
///
/// # Errors
///
/// Returns the first [`StoreError`] raised by a handle (corrupt layer
/// block, vanished segment, backend I/O failure); the blend is aborted and
/// no partial KV escapes.
pub fn blend_prefetched(
    model: &Model,
    cfg: BlendConfig,
    handles: Vec<PrefetchHandle>,
    suffix: &[TokenId],
    extra_throttle: Option<Duration>,
) -> Result<PipelineOutput, StoreError> {
    blend_prefetched_pooled(
        model,
        cfg,
        handles,
        suffix,
        extra_throttle,
        false,
        &LayerPool::new(0),
        0,
    )
}

/// [`blend_prefetched`] with the suffix's attention traced when
/// `want_trace` is set, and its fused layers taken from `pool`, each with
/// capacity for the context, the suffix and `decode_rows` decoded tokens —
/// so neither the fusor's suffix append nor a decode of up to
/// `decode_rows` tokens reallocates it.
///
/// # Errors
///
/// As [`blend_prefetched`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn blend_prefetched_pooled(
    model: &Model,
    cfg: BlendConfig,
    mut handles: Vec<PrefetchHandle>,
    suffix: &[TokenId],
    extra_throttle: Option<Duration>,
    want_trace: bool,
    pool: &LayerPool,
    decode_rows: usize,
) -> Result<PipelineOutput, StoreError> {
    // Context metadata: the BOS sink, then each chunk relocated after the
    // last by `deltas`. Disk headers were requested when the handles were
    // issued, so these waits overlap.
    let bos = model.bos_cache();
    let mut deltas = Vec::with_capacity(handles.len());
    let mut positions = bos.positions.clone();
    let mut tokens = bos.tokens.clone();
    for h in &mut handles {
        let m = h.meta()?;
        let cursor = positions.len();
        deltas.push(cursor as i64 - m.positions.first().copied().unwrap_or(0) as i64);
        positions.extend(cursor..cursor + m.rows);
        tokens.extend_from_slice(&m.tokens);
    }

    let n_layers = model.n_layers();
    let start = Instant::now();
    let width = model.cfg.kv_width();
    let fused_rows = positions.len() + suffix.len() + decode_rows;
    let (result, wait, loader_busy) = std::thread::scope(|scope| {
        // Created inside the scope so that a panicking fusor drops `rx`
        // while it unwinds: the loader's next send then fails and it
        // exits, instead of blocking the scope's join forever.
        let (tx, rx) = bounded::<Result<LayerKv, StoreError>>(2);
        let handles = &mut handles;
        let loader = scope.spawn(move || {
            let busy_start = Instant::now();
            // One scratch buffer decodes every chunk of every layer; the
            // BOS layer KV is shared by reference.
            let mut chunk_buf = LayerKv::empty(width);
            'layers: for layer in 0..n_layers {
                // Layer 0 goes out empty: the fusor recomputes every row.
                let mut merged = pool.take(width, fused_rows);
                if layer > 0 {
                    merged.append(&bos.layers[layer].k, &bos.layers[layer].v);
                }
                for (h, &delta) in handles.iter_mut().zip(&deltas) {
                    // §6 per-layer fetch: blocks only if the device has
                    // not delivered this layer's block yet.
                    let fetched = match layer {
                        0 => h.skip_layer(0),
                        _ => h.layer_into(layer, &mut chunk_buf).map(|()| {
                            rope_align::relocate_layer(model, layer, &mut chunk_buf, delta);
                            merged.append(&chunk_buf.k, &chunk_buf.v);
                        }),
                    };
                    if let Err(e) = fetched {
                        let _ = tx.send(Err(e));
                        break 'layers;
                    }
                }
                if let Some(d) = extra_throttle {
                    std::thread::sleep(d);
                }
                if tx.send(Ok(merged)).is_err() {
                    break; // consumer gone (panic downstream)
                }
            }
            drop(tx);
            busy_start.elapsed()
        });

        let mut wait = Duration::ZERO;
        let fusor = Fusor::new(model, cfg);
        let result = fusor.try_blend_streamed(
            &positions,
            &tokens,
            |_l| {
                let t = Instant::now();
                let lkv = rx
                    .recv()
                    .map_err(|_| StoreError::Backend("loader thread died".into()))?;
                wait += t.elapsed();
                lkv
            },
            suffix,
            want_trace,
        );
        (result, wait, loader.join().expect("loader panicked"))
    });

    Ok(PipelineOutput {
        result: result?,
        report: PipelineReport {
            total: start.elapsed(),
            wait,
            loader_busy,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use cb_kv::serialize::DecodeError;
    use cb_model::{KvCache, ModelConfig, ModelProfile};
    use cb_tokenizer::TokenKind::*;

    /// Sequential reference: load (and throttle) *everything first*, then
    /// blend — the unpipelined ablation of Figure 10(a).
    fn blend_sequential(
        model: &Model,
        cfg: BlendConfig,
        parts: Vec<Bytes>,
        suffix: &[TokenId],
        throttle: Option<Duration>,
    ) -> Result<PipelineOutput, DecodeError> {
        let start = Instant::now();
        let mut caches = Vec::new();
        for b in parts {
            let c = cb_kv::serialize::decode(b)?;
            if let Some(d) = throttle {
                std::thread::sleep(d * model.n_layers() as u32);
            }
            caches.push(c);
        }
        let load_time = start.elapsed();
        let fusor = Fusor::new(model, cfg);
        let result = fusor.blend(caches, suffix, false);
        Ok(PipelineOutput {
            result,
            report: PipelineReport {
                total: start.elapsed(),
                wait: load_time,
                loader_busy: load_time,
            },
        })
    }

    /// Serializes a fused request's chunks.
    fn serialize_chunks(model: &Model, chunks: &[Vec<TokenId>]) -> Vec<Bytes> {
        chunks
            .iter()
            .map(|c| cb_kv::serialize::encode(&cb_kv::precompute::precompute_chunk(model, c)))
            .collect()
    }

    /// RAM-resident prefetch handles over serialized entries.
    fn ram_handles(parts: &[Bytes]) -> Vec<PrefetchHandle> {
        (parts.iter())
            .map(|b| PrefetchHandle::from_bytes(b.clone(), 0).unwrap())
            .collect()
    }

    fn model() -> Model {
        Model::compiled(ModelConfig::standard(ModelProfile::Tiny, 11))
    }

    /// The bits of a blend's fused K/V and final residual.
    fn blend_bits(r: &BlendResult) -> Vec<u32> {
        (r.cache.layers.iter())
            .flat_map(|l| [&l.k, &l.v])
            .flat_map(|mat| mat.as_slice())
            .chain(&r.last_residual)
            .map(|x| x.to_bits())
            .collect()
    }

    fn scenario(m: &Model) -> (Vec<Vec<TokenId>>, Vec<TokenId>, TokenId) {
        let v = &m.cfg.vocab;
        let c1: Vec<TokenId> = [Entity(5), Attr(0), Value(1), Sep]
            .map(|k| v.id(k))
            .to_vec();
        let c2: Vec<TokenId> = [
            Ref,
            Attr(3),
            Value(9),
            Sep,
            Entity(8),
            Attr(1),
            Value(4),
            Sep,
        ]
        .map(|k| v.id(k))
        .to_vec();
        let q: Vec<TokenId> = [Query, Entity(5), Attr(3), QMark].map(|k| v.id(k)).to_vec();
        (vec![c1, c2], q, v.id(Value(9)))
    }

    #[test]
    fn pipelined_answers_correctly() {
        let m = model();
        let (chunks, q, gold) = scenario(&m);
        let bytes = serialize_chunks(&m, &chunks);
        let cfg = BlendConfig::with_ratio(0.45);
        let mut out = blend_prefetched(&m, cfg, ram_handles(&bytes), &q, None).unwrap();
        let ans = m.decode_greedy(&mut out.result.cache, &out.result.last_residual, 4);
        assert_eq!(ans, vec![gold]);
    }

    #[test]
    fn corrupted_entry_is_rejected() {
        let m = model();
        let (chunks, q, _) = scenario(&m);
        let mut bytes = serialize_chunks(&m, &chunks);
        let mut raw = bytes[0].to_vec();
        let n = raw.len();
        raw[n / 2] ^= 0xFF;
        bytes[0] = Bytes::from(raw);
        // The header is intact, so the handle opens; the damaged layer
        // block fails its checksum when the loader reaches it.
        let handles = ram_handles(&bytes);
        let err = blend_prefetched(&m, BlendConfig::default(), handles, &q, None).unwrap_err();
        assert_eq!(err, StoreError::Corrupt(DecodeError::Corrupted));
    }

    #[test]
    #[should_panic(expected = "non-empty suffix")]
    fn a_panicking_fusor_does_not_strand_the_loader() {
        // The fusor panics before taking a layer, so the loader fills the
        // bounded channel (4 layers, room for 2). The panic must reach the
        // caller instead of the scope's join waiting on a blocked send.
        let m = model();
        let (chunks, _, _) = scenario(&m);
        let bytes = serialize_chunks(&m, &chunks);
        let _ = blend_prefetched(&m, BlendConfig::default(), ram_handles(&bytes), &[], None);
    }

    #[test]
    fn pipelining_hides_load_latency() {
        // With a per-layer throttle, the pipelined total must be well below
        // "load everything, then compute" — the §5 overlap claim measured
        // on real threads.
        let m = model();
        let (chunks, q, _) = scenario(&m);
        let bytes = serialize_chunks(&m, &chunks);
        let throttle = Duration::from_millis(8);
        let cfg = BlendConfig::with_ratio(0.4);
        let piped = blend_prefetched(&m, cfg, ram_handles(&bytes), &q, Some(throttle)).unwrap();
        let seq = blend_sequential(&m, cfg, bytes, &q, Some(throttle)).unwrap();
        assert!(
            piped.report.total < seq.report.total,
            "pipelined {:?} !< sequential {:?}",
            piped.report.total,
            seq.report.total
        );
    }

    fn disk_store(dir: &std::path::Path, throttle_bytes_per_s: Option<f64>) -> cb_kv::KvStore {
        use cb_kv::store::TierConfig;
        use cb_storage::{MemBackend, SegmentLogBackend, StorageBackend, Throttle};
        use std::sync::Arc;
        cb_kv::KvStore::with_backends(vec![
            (
                TierConfig::new("ram", 64), // below any entry: everything lands on disk,
                Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>,
            ),
            (
                TierConfig::new("disk", 1 << 30),
                Arc::new(
                    SegmentLogBackend::new(dir, throttle_bytes_per_s.map(Throttle::bandwidth))
                        .unwrap(),
                ),
            ),
        ])
    }

    fn test_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "cb-pipeline-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn prefetched_disk_blend_matches_ram_blend() {
        let m = model();
        let (chunks, q, gold) = scenario(&m);
        let bytes = serialize_chunks(&m, &chunks);
        let cfg = BlendConfig::with_ratio(0.45);
        let ram = blend_prefetched(&m, cfg, ram_handles(&bytes), &q, None).unwrap();

        let dir = test_dir("parity");
        let store = disk_store(&dir, None);
        let ids: Vec<cb_kv::ChunkId> = bytes
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let id = cb_kv::ChunkId(i as u64 + 1);
                store.insert_bytes(id, b.clone()).unwrap();
                id
            })
            .collect();
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| store.prefetch(id).unwrap().unwrap())
            .collect();
        assert!(handles.iter().all(|h| h.tier() == 1), "disk-resident");
        let disk = blend_prefetched(&m, cfg, handles, &q, None).unwrap();
        assert!(
            blend_bits(&disk.result) == blend_bits(&ram.result),
            "fused K/V or residual differ between disk and RAM blends"
        );
        assert_eq!(
            disk.result.stats.selected_per_layer,
            ram.result.stats.selected_per_layer
        );
        let mut out = disk.result;
        let ans = m.decode_greedy(&mut out.cache, &out.last_residual, 4);
        assert_eq!(ans, vec![gold]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_layer0_block_on_disk_fails_the_blend_and_is_evicted() {
        // The loader reads past layer 0 without decoding it, but a
        // streamed handle still verifies the block: a flipped byte there
        // must abort the blend and evict the entry, not get promoted.
        let m = model();
        let (chunks, q, _) = scenario(&m);
        let bytes = serialize_chunks(&m, &chunks);
        let dir = test_dir("layer0");
        let store = disk_store(&dir, None);
        let ids: Vec<cb_kv::ChunkId> = (1..=bytes.len() as u64).map(cb_kv::ChunkId).collect();
        for (&id, b) in ids.iter().zip(&bytes) {
            store.insert_bytes(id, b.clone()).unwrap();
        }
        store.flush().unwrap();
        let rows = cb_kv::serialize::parse_header(&bytes[1]).unwrap().rows;
        assert!(store.corrupt(ids[1], cb_kv::serialize::header_len(rows) + 5));
        let handles = (ids.iter())
            .map(|&id| store.prefetch(id).unwrap().unwrap())
            .collect();
        let err = blend_prefetched(&m, BlendConfig::default(), handles, &q, None).unwrap_err();
        assert_eq!(err, StoreError::Corrupt(DecodeError::Corrupted));
        assert!(!store.contains(ids[1]), "the corrupt entry is evicted");
        assert!(store.contains(ids[0]), "its healthy sibling stays");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_streaming_overlaps_with_recompute() {
        // With a bandwidth throttle on the disk tier, streaming layer
        // blocks through prefetch handles must beat "read both entries in
        // full, then blend" — the same §5 overlap claim as the in-RAM
        // pipelining test, now measured against real (throttled) file I/O.
        let m = model();
        let (chunks, q, _) = scenario(&m);
        let bytes = serialize_chunks(&m, &chunks);
        let total: usize = bytes.iter().map(|b| b.len()).sum();
        // Bandwidth such that a full load takes ~40 ms.
        let bw = total as f64 / 0.040;
        let cfg = BlendConfig::with_ratio(0.4);

        let dir = test_dir("overlap");
        let store = disk_store(&dir, Some(bw));
        for (i, b) in bytes.iter().enumerate() {
            store
                .insert_bytes(cb_kv::ChunkId(i as u64 + 1), b.clone())
                .unwrap();
        }
        store.flush().unwrap();

        // Unpipelined arm: full (throttled) reads, then an eager blend.
        let t0 = Instant::now();
        let parts: Vec<KvCache> = (0..bytes.len())
            .map(|i| store.get(cb_kv::ChunkId(i as u64 + 1)).unwrap().unwrap().0)
            .collect();
        let load_time = t0.elapsed();
        let _ = Fusor::new(&m, cfg).blend(parts, &q, false);
        let sequential = t0.elapsed();

        // get() promoted the entries to... RAM is too small here, so they
        // are still disk-resident; stream them pipelined.
        let handles: Vec<_> = (0..bytes.len())
            .map(|i| {
                store
                    .prefetch(cb_kv::ChunkId(i as u64 + 1))
                    .unwrap()
                    .unwrap()
            })
            .collect();
        let piped = blend_prefetched(&m, cfg, handles, &q, None).unwrap();

        assert!(
            piped.report.total < sequential,
            "pipelined {:?} !< sequential {:?} (raw load {:?})",
            piped.report.total,
            sequential,
            load_time
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `n` chunks of `rows` fact tokens and a query, drawn from `seed`.
    fn random_case(
        m: &Model,
        seed: u64,
        n: usize,
        rows: usize,
    ) -> (Vec<Vec<TokenId>>, Vec<TokenId>) {
        use rand::{Rng, SeedableRng};
        let v = &m.cfg.vocab;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let entity = |rng: &mut rand::rngs::SmallRng| Entity(rng.random_range(0..v.n_entities()));
        let chunks = (0..n)
            .map(|_| {
                (0..rows)
                    .map(|i| match i % 4 {
                        0 => entity(&mut rng),
                        1 => Attr(rng.random_range(0..v.n_attrs())),
                        2 => Value(rng.random_range(0..v.n_values())),
                        _ => Sep,
                    })
                    .map(|k| v.id(k))
                    .collect()
            })
            .collect();
        let query = [
            Query,
            entity(&mut rng),
            Attr(rng.random_range(0..v.n_attrs())),
            QMark,
        ]
        .map(|k| v.id(k))
        .to_vec();
        (chunks, query)
    }

    #[test]
    fn recycled_scratch_and_layers_are_never_read_stale() {
        // Property: after a warm-up blend, poison every element of the
        // thread's blend arena and of every recycled layer with NaN, then
        // blend a smaller and a larger context into those layers on the
        // same thread. Fused K/V, final residual, selection and decoded
        // tokens must equal, bit for bit, a blend on a fresh thread into
        // freshly allocated layers.
        const DECODE: usize = 4;
        struct Served {
            bits: Vec<u32>,
            selected: Vec<usize>,
            answer: Vec<TokenId>,
            cache: KvCache,
        }
        for profile in [ModelProfile::Tiny, ModelProfile::Mistral7B] {
            let m = Model::compiled(ModelConfig::standard(profile, 11));
            let cases = [(3, 24, 1), (2, 12, 2), (6, 32, 3)]
                .map(|(n, rows, seed)| random_case(&m, seed, n, rows));
            let serve = |(chunks, query): &(Vec<Vec<TokenId>>, Vec<TokenId>), pool: &LayerPool| {
                let handles = ram_handles(&serialize_chunks(&m, chunks));
                let cfg = BlendConfig::default();
                let mut out =
                    blend_prefetched_pooled(&m, cfg, handles, query, None, false, pool, DECODE)
                        .unwrap()
                        .result;
                let bits = blend_bits(&out);
                let answer = m.decode_greedy(&mut out.cache, &out.last_residual, DECODE);
                Served {
                    bits,
                    selected: out.stats.selected_per_layer,
                    answer,
                    cache: out.cache,
                }
            };
            for threads in [1, 2] {
                cb_tensor::pool::set_threads(threads);
                let fresh: Vec<Served> = std::thread::scope(|s| {
                    (cases[1..].iter())
                        .map(|c| s.spawn(|| serve(c, &LayerPool::new(0))).join().unwrap())
                        .collect()
                });
                let layers = LayerPool::new(m.n_layers());
                let mut dead = serve(&cases[0], &layers).cache;
                for (case, want) in cases[1..].iter().zip(&fresh) {
                    for l in &mut dead.layers {
                        l.k.as_mut_slice().fill(f32::NAN);
                        l.v.as_mut_slice().fill(f32::NAN);
                    }
                    layers.put(dead.layers);
                    assert_eq!(layers.len(), m.n_layers());
                    crate::fusor::poison_thread_scratch();
                    let got = serve(case, &layers);
                    assert_eq!(layers.len(), 0, "every layer came from the pool");
                    let what = format!("{profile:?} at pool size {threads}");
                    assert!(
                        got.bits == want.bits,
                        "{what}: fused K/V or residual differ"
                    );
                    assert_eq!(got.selected, want.selected, "{what}");
                    assert_eq!(got.answer, want.answer, "{what}");
                    dead = got.cache;
                }
            }
        }
        cb_tensor::pool::set_threads(cb_tensor::pool::default_threads());
    }

    #[test]
    fn report_accounts_wait_time() {
        let m = model();
        let (chunks, q, _) = scenario(&m);
        let bytes = serialize_chunks(&m, &chunks);
        let out = blend_prefetched(
            &m,
            BlendConfig::default(),
            ram_handles(&bytes),
            &q,
            Some(Duration::from_millis(2)),
        )
        .unwrap();
        assert!(out.report.wait <= out.report.total);
        assert!(out.report.loader_busy >= Duration::from_millis(2 * 4));
    }
}
