//! Serving backends: the [`ServingBackend`] trait closing the loop
//! between the discrete-event simulator and the real engine.
//!
//! The simulator's job is queueing — Poisson arrivals against a busy GPU.
//! *What one admission costs* is the backend's job, and there are two
//! kinds:
//!
//! - [`AnalyticBackend`] — the paper-scale delay model (Figure 14's
//!   mechanics): per-scheme store accounting against a byte-bounded LRU
//!   and admission costs from `cb-storage`'s [`PerfModel`] (CacheBlend
//!   admissions go through the engine's [`blend_admission`], so the model
//!   is shared, not re-derived).
//! - [`EngineBackend`] — the real thing: every simulated request is
//!   mapped to a real [`Request`](cb_core::engine::Request) and served
//!   through an [`EngineService`] (scheduler, streaming events, tiered
//!   store, pipelined blend on the compiled model). The admission cost is
//!   the *measured* wall-clock TTFT, so the simulator's saturation knees
//!   come from real blend latencies.
//!
//! Both implement one trait, so `Simulator::run_with` takes either.

use std::collections::HashMap;

use cb_core::engine::{blend_admission, Request as EngineRequest};
use cb_core::scheduler::EngineService;
use cb_core::stream::Event;
use cb_kv::ChunkId;
use cb_storage::perf::PerfModel;
use cb_tokenizer::{TokenId, TokenKind};

use cb_baselines::SchemeKind;

use crate::sim::ServingConfig;
use crate::workload::Request;

/// What one admission cost: the backend's answer to "serve this request".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Admission {
    /// Seconds of service until the first token (queueing excluded — the
    /// simulator adds that).
    pub ttft_work_s: f64,
    /// GPU-seconds the admission leaves busy (pipelined loading overlaps
    /// compute, so this can be below `ttft_work_s`).
    pub gpu_work_s: f64,
    /// Seconds of decode occupying the GPU after the first token.
    pub decode_s: f64,
    /// Chunk-cache lookups this request performed.
    pub lookups: u64,
    /// Lookups served from cache.
    pub hits: u64,
    /// The backend failed to serve the request. The simulator excludes it
    /// from the TTFT distribution and counts it in
    /// [`ServingStats::failures`](crate::sim::ServingStats).
    pub failed: bool,
}

impl Admission {
    /// A failed admission: zero cost, excluded from latency statistics.
    pub fn failure() -> Self {
        Self {
            ttft_work_s: 0.0,
            gpu_work_s: 0.0,
            decode_s: 0.0,
            lookups: 0,
            hits: 0,
            failed: true,
        }
    }
}

/// Store-residency counters a backend can report after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendSummary {
    /// Peak bytes resident in the backend's KV store.
    pub peak_store_bytes: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// A serving backend: prices (or really serves) one admission at a time,
/// in arrival order.
pub trait ServingBackend {
    /// Short label for reporting ("analytic", "engine").
    fn name(&self) -> &'static str;

    /// Serves one request and returns its admission cost.
    fn serve(&mut self, req: &Request) -> Admission;

    /// Store counters accumulated so far.
    fn summary(&self) -> BackendSummary {
        BackendSummary::default()
    }
}

/// Byte-bounded LRU used by the analytic backend's store model.
pub(crate) struct LruStore {
    capacity: u64,
    used: u64,
    peak: u64,
    clock: u64,
    entries: HashMap<u64, (u64, u64)>, // id -> (bytes, last_used)
    evictions: u64,
}

impl LruStore {
    pub(crate) fn new(capacity: u64) -> Self {
        Self {
            capacity,
            used: 0,
            peak: 0,
            clock: 0,
            entries: HashMap::new(),
            evictions: 0,
        }
    }

    fn hit(&mut self, id: u64) -> bool {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&id) {
            e.1 = self.clock;
            true
        } else {
            false
        }
    }

    fn insert(&mut self, id: u64, bytes: u64) {
        self.clock += 1;
        if self.entries.contains_key(&id) || bytes > self.capacity {
            return;
        }
        while self.used + bytes > self.capacity {
            let victim = *self
                .entries
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| k)
                .expect("over capacity with no entries");
            let (b, _) = self.entries.remove(&victim).unwrap();
            self.used -= b;
            self.evictions += 1;
        }
        self.entries.insert(id, (bytes, self.clock));
        self.used += bytes;
        self.peak = self.peak.max(self.used);
    }
}

fn mix(a: u64, b: u64) -> u64 {
    (a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xFF51_AFD7_ED55_8CCD)
}

/// The paper-scale delay-model backend (the original Figure-14 arm).
pub struct AnalyticBackend {
    cfg: ServingConfig,
    entry_bytes: u64,
    store: LruStore,
}

impl AnalyticBackend {
    /// Builds the backend for a simulator configuration.
    pub fn new(cfg: ServingConfig) -> Self {
        // Entry sizes are modelled in whole bytes (rounded up) so store
        // accounting is exact integer arithmetic.
        let entry_bytes = cfg.perf.total_kv_bytes(cfg.chunk_tokens).ceil() as u64;
        let store = LruStore::new(cfg.store_capacity);
        Self {
            cfg,
            entry_bytes,
            store,
        }
    }
}

impl ServingBackend for AnalyticBackend {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn serve(&mut self, req: &Request) -> Admission {
        let cfg = &self.cfg;
        let perf: &PerfModel = &cfg.perf;
        let k = req.chunk_ids.len();
        let ctx_tokens = k * cfg.chunk_tokens;
        let mut lookups = 0u64;
        let mut hits = 0u64;

        let (ttft_work_s, gpu_work_s) = match cfg.scheme {
            SchemeKind::FullRecompute | SchemeKind::MapReduce | SchemeKind::MapRerank => {
                let t = perf.ttft_full_prefill(ctx_tokens + cfg.query_tokens);
                (t, t)
            }
            SchemeKind::PrefixCaching => {
                // Longest cached prefix chain. Every chunk counts as a
                // lookup; chunks past the first miss can never hit.
                let mut chain = 0u64;
                let mut matched = 0usize;
                let mut walking = true;
                let mut ids = Vec::with_capacity(k);
                lookups += k as u64;
                for &c in &req.chunk_ids {
                    chain = mix(chain, c);
                    ids.push(chain);
                    if walking {
                        if self.store.hit(chain) {
                            hits += 1;
                            matched += 1;
                        } else {
                            walking = false;
                        }
                    }
                }
                for &id in ids.iter().skip(matched) {
                    self.store.insert(id, self.entry_bytes);
                }
                let hit_tokens = matched * cfg.chunk_tokens;
                let t = perf.ttft_prefix_caching(ctx_tokens + cfg.query_tokens, hit_tokens);
                (t, t)
            }
            SchemeKind::FullReuse | SchemeKind::CacheBlend => {
                let mut hit_chunks = 0usize;
                for &c in &req.chunk_ids {
                    lookups += 1;
                    if self.store.hit(c) {
                        hits += 1;
                        hit_chunks += 1;
                    } else {
                        self.store.insert(c, self.entry_bytes);
                    }
                }
                let hit_tokens = hit_chunks * cfg.chunk_tokens;
                let miss_tokens = ctx_tokens - hit_tokens;
                if cfg.scheme == SchemeKind::FullReuse {
                    let t = perf.ttft_full_reuse(hit_tokens.max(1), 0, cfg.device)
                        + perf.ttft_full_prefill(miss_tokens + cfg.query_tokens);
                    (t, perf.ttft_full_prefill(miss_tokens + cfg.query_tokens))
                } else {
                    // CacheBlend admissions go through the engine's delay
                    // model rather than re-deriving it here.
                    let cost = blend_admission(
                        perf,
                        cfg.device,
                        cfg.recompute_ratio,
                        hit_tokens,
                        miss_tokens,
                        cfg.query_tokens,
                    );
                    (cost.ttft_s, cost.gpu_s)
                }
            }
        };
        Admission {
            ttft_work_s,
            gpu_work_s,
            decode_s: cfg.decode_tokens as f64 * perf.decode_time_per_token(),
            lookups,
            hits,
            failed: false,
        }
    }

    fn summary(&self) -> BackendSummary {
        BackendSummary {
            peak_store_bytes: self.store.peak,
            evictions: self.store.evictions,
        }
    }
}

/// The real-engine backend: simulated chunk ids are materialized as
/// registered chunks on the service's engine, every request is served
/// through the [`EngineService`] scheduler, and the admission cost is the
/// measured wall-clock TTFT split from the response's breakdown.
pub struct EngineBackend {
    service: EngineService,
    chunk_map: HashMap<u64, ChunkId>,
    query: Vec<TokenId>,
    max_new_tokens: usize,
}

impl EngineBackend {
    /// Wraps a running service. Chunks are registered lazily as simulated
    /// ids first appear, so the engine's store starts cold exactly like
    /// the analytic store does.
    pub fn new(service: EngineService) -> Self {
        let v = service.engine().model().cfg.vocab.clone();
        let query = vec![
            v.id(TokenKind::Query),
            v.id(TokenKind::Entity(0)),
            v.id(TokenKind::Attr(0)),
            v.id(TokenKind::QMark),
        ];
        Self {
            service,
            chunk_map: HashMap::new(),
            query,
            max_new_tokens: 4,
        }
    }

    /// The standard closed-loop configuration: a fresh engine for
    /// `profile` behind a **single-worker** service — one prefill worker
    /// feeding the default-width decode batch. [`ServingBackend::serve`]
    /// waits for each request to finish before sending the next, so the
    /// closed loop still matches the simulator's single-GPU queueing model.
    pub fn single_worker(profile: cb_model::ModelProfile) -> Self {
        let engine = cb_core::engine::EngineBuilder::new(profile)
            .build()
            .expect("default engine configuration builds");
        Self::new(EngineService::new(
            engine,
            cb_core::scheduler::ServiceConfig::default().workers(1),
        ))
    }

    /// The continuous-batching closed-loop arm: `workers` prefill threads
    /// feeding a decoder thread that steps up to `decode_batch` sequences
    /// together (see [`cb_core::scheduler::ServiceConfig::decode_batch`]).
    /// One request's blend recompute overlaps other requests' decode, so
    /// this is the arm that measures iteration-level scheduling rather
    /// than a serially-busy GPU.
    pub fn batched(profile: cb_model::ModelProfile, workers: usize, decode_batch: usize) -> Self {
        let engine = cb_core::engine::EngineBuilder::new(profile)
            .build()
            .expect("default engine configuration builds");
        Self::new(EngineService::new(
            engine,
            cb_core::scheduler::ServiceConfig::default()
                .workers(workers.max(1))
                .decode_batch(decode_batch),
        ))
    }

    /// The disk-resident closed-loop arm: same single-worker service, but
    /// the engine's store is a small RAM tier over a persistent,
    /// device-throttled disk tier under `dir` — chunk KV genuinely spills
    /// to the segment log and is streamed back through the pipelined loader,
    /// so the measured TTFTs carry real (emulated-device) storage latency.
    pub fn single_worker_on_disk(
        profile: cb_model::ModelProfile,
        dir: impl Into<std::path::PathBuf>,
        device: cb_storage::DeviceKind,
    ) -> Self {
        let engine = cb_core::engine::EngineBuilder::new(profile)
            .storage(
                cb_core::engine::StorageConfig::default()
                    .tier(cb_storage::DeviceKind::CpuRam, 128 << 10)
                    .disk_tier_opts(device, 1 << 30, dir, true),
            )
            .build()
            .expect("disk-tier engine configuration builds");
        Self::new(EngineService::new(
            engine,
            cb_core::scheduler::ServiceConfig::default().workers(1),
        ))
    }

    /// The wrapped service (for stats inspection after a run).
    pub fn service(&self) -> &EngineService {
        &self.service
    }

    /// Deterministic token content for a simulated chunk id: distinct ids
    /// yield distinct token sequences (so distinct content hashes) for any
    /// universe below `n_entities²`.
    fn chunk_tokens(&self, sim_id: u64) -> Vec<TokenId> {
        let v = &self.service.engine().model().cfg.vocab;
        let (ne, na, nv) = (
            v.n_entities() as u64,
            v.n_attrs() as u64,
            v.n_values() as u64,
        );
        vec![
            v.id(TokenKind::Entity((sim_id % ne) as u32)),
            v.id(TokenKind::Entity(((sim_id / ne) % ne) as u32)),
            v.id(TokenKind::Attr((sim_id % na) as u32)),
            v.id(TokenKind::Value((sim_id % nv) as u32)),
            v.id(TokenKind::Sep),
        ]
    }

    /// Maps a simulated id to a lazily-registered chunk: the tokens enter
    /// the engine's registry but no KV is precomputed, so the first
    /// *serve* naming this chunk pays the miss (precompute) inside the
    /// measured admission — the same first-touch cost the analytic store
    /// charges.
    fn register_cold(&mut self, sim_id: u64, tokens: &[TokenId]) -> ChunkId {
        if let Some(&id) = self.chunk_map.get(&sim_id) {
            return id;
        }
        let id = self
            .service
            .engine()
            .register_chunk_lazy(tokens)
            .expect("synthesized chunk tokens are non-empty");
        self.chunk_map.insert(sim_id, id);
        id
    }

    fn chunk_id(&mut self, sim_id: u64) -> ChunkId {
        if let Some(&id) = self.chunk_map.get(&sim_id) {
            return id;
        }
        let tokens = self.chunk_tokens(sim_id);
        self.register_cold(sim_id, &tokens)
    }

    /// Measures the warm per-request service time (prefill + decode) in
    /// seconds: serves one probe request twice and reports the second,
    /// store-warm measurement. Use it to normalize rate grids against
    /// saturation, like the analytic arm normalizes to the modeled
    /// full-prefill time.
    ///
    /// The probe's chunks are built from `Filler` tokens, which
    /// `chunk_tokens` never emits, so no workload id can alias a
    /// probe chunk's content hash — a later run's cold-start behavior is
    /// untouched.
    pub fn warm_service_time_s(&mut self) -> f64 {
        let probe_sim_ids = [u64::MAX - 3, u64::MAX - 2, u64::MAX - 1, u64::MAX];
        let v = self.service.engine().model().cfg.vocab.clone();
        for (j, &sim_id) in probe_sim_ids.iter().enumerate() {
            let tokens = vec![
                v.id(TokenKind::Filler(j as u32)),
                v.id(TokenKind::Filler((j + 1) as u32)),
                v.id(TokenKind::Value(j as u32)),
                v.id(TokenKind::Sep),
            ];
            self.register_cold(sim_id, &tokens);
        }
        let probe = Request {
            arrival_s: 0.0,
            chunk_ids: probe_sim_ids.to_vec(),
        };
        self.serve(&probe);
        let warm = self.serve(&probe);
        (warm.ttft_work_s + warm.decode_s).max(1e-6)
    }
}

impl ServingBackend for EngineBackend {
    fn name(&self) -> &'static str {
        "engine"
    }

    fn serve(&mut self, req: &Request) -> Admission {
        let ids: Vec<ChunkId> = req.chunk_ids.iter().map(|&c| self.chunk_id(c)).collect();
        let request =
            EngineRequest::new(ids, self.query.clone()).max_new_tokens(self.max_new_tokens);
        let stream = self.service.submit_stream(request);
        let mut resp = None;
        for event in stream {
            match event {
                Event::Done(r) => resp = Some(r),
                // A failed request stays observable without aborting the
                // run: the simulator counts it in ServingStats::failures
                // and the service's own `failed` counter records it — the
                // scheduler's panic containment is not undone here.
                Event::Failed(_) => return Admission::failure(),
                _ => {}
            }
        }
        let resp = resp.expect("service produced no terminal event");
        let (lookups, hits) = resp.chunk_sources.iter().fold((0, 0), |(l, h), s| match s {
            cb_core::engine::ChunkSource::Hit { .. } => (l + 1, h + 1),
            cb_core::engine::ChunkSource::Precomputed => (l + 1, h),
        });
        let ttft_s = resp
            .ttft
            .total
            .saturating_sub(resp.ttft.decode)
            .as_secs_f64();
        Admission {
            ttft_work_s: ttft_s,
            // The worker thread is busy for the whole prefill (loading
            // overlap is already inside the measurement).
            gpu_work_s: ttft_s,
            decode_s: resp.ttft.decode.as_secs_f64(),
            lookups,
            hits,
            failed: false,
        }
    }

    fn summary(&self) -> BackendSummary {
        let store = self.service.engine().store();
        BackendSummary {
            peak_store_bytes: store.peak_bytes(),
            evictions: store.stats().evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_model::ModelProfile;

    #[test]
    fn engine_backend_measures_real_ttft_and_hits() {
        let mut backend = EngineBackend::single_worker(ModelProfile::Tiny);
        let req = Request {
            arrival_s: 0.0,
            chunk_ids: vec![3, 5, 9],
        };
        let cold = backend.serve(&req);
        let warm = backend.serve(&req);
        assert_eq!(cold.lookups, 3);
        assert_eq!(
            cold.hits, 0,
            "first touch pays the miss, like the analytic store"
        );
        assert_eq!(warm.hits, 3, "second touch is store-warm");
        assert!(cold.ttft_work_s > 0.0);
        assert!(warm.ttft_work_s > 0.0);
        assert_eq!(backend.service().stats().completed, 2);
        assert!(backend.summary().peak_store_bytes > 0);
    }

    #[test]
    fn disk_backend_arm_serves_from_spilled_tiers() {
        let dir = std::env::temp_dir().join(format!(
            "cb-serving-disk-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut backend = EngineBackend::single_worker_on_disk(
            ModelProfile::Tiny,
            &dir,
            cb_storage::DeviceKind::NvmeSsd,
        );
        let req = Request {
            arrival_s: 0.0,
            chunk_ids: (0..6).collect(), // enough chunks to overflow RAM
        };
        let cold = backend.serve(&req);
        let warm = backend.serve(&req);
        assert!(!cold.failed && !warm.failed);
        assert_eq!(warm.hits, 6, "second touch is store-warm");
        let store = backend.service().engine().store();
        assert_eq!(store.n_tiers(), 2);
        assert!(
            store.stats().spills > 0 || store.tier_len(1) > 0,
            "working set must have reached the disk tier"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_service_time_is_positive_and_store_warm() {
        let mut backend = EngineBackend::single_worker(ModelProfile::Tiny);
        let s = backend.warm_service_time_s();
        assert!(s > 0.0);
        assert_eq!(backend.service().stats().completed, 2);
    }

    #[test]
    fn batched_backend_serves_and_completes_like_single_worker() {
        let mut backend = EngineBackend::batched(ModelProfile::Tiny, 2, 4);
        let req = Request {
            arrival_s: 0.0,
            chunk_ids: vec![3, 5, 9],
        };
        let cold = backend.serve(&req);
        let warm = backend.serve(&req);
        assert!(!cold.failed && !warm.failed);
        assert_eq!(warm.hits, 3, "second touch is store-warm");
        assert!(
            warm.decode_s > 0.0,
            "decode time comes from the decoder thread"
        );
        assert_eq!(backend.service().stats().completed, 2);
    }

    #[test]
    fn distinct_sim_ids_map_to_distinct_chunks() {
        let mut backend = EngineBackend::single_worker(ModelProfile::Tiny);
        let ids: Vec<ChunkId> = (0..200).map(|i| backend.chunk_id(i)).collect();
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 200);
    }
}
