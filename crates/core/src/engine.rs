//! The serving engine: CacheBlend behind one request/response front door.
//!
//! Everything the paper's serving system does per request — KV store
//! lookup, precompute of missing chunk caches, recompute-ratio selection
//! via the §5.1 controller, pipelined load+selective-recompute, and greedy
//! decoding — is wired by hand in six crates elsewhere in this workspace.
//! This module packages that lifecycle as a single concurrent API:
//!
//! 1. [`EngineBuilder`] fixes the deployment: model profile, tiered store
//!    (each tier is a [`DeviceKind`] with a byte capacity), [`BlendConfig`],
//!    and the recompute-[`RatioPolicy`].
//! 2. [`Engine::register_chunk`] makes a chunk servable: content-hash the
//!    tokens, precompute its standalone KV cache on a store miss, and place
//!    the serialized entry on the tiered [`KvStore`].
//! 3. [`Engine::submit`] serves one [`Request`]: look each chunk up in the
//!    store (re-precomputing entries the LRU evicted), pick the recompute
//!    ratio, stream the entries' layers through the
//!    [`pipeline`](crate::pipeline)'s `blend_prefetched_pooled` (load
//!    overlapped with selective recompute, the fused cache built in pooled
//!    layers), decode the answer as a [`DecodeBatch`] of one, and return a
//!    [`Response`] with the answer, the [`BlendResult`] stats, and a
//!    [`TtftBreakdown`].
//! 4. Concurrent and continuous serving — one request or a whole batch —
//!    goes through the [`EngineService`](crate::scheduler::EngineService)
//!    scheduler, which owns a worker pool and an admission queue over a
//!    shared [`Engine`] handle — [`Engine`] is a cheap clone ([`Arc`]
//!    inside) and `Sync`; the store serializes itself internally. Its
//!    streams carry per-phase [`Event`]s as they happen
//!    ([`Event::FirstToken`] when prefill completes, [`Event::Token`] per
//!    decoded token), and its decoder steps one shared batch.
//!
//! [`EngineError`] unifies the error surfaces ([`DecodeError`],
//! [`StoreError`], unknown ids, empty inputs) that previously leaked from
//! each layer separately.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cb_kv::chunk::hash_tokens;
use cb_kv::prefetch::PrefetchHandle;
use cb_kv::serialize::{encode, DecodeError};
use cb_kv::store::{KvStore, StoreError, TierConfig};
use cb_kv::ChunkId;
use cb_model::{DecodeBatch, FinishedSeq, KvCache, Model, ModelConfig, ModelProfile, SeqId};
use cb_storage::backend::{MemBackend, StorageBackend, Throttle};
use cb_storage::device::DeviceKind;
use cb_storage::perf::{PaperModel, PerfModel};
use cb_storage::segment_log::SegmentLogBackend;
use cb_tokenizer::TokenId;
use parking_lot::Mutex;

use crate::controller::LoadingController;
use crate::fusor::{BlendConfig, BlendResult};
use crate::pipeline::{blend_prefetched_pooled, LayerPool};
use crate::stream::Event;

/// Stable wire identity of an [`EngineError`] variant. Service
/// boundaries (the network control plane, logs, metrics) transmit the
/// code plus a numeric detail and a message instead of the Rust enum, and
/// [`EngineError::from_wire`] reconstructs the closest possible variant
/// on the far side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// [`EngineError::UnknownChunk`]; detail carries the chunk id.
    UnknownChunk = 1,
    /// [`EngineError::EmptyChunk`].
    EmptyChunk = 2,
    /// [`EngineError::EmptyQuery`].
    EmptyQuery = 3,
    /// [`EngineError::TooLarge`]; detail carries the size in bytes.
    TooLarge = 4,
    /// [`EngineError::Corrupt`]; the decode detail survives only as the
    /// message string.
    Corrupt = 5,
    /// [`EngineError::Storage`].
    Storage = 6,
    /// [`EngineError::Config`].
    Config = 7,
    /// [`EngineError::Canceled`].
    Canceled = 8,
    /// [`EngineError::Panicked`].
    Panicked = 9,
    /// No healthy worker could accept the request — synthesized by
    /// cluster front ends (a gateway), never by a single engine.
    NoHealthyWorker = 10,
}

impl ErrorCode {
    /// True when a failure with this code says nothing about the request
    /// itself — only about the worker that happened to be serving it —
    /// so re-submitting the identical request to a *different* worker can
    /// succeed. Cluster front ends use this to drive client-invisible
    /// retries:
    ///
    /// - [`ErrorCode::Canceled`] — the serving worker's scheduler shut
    ///   down mid-request;
    /// - [`ErrorCode::Panicked`] — the serving worker's thread died;
    /// - [`ErrorCode::Storage`] — a worker-local backend failed (another
    ///   replica has its own store).
    ///
    /// Everything else is a property of the request (unknown chunk, empty
    /// query, oversized cache, misconfiguration) or of the cluster as a
    /// whole ([`ErrorCode::NoHealthyWorker`]) and retrying elsewhere
    /// would fail identically.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            ErrorCode::Canceled | ErrorCode::Panicked | ErrorCode::Storage
        )
    }

    /// Inverse of `code as u16`; `None` for unassigned values.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::UnknownChunk,
            2 => ErrorCode::EmptyChunk,
            3 => ErrorCode::EmptyQuery,
            4 => ErrorCode::TooLarge,
            5 => ErrorCode::Corrupt,
            6 => ErrorCode::Storage,
            7 => ErrorCode::Config,
            8 => ErrorCode::Canceled,
            9 => ErrorCode::Panicked,
            10 => ErrorCode::NoHealthyWorker,
            _ => return None,
        })
    }
}

/// Unified error surface of the engine API.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// A requested chunk id was never registered with this engine, so a
    /// store miss cannot be repaired by precompute.
    UnknownChunk(ChunkId),
    /// A chunk registration carried no tokens.
    EmptyChunk,
    /// The request's query was empty (the suffix is never cached and must
    /// exist for the fusor to run).
    EmptyQuery,
    /// A chunk's serialized cache exceeds every store tier's capacity.
    TooLarge {
        /// Size of the rejected entry in bytes.
        size: u64,
    },
    /// A stored entry failed its checksum or layout checks.
    Corrupt(DecodeError),
    /// A storage backend failed (cache-dir I/O error, flusher gone).
    Storage(String),
    /// The engine was misconfigured (builder-time or policy errors).
    Config(String),
    /// The request was accepted but its scheduler shut down before a
    /// worker finished it.
    Canceled,
    /// The worker serving the request panicked. The scheduler contains
    /// the panic (the pool keeps serving); only this request fails.
    Panicked,
    /// A failure reported across a service boundary that has no exact
    /// local variant — either the original carried non-serializable
    /// detail (a [`DecodeError`]) or it was synthesized by a remote front
    /// end ([`ErrorCode::NoHealthyWorker`]). The code and message
    /// preserve what crossed the wire.
    Remote {
        /// The original failure's wire code.
        code: ErrorCode,
        /// Human-readable detail rendered on the failing side.
        message: String,
    },
}

impl EngineError {
    /// This error's wire code (exact for every local variant;
    /// [`EngineError::Remote`] reports the code it arrived with).
    pub fn code(&self) -> ErrorCode {
        match self {
            EngineError::UnknownChunk(_) => ErrorCode::UnknownChunk,
            EngineError::EmptyChunk => ErrorCode::EmptyChunk,
            EngineError::EmptyQuery => ErrorCode::EmptyQuery,
            EngineError::TooLarge { .. } => ErrorCode::TooLarge,
            EngineError::Corrupt(_) => ErrorCode::Corrupt,
            EngineError::Storage(_) => ErrorCode::Storage,
            EngineError::Config(_) => ErrorCode::Config,
            EngineError::Canceled => ErrorCode::Canceled,
            EngineError::Panicked => ErrorCode::Panicked,
            EngineError::Remote { code, .. } => *code,
        }
    }

    /// Flattens the error into its wire representation:
    /// `(code, numeric detail, message)`. The numeric detail carries the
    /// chunk id for [`EngineError::UnknownChunk`] and the byte size for
    /// [`EngineError::TooLarge`]; variants whose payload is text put it in
    /// the message.
    pub fn to_wire(&self) -> (ErrorCode, u64, String) {
        match self {
            EngineError::UnknownChunk(id) => (ErrorCode::UnknownChunk, id.0, String::new()),
            EngineError::TooLarge { size } => (ErrorCode::TooLarge, *size, String::new()),
            EngineError::Corrupt(e) => (ErrorCode::Corrupt, 0, e.to_string()),
            EngineError::Storage(msg) => (ErrorCode::Storage, 0, msg.clone()),
            EngineError::Config(msg) => (ErrorCode::Config, 0, msg.clone()),
            EngineError::Remote { code, message } => (*code, 0, message.clone()),
            other => (other.code(), 0, String::new()),
        }
    }

    /// Reconstructs an error from its wire representation. Round-trips
    /// every variant except [`EngineError::Corrupt`], whose structured
    /// [`DecodeError`] cannot cross the wire — it (and codes with no local
    /// variant) come back as [`EngineError::Remote`] carrying the original
    /// code and rendered message.
    pub fn from_wire(code: ErrorCode, detail: u64, message: String) -> EngineError {
        match code {
            ErrorCode::UnknownChunk => EngineError::UnknownChunk(ChunkId(detail)),
            ErrorCode::EmptyChunk => EngineError::EmptyChunk,
            ErrorCode::EmptyQuery => EngineError::EmptyQuery,
            ErrorCode::TooLarge => EngineError::TooLarge { size: detail },
            ErrorCode::Storage => EngineError::Storage(message),
            ErrorCode::Config => EngineError::Config(message),
            ErrorCode::Canceled => EngineError::Canceled,
            ErrorCode::Panicked => EngineError::Panicked,
            ErrorCode::Corrupt | ErrorCode::NoHealthyWorker => {
                EngineError::Remote { code, message }
            }
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownChunk(id) => {
                write!(f, "chunk {id:?} is not registered with this engine")
            }
            EngineError::EmptyChunk => write!(f, "cannot register an empty chunk"),
            EngineError::EmptyQuery => write!(f, "request query must be non-empty"),
            EngineError::TooLarge { size } => {
                write!(f, "chunk cache of {size} bytes exceeds every store tier")
            }
            EngineError::Corrupt(e) => write!(f, "stored cache entry corrupt: {e}"),
            EngineError::Storage(msg) => write!(f, "storage backend failed: {msg}"),
            EngineError::Config(msg) => write!(f, "engine misconfigured: {msg}"),
            EngineError::Canceled => {
                write!(f, "request canceled: scheduler shut down before completion")
            }
            EngineError::Panicked => {
                write!(f, "request failed: its worker panicked while serving it")
            }
            EngineError::Remote { code, message } if message.is_empty() => {
                write!(f, "remote failure: {code:?}")
            }
            EngineError::Remote { code, message } => {
                write!(f, "remote failure ({code:?}): {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::TooLarge { size } => EngineError::TooLarge { size },
            StoreError::Corrupt(d) => EngineError::Corrupt(d),
            StoreError::Backend(m) => EngineError::Storage(m),
        }
    }
}

impl From<DecodeError> for EngineError {
    fn from(e: DecodeError) -> Self {
        EngineError::Corrupt(e)
    }
}

/// How [`Engine::submit`] picks the recompute ratio when the request does
/// not override it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RatioPolicy {
    /// Always run at the builder's [`BlendConfig::recompute_ratio`].
    Fixed,
    /// Ask the §5.1 [`LoadingController`] per request: the smallest ratio
    /// whose recomputation hides the serving tier's load delay, floored at
    /// the quality-preserving `r*`. Requires
    /// [`EngineBuilder::paper_model`].
    Auto,
}

/// Scheduling lane of a request in the
/// [`EngineService`](crate::scheduler::EngineService) admission queue.
///
/// Within a lane requests are served FIFO. High-priority requests are
/// served first, but the scheduler guarantees progress for the normal lane
/// (see [`ServiceConfig::fair_burst`](crate::scheduler::ServiceConfig)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive lane, served ahead of [`Priority::Normal`].
    High,
    /// The default lane.
    #[default]
    Normal,
}

/// One serving request: retrieved chunks (by id) plus the user query.
#[derive(Clone, Debug)]
pub struct Request {
    /// Ids of the retrieved chunks, in context order.
    pub chunk_ids: Vec<ChunkId>,
    /// The query suffix (never cached, always recomputed).
    pub query: Vec<TokenId>,
    /// Maximum tokens to decode for the answer.
    pub max_new_tokens: usize,
    /// Per-request recompute-ratio override (else the engine policy).
    pub ratio: Option<f32>,
    /// Scheduling lane when the request goes through an
    /// [`EngineService`](crate::scheduler::EngineService).
    pub priority: Priority,
    /// TTFT deadline, measured from admission-queue entry to first token.
    /// Missing it does not fail the request — the scheduler counts the
    /// miss in its [`ServiceStats`](crate::scheduler::ServiceStats).
    pub deadline: Option<Duration>,
    /// Observability trace id (0 = untraced). Carried across worker hops
    /// in `Submit` frames; the scheduler binds it to the serving thread
    /// so engine phase spans land on this request's timeline.
    pub trace: u64,
    /// Parent span id for spans recorded while serving this request
    /// (e.g. the gateway's `serve` span); 0 roots them at the trace.
    pub trace_parent: u64,
}

impl Request {
    /// A request with the default decode budget (8 tokens), normal
    /// priority, and no deadline.
    pub fn new(chunk_ids: Vec<ChunkId>, query: Vec<TokenId>) -> Self {
        Self {
            chunk_ids,
            query,
            max_new_tokens: 8,
            ratio: None,
            priority: Priority::Normal,
            deadline: None,
            trace: 0,
            trace_parent: 0,
        }
    }

    /// Sets the decode budget.
    pub fn max_new_tokens(mut self, n: usize) -> Self {
        self.max_new_tokens = n;
        self
    }

    /// Overrides the recompute ratio for this request only.
    pub fn ratio(mut self, r: f32) -> Self {
        self.ratio = Some(r);
        self
    }

    /// Sets the scheduling lane.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Sets a TTFT deadline (queue entry → first token).
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Attaches an observability trace: phase spans recorded while this
    /// request is served carry `trace` and nest under `parent` (0 for a
    /// trace root).
    pub fn trace(mut self, trace: u64, parent: u64) -> Self {
        self.trace = trace;
        self.trace_parent = parent;
        self
    }
}

/// Where each requested chunk's KV came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkSource {
    /// Served from the store; `tier` is the store tier index.
    Hit {
        /// Index of the tier that held the entry (0 = fastest).
        tier: usize,
    },
    /// Missing (never inserted or LRU-evicted); precomputed and re-inserted
    /// during this request.
    Precomputed,
}

/// Where this request's time went (measured on this process, plus the
/// paper-scale model's prediction when one is configured).
#[derive(Clone, Copy, Debug, Default)]
pub struct TtftBreakdown {
    /// Prefill spent precomputing chunk caches that missed in the store.
    pub precompute: Duration,
    /// Time the fusor sat blocked on the loader thread
    /// ([`crate::pipeline::PipelineReport::wait`]).
    pub load_wait: Duration,
    /// Time the fusor spent computing (selective recompute + suffix
    /// prefill): pipeline total minus load wait.
    pub recompute: Duration,
    /// Greedy decoding of the answer tokens.
    pub decode: Duration,
    /// Whole [`Engine::submit`] wall clock.
    pub total: Duration,
    /// Paper-scale TTFT predicted by the configured [`PerfModel`] for this
    /// request's shape, if the engine has one.
    pub modeled_ttft_s: Option<f64>,
}

/// The engine's answer to one request.
#[derive(Clone, Debug)]
pub struct Response {
    /// Greedily decoded answer tokens.
    pub answer: Vec<TokenId>,
    /// The blend output: fused cache, final residual, per-layer stats.
    /// `blend.cache` includes the decoded answer's rows (appended during
    /// generation), so it is ready for continued decoding.
    pub blend: BlendResult,
    /// Timing evidence.
    pub ttft: TtftBreakdown,
    /// Recompute ratio the request actually ran at.
    pub recompute_ratio: f32,
    /// Per-chunk provenance, in request order.
    pub chunk_sources: Vec<ChunkSource>,
}

/// One tier of an engine's [`StorageConfig`], fastest first.
#[derive(Clone, Debug)]
pub enum TierSpec {
    /// A RAM tier. The device kind names the tier and provides its
    /// delay model for the controller.
    Mem {
        /// Device this tier emulates (naming + delay model).
        device: DeviceKind,
        /// Capacity in bytes.
        capacity: u64,
    },
    /// A persistent disk tier: append-only segment logs under `dir`
    /// ([`SegmentLogBackend`]), surviving process restart. With `throttle`
    /// set, reads sleep according to the device's bandwidth/latency spec —
    /// the §5.2 device grid emulated with real I/O plus real delays.
    Disk {
        /// Device whose spec names and (optionally) throttles the tier.
        device: DeviceKind,
        /// Capacity in bytes.
        capacity: u64,
        /// Cache directory holding the log files.
        dir: PathBuf,
        /// Emulate the device's read speed with real sleeps.
        throttle: bool,
        /// Other live engines use the same `dir` (cluster replicas over
        /// one persistent tier): each appends to its own log series,
        /// entries they persist are discovered on demand, and promotion
        /// copies instead of moving. See [`SegmentLogBackend::open_shared`].
        shared: bool,
        /// Store entries int8-quantized (a *cold* tier, ~4× smaller on
        /// disk; transcoded at the tier boundary — see
        /// [`cb_kv::store::TierConfig::quantized`]).
        quantized: bool,
    },
}

impl TierSpec {
    fn device(&self) -> DeviceKind {
        match self {
            TierSpec::Mem { device, .. } | TierSpec::Disk { device, .. } => *device,
        }
    }

    fn capacity(&self) -> u64 {
        match self {
            TierSpec::Mem { capacity, .. } | TierSpec::Disk { capacity, .. } => *capacity,
        }
    }

    fn quantized(&self) -> bool {
        match self {
            TierSpec::Mem { .. } => false,
            TierSpec::Disk { quantized, .. } => *quantized,
        }
    }
}

/// The engine's storage hierarchy: an ordered list of tiers, fastest
/// first. Built fluently:
///
/// ```ignore
/// StorageConfig::default()
///     .tier(DeviceKind::CpuRam, 64 << 20)
///     .disk_tier(DeviceKind::NvmeSsd, 1 << 30, "/var/cache/cb")
/// ```
#[derive(Clone, Debug, Default)]
pub struct StorageConfig {
    /// Tier specs, fastest first. Empty means the default single 1 GiB
    /// CPU-RAM tier.
    pub tiers: Vec<TierSpec>,
}

impl StorageConfig {
    /// Appends a RAM tier.
    pub fn tier(mut self, device: DeviceKind, capacity: u64) -> Self {
        self.tiers.push(TierSpec::Mem { device, capacity });
        self
    }

    /// Appends a persistent (unthrottled) disk tier under `dir`.
    pub fn disk_tier(self, device: DeviceKind, capacity: u64, dir: impl Into<PathBuf>) -> Self {
        self.disk_tier_opts(device, capacity, dir, false)
    }

    /// Appends a persistent disk tier, optionally throttled to the
    /// device's catalogue read speed.
    pub fn disk_tier_opts(
        mut self,
        device: DeviceKind,
        capacity: u64,
        dir: impl Into<PathBuf>,
        throttle: bool,
    ) -> Self {
        self.tiers.push(TierSpec::Disk {
            device,
            capacity,
            dir: dir.into(),
            throttle,
            shared: false,
            quantized: false,
        });
        self
    }

    /// Identity: every disk tier is a segment log. Kept only because
    /// existing benchmark code still calls it.
    #[doc(hidden)]
    pub fn packed_log(self) -> Self {
        self
    }

    /// Marks the most recently appended disk tier as a quantized *cold*
    /// tier: entries land int8-quantized (~4× smaller on disk) and are
    /// dequantized as they promote out. No-op on a RAM tier.
    pub fn quantized(mut self) -> Self {
        if let Some(TierSpec::Disk { quantized, .. }) = self.tiers.last_mut() {
            *quantized = true;
        }
        self
    }

    /// Appends the full cold tier in one call: a disk tier with int8
    /// quantization — the archival bottom of a RAM → disk → cold
    /// hierarchy.
    pub fn cold_tier(self, device: DeviceKind, capacity: u64, dir: impl Into<PathBuf>) -> Self {
        self.disk_tier(device, capacity, dir).quantized()
    }

    /// Appends a persistent disk tier whose log dir is *shared* with other
    /// live engines (cluster replicas all backed by one persistent tier).
    /// Entries persisted by any sibling are servable by every engine over
    /// the dir.
    pub fn shared_disk_tier(
        mut self,
        device: DeviceKind,
        capacity: u64,
        dir: impl Into<PathBuf>,
        throttle: bool,
    ) -> Self {
        self.tiers.push(TierSpec::Disk {
            device,
            capacity,
            dir: dir.into(),
            throttle,
            shared: true,
            quantized: false,
        });
        self
    }
}

/// Builder for [`Engine`].
#[derive(Debug)]
pub struct EngineBuilder {
    profile: ModelProfile,
    seed: u64,
    model: Option<Model>,
    storage: StorageConfig,
    blend: BlendConfig,
    paper: Option<PaperModel>,
    ratio_policy: RatioPolicy,
    emulate_load_delay: bool,
}

impl EngineBuilder {
    /// Starts a builder for a model profile with defaults: seed 11, one
    /// 1 GiB CPU-RAM store tier, default [`BlendConfig`], fixed ratio,
    /// no load-delay emulation.
    pub fn new(profile: ModelProfile) -> Self {
        Self {
            profile,
            seed: 11,
            model: None,
            storage: StorageConfig::default(),
            blend: BlendConfig::default(),
            paper: None,
            ratio_policy: RatioPolicy::Fixed,
            emulate_load_delay: false,
        }
    }

    /// Sets the model compilation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses an already-compiled model instead of compiling one from the
    /// profile/seed.
    pub fn model(mut self, model: Model) -> Self {
        self.model = Some(model);
        self
    }

    /// Appends a RAM store tier (declare fastest first). The device kind
    /// names the tier and provides its load-delay model.
    pub fn tier(mut self, device: DeviceKind, capacity_bytes: u64) -> Self {
        self.storage = self.storage.tier(device, capacity_bytes);
        self
    }

    /// Appends a persistent disk store tier under `dir` (declare fastest
    /// first). Entries spilled or persisted to it survive process restart;
    /// a rebuilt engine over the same `dir` serves them without
    /// re-precompute.
    pub fn disk_tier(
        mut self,
        device: DeviceKind,
        capacity_bytes: u64,
        dir: impl Into<PathBuf>,
    ) -> Self {
        self.storage = self.storage.disk_tier(device, capacity_bytes, dir);
        self
    }

    /// Replaces the whole storage hierarchy with an explicit
    /// [`StorageConfig`].
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    /// Sets the fusor configuration (ratio, gamma, selection policy).
    pub fn blend_config(mut self, cfg: BlendConfig) -> Self {
        self.blend = cfg;
        self
    }

    /// Attaches a paper-scale delay model: enables the [`RatioPolicy::Auto`]
    /// controller and `modeled_ttft_s` in responses.
    pub fn paper_model(mut self, paper: PaperModel) -> Self {
        self.paper = Some(paper);
        self
    }

    /// Sets how the recompute ratio is chosen per request.
    pub fn ratio_policy(mut self, policy: RatioPolicy) -> Self {
        self.ratio_policy = policy;
        self
    }

    /// When set, the loader thread sleeps per layer according to the
    /// serving tier's device read time — end-to-end tests of the §5
    /// pipelining overlap use this. Don't combine it with a *throttled*
    /// disk tier ([`StorageConfig::disk_tier_opts`]): the device delay
    /// would be charged twice.
    pub fn emulate_load_delay(mut self, on: bool) -> Self {
        self.emulate_load_delay = on;
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// [`EngineError::Config`] if [`RatioPolicy::Auto`] was requested
    /// without a paper model, or a tier has zero capacity.
    pub fn build(self) -> Result<Engine, EngineError> {
        if self.ratio_policy == RatioPolicy::Auto && self.paper.is_none() {
            return Err(EngineError::Config(
                "RatioPolicy::Auto requires EngineBuilder::paper_model".into(),
            ));
        }
        let specs = if self.storage.tiers.is_empty() {
            vec![TierSpec::Mem {
                device: DeviceKind::CpuRam,
                capacity: 1 << 30,
            }]
        } else {
            self.storage.tiers
        };
        if specs.iter().any(|t| t.capacity() == 0) {
            return Err(EngineError::Config("store tier with zero capacity".into()));
        }
        let tier_devices: Vec<DeviceKind> = specs.iter().map(|t| t.device()).collect();
        let mut tiers: Vec<(TierConfig, Arc<dyn StorageBackend>)> = Vec::with_capacity(specs.len());
        for spec in specs {
            let mut cfg = TierConfig::new(spec.device().spec().name, spec.capacity());
            cfg.quantized = spec.quantized();
            let backend: Arc<dyn StorageBackend> = match spec {
                TierSpec::Mem { .. } => Arc::new(MemBackend::new()),
                TierSpec::Disk {
                    device,
                    dir,
                    throttle,
                    shared,
                    ..
                } => {
                    let throttle = throttle.then(|| Throttle::device(device));
                    let backend = if shared {
                        SegmentLogBackend::open_shared(dir, throttle)
                    } else {
                        SegmentLogBackend::new(dir, throttle)
                    };
                    Arc::new(backend.map_err(|e| EngineError::Storage(e.to_string()))?)
                }
            };
            tiers.push((cfg, backend));
        }
        let store = KvStore::with_backends(tiers);
        let model = self
            .model
            .unwrap_or_else(|| Model::compiled(ModelConfig::standard(self.profile, self.seed)));
        let controller = self
            .paper
            .map(|p| LoadingController::new(PerfModel::on_a40(p)));
        Ok(Engine {
            core: Arc::new(EngineCore {
                // One request's layers until a service says how many can
                // be in flight (`EngineService::new`).
                layers: LayerPool::new(model.n_layers()),
                model,
                store,
                tier_devices,
                blend: self.blend,
                ratio_policy: self.ratio_policy,
                controller,
                emulate_load_delay: self.emulate_load_delay,
                registry: Mutex::new(HashMap::new()),
            }),
        })
    }
}

/// The CacheBlend serving engine — a cheaply cloneable handle whose state
/// (model, tiered store, chunk registry) lives behind an [`Arc`], so
/// clones share one deployment. The
/// [`EngineService`](crate::scheduler::EngineService) workers each hold a
/// clone. See the module docs for the lifecycle.
#[derive(Clone, Debug)]
pub struct Engine {
    core: Arc<EngineCore>,
}

#[derive(Debug)]
struct EngineCore {
    model: Model,
    store: KvStore,
    tier_devices: Vec<DeviceKind>,
    blend: BlendConfig,
    ratio_policy: RatioPolicy,
    controller: Option<LoadingController>,
    emulate_load_delay: bool,
    /// Registered chunk tokens, for precompute-on-miss after LRU eviction.
    registry: Mutex<HashMap<ChunkId, Vec<TokenId>>>,
    /// Free list of fused-cache layers: blends take from it,
    /// [`Engine::recycle`] gives back.
    layers: LayerPool,
}

impl Engine {
    /// The engine's model (for vocabulary access and baselines).
    pub fn model(&self) -> &Model {
        &self.core.model
    }

    /// The tiered KV store (for stats and capacity inspection).
    pub fn store(&self) -> &KvStore {
        &self.core.store
    }

    /// The engine's loading controller, when a paper model is configured.
    pub fn controller(&self) -> Option<&LoadingController> {
        self.core.controller.as_ref()
    }

    /// Registers a chunk: content-hashes the tokens, precomputes its
    /// standalone KV cache if the store does not already hold it, and
    /// returns the chunk's id for use in [`Request::chunk_ids`].
    pub fn register_chunk(&self, tokens: &[TokenId]) -> Result<ChunkId, EngineError> {
        self.core.register_chunk(tokens)
    }

    /// Registers many chunks, returning ids in input order.
    pub fn register_chunks(&self, chunks: &[Vec<TokenId>]) -> Result<Vec<ChunkId>, EngineError> {
        chunks.iter().map(|c| self.register_chunk(c)).collect()
    }

    /// Registers a chunk *without* precomputing its KV cache: only the
    /// tokens enter the registry, and the cache is computed on the chunk's
    /// first use (charged to that request as a store miss). Use this when
    /// registration must not pay the precompute up front — e.g. serving
    /// backends that measure cold-start admissions.
    pub fn register_chunk_lazy(&self, tokens: &[TokenId]) -> Result<ChunkId, EngineError> {
        self.core.register_tokens(tokens)
    }

    /// Forgets a chunk: drops its tokens from the registry *and* its KV
    /// entry from the store, so both the registry retention and the
    /// entry's resident bytes are reclaimed. Long-running deployments
    /// whose chunk corpus churns should unregister retired chunks. After
    /// this, requests naming `id` fail with [`EngineError::UnknownChunk`].
    pub fn unregister_chunk(&self, id: ChunkId) -> bool {
        let registered = self.core.registry.lock().remove(&id).is_some();
        let stored = self.core.store.remove(id);
        registered || stored
    }

    /// Number of chunks currently registered.
    pub fn registered_chunks(&self) -> usize {
        self.core.registry.lock().len()
    }

    /// Demotes every RAM-resident store entry to the persistent tier (if
    /// one is configured) and flushes it, so the KV state survives this
    /// process. An engine rebuilt over the same cache dir then serves
    /// re-registered chunks without re-precompute.
    pub fn persist(&self) -> Result<(), EngineError> {
        self.core.store.persist().map_err(EngineError::from)
    }

    /// Blocks until every storage backend's write-behind queue is durable.
    pub fn flush_storage(&self) -> Result<(), EngineError> {
        self.core.store.flush().map_err(EngineError::from)
    }

    /// Hands back a fused cache nobody will read again — a finished
    /// [`Response`]'s `blend.cache`: its layers return to the free list
    /// the next blends build their fused caches in, up to the list's
    /// bound. Without this the cache is simply freed, and the next
    /// request allocates (and faults in) a fresh one.
    pub fn recycle(&self, cache: KvCache) {
        self.core.layers.put(cache.layers);
    }

    /// The free list of fused-cache layers (see [`Engine::recycle`]).
    pub(crate) fn layer_pool(&self) -> &LayerPool {
        &self.core.layers
    }
}

impl EngineCore {
    fn register_tokens(&self, tokens: &[TokenId]) -> Result<ChunkId, EngineError> {
        if tokens.is_empty() {
            return Err(EngineError::EmptyChunk);
        }
        let id = hash_tokens(tokens);
        // Content-addressed: a present entry already holds these tokens,
        // so re-registration allocates nothing.
        self.registry
            .lock()
            .entry(id)
            .or_insert_with(|| tokens.to_vec());
        Ok(id)
    }

    fn register_chunk(&self, tokens: &[TokenId]) -> Result<ChunkId, EngineError> {
        let id = self.register_tokens(tokens)?;
        if !self.store.contains(id) {
            self.precompute_into_store(id, tokens)?;
        }
        Ok(id)
    }

    fn precompute_into_store(
        &self,
        id: ChunkId,
        tokens: &[TokenId],
    ) -> Result<bytes::Bytes, EngineError> {
        let cache = cb_kv::precompute::precompute_chunk(&self.model, tokens);
        let bytes = encode(&cache);
        self.store.insert_bytes(id, bytes.clone())?;
        // A concurrent unregister_chunk may have run between our registry
        // read and this insert; it removes the registry entry *before* the
        // store entry, so if the registry no longer names the chunk we
        // must undo the insert ourselves or the bytes leak unreachably
        // (the in-flight request still serves from `bytes`).
        if !self.registry.lock().contains_key(&id) {
            self.store.remove(id);
        }
        Ok(bytes)
    }

    /// Everything up to and including the `FirstToken` emission: chunk
    /// fetch/repair, ratio selection, and the blend. The returned
    /// [`Prefilled`] carries what decode needs, so the scheduler can hand
    /// it to its shared decode loop while this worker prefills the next
    /// request (blend/decode overlap).
    fn prefill_streaming(
        &self,
        request: &Request,
        emit: &mut dyn FnMut(Event),
    ) -> Result<Prefilled, EngineError> {
        if request.query.is_empty() {
            return Err(EngineError::EmptyQuery);
        }
        let t0 = Instant::now();

        // Store lookup per chunk: a hit *prefetches* (disk-resident
        // entries start streaming layer blocks immediately, ahead of the
        // fusor); a miss is repaired by precompute. The hit path only
        // needs the chunk's length — the token vector is cloned out of the
        // registry solely when a miss must be re-precomputed.
        let mut parts: Vec<PrefetchHandle> = Vec::with_capacity(request.chunk_ids.len());
        let mut chunk_sources = Vec::with_capacity(request.chunk_ids.len());
        let mut slowest_tier = 0usize;
        let mut hit_rows = 0usize;
        let mut miss_rows = 0usize;
        let mut precompute = Duration::ZERO;
        let fetch_span = cb_obs::trace::Span::begin("prefill.fetch");
        for &id in &request.chunk_ids {
            let chunk_len = self
                .registry
                .lock()
                .get(&id)
                .map(Vec::len)
                .ok_or(EngineError::UnknownChunk(id))?;
            match self.store.prefetch(id)? {
                Some(handle) => {
                    slowest_tier = slowest_tier.max(handle.tier());
                    hit_rows += chunk_len;
                    chunk_sources.push(ChunkSource::Hit {
                        tier: handle.tier(),
                    });
                    parts.push(handle);
                }
                None => {
                    let tokens = self
                        .registry
                        .lock()
                        .get(&id)
                        .cloned()
                        .ok_or(EngineError::UnknownChunk(id))?;
                    let t = Instant::now();
                    let bytes = self.precompute_into_store(id, &tokens)?;
                    precompute += t.elapsed();
                    miss_rows += chunk_len;
                    chunk_sources.push(ChunkSource::Precomputed);
                    // Served from the just-computed bytes (RAM), whatever
                    // tier the store placed the entry on.
                    parts.push(PrefetchHandle::from_bytes(bytes, 0)?);
                }
            }
        }
        fetch_span.end();
        let ctx_rows = hit_rows + miss_rows;

        // The serving tier is the slowest tier any hit came from; its
        // device model drives the controller and delay emulation.
        let device = self.tier_devices[slowest_tier.min(self.tier_devices.len() - 1)];
        let recompute_ratio = match request.ratio {
            Some(r) => r,
            None => match self.ratio_policy {
                RatioPolicy::Fixed => self.blend.recompute_ratio,
                RatioPolicy::Auto => {
                    let ctl = self.controller.as_ref().expect("checked at build");
                    ctl.pick_ratio(ctx_rows.max(1), device) as f32
                }
            },
        };
        let cfg = BlendConfig {
            recompute_ratio,
            ..self.blend
        };
        let throttle = if self.emulate_load_delay {
            let mut total_bytes = 0usize;
            for h in &mut parts {
                total_bytes += h.meta().map_err(EngineError::from)?.entry_len();
            }
            let per_layer = total_bytes as f64 / self.model.n_layers() as f64;
            Some(Duration::from_secs_f64(device.read_time(per_layer)))
        } else {
            None
        };

        let blend_span = cb_obs::trace::Span::begin("prefill.blend");
        let out = blend_prefetched_pooled(
            &self.model,
            cfg,
            parts,
            &request.query,
            throttle,
            false,
            &self.layers,
            request.max_new_tokens,
        )?;
        blend_span.end();

        // Prefill is complete — the next computed row is the first answer
        // token. The breakdown emitted here is the TTFT measurement;
        // `decode`/`total` are finalized in the response's copy.
        let ttft = TtftBreakdown {
            precompute,
            load_wait: out.report.wait,
            recompute: out.report.total.saturating_sub(out.report.wait),
            decode: Duration::ZERO,
            total: t0.elapsed(),
            // Charge hits as pipelined blend from the serving tier and
            // misses as full prefill — the same split the serving
            // simulator charges via [`blend_admission`].
            modeled_ttft_s: self.controller.as_ref().map(|c| {
                blend_admission(
                    &c.perf,
                    device,
                    recompute_ratio as f64,
                    hit_rows,
                    miss_rows,
                    request.query.len(),
                )
                .ttft_s
            }),
        };
        emit(Event::FirstToken(ttft));
        Ok(Prefilled {
            blend: out.result,
            ttft,
            recompute_ratio,
            chunk_sources,
            max_new_tokens: request.max_new_tokens,
            started: t0,
        })
    }
}

/// A request that has completed prefill (blend done, `FirstToken` emitted)
/// but not yet decoded; produced by `EngineCore::prefill_streaming`,
/// decoded in a [`DecodeBatch`] — a batch of one under [`Engine::submit`],
/// the scheduler's shared batch under an
/// [`EngineService`](crate::scheduler::EngineService).
pub(crate) struct Prefilled {
    pub(crate) blend: BlendResult,
    pub(crate) ttft: TtftBreakdown,
    pub(crate) recompute_ratio: f32,
    pub(crate) chunk_sources: Vec<ChunkSource>,
    pub(crate) max_new_tokens: usize,
    pub(crate) started: Instant,
}

impl Prefilled {
    /// Admits this request to `batch`: the fused cache moves into the
    /// batch slot and comes back, with the answer's rows appended, through
    /// [`Prefilled::finish`].
    pub(crate) fn admit(&mut self, model: &Model, batch: &mut DecodeBatch) -> SeqId {
        let cache = std::mem::replace(&mut self.blend.cache, KvCache::empty(0, 0));
        batch.admit(model, cache, &self.blend.last_residual, self.max_new_tokens)
    }

    /// The request's [`Response`] once its sequence retired from the batch
    /// (`decode_started` is when it was admitted): the only place a
    /// `Response` is built.
    pub(crate) fn finish(self, fin: FinishedSeq, decode_started: Instant) -> Response {
        let Prefilled {
            mut blend,
            mut ttft,
            recompute_ratio,
            chunk_sources,
            started,
            max_new_tokens: _,
        } = self;
        blend.cache = fin.cache;
        ttft.decode = decode_started.elapsed();
        ttft.total = started.elapsed();
        Response {
            answer: fin.tokens,
            blend,
            ttft,
            recompute_ratio,
            chunk_sources,
        }
    }
}

impl Engine {
    /// Serves one request. See the module docs for the lifecycle; returns
    /// the decoded answer plus blend statistics and a TTFT breakdown. The
    /// answer is decoded as a [`DecodeBatch`] of one — the loop an
    /// [`EngineService`](crate::scheduler::EngineService) steps, so both
    /// front doors produce the same bits.
    pub fn submit(&self, request: Request) -> Result<Response, EngineError> {
        let mut prefilled = self.core.prefill_streaming(&request, &mut |_| {})?;
        let decode_started = Instant::now();
        let decode_span = cb_obs::trace::Span::begin("decode");
        let mut batch = DecodeBatch::new();
        prefilled.admit(self.model(), &mut batch);
        let (_, fin) = batch
            .run_to_completion(self.model(), &mut |_, _| {})
            .pop()
            .expect("the admitted sequence retires");
        decode_span.end();
        Ok(prefilled.finish(fin, decode_started))
    }

    /// The prefill half of a request (through the `FirstToken` emission);
    /// the scheduler pairs it with its shared [`DecodeBatch`] loop.
    pub(crate) fn prefill_streaming(
        &self,
        request: &Request,
        emit: &mut dyn FnMut(Event),
    ) -> Result<Prefilled, EngineError> {
        self.core.prefill_streaming(request, emit)
    }
}

/// Paper-scale admission cost of one blended request: cached context is
/// loaded pipelined with selective recompute, missed context and the query
/// are prefilled in full. `ttft_s` is the request's latency contribution;
/// `gpu_s` is the GPU busy time it leaves behind (loading overlaps compute,
/// so they differ). This is the engine's delay model — the serving
/// simulator's CacheBlend arm goes through it rather than re-deriving the
/// formula.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionCost {
    /// Seconds until the first token (queueing excluded).
    pub ttft_s: f64,
    /// GPU-seconds of compute consumed.
    pub gpu_s: f64,
}

/// Computes the [`AdmissionCost`] of a blended request with `hit_tokens`
/// of cached context on `device`, `miss_tokens` of uncached context, and a
/// `query_tokens` suffix.
pub fn blend_admission(
    perf: &PerfModel,
    device: DeviceKind,
    ratio: f64,
    hit_tokens: usize,
    miss_tokens: usize,
    query_tokens: usize,
) -> AdmissionCost {
    let (blend_ttft, blend_gpu) = if hit_tokens > 0 {
        (
            perf.ttft_blend(ratio, hit_tokens, 0, device),
            perf.blend_compute_time(ratio, hit_tokens, 0),
        )
    } else {
        (0.0, 0.0)
    };
    let miss = perf.ttft_full_prefill(miss_tokens + query_tokens);
    AdmissionCost {
        ttft_s: blend_ttft + miss,
        gpu_s: blend_gpu + miss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{EngineService, ServiceConfig};
    use cb_tokenizer::TokenKind::*;

    fn engine() -> Engine {
        EngineBuilder::new(ModelProfile::Tiny).build().unwrap()
    }

    fn scenario(e: &Engine) -> (Vec<TokenId>, Vec<TokenId>, Vec<TokenId>, TokenId) {
        let v = &e.model().cfg.vocab;
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
        (c1, c2, q, v.id(Value(9)))
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
    }

    #[test]
    fn submit_answers_the_cross_chunk_query() {
        let e = engine();
        let (c1, c2, q, gold) = scenario(&e);
        let ids = e.register_chunks(&[c1, c2]).unwrap();
        let resp = e
            .submit(Request::new(ids, q).ratio(0.45).max_new_tokens(4))
            .unwrap();
        assert_eq!(resp.answer, vec![gold]);
        assert!(resp
            .chunk_sources
            .iter()
            .all(|s| matches!(s, ChunkSource::Hit { tier: 0 })));
        assert_eq!(resp.blend.stats.ctx_len, 13); // BOS + 4 + 8
    }

    #[test]
    fn unknown_chunk_is_an_error() {
        let e = engine();
        let (_, _, q, _) = scenario(&e);
        let err = e.submit(Request::new(vec![ChunkId(42)], q)).unwrap_err();
        assert_eq!(err, EngineError::UnknownChunk(ChunkId(42)));
    }

    #[test]
    fn empty_query_is_an_error() {
        let e = engine();
        let err = e.submit(Request::new(vec![], vec![])).unwrap_err();
        assert_eq!(err, EngineError::EmptyQuery);
    }

    #[test]
    fn empty_chunk_is_an_error() {
        let e = engine();
        assert_eq!(e.register_chunk(&[]).unwrap_err(), EngineError::EmptyChunk);
    }

    #[test]
    fn evicted_entries_are_precomputed_on_miss() {
        // A store sized for one entry forces the first chunk out when the
        // second is registered; submit must repair it transparently.
        let e0 = engine();
        let (c1, c2, q, gold) = scenario(&e0);
        let entry_size = {
            let cache = cb_kv::precompute::precompute_chunk(e0.model(), &c2);
            encode(&cache).len() as u64
        };
        let e = EngineBuilder::new(ModelProfile::Tiny)
            .tier(DeviceKind::CpuRam, entry_size + entry_size / 4)
            .build()
            .unwrap();
        let ids = e.register_chunks(&[c1, c2]).unwrap();
        assert_eq!(e.store().len(), 1, "tiny tier must have evicted");
        let resp = e
            .submit(Request::new(ids, q).ratio(0.45).max_new_tokens(4))
            .unwrap();
        assert_eq!(resp.answer, vec![gold]);
        assert!(resp.chunk_sources.contains(&ChunkSource::Precomputed));
        assert!(resp.ttft.precompute > Duration::ZERO);
    }

    #[test]
    fn corrupt_store_entry_surfaces_unified_error() {
        let e = engine();
        let (c1, _, q, _) = scenario(&e);
        let id = e.register_chunk(&c1).unwrap();
        assert!(e.store().corrupt(id, 40));
        let err = e.submit(Request::new(vec![id], q)).unwrap_err();
        assert!(matches!(err, EngineError::Corrupt(_)));
    }

    #[test]
    fn auto_policy_requires_paper_model() {
        let err = EngineBuilder::new(ModelProfile::Tiny)
            .ratio_policy(RatioPolicy::Auto)
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::Config(_)));
    }

    #[test]
    fn auto_policy_floors_at_quality_ratio() {
        let e = EngineBuilder::new(ModelProfile::Tiny)
            .paper_model(PaperModel::Mistral7B)
            .ratio_policy(RatioPolicy::Auto)
            .build()
            .unwrap();
        let (c1, c2, q, _) = scenario(&e);
        let ids = e.register_chunks(&[c1, c2]).unwrap();
        let resp = e.submit(Request::new(ids, q)).unwrap();
        // The engine must run at exactly the controller's pick for this
        // context length and tier, which is itself floored at r* = 15%.
        let expect =
            e.controller()
                .unwrap()
                .pick_ratio(resp.blend.stats.ctx_len - 1, DeviceKind::CpuRam) as f32;
        assert!((resp.recompute_ratio - expect).abs() < 1e-6);
        assert!(resp.recompute_ratio >= 0.15);
        assert!(resp.ttft.modeled_ttft_s.unwrap() > 0.0);
    }

    #[test]
    fn unregister_bounds_the_registry() {
        let e = engine();
        let (c1, c2, q, _) = scenario(&e);
        let ids = e.register_chunks(&[c1, c2]).unwrap();
        assert_eq!(e.registered_chunks(), 2);
        assert!(e.unregister_chunk(ids[0]));
        assert!(!e.unregister_chunk(ids[0]), "second removal is a no-op");
        assert_eq!(e.registered_chunks(), 1);
        let err = e.submit(Request::new(ids.clone(), q)).unwrap_err();
        assert_eq!(err, EngineError::UnknownChunk(ids[0]));
    }

    #[test]
    fn unregister_reclaims_store_capacity() {
        // Regression: unregistering used to drop only the registry tokens
        // and leave the serialized KV entry resident, so the "freed"
        // capacity could never be reused.
        let e = engine();
        let (c1, c2, _, _) = scenario(&e);
        let ids = e.register_chunks(&[c1, c2]).unwrap();
        let used_both = e.store().tier_used(0);
        assert!(used_both > 0);
        assert!(e.unregister_chunk(ids[0]));
        assert!(!e.store().contains(ids[0]), "KV entry must be dropped too");
        assert!(e.store().tier_used(0) < used_both);
        assert!(e.unregister_chunk(ids[1]));
        assert_eq!(e.store().tier_used(0), 0, "all bytes reclaimed");
        assert_eq!(e.store().len(), 0);
    }

    #[test]
    fn lazy_registration_defers_precompute_to_first_use() {
        let e = engine();
        let (c1, _, q, _) = scenario(&e);
        let id = e.register_chunk_lazy(&c1).unwrap();
        assert!(!e.store().contains(id), "no KV precomputed at registration");
        assert_eq!(e.registered_chunks(), 1);
        let resp = e.submit(Request::new(vec![id], q).ratio(0.45)).unwrap();
        assert_eq!(resp.chunk_sources, vec![ChunkSource::Precomputed]);
        assert!(e.store().contains(id), "first use populated the store");
    }

    #[test]
    fn engine_clones_share_state() {
        let e = engine();
        let (c1, _, q, _) = scenario(&e);
        let clone = e.clone();
        let id = clone.register_chunk(&c1).unwrap();
        assert_eq!(e.registered_chunks(), 1, "clones share the registry");
        assert!(e.store().contains(id));
        let resp = e.submit(Request::new(vec![id], q).ratio(0.45)).unwrap();
        assert_eq!(resp.chunk_sources, vec![ChunkSource::Hit { tier: 0 }]);
    }

    #[test]
    fn modeled_ttft_charges_misses_as_prefill() {
        // Same request shape, warm vs cold store: the cold request's
        // modeled TTFT must carry the full-prefill term for its misses,
        // matching what blend_admission charges the simulator.
        let (c1, c2, q, _) = scenario(&engine());
        let build = |cap: Option<u64>| {
            let mut b = EngineBuilder::new(ModelProfile::Tiny).paper_model(PaperModel::Mistral7B);
            if let Some(cap) = cap {
                b = b.tier(DeviceKind::CpuRam, cap);
            }
            b.build().unwrap()
        };
        let warm = build(None);
        let ids = warm.register_chunks(&[c1.clone(), c2.clone()]).unwrap();
        let warm_resp = warm
            .submit(Request::new(ids, q.clone()).ratio(0.3))
            .unwrap();

        let entry = {
            let cache = cb_kv::precompute::precompute_chunk(warm.model(), &c2);
            encode(&cache).len() as u64
        };
        let cold = build(Some(entry + entry / 4));
        let ids = cold.register_chunks(&[c1, c2]).unwrap();
        let cold_resp = cold.submit(Request::new(ids, q).ratio(0.3)).unwrap();
        assert!(cold_resp.chunk_sources.contains(&ChunkSource::Precomputed));
        let (w, c) = (
            warm_resp.ttft.modeled_ttft_s.unwrap(),
            cold_resp.ttft.modeled_ttft_s.unwrap(),
        );
        assert!(c > w, "cold modeled TTFT {c} must exceed warm {w}");
    }

    #[test]
    fn recycled_layers_are_kept_up_to_what_can_be_in_flight() {
        // A bare engine keeps one request's layers; a service raises the
        // bound to (workers + batch slots + handoff slots) requests' worth
        // and no knob exists. Recycling past the bound leaves the pool at
        // the bound.
        let e = engine();
        let (n, width) = (e.model().n_layers(), e.model().cfg.kv_width());
        let dead = || KvCache::empty(n, width);
        assert_eq!(e.layer_pool().bound(), n);
        for _ in 0..3 {
            e.recycle(dead());
        }
        assert_eq!(e.layer_pool().len(), n);
        let _service = EngineService::new(
            e.clone(),
            ServiceConfig::default().workers(2).decode_batch(4),
        );
        assert_eq!(e.layer_pool().bound(), 10 * n);
        for _ in 0..12 {
            e.recycle(dead());
        }
        assert_eq!(e.layer_pool().len(), 10 * n);
    }

    fn test_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "cb-engine-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn disk_tier_serves_spilled_chunks() {
        // RAM sized below one entry: every registered chunk falls through
        // to the disk tier, and submit streams it back layer by layer.
        let dir = test_dir("serve");
        let e = EngineBuilder::new(ModelProfile::Tiny)
            .storage(
                StorageConfig::default()
                    .tier(DeviceKind::CpuRam, 64)
                    .disk_tier(DeviceKind::NvmeSsd, 1 << 30, &dir),
            )
            .build()
            .unwrap();
        let (c1, c2, q, gold) = scenario(&e);
        let ids = e.register_chunks(&[c1, c2]).unwrap();
        assert!(ids.iter().all(|&id| e.store().tier_of(id) == Some(1)));
        let resp = e
            .submit(Request::new(ids, q).ratio(0.45).max_new_tokens(4))
            .unwrap();
        assert_eq!(resp.answer, vec![gold]);
        assert!(resp
            .chunk_sources
            .iter()
            .all(|s| matches!(s, ChunkSource::Hit { tier: 1 })));
        assert!(e.store().stats().loaded_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_rebuilt_on_cache_dir_serves_without_recompute() {
        // The acceptance scenario: persist, drop the engine, rebuild over
        // the same cache dir, re-register the same chunks (content hashes
        // match the recovered entries) and serve warm.
        let dir = test_dir("rebuild");
        let build = || {
            EngineBuilder::new(ModelProfile::Tiny)
                .disk_tier(DeviceKind::NvmeSsd, 1 << 30, &dir)
                .build()
                .unwrap()
        };
        let (c1, c2, q, gold) = {
            let e = build();
            let (c1, c2, q, gold) = scenario(&e);
            let ids = e.register_chunks(&[c1.clone(), c2.clone()]).unwrap();
            assert_eq!(e.store().stats().inserts, 2, "cold registration computes");
            let resp = e
                .submit(Request::new(ids, q.clone()).ratio(0.45).max_new_tokens(4))
                .unwrap();
            assert_eq!(resp.answer, vec![gold]);
            e.persist().unwrap();
            (c1, c2, q, gold)
        };

        let e = build();
        assert_eq!(e.store().len(), 2, "recovered from the cache dir");
        let ids = e.register_chunks(&[c1, c2]).unwrap();
        assert_eq!(
            e.store().stats().inserts,
            0,
            "re-registration must not re-precompute"
        );
        let resp = e
            .submit(Request::new(ids, q).ratio(0.45).max_new_tokens(4))
            .unwrap();
        assert_eq!(resp.answer, vec![gold], "warm answer served from disk");
        assert!(resp
            .chunk_sources
            .iter()
            .all(|s| matches!(s, ChunkSource::Hit { .. })));
        assert!(
            resp.ttft.precompute == Duration::ZERO,
            "no recompute charged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unregister_reclaims_disk_tier_too() {
        let dir = test_dir("unregister");
        let e = EngineBuilder::new(ModelProfile::Tiny)
            .tier(DeviceKind::CpuRam, 1 << 20)
            .disk_tier(DeviceKind::NvmeSsd, 1 << 30, &dir)
            .build()
            .unwrap();
        let (c1, _, _, _) = scenario(&e);
        let id = e.register_chunk(&c1).unwrap();
        assert_eq!(e.store().tier_of(id), Some(0));
        e.persist().unwrap();
        assert_eq!(e.store().tier_of(id), Some(1));
        assert!(e.unregister_chunk(id));
        e.flush_storage().unwrap();
        assert!(!e.store().contains(id));
        assert_eq!(e.store().used_bytes(), 0, "both tiers reclaimed");
        // A rebuilt engine must not resurrect the unregistered chunk.
        drop(e);
        let e2 = EngineBuilder::new(ModelProfile::Tiny)
            .disk_tier(DeviceKind::NvmeSsd, 1 << 30, &dir)
            .build()
            .unwrap();
        assert_eq!(e2.store().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_cost_orders_sensibly() {
        let perf = PerfModel::on_a40(PaperModel::Yi34B);
        let warm = blend_admission(&perf, DeviceKind::NvmeSsd, 0.15, 3072, 0, 32);
        let cold = blend_admission(&perf, DeviceKind::NvmeSsd, 0.15, 0, 3072, 32);
        assert!(
            warm.ttft_s < cold.ttft_s,
            "{} !< {}",
            warm.ttft_s,
            cold.ttft_s
        );
        assert!(warm.gpu_s < cold.gpu_s);
        assert!(cold.ttft_s == cold.gpu_s, "cold path is pure prefill");
    }
}
