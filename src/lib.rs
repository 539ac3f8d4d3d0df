//! # CacheBlend (Rust reproduction)
//!
//! A from-scratch Rust reproduction of *CacheBlend: Fast Large Language Model
//! Serving for RAG with Cached Knowledge Fusion* (Yao et al., EuroSys 2025).
//!
//! This facade crate re-exports the workspace crates:
//!
//! - [`tensor`] — dense f32 kernels (matmul, softmax, RoPE, statistics).
//! - [`tokenizer`] — structured vocabulary and token codes.
//! - [`model`] — the from-scratch transformer with full/prefix/selective
//!   prefill and the compiled cross-chunk recall program.
//! - [`kv`] — the KV cache store: hashing, serialization with per-layer
//!   checksums, the tiered RAM↔disk LRU store, and layer-granular
//!   prefetch.
//! - [`storage`] — storage device models, delay/cost estimators, and the
//!   real byte backends (RAM map, persistent segment logs).
//! - [`blend`] — the CacheBlend fusor, loading controller, pipeline, the
//!   request-oriented [`engine`], and the streaming [`scheduler`]
//!   ([`EngineService`](cb_core::scheduler::EngineService)).
//! - [`baselines`] — full recompute, prefix caching, full KV reuse,
//!   MapReduce, MapRerank.
//! - [`rag`] — chunking, embeddings, vector index, synthetic datasets,
//!   F1/Rouge-L metrics.
//! - [`serving`] — discrete-event serving simulator and threaded pipeline.
//!
//! Most programs only need the [`engine`] front door:
//!
//! ```
//! use cacheblend::prelude::*;
//!
//! let engine = EngineBuilder::new(ModelProfile::Tiny)
//!     .build()
//!     .expect("engine");
//! let v = engine.model().cfg.vocab.clone();
//! use cacheblend::tokenizer::TokenKind::*;
//! let chunk = engine
//!     .register_chunk(&[v.id(Entity(5)), v.id(Attr(0)), v.id(Value(1)), v.id(Sep)])
//!     .unwrap();
//! let response = engine
//!     .submit(Request::new(
//!         vec![chunk],
//!         vec![v.id(Query), v.id(Entity(5)), v.id(Attr(0)), v.id(QMark)],
//!     ))
//!     .unwrap();
//! assert!(!response.answer.is_empty());
//! ```
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory
//! and per-experiment index.

pub use cb_baselines as baselines;
pub use cb_core as blend;
pub use cb_kv as kv;
pub use cb_model as model;
pub use cb_net as net;
pub use cb_obs as obs;
pub use cb_rag as rag;
pub use cb_serving as serving;
pub use cb_storage as storage;
pub use cb_tensor as tensor;
pub use cb_tokenizer as tokenizer;

/// The request/response engine API (`cacheblend::engine::Engine`).
pub use cb_core::engine;

/// The streaming scheduler API (`cacheblend::scheduler::EngineService`).
pub use cb_core::scheduler;

/// Convenience prelude pulling in the types most programs need.
pub mod prelude {
    pub use cb_core::{
        controller::LoadingController,
        engine::{
            Engine, EngineBuilder, EngineError, Priority, Request, Response, StorageConfig,
            TierSpec, TtftBreakdown,
        },
        fusor::{BlendConfig, Fusor},
        scheduler::{EngineService, ServiceConfig, ServiceStats, TrySubmitError},
        stream::{Event, ResponseStream},
    };
    pub use cb_kv::store::{KvStore, StoreStats};
    pub use cb_model::{config::ModelProfile, model::Model};
    pub use cb_net::{ClusterError, ClusterStats, Gateway, GatewayConfig, Worker, WorkerConfig};
    pub use cb_rag::{
        datasets::DatasetKind,
        metrics::{f1_score, rouge_l},
    };
    pub use cb_storage::device::DeviceKind;
}
