//! CacheBlend's core: selective KV recompute with HKVD token selection,
//! positional re-alignment of cached keys, the loading controller, and the
//! pipelined loader.
//!
//! This crate is the paper's contribution (§4–§5). Given the standalone
//! per-chunk KV caches from `cb-kv` and the model primitives from
//! `cb-model`, the [`fusor::Fusor`] fuses them into one cache that matches
//! full-prefill quality by recomputing only the tokens whose KV deviates
//! most (High-KV-Deviation, HKVD, tokens), selected by gradual filtering
//! across layers (§4.3). The [`controller::LoadingController`] picks the
//! recompute ratio and storage device so loading hides recomputation (§5.1),
//! and [`pipeline`] overlaps the two with a real loader thread (§6).
//!
//! Modules:
//!
//! - [`deviation`] — Δkv and Δattn metrics (Table 1) and oracle comparisons.
//! - [`rope_align`] — Appendix-A re-rotation of cached keys to new positions.
//! - [`fusor`] — selective KV recompute (§4.2) + HKVD selection (§4.3).
//! - [`controller`] — recompute-ratio and device selection (§5.1).
//! - [`pipeline`] — layer-streaming loader overlapped with recompute (§6).
//! - [`engine`] — the request/response serving front door tying the above
//!   to the tiered KV store (`register_chunk` → `submit`).
//! - [`scheduler`] — the persistent [`EngineService`]: bounded admission
//!   queue with priority lanes, long-lived worker pool feeding one batched
//!   decode loop, backpressure.
//! - [`stream`] — the per-request [`Event`] lifecycle and
//!   [`ResponseStream`] (`Queued → Admitted → FirstToken → Token* → Done`).

pub mod controller;
pub mod deviation;
pub mod engine;
pub mod fusor;
pub mod pipeline;
pub mod rope_align;
pub mod scheduler;
pub mod stream;

pub use controller::LoadingController;
pub use engine::{
    Engine, EngineBuilder, EngineError, Priority, RatioPolicy, Request, Response, TtftBreakdown,
};
pub use fusor::{BlendConfig, BlendResult, Fusor, Selection};
pub use scheduler::{EngineService, ServiceConfig, ServiceStats, TrySubmitError};
pub use stream::{Event, ResponseStream};
