//! Serving-layer simulation: request streams, queueing, cache-hit
//! accounting, and TTFT/throughput statistics (Figure 14).
//!
//! The quality side of the evaluation runs the tiny compiled model; the
//! *serving* side — what happens when requests arrive at rate λ against a
//! bounded KV store on a busy GPU — is a queueing question, answered here
//! with a discrete-event simulator driven by the paper-scale delay model
//! from `cb-storage`. The simulator reproduces the figure-14 mechanics:
//! Poisson arrivals, FIFO prefill admission, per-chunk cache hits with LRU
//! eviction, prefix-chain hits for the prefix-caching baseline (which must
//! store one entry per *prefix*, not per chunk — the storage blow-up §7.2
//! discusses), and pipelined load/recompute for CacheBlend.
//!
//! The simulator is generic over a [`backend::ServingBackend`]: the
//! analytic delay model prices admissions on paper-scale hardware, while
//! [`backend::EngineBackend`] serves every simulated request through a
//! real [`EngineService`](cb_core::scheduler::EngineService) and feeds the
//! *measured* blend TTFTs back into the same queueing loop — the
//! closed-loop Figure-14 arm.
//!
//! Modules:
//!
//! - [`workload`] — seeded Poisson request streams with popularity-skewed
//!   chunk reuse (the "extended dataset" construction).
//! - [`backend`] — the [`backend::ServingBackend`] trait, the analytic
//!   per-scheme service-time models, and the real-engine backend.
//! - [`sim`] — the event loop (queueing, TTFT, queue depth, deadlines).
//! - [`stats`] — latency summaries.
//!
//! Scale-*out* serving (N engine replicas behind a chunk-locality router)
//! is `cb-net`'s `Gateway`, not a simulator concern.

pub mod backend;
pub mod sim;
pub mod stats;
pub mod workload;

pub use backend::{Admission, AnalyticBackend, BackendSummary, EngineBackend, ServingBackend};
pub use sim::{ServingConfig, ServingStats, Simulator};
pub use workload::{Request, Workload, WorkloadConfig};
