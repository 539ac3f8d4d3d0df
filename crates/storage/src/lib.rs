//! Storage device models and the CacheBlend delay/cost estimators (§5.1).
//!
//! The paper's loading controller reasons with two analytic estimators —
//! `T_recompute(r%, LLM, L) = r% × Prefill(LLM, L)` and
//! `T_load(LLM, L, device) = PerTokenKVSize(LLM) × L / Throughput(device)` —
//! plus a storage-cost estimator. This crate implements those models at
//! *paper scale*: the real Mistral-7B/Yi-34B/Llama-70B layer counts and KV
//! sizes, an A40-class GPU profile, and the device throughputs the paper
//! measures (4.8 GB/s NVMe, a 4 Gb/s slow disk, CPU RAM). The tiny
//! executable models in `cb-model` produce quality; this crate produces
//! TTFT, keeping each where it can be faithful.
//!
//! Since the tiered-storage subsystem, this crate also owns the *real*
//! byte stores the tiered `cb-kv::KvStore` places entries on: the
//! [`backend::StorageBackend`] trait with an in-RAM [`backend::MemBackend`]
//! and the persistent [`segment_log::SegmentLogBackend`] (append-only
//! group-committed logs, crash-safe replay, background compaction), plus
//! the shared [`checksum::fnv64`] integrity hash and a
//! [`backend::Throttle`] that emulates the §5.2 device grid with real
//! sleeps.
//!
//! Modules:
//!
//! - [`device`] — storage device catalogue (throughput, latency, $/GB·mo).
//! - [`perf`] — paper-scale model specs, GPU profile, prefill/recompute/
//!   load delay estimators, and pipelined TTFT.
//! - [`checksum`] — the workspace's shared word-wise FNV checksum.
//! - [`backend`] — the [`backend::StorageBackend`] tier-store trait and
//!   the RAM implementation.
//! - [`segment_log`] — the persistent backend: append-only segment logs,
//!   group commit, startup replay with torn-tail and mid-log recovery.
//! - `compact` (crate-private) — background compaction for the segment log.

pub mod backend;
pub mod checksum;
pub(crate) mod compact;
pub mod device;
pub mod perf;
pub mod segment_log;

pub use backend::{
    BackendError, IoOps, MaintenanceStats, MemBackend, ReadStream, StorageBackend, Throttle,
};
pub use checksum::fnv64;
pub use device::{DeviceKind, DeviceSpec};
pub use perf::{GpuSpec, PaperModel, PerfModel};
pub use segment_log::{LogStats, SegmentLogBackend, SegmentLogConfig};

/// The persistent tier's contract: what the tiered `cb-kv::KvStore` relies
/// on from the backend holding its spilled entries, checked through the
/// [`StorageBackend`] trait and the bytes left on disk. The log's own
/// mechanics (rotation, compaction, resync) are tested in [`segment_log`].
#[cfg(test)]
mod disk {
    mod tests;
}
