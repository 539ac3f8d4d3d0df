//! Dense f32 tensor kernels for the CacheBlend reproduction.
//!
//! Row-major [`Matrix`] buffers with two kernel tiers: register-blocked,
//! cache-friendly matmuls with `_into` variants that write into
//! caller-provided buffers (plus a probed sparse path for the compiled
//! program's row-sparse weights), and the original scalar loops kept as
//! `*_reference` parity baselines. Row-range parallelism runs on a small
//! persistent [`pool::ThreadPool`]; results are bit-identical for every
//! pool size (fixed per-element accumulation order).
//!
//! Modules:
//!
//! - [`matrix`] — the row-major [`Matrix`] type and matmul kernels.
//! - [`ops`] — softmax, RMSNorm, activations, masked attention helpers.
//! - [`pool`] — the persistent thread pool and the process-wide handle.
//! - [`rope`] — rotary positional embedding (RoPE) and the Appendix-A
//!   re-rotation used to relocate cached keys.
//! - [`stats`] — deviation norms, Spearman rank correlation, CDFs.

pub mod matrix;
pub mod ops;
pub mod pool;
pub mod rope;
pub mod stats;

pub use matrix::{KeyPanels, Matrix};
