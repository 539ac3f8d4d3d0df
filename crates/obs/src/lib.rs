//! Observability for the CacheBlend stack: a process-wide lock-free
//! metrics registry, per-request span tracing with `chrome://tracing`
//! export, and a tiny leveled logger — all hand-rolled, no external
//! dependencies (the build environment has no registry access).
//!
//! # Metrics ([`metrics`])
//!
//! [`Registry::global()`](metrics::Registry::global) hands out shared
//! handles to monotonic [`Counter`](metrics::Counter)s, f64
//! [`Gauge`](metrics::Gauge)s, and log-linear
//! [`Histogram`](metrics::Histogram)s (bounded relative error γ, default
//! 1/32 ≈ 3.1%, p50/p90/p99/p999 extraction). Updates are single relaxed
//! atomic ops — safe on every hot path. A
//! [`MetricsSnapshot`](metrics::MetricsSnapshot) is the serializable view:
//! it encodes to a defensive length-checked byte format (this is what
//! crosses the wire in a `MetricsReply`), merges across processes with
//! per-registry instance-id dedup (so a loopback cluster whose replicas
//! share one registry is not double-counted), and renders Prometheus-style
//! exposition text.
//!
//! **Convention:** duration histograms record *nanoseconds* and use a
//! `_seconds` name suffix; rendering and the quantile helpers convert to
//! seconds at the edge.
//!
//! # Tracing ([`trace`])
//!
//! A [`Span`](trace::Span) is an RAII guard recording a named interval
//! into a bounded global ring buffer; [`TraceContext`](trace::TraceContext)
//! is a thread-local (trace id, parent span id) pair so nested guards
//! parent correctly without threading ids through every call. Code that
//! cannot use RAII (the gateway's event-driven request table) records
//! spans explicitly with [`trace::record_span`]. Trace ids cross worker
//! hops inside `Submit`/`Ev` frames; [`trace::chrome_trace_json`] exports
//! the ring as a `chrome://tracing` / Perfetto-loadable JSON document.
//!
//! # Logging ([`log`])
//!
//! `cb_info!`/`cb_warn!`/`cb_error!`/`cb_debug!` write timestamped,
//! single-writer lines to stderr, filtered by the `CB_LOG` environment
//! variable (`debug|info|warn|error|off`, default `info`). The macros
//! evaluate their format arguments **only when the level is enabled** —
//! a disabled debug log of a frame costs one relaxed load, no allocation.
//!
//! # Turning it off
//!
//! [`set_enabled(false)`](set_enabled) short-circuits every metric update, span record,
//! and log write at one relaxed atomic load. Compiling with the `noop`
//! feature removes the bodies entirely (the floor the BENCH_obs overhead
//! guard is budgeted against).

pub mod log;
pub mod metrics;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables all instrumentation (metrics, spans,
/// logs). Used by the overhead bench to measure the enabled-vs-noop
/// delta in one process; defaults to enabled.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when instrumentation is live. One relaxed load; with the `noop`
/// feature this is a compile-time `false` and every caller folds away.
#[inline(always)]
pub fn enabled() -> bool {
    if cfg!(feature = "noop") {
        return false;
    }
    ENABLED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the first observability call in this
/// process. All span timestamps share this epoch, so intervals recorded
/// by different threads are directly comparable.
#[inline]
pub fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Forces the clock epoch to initialize now (call early in `main` so the
/// first span does not pay the `OnceLock` initialization).
pub fn init_clock() {
    let _ = epoch();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }

    // NOTE: no unit test flips `set_enabled` — tests in one binary run
    // concurrently and a momentary global disable would race the
    // recording tests. The BENCH_obs overhead guard exercises the
    // disabled path in its own process.
    #[test]
    fn instrumentation_is_enabled_by_default() {
        assert!(enabled() || cfg!(feature = "noop"));
    }
}
