//! Tiered-storage TTFT: pipelined streaming vs unpipelined load vs full
//! prefill, across the §5.2 device bandwidth grid.
//!
//! Chunk KV entries live on a *real* disk tier (`cb-storage`'s
//! [`SegmentLogBackend`] log files) throttled to each catalogue device's
//! bandwidth/latency with real sleeps. Three arms serve the same request:
//!
//! - **pipelined** — `KvStore::prefetch` handles streamed through
//!   [`blend_prefetched`]: the device read of layer *i+1* overlaps the
//!   selective recompute of layer *i* (the paper's §5.2 pipeline).
//! - **unpipelined** — read each entry in full (throttled), then blend:
//!   the load sits entirely on the critical path (Figure 10(a)'s
//!   ablation).
//! - **full_prefill** — no cache at all: recompute the whole context.
//!
//! **Device emulation.** The scaled models' KV entries are ~10× smaller
//! per token than the paper's (fewer layers, narrower heads, fp32), so
//! running the catalogue devices at face value would make every load
//! trivially fast. Each device's bandwidth is instead scaled by
//! `our KV bytes/token ÷ paper KV bytes/token` (Mistral-7B: 128 KiB/token),
//! which makes the *per-token load time* on the emulated device equal the
//! real device's — the load side of the §5.2 load/compute race is
//! paper-faithful even though both sides are scaled.
//!
//! The headline metric is `hidden_frac`: the share of the *measured* raw
//! disk load time the pipeline removed from TTFT,
//! `(unpipelined − pipelined) / raw_load`. On a device whose load time is
//! at or below the blend's compute time the pipeline hides (nearly) all of
//! it; on very slow devices the residual `load − compute` stays exposed,
//! exactly as §5.2 predicts.
//!
//! Two further arms benchmark the storage subsystem itself:
//!
//! - **log sweep** (`storage_log` row) — registers and reloads a chunk
//!   population through the [`SegmentLogBackend`], unthrottled, counting
//!   wall-clock *and* syscalls (the backend's [`cb_storage::IoOps`]
//!   ledger); then deletes half the population and reports what fraction
//!   of the dead bytes compaction reclaims (`storage_compaction` row).
//! - **quantized cold tier** (`storage_quantized` row) — stores one chunk
//!   population on an f32 packed tier and on an int8 *quantized* packed
//!   tier, reporting the on-disk footprint ratio plus a fig07-style CDF
//!   of the blend-output deviation the quantization introduces (each
//!   deviation normalized by the exact output's max-abs).
//!
//! Output lands in `target/experiments/BENCH_storage.json`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use cb_core::fusor::{BlendConfig, Fusor};
use cb_core::pipeline::{blend_prefetched, serialize_chunks};
use cb_kv::store::TierConfig;
use cb_kv::{ChunkId, KvStore};
use cb_model::{KvCache, Model, ModelConfig, ModelProfile};
use cb_storage::{
    DeviceKind, MemBackend, SegmentLogBackend, SegmentLogConfig, StorageBackend, Throttle,
};
use cb_tensor::stats::quantile;
use cb_tokenizer::{TokenId, TokenKind};

use crate::out::{emit, Row};

/// Options for the storage experiment.
#[derive(Clone, Debug, Default)]
pub struct StorageOpts {
    /// Shrunken sizes/repetitions (seconds, for CI).
    pub smoke: bool,
    /// Root directory for the throwaway cache dirs (default: a per-process
    /// directory under the system tempdir).
    pub dir: Option<PathBuf>,
}

struct Workload {
    chunks: usize,
    chunk_tokens: usize,
    query_tokens: usize,
    reps: usize,
}

impl Workload {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                chunks: 2,
                chunk_tokens: 24,
                query_tokens: 8,
                reps: 1,
            }
        } else {
            // Paper-shaped retrieval: four 256-token chunks + a short query
            // (fig. 12 runs six 512-token chunks; four 256s keep the sweep
            // under a minute while preserving the load/compute balance).
            Self {
                chunks: 4,
                chunk_tokens: 256,
                query_tokens: 16,
                reps: 3,
            }
        }
    }
}

fn filler_tokens(model: &Model, n: usize, salt: usize) -> Vec<TokenId> {
    let v = &model.cfg.vocab;
    (0..n)
        .map(|i| v.id(TokenKind::Filler(((i + salt) % 8) as u32)))
        .collect()
}

/// A tiny-RAM + throttled-disk store: every entry is disk-resident (the
/// RAM tier is below one entry, so promotion is impossible and each arm
/// measures genuine device reads). `bandwidth_scale` maps the catalogue
/// device's bandwidth onto the scaled models' entry sizes (see module
/// docs).
fn disk_resident_store(dir: &std::path::Path, device: DeviceKind, bandwidth_scale: f64) -> KvStore {
    let spec = device.spec();
    let throttle = Throttle {
        latency_s: spec.latency_s,
        bytes_per_s: spec.read_bytes_per_s * bandwidth_scale,
    };
    KvStore::with_backends(vec![
        (
            TierConfig::new("ram", 64),
            Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>,
        ),
        (
            TierConfig::new(spec.name, 1 << 32),
            Arc::new(SegmentLogBackend::new(dir, Some(throttle)).expect("cache dir")),
        ),
    ])
}

struct ArmTimes {
    full_prefill_s: f64,
    unpipelined_s: f64,
    pipelined_s: f64,
    raw_load_s: f64,
}

fn best<T, F: FnMut() -> (f64, T)>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        best = best.min(f().0);
    }
    best
}

fn run_device(
    model: &Model,
    store: &KvStore,
    ids: &[ChunkId],
    full_tokens: &[TokenId],
    query: &[TokenId],
    w: &Workload,
) -> ArmTimes {
    let cfg = BlendConfig::default(); // the paper's r* = 15 %

    let full_prefill_s = best(w.reps, || {
        let t = Instant::now();
        let (cache, x) = model.prefill(full_tokens);
        std::hint::black_box(x.max_abs());
        (t.elapsed().as_secs_f64(), cache.len())
    });

    let mut raw_load_s = f64::INFINITY;
    let mut unpipelined_s = f64::INFINITY;
    for _ in 0..w.reps.max(1) {
        let t = Instant::now();
        let parts: Vec<KvCache> = ids
            .iter()
            .map(|&id| store.get(id).expect("clean entry").expect("resident").0)
            .collect();
        let load = t.elapsed().as_secs_f64();
        let out = Fusor::new(model, cfg).blend(parts, query, false);
        std::hint::black_box(out.last_residual[0]);
        let total = t.elapsed().as_secs_f64();
        raw_load_s = raw_load_s.min(load);
        unpipelined_s = unpipelined_s.min(total);
    }

    let pipelined_s = best(w.reps, || {
        let t = Instant::now();
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| store.prefetch(id).expect("clean entry").expect("resident"))
            .collect();
        let out = blend_prefetched(model, cfg, handles, query, None).expect("blend");
        std::hint::black_box(out.result.last_residual[0]);
        (t.elapsed().as_secs_f64(), out.report.wait)
    });

    ArmTimes {
        full_prefill_s,
        unpipelined_s,
        pipelined_s,
        raw_load_s,
    }
}

/// The segment log's register/reload sweep plus the compaction result.
#[derive(Clone, Copy, Debug, Default)]
pub struct LogSweep {
    /// Chunks registered.
    pub chunks: usize,
    /// Wall-clock seconds to register (put + flush) the population.
    pub register_s: f64,
    /// Wall-clock seconds to reload every entry.
    pub load_s: f64,
    /// Total I/O syscalls (opens + reads + writes + renames + deletes)
    /// the backend issued across both phases.
    pub syscalls: u64,
    /// Files on disk after registration.
    pub files: u64,
    /// Fraction of the dead bytes (from deleting half the population)
    /// that compaction reclaimed.
    pub compact_reclaimed_frac: f64,
}

/// Quantized-cold-tier footprint and blend-quality outcome.
#[derive(Clone, Copy, Debug, Default)]
pub struct QuantizedOutcome {
    /// On-disk bytes of the population on the f32 packed tier.
    pub f32_bytes: u64,
    /// On-disk bytes of the same population on the int8 packed tier.
    pub int8_bytes: u64,
    /// `f32_bytes / int8_bytes`.
    pub footprint_ratio: f64,
    /// p50 of the normalized blend-output deviation CDF.
    pub deviation_p50: f64,
    /// p95 of the normalized blend-output deviation CDF.
    pub deviation_p95: f64,
    /// Worst normalized blend-output deviation.
    pub deviation_max: f64,
}

/// Everything the experiment measured (the `fig_storage` binary asserts
/// the acceptance claims on a non-smoke run).
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageOutcome {
    /// Best pipelining `hidden_frac` on the largest profile.
    pub hidden_frac: f64,
    /// Segment-log register/reload/compaction sweep.
    pub log: LogSweep,
    /// Quantized cold-tier arm.
    pub quantized: QuantizedOutcome,
}

/// A small synthetic serialized entry (~4 KiB) for the log sweep — I/O
/// costs do not depend on the floats inside.
fn synthetic_entry() -> Bytes {
    let mut c = KvCache::empty(4, 16);
    for l in 0..4 {
        let k = cb_tensor::Matrix::from_fn(8, 16, |r, d| (l * 128 + r * 16 + d) as f32 * 0.125);
        c.layers[l].append(&k, &k);
    }
    c.positions = (0..8).collect();
    c.tokens = vec![3; 8];
    cb_kv::serialize::encode(&c)
}

/// Registers and reloads a chunk population through the segment log,
/// then measures compaction (see module docs).
fn log_sweep(root: &std::path::Path, smoke: bool, rows: &mut Vec<Row>) -> LogSweep {
    let n = if smoke { 300 } else { 10_000 };
    let entry = synthetic_entry();
    let dir = root.join("log-sweep");
    let _ = std::fs::remove_dir_all(&dir);
    // Deterministic compaction below: no background races with the
    // measured phases. Small rotation keeps the (never-compacted) active
    // log a sliver of the population, so the reclaim fraction reflects
    // the compactor rather than the rotation boundary.
    let cfg = SegmentLogConfig {
        auto_compact: false,
        compact_min_garbage: 0.3,
        rotate_bytes: 1 << 20,
        ..SegmentLogConfig::default()
    };
    let backend = SegmentLogBackend::with_config(&dir, None, false, cfg).expect("cache dir");
    let io_before = backend.io_ops();

    let t = Instant::now();
    for i in 0..n {
        backend.put(i as u64, entry.clone()).expect("put");
    }
    backend.flush().expect("flush");
    let register_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for i in 0..n {
        let b = backend.get(i as u64).expect("clean").expect("resident");
        std::hint::black_box(b.len());
    }
    let load_s = t.elapsed().as_secs_f64();
    let syscalls = backend.io_ops().total() - io_before.total();
    let files = std::fs::read_dir(&dir)
        .map(|d| d.count() as u64)
        .unwrap_or(0);

    // Delete half the population, then compact: how much of the garbage
    // does the log give back?
    for i in (0..n).step_by(2) {
        backend.remove(i as u64);
    }
    backend.flush().expect("flush");
    let before = backend.log_stats();
    let dead = before.file_bytes - before.live_bytes;
    while backend.compact_now() > 0 {}
    let after = backend.log_stats();
    let compact_reclaimed_frac = if dead > 0 {
        (after.reclaimed_bytes - before.reclaimed_bytes) as f64 / dead as f64
    } else {
        0.0
    };
    drop(backend);
    let _ = std::fs::remove_dir_all(&dir);

    rows.push(
        Row::new("storage_log")
            .num("chunks", n as f64)
            .num("entry_bytes", entry.len() as f64)
            .num("register_ms", register_s * 1e3)
            .num("load_ms", load_s * 1e3)
            .num("syscalls", syscalls as f64)
            .num("files", files as f64),
    );
    rows.push(
        Row::new("storage_compaction")
            .num("dead_bytes", dead as f64)
            .num("reclaimed_frac", compact_reclaimed_frac)
            .num(
                "compactions",
                (after.compactions - before.compactions) as f64,
            ),
    );

    LogSweep {
        chunks: n,
        register_s,
        load_s,
        syscalls,
        files,
        compact_reclaimed_frac,
    }
}

/// Builds a tiny-RAM store whose bottom tier is a packed log, optionally
/// quantized; returns the store plus the backend handle for disk stats.
fn cold_store(
    dir: &std::path::Path,
    quantized: bool,
) -> (KvStore, std::sync::Arc<SegmentLogBackend>) {
    let _ = std::fs::remove_dir_all(dir);
    let backend = Arc::new(SegmentLogBackend::new(dir, None).expect("cache dir"));
    let tier = if quantized {
        TierConfig::quantized("cold-int8", 1 << 32)
    } else {
        TierConfig::new("cold-f32", 1 << 32)
    };
    let store = KvStore::with_backends(vec![
        (
            TierConfig::new("ram", 64),
            Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>,
        ),
        (tier, backend.clone()),
    ]);
    (store, backend)
}

/// The quantized cold-tier arm: footprint ratio and blend-deviation CDF
/// (see module docs).
fn quantized_arm(root: &std::path::Path, smoke: bool, rows: &mut Vec<Row>) -> QuantizedOutcome {
    let model = Model::random(ModelConfig::standard(ModelProfile::Tiny, 7));
    let (n_chunks, chunk_tokens) = if smoke { (2, 24) } else { (8, 96) };
    let chunks: Vec<Vec<TokenId>> = (0..n_chunks)
        .map(|c| filler_tokens(&model, chunk_tokens, c))
        .collect();
    let bytes = serialize_chunks(&model, &chunks);
    let query = filler_tokens(&model, 8, 5);

    let (f32_store, f32_backend) = cold_store(&root.join("cold-f32"), false);
    let (int8_store, int8_backend) = cold_store(&root.join("cold-int8"), true);
    for (i, b) in bytes.iter().enumerate() {
        let id = ChunkId(i as u64 + 1);
        f32_store.insert_bytes(id, b.clone()).expect("fits");
        int8_store.insert_bytes(id, b.clone()).expect("fits");
    }
    f32_store.flush().expect("flush");
    int8_store.flush().expect("flush");
    let f32_bytes = f32_backend.log_stats().live_bytes;
    let int8_bytes = int8_backend.log_stats().live_bytes;

    // Blend once from exact entries, once from quantized round-trips
    // served by the cold tier, and CDF the output deviation.
    let cfg = BlendConfig::default();
    let exact_parts: Vec<KvCache> = bytes
        .iter()
        .map(|b| cb_kv::serialize::decode(b.clone()).expect("clean"))
        .collect();
    let cold_parts: Vec<KvCache> = (0..n_chunks)
        .map(|i| {
            int8_store
                .get(ChunkId(i as u64 + 1))
                .expect("clean")
                .expect("resident")
                .0
        })
        .collect();
    let exact = Fusor::new(&model, cfg).blend(exact_parts, &query, false);
    let cold = Fusor::new(&model, cfg).blend(cold_parts, &query, false);
    let scale = exact
        .last_residual
        .iter()
        .fold(0.0f32, |a, &v| a.max(v.abs()))
        .max(1e-6);
    let devs: Vec<f32> = exact
        .last_residual
        .iter()
        .zip(&cold.last_residual)
        .map(|(&a, &b)| (a - b).abs() / scale)
        .collect();

    let out = QuantizedOutcome {
        f32_bytes,
        int8_bytes,
        footprint_ratio: f32_bytes as f64 / int8_bytes.max(1) as f64,
        deviation_p50: quantile(&devs, 0.5) as f64,
        deviation_p95: quantile(&devs, 0.95) as f64,
        deviation_max: quantile(&devs, 1.0) as f64,
    };
    let mut row = Row::new("storage_quantized")
        .num("chunks", n_chunks as f64)
        .num("f32_disk_bytes", f32_bytes as f64)
        .num("int8_disk_bytes", int8_bytes as f64)
        .num("footprint_ratio", out.footprint_ratio);
    for q in [0.10f32, 0.25, 0.50, 0.75, 0.90, 0.95, 1.0] {
        row = row.num(
            &format!("dev_p{:03.0}", q * 100.0),
            quantile(&devs, q) as f64,
        );
    }
    rows.push(row);

    let _ = std::fs::remove_dir_all(root.join("cold-f32"));
    let _ = std::fs::remove_dir_all(root.join("cold-int8"));
    out
}

/// Runs the experiment with default options.
pub fn run() {
    run_opts(StorageOpts::default());
}

/// Runs the experiment; returns the measured [`StorageOutcome`]
/// (`fig_storage` asserts the acceptance claims against it).
pub fn run_opts(opts: StorageOpts) -> StorageOutcome {
    let w = Workload::new(opts.smoke);
    let root = opts.dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("cb-bench-storage-{}", std::process::id()))
    });
    let devices = [
        DeviceKind::CpuRam,
        DeviceKind::NvmeSsd,
        DeviceKind::CommoditySsd,
        DeviceKind::SlowSsd,
    ];
    // Per-token load times are made paper-faithful against Mistral-7B's
    // 128 KiB/token KV footprint (see module docs).
    let paper_bytes_per_token =
        cb_storage::PerfModel::on_a40(cb_storage::PaperModel::Mistral7B).total_kv_bytes(1);
    let profiles: &[(&str, ModelProfile)] = if opts.smoke {
        &[("Small", ModelProfile::Tiny)]
    } else {
        &[
            ("Small", ModelProfile::Tiny),
            ("Standard", ModelProfile::Mistral7B),
        ]
    };

    let mut rows = Vec::new();
    let mut headline = 0.0f64;
    for &(pname, profile) in profiles {
        let model = Model::random(ModelConfig::standard(profile, 7));
        let chunks: Vec<Vec<TokenId>> = (0..w.chunks)
            .map(|c| filler_tokens(&model, w.chunk_tokens, c))
            .collect();
        let bytes = serialize_chunks(&model, &chunks);
        let entry_bytes: usize = bytes.iter().map(|b| b.len()).sum();
        let query = filler_tokens(&model, w.query_tokens, 5);
        let mut full_tokens = vec![model.cfg.vocab.id(TokenKind::Bos)];
        for c in &chunks {
            full_tokens.extend_from_slice(c);
        }
        full_tokens.extend_from_slice(&query);

        // Untimed warmup: first-touch effects (lazy allocs, page faults)
        // must not land inside whichever device arm happens to run first.
        {
            let parts: Vec<KvCache> = bytes
                .iter()
                .map(|b| cb_kv::serialize::decode(b.clone()).expect("clean entry"))
                .collect();
            let out = Fusor::new(&model, BlendConfig::default()).blend(parts, &query, false);
            std::hint::black_box(out.last_residual[0]);
            let (_, x) = model.prefill(&full_tokens);
            std::hint::black_box(x.max_abs());
        }

        let ctx_tokens = w.chunks * w.chunk_tokens;
        let bandwidth_scale = (entry_bytes as f64 / ctx_tokens as f64) / paper_bytes_per_token;
        for device in devices {
            let dir = root.join(format!("{pname}-{}", device.spec().name));
            let _ = std::fs::remove_dir_all(&dir);
            let store = disk_resident_store(&dir, device, bandwidth_scale);
            let ids: Vec<ChunkId> = bytes
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    let id = ChunkId(i as u64 + 1);
                    store.insert_bytes(id, b.clone()).expect("fits on disk");
                    id
                })
                .collect();
            store.flush().expect("flusher healthy");

            let t = run_device(&model, &store, &ids, &full_tokens, &query, &w);
            let hidden = ((t.unpipelined_s - t.pipelined_s) / t.raw_load_s).clamp(0.0, 1.0);
            if pname == profiles.last().expect("non-empty").0 {
                headline = headline.max(hidden);
            }
            rows.push(
                Row::new("storage")
                    .col("profile", pname)
                    .col("device", device.spec().name)
                    .num("bandwidth_gb_s", device.spec().read_bytes_per_s / 1e9)
                    .num("kv_bytes_mb", entry_bytes as f64 / 1e6)
                    .num("full_prefill_ms", t.full_prefill_s * 1e3)
                    .num("unpipelined_ms", t.unpipelined_s * 1e3)
                    .num("pipelined_ms", t.pipelined_s * 1e3)
                    .num("raw_load_ms", t.raw_load_s * 1e3)
                    .num("hidden_frac", hidden)
                    .num("speedup_vs_prefill", t.full_prefill_s / t.pipelined_s),
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let log = log_sweep(&root, opts.smoke, &mut rows);
    let quantized = quantized_arm(&root, opts.smoke, &mut rows);

    let _ = std::fs::remove_dir_all(&root);
    emit("BENCH_storage", &rows);
    println!(
        "\npipelining hid {:.0}% of raw disk load time at best (largest profile)",
        headline * 100.0
    );
    println!(
        "segment log: {} chunks registered in {:.0} ms, reloaded in {:.0} ms, \
         {} syscalls; compaction reclaimed {:.0}% of dead bytes",
        log.chunks,
        log.register_s * 1e3,
        log.load_s * 1e3,
        log.syscalls,
        log.compact_reclaimed_frac * 100.0
    );
    println!(
        "quantized cold tier: {:.2}x smaller on disk, blend deviation p95 {:.2e}",
        quantized.footprint_ratio, quantized.deviation_p95
    );
    StorageOutcome {
        hidden_frac: headline,
        log,
        quantized,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_consistent_arms() {
        // One smoke pass on the Tiny profile: the pipelined arm must never
        // lose to the unpipelined arm by more than scheduling noise, and
        // hidden_frac must be finite.
        let dir = std::env::temp_dir().join(format!(
            "cb-storage-exp-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let out = run_opts(StorageOpts {
            smoke: true,
            dir: Some(dir),
        });
        assert!((0.0..=1.0).contains(&out.hidden_frac));
        // Even at smoke scale the structural claims must hold: the log
        // served every chunk from a handful of files, with group commit
        // and cached read handles keeping it near one syscall per read,
        // and the quantized tier is materially smaller with a sane
        // deviation CDF.
        assert_eq!(out.log.chunks, 300);
        assert!(out.log.files <= 2, "{} files", out.log.files);
        assert!(out.log.syscalls < 2 * 300, "{} syscalls", out.log.syscalls);
        assert!(out.log.compact_reclaimed_frac > 0.5);
        assert!(out.quantized.footprint_ratio > 3.0);
        assert!(out.quantized.deviation_p50 <= out.quantized.deviation_p95);
        assert!(out.quantized.deviation_max < 0.5);
    }
}
