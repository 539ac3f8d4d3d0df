//! Timed calls straight into the lower layers' public APIs, on the
//! workload's own data: its contexts for the fusor and the fetch path, one
//! of its chunks for the codecs, entry-sized payloads for the log, its
//! model for prefill, decode steps and kernel shapes. Every call is a
//! span in the trace file. Part of the traced run (`layers.rs`).

use crate::layers::{sample_ms, span};
use crate::oplist::rng;
use crate::report::Metrics;
use crate::run::Deployment;
use crate::stack::{entry_bytes, nproc};
use crate::stats::median;
use bytes::Bytes;
use cb_core::fusor::BlendConfig;
use cb_core::pipeline::blend_prefetched;
use cb_kv::quantize::{dequantize_entry, quantize_entry};
use cb_kv::serialize::{encode, EntryReader};
use cb_kv::PrefetchHandle;
use cb_model::{DecodeBatch, LayerKv, Model};
use cb_storage::backend::StorageBackend;
use cb_storage::SegmentLogBackend;
use cb_tensor::{pool, Matrix};
use cb_tokenizer::{TokenId, TokenKind};
use rand::Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `budget` is split into twelve slices; each sub-benchmark below takes
/// the number of slices its name is followed by.
pub fn run(
    d: &Deployment,
    m: &mut Metrics,
    trace: u64,
    budget: Duration,
    load_wait_ms: f64,
    answers: &[(usize, Vec<TokenId>)],
) {
    let slice = budget / 12;
    fusor_and_fetch(d, m, trace, slice * 3, load_wait_ms, answers);
    kv_codecs(d, m, trace, slice * 2);
    segment_log(d, m, trace, slice);
    model_steps(d, m, trace, slice * 4);
    tensor_kernels(d, m, trace, slice * 2);
    retrieval(d, m);
}

/// A request's full context as one token sequence (`[BOS] chunks query`).
fn context_tokens(d: &Deployment, model: &Model, case: usize) -> Vec<TokenId> {
    let c = &d.list.cases[case];
    let mut toks = vec![model.cfg.vocab.id(TokenKind::Bos)];
    for &i in &c.chunks {
        toks.extend_from_slice(&d.list.universe[i]);
    }
    toks.extend_from_slice(&c.query);
    toks
}

fn prefetch_all(d: &Deployment, case: usize) -> Vec<PrefetchHandle> {
    let store = d.stack.engine().store();
    let read = |&i: &usize| {
        store
            .prefetch(d.ids[i])
            .expect("prefetch")
            .expect("registered chunk is in the store")
    };
    d.list.cases[case].chunks.iter().map(read).collect()
}

/// fusor + kv: per case, an unpipelined fetch (what the pipelined loader
/// hides), the blend alone, the full prefill it replaces, and whether the
/// two agree on the answer.
fn fusor_and_fetch(
    d: &Deployment,
    m: &mut Metrics,
    trace: u64,
    budget: Duration,
    load_wait_ms: f64,
    answers: &[(usize, Vec<TokenId>)],
) {
    let model = d.stack.engine().model();
    let (n_layers, width) = (model.n_layers(), model.cfg.kv_width());
    let (mut blend_ms, mut full_ms, mut fetch_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut agree = 0usize;
    let t0 = Instant::now();
    for (case, served_answer) in answers {
        if blend_ms.len() >= 3 && t0.elapsed() > budget {
            break;
        }
        let query = &d.list.cases[*case].query;
        let drain = || {
            let mut buf = LayerKv::empty(width);
            for mut handle in prefetch_all(d, *case) {
                handle.meta().expect("entry header");
                for l in 0..n_layers {
                    handle.layer_into(l, &mut buf).expect("layer block");
                }
            }
        };
        fetch_ms.push(span("kv.KvStore.prefetch+drain", trace, 0, drain).1);
        let blend = || {
            blend_prefetched(
                model,
                BlendConfig::default(),
                prefetch_all(d, *case),
                query,
                None,
            )
            .expect("direct blend")
        };
        blend_ms.push(span("pipeline.blend_prefetched", trace, 0, blend).1);
        let toks = context_tokens(d, model, *case);
        let ((mut cache, x), full) = span("model.Model.prefill(context)", trace, 0, || {
            model.prefill(&toks)
        });
        full_ms.push(full);
        let full_answer = model.decode_greedy(
            &mut cache,
            x.row(x.rows() - 1),
            d.list.workload.max_new_tokens(),
        );
        agree += usize::from(full_answer == *served_answer);
    }
    let n = blend_ms.len();
    m.put("fusor.blend_ms_p50", median(&blend_ms), n);
    m.put("fusor.full_prefill_ms_p50", median(&full_ms), n);
    m.put(
        "fusor.speedup_vs_full",
        median(&full_ms) / median(&blend_ms),
        n,
    );
    m.put("fusor.agree_full_frac", agree as f64 / n as f64, n);
    m.put("kv.fetch_ms_p50", median(&fetch_ms), n);
    m.put(
        "fusor.hidden_frac",
        1.0 - load_wait_ms / median(&fetch_ms),
        n,
    );
}

/// kv codecs on one of the workload's own chunks.
fn kv_codecs(d: &Deployment, m: &mut Metrics, trace: u64, budget: Duration) {
    let model = d.stack.engine().model();
    let cache = cb_kv::precompute::precompute_chunk(model, &d.list.universe[0]);
    let entry: Bytes = encode(&cache);
    let quantized = quantize_entry(&entry).expect("quantize");
    let mut buf = LayerKv::empty(model.cfg.kv_width());
    m.put(
        "kv.entry_bytes",
        entry_bytes(d.list.workload.profile()) as f64,
        1,
    );
    let mut mb_s = |metric: &str, span_name: &str, f: &mut dyn FnMut()| {
        let t = sample_ms(span_name, trace, budget / 4, 3, 200, f);
        m.put(
            metric,
            entry.len() as f64 / (1 << 20) as f64 / (median(&t) / 1e3),
            t.len(),
        );
    };
    mb_s("kv.encode_mb_s", "kv.serialize.encode", &mut || {
        black_box(encode(&cache));
    });
    mb_s("kv.decode_mb_s", "kv.EntryReader.layer_into", &mut || {
        let reader = EntryReader::new(entry.clone()).expect("own entry parses");
        for l in 0..model.n_layers() {
            reader.layer_into(l, &mut buf).expect("own layer decodes");
        }
    });
    mb_s("kv.quantize_mb_s", "kv.quantize_entry", &mut || {
        black_box(quantize_entry(&entry).expect("quantize"));
    });
    mb_s("kv.dequantize_mb_s", "kv.dequantize_entry", &mut || {
        black_box(dequantize_entry(&quantized).expect("dequantize"));
    });
}

/// storage: a packed log of its own, payloads the size of one entry.
/// Puts are write-behind, so the flush is where their cost lands.
fn segment_log(d: &Deployment, m: &mut Metrics, trace: u64, budget: Duration) {
    let dir = d.stack.dir().join("direct-log");
    let log = SegmentLogBackend::new(&dir, None).expect("open segment log");
    let payload = Bytes::from(vec![0x5Au8; entry_bytes(d.list.workload.profile())]);
    let ops_start = log.io_ops().total();
    let mut keys = 0u64;
    let put = sample_ms(
        "storage.SegmentLogBackend.put",
        trace,
        budget / 2,
        3,
        64,
        || {
            keys += 1;
            log.put(keys, payload.clone()).expect("log put");
        },
    );
    let flush_ms = span("storage.SegmentLogBackend.flush", trace, 0, || {
        log.flush().expect("log flush")
    })
    .1;
    let ops_written = log.io_ops().total();
    let mut next = 0u64;
    let get = sample_ms(
        "storage.SegmentLogBackend.get",
        trace,
        budget / 2,
        3,
        64,
        || {
            next = next % keys + 1;
            black_box(log.get(next).expect("log get").expect("key present"));
        },
    );
    let ops_read = log.io_ops().total();
    m.put("storage.put_ms_p50", median(&put), put.len());
    m.put("storage.flush_ms_p50", flush_ms, 1);
    m.put("storage.get_ms_p50", median(&get), get.len());
    m.put(
        "storage.syscalls_per_put",
        (ops_written - ops_start) as f64 / put.len() as f64,
        put.len(),
    );
    m.put(
        "storage.syscalls_per_get",
        (ops_read - ops_written) as f64 / get.len() as f64,
        get.len(),
    );
    drop(log);
    std::fs::remove_dir_all(&dir).expect("remove direct log");
}

/// model: prefill at a chunk's and a context's length, decode steps at
/// occupancy 1 and 8.
fn model_steps(d: &Deployment, m: &mut Metrics, trace: u64, budget: Duration) {
    let model = d.stack.engine().model();
    let tokens: Vec<TokenId> = context_tokens(d, model, 0)
        .into_iter()
        .cycle()
        .take(768)
        .collect();
    for (name, len) in [
        ("model.prefill_tok_s_128", 128usize),
        ("model.prefill_tok_s_768", 768),
    ] {
        let t = sample_ms("model.Model.prefill", trace, budget / 4, 3, 100, || {
            black_box(model.prefill(&tokens[..len]));
        });
        m.put(name, len as f64 / (median(&t) / 1e3), t.len());
    }
    let (prompt_cache, prompt_x) = model.prefill(&tokens[..128]);
    for (name, occupancy) in [
        ("model.decode_step_ms_b1", 1usize),
        ("model.decode_step_ms_b8", 8),
    ] {
        // Without the stop check, so every sequence keeps decoding; the
        // budget outlasts the 400 steps sampled at most.
        let mut batch = DecodeBatch::new().without_stop();
        for _ in 0..occupancy {
            batch.admit(
                model,
                prompt_cache.clone(),
                prompt_x.row(prompt_x.rows() - 1),
                512,
            );
        }
        let t = sample_ms("model.DecodeBatch.step", trace, budget / 4, 8, 400, || {
            black_box(batch.step(model, &mut |_, _| {}));
        });
        m.put(name, median(&t), t.len());
    }
}

/// tensor: the GEMM every layer runs (activations x fused-QKV-shaped
/// weights) at decode (m = 1, 8) and prefill (m = 128) row counts, the
/// causal attention-score kernel, and the pool's dispatch cost.
fn tensor_kernels(d: &Deployment, m: &mut Metrics, trace: u64, budget: Duration) {
    let cfg = &d.stack.engine().model().cfg;
    let (k_dim, n_dim, head) = (cfg.d_model(), 3 * cfg.kv_width(), cfg.head_dim);
    let mut draw = rng(0xDE15E, 0);
    let mut dense = |rows: usize, cols: usize| {
        Matrix::from_fn(rows, cols, |_, _| draw.random::<f32>() * 2.0 - 1.0)
    };
    let weights = dense(k_dim, n_dim);
    for (name, rows) in [
        ("tensor.gemm_gflops_m1", 1usize),
        ("tensor.gemm_gflops_m8", 8),
        ("tensor.gemm_gflops_m128", 128),
    ] {
        let a = dense(rows, k_dim);
        let mut out = Matrix::zeros(0, 0);
        // Many calls per sample: one m = 1 product is a few microseconds.
        let calls = (128 / rows) * 8;
        let t = sample_ms(
            "tensor.Matrix.matmul_into",
            trace,
            budget / 6,
            5,
            400,
            || {
                for _ in 0..calls {
                    a.matmul_into(&weights, &mut out);
                }
                black_box(&out);
            },
        );
        let flops = 2.0 * (rows * k_dim * n_dim * calls) as f64;
        m.put(name, flops / (median(&t) / 1e3) / 1e9, t.len() * calls);
    }
    // Computed: the bytes one m = 1 call touches (A, B and C once each).
    m.put(
        "tensor.gemm_mb_per_call_m1",
        ((k_dim + k_dim * n_dim + n_dim) * 4) as f64 / (1 << 20) as f64,
        1,
    );

    let (q_rows, k_rows) = (128usize, 768usize);
    let (q, keys) = (dense(q_rows, cfg.kv_width()), dense(k_rows, cfg.kv_width()));
    let limits: Vec<usize> = (0..q_rows).map(|i| k_rows - q_rows + i + 1).collect();
    let mut scores = Matrix::zeros(0, 0);
    let t = sample_ms(
        "tensor.Matrix.matmul_transposed_block_limited_into",
        trace,
        budget / 4,
        5,
        400,
        || {
            q.matmul_transposed_block_limited_into(&keys, 0, head, &limits, 0.125, &mut scores);
            black_box(&scores);
        },
    );
    let flops = 2.0 * (limits.iter().sum::<usize>() * head) as f64;
    m.put(
        "tensor.attn_scores_gflops",
        flops / (median(&t) / 1e3) / 1e9,
        t.len(),
    );

    let workers = pool::current();
    let mut dispatch_us = Vec::new();
    let t0 = Instant::now();
    while dispatch_us.len() < 2000 && (dispatch_us.len() < 50 || t0.elapsed() < budget / 4) {
        let jobs: Vec<pool::Job<'_>> = (0..nproc())
            .map(|_| Box::new(|| {}) as pool::Job<'_>)
            .collect();
        let t = Instant::now();
        workers.run(jobs);
        dispatch_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.put(
        "tensor.pool_dispatch_us_p50",
        median(&dispatch_us),
        dispatch_us.len(),
    );
}

/// rag: retrieval, which set-up pays once per case and no request pays.
fn retrieval(d: &Deployment, m: &mut Metrics) {
    let ds = &d.list.datasets[0];
    let k = d.list.cases[0].chunks.len();
    let mut retrieve_us = Vec::new();
    for case in ds.cases.iter().cycle().take(200) {
        let t = Instant::now();
        black_box(ds.retrieve(case, k));
        retrieve_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.put(
        "rag.retrieve_us_p50",
        median(&retrieve_us),
        retrieve_us.len(),
    );
}
