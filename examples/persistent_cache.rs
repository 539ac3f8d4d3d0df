//! Persistent KV cache: register chunks, persist, drop the engine, rebuild
//! from the same cache dir, and serve a warm request without recomputing
//! any chunk KV.
//!
//! Run with: `cargo run --release --example persistent_cache`

use std::time::Instant;

use cacheblend::prelude::*;
use cacheblend::tokenizer::TokenKind::*;

fn main() {
    let cache_dir = std::env::temp_dir().join(format!(
        "cacheblend-persistent-cache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);

    // The deployment: a RAM fast tier over a persistent NVMe-class disk
    // tier holding append-only segment logs under `cache_dir`.
    let build = || {
        EngineBuilder::new(ModelProfile::Mistral7B)
            .blend_config(BlendConfig::with_ratio(0.4))
            .storage(
                StorageConfig::default()
                    .tier(DeviceKind::CpuRam, 32 << 20)
                    .disk_tier(DeviceKind::NvmeSsd, 1 << 30, &cache_dir),
            )
            .build()
            .expect("engine")
    };

    // ---- Session 1: cold start, precompute, persist. ----------------
    let engine = build();
    let vocab = engine.model().cfg.vocab.clone();
    let t = |k| vocab.id(k);
    let chunk1 = vec![t(Entity(5)), t(Attr(0)), t(Value(1)), t(Sep)];
    let chunk2 = vec![
        t(Ref),
        t(Attr(3)),
        t(Value(9)),
        t(Sep),
        t(Entity(8)),
        t(Attr(1)),
        t(Value(4)),
        t(Sep),
    ];
    let query = vec![t(Query), t(Entity(5)), t(Attr(3)), t(QMark)];

    let t0 = Instant::now();
    let ids = engine
        .register_chunks(&[chunk1.clone(), chunk2.clone()])
        .expect("register");
    let cold_register = t0.elapsed();
    let resp = engine
        .submit(Request::new(ids, query.clone()).max_new_tokens(4))
        .expect("serve");
    println!(
        "session 1: registered 2 chunks in {:.2?} (KV precomputed), answer → {}",
        cold_register,
        vocab.render_seq(&resp.answer)
    );
    println!(
        "           cold TTFT {:.2?} (precompute {:.2?})",
        resp.ttft.total - resp.ttft.decode,
        resp.ttft.precompute
    );

    // Demote the KV to the disk tier and flush the log.
    engine.persist().expect("persist");
    let on_disk = engine.store().tier_used(1);
    drop(engine);
    println!(
        "           persisted {on_disk} bytes to {}\n",
        cache_dir.display()
    );

    // ---- Session 2: a new process rebuilds over the same dir. --------
    let engine = build();
    println!(
        "session 2: recovered {} entries ({} bytes) from the cache dir",
        engine.store().len(),
        engine.store().used_bytes()
    );

    let t0 = Instant::now();
    let ids = engine
        .register_chunks(&[chunk1, chunk2])
        .expect("re-register");
    let warm_register = t0.elapsed();
    assert_eq!(
        engine.store().stats().inserts,
        0,
        "re-registration found every entry on disk — no precompute"
    );

    let resp = engine
        .submit(Request::new(ids, query).max_new_tokens(4))
        .expect("serve warm");
    assert!(
        resp.chunk_sources
            .iter()
            .all(|s| matches!(s, cacheblend::engine::ChunkSource::Hit { .. })),
        "warm request must hit the recovered entries"
    );
    println!(
        "           re-registered in {:.2?} (no recompute), warm TTFT {:.2?}, answer → {}",
        warm_register,
        resp.ttft.total - resp.ttft.decode,
        vocab.render_seq(&resp.answer)
    );
    println!("           served from tier(s): {:?}", resp.chunk_sources);

    let _ = std::fs::remove_dir_all(&cache_dir);
}
