//! The engine request lifecycle, end to end: registration misses trigger
//! precompute into the tiered store, repeat requests hit, and the blend the
//! engine serves is bit-identical to a hand-wired `Fusor` run on the same
//! seed.

use cacheblend::blend::engine::{ChunkSource, EngineBuilder, Request};
use cacheblend::blend::fusor::{BlendConfig, Fusor};
use cacheblend::kv::precompute::precompute_chunk;
use cacheblend::model::{Model, ModelConfig, ModelProfile};
use cacheblend::prelude::DeviceKind;
use cacheblend::rag::datasets::{Dataset, DatasetKind};

const SEED: u64 = 11;
const RATIO: f32 = 0.3;

#[test]
fn lifecycle_miss_precompute_hit_blend() {
    let engine = EngineBuilder::new(ModelProfile::Mistral7B)
        .seed(SEED)
        .tier(DeviceKind::CpuRam, 1 << 30)
        .build()
        .unwrap();
    let ds = Dataset::standard(DatasetKind::MusiqueSim, 7);
    let case = &ds.cases[0];
    let ctx = ds.retrieve(case, 6);

    // Registration precomputes each chunk exactly once (store misses →
    // inserts), and the store then holds every entry.
    assert!(engine.store().is_empty());
    let ids = engine.register_chunks(&ds.chunk_tokens(&ctx)).unwrap();
    assert_eq!(engine.store().len(), ids.len());
    let after_register = engine.store().stats();
    assert_eq!(after_register.inserts, ids.len() as u64);

    // First submit: every chunk is a store hit (tier 0), nothing is
    // precomputed again.
    let resp = engine
        .submit(Request::new(ids.clone(), case.query.clone()).ratio(RATIO))
        .unwrap();
    assert!(resp
        .chunk_sources
        .iter()
        .all(|s| matches!(s, ChunkSource::Hit { tier: 0 })));
    assert_eq!(
        engine.store().stats().hits,
        after_register.hits + ids.len() as u64
    );
    assert_eq!(engine.store().stats().inserts, after_register.inserts);

    // Parity with a hand-wired fusor over the same chunk caches: identical
    // per-layer recompute counts, residual, K/V and answer.
    let model = Model::compiled(ModelConfig::standard(ModelProfile::Mistral7B, SEED));
    let parts: Vec<_> = ctx
        .iter()
        .map(|&i| precompute_chunk(&model, &ds.chunks[i]))
        .collect();
    let fusor = Fusor::new(&model, BlendConfig::with_ratio(RATIO));
    let hand = fusor.blend(parts, &case.query, false);

    assert_eq!(
        resp.blend.stats.selected_per_layer, hand.stats.selected_per_layer,
        "engine and hand-wired fusor recomputed different token counts"
    );
    assert_eq!(resp.blend.stats.ctx_len, hand.stats.ctx_len);
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(
        bits(&resp.blend.last_residual) == bits(&hand.last_residual),
        "final residual differs"
    );
    // The response cache carries the decoded answer's appended rows; the
    // context+suffix prefix must match the hand-wired blend bit for bit.
    for l in 0..model.n_layers() {
        let (got, want) = (&resp.blend.cache.layers[l], &hand.cache.layers[l]);
        let rows = want.k.rows();
        assert_eq!(
            got.k.rows(),
            rows + resp.answer.len(),
            "layer {l}: engine cache should extend the blend by the answer"
        );
        for (g, w) in [(&got.k, &want.k), (&got.v, &want.v)] {
            let n = w.as_slice().len();
            assert!(
                bits(&g.as_slice()[..n]) == bits(w.as_slice()),
                "layer {l}: K or V differs"
            );
        }
    }
    let mut hand_cache = hand.cache;
    let hand_answer = model.decode_greedy(&mut hand_cache, &hand.last_residual, 8);
    assert_eq!(resp.answer, hand_answer);
}

#[test]
fn eviction_heals_transparently_and_counts_as_precompute() {
    // A store sized for ~2 entries serves 6-chunk requests: most lookups
    // miss, submit re-precomputes from the registry, and answers stay
    // identical to an ample-store engine on the same seed.
    let ds = Dataset::standard(DatasetKind::MusiqueSim, 7);
    let case = &ds.cases[1];
    let ctx = ds.retrieve(case, 6);

    let ample = EngineBuilder::new(ModelProfile::Mistral7B)
        .seed(SEED)
        .build()
        .unwrap();
    let ample_ids = ample.register_chunks(&ds.chunk_tokens(&ctx)).unwrap();
    let want = ample
        .submit(Request::new(ample_ids, case.query.clone()).ratio(RATIO))
        .unwrap();

    let entry = {
        let model = ample.model();
        cacheblend::kv::serialize::encode(&precompute_chunk(model, &ds.chunks[ctx[0]])).len() as u64
    };
    let tiny = EngineBuilder::new(ModelProfile::Mistral7B)
        .seed(SEED)
        .tier(DeviceKind::CpuRam, entry * 5 / 2)
        .build()
        .unwrap();
    let tiny_ids = tiny.register_chunks(&ds.chunk_tokens(&ctx)).unwrap();
    assert!(tiny.store().len() < ctx.len(), "tiny store must evict");

    let got = tiny
        .submit(Request::new(tiny_ids, case.query.clone()).ratio(RATIO))
        .unwrap();
    assert!(got.chunk_sources.contains(&ChunkSource::Precomputed));
    assert!(got.ttft.precompute > std::time::Duration::ZERO);
    assert_eq!(got.answer, want.answer, "eviction must not change answers");
    assert_eq!(
        got.blend.stats.selected_per_layer,
        want.blend.stats.selected_per_layer
    );
}

#[test]
fn submit_is_bit_identical_across_thread_pool_sizes() {
    // Intra-request parallelism (row-range matmul splits, per-head
    // attention jobs) must never change the bytes produced: kernels fix
    // the per-element accumulation order and reduce heads serially. Run
    // the same request under a 1-thread and a 4-thread global pool and
    // compare the serialized fused caches bit for bit.
    let serve = || {
        let engine = EngineBuilder::new(ModelProfile::Mistral7B)
            .seed(SEED)
            .build()
            .unwrap();
        let ds = Dataset::standard(DatasetKind::MusiqueSim, 7);
        let case = &ds.cases[1];
        let ctx = ds.retrieve(case, 4);
        let ids = engine.register_chunks(&ds.chunk_tokens(&ctx)).unwrap();
        let resp = engine
            .submit(Request::new(ids, case.query.clone()).ratio(RATIO))
            .unwrap();
        (
            resp.answer,
            cacheblend::kv::serialize::encode(&resp.blend.cache),
        )
    };
    cacheblend::tensor::pool::set_threads(1);
    let (answer_1, cache_1) = serve();
    cacheblend::tensor::pool::set_threads(4);
    let (answer_4, cache_4) = serve();
    cacheblend::tensor::pool::set_threads(cacheblend::tensor::pool::default_threads());
    assert_eq!(answer_1, answer_4, "answers diverge across pool sizes");
    assert_eq!(
        cache_1.as_ref(),
        cache_4.as_ref(),
        "fused cache bytes diverge across pool sizes"
    );
}
