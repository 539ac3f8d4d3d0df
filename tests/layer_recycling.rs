//! A batched service that recycles every finished fused cache serves the
//! same request from the same buffers: after the first request no layer
//! misses the engine's free list, and each request's fused cache is
//! exactly the buffers the previous one recycled — neither the fusor's
//! suffix append, `DecodeBatch::admit`'s reserve nor the decoded rows
//! move them. (That the *first* fused cache already has room for all of
//! it is `scheduler::tests::a_fused_cache_decodes_in_the_buffers_the_blend_reserved`.)
//!
//! The miss counter is process-global, so this file holds one test: no
//! other blend in the process can move it.

use std::collections::BTreeSet;

use cacheblend::blend::{EngineBuilder, EngineService, Request, ServiceConfig};
use cacheblend::model::{KvCache, ModelProfile};
use cacheblend::obs::metrics::Registry;
use cacheblend::tokenizer::TokenKind::*;

/// Addresses of every layer's K and V buffers.
fn buffers(cache: &KvCache) -> BTreeSet<usize> {
    (cache.layers.iter())
        .flat_map(|l| [&l.k, &l.v])
        .map(|m| m.as_slice().as_ptr() as usize)
        .collect()
}

#[test]
fn a_recycled_fused_cache_serves_the_next_request_without_allocating() {
    let engine = EngineBuilder::new(ModelProfile::Tiny).build().unwrap();
    let service = EngineService::new(
        engine.clone(),
        ServiceConfig::default().workers(1).decode_batch(8),
    );
    let v = engine.model().cfg.vocab.clone();
    let chunks: Vec<Vec<u32>> = (0..3)
        .map(|i| {
            [
                Entity(i),
                Attr(i),
                Value(i + 1),
                Sep,
                Filler(i),
                Filler(i + 1),
            ]
            .map(|k| v.id(k))
            .to_vec()
        })
        .collect();
    let ids = engine.register_chunks(&chunks).unwrap();
    let request = Request::new(
        ids,
        [Query, Entity(1), Attr(1), QMark].map(|k| v.id(k)).to_vec(),
    )
    .max_new_tokens(4);

    let misses = Registry::global().counter("cb_layer_pool_misses_total");
    let n_layers = engine.model().n_layers();
    let mut after_first = None;
    let mut recycled: Option<BTreeSet<usize>> = None;
    for i in 0..6 {
        let resp = service.submit(request.clone()).unwrap();
        assert_eq!(resp.answer, vec![v.id(Value(2))]);
        let served = buffers(&resp.blend.cache);
        if let Some(recycled) = &recycled {
            assert_eq!(
                &served, recycled,
                "request {i}: a layer was reallocated between the pool and Done"
            );
        }
        engine.recycle(resp.blend.cache);
        let after = *after_first.get_or_insert(misses.value());
        assert_eq!(
            misses.value(),
            after,
            "request {i} missed the free list after the first"
        );
        recycled = Some(served);
    }
    assert!(after_first.unwrap() >= n_layers as u64);
}
