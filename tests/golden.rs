//! Golden pin of the forward arithmetic: one fixed RAG case blended and
//! fully prefilled on two model profiles, at pool sizes 1 and 2, must hash
//! to constants recorded before the current kernels were written; the same
//! case served end to end (blend + up to 8 decoded tokens) must hash to
//! constants recorded before the scheduler's sequential decode loop was
//! deleted, both through `Engine::submit` and through an `EngineService` at
//! decode-batch widths 1 and 8. Every other bit-identity property compares
//! two paths of the *same* build; this one compares the build against its
//! own history, so a kernel rewrite that changes even one rounding anywhere
//! in the stack fails here.
//!
//! A change that alters the arithmetic on purpose (a different accumulation
//! order, a new approximation) updates the constants in the same commit and
//! says in its message why the bits moved.

use cacheblend::blend::fusor::{BlendConfig, Fusor};
use cacheblend::kv::precompute::precompute_chunk;
use cacheblend::model::{KvCache, Model, ModelConfig, ModelProfile};
use cacheblend::prelude::{EngineBuilder, EngineService, Request, Response, ServiceConfig};
use cacheblend::rag::datasets::{Dataset, DatasetKind};
use cacheblend::storage::fnv64;
use cacheblend::tensor::pool;
use cacheblend::tokenizer::TokenKind;

/// `(profile, hash of the fused K/V + last_residual, hash of the prefill
/// cache + residual rows)`.
const GOLDEN: [(ModelProfile, u64, u64); 2] = [
    (
        ModelProfile::Mistral7B,
        0xbaaa_2a54_54a5_c620,
        0x7d14_4975_c137_6370,
    ),
    (
        ModelProfile::Llama70B,
        0xc394_4f44_c20a_ff91,
        0xf1fa_4503_398c_f820,
    ),
];

/// `(profile, hash of Engine::submit's answer tokens + response cache K/V +
/// last_residual)` at `max_new_tokens(8)`.
const GOLDEN_DECODE: [(ModelProfile, u64); 2] = [
    (ModelProfile::Mistral7B, 0x9fd8_db4b_0383_7a62),
    (ModelProfile::Llama70B, 0xbe42_c665_83e8_a3fc),
];

/// The little-endian bits of every K and V element, layer by layer,
/// followed by `rows`.
fn kv_bytes(cache: &KvCache, rows: &[f32]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for layer in &cache.layers {
        for m in [&layer.k, &layer.v] {
            bytes.extend(m.as_slice().iter().flat_map(|v| v.to_le_bytes()));
        }
    }
    bytes.extend(rows.iter().flat_map(|v| v.to_le_bytes()));
    bytes
}

/// FNV-64 of [`kv_bytes`].
fn hash(cache: &KvCache, rows: &[f32]) -> u64 {
    fnv64(&kv_bytes(cache, rows))
}

/// FNV-64 over a response's answer tokens (little-endian) followed by
/// [`kv_bytes`] of its cache and last residual.
fn response_hash(resp: &Response) -> u64 {
    let mut bytes: Vec<u8> = resp.answer.iter().flat_map(|t| t.to_le_bytes()).collect();
    bytes.extend(kv_bytes(&resp.blend.cache, &resp.blend.last_residual));
    fnv64(&bytes)
}

#[test]
fn blend_and_prefill_match_recorded_hashes() {
    let ds = Dataset::standard(DatasetKind::MusiqueSim, 7);
    let case = &ds.cases[0];
    let ctx = ds.retrieve(case, 6);
    for (profile, want_blend, want_prefill) in GOLDEN {
        let model = Model::compiled(ModelConfig::standard(profile, 11));
        let mut context = vec![model.cfg.vocab.id(TokenKind::Bos)];
        for &i in &ctx {
            context.extend_from_slice(&ds.chunks[i]);
        }
        context.extend_from_slice(&case.query);
        for threads in [1, 2] {
            pool::set_threads(threads);
            let parts = ctx
                .iter()
                .map(|&i| precompute_chunk(&model, &ds.chunks[i]))
                .collect();
            let blend = Fusor::new(&model, BlendConfig::default()).blend(parts, &case.query, false);
            let (cache, rows) = model.prefill(&context);
            let got = (
                hash(&blend.cache, &blend.last_residual),
                hash(&cache, rows.as_slice()),
            );
            assert_eq!(
                got,
                (want_blend, want_prefill),
                "{profile:?} at pool size {threads}: got {:#018x}, {:#018x}",
                got.0,
                got.1
            );
        }
    }
    pool::set_threads(pool::default_threads());
}

#[test]
fn served_decode_matches_recorded_hashes() {
    let ds = Dataset::standard(DatasetKind::MusiqueSim, 7);
    let case = &ds.cases[0];
    let ctx = ds.retrieve(case, 6);
    for (profile, want) in GOLDEN_DECODE {
        let engine = EngineBuilder::new(profile).build().unwrap();
        let chunks: Vec<_> = ctx.iter().map(|&i| ds.chunks[i].clone()).collect();
        let ids = engine.register_chunks(&chunks).unwrap();
        let request = Request::new(ids, case.query.clone()).max_new_tokens(8);
        for threads in [1, 2] {
            pool::set_threads(threads);
            let direct = engine.submit(request.clone()).unwrap();
            assert!(!direct.answer.is_empty(), "{profile:?}: nothing decoded");
            let got = response_hash(&direct);
            assert_eq!(
                got, want,
                "{profile:?} Engine::submit at pool size {threads}: got {got:#018x}"
            );
            for width in [1, 8] {
                let service = EngineService::new(
                    engine.clone(),
                    ServiceConfig::default().workers(1).decode_batch(width),
                );
                let got = response_hash(&service.submit(request.clone()).unwrap());
                assert_eq!(
                    got, want,
                    "{profile:?} service at decode_batch {width}, pool size {threads}: \
                     got {got:#018x}"
                );
            }
        }
    }
    pool::set_threads(pool::default_threads());
}
