//! Golden pin of the forward arithmetic: one fixed RAG case blended and
//! fully prefilled on two model profiles, at pool sizes 1 and 2, must hash
//! to constants recorded before the current kernels were written. Every
//! other bit-identity property compares two paths of the *same* build; this
//! one compares the build against its own history, so a kernel rewrite that
//! changes even one rounding anywhere in the stack fails here.
//!
//! A change that alters the arithmetic on purpose (a different accumulation
//! order, a new approximation) updates the constants in the same commit and
//! says in its message why the bits moved.

use cacheblend::blend::fusor::{BlendConfig, Fusor};
use cacheblend::kv::precompute::precompute_chunk;
use cacheblend::model::{KvCache, Model, ModelConfig, ModelProfile};
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

/// FNV-64 over the little-endian bits of every K and V element, layer by
/// layer, followed by `rows`.
fn hash(cache: &KvCache, rows: &[f32]) -> u64 {
    let mut bytes = Vec::new();
    for layer in &cache.layers {
        for m in [&layer.k, &layer.v] {
            bytes.extend(m.as_slice().iter().flat_map(|v| v.to_le_bytes()));
        }
    }
    bytes.extend(rows.iter().flat_map(|v| v.to_le_bytes()));
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
