//! Cross-crate integration: dataset → store → engine submit → decode →
//! metric, compared across execution schemes.

use cacheblend::baselines::{run_full_recompute, run_full_reuse, SchemeKind};
use cacheblend::blend::engine::{Engine, EngineBuilder, Request};
use cacheblend::blend::fusor::{BlendConfig, Fusor};
use cacheblend::kv::precompute::precompute_chunk;
use cacheblend::model::{KvCache, Model, ModelConfig, ModelProfile};
use cacheblend::rag::datasets::{CaseKind, Dataset, DatasetKind};

fn model() -> Model {
    Model::compiled(ModelConfig::standard(ModelProfile::Mistral7B, 11))
}

fn engine() -> Engine {
    EngineBuilder::new(ModelProfile::Mistral7B)
        .build()
        .expect("engine")
}

fn parts_for(model: &Model, ds: &Dataset, ctx: &[usize]) -> Vec<KvCache> {
    ctx.iter()
        .map(|&i| precompute_chunk(model, &ds.chunks[i]))
        .collect()
}

/// Serves one case through the engine at the given ratio.
fn blend_answer(
    engine: &Engine,
    ds: &Dataset,
    ctx: &[usize],
    query: &[u32],
    ratio: f32,
) -> Vec<u32> {
    let ids = engine
        .register_chunks(&ds.chunk_tokens(ctx))
        .expect("register");
    engine
        .submit(Request::new(ids, query.to_vec()).ratio(ratio))
        .expect("submit")
        .answer
}

#[test]
fn quality_ordering_holds_end_to_end() {
    // Full recompute ≥ CacheBlend ≫ full reuse on a multi-hop dataset,
    // through retrieval, chunk caches, and decoding.
    let m = model();
    let e = engine();
    let ds = Dataset::standard(DatasetKind::MusiqueSim, 7);
    let (mut full, mut blend, mut reuse) = (0.0f32, 0.0f32, 0.0f32);
    let n = 16;
    for case in ds.cases.iter().take(n) {
        let ctx = ds.retrieve(case, 6);
        let chunks = ds.chunk_tokens(&ctx);
        full += ds.score(
            &run_full_recompute(&m, &chunks, &case.query, 8).answer,
            &case.gold,
        );
        blend += ds.score(&blend_answer(&e, &ds, &ctx, &case.query, 0.18), &case.gold);
        reuse += ds.score(
            &run_full_reuse(&m, parts_for(&m, &ds, &ctx), &case.query, 8, true).answer,
            &case.gold,
        );
    }
    let (full, blend, reuse) = (full / n as f32, blend / n as f32, reuse / n as f32);
    assert!(full > 0.5, "full recompute too weak: {full}");
    assert!(
        blend >= full - 0.15,
        "CacheBlend lost quality: {blend} vs {full}"
    );
    assert!(
        reuse < blend - 0.1,
        "full reuse should lag: {reuse} vs {blend}"
    );
}

#[test]
fn engine_store_path_matches_in_memory_blend() {
    // The engine serves from serialized store entries; blending the same
    // chunks in memory with a hand-wired fusor must give the same answer.
    let m = model();
    let e = engine();
    let ds = Dataset::standard(DatasetKind::TwoWikiSim, 7);
    let case = &ds.cases[0];
    let ctx = ds.retrieve(case, 6);
    let a = blend_answer(&e, &ds, &ctx, &case.query, 0.3);
    let fusor = Fusor::new(&m, BlendConfig::with_ratio(0.3));
    let b = fusor.answer(parts_for(&m, &ds, &ctx), &case.query, 8);
    assert_eq!(a, b, "store roundtrip changed the answer");
    assert!(e.store().stats().hits >= ctx.len() as u64);
}

#[test]
fn cross_chunk_cases_are_the_ones_reuse_loses() {
    let m = model();
    let ds = Dataset::standard(DatasetKind::MusiqueSim, 7);
    let mut cross_gap = 0.0f32;
    let mut direct_gap = 0.0f32;
    let (mut nc, mut nd) = (0, 0);
    for case in ds.cases.iter().take(24) {
        let ctx = ds.oracle_context(case, 6);
        let chunks = ds.chunk_tokens(&ctx);
        let f = ds.score(
            &run_full_recompute(&m, &chunks, &case.query, 8).answer,
            &case.gold,
        );
        let r = ds.score(
            &run_full_reuse(&m, parts_for(&m, &ds, &ctx), &case.query, 8, true).answer,
            &case.gold,
        );
        match case.kind {
            CaseKind::CrossChunk => {
                cross_gap += f - r;
                nc += 1;
            }
            CaseKind::Direct | CaseKind::WithinChunk => {
                direct_gap += f - r;
                nd += 1;
            }
        }
    }
    assert!(nc >= 5 && nd >= 3, "need both case kinds (got {nc}/{nd})");
    let cross_gap = cross_gap / nc as f32;
    let direct_gap = direct_gap / nd as f32;
    assert!(
        cross_gap > 0.4,
        "cross-chunk cases should show a large reuse gap: {cross_gap}"
    );
    assert!(
        direct_gap.abs() < 0.2,
        "self-contained cases should be scheme-insensitive: {direct_gap}"
    );
}

#[test]
fn blend_ratio_one_reproduces_full_prefill_on_real_data() {
    let m = model();
    let e = engine();
    let ds = Dataset::standard(DatasetKind::SamsumSim, 7);
    for case in ds.cases.iter().take(4) {
        let ctx = ds.retrieve(case, 4);
        let chunks = ds.chunk_tokens(&ctx);
        let gold_scheme = run_full_recompute(&m, &chunks, &case.query, 8).answer;
        let blend = blend_answer(&e, &ds, &ctx, &case.query, 1.0);
        assert_eq!(blend, gold_scheme, "r=1.0 must equal full prefill");
    }
}

#[test]
fn summarization_chains_degrade_gracefully() {
    // Rouge-L on chain answers: full reuse should sit strictly between 0
    // and full recompute (partial chains survive), blend close to full.
    let m = model();
    let ds = Dataset::standard(DatasetKind::MultiNewsSim, 7);
    let (mut full, mut reuse) = (0.0f32, 0.0f32);
    let n = 10;
    for case in ds.cases.iter().take(n) {
        let ctx = ds.oracle_context(case, 4);
        let chunks = ds.chunk_tokens(&ctx);
        full += ds.score(
            &run_full_recompute(&m, &chunks, &case.query, 8).answer,
            &case.gold,
        );
        reuse += ds.score(
            &run_full_reuse(&m, parts_for(&m, &ds, &ctx), &case.query, 8, true).answer,
            &case.gold,
        );
    }
    let (full, reuse) = (full / n as f32, reuse / n as f32);
    assert!(full > 0.6, "full recompute Rouge-L too low: {full}");
    assert!(reuse < full, "reuse must lose Rouge-L: {reuse} vs {full}");
}

#[test]
fn blending_from_quantized_caches_preserves_answers() {
    // §8: KV compression is complementary — int8-stored caches quarter
    // the load bytes, and the program's decision margins absorb the
    // quantization noise. The int8 entries stream through the loader a
    // layer at a time, as a cold-tier hit does. The blend output itself
    // stays close too: no element of the final residual moves by half the
    // exact residual's max-abs.
    use cacheblend::blend::pipeline::blend_prefetched;
    use cacheblend::kv::quantize::encode_quantized;
    use cacheblend::kv::PrefetchHandle;
    let m = model();
    let ds = Dataset::standard(DatasetKind::MusiqueSim, 7);
    let cfg = BlendConfig::with_ratio(0.3);
    let fusor = Fusor::new(&m, cfg);
    let mut agree = 0;
    let n = 8;
    for case in ds.cases.iter().take(n) {
        let ctx = ds.retrieve(case, 6);
        let mut exact = fusor.blend(parts_for(&m, &ds, &ctx), &case.query, false);
        let handles = (parts_for(&m, &ds, &ctx).iter())
            .map(|c| PrefetchHandle::from_bytes(encode_quantized(c), 0).unwrap())
            .collect();
        let mut cold = blend_prefetched(&m, cfg, handles, &case.query, None)
            .unwrap()
            .result;
        let scale = (exact.last_residual.iter()).fold(0.0f32, |a, &v| a.max(v.abs()));
        let worst = (exact.last_residual.iter())
            .zip(&cold.last_residual)
            .fold(0.0f32, |a, (&e, &q)| a.max((e - q).abs()));
        assert!(
            worst < 0.5 * scale,
            "quantized blend deviates by {worst} (exact max-abs {scale})"
        );
        let exact_ans = m.decode_greedy(&mut exact.cache, &exact.last_residual, 8);
        let cold_ans = m.decode_greedy(&mut cold.cache, &cold.last_residual, 8);
        if cold_ans == exact_ans {
            agree += 1;
        }
    }
    assert!(
        agree >= n - 1,
        "quantization flipped too many answers: {agree}/{n}"
    );
}

#[test]
fn engine_quantized_cold_tier_preserves_answers_end_to_end() {
    // The full serving path over an int8 cold tier: a RAM tier below one
    // entry pushes every registered chunk down to the quantized packed
    // log, so each submit dequantizes on the way back up. Documented
    // threshold (matches the fusor-level test above): quantization noise
    // may flip the answer on at most 1 case in 6.
    use cacheblend::blend::engine::{EngineBuilder, StorageConfig};
    use cacheblend::storage::DeviceKind;

    let dir = std::env::temp_dir().join(format!("cb-e2e-quant-cold-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let exact = engine();
    let cold = EngineBuilder::new(ModelProfile::Mistral7B)
        .storage(
            StorageConfig::default()
                .tier(DeviceKind::CpuRam, 64)
                .cold_tier(DeviceKind::NvmeSsd, 1 << 30, &dir),
        )
        .build()
        .expect("engine");
    let ds = Dataset::standard(DatasetKind::MusiqueSim, 7);
    let mut agree = 0;
    let n = 6;
    for case in ds.cases.iter().take(n) {
        let ctx = ds.retrieve(case, 6);
        let a = blend_answer(&exact, &ds, &ctx, &case.query, 0.3);
        let b = blend_answer(&cold, &ds, &ctx, &case.query, 0.3);
        if a == b {
            agree += 1;
        }
    }
    assert!(
        agree >= n - 1,
        "quantized cold tier flipped too many answers: {agree}/{n}"
    );
    let stats = cold.store().stats();
    assert!(stats.quantizations > 0, "chunks must land int8 on the log");
    assert!(
        stats.dequantizations > 0,
        "serving must transcode back to f32"
    );
    assert!(
        stats.quantize_saved_bytes > 0,
        "the cold tier must actually shrink the entries"
    );
    drop(cold);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scheme_kind_names_are_unique() {
    let names: std::collections::HashSet<_> = [
        SchemeKind::FullRecompute,
        SchemeKind::PrefixCaching,
        SchemeKind::FullReuse,
        SchemeKind::CacheBlend,
        SchemeKind::MapReduce,
        SchemeKind::MapRerank,
    ]
    .iter()
    .map(|s| s.name())
    .collect();
    assert_eq!(names.len(), 6);
}
