//! Quality evaluation (tiny compiled models) and TTFT estimation
//! (paper-scale delay model) per scheme.

use cb_baselines::{
    reused_context, run_full_recompute, run_full_reuse, run_map_reduce, run_map_rerank, SchemeKind,
};
use cb_core::engine::{Engine, EngineBuilder, Request};
use cb_model::{KvCache, Model, ModelConfig, ModelProfile};
use cb_rag::datasets::{Dataset, QueryCase};
use cb_storage::device::DeviceKind;
use cb_storage::perf::{PaperModel, PerfModel};

/// Maximum answer tokens decoded per query.
pub const MAX_ANSWER_TOKENS: usize = 8;

/// A tiny executable model paired with its paper-scale delay model.
pub struct ExpModel {
    /// The compiled tiny model (quality).
    pub model: Model,
    /// The paper-scale delay model (TTFT).
    pub perf: PerfModel,
    /// Paper-scale profile.
    pub paper: PaperModel,
}

impl ExpModel {
    /// Builds the pair for a paper model.
    pub fn new(paper: PaperModel, seed: u64) -> Self {
        let profile = match paper {
            PaperModel::Llama7B | PaperModel::Mistral7B => ModelProfile::Mistral7B,
            PaperModel::Yi34B => ModelProfile::Yi34B,
            PaperModel::Llama70B => ModelProfile::Llama70B,
        };
        Self {
            model: Model::compiled(ModelConfig::standard(profile, seed)),
            perf: PerfModel::on_a40(paper),
            paper,
        }
    }

    /// The three evaluation models.
    pub fn evaluation_models(seed: u64) -> Vec<ExpModel> {
        PaperModel::evaluation_models()
            .into_iter()
            .map(|p| ExpModel::new(p, seed))
            .collect()
    }
}

/// Quality evaluator backed by an [`Engine`]: the CacheBlend arm submits
/// requests (store lookup → pipelined blend → decode), and the engine's
/// content-addressed store is the single chunk-cache memoization — the
/// FullReuse/ablation arms decode their parts from the same store. The
/// engine also owns the evaluator's only model copy ([`Engine::model`]).
pub struct QualityEval {
    engine: Engine,
}

/// Mean quality of one scheme over a dataset slice.
#[derive(Clone, Copy, Debug)]
pub struct SchemeQuality {
    /// Mean score (F1 or Rouge-L by dataset).
    pub mean_score: f64,
    /// Cases evaluated.
    pub n: usize,
}

impl QualityEval {
    /// Creates an evaluator for a model (cloned once into the engine).
    pub fn new(model: &Model) -> Self {
        let engine = EngineBuilder::new(model.cfg.profile)
            .model(model.clone())
            .build()
            .expect("engine for quality eval");
        Self { engine }
    }

    fn model(&self) -> &Model {
        self.engine.model()
    }

    /// The standalone cache of dataset chunk `id`, memoized in the
    /// engine's store (precomputed on first access, decoded thereafter).
    pub fn chunk_cache(&mut self, ds: &Dataset, id: usize) -> KvCache {
        let cid = self
            .engine
            .register_chunk(&ds.chunks[id])
            .expect("register dataset chunk");
        self.engine
            .store()
            .get(cid)
            .expect("decode stored chunk")
            .expect("just-registered chunk present")
            .0
    }

    /// Runs one scheme on one case with the given retrieved chunk ids and
    /// returns the predicted answer.
    pub fn answer(
        &mut self,
        ds: &Dataset,
        case: &QueryCase,
        ctx: &[usize],
        scheme: SchemeKind,
        ratio: f32,
    ) -> Vec<u32> {
        let chunks = ds.chunk_tokens(ctx);
        match scheme {
            // Prefix caching reuses only position-identical prefixes, so
            // its generation is exactly full recompute.
            SchemeKind::FullRecompute | SchemeKind::PrefixCaching => {
                run_full_recompute(self.model(), &chunks, &case.query, MAX_ANSWER_TOKENS).answer
            }
            SchemeKind::FullReuse => {
                let parts: Vec<KvCache> = ctx.iter().map(|&i| self.chunk_cache(ds, i)).collect();
                run_full_reuse(self.model(), parts, &case.query, MAX_ANSWER_TOKENS, true).answer
            }
            SchemeKind::CacheBlend => {
                let ids = self
                    .engine
                    .register_chunks(&chunks)
                    .expect("register retrieved chunks");
                self.engine
                    .submit(
                        Request::new(ids, case.query.clone())
                            .ratio(ratio)
                            .max_new_tokens(MAX_ANSWER_TOKENS),
                    )
                    .expect("engine submit")
                    .answer
            }
            SchemeKind::MapReduce => {
                run_map_reduce(self.model(), &chunks, &case.query, MAX_ANSWER_TOKENS).answer
            }
            SchemeKind::MapRerank => {
                run_map_rerank(self.model(), &chunks, &case.query, MAX_ANSWER_TOKENS).answer
            }
        }
    }

    /// Mean quality of a scheme over up to `cap` cases with top-`k`
    /// retrieval.
    pub fn eval(
        &mut self,
        ds: &Dataset,
        scheme: SchemeKind,
        ratio: f32,
        k: usize,
        cap: usize,
    ) -> SchemeQuality {
        let mut total = 0.0f64;
        let mut n = 0usize;
        for case in ds.cases.iter().take(cap) {
            let ctx = ds.retrieve(case, k);
            if ctx.is_empty() {
                continue;
            }
            let pred = self.answer(ds, case, &ctx, scheme, ratio);
            total += ds.score(&pred, &case.gold) as f64;
            n += 1;
        }
        SchemeQuality {
            mean_score: if n > 0 { total / n as f64 } else { 0.0 },
            n,
        }
    }
}

/// Assembles the *reused* (concatenated, relocated, never recomputed)
/// context cache for a retrieved chunk set — the `KV^pre` of Table 1,
/// used by the oracle deviation analyses (Figures 7/8).
pub fn reused_context_cache(
    model: &Model,
    ev: &mut QualityEval,
    ds: &Dataset,
    ctx: &[usize],
) -> KvCache {
    let parts = ctx.iter().map(|&i| ev.chunk_cache(ds, i)).collect();
    reused_context(model, parts, true)
}

/// Paper-scale TTFT of a scheme on a `k × chunk_tokens` context (Figure 12
/// setting: prefix caching is warmed on the first chunk; CacheBlend and
/// full reuse have every chunk cached).
pub fn scheme_ttft(
    perf: &PerfModel,
    scheme: SchemeKind,
    k: usize,
    chunk_tokens: usize,
    suffix: usize,
    device: DeviceKind,
    ratio: f64,
) -> f64 {
    let ctx = k * chunk_tokens;
    match scheme {
        SchemeKind::FullRecompute => perf.ttft_full_prefill(ctx + suffix),
        SchemeKind::PrefixCaching => perf.ttft_prefix_caching(ctx + suffix, chunk_tokens),
        SchemeKind::FullReuse => perf.ttft_full_reuse(ctx, suffix, device),
        SchemeKind::CacheBlend => perf.ttft_blend(ratio, ctx, suffix, device),
        // Map passes run in parallel across the batch dimension (latency =
        // one chunk+query prefill) …
        SchemeKind::MapRerank => perf.ttft_full_prefill(chunk_tokens + suffix),
        // … and MapReduce adds a second full pass over the summaries plus
        // the answer-generation latency of the map stage.
        SchemeKind::MapReduce => {
            let map = perf.ttft_full_prefill(chunk_tokens + suffix);
            let map_decode = 8.0 * perf.decode_time_per_token();
            let reduce = perf.ttft_full_prefill(k * 8 + suffix);
            map + map_decode + reduce
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_rag::datasets::DatasetKind;

    #[test]
    fn eval_orders_schemes_on_musique() {
        // The headline quality ordering: full recompute ≈ CacheBlend ≫
        // full reuse, on a cross-attention-heavy dataset.
        let m = ExpModel::new(PaperModel::Mistral7B, 11);
        let ds = Dataset::standard(DatasetKind::MusiqueSim, 7);
        let mut ev = QualityEval::new(&m.model);
        let full = ev.eval(&ds, SchemeKind::FullRecompute, 0.0, 6, 16);
        let blend = ev.eval(&ds, SchemeKind::CacheBlend, 0.18, 6, 16);
        let reuse = ev.eval(&ds, SchemeKind::FullReuse, 0.0, 6, 16);
        assert!(full.mean_score > 0.4, "full recompute weak: {full:?}");
        assert!(
            blend.mean_score >= full.mean_score - 0.15,
            "blend lost too much: {blend:?} vs {full:?}"
        );
        assert!(
            reuse.mean_score < full.mean_score - 0.15,
            "full reuse should be clearly worse: {reuse:?} vs {full:?}"
        );
    }

    #[test]
    fn ttft_orders_schemes() {
        let perf = PerfModel::on_a40(PaperModel::Yi34B);
        let t = |s| scheme_ttft(&perf, s, 6, 512, 32, DeviceKind::NvmeSsd, 0.15);
        assert!(t(SchemeKind::FullReuse) <= t(SchemeKind::CacheBlend));
        assert!(t(SchemeKind::CacheBlend) < t(SchemeKind::PrefixCaching));
        assert!(t(SchemeKind::PrefixCaching) < t(SchemeKind::FullRecompute));
        assert!(t(SchemeKind::MapReduce) > t(SchemeKind::MapRerank));
    }
}
