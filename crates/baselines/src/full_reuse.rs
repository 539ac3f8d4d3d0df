//! Full KV reuse (PromptCache): concatenate independently precomputed
//! chunk caches with positional correction, recompute nothing.
//!
//! Positions are corrected with the same Appendix-A re-rotation CacheBlend
//! uses (PromptCache achieves the equivalent with dummy-prefix buffers),
//! but the cross-attention between chunks is *absent by construction*: a
//! coreference pointing into another chunk stays unresolved in the cached
//! states. Only the query suffix is computed fresh.

use cb_core::rope_align;
use cb_model::{KvCache, Model};
use cb_tokenizer::TokenId;

/// Outcome of a full-reuse run.
#[derive(Clone, Debug)]
pub struct FullReuseOutcome {
    /// The generated answer tokens.
    pub answer: Vec<TokenId>,
    /// Context tokens loaded from cache.
    pub loaded_tokens: usize,
    /// Tokens computed fresh (the query suffix only).
    pub prefilled_tokens: usize,
}

/// Fuses precomputed chunk caches by concatenation (no recompute) and
/// decodes greedily.
///
/// `rotate` enables the positional correction; disabling it is the
/// "naive reuse" ablation that additionally breaks position-sensitive
/// heads.
pub fn run_full_reuse(
    model: &Model,
    parts: Vec<KvCache>,
    query: &[TokenId],
    max_tokens: usize,
    rotate: bool,
) -> FullReuseOutcome {
    let mut cache = reused_context(model, parts, rotate);
    let loaded_tokens = cache.len();
    // Room for the query and the answer, so neither moves the cache.
    cache.reserve(query.len() + max_tokens);

    let suffix_pos: Vec<usize> = (loaded_tokens..loaded_tokens + query.len()).collect();
    let x = model.forward_rows(query, &suffix_pos, &mut cache, None);
    let last = x.row(x.rows() - 1).to_vec();
    let answer = model.decode_greedy(&mut cache, &last, max_tokens);
    FullReuseOutcome {
        answer,
        loaded_tokens,
        prefilled_tokens: query.len(),
    }
}

/// The reused context cache — the `KV^pre` of Table 1: the BOS sink's
/// cache, then every part moved behind the one before and concatenated,
/// nothing recomputed. `rotate` re-rotates each part's keys to its new
/// positions; without it a part only claims them.
pub fn reused_context(model: &Model, mut parts: Vec<KvCache>, rotate: bool) -> KvCache {
    let mut cursor = 1usize;
    for p in &mut parts {
        assert!(!p.is_empty(), "empty chunk cache");
        if rotate {
            rope_align::relocate(model, p, cursor);
        } else {
            // Naive reuse: claim the positions without rotating the keys.
            let delta = cursor as i64 - p.positions[0] as i64;
            for pos in &mut p.positions {
                *pos = (*pos as i64 + delta) as usize;
            }
        }
        cursor += p.len();
    }
    let refs: Vec<&KvCache> = std::iter::once(model.bos_cache()).chain(&parts).collect();
    KvCache::concat(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_kv::precompute::precompute_chunk;
    use cb_model::{ModelConfig, ModelProfile};
    use cb_tokenizer::TokenKind::*;

    fn model() -> Model {
        Model::compiled(ModelConfig::standard(ModelProfile::Tiny, 11))
    }

    #[test]
    fn self_contained_facts_survive_full_reuse() {
        // The PromptCache happy path: no cross-chunk dependence.
        let m = model();
        let v = &m.cfg.vocab;
        let c1: Vec<TokenId> = [Entity(5), Attr(0), Value(1), Sep]
            .map(|k| v.id(k))
            .to_vec();
        let c2: Vec<TokenId> = [Entity(8), Attr(3), Value(9), Sep]
            .map(|k| v.id(k))
            .to_vec();
        let q: Vec<TokenId> = [Query, Entity(8), Attr(3), QMark].map(|k| v.id(k)).to_vec();
        let parts = vec![precompute_chunk(&m, &c1), precompute_chunk(&m, &c2)];
        let out = run_full_reuse(&m, parts, &q, 4, true);
        assert_eq!(out.answer, vec![v.id(Value(9))]);
        assert_eq!(out.loaded_tokens, 9);
        assert_eq!(out.prefilled_tokens, 4);
    }

    #[test]
    fn cross_chunk_coreference_breaks_under_full_reuse() {
        // The Figure 3 failure: the REF fact's subject is in chunk 1.
        let m = model();
        let v = &m.cfg.vocab;
        let c1: Vec<TokenId> = [Entity(5), Attr(0), Value(1), Sep]
            .map(|k| v.id(k))
            .to_vec();
        let c2: Vec<TokenId> = [Ref, Attr(3), Value(9), Sep].map(|k| v.id(k)).to_vec();
        let q: Vec<TokenId> = [Query, Entity(5), Attr(3), QMark].map(|k| v.id(k)).to_vec();
        let parts = vec![precompute_chunk(&m, &c1), precompute_chunk(&m, &c2)];
        let out = run_full_reuse(&m, parts, &q, 4, true);
        assert_ne!(
            out.answer,
            vec![v.id(Value(9))],
            "full reuse must lose cross-chunk attention"
        );
    }

    #[test]
    fn skipping_rotation_breaks_coreferent_queries() {
        // A coreferent query ("what is *its* attr3?") resolves its subject
        // through the recency head against *cached* entity keys. Without
        // the Appendix-A re-rotation, a chunk relocated by a large offset
        // carries stale rotations in those keys, the lookup reads wrong
        // distances, and the answer is lost — the ablation showing the
        // positional correction is load-bearing.
        let m = model();
        let v = &m.cfg.vocab;
        let mut c1: Vec<TokenId> = (0..220).map(|i| v.id(Filler((i % 30) as u32))).collect();
        c1.extend([Entity(5), Attr(0), Value(1), Sep].map(|k| v.id(k)));
        let c2: Vec<TokenId> = [Entity(8), Attr(3), Value(9), Sep]
            .map(|k| v.id(k))
            .to_vec();
        // "Q: it attr3 ?" — the subject is the most recent context entity.
        let q: Vec<TokenId> = [Query, Ref, Attr(3), QMark].map(|k| v.id(k)).to_vec();
        let mk = || vec![precompute_chunk(&m, &c1), precompute_chunk(&m, &c2)];
        let with = run_full_reuse(&m, mk(), &q, 4, true);
        assert_eq!(with.answer, vec![v.id(Value(9))], "rotated reuse must work");
        let without = run_full_reuse(&m, mk(), &q, 4, false);
        assert_ne!(
            without.answer, with.answer,
            "stale rotations should corrupt the answer at offset ~220"
        );
    }
}
