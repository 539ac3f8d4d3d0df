//! Standalone chunk precompute.
//!
//! A chunk's KV cache is computed *in isolation* — the chunk cannot know
//! which chunks will precede it at serving time. Following PromptCache, the
//! chunk is prefilled behind a BOS sink token (so lookup heads behave as
//! they would in a real prompt) and the BOS rows are stripped; the cache is
//! stored at local positions `1..=len` and relocated with the Appendix-A
//! RoPE re-rotation when fused into a request.
//!
//! This isolation is exactly what loses cross-chunk attention: any token
//! whose program state depends on a *preceding* chunk (a `REF` coreference,
//! a chain continuation at the chunk start) gets a wrong value here — the
//! high-KV-deviation tokens CacheBlend later finds and repairs.

use cb_model::{KvCache, Model};
use cb_tokenizer::{TokenId, TokenKind};

/// Computes the standalone KV cache of `tokens` (local positions
/// `1..=tokens.len()`; the implicit BOS at position 0 is stripped).
///
/// # Panics
///
/// Panics if `tokens` is empty.
pub fn precompute_chunk(model: &Model, tokens: &[TokenId]) -> KvCache {
    assert!(!tokens.is_empty(), "cannot precompute an empty chunk");
    let bos = model.cfg.vocab.id(TokenKind::Bos);
    let mut full: Vec<TokenId> = Vec::with_capacity(tokens.len() + 1);
    full.push(bos);
    full.extend_from_slice(tokens);
    let (cache, _) = model.prefill(&full);
    strip_rows(&cache, 1)
}

/// Returns a copy of `cache` with the first `n` rows removed from every
/// layer (positions/tokens updated accordingly).
pub fn strip_rows(cache: &KvCache, n: usize) -> KvCache {
    assert!(n <= cache.len());
    let rows = cache.len();
    let mut out = KvCache {
        layers: Vec::with_capacity(cache.n_layers()),
        positions: cache.positions[n..].to_vec(),
        tokens: cache.tokens[n..].to_vec(),
    };
    for l in &cache.layers {
        out.layers.push(cb_model::LayerKv {
            k: l.k.slice_rows(n, rows),
            v: l.v.slice_rows(n, rows),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_model::{ModelConfig, ModelProfile};
    use cb_tokenizer::TokenKind::*;

    fn model() -> Model {
        Model::compiled(ModelConfig::standard(ModelProfile::Tiny, 11))
    }

    #[test]
    fn precompute_strips_bos() {
        let m = model();
        let v = &m.cfg.vocab;
        let toks = vec![v.id(Entity(1)), v.id(Attr(0)), v.id(Value(3))];
        let c = precompute_chunk(&m, &toks);
        assert_eq!(c.len(), 3);
        assert_eq!(c.positions, vec![1, 2, 3]);
        assert_eq!(c.tokens, toks);
    }

    #[test]
    fn precompute_matches_prefill_rows() {
        let m = model();
        let v = &m.cfg.vocab;
        let toks = vec![v.id(Entity(1)), v.id(Attr(0)), v.id(Value(3))];
        let c = precompute_chunk(&m, &toks);
        let (full, _) = m.prefill(&[vec![v.id(Bos)], toks.clone()].concat());
        for l in 0..m.n_layers() {
            let want = full.layers[l].k.slice_rows(1, 4);
            let d = c.layers[l].k.frobenius_distance(&want);
            assert!(d < 1e-5, "layer {l} K mismatch after strip: {d}");
        }
    }

    #[test]
    #[should_panic(expected = "empty chunk")]
    fn empty_chunk_rejected() {
        let m = model();
        let _ = precompute_chunk(&m, &[]);
    }
}
