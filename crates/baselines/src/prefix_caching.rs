//! Prefix caching (vLLM / SGLang style).
//!
//! The request's token stream is split into fixed blocks; each block's id
//! is the chain hash of its content *and* everything before it, so a block
//! cache is valid only behind the exact same prefix. On a request, the
//! engine walks the chain while blocks hit, reuses their KV rows verbatim
//! (no rotation needed — a prefix is position-identical), prefills the
//! rest, and inserts the newly computed blocks.
//!
//! Quality is exactly full recompute; the saving is limited to the leading
//! run of cached blocks — with multi-chunk RAG inputs only the first chunk
//! ever matches, which is the paper's core criticism (§3.2).

use cb_kv::chunk::{chain_hash, ChunkId};
use cb_kv::store::{KvStore, TierConfig};
use cb_model::{KvCache, Model};
use cb_tokenizer::TokenId;

/// Outcome of a prefix-cached run.
#[derive(Clone, Debug)]
pub struct PrefixOutcome {
    /// The generated answer tokens.
    pub answer: Vec<TokenId>,
    /// Tokens served from the prefix cache.
    pub hit_tokens: usize,
    /// Tokens prefilled (request length − hits).
    pub prefilled_tokens: usize,
}

/// A prefix-caching serving engine with a tiered block store.
pub struct PrefixCachingEngine {
    block: usize,
    store: KvStore,
}

/// Copies rows `lo..hi` of a cache into a standalone cache.
fn slice_cache(cache: &KvCache, lo: usize, hi: usize) -> KvCache {
    KvCache {
        layers: cache
            .layers
            .iter()
            .map(|l| cb_model::LayerKv {
                k: l.k.slice_rows(lo, hi),
                v: l.v.slice_rows(lo, hi),
            })
            .collect(),
        positions: cache.positions[lo..hi].to_vec(),
        tokens: cache.tokens[lo..hi].to_vec(),
    }
}

impl PrefixCachingEngine {
    /// Creates an engine with the given block size and storage tiers.
    pub fn new(block: usize, tiers: Vec<TierConfig>) -> Self {
        assert!(block > 0, "block size must be positive");
        Self {
            block,
            store: KvStore::new(tiers),
        }
    }

    /// Convenience: a RAM-only engine (the paper idealizes prefix-cache
    /// loading as free, so tiering matters only for capacity).
    pub fn in_ram(block: usize, capacity: u64) -> Self {
        Self::new(block, vec![TierConfig::new("cpu-ram", capacity)])
    }

    /// Block-chain ids of a request's complete blocks.
    fn chain_ids(&self, tokens: &[TokenId]) -> Vec<ChunkId> {
        let mut ids = Vec::new();
        let mut prev = ChunkId(0);
        for b in tokens.chunks(self.block) {
            if b.len() < self.block {
                break; // trailing partial block is never cached
            }
            let id = chain_hash(prev, b);
            ids.push(id);
            prev = id;
        }
        ids
    }

    /// Runs one request (`tokens` = BOS + context + query), reusing and
    /// updating the prefix store.
    pub fn run(&self, model: &Model, tokens: &[TokenId], max_tokens: usize) -> PrefixOutcome {
        let ids = self.chain_ids(tokens);
        // Walk the chain while blocks hit.
        let mut segments: Vec<KvCache> = Vec::new();
        for id in &ids {
            match self.store.get(*id) {
                Ok(Some((c, _tier))) => segments.push(c),
                _ => break,
            }
        }
        let hit_blocks = segments.len();
        let hit_tokens = hit_blocks * self.block;

        let mut cache = if segments.is_empty() {
            model.new_cache()
        } else {
            let refs: Vec<&KvCache> = segments.iter().collect();
            KvCache::concat(&refs)
        };
        debug_assert_eq!(cache.len(), hit_tokens);

        // Prefill the remainder behind the cached prefix, with room for it
        // and the answer so neither moves the cache.
        let rest = &tokens[hit_tokens..];
        cache.reserve(rest.len() + max_tokens);
        let positions: Vec<usize> = (hit_tokens..tokens.len()).collect();
        let x = model.forward_rows(rest, &positions, &mut cache, None);
        let last = x.row(x.rows() - 1).to_vec();

        // Insert the newly computed complete blocks.
        for (b, id) in ids.iter().enumerate().skip(hit_blocks) {
            let lo = b * self.block;
            let seg = slice_cache(&cache, lo, lo + self.block);
            let _ = self.store.insert(*id, &seg);
        }

        let answer = model.decode_greedy(&mut cache, &last, max_tokens);
        PrefixOutcome {
            answer,
            hit_tokens,
            prefilled_tokens: tokens.len() - hit_tokens,
        }
    }

    /// Store statistics (hits/misses/evictions).
    pub fn store_stats(&self) -> cb_kv::store::StoreStats {
        self.store.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_model::{ModelConfig, ModelProfile};
    use cb_tokenizer::TokenKind::*;

    fn model() -> Model {
        Model::compiled(ModelConfig::standard(ModelProfile::Tiny, 11))
    }

    fn request(m: &Model, first: u32) -> Vec<TokenId> {
        let v = &m.cfg.vocab;
        let mut t = vec![v.id(Bos)];
        t.extend([Entity(first), Attr(0), Value(1), Sep].map(|k| v.id(k)));
        t.extend([Ref, Attr(3), Value(9), Sep].map(|k| v.id(k)));
        t.extend([Query, Entity(first), Attr(3), QMark].map(|k| v.id(k)));
        t
    }

    #[test]
    fn quality_equals_full_recompute() {
        let m = model();
        let v = &m.cfg.vocab;
        let eng = PrefixCachingEngine::in_ram(4, 1 << 24);
        let req = request(&m, 5);
        let out = eng.run(&m, &req, 4);
        assert_eq!(out.answer, vec![v.id(Value(9))]);
        assert_eq!(out.hit_tokens, 0, "cold store has no hits");
    }

    #[test]
    fn repeated_request_hits_the_prefix() {
        let m = model();
        let eng = PrefixCachingEngine::in_ram(4, 1 << 24);
        let req = request(&m, 5);
        let cold = eng.run(&m, &req, 4);
        let warm = eng.run(&m, &req, 4);
        assert_eq!(warm.answer, cold.answer);
        // 13 tokens → 3 complete blocks of 4 cached.
        assert_eq!(warm.hit_tokens, 12);
        assert_eq!(warm.prefilled_tokens, req.len() - 12);
    }

    #[test]
    fn shared_prefix_with_different_suffix_partially_hits() {
        let m = model();
        let eng = PrefixCachingEngine::in_ram(4, 1 << 24);
        let a = request(&m, 5);
        eng.run(&m, &a, 4);
        // Same first chunk, different second chunk → only leading blocks hit.
        let v = &m.cfg.vocab;
        let mut b = vec![v.id(Bos)];
        b.extend([Entity(5), Attr(0), Value(1), Sep].map(|k| v.id(k)));
        b.extend([Entity(8), Attr(2), Value(4), Sep].map(|k| v.id(k)));
        b.extend([Query, Entity(8), Attr(2), QMark].map(|k| v.id(k)));
        let out = eng.run(&m, &b, 4);
        assert_eq!(out.answer, vec![v.id(Value(4))]);
        assert!(out.hit_tokens > 0 && out.hit_tokens < 12);
    }

    #[test]
    fn different_prefix_never_hits() {
        let m = model();
        let eng = PrefixCachingEngine::in_ram(4, 1 << 24);
        eng.run(&m, &request(&m, 5), 4);
        let out = eng.run(&m, &request(&m, 6), 4);
        assert_eq!(out.hit_tokens, 0, "chain hash must isolate prefixes");
    }

    #[test]
    fn eviction_under_tiny_capacity_still_correct() {
        let m = model();
        let eng = PrefixCachingEngine::in_ram(4, 200_000);
        for e in 0..4 {
            let out = eng.run(&m, &request(&m, e), 4);
            assert_eq!(out.answer, vec![m.cfg.vocab.id(Value(9))]);
        }
        assert!(eng.store_stats().evictions > 0, "expected LRU churn");
    }
}
