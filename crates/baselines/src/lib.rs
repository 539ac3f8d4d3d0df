//! The baselines CacheBlend is evaluated against (§7.1).
//!
//! - [`full_recompute`] — prefill everything (the quality gold standard).
//! - [`prefix_caching`] — vLLM/SGLang-style block-hash prefix reuse: exact
//!   quality, but only the leading cached blocks save compute.
//! - [`full_reuse`] — PromptCache-style concatenation of independently
//!   precomputed chunk caches with positional correction but *no*
//!   recompute: fastest, loses cross-attention.
//! - [`rag_methods`] — LangChain's MapReduce and MapRerank chains, which
//!   sidestep multi-chunk prefill by processing chunks independently.
//!
//! Each runner returns the generated answer plus the accounting the bench
//! harness feeds into `cb-storage`'s delay model.

pub mod full_recompute;
pub mod full_reuse;
pub mod prefix_caching;
pub mod rag_methods;

pub use full_recompute::run_full_recompute;
pub use full_reuse::{reused_context, run_full_reuse};
pub use prefix_caching::PrefixCachingEngine;
pub use rag_methods::{run_map_reduce, run_map_rerank};

/// The execution schemes compared across the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Full prefill, no reuse.
    FullRecompute,
    /// Prefix caching (RAM, idealized free loads — the paper's assumption).
    PrefixCaching,
    /// Full KV reuse (PromptCache).
    FullReuse,
    /// CacheBlend (selective recompute, the paper's system).
    CacheBlend,
    /// LangChain MapReduce.
    MapReduce,
    /// LangChain MapRerank.
    MapRerank,
}

impl SchemeKind {
    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::FullRecompute => "Full KV recompute",
            SchemeKind::PrefixCaching => "Prefix caching",
            SchemeKind::FullReuse => "Full KV reuse",
            SchemeKind::CacheBlend => "CacheBlend",
            SchemeKind::MapReduce => "MapReduce",
            SchemeKind::MapRerank => "MapRerank",
        }
    }
}
