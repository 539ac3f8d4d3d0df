//! The [`Model`] type and its forward passes.
//!
//! All higher-level execution modes — full prefill, prefix-cached prefill,
//! full KV reuse, and CacheBlend's selective recompute — are composed from
//! three primitives exposed here:
//!
//! - [`Model::qkv`]: project residual rows to per-head Q/K/V (RoPE applied),
//! - [`Model::attend`]: masked multi-head attention of query rows against a
//!   full K/V set at arbitrary absolute positions,
//! - [`Model::mlp_delta`]: the layer's feed-forward residual delta.
//!
//! [`Model::forward_rows`] strings the primitives together for the common
//! "append these tokens to a cache" case (prefill = empty cache, decode =
//! one row). The CacheBlend fusor in `cb-core` drives the primitives
//! directly to implement §4.2's masked selective recompute.
//!
//! # Execution paths
//!
//! The primitives have two implementations:
//!
//! - The **blocked path** (default): QKV is a single fused blocked matmul
//!   over [`crate::weights::Layer::fused_qkv`] plus in-place RoPE; attention
//!   reads per-head column blocks in place (no `col_block` copies), applies
//!   the causal mask by binary search over the sorted key positions, the
//!   positional biases by O(1)/vectorized specializations, and runs heads in
//!   parallel on the `cb-tensor` thread pool (reduced in fixed head order,
//!   so results are bit-identical for any pool size). Every intermediate
//!   lives in a caller-provided [`Scratch`] arena: a warm decode loop
//!   allocates nothing.
//! - The **reference path** ([`Model::reference_kernels`] = true): the
//!   seed's original per-head scalar loops, kept as the parity baseline for
//!   tests and the "scalar" arm of the throughput benchmarks.

use cb_tensor::matrix::SCORE_TILE_MIN_ROWS;
use cb_tensor::ops;
use cb_tensor::pool;
use cb_tensor::Matrix;
use cb_tokenizer::codes::CodeBook;
use cb_tokenizer::{TokenId, TokenKind};

use crate::config::ModelConfig;
use crate::kvcache::KvCache;
use crate::program;
use crate::scratch::{AttendScratch, HeadScratch, Scratch};
use crate::weights::{AttnBias, Layer};

/// Minimum `q_rows × keys` product before attention heads are fanned out
/// to the thread pool (below this the dispatch overhead dominates — e.g.
/// single-row decode steps stay serial).
const PAR_ATTEND_WORK: usize = 8192;

/// Per-layer attention probabilities of traced query rows (mean over heads,
/// `traced_q × keys`). Used for the forward-attention-deviation metric
/// (Δattn, Figures 4 and 6).
#[derive(Clone, Debug, Default)]
pub struct ForwardTrace {
    /// One matrix per layer.
    pub attn: Vec<Matrix>,
}

/// A compiled or random transformer.
#[derive(Clone, Debug)]
pub struct Model {
    /// Configuration (profile, heads, seeds).
    pub cfg: ModelConfig,
    /// Token identity codes shared with the dataset generators.
    pub codebook: CodeBook,
    /// Embedding table, `vocab × d_model`.
    pub embed: Matrix,
    /// Unembedding, `d_model × vocab`.
    pub unembed: Matrix,
    /// Transformer layers.
    pub layers: Vec<Layer>,
    /// When set, every forward primitive runs the seed's scalar reference
    /// implementation (per-head matmuls, copied column blocks, per-element
    /// mask/bias loops, copy-on-append caches). The throughput benchmarks
    /// flip this on one clone to measure the blocked path against it.
    pub reference_kernels: bool,
}

impl Model {
    /// Builds the compiled recall-program model for a configuration.
    pub fn compiled(cfg: ModelConfig) -> Self {
        program::compile(cfg)
    }

    /// Builds an all-noise model (used by throughput benches where only the
    /// computation shape matters).
    pub fn random(cfg: ModelConfig) -> Self {
        program::compile_noise_only(cfg)
    }

    /// This model with the reference (seed) kernels selected.
    pub fn with_reference_kernels(mut self) -> Self {
        self.reference_kernels = true;
        self
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Creates an empty KV cache shaped for this model.
    pub fn new_cache(&self) -> KvCache {
        KvCache::empty(self.n_layers(), self.cfg.kv_width())
    }

    /// Embeds tokens into residual rows (`tokens.len() × d_model`).
    pub fn embed_tokens(&self, tokens: &[TokenId]) -> Matrix {
        let mut x = Matrix::zeros(0, 0);
        self.embed_tokens_into(tokens, &mut x);
        x
    }

    /// [`Model::embed_tokens`] into a caller-provided buffer.
    pub fn embed_tokens_into(&self, tokens: &[TokenId], out: &mut Matrix) {
        out.zero_resize(tokens.len(), self.cfg.d_model());
        for (r, &t) in tokens.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.embed.row(t as usize));
        }
    }

    /// Projects residual rows to Q/K/V for `layer`, RoPE-rotating Q and K at
    /// the given absolute positions. Outputs are head-major
    /// (`rows × kv_width`).
    pub fn qkv(&self, layer: usize, x: &Matrix, pos: &[usize]) -> (Matrix, Matrix, Matrix) {
        let (mut q, mut k, mut v) = (Matrix::default(), Matrix::default(), Matrix::default());
        let mut fused = Matrix::default();
        self.qkv_into(layer, x, pos, &mut q, &mut k, &mut v, &mut fused);
        (q, k, v)
    }

    /// [`Model::qkv`] into caller-provided buffers (`fused` is the packed
    /// projection staging area): one blocked matmul against
    /// [`Layer::fused_qkv`], a split, and in-place RoPE.
    #[allow(clippy::too_many_arguments)]
    pub fn qkv_into(
        &self,
        layer: usize,
        x: &Matrix,
        pos: &[usize],
        q: &mut Matrix,
        k: &mut Matrix,
        v: &mut Matrix,
        fused: &mut Matrix,
    ) {
        assert_eq!(x.rows(), pos.len(), "row/position count mismatch");
        if self.reference_kernels {
            let (qr, kr, vr) = self.qkv_reference(layer, x, pos);
            *q = qr;
            *k = kr;
            *v = vr;
            return;
        }
        let hd = self.cfg.head_dim;
        let width = self.cfg.kv_width();
        let n = x.rows();
        x.matmul_into(&self.layers[layer].fused_qkv, fused);
        q.zero_resize(n, width);
        k.zero_resize(n, width);
        v.zero_resize(n, width);
        for r in 0..n {
            let src = fused.row(r);
            q.row_mut(r).copy_from_slice(&src[..width]);
            k.row_mut(r).copy_from_slice(&src[width..2 * width]);
            v.row_mut(r).copy_from_slice(&src[2 * width..]);
        }
        for (h, head) in self.layers[layer].heads.iter().enumerate() {
            if let Some(table) = &head.rope {
                let (lo, hi) = (h * hd, (h + 1) * hd);
                for (r, &p) in pos.iter().enumerate() {
                    table.rotate(&mut q.row_mut(r)[lo..hi], p as f32);
                    table.rotate(&mut k.row_mut(r)[lo..hi], p as f32);
                }
            }
        }
    }

    /// The seed's per-head QKV (3 scalar matmuls and a column-block copy
    /// per head) — the scalar baseline.
    pub fn qkv_reference(
        &self,
        layer: usize,
        x: &Matrix,
        pos: &[usize],
    ) -> (Matrix, Matrix, Matrix) {
        assert_eq!(x.rows(), pos.len(), "row/position count mismatch");
        let hd = self.cfg.head_dim;
        let width = self.cfg.kv_width();
        let mut q = Matrix::zeros(x.rows(), width);
        let mut k = Matrix::zeros(x.rows(), width);
        let mut v = Matrix::zeros(x.rows(), width);
        for (h, head) in self.layers[layer].heads.iter().enumerate() {
            let mut qh = x.matmul_reference(&head.wq);
            let mut kh = x.matmul_reference(&head.wk);
            let vh = x.matmul_reference(&head.wv);
            if let Some(table) = &head.rope {
                cb_tensor::rope::apply_rope(&mut qh, table, pos);
                cb_tensor::rope::apply_rope(&mut kh, table, pos);
            }
            q.set_col_block(h * hd, &qh);
            k.set_col_block(h * hd, &kh);
            v.set_col_block(h * hd, &vh);
        }
        (q, k, v)
    }

    /// Multi-head attention of query rows (`q`, at positions `q_pos`)
    /// against the full key/value set (`k_all`/`v_all`, at positions
    /// `k_pos`), causally masked by absolute position. Returns the residual
    /// delta (`q.rows() × d_model`).
    ///
    /// When `probs_out` is provided it receives the attention probabilities
    /// averaged over heads (`q.rows() × k_all.rows()`).
    #[allow(clippy::too_many_arguments)]
    pub fn attend(
        &self,
        layer: usize,
        q: &Matrix,
        q_pos: &[usize],
        k_all: &Matrix,
        v_all: &Matrix,
        k_pos: &[usize],
        probs_out: Option<&mut Matrix>,
    ) -> Matrix {
        let mut delta = Matrix::default();
        let mut scratch = AttendScratch::default();
        self.attend_into(
            layer,
            q,
            q_pos,
            k_all,
            v_all,
            k_pos,
            probs_out,
            &mut delta,
            &mut scratch,
        );
        delta
    }

    /// [`Model::attend`] into caller-provided buffers. Per-head work (score
    /// block, mask/bias, softmax, context, output projection) runs on the
    /// thread pool when large enough; head deltas are reduced serially in
    /// head order, so the result is bit-identical for any pool size.
    #[allow(clippy::too_many_arguments)]
    pub fn attend_into(
        &self,
        layer: usize,
        q: &Matrix,
        q_pos: &[usize],
        k_all: &Matrix,
        v_all: &Matrix,
        k_pos: &[usize],
        mut probs_out: Option<&mut Matrix>,
        delta: &mut Matrix,
        scratch: &mut AttendScratch,
    ) {
        if self.reference_kernels {
            *delta = self.attend_reference(layer, q, q_pos, k_all, v_all, k_pos, probs_out);
            return;
        }
        let hd = self.cfg.head_dim;
        let heads = &self.layers[layer].heads;
        delta.zero_resize(q.rows(), self.cfg.d_model());
        if let Some(p) = probs_out.as_deref_mut() {
            p.zero_resize(q.rows(), k_all.rows());
        }
        scratch.ensure_heads(heads.len());
        scratch.k_pos_f32.clear();
        scratch.k_pos_f32.extend(k_pos.iter().map(|&p| p as f32));
        let k_pos_f32: &[f32] = &scratch.k_pos_f32;
        // The causal-cutoff fast path needs strictly increasing key
        // positions (binary-searchable); every caller in the repo
        // satisfies this, but the general loop remains as the fallback.
        let sorted = k_pos.windows(2).all(|w| w[0] < w[1]);
        let cuts: Option<&[usize]> = if sorted {
            scratch.cuts.clear();
            scratch.cuts.extend(
                q_pos
                    .iter()
                    .map(|&qp| k_pos.partition_point(|&kp| kp <= qp)),
            );
            Some(&scratch.cuts)
        } else {
            None
        };
        // With enough query rows the scores run as tiles over keys laid out
        // once here for every head; decode's single row keeps the dot
        // kernel, for which the layout would cost more than it saves.
        let keys = (sorted && q.rows() >= SCORE_TILE_MIN_ROWS).then(|| {
            scratch.keys.pack(k_all);
            &scratch.keys
        });

        let run_head = |h: usize, hs: &mut HeadScratch| {
            let head = &heads[h];
            let (lo, hi) = (h * hd, (h + 1) * hd);
            match cuts {
                Some(c) => {
                    // Masked scores are never computed: row i gets dots
                    // only for keys below its causal cutoff (scale folded
                    // into the store), the tail is exact 0.0 (so the
                    // context product skips it too).
                    let scores = &mut hs.scores;
                    match keys {
                        Some(kp) => {
                            q.matmul_key_panels_limited_into(kp, lo, hi, c, head.scale, scores)
                        }
                        None => q.matmul_transposed_block_limited_into(
                            k_all, lo, hi, c, head.scale, scores,
                        ),
                    }
                    bias_softmax_sorted(&mut hs.scores, q_pos, k_pos, k_pos_f32, head.bias, c);
                }
                None => {
                    q.matmul_transposed_block_into(k_all, lo, hi, &mut hs.scores);
                    if head.scale != 1.0 {
                        hs.scores.scale(head.scale);
                    }
                    mask_bias_softmax_general(&mut hs.scores, q_pos, k_pos, head.bias);
                }
            }
            // The causal cuts bound the context product too: each row tile
            // packs only the keys below its rows' largest cut.
            hs.scores.matmul_cols_into(v_all, lo, hi, cuts, &mut hs.ctx);
            hs.ctx.matmul_into(&head.wo, &mut hs.delta);
        };

        let head_scratch = &mut scratch.heads[..heads.len()];
        // Work-size check first: small (decode-step) attends skip the
        // global pool's RwLock/Arc traffic entirely.
        if heads.len() > 1
            && q.rows() * k_all.rows() >= PAR_ATTEND_WORK
            && pool::current().threads() > 1
        {
            let jobs: Vec<pool::Job<'_>> = head_scratch
                .iter_mut()
                .enumerate()
                .map(|(h, hs)| {
                    let f = &run_head;
                    let job: pool::Job<'_> = Box::new(move || f(h, hs));
                    job
                })
                .collect();
            pool::current().run(jobs);
        } else {
            for (h, hs) in head_scratch.iter_mut().enumerate() {
                run_head(h, hs);
            }
        }

        // Fixed-order reduction keeps the result independent of scheduling.
        let n_heads = heads.len();
        for hs in head_scratch.iter() {
            delta.add_assign(&hs.delta);
            if let Some(p) = probs_out.as_deref_mut() {
                for (dst, &src) in p.as_mut_slice().iter_mut().zip(hs.scores.as_slice()) {
                    *dst += src / n_heads as f32;
                }
            }
        }
    }

    /// The seed's attention (copied per-head column blocks, scalar score
    /// kernel, per-element mask/bias loop) — the scalar baseline.
    #[allow(clippy::too_many_arguments)]
    pub fn attend_reference(
        &self,
        layer: usize,
        q: &Matrix,
        q_pos: &[usize],
        k_all: &Matrix,
        v_all: &Matrix,
        k_pos: &[usize],
        mut probs_out: Option<&mut Matrix>,
    ) -> Matrix {
        let hd = self.cfg.head_dim;
        let mut delta = Matrix::zeros(q.rows(), self.cfg.d_model());
        if let Some(p) = probs_out.as_deref_mut() {
            *p = Matrix::zeros(q.rows(), k_all.rows());
        }
        let n_heads = self.layers[layer].heads.len();
        for (h, head) in self.layers[layer].heads.iter().enumerate() {
            let qh = q.col_block(h * hd, (h + 1) * hd);
            let kh = k_all.col_block(h * hd, (h + 1) * hd);
            let vh = v_all.col_block(h * hd, (h + 1) * hd);
            let mut scores = qh.matmul_transposed_reference(&kh);
            scores.scale(head.scale);
            for (i, &qp) in q_pos.iter().enumerate() {
                let row = scores.row_mut(i);
                for (j, &kp) in k_pos.iter().enumerate() {
                    if kp > qp {
                        row[j] = f32::NEG_INFINITY;
                    } else {
                        row[j] += head.bias.bias(qp, kp);
                    }
                }
                ops::softmax_row(row);
            }
            if let Some(p) = probs_out.as_deref_mut() {
                for (dst, &src) in p.as_mut_slice().iter_mut().zip(scores.as_slice()) {
                    *dst += src / n_heads as f32;
                }
            }
            let ctx = scores.matmul_reference(&vh);
            delta.add_assign(&ctx.matmul_reference(&head.wo));
        }
        delta
    }

    /// The layer's feed-forward residual delta for rows `x`, if any.
    pub fn mlp_delta(&self, layer: usize, x: &Matrix) -> Option<Matrix> {
        if self.reference_kernels {
            self.layers[layer].mlp.forward_reference(x)
        } else {
            self.layers[layer].mlp.forward(x)
        }
    }

    /// Runs the full stack over `tokens` at `positions`, appending their KV
    /// to `cache`, and returns the final residual rows.
    ///
    /// - Prefill: call with an empty cache and positions `0..n`.
    /// - Prefix-cached prefill / full KV reuse: call with the context cache
    ///   already populated and suffix positions following it.
    /// - Decode: call with a single token.
    ///
    /// When `trace` is given, each layer's attention probabilities for these
    /// rows are recorded (mean over heads).
    pub fn forward_rows(
        &self,
        tokens: &[TokenId],
        positions: &[usize],
        cache: &mut KvCache,
        trace: Option<&mut ForwardTrace>,
    ) -> Matrix {
        let mut scratch = Scratch::new();
        self.forward_rows_with(tokens, positions, cache, trace, &mut scratch);
        scratch.x
    }

    /// [`Model::forward_rows`] on a caller-provided [`Scratch`] arena; the
    /// final residual rows are left in `scratch.x`. A loop that keeps the
    /// arena warm (decode, the fusor) allocates nothing per call.
    pub fn forward_rows_with(
        &self,
        tokens: &[TokenId],
        positions: &[usize],
        cache: &mut KvCache,
        mut trace: Option<&mut ForwardTrace>,
        scratch: &mut Scratch,
    ) {
        assert!(!tokens.is_empty(), "forward_rows needs at least one token");
        assert_eq!(tokens.len(), positions.len());
        assert!(
            cache.positions.iter().all(|&p| p < positions[0]),
            "new rows must follow all cached positions"
        );
        if self.reference_kernels {
            scratch.x = self.forward_rows_reference(tokens, positions, cache, trace);
            return;
        }
        self.embed_tokens_into(tokens, &mut scratch.x);
        scratch.k_pos.clear();
        scratch.k_pos.extend_from_slice(&cache.positions);
        scratch.k_pos.extend_from_slice(positions);
        for layer in 0..self.n_layers() {
            self.qkv_into(
                layer,
                &scratch.x,
                positions,
                &mut scratch.q,
                &mut scratch.k,
                &mut scratch.v,
                &mut scratch.fused,
            );
            cache.layers[layer].append(&scratch.k, &scratch.v);
            let mut probs = trace.as_deref_mut().map(|_| Matrix::zeros(0, 0));
            self.attend_into(
                layer,
                &scratch.q,
                positions,
                &cache.layers[layer].k,
                &cache.layers[layer].v,
                &scratch.k_pos,
                probs.as_mut(),
                &mut scratch.delta,
                &mut scratch.attend,
            );
            scratch.x.add_assign(&scratch.delta);
            if self.layers[layer].mlp.forward_into(
                &scratch.x,
                &mut scratch.h1,
                &mut scratch.h2,
                &mut scratch.mlp_out,
            ) {
                scratch.x.add_assign(&scratch.mlp_out);
            }
            if let (Some(t), Some(p)) = (trace.as_deref_mut(), probs) {
                t.attn.push(p);
            }
        }
        cache.positions.extend_from_slice(positions);
        cache.tokens.extend_from_slice(tokens);
    }

    /// The seed's forward pass (reference primitives, copy-on-append
    /// caches) — the scalar baseline measured by the throughput bench.
    fn forward_rows_reference(
        &self,
        tokens: &[TokenId],
        positions: &[usize],
        cache: &mut KvCache,
        mut trace: Option<&mut ForwardTrace>,
    ) -> Matrix {
        let mut x = self.embed_tokens(tokens);
        let mut k_pos: Vec<usize> = cache.positions.clone();
        k_pos.extend_from_slice(positions);
        for layer in 0..self.n_layers() {
            let (q, k, v) = self.qkv_reference(layer, &x, positions);
            cache.layers[layer].append_vcat(&k, &v);
            let mut probs = trace.as_deref_mut().map(|_| Matrix::zeros(0, 0));
            let delta = self.attend_reference(
                layer,
                &q,
                positions,
                &cache.layers[layer].k,
                &cache.layers[layer].v,
                &k_pos,
                probs.as_mut(),
            );
            x.add_assign(&delta);
            if let Some(m) = self.layers[layer].mlp.forward_reference(&x) {
                x.add_assign(&m);
            }
            if let (Some(t), Some(p)) = (trace.as_deref_mut(), probs) {
                t.attn.push(p);
            }
        }
        cache.positions.extend_from_slice(positions);
        cache.tokens.extend_from_slice(tokens);
        x
    }

    /// Full prefill from scratch: returns the populated cache and the final
    /// residual rows.
    pub fn prefill(&self, tokens: &[TokenId]) -> (KvCache, Matrix) {
        let mut cache = self.new_cache();
        let positions: Vec<usize> = (0..tokens.len()).collect();
        let x = self.forward_rows(tokens, &positions, &mut cache, None);
        (cache, x)
    }

    /// Token logits for one residual row.
    pub fn logits(&self, x_row: &[f32]) -> Vec<f32> {
        let mut staging = Matrix::default();
        let mut out = Matrix::default();
        self.logits_into(x_row, &mut staging, &mut out);
        out.as_slice().to_vec()
    }

    /// [`Model::logits`] into caller-provided buffers (`staging` holds the
    /// 1-row residual, `out` the `1 × vocab` logits). The unembedding is
    /// row-sparse for compiled models, so the probed kernel only touches
    /// the answer subspace.
    pub fn logits_into(&self, x_row: &[f32], staging: &mut Matrix, out: &mut Matrix) {
        staging.zero_resize(1, x_row.len());
        staging.row_mut(0).copy_from_slice(x_row);
        if self.reference_kernels {
            *out = staging.matmul_reference(&self.unembed);
        } else {
            staging.matmul_into(&self.unembed, out);
        }
    }

    /// Greedy decode starting from a populated cache whose last row was the
    /// end of the prompt. `last_residual` is the final residual row of the
    /// prompt (as returned by [`Model::forward_rows`]).
    ///
    /// Decoding stops at `max_tokens` or at the first non-[`TokenKind::Value`]
    /// token (answers in the structured vocabulary are value sequences).
    ///
    /// This is the sequential reference: serving decodes through
    /// [`DecodeBatch`](crate::DecodeBatch), which is bit-identical to it.
    pub fn decode_greedy(
        &self,
        cache: &mut KvCache,
        last_residual: &[f32],
        max_tokens: usize,
    ) -> Vec<TokenId> {
        let mut out = Vec::with_capacity(max_tokens);
        let mut scratch = Scratch::new();
        cache.reserve(max_tokens);
        scratch.reserve_decode(
            self.cfg.n_heads,
            self.cfg.d_model(),
            self.cfg.kv_width(),
            cache.len() + max_tokens,
        );
        self.logits_into(last_residual, &mut scratch.logits_in, &mut scratch.logits);
        // Position is loop-carried state, derived from the cache exactly
        // once: re-reading `positions.last()` per token would couple every
        // step to whatever else mutates the cache.
        let pos0 = cache.positions.last().map(|&p| p + 1).unwrap_or(0);
        for pos in pos0..pos0 + max_tokens {
            let next = ops::argmax(scratch.logits.row(0)) as TokenId;
            if !matches!(self.cfg.vocab.kind(next), TokenKind::Value(_)) {
                break;
            }
            out.push(next);
            self.forward_rows_with(&[next], &[pos], cache, None, &mut scratch);
            self.logits_into(
                scratch.x.row(0),
                &mut scratch.logits_in,
                &mut scratch.logits,
            );
        }
        out
    }

    /// Convenience: full prefill of `prompt` followed by greedy decode.
    pub fn generate(&self, prompt: &[TokenId], max_tokens: usize) -> Vec<TokenId> {
        let (mut cache, x) = self.prefill(prompt);
        let last = x.row(x.rows() - 1).to_vec();
        self.decode_greedy(&mut cache, &last, max_tokens)
    }
}

/// Positional bias + softmax for the sorted fast path: scores arrive with
/// the causal tail already exact-zero (never computed), so only the live
/// prefix `row[..cut]` is touched. [`AttnBias::None`] does nothing, the
/// self/sink gates adjust at most two entries per row (binary search),
/// and the previous-token kernel is one vectorizable pass — where the
/// reference path pays a branchy per-element loop for every head.
fn bias_softmax_sorted(
    scores: &mut Matrix,
    q_pos: &[usize],
    k_pos: &[usize],
    k_pos_f32: &[f32],
    bias: AttnBias,
    cuts: &[usize],
) {
    for (i, (&qp, &cut)) in q_pos.iter().zip(cuts).enumerate() {
        let row = scores.row_mut(i);
        match bias {
            AttnBias::None => {}
            AttnBias::PrevToken { lambda } => {
                let target = qp as f32 - 1.0;
                for (v, &kf) in row[..cut].iter_mut().zip(&k_pos_f32[..cut]) {
                    *v -= lambda * (kf - target).abs();
                }
            }
            AttnBias::ExcludeSelf { penalty } => {
                let at = k_pos.partition_point(|&kp| kp < qp);
                if at < cut && k_pos[at] == qp {
                    row[at] -= penalty;
                }
            }
            AttnBias::LookupGate {
                self_penalty,
                sink_score,
            } => {
                if cut > 0 && k_pos[0] == 0 {
                    row[0] += sink_score;
                }
                let at = k_pos.partition_point(|&kp| kp < qp);
                if at < cut && k_pos[at] == qp {
                    row[at] -= self_penalty;
                }
            }
        }
        ops::softmax_prefix_fast(row, cut);
    }
}

/// The general mask/bias/softmax loop (unsorted key positions).
fn mask_bias_softmax_general(
    scores: &mut Matrix,
    q_pos: &[usize],
    k_pos: &[usize],
    bias: AttnBias,
) {
    for (i, &qp) in q_pos.iter().enumerate() {
        let row = scores.row_mut(i);
        for (j, &kp) in k_pos.iter().enumerate() {
            if kp > qp {
                row[j] = f32::NEG_INFINITY;
            } else {
                row[j] += bias.bias(qp, kp);
            }
        }
        ops::softmax_row(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelProfile;

    fn tiny() -> Model {
        Model::compiled(ModelConfig::standard(ModelProfile::Tiny, 11))
    }

    #[test]
    fn prefill_populates_every_layer() {
        let m = tiny();
        let v = &m.cfg.vocab;
        let toks = vec![v.id(TokenKind::Bos), v.id(TokenKind::Entity(3))];
        let (cache, x) = m.prefill(&toks);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.n_layers(), m.n_layers());
        for l in &cache.layers {
            assert_eq!(l.len(), 2);
        }
        assert_eq!(x.rows(), 2);
    }

    #[test]
    fn forward_rows_incremental_matches_batch() {
        // Prefilling [a, b, c] at once must equal prefilling [a, b] then
        // extending with [c] (causal attention sees identical K/V sets).
        let m = tiny();
        let v = &m.cfg.vocab;
        let toks = vec![
            v.id(TokenKind::Bos),
            v.id(TokenKind::Entity(1)),
            v.id(TokenKind::Attr(2)),
        ];
        let (cache_full, x_full) = m.prefill(&toks);

        let mut cache_inc = m.new_cache();
        m.forward_rows(&toks[..2], &[0, 1], &mut cache_inc, None);
        let x_last = m.forward_rows(&toks[2..], &[2], &mut cache_inc, None);

        assert_eq!(cache_full.positions, cache_inc.positions);
        for l in 0..m.n_layers() {
            let d = cache_full.layers[l]
                .k
                .frobenius_distance(&cache_inc.layers[l].k);
            assert!(d < 1e-4, "layer {l} K mismatch: {d}");
        }
        let dl = cb_tensor::stats::l2_distance(x_full.row(2), x_last.row(0));
        assert!(dl < 1e-4, "residual mismatch: {dl}");
    }

    #[test]
    fn fused_qkv_matches_reference_per_head_path() {
        // Compiled (program + noise heads, partial RoPE) and pure-noise
        // models across several shapes, against the seed per-head path.
        for model in [
            tiny(),
            Model::random(ModelConfig::standard(ModelProfile::Tiny, 5)),
        ] {
            let v = &model.cfg.vocab;
            let toks: Vec<TokenId> = (0..7).map(|i| v.id(TokenKind::Filler(i % 12))).collect();
            let x = model.embed_tokens(&toks);
            let pos: Vec<usize> = (3..10).collect();
            for layer in 0..model.n_layers() {
                let (q, k, vv) = model.qkv(layer, &x, &pos);
                let (qr, kr, vr) = model.qkv_reference(layer, &x, &pos);
                for (a, b) in [(&q, &qr), (&k, &kr), (&vv, &vr)] {
                    let d = a.frobenius_distance(b);
                    assert!(d < 1e-4, "layer {layer} fused QKV mismatch: {d}");
                }
            }
        }
    }

    #[test]
    fn blocked_attend_matches_reference() {
        let m = tiny();
        let v = &m.cfg.vocab;
        let toks: Vec<TokenId> = vec![
            v.id(TokenKind::Bos),
            v.id(TokenKind::Entity(5)),
            v.id(TokenKind::Attr(0)),
            v.id(TokenKind::Value(1)),
            v.id(TokenKind::Sep),
            v.id(TokenKind::Ref),
        ];
        let (cache, _) = m.prefill(&toks);
        let x = m.embed_tokens(&toks);
        let pos: Vec<usize> = (0..toks.len()).collect();
        for layer in 0..m.n_layers() {
            let (q, _, _) = m.qkv(layer, &x, &pos);
            let lk = &cache.layers[layer];
            let mut probs_fast = Matrix::default();
            let mut probs_ref = Matrix::default();
            let fast = m.attend(layer, &q, &pos, &lk.k, &lk.v, &pos, Some(&mut probs_fast));
            let refr =
                m.attend_reference(layer, &q, &pos, &lk.k, &lk.v, &pos, Some(&mut probs_ref));
            let d = fast.frobenius_distance(&refr);
            assert!(d < 1e-3, "layer {layer} attend mismatch: {d}");
            let dp = probs_fast.frobenius_distance(&probs_ref);
            assert!(dp < 1e-4, "layer {layer} probs mismatch: {dp}");
        }
    }

    #[test]
    fn reference_model_matches_blocked_model_end_to_end() {
        let m = tiny();
        let r = tiny().with_reference_kernels();
        let v = &m.cfg.vocab;
        let toks = vec![
            v.id(TokenKind::Bos),
            v.id(TokenKind::Entity(5)),
            v.id(TokenKind::Attr(0)),
            v.id(TokenKind::Value(1)),
            v.id(TokenKind::Sep),
            v.id(TokenKind::Query),
            v.id(TokenKind::Entity(5)),
            v.id(TokenKind::Attr(0)),
            v.id(TokenKind::QMark),
        ];
        let (cf, xf) = m.prefill(&toks);
        let (cr, xr) = r.prefill(&toks);
        for l in 0..m.n_layers() {
            let d = cf.layers[l].k.frobenius_distance(&cr.layers[l].k)
                + cf.layers[l].v.frobenius_distance(&cr.layers[l].v);
            assert!(d < 1e-3, "layer {l} KV diverges: {d}");
        }
        let dl = cb_tensor::stats::l2_distance(xf.row(xf.rows() - 1), xr.row(xr.rows() - 1));
        assert!(dl < 1e-3, "final residual diverges: {dl}");
        assert_eq!(m.generate(&toks, 4), r.generate(&toks, 4));
    }

    #[test]
    fn scratch_reuse_is_stable_across_calls() {
        // Reusing one arena across forward calls must give the same rows
        // as fresh allocations every time.
        let m = tiny();
        let v = &m.cfg.vocab;
        let toks = [
            v.id(TokenKind::Bos),
            v.id(TokenKind::Entity(1)),
            v.id(TokenKind::Attr(2)),
            v.id(TokenKind::Value(3)),
        ];
        let mut scratch = Scratch::new();
        let mut cache_a = m.new_cache();
        m.forward_rows_with(&toks[..2], &[0, 1], &mut cache_a, None, &mut scratch);
        m.forward_rows_with(&toks[2..3], &[2], &mut cache_a, None, &mut scratch);
        m.forward_rows_with(&toks[3..], &[3], &mut cache_a, None, &mut scratch);
        let reused = scratch.x.clone();

        let mut cache_b = m.new_cache();
        m.forward_rows(&toks[..2], &[0, 1], &mut cache_b, None);
        m.forward_rows(&toks[2..3], &[2], &mut cache_b, None);
        let fresh = m.forward_rows(&toks[3..], &[3], &mut cache_b, None);
        assert_eq!(reused, fresh, "scratch reuse changed the forward result");
        for l in 0..m.n_layers() {
            assert_eq!(cache_a.layers[l], cache_b.layers[l]);
        }
    }

    #[test]
    fn trace_records_one_matrix_per_layer() {
        let m = tiny();
        let v = &m.cfg.vocab;
        let toks = vec![v.id(TokenKind::Bos), v.id(TokenKind::Entity(1))];
        let mut cache = m.new_cache();
        let mut trace = ForwardTrace::default();
        m.forward_rows(&toks, &[0, 1], &mut cache, Some(&mut trace));
        assert_eq!(trace.attn.len(), m.n_layers());
        assert_eq!(trace.attn[0].rows(), 2);
        assert_eq!(trace.attn[0].cols(), 2);
        // Attention rows are probability distributions.
        let s: f32 = trace.attn[0].row(1).iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "must follow all cached positions")]
    fn forward_rows_rejects_out_of_order_positions() {
        let m = tiny();
        let v = &m.cfg.vocab;
        let mut cache = m.new_cache();
        m.forward_rows(&[v.id(TokenKind::Bos)], &[5], &mut cache, None);
        m.forward_rows(&[v.id(TokenKind::Sep)], &[3], &mut cache, None);
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn empty_prefill_rejected() {
        let m = tiny();
        let _ = m.prefill(&[]);
    }

    #[test]
    fn decode_with_zero_budget_returns_nothing() {
        let m = tiny();
        let v = &m.cfg.vocab;
        let (mut cache, x) = m.prefill(&[v.id(TokenKind::Bos)]);
        let last = x.row(0).to_vec();
        assert!(m.decode_greedy(&mut cache, &last, 0).is_empty());
    }

    #[test]
    fn random_model_runs_forward() {
        let m = Model::random(ModelConfig::standard(ModelProfile::Tiny, 2));
        let v = &m.cfg.vocab;
        let toks: Vec<_> = (0..8).map(|i| v.id(TokenKind::Filler(i))).collect();
        let (cache, x) = m.prefill(&toks);
        assert_eq!(cache.len(), 8);
        assert!(x.max_abs().is_finite());
    }
}
