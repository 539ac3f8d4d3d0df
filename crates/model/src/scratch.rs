//! Reusable scratch arenas for the forward pass.
//!
//! Every buffer the hot path writes between two weights lives here, so a
//! caller that keeps one [`Scratch`] alive across calls (the decode loop,
//! the fusor's per-layer loop, an `EngineService` worker) performs **zero
//! steady-state heap allocations**: `Matrix::zero_resize` reuses the
//! backing `Vec` once it has grown to the high-water mark, and
//! [`Scratch::reserve_decode`] pre-grows everything for a decode of known
//! depth so even the warm-up allocations happen before the timed region.
//!
//! Fields are public by design — the borrow checker can split a `&mut
//! Scratch` per field at the call site (`model.qkv_into(.., &mut s.q, &mut
//! s.k, ..)`), which is what lets one arena feed several kernels in a
//! single layer step. Contents between calls are unspecified.

use cb_tensor::{KeyPanels, Matrix};

/// Per-head attention buffers.
#[derive(Clone, Debug, Default)]
pub struct HeadScratch {
    /// `q_rows × keys` attention scores (probabilities after softmax).
    pub scores: Matrix,
    /// `q_rows × head_dim` context rows: the context stage's output.
    pub ctx: Matrix,
    /// `q_rows × d_model` residual delta of this head: the projection
    /// stage's output (left untouched by
    /// [`Model::attend_context_into`](crate::Model::attend_context_into),
    /// whose caller projects the context rows itself).
    pub delta: Matrix,
}

impl HeadScratch {
    fn new() -> Self {
        Self {
            scores: Matrix::zeros(0, 0),
            ctx: Matrix::zeros(0, 0),
            delta: Matrix::zeros(0, 0),
        }
    }
}

/// Buffers for one multi-head attention call. Heads are separate so the
/// per-head jobs can run in parallel on disjoint buffers and still reduce
/// into the residual in fixed head order (bit-deterministic for any pool
/// size).
#[derive(Clone, Debug, Default)]
pub struct AttendScratch {
    /// One buffer set per head (grown on demand).
    pub heads: Vec<HeadScratch>,
    /// Key positions as f32 (the relative-bias fast path).
    pub k_pos_f32: Vec<f32>,
    /// Per-query causal cutoffs (first masked key index), shared by all
    /// heads of one attend call.
    pub cuts: Vec<usize>,
    /// The keys laid out once per attend call for the tiled score kernel
    /// (only when the call has enough query rows to use it).
    pub keys: KeyPanels,
}

impl AttendScratch {
    /// Ensures buffers exist for `n` heads.
    pub fn ensure_heads(&mut self, n: usize) {
        while self.heads.len() < n {
            self.heads.push(HeadScratch::new());
        }
    }

    /// Pre-grows the buffers of a single-row attend over up to `max_keys`
    /// keys on a model with the given shape, so the decode steps that
    /// reuse them allocate nothing.
    pub fn reserve_decode(
        &mut self,
        n_heads: usize,
        d_model: usize,
        kv_width: usize,
        max_keys: usize,
    ) {
        self.ensure_heads(n_heads);
        for hs in &mut self.heads {
            hs.scores.zero_resize(1, max_keys);
            hs.ctx.zero_resize(1, kv_width);
            hs.delta.zero_resize(1, d_model);
        }
        self.k_pos_f32.reserve(max_keys);
        self.cuts.reserve(1);
    }
}

/// The full forward-pass arena.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    /// Residual rows (`tokens × d_model`); holds the forward result after
    /// `forward_rows_with`.
    pub x: Matrix,
    /// Per-layer queries (`tokens × kv_width`).
    pub q: Matrix,
    /// Per-layer keys.
    pub k: Matrix,
    /// Per-layer values.
    pub v: Matrix,
    /// Attention residual delta.
    pub delta: Matrix,
    /// Attention buffers.
    pub attend: AttendScratch,
    /// MLP hidden buffer (gate / first projection).
    pub h1: Matrix,
    /// MLP hidden buffer (up projection).
    pub h2: Matrix,
    /// MLP output delta.
    pub mlp_out: Matrix,
    /// 1-row residual staging for the unembedding.
    pub logits_in: Matrix,
    /// `1 × vocab` logits.
    pub logits: Matrix,
    /// Key positions of the current forward call.
    pub k_pos: Vec<usize>,
}

impl Scratch {
    /// A fresh (empty) arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-grows every buffer for a decode loop over a cache that will
    /// reach `max_keys` tokens on a model with the given shape, so the
    /// steady-state loop allocates nothing at all.
    pub fn reserve_decode(
        &mut self,
        n_heads: usize,
        d_model: usize,
        kv_width: usize,
        max_keys: usize,
    ) {
        self.x.zero_resize(1, d_model);
        self.q.zero_resize(1, kv_width);
        self.k.zero_resize(1, kv_width);
        self.v.zero_resize(1, kv_width);
        self.delta.zero_resize(1, d_model);
        self.attend
            .reserve_decode(n_heads, d_model, kv_width, max_keys);
        self.k_pos.reserve(max_keys);
    }
}
