//! Continuous (iteration-level) batched greedy decode.
//!
//! [`DecodeBatch`] holds many in-flight sequences — each with its own
//! [`KvCache`], residual row, position counter, and token budget — and
//! advances all of them one token per [`DecodeBatch::step`]. Sequences
//! join ([`DecodeBatch::admit`]) and leave (retire-on-stop or
//! budget exhaustion) *between* steps, vLLM/Orca-style, so a scheduler
//! can keep the batch full under churn.
//!
//! # What is fused, what stays per-sequence
//!
//! Per step, the token-parallel stages run as one multi-row kernel call
//! across every active sequence: embedding, the Q, K and V projections
//! (+ per-row RoPE at each sequence's own position), the MLP, the
//! attention output projection, and the final logits matmul. Attention's
//! context stage cannot fuse — each sequence attends over its own K/V
//! set — so scores, softmax and P·V
//! ([`Model::attend_context_into`]) run per sequence against that slot's
//! cache, with per-slot scratch, fanned out across the `cb-tensor` thread
//! pool (disjoint slots, fixed output layout, so scheduling order cannot
//! change any byte produced). The projection stage then fuses per head:
//! every slot's context row of head `h` is stacked into one
//! `slots × head_dim` matrix and multiplied by the head's output
//! projection in one product, and the head products are summed in head
//! order into a delta that starts at `+0.0` before it joins the residual
//! — per layer, `heads` small GEMMs instead of `slots × heads` single-row
//! ones.
//!
//! # Bit-identity to the sequential path
//!
//! Every kernel invoked here accumulates each output element in a fixed
//! reduction order that depends only on that element's input row
//! (`cb-tensor`'s blocked matmul guarantees this for any row count and
//! pool size), the per-sequence context stage is invoked with exactly the
//! arguments the sequential decode loop passes to [`Model::attend_into`],
//! and the projection stage sums each row's head products in
//! `attend_into`'s order, from the same `+0.0`. So each sequence's token
//! stream and final cache are bit-identical to [`Model::decode_greedy`]
//! run alone, at any batch composition and any thread count —
//! property-tested in this module and in `tests/properties.rs`.
//!
//! # Allocations
//!
//! A warm step at one pool thread allocates only each layer's job list:
//! the `Vec` of jobs and its one boxed job, 28 allocations on the 14-layer
//! Llama-70B stand-in at occupancy 4 (`tests/decode_alloc.rs` pins this
//! with a counting allocator). Retiring a sequence adds the returned list
//! and, the first time, the compacted residual buffer. Every other buffer
//! is per-slot or per-batch scratch that keeps its high-water allocation,
//! and admission reserves each slot's cache, key positions and attention
//! scratch for its whole token budget.
//!
//! One intentional divergence: the sequential loop computes one final
//! (unused) logits row after the last budgeted token; the batch skips
//! that dead matmul. It reads no state and writes only scratch, so
//! nothing observable differs.

use cb_tensor::{ops, pool, Matrix};
use cb_tokenizer::{TokenId, TokenKind};

use crate::kvcache::KvCache;
use crate::model::Model;
use crate::scratch::AttendScratch;

/// Identifies one admitted sequence for the lifetime of the batch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SeqId(u64);

impl SeqId {
    /// The raw id (unique per [`DecodeBatch`], monotonically assigned).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A retired sequence: its decoded answer tokens and the cache extended
/// with their rows (exactly what [`Model::decode_greedy`] leaves behind).
#[derive(Debug)]
pub struct FinishedSeq {
    /// The KV cache including every decoded token's rows.
    pub cache: KvCache,
    /// The decoded answer tokens, in emission order.
    pub tokens: Vec<TokenId>,
}

/// One in-flight sequence.
struct Slot {
    id: SeqId,
    cache: KvCache,
    /// Key positions for attention: mirrors `cache.positions` plus, during
    /// a step's forward phase, the position of the row being decoded
    /// (`cache.positions` itself is extended only after all layers ran,
    /// matching `forward_rows_with`).
    k_pos: Vec<usize>,
    /// Decoded tokens so far.
    out: Vec<TokenId>,
    /// Tokens this sequence may still emit.
    remaining: usize,
    /// Absolute position of the next decoded row. Tracked per sequence —
    /// never re-derived from a cache that another slot may alias under
    /// retire/compact churn.
    next_pos: usize,
    /// The token selected this step (valid between select and commit).
    pending: TokenId,
    /// Marked for retirement; drained by `take_finished`.
    done: bool,
    // Per-slot attention scratch, so the per-sequence context stages can
    // run in parallel with no shared mutable state.
    q1: Matrix,
    attend: AttendScratch,
}

/// A batch of sequences decoding together; see the module docs.
#[derive(Default)]
pub struct DecodeBatch {
    slots: Vec<Slot>,
    /// Residual rows, `slots.len() × d_model`; row `i` belongs to
    /// `slots[i]` and always holds the residual its next logits row is
    /// computed from.
    x: Matrix,
    next_id: u64,
    /// When set, the per-step stop check (retire on the first
    /// non-[`TokenKind::Value`] token) is skipped and sequences decode to
    /// their full budget. Benchmark-only knob: it diverges from
    /// [`Model::decode_greedy`] semantics by design.
    ignore_stop: bool,
    // Step scratch, reused across steps (see the module docs for what a
    // warm step allocates).
    logits: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// One head's context rows of every slot, `slots.len() × head_dim`.
    head_ctx: Matrix,
    /// `head_ctx` times the head's output projection.
    head_out: Matrix,
    /// The attention delta: head products summed in head order from `+0.0`.
    attn_delta: Matrix,
    h1: Matrix,
    h2: Matrix,
    mlp_out: Matrix,
    x_next: Matrix,
    admit_row: Matrix,
    tokens_step: Vec<TokenId>,
    positions_step: Vec<usize>,
}

impl DecodeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// This batch with the stop check disabled (sequences run to their
    /// full budget). For throughput benches that need sustained decode;
    /// see the field docs.
    pub fn without_stop(mut self) -> Self {
        self.ignore_stop = true;
        self
    }

    /// Number of in-flight sequences.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no sequence is in flight.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Admits a prefilled sequence: `cache` holds the prompt's KV,
    /// `last_residual` is the prompt's final residual row (as returned by
    /// [`Model::forward_rows`]), and `max_tokens` bounds the answer
    /// length. The sequence emits its first token on the next
    /// [`DecodeBatch::step`].
    pub fn admit(
        &mut self,
        model: &Model,
        mut cache: KvCache,
        last_residual: &[f32],
        max_tokens: usize,
    ) -> SeqId {
        let d = model.cfg.d_model();
        assert_eq!(last_residual.len(), d, "residual width mismatch");
        assert_eq!(cache.n_layers(), model.n_layers(), "cache layer mismatch");
        if self.x.rows() == 0 {
            self.x.zero_resize(0, d);
        }
        self.admit_row.zero_resize(1, d);
        self.admit_row.row_mut(0).copy_from_slice(last_residual);
        self.x.extend_rows(&self.admit_row);

        cache.reserve(max_tokens);
        let max_keys = cache.len() + max_tokens;
        let mut k_pos = Vec::with_capacity(max_keys);
        k_pos.extend_from_slice(&cache.positions);
        let kv_width = model.cfg.kv_width();
        let mut q1 = Matrix::default();
        q1.zero_resize(1, kv_width);
        let mut attend = AttendScratch::default();
        attend.reserve_decode(model.cfg.n_heads, d, kv_width, max_keys);
        let id = SeqId(self.next_id);
        self.next_id += 1;
        self.slots.push(Slot {
            id,
            next_pos: cache.positions.last().map(|&p| p + 1).unwrap_or(0),
            k_pos,
            cache,
            out: Vec::with_capacity(max_tokens),
            remaining: max_tokens,
            pending: 0,
            done: false,
            q1,
            attend,
        });
        id
    }

    /// Advances every in-flight sequence by one token: select (argmax +
    /// stop check) → retire stopped sequences → one fused forward over the
    /// survivors → retire budget-exhausted sequences. `on_token` fires per
    /// emitted token in slot (admission) order, so per-sequence event
    /// streams are deterministic. Returns the sequences retired this step.
    pub fn step(
        &mut self,
        model: &Model,
        on_token: &mut dyn FnMut(SeqId, TokenId),
    ) -> Vec<(SeqId, FinishedSeq)> {
        let mut retired = Vec::new();
        if self.slots.is_empty() {
            return retired;
        }
        let d = model.cfg.d_model();

        // Select: one fused logits matmul over every residual row, then a
        // per-slot argmax. Rows of slots that are out of budget are
        // computed but never read (the sequential loop never argmaxes
        // once its budget is spent).
        self.x.matmul_into(&model.unembed, &mut self.logits);
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.remaining == 0 {
                slot.done = true;
                continue;
            }
            let next = ops::argmax(self.logits.row(i)) as TokenId;
            if !self.ignore_stop && !matches!(model.cfg.vocab.kind(next), TokenKind::Value(_)) {
                slot.done = true;
                continue;
            }
            slot.pending = next;
            slot.out.push(next);
            slot.remaining -= 1;
            on_token(slot.id, next);
        }
        // Stopped sequences retire *without* a forward pass — their cache
        // must not receive the stop token's rows. `x` is rebuilt from the
        // survivors' pending tokens below, so no row compaction is needed
        // here.
        self.take_finished(&mut retired, false);
        if self.slots.is_empty() {
            self.x.zero_resize(0, d);
            return retired;
        }

        // Forward the survivors' pending tokens: batched embed/QKV/MLP
        // across all rows, per-sequence attention context fanned out on
        // the pool, one output projection per head across all rows.
        let n = self.slots.len();
        let hd = model.cfg.head_dim;
        self.tokens_step.clear();
        self.positions_step.clear();
        for slot in &mut self.slots {
            self.tokens_step.push(slot.pending);
            self.positions_step.push(slot.next_pos);
            slot.k_pos.push(slot.next_pos);
        }
        model.embed_tokens_into(&self.tokens_step, &mut self.x);
        for layer in 0..model.n_layers() {
            model.qkv_into(
                layer,
                &self.x,
                &self.positions_step,
                &mut self.q,
                &mut self.k,
                &mut self.v,
            );
            let (q, k, v) = (&self.q, &self.k, &self.v);
            // One job per pool worker, each covering a contiguous slot
            // range — a job per *slot* would pay the pool's dispatch
            // barrier per tiny attend, which at high occupancy costs more
            // than the attends themselves (the barrier runs once per
            // layer per step). With one thread this collapses to a single
            // inline job: exactly the sequential attend loop.
            let pool = pool::current();
            let per_job = self.slots.len().div_ceil(pool.threads().max(1));
            let jobs: Vec<pool::Job<'_>> = self
                .slots
                .chunks_mut(per_job)
                .enumerate()
                .map(|(ci, chunk)| {
                    let base = ci * per_job;
                    let job: pool::Job<'_> = Box::new(move || {
                        for (j, slot) in chunk.iter_mut().enumerate() {
                            let i = base + j;
                            slot.q1.zero_resize(1, q.cols());
                            slot.q1.row_mut(0).copy_from_slice(q.row(i));
                            slot.cache.layers[layer].append_rows(k, v, i, i + 1);
                            let q_pos = [slot.next_pos];
                            model.attend_context_into(
                                layer,
                                &slot.q1,
                                &q_pos,
                                &slot.cache.layers[layer].k,
                                &slot.cache.layers[layer].v,
                                &slot.k_pos,
                                &mut slot.attend,
                            );
                        }
                    });
                    job
                })
                .collect();
            pool.run(jobs);
            // The projection stage, as `attend_into` runs it per sequence:
            // GEMM rows are independent, so stacking the slots' context
            // rows gives each row the bits of its own 1-row product.
            self.attn_delta.zero_resize(n, d);
            for (h, head) in model.layers[layer].heads.iter().enumerate() {
                self.head_ctx.resize_dirty(n, hd);
                for (i, slot) in self.slots.iter().enumerate() {
                    self.head_ctx
                        .row_mut(i)
                        .copy_from_slice(slot.attend.heads[h].ctx.row(0));
                }
                self.head_ctx.matmul_into(&head.wo, &mut self.head_out);
                self.attn_delta.add_assign(&self.head_out);
            }
            self.x.add_assign(&self.attn_delta);
            if model.layers[layer].mlp.forward_into(
                &self.x,
                &mut self.h1,
                &mut self.h2,
                &mut self.mlp_out,
            ) {
                self.x.add_assign(&self.mlp_out);
            }
        }
        for slot in &mut self.slots {
            slot.cache.positions.push(slot.next_pos);
            slot.cache.tokens.push(slot.pending);
            slot.next_pos += 1;
            if slot.remaining == 0 {
                // Budget spent: the final token's rows are in the cache
                // (the sequential loop also forwards its last token);
                // only the dead trailing logits row is skipped.
                slot.done = true;
            }
        }
        self.take_finished(&mut retired, true);
        retired
    }

    /// Decodes every admitted sequence to completion. Returns the finished
    /// sequences in retirement order.
    pub fn run_to_completion(
        &mut self,
        model: &Model,
        on_token: &mut dyn FnMut(SeqId, TokenId),
    ) -> Vec<(SeqId, FinishedSeq)> {
        let mut all = Vec::new();
        while !self.is_empty() {
            all.extend(self.step(model, on_token));
        }
        all
    }

    /// Drains slots marked `done` (preserving admission order of the
    /// rest). With `compact_x`, surviving residual rows are compacted so
    /// row `i` keeps belonging to `slots[i]`; skipped when the caller is
    /// about to rebuild `x` wholesale.
    fn take_finished(&mut self, retired: &mut Vec<(SeqId, FinishedSeq)>, compact_x: bool) {
        if !self.slots.iter().any(|s| s.done) {
            return;
        }
        if compact_x {
            let d = self.x.cols();
            let kept = self.slots.iter().filter(|s| !s.done).count();
            self.x_next.zero_resize(kept, d);
            let mut r = 0;
            for (i, slot) in self.slots.iter().enumerate() {
                if !slot.done {
                    self.x_next.row_mut(r).copy_from_slice(self.x.row(i));
                    r += 1;
                }
            }
            std::mem::swap(&mut self.x, &mut self.x_next);
        }
        let mut i = 0;
        while i < self.slots.len() {
            if self.slots[i].done {
                let slot = self.slots.remove(i);
                retired.push((
                    slot.id,
                    FinishedSeq {
                        cache: slot.cache,
                        tokens: slot.out,
                    },
                ));
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, ModelProfile};

    fn tiny() -> Model {
        Model::compiled(ModelConfig::standard(ModelProfile::Tiny, 11))
    }

    /// `[Bos, fact, fact, ..., Query, Entity(e), Attr(a), QMark]` — the
    /// compiled recall program answers with `Value` tokens, so decode
    /// produces a non-empty stream before the stop token.
    fn recall_prompt(model: &Model, facts: &[(u32, u32, u32)], ask: usize) -> Vec<TokenId> {
        let v = &model.cfg.vocab;
        let mut toks = vec![v.id(TokenKind::Bos)];
        for &(e, a, val) in facts {
            toks.extend([
                v.id(TokenKind::Entity(e)),
                v.id(TokenKind::Attr(a)),
                v.id(TokenKind::Value(val)),
                v.id(TokenKind::Sep),
            ]);
        }
        let (e, a, _) = facts[ask];
        toks.extend([
            v.id(TokenKind::Query),
            v.id(TokenKind::Entity(e)),
            v.id(TokenKind::Attr(a)),
            v.id(TokenKind::QMark),
        ]);
        toks
    }

    fn prompts(model: &Model, n: usize) -> Vec<Vec<TokenId>> {
        (0..n)
            .map(|i| {
                let facts: Vec<(u32, u32, u32)> = (0..=(i % 3) + 1)
                    .map(|j| {
                        let j = j as u32;
                        let i = i as u32;
                        ((i * 3 + j) % 16, (i + j) % 8, (i * 5 + j) % 24)
                    })
                    .collect();
                recall_prompt(model, &facts, i % facts.len())
            })
            .collect()
    }

    /// Sequential ground truth for one prompt.
    fn sequential(model: &Model, prompt: &[TokenId], budget: usize) -> (Vec<TokenId>, KvCache) {
        let (mut cache, x) = model.prefill(prompt);
        let last = x.row(x.rows() - 1).to_vec();
        let out = model.decode_greedy(&mut cache, &last, budget);
        (out, cache)
    }

    #[test]
    fn single_sequence_matches_sequential_bit_for_bit() {
        let m = tiny();
        for prompt in prompts(&m, 4) {
            let (want_toks, want_cache) = sequential(&m, &prompt, 8);
            let (cache, x) = m.prefill(&prompt);
            let mut batch = DecodeBatch::new();
            let id = batch.admit(&m, cache, x.row(x.rows() - 1), 8);
            let mut streamed = Vec::new();
            let fin = batch.run_to_completion(&m, &mut |sid, t| {
                assert_eq!(sid, id);
                streamed.push(t);
            });
            assert_eq!(fin.len(), 1);
            assert_eq!(fin[0].1.tokens, want_toks);
            assert_eq!(streamed, want_toks);
            assert_eq!(fin[0].1.cache, want_cache, "cache bytes diverged");
        }
    }

    #[test]
    fn full_batch_matches_sequential_bit_for_bit() {
        let m = tiny();
        let ps = prompts(&m, 8);
        let mut batch = DecodeBatch::new();
        let mut ids = Vec::new();
        for p in &ps {
            let (cache, x) = m.prefill(p);
            ids.push(batch.admit(&m, cache, x.row(x.rows() - 1), 8));
        }
        let fin = batch.run_to_completion(&m, &mut |_, _| {});
        assert_eq!(fin.len(), ps.len());
        for (i, p) in ps.iter().enumerate() {
            let (want_toks, want_cache) = sequential(&m, p, 8);
            let got = fin.iter().find(|(id, _)| *id == ids[i]).unwrap();
            assert_eq!(got.1.tokens, want_toks, "seq {i} tokens diverged");
            assert_eq!(got.1.cache, want_cache, "seq {i} cache diverged");
        }
    }

    #[test]
    fn shuffled_retire_keeps_positions_per_sequence() {
        // Wildly different budgets force retirement in an order unrelated
        // to admission order; surviving slots' positions must not bleed
        // into one another when the batch compacts (the bug this PR fixes
        // in the sequential loop re-derived pos from a shared cache).
        let m = tiny();
        let ps = prompts(&m, 6);
        let budgets = [0usize, 5, 1, 8, 2, 3];
        let mut batch = DecodeBatch::new();
        let mut ids = Vec::new();
        for (p, &b) in ps.iter().zip(&budgets) {
            let (cache, x) = m.prefill(p);
            ids.push(batch.admit(&m, cache, x.row(x.rows() - 1), b));
        }
        let fin = batch.run_to_completion(&m, &mut |_, _| {});
        assert_eq!(fin.len(), ps.len());
        for (i, (p, &b)) in ps.iter().zip(&budgets).enumerate() {
            let (want_toks, want_cache) = sequential(&m, p, b);
            let got = fin.iter().find(|(id, _)| *id == ids[i]).unwrap();
            assert_eq!(got.1.tokens, want_toks, "seq {i} tokens diverged");
            assert_eq!(got.1.cache, want_cache, "seq {i} cache diverged");
        }
    }

    #[test]
    fn mid_flight_admission_matches_sequential() {
        // Sequences join a running batch every step; results must still be
        // independent of their co-tenants.
        let m = tiny();
        let ps = prompts(&m, 7);
        let prefilled: Vec<(KvCache, Vec<f32>)> = ps
            .iter()
            .map(|p| {
                let (c, x) = m.prefill(p);
                let last = x.row(x.rows() - 1).to_vec();
                (c, last)
            })
            .collect();
        let mut batch = DecodeBatch::new();
        let mut ids = Vec::new();
        let mut fin = Vec::new();
        let mut next = 0usize;
        while next < ps.len() || !batch.is_empty() {
            // Admit up to two new sequences between steps.
            for _ in 0..2 {
                if next < ps.len() {
                    let (c, last) = prefilled[next].clone();
                    ids.push(batch.admit(&m, c, &last, 8));
                    next += 1;
                }
            }
            fin.extend(batch.step(&m, &mut |_, _| {}));
        }
        assert_eq!(fin.len(), ps.len());
        for (i, p) in ps.iter().enumerate() {
            let (want_toks, want_cache) = sequential(&m, p, 8);
            let got = fin.iter().find(|(id, _)| *id == ids[i]).unwrap();
            assert_eq!(got.1.tokens, want_toks, "seq {i} tokens diverged");
            assert_eq!(got.1.cache, want_cache, "seq {i} cache diverged");
        }
    }

    #[test]
    fn thread_count_does_not_change_any_byte() {
        let m = tiny();
        let ps = prompts(&m, 6);
        let run = |threads: usize| {
            pool::set_threads(threads);
            let mut batch = DecodeBatch::new();
            let mut ids = Vec::new();
            for p in &ps {
                let (cache, x) = m.prefill(p);
                ids.push(batch.admit(&m, cache, x.row(x.rows() - 1), 8));
            }
            let mut fin = batch.run_to_completion(&m, &mut |_, _| {});
            fin.sort_by_key(|(id, _)| *id);
            fin
        };
        let baseline = run(1);
        for threads in 2..=4 {
            let got = run(threads);
            assert_eq!(got.len(), baseline.len());
            for ((ida, a), (idb, b)) in baseline.iter().zip(&got) {
                assert_eq!(ida, idb);
                assert_eq!(a.tokens, b.tokens, "{threads} threads: tokens diverged");
                assert_eq!(a.cache, b.cache, "{threads} threads: cache diverged");
            }
        }
        pool::set_threads(pool::default_threads());
    }

    #[test]
    fn zero_budget_sequence_retires_without_tokens() {
        let m = tiny();
        let p = &prompts(&m, 1)[0];
        let (cache, x) = m.prefill(p);
        let want = cache.clone();
        let mut batch = DecodeBatch::new();
        let id = batch.admit(&m, cache, x.row(x.rows() - 1), 0);
        let fin = batch.step(&m, &mut |_, _| panic!("no token may be emitted"));
        assert_eq!(fin.len(), 1);
        assert_eq!(fin[0].0, id);
        assert!(fin[0].1.tokens.is_empty());
        assert_eq!(fin[0].1.cache, want, "cache must be untouched");
        assert!(batch.is_empty());
    }

    #[test]
    fn without_stop_decodes_to_full_budget() {
        let m = tiny();
        let p = &prompts(&m, 1)[0];
        let (cache, x) = m.prefill(p);
        let base_len = cache.len();
        let mut batch = DecodeBatch::new().without_stop();
        batch.admit(&m, cache, x.row(x.rows() - 1), 5);
        let fin = batch.run_to_completion(&m, &mut |_, _| {});
        assert_eq!(fin[0].1.tokens.len(), 5);
        assert_eq!(fin[0].1.cache.len(), base_len + 5);
    }
}
