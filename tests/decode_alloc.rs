//! What a warm continuous-batching decode step allocates, counted by a
//! global allocator: at one pool thread, only each layer's job list (the
//! `Vec` of jobs and its one boxed job), plus what retiring a sequence
//! allocates. Every buffer in between — the fused projections' packing
//! panels, the density probes of freshly written operands, the per-slot
//! attention scratch, the stacked per-head context rows — is reused.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cacheblend::model::{DecodeBatch, Model, ModelConfig, ModelProfile};
use cacheblend::tensor::pool;
use cacheblend::tokenizer::{TokenId, TokenKind};

/// [`System`], counting the allocations each thread makes.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with its own arguments, so the
// allocator contract holds as it does for `System`; the counter is a
// const-initialized thread-local without a destructor, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc`, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn warm_decode_step_allocates_only_its_job_lists() {
    pool::set_threads(1);
    let m = Model::compiled(ModelConfig::standard(ModelProfile::Llama70B, 7));
    let v = &m.cfg.vocab;
    // Four sequences (a 6-row register tile is never full, so every
    // product packs) with distinct prompts; the last one's budget runs out
    // at step 6.
    let budgets = [12, 12, 12, 6];
    let mut batch = DecodeBatch::new().without_stop();
    for (s, &budget) in budgets.iter().enumerate() {
        let s = s as u32;
        let mut prompt: Vec<TokenId> = vec![v.id(TokenKind::Bos)];
        for i in 0..20 {
            prompt.push(v.id(TokenKind::Entity((s * 5 + i) % 16)));
            prompt.push(v.id(TokenKind::Attr((s + i) % 8)));
            prompt.push(v.id(TokenKind::Value((s * 3 + i) % 24)));
        }
        let (cache, x) = m.prefill(&prompt);
        batch.admit(&m, cache, x.row(x.rows() - 1), budget);
    }
    let mut step = || batch.step(&m, &mut |_, _| {});
    // One job list and one boxed job per layer: at one pool thread every
    // slot's attention context runs in a single job.
    let job_lists = 2 * m.n_layers();
    for n in 1..=5 {
        let (retired, allocs) = counted(&mut step);
        assert!(retired.is_empty());
        if n > 1 {
            assert_eq!(allocs, job_lists, "warm step {n}");
        }
    }
    // Step 6 retires the last sequence: the retired list and, the first
    // time rows are compacted, the compacted residual buffer.
    let (retired, allocs) = counted(&mut step);
    assert_eq!(retired.len(), 1);
    assert_eq!(allocs, job_lists + 2, "retiring step");
    let (retired, allocs) = counted(&mut step);
    assert!(retired.is_empty());
    assert_eq!(allocs, job_lists, "step after a retirement");
    pool::set_threads(pool::default_threads());
}
