//! What a warm blend reallocates, counted by a global allocator: no
//! buffer of 256 KiB or more grows. The loader takes every fused layer
//! with room for the context and the suffix, so the fusor's suffix append
//! moves none of them, and the first blend has already grown the blend
//! arena to the case's size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cacheblend::blend::fusor::{BlendConfig, Fusor};
use cacheblend::kv::precompute::precompute_chunk;
use cacheblend::model::{Model, ModelConfig, ModelProfile};
use cacheblend::rag::datasets::{Dataset, DatasetKind};
use cacheblend::tensor::pool;

/// Reallocations to at least this many bytes are counted.
const BIG: usize = 256 << 10;

/// [`System`], counting the big reallocations of every thread: the
/// loader thread builds the fused layers, the calling thread appends the
/// suffix to them.
struct Counting;

static BIG_REALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with its own arguments, so the
// allocator contract holds as it does for `System`; the counter is a
// static atomic, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc`, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= BIG {
            BIG_REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
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

#[test]
fn warm_blend_reallocates_no_big_buffer() {
    pool::set_threads(1);
    // The golden case: six retrieved chunks on the Mistral-7B stand-in.
    let ds = Dataset::standard(DatasetKind::MusiqueSim, 7);
    let case = &ds.cases[0];
    let ctx = ds.retrieve(case, 6);
    let model = Model::compiled(ModelConfig::standard(ModelProfile::Mistral7B, 11));
    let fusor = Fusor::new(&model, BlendConfig::default());
    let parts = || {
        ctx.iter()
            .map(|&i| precompute_chunk(&model, &ds.chunks[i]))
            .collect::<Vec<_>>()
    };
    let _ = fusor.blend(parts(), &case.query, false);
    let parts = parts();
    let before = BIG_REALLOCS.load(Ordering::Relaxed);
    let out = fusor.blend(parts, &case.query, false);
    let reallocs = BIG_REALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        reallocs, 0,
        "a warm blend reallocated {reallocs} big buffers"
    );
    assert_eq!(out.stats.selected_per_layer.len(), model.n_layers() - 1);
    pool::set_threads(pool::default_threads());
}
