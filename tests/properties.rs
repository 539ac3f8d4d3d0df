//! Randomized property tests on cross-crate invariants.
//!
//! The offline build has no proptest, so these are seeded generate-and-check
//! loops over the same invariants: each property draws a few dozen random
//! inputs from a deterministic `SmallRng` stream and asserts the invariant
//! on every draw (failures print the generating seed/case).

use cacheblend::blend::rope_align;
use cacheblend::kv::chunk::hash_tokens;
use cacheblend::kv::precompute::precompute_chunk;
use cacheblend::kv::serialize::{decode, encode};
use cacheblend::kv::store::{KvStore, TierConfig};
use cacheblend::model::{Model, ModelConfig, ModelProfile};
use cacheblend::rag::metrics::{f1_score, rouge_l};
use cacheblend::tensor::rope::{rope_score, RopeTable};
use cacheblend::tokenizer::{TokenKind, Vocab};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn tiny_model() -> Model {
    Model::compiled(ModelConfig::standard(ModelProfile::Tiny, 11))
}

/// A random short chunk over content tokens (1..12 tokens).
fn random_chunk(rng: &mut SmallRng) -> Vec<u32> {
    let v = Vocab::default_eval();
    let len = rng.random_range(1usize..12);
    (0..len)
        .map(|i| match rng.random_range(0u32..4) {
            0 => v.id(TokenKind::Entity((i % 16) as u32)),
            1 => v.id(TokenKind::Attr((i % 8) as u32)),
            2 => v.id(TokenKind::Value((i % 24) as u32)),
            _ => v.id(TokenKind::Filler((i % 10) as u32)),
        })
        .collect()
}

/// KV serialization is lossless for arbitrary chunks.
#[test]
fn serialization_roundtrips() {
    let m = tiny_model();
    let mut rng = SmallRng::seed_from_u64(0xA11CE);
    for case in 0..16 {
        let chunk = random_chunk(&mut rng);
        let cache = precompute_chunk(&m, &chunk);
        let back = decode(encode(&cache)).unwrap();
        assert_eq!(back, cache, "case {case} chunk {chunk:?}");
    }
}

/// Relocation by Δ then −Δ is the identity (within f32 tolerance).
#[test]
fn relocation_is_invertible() {
    let m = tiny_model();
    let mut rng = SmallRng::seed_from_u64(0xB0B);
    for case in 0..16 {
        let chunk = random_chunk(&mut rng);
        let delta = rng.random_range(1usize..300);
        let orig = precompute_chunk(&m, &chunk);
        let mut moved = orig.clone();
        rope_align::relocate(&m, &mut moved, 1 + delta);
        rope_align::relocate(&m, &mut moved, 1);
        for l in 0..m.n_layers() {
            let d = moved.layers[l].k.frobenius_distance(&orig.layers[l].k);
            assert!(d < 1e-2, "case {case} layer {l} drifted by {d}");
        }
    }
}

/// RoPE attention scores depend only on relative offsets (Prop. A.1).
#[test]
fn rope_scores_are_translation_invariant() {
    let t = RopeTable::new(8, 1000.0);
    let q: Vec<f32> = (0..8).map(|i| ((i * 7 + 3) as f32 * 0.37).sin()).collect();
    let k: Vec<f32> = (0..8).map(|i| ((i * 5 + 1) as f32 * 0.53).cos()).collect();
    let mut rng = SmallRng::seed_from_u64(0xC0DE);
    for case in 0..64 {
        let base = rng.random_range(0usize..500);
        let shift = rng.random_range(0usize..500);
        let offset = rng.random_range(0usize..64);
        let s1 = rope_score(&t, &q, &k, base + offset, base);
        let s2 = rope_score(&t, &q, &k, base + shift + offset, base + shift);
        assert!((s1 - s2).abs() < 2e-2, "case {case}: {s1} vs {s2}");
    }
}

/// Chunk hashing is injective in practice over small perturbations.
#[test]
fn chunk_hash_detects_any_single_edit() {
    let mut rng = SmallRng::seed_from_u64(0xD1CE);
    for case in 0..64 {
        let chunk = random_chunk(&mut rng);
        let at = rng.random_range(0usize..chunk.len());
        let delta = rng.random_range(1u32..5);
        let mut other = chunk.clone();
        other[at] = other[at].wrapping_add(delta);
        assert_ne!(
            hash_tokens(&chunk),
            hash_tokens(&other),
            "case {case}: edit at {at} undetected in {chunk:?}"
        );
    }
}

/// Metrics are bounded in [0, 1] and exact on identity.
#[test]
fn metrics_are_bounded() {
    let mut rng = SmallRng::seed_from_u64(0xE44);
    for _ in 0..64 {
        let draw = |rng: &mut SmallRng| -> Vec<u32> {
            let n = rng.random_range(0usize..10);
            (0..n).map(|_| rng.random_range(0u32..50)).collect()
        };
        let a = draw(&mut rng);
        let b = draw(&mut rng);
        for m in [f1_score(&a, &b), rouge_l(&a, &b)] {
            assert!((0.0..=1.0).contains(&m));
        }
        assert_eq!(f1_score(&a, &a), 1.0);
        assert_eq!(rouge_l(&b, &b), 1.0);
    }
}

/// The LRU store never exceeds capacity and keeps what it reports.
#[test]
fn store_respects_capacity() {
    let m = tiny_model();
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    for _ in 0..8 {
        let n = rng.random_range(1usize..6);
        let caches: Vec<_> = (0..n)
            .map(|_| precompute_chunk(&m, &random_chunk(&mut rng)))
            .collect();
        let one = encode(&caches[0]).len() as u64;
        let cap = one * 2;
        let store = KvStore::new(vec![TierConfig::new("t", cap)]);
        for (i, c) in caches.iter().enumerate() {
            let _ = store.insert(cacheblend::kv::ChunkId(i as u64), c);
            assert!(store.tier_used(0) <= cap);
        }
    }
}

/// The selective-prefill identity: at ratio 1.0 the fused cache equals full
/// prefill for random chunk pairs.
#[test]
fn blend_identity_over_random_chunk_pairs() {
    use cacheblend::blend::fusor::{BlendConfig, Fusor};
    let m = tiny_model();
    let v = &m.cfg.vocab;
    for seed in 0..4u32 {
        let c1: Vec<u32> = (0..6)
            .map(|i| match (i + seed) % 3 {
                0 => v.id(TokenKind::Entity(seed + i)),
                1 => v.id(TokenKind::Attr(i)),
                _ => v.id(TokenKind::Value(seed * 7 + i)),
            })
            .collect();
        let c2: Vec<u32> = vec![
            v.id(TokenKind::Ref),
            v.id(TokenKind::Attr(7)),
            v.id(TokenKind::Value(40 + seed)),
            v.id(TokenKind::Sep),
        ];
        let q = vec![
            v.id(TokenKind::Query),
            v.id(TokenKind::Entity(3)),
            v.id(TokenKind::Attr(7)),
            v.id(TokenKind::QMark),
        ];
        let parts = vec![precompute_chunk(&m, &c1), precompute_chunk(&m, &c2)];
        let out = Fusor::new(&m, BlendConfig::with_ratio(1.0)).blend(parts, &q, false);

        let mut toks = vec![v.id(TokenKind::Bos)];
        toks.extend_from_slice(&c1);
        toks.extend_from_slice(&c2);
        toks.extend_from_slice(&q);
        let (full, _) = m.prefill(&toks);
        for l in 0..m.n_layers() {
            let d = out.cache.layers[l].k.frobenius_distance(&full.layers[l].k);
            assert!(d < 1e-2, "seed {seed} layer {l}: {d}");
        }
    }
}

/// Satellite: fuzz the serialize-v2 decoder. Seeded random byte mutations
/// over valid entries — flips, dims overwrites, truncations, extensions,
/// checksum rewrites, garbage prefixes — must never panic, never allocate
/// beyond the declared payload bound (huge mutated dims are rejected
/// against the buffer length *before* any allocation), and always surface
/// a decode error. 1 000 cases per seed.
#[test]
fn serialize_decoder_survives_mutation_fuzz() {
    use bytes::Bytes;
    use cacheblend::kv::serialize::{verify_entry, DIMS_LEN};
    let m = tiny_model();
    let mut gen_rng = SmallRng::seed_from_u64(0xFA22);
    let bases: Vec<Vec<u8>> = (0..3)
        .map(|_| encode(&precompute_chunk(&m, &random_chunk(&mut gen_rng))).to_vec())
        .collect();

    for seed in [0xF0_0001u64, 0xF0_0002, 0xF0_0003] {
        let mut rng = SmallRng::seed_from_u64(seed);
        for case in 0..1000 {
            let base = &bases[rng.random_range(0usize..bases.len())];
            let mut bytes = base.clone();
            match rng.random_range(0u32..6) {
                // Random distinct-byte flips anywhere in the entry.
                0 => {
                    let flips = rng.random_range(1usize..5);
                    let mut seen = std::collections::HashSet::new();
                    for _ in 0..flips {
                        let at = rng.random_range(0usize..bytes.len());
                        if seen.insert(at) {
                            bytes[at] ^= rng.random_range(1u32..256) as u8;
                        }
                    }
                }
                // Overwrite one dims field (n_layers/rows/width) with a
                // random u32 — the huge-allocation attack surface.
                1 => {
                    let field = 4 + 4 * rng.random_range(0usize..3);
                    let old = u32::from_le_bytes(bytes[field..field + 4].try_into().unwrap());
                    let new = old.wrapping_add(rng.random_range(1u32..u32::MAX));
                    bytes[field..field + 4].copy_from_slice(&new.to_le_bytes());
                }
                // Truncation at a random point.
                2 => {
                    let keep = rng.random_range(0usize..bytes.len());
                    bytes.truncate(keep);
                }
                // Extension with random junk.
                3 => {
                    let extra = rng.random_range(1usize..64);
                    for _ in 0..extra {
                        bytes.push(rng.random_range(0u32..256) as u8);
                    }
                }
                // Rewrite a section checksum word (header or a layer).
                4 => {
                    let words: Vec<usize> = {
                        let meta = verify_entry(base).unwrap();
                        let hlen = cacheblend::kv::serialize::header_len(meta.rows);
                        let block = meta.layer_block_len();
                        std::iter::once(hlen - 8)
                            .chain((0..meta.n_layers).map(|l| hlen + (l + 1) * block - 8))
                            .collect()
                    };
                    let at = words[rng.random_range(0usize..words.len())];
                    let old = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
                    let new = old.wrapping_add(rng.random_range(1u64..u64::MAX));
                    bytes[at..at + 8].copy_from_slice(&new.to_le_bytes());
                }
                // Random short garbage (below/around the dims prefix).
                _ => {
                    let len = rng.random_range(0usize..DIMS_LEN + 8);
                    bytes = (0..len)
                        .map(|_| rng.random_range(0u32..256) as u8)
                        .collect();
                }
            }
            if bytes == *base {
                continue; // mutation was a no-op (possible only for class 0)
            }
            assert!(
                decode(Bytes::from(bytes.clone())).is_err(),
                "seed {seed:#x} case {case}: mutated entry decoded successfully"
            );
            assert!(
                verify_entry(&bytes).is_err(),
                "seed {seed:#x} case {case}: mutated entry verified successfully"
            );
        }
    }

    // Adversarial dims: each field forced to u32::MAX in turn, with the
    // buffer unchanged — the decoder must reject on the trusted buffer
    // length before sizing any allocation from the lie.
    for field in [4usize, 8, 12] {
        let mut bytes = bases[0].clone();
        bytes[field..field + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(Bytes::from(bytes.clone())).is_err());
        assert!(verify_entry(&bytes).is_err());
    }
}

/// The store path of the same property: a mutated stored entry always
/// surfaces `StoreError::Corrupt`, is quarantined (evicted), and a
/// reinsert repairs it — across 100 seeded flip positions.
#[test]
fn store_loads_of_mutated_entries_always_quarantine() {
    use cacheblend::kv::store::StoreError;
    use cacheblend::kv::ChunkId;
    let m = tiny_model();
    let mut rng = SmallRng::seed_from_u64(0xC0_22);
    let cache = precompute_chunk(&m, &random_chunk(&mut rng));
    let entry_len = encode(&cache).len();
    for case in 0..100 {
        let store = KvStore::single("ram", 1 << 20);
        store.insert(ChunkId(7), &cache).unwrap();
        assert!(store.corrupt(ChunkId(7), rng.random_range(0usize..entry_len)));
        let err = store.get(ChunkId(7)).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt(_)),
            "case {case}: expected Corrupt, got {err}"
        );
        assert!(!store.contains(ChunkId(7)), "case {case}: must quarantine");
        assert_eq!(store.stats().corrupt_evictions, 1);
        store.insert(ChunkId(7), &cache).unwrap();
        assert_eq!(store.get(ChunkId(7)).unwrap().unwrap().0, cache);
    }
}

/// Satellite: seeded burst stress against `EngineService` at 1..=4
/// workers. Invariants at every observation point: counters are monotone,
/// `peak_queue_depth` never exceeds the queue capacity, accepted = terminal
/// after each drained burst, deadline misses are exactly the
/// zero-deadline completions, and neither lane starves (every stream of
/// both priorities reaches a terminal event).
#[test]
fn scheduler_stress_invariants_hold_across_worker_counts() {
    use cacheblend::prelude::*;
    use std::time::Duration;

    let capacity = 8usize;
    for workers in 1..=4usize {
        let (service, ids, q) = scheduler_fixture(workers, capacity);
        let mut rng = SmallRng::seed_from_u64(0x57_2E55 + workers as u64);
        let mut prev = ServiceStats::default();
        let mut total = 0u64;
        let mut want_misses = 0u64;
        for burst in 0..3 {
            let n = 10 + rng.random_range(0usize..8);
            let mut streams = Vec::new();
            for _ in 0..n {
                let priority = if rng.random_range(0u32..3) == 0 {
                    Priority::High
                } else {
                    Priority::Normal
                };
                let zero_deadline = rng.random_range(0u32..4) == 0;
                let mut req = Request::new(ids.clone(), q.clone())
                    .ratio(0.45)
                    .max_new_tokens(1 + rng.random_range(0usize..3))
                    .priority(priority);
                if zero_deadline {
                    req = req.deadline(Duration::ZERO);
                    want_misses += 1;
                } else if rng.random_range(0u32..2) == 0 {
                    req = req.deadline(Duration::from_secs(3600));
                }
                streams.push(service.submit_stream(req));
            }
            total += n as u64;
            for s in streams {
                s.collect()
                    .expect("every accepted request completes — no lane starves");
            }
            let st = service.stats();
            for (now, before, name) in [
                (st.submitted, prev.submitted, "submitted"),
                (st.completed, prev.completed, "completed"),
                (st.deadline_misses, prev.deadline_misses, "deadline_misses"),
                (
                    st.peak_queue_depth,
                    prev.peak_queue_depth,
                    "peak_queue_depth",
                ),
            ] {
                assert!(
                    now >= before,
                    "workers {workers} burst {burst}: {name} went backwards ({before} → {now})"
                );
            }
            assert!(
                st.peak_queue_depth <= capacity as u64,
                "workers {workers} burst {burst}: peak queue {} exceeds capacity {capacity}",
                st.peak_queue_depth
            );
            assert_eq!(st.submitted, total, "blocking submits are all accepted");
            assert_eq!(
                st.completed + st.failed,
                total,
                "drained burst leaves nothing in flight"
            );
            assert_eq!(st.failed, 0);
            assert_eq!(st.rejected, 0, "blocking submits never get QueueFull");
            prev = st;
        }
        assert_eq!(
            service.stats().deadline_misses,
            want_misses,
            "workers {workers}: an immediate deadline is always missed, a generous one never"
        );
        assert_eq!(service.probe().load(), 0, "stress drained completely");
    }
}

/// Shared harness for the scheduler properties: a tiny engine wrapped in a
/// service, plus the registered cross-chunk scenario.
fn scheduler_fixture(
    workers: usize,
    capacity: usize,
) -> (
    cacheblend::scheduler::EngineService,
    Vec<cacheblend::kv::ChunkId>,
    Vec<u32>,
) {
    scheduler_fixture_with(
        cacheblend::scheduler::ServiceConfig::default()
            .workers(workers)
            .queue_capacity(capacity),
    )
}

/// [`scheduler_fixture`] under an explicit service configuration.
fn scheduler_fixture_with(
    cfg: cacheblend::scheduler::ServiceConfig,
) -> (
    cacheblend::scheduler::EngineService,
    Vec<cacheblend::kv::ChunkId>,
    Vec<u32>,
) {
    use cacheblend::prelude::*;
    let engine = EngineBuilder::new(ModelProfile::Tiny).build().unwrap();
    let v = engine.model().cfg.vocab.clone();
    let c1: Vec<u32> = vec![
        v.id(TokenKind::Entity(5)),
        v.id(TokenKind::Attr(0)),
        v.id(TokenKind::Value(1)),
        v.id(TokenKind::Sep),
    ];
    let c2: Vec<u32> = vec![
        v.id(TokenKind::Ref),
        v.id(TokenKind::Attr(3)),
        v.id(TokenKind::Value(9)),
        v.id(TokenKind::Sep),
    ];
    let ids = engine.register_chunks(&[c1, c2]).unwrap();
    let q = vec![
        v.id(TokenKind::Query),
        v.id(TokenKind::Entity(5)),
        v.id(TokenKind::Attr(3)),
        v.id(TokenKind::QMark),
    ];
    (EngineService::new(engine, cfg), ids, q)
}

/// Every stream's events arrive in lifecycle order:
/// `Queued ≤ Admitted ≤ FirstToken ≤ Token* ≤ Done`, with exactly one
/// terminal event — across a randomized mix of priorities, decode budgets,
/// and failing requests, and no stream starves (all terminate).
#[test]
fn scheduler_streams_events_in_lifecycle_order() {
    use cacheblend::prelude::*;
    use cacheblend::scheduler::EngineService;

    fn check_stream(events: &[Event]) {
        assert!(events.len() >= 3, "Queued, Admitted, terminal: {events:?}");
        assert!(matches!(events[0], Event::Queued));
        assert!(matches!(events[1], Event::Admitted));
        let terminal = events.len() - 1;
        assert!(events[terminal].is_terminal(), "{events:?}");
        assert_eq!(
            events.iter().filter(|e| e.is_terminal()).count(),
            1,
            "exactly one terminal event"
        );
        let first_token = events
            .iter()
            .position(|e| matches!(e, Event::FirstToken(_)));
        match &events[terminal] {
            Event::Done(resp) => {
                let ft = first_token.expect("Done implies FirstToken");
                assert!((2..terminal).contains(&ft), "{events:?}");
                let tokens: Vec<u32> = events
                    .iter()
                    .enumerate()
                    .filter_map(|(i, e)| match e {
                        Event::Token(t) => {
                            assert!(i > ft && i < terminal, "Token outside window");
                            Some(*t)
                        }
                        _ => None,
                    })
                    .collect();
                assert_eq!(tokens, resp.answer, "streamed tokens = answer");
            }
            Event::Failed(_) => {
                assert!(first_token.is_none(), "failures precede prefill completion");
            }
            _ => unreachable!(),
        }
    }

    let mut rng = SmallRng::seed_from_u64(0x5EED_5EED);
    for round in 0..3 {
        let workers = 1 + (round % 3);
        let (service, ids, q) = scheduler_fixture(workers, 64);
        let service: &EngineService = &service;
        let n = 14;
        let streams: Vec<_> = (0..n)
            .map(|_| {
                let bad = rng.random_range(0u32..5) == 0;
                let chunk_ids = if bad {
                    vec![cacheblend::kv::ChunkId(0xDEAD)]
                } else {
                    ids.clone()
                };
                let pri = if rng.random_range(0u32..2) == 0 {
                    Priority::High
                } else {
                    Priority::Normal
                };
                let req = Request::new(chunk_ids, q.clone())
                    .ratio(0.45)
                    .max_new_tokens(rng.random_range(1usize..5))
                    .priority(pri);
                service.submit_stream(req)
            })
            .collect();
        let mut done = 0u64;
        let mut failed = 0u64;
        for stream in streams {
            let mut events: Vec<Event> = Vec::new();
            for e in stream {
                events.push(e);
            }
            check_stream(&events);
            match events.last().unwrap() {
                Event::Done(_) => done += 1,
                Event::Failed(e) => {
                    assert_eq!(
                        *e,
                        EngineError::UnknownChunk(cacheblend::kv::ChunkId(0xDEAD))
                    );
                    failed += 1;
                }
                _ => unreachable!(),
            }
        }
        assert_eq!(done + failed, n, "round {round}: no stream may starve");
        let stats = service.stats();
        assert_eq!(stats.completed, done);
        assert_eq!(stats.failed, failed);
        assert_eq!(stats.submitted, n);
    }
}

/// A priority-lane flood never starves the normal lane: every normal
/// request completes even while high-priority work saturates the queue.
#[test]
fn scheduler_never_starves_the_normal_lane() {
    use cacheblend::prelude::*;
    let (service, ids, q) = scheduler_fixture(1, 64);
    let mk = |p: Priority| {
        Request::new(ids.clone(), q.clone())
            .ratio(0.45)
            .max_new_tokens(2)
            .priority(p)
    };
    // One worker, interleaved flood: 24 high, 6 normal.
    let streams: Vec<_> = (0..30)
        .map(|i| {
            let p = if i % 5 == 4 {
                Priority::Normal
            } else {
                Priority::High
            };
            service.submit_stream(mk(p))
        })
        .collect();
    for s in streams {
        s.collect().expect("every lane's requests complete");
    }
    assert_eq!(service.stats().completed, 30);
    assert_eq!(service.stats().deadline_misses, 0);
}

/// Backpressure: a paused service (no workers) fills its bounded queue
/// deterministically, hands overflow back via `QueueFull`, and cancels
/// what it accepted when dropped.
#[test]
fn scheduler_backpressure_returns_queue_full() {
    use cacheblend::prelude::*;
    let mut rng = SmallRng::seed_from_u64(0xBAC_0FF);
    for _ in 0..4 {
        let capacity = rng.random_range(1usize..6);
        let (service, ids, q) = scheduler_fixture(0, capacity);
        let mk = || Request::new(ids.clone(), q.clone());
        let mut accepted = Vec::new();
        for _ in 0..capacity {
            accepted.push(service.try_submit_stream(mk()).expect("fits in queue"));
        }
        match service.try_submit_stream(mk()) {
            Err(TrySubmitError::QueueFull(returned)) => {
                assert_eq!(returned.chunk_ids, ids, "request handed back intact");
            }
            Ok(_) => panic!("queue of {capacity} accepted {} requests", capacity + 1),
        }
        assert_eq!(service.queue_depth(), capacity);
        assert_eq!(service.stats().rejected, 1);
        assert_eq!(service.stats().peak_queue_depth, capacity as u64);
        drop(service);
        for s in accepted {
            assert_eq!(s.collect().unwrap_err(), EngineError::Canceled);
        }
    }
}

/// `submit_stream(..).collect()` is the one-shot `Engine::submit`: same
/// answer, cache, ratio, provenance, and blend shape for the same request,
/// at decode-batch widths 1 and 8 with 1 or 3 workers.
#[test]
fn scheduler_collect_equals_one_shot_submit() {
    use cacheblend::prelude::*;
    for (workers, width) in [(1, 1), (1, 8), (3, 1), (3, 8)] {
        let (service, ids, q) = scheduler_fixture_with(
            ServiceConfig::default()
                .workers(workers)
                .queue_capacity(16)
                .decode_batch(width),
        );
        let mut rng = SmallRng::seed_from_u64(0xC0_11EC);
        let reqs: Vec<_> = (0..6)
            .map(|_| {
                Request::new(ids.clone(), q.clone())
                    .ratio(0.25 + 0.15 * rng.random_range(0u32..4) as f32)
                    .max_new_tokens(rng.random_range(1usize..6))
            })
            .collect();
        // Submitted together, so the wider batch holds several at once.
        let streams: Vec<_> = reqs
            .iter()
            .map(|r| service.submit_stream(r.clone()))
            .collect();
        for (case, (req, stream)) in reqs.into_iter().zip(streams).enumerate() {
            let streamed = stream.collect().unwrap();
            let direct = service.engine().submit(req).unwrap();
            let at = format!("workers {workers}, width {width}, case {case}");
            assert_eq!(streamed.answer, direct.answer, "{at}");
            assert_eq!(streamed.blend.cache, direct.blend.cache, "{at}");
            assert_eq!(streamed.recompute_ratio, direct.recompute_ratio, "{at}");
            assert_eq!(streamed.chunk_sources, direct.chunk_sources, "{at}");
            assert_eq!(streamed.blend.stats.ctx_len, direct.blend.stats.ctx_len);
        }
    }
}

/// Tiered-store invariants under random insert/get/remove sequences, at
/// 1..=4 compute-pool threads (precompute parallelism and the disk tier's
/// flusher both run concurrently with the driver): tier occupancy never
/// exceeds the configured capacities, and the hit/miss/insert counters are
/// exactly predicted by a model of the present set. The disk tier is sized
/// so nothing is ever evicted outright — spills move entries, so presence
/// is fully deterministic even though placement is not.
#[test]
fn tiered_store_occupancy_and_counters_are_consistent() {
    use cacheblend::kv::ChunkId;
    use cacheblend::storage::{MemBackend, SegmentLogBackend, StorageBackend};
    use std::collections::HashSet;
    use std::sync::Arc;

    let m = tiny_model();
    for threads in 1..=4usize {
        cacheblend::tensor::pool::set_threads(threads);
        let mut rng = SmallRng::seed_from_u64(0x57_0E + threads as u64);

        // A universe of 6 entries with known serialized sizes.
        let caches: Vec<_> = (0..6)
            .map(|_| precompute_chunk(&m, &random_chunk(&mut rng)))
            .collect();
        let sizes: Vec<u64> = caches.iter().map(|c| encode(c).len() as u64).collect();
        let max = *sizes.iter().max().unwrap();
        let ram_cap = 2 * max;
        let disk_cap = 8 * max; // all six fit: no outright evictions

        let dir =
            std::env::temp_dir().join(format!("cb-prop-store-{}-{threads}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = KvStore::with_backends(vec![
            (
                TierConfig::new("ram", ram_cap),
                Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>,
            ),
            (
                TierConfig::new("disk", disk_cap),
                Arc::new(SegmentLogBackend::new(&dir, None).unwrap()),
            ),
        ]);

        let mut present: HashSet<u64> = HashSet::new();
        let (mut want_hits, mut want_misses, mut want_inserts) = (0u64, 0u64, 0u64);
        for step in 0..120 {
            let id = rng.random_range(0u64..6);
            match rng.random_range(0u32..10) {
                0..=3 => {
                    if present.insert(id) {
                        want_inserts += 1;
                    }
                    store
                        .insert(ChunkId(id), &caches[id as usize])
                        .expect("universe fits the disk tier");
                }
                4..=7 => {
                    let got = store.get(ChunkId(id)).expect("no corruption injected");
                    if present.contains(&id) {
                        want_hits += 1;
                        let (cache, _) = got.expect("present entry must hit");
                        assert_eq!(cache, caches[id as usize], "step {step}: payload intact");
                    } else {
                        want_misses += 1;
                        assert!(got.is_none(), "step {step}: absent entry must miss");
                    }
                }
                _ => {
                    let was = store.remove(ChunkId(id));
                    assert_eq!(was, present.remove(&id), "step {step}: remove agreement");
                }
            }
            assert!(
                store.tier_used(0) <= ram_cap,
                "step {step}: RAM over capacity"
            );
            assert!(
                store.tier_used(1) <= disk_cap,
                "step {step}: disk over capacity"
            );
            let expect_used: u64 = present.iter().map(|&i| sizes[i as usize]).sum();
            assert_eq!(store.used_bytes(), expect_used, "step {step}: used bytes");
            assert_eq!(store.len(), present.len(), "step {step}: entry count");
        }
        let stats = store.stats();
        assert_eq!(stats.hits, want_hits, "threads {threads}: hits");
        assert_eq!(stats.misses, want_misses, "threads {threads}: misses");
        assert_eq!(stats.inserts, want_inserts, "threads {threads}: inserts");
        assert_eq!(stats.evictions, 0, "disk tier holds the full universe");
        assert_eq!(
            stats.spills == 0,
            stats.spilled_bytes == 0,
            "spill count and spilled bytes must agree"
        );
        store.flush().expect("flusher healthy");
        let _ = std::fs::remove_dir_all(&dir);
    }
    cacheblend::tensor::pool::set_threads(cacheblend::tensor::pool::default_threads());
}

/// Int8 cold-tier quantization round-trips within the symmetric-int8
/// bound: each element of `dequantize(quantize(x))` sits within
/// `row_max_abs / 254` of the original (scale = row max / 127, rounding
/// error ≤ scale/2), for random chunk caches.
#[test]
fn quantization_roundtrip_error_is_bounded_per_row() {
    use cacheblend::kv::quantize::{dequantize_entry, quantize_entry, MAX_RELATIVE_ERROR};

    let m = tiny_model();
    let mut rng = SmallRng::seed_from_u64(0x1_A78);
    for case in 0..12 {
        let cache = precompute_chunk(&m, &random_chunk(&mut rng));
        let wire = encode(&cache);
        let q = quantize_entry(&wire).unwrap();
        let back = decode(dequantize_entry(&q).unwrap()).unwrap();
        assert!(q.len() < wire.len() / 3, "case {case}: not ~4x smaller");
        for (l, (orig, got)) in cache.layers.iter().zip(&back.layers).enumerate() {
            for (a, b) in [(&orig.k, &got.k), (&orig.v, &got.v)] {
                for r in 0..a.rows() {
                    let row_max = a.row(r).iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                    let bound = row_max * MAX_RELATIVE_ERROR * 1.001 + 1e-6;
                    for (c, (&x, &y)) in a.row(r).iter().zip(b.row(r)).enumerate() {
                        assert!(
                            (x - y).abs() <= bound,
                            "case {case} layer {l} row {r} col {c}: \
                             |{x} - {y}| > {bound}"
                        );
                    }
                }
            }
        }
    }
}

/// Three-tier store (RAM → f32 disk → int8 cold) invariants under random
/// insert/get/remove sequences at 1..=4 compute-pool threads: occupancy
/// never exceeds any tier's capacity, presence stays deterministic, every
/// read returns the entry within one quantization of the original (loss is
/// applied once, at the cold boundary, and never accumulates across
/// demote→quantize→promote cycles), and the quantization counters obey
/// their accounting identities.
#[test]
fn quantized_cold_tier_cycles_preserve_payload_and_stats() {
    use cacheblend::kv::ChunkId;
    use cacheblend::storage::{MemBackend, SegmentLogBackend, StorageBackend};
    use std::collections::HashSet;
    use std::sync::Arc;

    let m = tiny_model();
    for threads in 1..=4usize {
        cacheblend::tensor::pool::set_threads(threads);
        let mut rng = SmallRng::seed_from_u64(0xC0_1D + threads as u64);

        let caches: Vec<_> = (0..6)
            .map(|_| precompute_chunk(&m, &random_chunk(&mut rng)))
            .collect();
        let sizes: Vec<u64> = caches.iter().map(|c| encode(c).len() as u64).collect();
        let max = *sizes.iter().max().unwrap();
        // RAM and disk each hold about one entry; the cold tier holds the
        // universe, so with several entries present some are always
        // int8-resident and gets keep cycling them through the formats.
        let (ram_cap, disk_cap, cold_cap) = (max, max, 64 * max);

        let root =
            std::env::temp_dir().join(format!("cb-prop-quant-{}-{threads}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = KvStore::with_backends(vec![
            (
                TierConfig::new("ram", ram_cap),
                Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>,
            ),
            (
                TierConfig::new("disk", disk_cap),
                Arc::new(SegmentLogBackend::new(root.join("warm"), None).unwrap()),
            ),
            (
                TierConfig::quantized("cold", cold_cap),
                Arc::new(SegmentLogBackend::new(root.join("cold"), None).unwrap()),
            ),
        ]);

        // |x - deq(q(x))| ≤ row_max/254 per element, so per matrix the
        // Frobenius distance is ≤ max_abs·√n/254; 2× covers a rounding
        // tie at the first quantization.
        let close = |a: &cacheblend::tensor::Matrix, b: &cacheblend::tensor::Matrix| {
            let max_abs = a.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let n = (a.rows() * a.cols()) as f32;
            a.frobenius_distance(b) <= 2.0 * max_abs * n.sqrt() / 254.0 + 1e-4
        };

        let mut present: HashSet<u64> = HashSet::new();
        let (mut want_hits, mut want_misses) = (0u64, 0u64);
        for step in 0..120 {
            let id = rng.random_range(0u64..6);
            match rng.random_range(0u32..10) {
                0..=3 => {
                    present.insert(id);
                    store
                        .insert(ChunkId(id), &caches[id as usize])
                        .expect("universe fits the cold tier");
                }
                4..=7 => {
                    let got = store.get(ChunkId(id)).expect("no corruption injected");
                    if present.contains(&id) {
                        want_hits += 1;
                        let (cache, _) = got.expect("present entry must hit");
                        let orig = &caches[id as usize];
                        assert_eq!(cache.positions, orig.positions, "step {step}");
                        assert_eq!(cache.tokens, orig.tokens, "step {step}");
                        for (l, (a, b)) in orig.layers.iter().zip(&cache.layers).enumerate() {
                            assert!(
                                close(&a.k, &b.k) && close(&a.v, &b.v),
                                "step {step} id {id} layer {l}: drift beyond one \
                                 quantization"
                            );
                        }
                    } else {
                        want_misses += 1;
                        assert!(got.is_none(), "step {step}: absent entry must miss");
                    }
                }
                _ => {
                    let was = store.remove(ChunkId(id));
                    assert_eq!(was, present.remove(&id), "step {step}: remove agreement");
                }
            }
            for (t, cap) in [(0, ram_cap), (1, disk_cap), (2, cold_cap)] {
                assert!(
                    store.tier_used(t) <= cap,
                    "step {step}: tier {t} over capacity"
                );
            }
            assert_eq!(store.len(), present.len(), "step {step}: entry count");
            let f32_total: u64 = present.iter().map(|&i| sizes[i as usize]).sum();
            assert!(
                store.used_bytes() <= f32_total,
                "step {step}: quantized residency must never grow the footprint"
            );
        }

        let stats = store.stats();
        assert_eq!(stats.hits, want_hits, "threads {threads}: hits");
        assert_eq!(stats.misses, want_misses, "threads {threads}: misses");
        assert!(
            stats.quantizations > 0,
            "threads {threads}: cold tier was never exercised"
        );
        assert!(
            stats.dequantizations <= stats.quantizations,
            "threads {threads}: every dequantize follows a quantize"
        );
        assert!(
            stats.quantize_saved_bytes > 0,
            "threads {threads}: quantization must shrink bytes"
        );
        assert_eq!(stats.evictions, 0, "cold tier holds the full universe");
        store.flush().expect("flusher healthy");
        let _ = std::fs::remove_dir_all(&root);
    }
    cacheblend::tensor::pool::set_threads(cacheblend::tensor::pool::default_threads());
}

// ---------------------------------------------------------------------------
// Observability: histogram algebra and trace ordering
// ---------------------------------------------------------------------------

use cacheblend::blend::engine::{EngineBuilder, Request as EngineRequest};
use cacheblend::blend::scheduler::ServiceConfig;
use cacheblend::blend::stream::Event;
use cacheblend::obs::metrics::{HistSnapshot, Registry};
use cacheblend::obs::trace::{SpanRecord, Tracer};
use cacheblend::serving::cluster::ClusterService;

/// Draws a value spanning many decades, so bucket indices cover the
/// exact range, several power-of-two ranges, and large magnitudes.
fn random_hist_value(rng: &mut SmallRng) -> u64 {
    let exp = rng.random_range(0u32..48);
    let lo = 1u64 << exp;
    rng.random_range(lo..lo.saturating_mul(2))
}

/// Histogram merge is associative and commutative, and totals add
/// exactly — the invariant the gateway's cluster scrape relies on.
#[test]
fn histogram_merge_is_associative_and_commutative() {
    let mut rng = SmallRng::seed_from_u64(0x0B5_0B5);
    let reg = Registry::new();
    for case in 0..24 {
        let snaps: Vec<HistSnapshot> = (0..3)
            .map(|j| {
                let h = reg.histogram(&format!("merge_{case}_{j}"));
                for _ in 0..rng.random_range(0usize..200) {
                    h.record(random_hist_value(&mut rng));
                }
                h.snapshot()
            })
            .collect();
        let (a, b, c) = (&snaps[0], &snaps[1], &snaps[2]);

        let mut left = a.clone();
        left.merge(b);
        left.merge(c);
        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "case {case}: (a⊕b)⊕c != a⊕(b⊕c)");

        let mut ab = a.clone();
        ab.merge(b);
        let mut ba = b.clone();
        ba.merge(a);
        assert_eq!(ab, ba, "case {case}: a⊕b != b⊕a");

        assert_eq!(
            left.count,
            a.count + b.count + c.count,
            "case {case}: count"
        );
        assert_eq!(left.sum, a.sum + b.sum + c.sum, "case {case}: sum");
        let bucket_total: u64 = left.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(bucket_total, left.count, "case {case}: bucket totals");
    }
}

/// Every recorded value lands in a bucket whose upper bound overshoots
/// by at most the configured γ = 2^-sub_bits (exact below 2^sub_bits).
#[test]
fn histogram_bucket_bound_error_is_within_gamma() {
    let mut rng = SmallRng::seed_from_u64(0x6A77A);
    for sub_bits in [2u32, 5, 8] {
        let reg = Registry::new();
        let gamma = 1.0 / (1u64 << sub_bits) as f64;
        for case in 0..200 {
            let v = if case % 4 == 0 {
                // Force the exact range (values below 2^sub_bits).
                rng.random_range(0u64..1 << sub_bits)
            } else {
                random_hist_value(&mut rng)
            };
            let h = reg.histogram_with_sub_bits(&format!("g_{sub_bits}_{case}"), sub_bits);
            assert!((h.gamma() - gamma).abs() < 1e-12);
            h.record(v);
            let got = h.quantile(1.0);
            assert!(
                got >= v,
                "sub_bits {sub_bits} case {case}: bound {got} < recorded {v}"
            );
            let err = (got - v) as f64;
            let budget = gamma * v as f64;
            assert!(
                err <= budget + 1e-9,
                "sub_bits {sub_bits} case {case}: v={v} bound={got} err={err} > γ·v={budget}"
            );
            if v < 1 << sub_bits {
                assert_eq!(
                    got, v,
                    "sub_bits {sub_bits} case {case}: small values are exact"
                );
            }
        }
    }
}

/// Quantiles are monotone in q, pinned to the recorded extremes.
#[test]
fn histogram_percentiles_are_monotone() {
    let mut rng = SmallRng::seed_from_u64(0x9070);
    let reg = Registry::new();
    for case in 0..16 {
        let h = reg.histogram(&format!("mono_{case}"));
        let n = rng.random_range(1usize..400);
        let mut max_v = 0u64;
        for _ in 0..n {
            let v = random_hist_value(&mut rng);
            max_v = max_v.max(v);
            h.record(v);
        }
        let snap = h.snapshot();
        let mut prev = 0u64;
        for step in 0..=1000u32 {
            let q = snap.quantile(step as f64 / 1000.0);
            assert!(
                q >= prev,
                "case {case}: quantile({}) = {q} < quantile at previous step {prev}",
                step as f64 / 1000.0
            );
            prev = q;
        }
        assert!(snap.quantile(1.0) >= max_v, "case {case}: max not covered");
    }
}

/// Concurrent recording from 1..=4 threads loses nothing: count, sum,
/// and bucket totals are all exact.
#[test]
fn histogram_concurrent_recording_is_exact() {
    const PER_THREAD: u64 = 20_000;
    for threads in 1u64..=4 {
        let reg = Registry::new();
        let h = reg.histogram("concurrent");
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * 1_000_003 + i % 1_000);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, threads * PER_THREAD, "threads {threads}: count");
        let expected_sum: u64 = (0..threads)
            .map(|t| {
                (0..PER_THREAD)
                    .map(|i| t * 1_000_003 + i % 1_000)
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(snap.sum, expected_sum, "threads {threads}: sum");
        let bucket_total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(bucket_total, snap.count, "threads {threads}: bucket totals");
    }
}

/// A mid-stream retry appears on the timeline as a *new* `retry#k` span
/// under the request root — a sibling starting where the failed attempt
/// closed, never a rewind — and span starts stay monotone down every
/// parent chain.
#[test]
fn cluster_retry_spans_stay_well_nested_and_monotone() {
    const TRACE_BASE: u64 = 0x7E57_7ACE_0000;
    const WAVE: usize = 8;
    Tracer::global().set_capacity(1 << 16);

    let mut cluster = ClusterService::build(
        2,
        ServiceConfig::default().workers(1).queue_capacity(64),
        |_| EngineBuilder::new(ModelProfile::Tiny).seed(11).build(),
    )
    .expect("cluster builds");
    let vocab = cluster.replica(0).engine().model().cfg.vocab.clone();
    let chunk = vec![
        vocab.id(TokenKind::Entity(3)),
        vocab.id(TokenKind::Attr(1)),
        vocab.id(TokenKind::Value(7)),
        vocab.id(TokenKind::Sep),
    ];
    let id = cluster
        .register_chunk_lazy(&chunk)
        .expect("chunk registers");
    let query = vec![
        vocab.id(TokenKind::Query),
        vocab.id(TokenKind::Entity(3)),
        vocab.id(TokenKind::Attr(1)),
        vocab.id(TokenKind::QMark),
    ];

    // Waves of 8 concurrent streams, alternating replicas; replica 0's
    // connection is severed right after a wave is submitted, so its
    // in-flight requests are retried on replica 1 (fig14's chaos
    // schedule, shrunk). Under a loaded test host a wave can drain
    // before the bounce lands, so keep bouncing until a retry actually
    // happened — the spans, not the schedule, are what this test pins.
    let mut traced = Vec::new();
    for wave_idx in 0..12 {
        let collectors: Vec<_> = (0..WAVE)
            .map(|i| {
                let k = (wave_idx * WAVE + i) as u64;
                traced.push(TRACE_BASE + k);
                let stream = cluster.submit_to(
                    i % 2,
                    EngineRequest::new(vec![id], query.clone())
                        .max_new_tokens(24)
                        .trace(TRACE_BASE + k, 0),
                );
                std::thread::spawn(move || {
                    let mut ok = false;
                    for ev in stream {
                        if matches!(ev, Event::Done(_)) {
                            ok = true;
                        }
                    }
                    ok
                })
            })
            .collect();
        let bounced = cluster.stats().retries == 0;
        if bounced {
            cluster.bounce_replica(0);
        }
        for c in collectors {
            assert!(c.join().expect("collector thread"), "request failed");
        }
        if !bounced && cluster.stats().retries >= 1 {
            break; // One clean post-retry wave served; enough material.
        }
    }
    assert!(
        cluster.stats().retries >= 1,
        "no bounce stranded an in-flight request in 12 waves"
    );

    let spans = Tracer::global().snapshot();
    let mut retried_traces = 0usize;
    for &trace in &traced {
        let mine: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace == trace).collect();
        let roots: Vec<&&SpanRecord> = mine.iter().filter(|s| s.name == "request").collect();
        assert_eq!(roots.len(), 1, "trace {trace:#x}: exactly one root span");
        let root = roots[0];
        assert_eq!(root.parent, 0, "trace {trace:#x}: root has no parent");

        // Attempts: direct children of the root named serve#k / retry#k.
        let mut attempts: Vec<&&SpanRecord> = mine
            .iter()
            .filter(|s| s.parent == root.span && s.span != root.span)
            .collect();
        attempts.sort_by_key(|s| s.start_ns);
        assert!(!attempts.is_empty(), "trace {trace:#x}: no attempt spans");
        assert_eq!(
            attempts[0].name, "serve#0",
            "trace {trace:#x}: first attempt must be serve#0"
        );
        for pair in attempts.windows(2) {
            let (prev, next) = (pair[0], pair[1]);
            assert!(
                next.name.starts_with("retry#"),
                "trace {trace:#x}: later attempt {} is not a retry span",
                next.name
            );
            assert!(
                next.start_ns >= prev.end_ns,
                "trace {trace:#x}: attempt {} rewinds before {} closed",
                next.name,
                prev.name
            );
        }
        if attempts.len() > 1 {
            retried_traces += 1;
        }
        let last = attempts.last().unwrap();
        assert!(
            root.end_ns >= last.end_ns,
            "trace {trace:#x}: root closes before its final attempt"
        );

        // Monotone starts down every parent chain (an orphaned attempt's
        // worker spans may *end* after the gateway closed the attempt —
        // the stream kept decoding to a dead connection — but no span
        // ever starts before its parent did).
        let by_id: std::collections::HashMap<u64, &&SpanRecord> =
            mine.iter().map(|s| (s.span, s)).collect();
        for s in &mine {
            if let Some(parent) = by_id.get(&s.parent) {
                assert!(
                    s.start_ns >= parent.start_ns,
                    "trace {trace:#x}: span {} starts before its parent {}",
                    s.name,
                    parent.name
                );
            }
        }
        // The winning (final) attempt is fully contained in the root.
        assert!(
            last.start_ns >= root.start_ns && last.end_ns <= root.end_ns,
            "trace {trace:#x}: final attempt escapes the root interval"
        );
    }
    assert!(
        retried_traces >= 1,
        "no trace recorded a retry attempt span despite {} gateway retries",
        cluster.stats().retries
    );
}

/// A random single-chunk recall prompt: `Bos`, a few facts, then a query
/// naming one of them. Decoding answers with `Value` tokens, so budgets
/// and stop conditions are both exercised.
fn recall_prompt(rng: &mut SmallRng, v: &Vocab) -> Vec<u32> {
    let n_facts = rng.random_range(1usize..4);
    let mut toks = vec![v.id(TokenKind::Bos)];
    let mut facts = Vec::new();
    for _ in 0..n_facts {
        let (e, a, val) = (
            rng.random_range(0u32..8),
            rng.random_range(0u32..4),
            rng.random_range(0u32..10),
        );
        facts.push((e, a));
        toks.extend([
            v.id(TokenKind::Entity(e)),
            v.id(TokenKind::Attr(a)),
            v.id(TokenKind::Value(val)),
            v.id(TokenKind::Sep),
        ]);
    }
    let (e, a) = facts[rng.random_range(0..facts.len())];
    toks.extend([
        v.id(TokenKind::Query),
        v.id(TokenKind::Entity(e)),
        v.id(TokenKind::Attr(a)),
        v.id(TokenKind::QMark),
    ]);
    toks
}

/// Continuous batched decode is bit-identical to the sequential decode
/// loop under every combination of pool thread count (1..=4), occupancy
/// cap (1/2/8), and a randomized mid-flight admission schedule: every
/// sequence's emitted tokens and final KV cache must equal the ones from
/// an isolated sequential decode, byte for byte.
#[test]
fn batched_decode_matches_sequential_bit_for_bit() {
    use cacheblend::model::{DecodeBatch, KvCache};
    use cacheblend::tensor::pool;
    use std::collections::HashMap;

    let m = tiny_model();
    let v = m.cfg.vocab.clone();
    let mut rng = SmallRng::seed_from_u64(0xBA7C4);
    let n_seqs = 10;
    let cases: Vec<(Vec<u32>, usize)> = (0..n_seqs)
        .map(|_| (recall_prompt(&mut rng, &v), rng.random_range(0usize..=6)))
        .collect();

    // Sequential references: each sequence prefilled and decoded alone.
    pool::set_threads(1);
    let reference: Vec<(Vec<u32>, KvCache)> = cases
        .iter()
        .map(|(prompt, budget)| {
            let (mut cache, x) = m.prefill(prompt);
            let resid = x.row(x.rows() - 1).to_vec();
            let out = m.decode_greedy(&mut cache, &resid, *budget);
            (out, cache)
        })
        .collect();

    for threads in 1..=4usize {
        for cap in [1usize, 2, 8] {
            pool::set_threads(threads);
            let mut schedule =
                SmallRng::seed_from_u64(0x5EED ^ ((threads as u64) << 8) ^ cap as u64);
            let mut batch = DecodeBatch::new();
            let mut case_of = HashMap::new();
            let mut tokens_seen: Vec<Vec<u32>> = vec![Vec::new(); n_seqs];
            let mut final_cache: Vec<Option<KvCache>> = (0..n_seqs).map(|_| None).collect();
            let mut next_case = 0usize;
            while next_case < n_seqs || !batch.is_empty() {
                // Random admissions up to the cap; guaranteed progress
                // when the batch is idle.
                let mut admitted = 0usize;
                while next_case < n_seqs
                    && batch.len() < cap
                    && ((batch.is_empty() && admitted == 0) || schedule.random_range(0u32..2) == 0)
                {
                    let (prompt, budget) = &cases[next_case];
                    let (cache, x) = m.prefill(prompt);
                    let resid = x.row(x.rows() - 1).to_vec();
                    let sid = batch.admit(&m, cache, &resid, *budget);
                    case_of.insert(sid, next_case);
                    next_case += 1;
                    admitted += 1;
                }
                let retired = batch.step(&m, &mut |sid, tok| {
                    tokens_seen[case_of[&sid]].push(tok);
                });
                for (sid, fin) in retired {
                    let case = case_of[&sid];
                    assert_eq!(tokens_seen[case], fin.tokens, "stream vs retired tokens");
                    assert!(
                        final_cache[case].replace(fin.cache).is_none(),
                        "sequence retired twice"
                    );
                }
            }
            for (case, (want_tokens, want_cache)) in reference.iter().enumerate() {
                assert_eq!(
                    &tokens_seen[case], want_tokens,
                    "tokens diverge: threads {threads} cap {cap} case {case}"
                );
                assert_eq!(
                    final_cache[case].as_ref(),
                    Some(want_cache),
                    "cache diverges: threads {threads} cap {cap} case {case}"
                );
            }
        }
    }
    pool::set_threads(pool::default_threads());
}
