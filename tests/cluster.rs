//! Cluster-serving integration: routing determinism, the shared
//! persistent tier, and failover under injected replica faults.

use cacheblend::prelude::*;
use cacheblend::serving::cluster::ClusterService;
use cacheblend::tokenizer::TokenKind::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn test_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cb-cluster-test-{}-{}-{}",
        std::process::id(),
        tag,
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A RAM-only cluster of `n` replicas compiled from one profile/seed.
fn ram_cluster(n: usize) -> ClusterService {
    ClusterService::build(
        n,
        ServiceConfig::default().workers(1).queue_capacity(32),
        |_| EngineBuilder::new(ModelProfile::Tiny).seed(11).build(),
    )
    .unwrap()
}

fn corpus(cluster: &ClusterService) -> (Vec<Vec<u32>>, Vec<u32>) {
    let v = cluster.replica(0).engine().model().cfg.vocab.clone();
    let chunks: Vec<Vec<u32>> = (0..10)
        .map(|i| {
            vec![
                v.id(Entity(i as u32)),
                v.id(Attr(i as u32 % 8)),
                v.id(Value(i as u32 * 2)),
                v.id(Sep),
            ]
        })
        .collect();
    let q = vec![v.id(Query), v.id(Entity(3)), v.id(Attr(3)), v.id(QMark)];
    (chunks, q)
}

/// Runs one seeded request sequence through a cluster and returns every
/// response's (answer, ratio, ctx_len, sources-as-hits) fingerprint in
/// submission order.
fn run_sequence(cluster: &ClusterService, n_requests: usize) -> Vec<(Vec<u32>, f32, usize)> {
    let (chunks, q) = corpus(cluster);
    let ids = cluster.register_chunks(&chunks).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xDE_7E12);
    let streams: Vec<_> = (0..n_requests)
        .map(|_| {
            let k = rng.random_range(2usize..5);
            let set: Vec<_> = (0..k)
                .map(|_| ids[rng.random_range(0usize..ids.len())])
                .collect();
            let req = Request::new(set, q.clone())
                .ratio(0.45)
                .max_new_tokens(1 + rng.random_range(0usize..4));
            cluster.submit_stream(req).expect("healthy cluster admits")
        })
        .collect();
    streams
        .into_iter()
        .map(|s| {
            let resp = s.collect().expect("request serves");
            (resp.answer, resp.recompute_ratio, resp.blend.stats.ctx_len)
        })
        .collect()
}

/// Satellite: the same seeded workload through 1 replica and through N
/// replicas yields identical per-request token output — routing changes
/// placement and latency, never results. Checked at 1 and 4 compute-pool
/// threads.
#[test]
fn replica_count_never_changes_request_results() {
    for threads in [1usize, 4] {
        cacheblend::tensor::pool::set_threads(threads);
        let single = run_sequence(&ram_cluster(1), 24);
        for replicas in [2usize, 3] {
            let multi = run_sequence(&ram_cluster(replicas), 24);
            assert_eq!(
                single, multi,
                "threads {threads}: {replicas}-replica output diverged from 1-replica"
            );
        }
    }
    cacheblend::tensor::pool::set_threads(cacheblend::tensor::pool::default_threads());
}

/// A request spilled (or failed over) to a non-home replica serves its
/// chunks from the shared persistent tier — discovered on demand, not
/// re-precomputed.
#[test]
fn non_home_replicas_serve_from_the_shared_tier() {
    let dir = test_dir("shared-tier");
    let cluster = ClusterService::build(
        2,
        ServiceConfig::default().workers(1).queue_capacity(8),
        |_| {
            EngineBuilder::new(ModelProfile::Tiny)
                .seed(11)
                .storage(
                    StorageConfig::default()
                        .tier(DeviceKind::CpuRam, 1 << 20)
                        .shared_disk_tier(DeviceKind::NvmeSsd, 1 << 30, &dir, false),
                )
                .build()
        },
    )
    .unwrap();
    let (chunks, q) = corpus(&cluster);
    let ids = cluster.register_chunks(&chunks).unwrap();

    // Registration itself replicated every home cache onto the shared
    // persistent tier (no explicit persist needed); drain the
    // write-behind flushers so the records are discoverable on disk.
    for r in 0..2 {
        cluster.replica(r).engine().flush_storage().unwrap();
        assert!(
            cluster.replica(r).engine().store().tier_len(0) > 0,
            "home caches stay RAM-resident — replication does not demote"
        );
    }

    // Serve each chunk at its NON-home replica: the KV must come from the
    // shared tier (a Hit on the disk tier), never from re-precompute.
    for &id in &ids {
        let away = 1 - cluster.home_of(id);
        let resp = cluster
            .submit_to(
                away,
                Request::new(vec![id], q.clone())
                    .ratio(0.45)
                    .max_new_tokens(1),
            )
            .collect()
            .unwrap();
        assert_eq!(
            resp.chunk_sources,
            vec![cacheblend::engine::ChunkSource::Hit { tier: 1 }],
            "chunk {id:?} served away from home must hit the shared tier"
        );
    }
    let discovered: u64 = (0..2)
        .map(|r| cluster.replica(r).engine().store().stats().discovered)
        .sum();
    assert!(
        discovered > 0,
        "at least some entries were adopted cross-replica via discovery"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected replica faults: downing replicas mid-workload loses no
/// requests (they fail over), and downing everything is reported rather
/// than hung.
#[test]
fn faults_reroute_without_losing_requests() {
    let cluster = ram_cluster(3);
    let (chunks, q) = corpus(&cluster);
    let ids = cluster.register_chunks(&chunks).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xFA_017);
    let mut served = 0u64;
    for round in 0..30 {
        // Rotate a victim down every few requests.
        if round % 5 == 0 {
            for r in 0..3 {
                cluster.set_replica_health(r, r != (round / 5) % 3);
            }
        }
        let set: Vec<_> = (0..3)
            .map(|_| ids[rng.random_range(0usize..ids.len())])
            .collect();
        let resp = cluster
            .submit(Request::new(set, q.clone()).ratio(0.45).max_new_tokens(2))
            .expect("two healthy replicas remain");
        assert!(resp.blend.stats.ctx_len > 0);
        served += 1;
    }
    assert_eq!(served, 30);
    assert_eq!(cluster.aggregate_service_stats().completed, 30);
    assert!(
        cluster.stats().failovers > 0,
        "rotating victims must have forced failovers"
    );

    // Total outage: reported, not hung.
    for r in 0..3 {
        cluster.set_replica_health(r, false);
    }
    assert!(cluster
        .submit_stream(Request::new(vec![ids[0]], q))
        .is_err());
    assert_eq!(cluster.stats().rejections, 1);
}
