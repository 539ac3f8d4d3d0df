//! Scale-out serving: a [`Gateway`] fronting three engine replicas with
//! chunk-locality routing, a shared persistent tier, and failover.
//!
//! Run with: `cargo run --release --example cluster_serving`

use std::sync::Arc;

use cacheblend::prelude::*;
use cacheblend::tokenizer::TokenKind::*;

fn main() {
    let dir = std::env::temp_dir().join(format!("cb-cluster-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Three replicas: each owns its model, scheduler, and a small RAM
    // tier; all share one persistent log dir (each replica appends its
    // own log series), so any replica can serve any chunk that reached
    // disk. Each replica is a worker attached to the gateway over an
    // in-process loopback transport, speaking the same wire protocol a
    // TCP worker does.
    let cluster = Gateway::new(GatewayConfig::default());
    let cfg = ServiceConfig::default().workers(1).queue_capacity(8);
    let workers: Vec<Worker> = (0..3)
        .map(|_| {
            let storage = StorageConfig::default()
                .tier(DeviceKind::CpuRam, 1 << 20)
                .shared_disk_tier(DeviceKind::NvmeSsd, 1 << 30, &dir, false);
            let engine = EngineBuilder::new(ModelProfile::Tiny)
                .seed(11)
                .storage(storage);
            let service = Arc::new(EngineService::new(
                engine.build().expect("replica builds"),
                cfg,
            ));
            cluster
                .attach_local(service, WorkerConfig::default())
                .expect("replica attaches")
                .0
        })
        .collect();
    let v = workers[0].service().engine().model().cfg.vocab.clone();

    // Offline: register the chunk corpus cluster-wide. Every replica
    // learns the tokens; the KV cache is precomputed at each chunk's
    // *home* replica — the one rendezvous hashing will route to.
    let chunks: Vec<Vec<u32>> = (0..12)
        .map(|i| {
            vec![
                v.id(Entity(i as u32)),
                v.id(Attr(i as u32 % 8)),
                v.id(Value(i as u32 * 2)),
                v.id(Sep),
            ]
        })
        .collect();
    let ids = cluster.register_chunks(&chunks).unwrap();
    for (i, &id) in ids.iter().enumerate().take(4) {
        println!("chunk {i} → home replica {}", cluster.home_of(id));
    }

    // Online: repeated RAG contexts keep hitting the replica whose RAM is
    // warm for their chunks.
    let query = vec![v.id(Query), v.id(Entity(2)), v.id(Attr(2)), v.id(QMark)];
    for round in 0..6 {
        let set = vec![ids[2], ids[(round + 3) % 12], ids[(round + 7) % 12]];
        let resp = cluster
            .submit(
                Request::new(set, query.clone())
                    .ratio(0.45)
                    .max_new_tokens(2),
            )
            .unwrap();
        println!(
            "round {round}: answer {:?} (ratio {:.2})",
            v.render_seq(&resp.answer),
            resp.recompute_ratio
        );
    }

    // Failover: mark a replica down — its traffic reroutes to the healthy
    // replicas, which can still serve every chunk (registry is
    // cluster-wide, the persistent tier is shared).
    let victim = cluster.home_of(ids[2]);
    cluster.set_worker_health(victim, false);
    let resp = cluster
        .submit(
            // The chunk is homed at the downed replica: the router must
            // fail over.
            Request::new(vec![ids[2]], query.clone())
                .ratio(0.45)
                .max_new_tokens(2),
        )
        .expect("failover serves");
    println!(
        "\nreplica {victim} down: request still answered {:?}",
        v.render_seq(&resp.answer)
    );
    cluster.set_worker_health(victim, true);

    let st = cluster.stats();
    println!("\ncluster stats:");
    println!("  admissions per replica: {:?}", st.admissions);
    println!(
        "  locality: {:.0}% of chunks served at their home replica, {:.0}% of requests at their preferred replica",
        100.0 * st.locality_hit_rate(),
        100.0 * st.request_locality_rate()
    );
    println!(
        "  spills {}, failovers {}, rejections {}",
        st.spills, st.failovers, st.rejections
    );
    for (i, w) in workers.iter().enumerate() {
        let s = w.service().stats();
        println!(
            "  replica {i} scheduler: completed {}, failed {}, deadline misses {}",
            s.completed, s.failed, s.deadline_misses
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
