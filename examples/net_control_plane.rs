//! The network control plane, explicitly: a `Gateway` coordinator, two
//! `Worker`-wrapped engines joined over **real TCP sockets**, and a
//! `NetClient` session submitting requests — all in one process so the
//! example runs under `cargo run`, but every byte crosses a socket
//! exactly as it would between machines (`cb_gateway` / `cb_worker` are
//! the same types as standalone binaries).
//!
//! Three acts: serve with locality routing, survive a heartbeat
//! partition, and survive a worker "process restart" (re-attach under
//! the same identity, slot adopted, chunk homes untouched).
//!
//! ```bash
//! cargo run --release --example net_control_plane
//! ```

use cacheblend::net::{Gateway, GatewayConfig, NetClient, TcpTransport, Worker, WorkerConfig};
use cacheblend::prelude::*;
use cacheblend::tokenizer::TokenKind::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_service() -> Arc<EngineService> {
    Arc::new(EngineService::new(
        EngineBuilder::new(ModelProfile::Tiny)
            .seed(11)
            .build()
            .expect("engine builds"),
        ServiceConfig::default().workers(1).queue_capacity(32),
    ))
}

fn main() {
    // Gateway side: listen, accept whatever dials in (workers say
    // HelloWorker, clients say HelloClient — the first frame decides).
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let gateway = Arc::new(Gateway::new(
        GatewayConfig::default().heartbeat_timeout(Duration::from_millis(400)),
    ));
    {
        // 4 connections total: two workers, a client, and worker 0's
        // re-attach. The thread (and its gateway handle) ends after the
        // last one.
        let gateway = Arc::clone(&gateway);
        std::thread::spawn(move || {
            for stream in listener.incoming().take(4) {
                let conn = TcpTransport::from_stream(stream.expect("accept")).expect("handshake");
                gateway.accept(Arc::new(conn)).expect("peer accepted");
            }
        });
    }

    // Worker side: each wraps an engine service and dials the gateway.
    // The services outlive their control-plane sessions — a re-attach
    // keeps the engine (and its warm cache) alive.
    let services: Vec<Arc<EngineService>> = (0..2).map(|_| tiny_service()).collect();
    let mut workers: Vec<Worker> = services
        .iter()
        .map(|service| {
            Worker::start(
                Arc::clone(service),
                Arc::new(TcpTransport::connect(addr).expect("worker dials gateway")),
                WorkerConfig::default().heartbeat_interval(Duration::from_millis(20)),
            )
            .expect("worker handshake")
        })
        .collect();
    while gateway.n_workers() < 2 {
        std::thread::sleep(Duration::from_millis(5));
    }
    println!("gateway on {addr} with {} TCP workers", gateway.n_workers());

    // Client side: a third socket. Registration is content-addressed, so
    // the gateway computes each chunk's home and precomputes KV there.
    let client = NetClient::connect(Arc::new(
        TcpTransport::connect(addr).expect("client dials gateway"),
    ))
    .expect("client handshake");
    let v = cacheblend::tokenizer::Vocab::default_eval();
    let chunks: Vec<Vec<u32>> = (0..6)
        .map(|i| {
            vec![
                v.id(Entity(i)),
                v.id(Attr(i % 8)),
                v.id(Value(2 * i)),
                v.id(Sep),
            ]
        })
        .collect();
    let ids: Vec<_> = chunks
        .iter()
        .map(|c| client.register_chunk(c, true).expect("registers"))
        .collect();
    let query = |i: u32| vec![v.id(Query), v.id(Entity(i)), v.id(Attr(i % 8)), v.id(QMark)];

    for (i, &id) in ids.iter().enumerate() {
        let resp = client
            .submit(
                &Request::new(vec![id], query(i as u32))
                    .ratio(0.45)
                    .max_new_tokens(4),
            )
            .expect("request serves");
        println!(
            "request {i}: {} answer tokens, ttft {:.2?} (chunk home: worker {})",
            resp.answer.len(),
            resp.ttft.total,
            gateway.home_of(id),
        );
    }

    // Partition one worker: its heartbeats stop, the gateway marks it
    // down exactly once and routes everything to the survivor.
    workers[0].pause_heartbeats(true);
    let t0 = Instant::now();
    while gateway.worker_healthy(0) {
        std::thread::sleep(Duration::from_millis(10));
    }
    println!("worker 0 silent → marked down after {:.0?}", t0.elapsed());
    for (i, &id) in ids.iter().enumerate() {
        client
            .submit(
                &Request::new(vec![id], query(i as u32))
                    .ratio(0.45)
                    .max_new_tokens(2),
            )
            .expect("survivor serves every request");
    }
    workers[0].pause_heartbeats(false);
    while !gateway.worker_healthy(0) {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = gateway.stats();
    println!(
        "recovered; failovers {} (counted once per down edge), reroutes {}, \
         admissions {:?}, locality {:.2}",
        stats.failovers,
        stats.reroutes,
        stats.admissions,
        stats.locality_hit_rate(),
    );
    let (healthy, _) = client.cluster_status().expect("status rpc");
    assert_eq!(healthy, vec![true, true]);
    assert_eq!(stats.failovers, 1);

    // Act three — worker 0's "process restarts": its session drops, and
    // a fresh one under the same identity with a bumped incarnation
    // adopts the old slot. The roster never grows and no chunk home
    // moves, so the re-attached engine's cache is still the one the
    // router warms.
    let homes: Vec<usize> = ids.iter().map(|&id| gateway.home_of(id)).collect();
    let (id0, inc0) = workers[0].identity();
    workers.remove(0); // drop the session; the engine in services[0] survives
    while gateway.worker_healthy(0) {
        std::thread::sleep(Duration::from_millis(10));
    }
    let _readopted = Worker::start(
        Arc::clone(&services[0]),
        Arc::new(TcpTransport::connect(addr).expect("worker redials")),
        WorkerConfig::default()
            .identity(id0, inc0 + 1)
            .heartbeat_interval(Duration::from_millis(20)),
    )
    .expect("re-attach handshake");
    while !gateway.worker_healthy(0) {
        std::thread::sleep(Duration::from_millis(10));
    }
    let homes_after: Vec<usize> = ids.iter().map(|&id| gateway.home_of(id)).collect();
    assert_eq!(gateway.n_workers(), 2, "adoption must not grow the roster");
    assert_eq!(homes_after, homes, "adoption must not move chunk homes");
    println!(
        "worker 0 re-attached as incarnation {} and adopted its slot (adoptions: {})",
        inc0 + 1,
        gateway.stats().adoptions,
    );
}
