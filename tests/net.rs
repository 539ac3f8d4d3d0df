//! Network control plane integration: frame-decoder fuzz, loopback-vs-TCP
//! parity, heartbeat-partition failover (with the idempotent-counting
//! regression), error-detail preservation across the wire, and the
//! survivability matrix — worker re-attach/adoption, client-invisible
//! mid-stream retry (fuzzed across every kill position) — what a client
//! sees when its gateway connection dies, and the cluster metrics scrape
//! (over TCP, and past a worker whose connection died).

use cacheblend::engine::ErrorCode;
use cacheblend::kv::chunk::ChunkId;
use cacheblend::net::frame::{
    decode_frame, encode_frame, read_frame, FRAME_VERSION, HEADER_LEN, MAX_FRAME_PAYLOAD,
    TRAILER_LEN,
};
use cacheblend::net::message::{
    Message, WireEvent, WireFailure, WireRequest, WireResponse, WireTtft,
};
use cacheblend::net::{
    loopback_pair, Gateway, GatewayConfig, LoopbackTransport, NetClient, NetError, RetryPolicy,
    TcpTransport, Transport, Worker, WorkerConfig,
};
use cacheblend::prelude::*;
use cacheblend::scheduler::ServiceProbe;
use cacheblend::tokenizer::TokenKind::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The engine-backed tests here time-share one core with heartbeat and
/// demux threads; running them serially keeps the partition test's
/// heartbeat deadlines honest.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------------------
// Frame / message fuzz
// ---------------------------------------------------------------------------

/// Representative frames covering every encoder code path that carries
/// variable-length data (token vectors, strings, nested structs).
fn fuzz_bases() -> Vec<Vec<u8>> {
    let request = Request::new(vec![ChunkId(7), ChunkId(0xDEAD_BEEF)], vec![1, 2, 3])
        .ratio(0.45)
        .max_new_tokens(4);
    let messages = [
        Message::HelloClient,
        Message::Heartbeat {
            probe: ServiceProbe::default(),
            stats: ServiceStats::default(),
        },
        Message::Submit {
            id: 3,
            trace: 0xFACE,
            span: 17,
            blocking: true,
            request: WireRequest::from_request(&request),
        },
        Message::RegisterChunk {
            rpc: 9,
            eager: true,
            tokens: (0..64).collect(),
        },
        Message::Ev {
            id: 12,
            trace: 0,
            event: WireEvent::Failed(WireFailure::from_error(&EngineError::Storage(
                "injected backend failure".into(),
            ))),
        },
        Message::ClusterStatusReply {
            rpc: 1,
            healthy: vec![true, false, true],
            probes: vec![ServiceProbe::default(); 3],
        },
    ];
    messages.iter().map(|m| encode_frame(&m.encode())).collect()
}

/// Serialize-fuzz for the wire: bit flips, length-field overwrites,
/// truncations, junk extensions, checksum rewrites, and garbage buffers
/// never panic the decoders and never survive as a valid frame —
/// except pure extension, which by design leaves the framed prefix
/// intact (trailing bytes belong to the next frame).
#[test]
fn frame_decoder_survives_mutation_fuzz() {
    let bases = fuzz_bases();
    for seed in [0xCB_0001u64, 0xCB_0002, 0xCB_0003] {
        let mut rng = SmallRng::seed_from_u64(seed);
        for case in 0..1000 {
            let base = &bases[rng.random_range(0usize..bases.len())];
            let mut bytes = base.clone();
            let class = rng.random_range(0u32..6);
            match class {
                // Random distinct-byte flips anywhere in the frame.
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
                // Overwrite the payload-length field — the allocation
                // attack surface.
                1 => {
                    let old = u32::from_le_bytes(bytes[6..10].try_into().unwrap());
                    let new = old.wrapping_add(rng.random_range(1u32..u32::MAX));
                    bytes[6..10].copy_from_slice(&new.to_le_bytes());
                }
                // Truncation at a random point.
                2 => {
                    let keep = rng.random_range(0usize..bytes.len());
                    bytes.truncate(keep);
                }
                // Extension with random junk (stream framing must stop at
                // the declared length).
                3 => {
                    let extra = rng.random_range(1usize..64);
                    for _ in 0..extra {
                        bytes.push(rng.random_range(0u32..256) as u8);
                    }
                }
                // Rewrite the checksum trailer.
                4 => {
                    let at = bytes.len() - TRAILER_LEN;
                    let old = u64::from_le_bytes(bytes[at..].try_into().unwrap());
                    let new = old.wrapping_add(rng.random_range(1u64..u64::MAX));
                    bytes[at..].copy_from_slice(&new.to_le_bytes());
                }
                // Short garbage that never saw an encoder.
                _ => {
                    let len = rng.random_range(0usize..64);
                    bytes = (0..len)
                        .map(|_| rng.random_range(0u32..256) as u8)
                        .collect();
                }
            }
            if bytes == *base {
                continue; // Mutation was a no-op (possible only for class 0).
            }

            let slice = decode_frame(&bytes);
            let stream = read_frame(&mut &bytes[..]);
            if class == 3 {
                // Junk after a complete frame is the next frame's problem:
                // both decoders must return exactly the original payload.
                let (payload, consumed) = slice.expect("extended frame keeps its valid prefix");
                assert_eq!(consumed, base.len(), "seed {seed:#x} case {case}");
                assert_eq!(payload, &base[HEADER_LEN..base.len() - TRAILER_LEN]);
                assert_eq!(stream.as_deref(), Ok(payload), "seed {seed:#x} case {case}");
            } else {
                assert!(
                    slice.is_err(),
                    "seed {seed:#x} case {case}: mutated frame decoded"
                );
                assert!(
                    stream.is_err(),
                    "seed {seed:#x} case {case}: mutated stream decoded"
                );
            }

            // Message-level: whatever the mutation did to the payload
            // region, the message decoder must return (never panic or
            // over-allocate). A decode success is acceptable — e.g. a tag
            // flip between two fixed-layout messages — as long as the
            // result re-encodes cleanly.
            if bytes.len() >= HEADER_LEN + TRAILER_LEN {
                let payload = &bytes[HEADER_LEN..bytes.len() - TRAILER_LEN];
                if let Ok(msg) = Message::decode(payload) {
                    let _ = msg.encode();
                }
            }
        }
    }
}

/// A frame claiming a `u32::MAX` (or any oversize) payload is rejected by
/// header validation alone — before any allocation or read.
#[test]
fn oversize_length_claims_are_rejected_without_allocation() {
    for claim in [MAX_FRAME_PAYLOAD as u32 + 1, u32::MAX / 2, u32::MAX] {
        let mut frame = Vec::new();
        frame.extend_from_slice(b"CBNF");
        frame.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        frame.extend_from_slice(&claim.to_le_bytes());
        frame.extend_from_slice(&[0u8; 16]); // Far less than claimed.
        assert!(
            matches!(decode_frame(&frame), Err(e) if format!("{e}").contains(&claim.to_string())),
            "claim {claim} must be rejected as oversize"
        );
        assert!(read_frame(&mut &frame[..]).is_err());
    }
}

// ---------------------------------------------------------------------------
// Loopback vs TCP parity
// ---------------------------------------------------------------------------

fn eval_corpus() -> (Vec<Vec<u32>>, Vec<u32>) {
    let v = cacheblend::tokenizer::Vocab::default_eval();
    let chunks: Vec<Vec<u32>> = (0..8)
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

fn seeded_requests(ids: &[ChunkId], q: &[u32], n: usize) -> Vec<Request> {
    let mut rng = SmallRng::seed_from_u64(0x4E_E7);
    (0..n)
        .map(|_| {
            let k = rng.random_range(1usize..4);
            let set: Vec<_> = (0..k)
                .map(|_| ids[rng.random_range(0usize..ids.len())])
                .collect();
            Request::new(set, q.to_vec())
                .ratio(0.45)
                .max_new_tokens(1 + rng.random_range(0usize..4))
        })
        .collect()
}

fn tiny_service() -> Arc<EngineService> {
    Arc::new(EngineService::new(
        EngineBuilder::new(ModelProfile::Tiny)
            .seed(11)
            .build()
            .unwrap(),
        ServiceConfig::default().workers(1).queue_capacity(32),
    ))
}

/// The same seeded workload served through an in-process loopback cluster
/// and through a real TCP gateway + workers + client yields identical
/// results — the transports differ only in plumbing, never in behavior.
#[test]
fn loopback_and_tcp_clusters_serve_identical_results() {
    let _guard = serial();
    let (chunks, q) = eval_corpus();

    // Loopback arm: the same gateway, workers attached in-process.
    let loopback = Gateway::new(GatewayConfig::default());
    let _loop_workers: Vec<_> = (0..2)
        .map(|_| loopback.attach_local(tiny_service(), WorkerConfig::default()))
        .collect::<Result<_, _>>()
        .unwrap();
    let loop_ids = loopback.register_chunks(&chunks).unwrap();

    // TCP arm: gateway and two workers joined over real sockets.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let gateway = Arc::new(Gateway::new(GatewayConfig::default()));
    let acceptor = {
        let gateway = Arc::clone(&gateway);
        std::thread::spawn(move || {
            // Two workers + one client, then the listener closes.
            for stream in listener.incoming().take(3) {
                let t = TcpTransport::from_stream(stream.unwrap()).unwrap();
                gateway.accept(Arc::new(t)).unwrap();
            }
        })
    };
    let _workers: Vec<Worker> = (0..2)
        .map(|_| {
            Worker::start(
                tiny_service(),
                Arc::new(TcpTransport::connect(addr).unwrap()),
                WorkerConfig::default(),
            )
            .unwrap()
        })
        .collect();
    wait_until("both workers attached", || gateway.n_workers() == 2);
    let client = NetClient::connect(Arc::new(TcpTransport::connect(addr).unwrap())).unwrap();
    acceptor.join().unwrap();

    // Content-addressed registration must agree on ids across transports.
    let tcp_ids: Vec<ChunkId> = chunks
        .iter()
        .map(|c| client.register_chunk(c, true).unwrap())
        .collect();
    assert_eq!(
        loop_ids, tcp_ids,
        "chunk ids are content-addressed, transport-independent"
    );

    for (i, req) in seeded_requests(&loop_ids, &q, 12).into_iter().enumerate() {
        let a = loopback.submit(req.clone()).expect("loopback serves");
        let b = client.submit(&req).expect("tcp serves");
        assert_eq!(
            (a.answer, a.recompute_ratio, a.blend.stats.ctx_len),
            (b.answer, b.recompute_ratio, b.blend.stats.ctx_len),
            "request {i} diverged between loopback and TCP"
        );
    }
    let (healthy, probes) = client.cluster_status().unwrap();
    assert_eq!(healthy, vec![true, true]);
    assert_eq!(probes.len(), 2);
}

// ---------------------------------------------------------------------------
// Partition failover
// ---------------------------------------------------------------------------

/// A worker that stops heartbeating is marked down exactly once (the
/// idempotent-failover regression: continued silence and mid-probe
/// recovery must not re-count), new requests route around it without a
/// loss, and a resumed heartbeat restores it.
#[test]
fn heartbeat_partition_fails_over_once_and_loses_no_requests() {
    let _guard = serial();
    let gateway =
        Gateway::new(GatewayConfig::default().heartbeat_timeout(Duration::from_millis(400)));
    let workers: Vec<Worker> = (0..2)
        .map(|_| {
            let cfg = WorkerConfig::default().heartbeat_interval(Duration::from_millis(20));
            gateway.attach_local(tiny_service(), cfg).unwrap().0
        })
        .collect();
    let (chunks, q) = eval_corpus();
    let ids = gateway.register_chunks(&chunks).unwrap();
    let requests = seeded_requests(&ids, &q, 6);

    // Healthy baseline.
    gateway
        .submit(requests[0].clone())
        .expect("healthy cluster serves");
    assert_eq!(gateway.stats().failovers, 0);

    // Partition worker 0: it keeps serving, the gateway just hears silence.
    workers[0].pause_heartbeats(true);
    wait_until("worker 0 marked down", || !gateway.worker_healthy(0));
    assert_eq!(gateway.stats().failovers, 1, "one down-edge, one failover");

    // The partitioned worker is unreachable for routing but not crashed:
    // work already pinned to it still completes.
    gateway
        .submit_to(0, requests[0].clone())
        .collect()
        .expect("pinned request survives");

    // Regression: continued silence re-observes the same down state every
    // sweep — the counter must not move.
    std::thread::sleep(Duration::from_millis(1200));
    assert_eq!(
        gateway.stats().failovers,
        1,
        "re-observed outage must not re-count"
    );

    // New submissions all route to the healthy worker; none are lost.
    let before = gateway.stats().admissions;
    let streams: Vec<_> = requests
        .iter()
        .map(|r| {
            gateway
                .submit_stream(r.clone())
                .expect("one healthy worker remains")
        })
        .collect();
    for s in streams {
        s.collect().expect("rerouted request serves");
    }
    let after = gateway.stats().admissions;
    assert_eq!(
        after[0], before[0],
        "no admission reaches the partitioned worker"
    );
    assert_eq!(
        after[1],
        before[1] + requests.len() as u64,
        "every request lands on worker 1"
    );

    // Recovery is not a failover.
    workers[0].pause_heartbeats(false);
    wait_until("worker 0 recovered", || gateway.worker_healthy(0));
    assert_eq!(
        gateway.stats().failovers,
        1,
        "recovery must not count as a failover"
    );

    // A second partition is a second edge — counted exactly once more.
    workers[0].pause_heartbeats(true);
    wait_until("worker 0 down again", || !gateway.worker_healthy(0));
    assert_eq!(gateway.stats().failovers, 2);
}

// ---------------------------------------------------------------------------
// Error detail across the wire
// ---------------------------------------------------------------------------

/// An engine-side failure keeps its structured code and detail through
/// the worker → gateway → collect() relay: the offending chunk id of an
/// `UnknownChunk` survives the wire intact.
#[test]
fn error_detail_survives_the_wire() {
    let _guard = serial();
    let cluster = Gateway::new(GatewayConfig::default());
    let _worker = cluster
        .attach_local(tiny_service(), WorkerConfig::default())
        .unwrap();
    let v = cacheblend::tokenizer::Vocab::default_eval();
    let bogus = ChunkId(0xDEAD_BEEF_CAFE);
    let err = cluster
        .submit(
            Request::new(vec![bogus], vec![v.id(Query), v.id(QMark)])
                .ratio(0.45)
                .max_new_tokens(2),
        )
        .expect_err("unregistered chunk must fail");
    assert_eq!(
        err,
        EngineError::UnknownChunk(bogus),
        "the failing chunk id must survive worker → gateway → client"
    );
}

/// A gateway with no worker attached yet (`cb_gateway` accepts clients
/// before its expected workers dial in) answers a client's registration
/// and submission with the structured "no healthy worker" error, not a
/// dead session and an RPC timeout. Once a worker attaches, the same
/// session serves.
#[test]
fn empty_roster_answers_no_healthy_worker_then_serves() {
    let _guard = serial();
    let gateway = Gateway::new(GatewayConfig::default());
    let (client_end, gateway_end) = loopback_pair();
    let client = NetClient::connect(Arc::new(client_end)).unwrap();
    gateway.accept(Arc::new(gateway_end)).unwrap();
    let (chunks, q) = eval_corpus();
    let reg = client.register_chunk(&chunks[0], true).unwrap_err();
    let sub = client.submit(&Request::new(vec![ChunkId(1)], q.clone()));
    for (what, err) in [("registration", reg), ("submission", sub.unwrap_err())] {
        assert!(
            matches!(
                err,
                EngineError::Remote {
                    code: ErrorCode::NoHealthyWorker,
                    ..
                }
            ),
            "{what}: expected NoHealthyWorker, got {err:?}"
        );
    }
    assert_eq!(gateway.stats().rejections, 1);

    let _worker = gateway
        .attach_local(tiny_service(), WorkerConfig::default())
        .unwrap();
    let id = client
        .register_chunk(&chunks[0], true)
        .expect("registration succeeds once a worker attached");
    let resp = client
        .submit(&Request::new(vec![id], q).ratio(0.45).max_new_tokens(2))
        .expect("the same session serves once a worker attached");
    assert!(resp.blend.stats.ctx_len > 0, "request really blended");
}

// ---------------------------------------------------------------------------
// Survivability: re-attach, mid-stream retry, a dead gateway
// ---------------------------------------------------------------------------

fn healthy_probe() -> ServiceProbe {
    ServiceProbe {
        queue_depth: 0,
        queue_capacity: 32,
        inflight: 0,
        workers: 1,
        shutdown: false,
    }
}

/// The full scripted stream for one request whose answer is `answer`:
/// the deterministic event sequence a scripted worker replays, so kill
/// positions and bit-identity are exact rather than timing-dependent.
fn scripted_events(answer: &[u32]) -> Vec<WireEvent> {
    let mut evs = vec![
        WireEvent::Queued,
        WireEvent::Admitted,
        WireEvent::FirstToken(WireTtft::default()),
    ];
    evs.extend(answer.iter().map(|&t| WireEvent::Token(t)));
    evs.push(WireEvent::Done(WireResponse {
        answer: answer.to_vec(),
        ttft: WireTtft::default(),
        recompute_ratio: 0.45,
        chunk_sources: vec![None],
        ctx_len: 8,
        suffix_len: 4,
        selected_per_layer: vec![2, 2, 2, 2],
        first_layer_deviations: vec![0.0],
    }));
    evs
}

/// Spawns a scripted worker on `conn`: hellos as (`id`, `incarnation`),
/// then answers every submission with `events` — except that during the
/// **first** submission it dies (drops the connection, which the gateway
/// observes as a worker death) after sending `kill_after` frames, if set.
/// `kill_after == events.len()` means it completes the stream and *then*
/// dies.
fn scripted_worker(
    conn: LoopbackTransport,
    id: u64,
    incarnation: u64,
    events: Vec<WireEvent>,
    kill_after: Option<usize>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        conn.send(&Message::HelloWorker {
            id,
            incarnation,
            probe: healthy_probe(),
            stats: ServiceStats::default(),
        })
        .expect("scripted hello");
        let mut first = true;
        while let Ok(msg) = conn.recv() {
            match msg {
                Message::Submit { id: req, .. } => {
                    let kill = if first { kill_after } else { None };
                    first = false;
                    for (i, ev) in events.iter().enumerate() {
                        if kill == Some(i) {
                            return; // Dropping `conn` = sudden death.
                        }
                        let frame = Message::Ev {
                            id: req,
                            trace: 0,
                            event: ev.clone(),
                        };
                        if conn.send(&frame).is_err() {
                            return;
                        }
                    }
                    if kill == Some(events.len()) {
                        return; // Completed the stream, then died.
                    }
                }
                Message::Status { rpc } => {
                    let _ = conn.send(&Message::StatusReply {
                        rpc,
                        probe: healthy_probe(),
                        stats: ServiceStats::default(),
                    });
                }
                Message::Shutdown => return,
                _ => {}
            }
        }
    })
}

/// The mid-stream retry property, fuzzed across **every** kill position:
/// whatever event the dying worker last delivered (nothing, `Queued`,
/// `Admitted`, `FirstToken`, any `Token(k)`, or the full stream through
/// `Done`), the collected stream is bit-identical to the no-failure run —
/// no duplicated or dropped token, every control event exactly once, one
/// terminal — and the journal entry is retired after exactly one retry
/// (zero when the death came after `Done`).
#[test]
fn mid_stream_kill_at_every_event_position_never_dups_or_drops_tokens() {
    let _guard = serial();
    for seed in [0xC1u64, 0xC2, 0xC3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let answer: Vec<u32> = (0..4).map(|_| rng.random_range(1u32..500)).collect();
        let events = scripted_events(&answer);
        for kill_after in 0..=events.len() {
            let gateway = Arc::new(Gateway::new(
                GatewayConfig::default()
                    .retry(RetryPolicy::default().backoff_base(Duration::from_millis(1))),
            ));
            let (killer_end, gw_a) = loopback_pair();
            let (survivor_end, gw_b) = loopback_pair();
            let killer = scripted_worker(killer_end, 0xDEAD, 1, events.clone(), Some(kill_after));
            let survivor = scripted_worker(survivor_end, 0xBEEF, 1, events.clone(), None);
            assert_eq!(gateway.attach(Arc::new(gw_a)).unwrap(), 0);
            assert_eq!(gateway.attach(Arc::new(gw_b)).unwrap(), 1);

            let request = Request::new(vec![ChunkId(7)], vec![1, 2, 3]).max_new_tokens(4);
            let stream = gateway.submit_to(0, request);
            let mut control = [0u32; 3];
            let mut tokens = Vec::new();
            let mut answers = Vec::new();
            while let Some(ev) = stream.recv() {
                match ev {
                    Event::Queued => control[0] += 1,
                    Event::Admitted => control[1] += 1,
                    Event::FirstToken(_) => control[2] += 1,
                    Event::Token(t) => tokens.push(t),
                    Event::Done(r) => answers.push(r.answer),
                    Event::Failed(e) => {
                        panic!("seed {seed:#x} kill@{kill_after}: request failed: {e}")
                    }
                }
            }
            assert_eq!(
                control,
                [1, 1, 1],
                "seed {seed:#x} kill@{kill_after}: every control event exactly once"
            );
            assert_eq!(
                tokens, answer,
                "seed {seed:#x} kill@{kill_after}: token stream must be bit-identical \
                 to the no-failure run"
            );
            assert_eq!(
                answers.len(),
                1,
                "seed {seed:#x} kill@{kill_after}: exactly one terminal (journal retired once)"
            );
            assert_eq!(answers[0], answer, "seed {seed:#x} kill@{kill_after}");
            let expected = u64::from(kill_after < events.len());
            assert_eq!(
                gateway.stats().retries,
                expected,
                "seed {seed:#x} kill@{kill_after}: a mid-stream death costs exactly one \
                 retry, a post-terminal death costs none"
            );
            drop(gateway);
            killer.join().unwrap();
            survivor.join().unwrap();
        }
    }
}

/// Re-attach semantics at the gateway boundary: a hello carrying an
/// incarnation at or below the slot's current one is rejected with a
/// named error and changes nothing; a strictly higher incarnation adopts
/// the **old** slot (same index, roster does not grow) and serves.
#[test]
fn stale_incarnation_hellos_are_rejected_and_newer_ones_adopt() {
    let _guard = serial();
    let gateway = Gateway::new(GatewayConfig::default());
    let events = scripted_events(&[5, 6]);
    let (w1, g1) = loopback_pair();
    let h1 = scripted_worker(w1, 0x1D, 3, events.clone(), None);
    assert_eq!(gateway.attach(Arc::new(g1)).unwrap(), 0);

    // Equal and lower incarnations are stale: rejected, roster unchanged.
    for stale in [3u64, 2] {
        let (w2, g2) = loopback_pair();
        w2.send(&Message::HelloWorker {
            id: 0x1D,
            incarnation: stale,
            probe: healthy_probe(),
            stats: ServiceStats::default(),
        })
        .unwrap();
        let err = gateway
            .attach(Arc::new(g2))
            .expect_err("a stale incarnation must be rejected");
        assert!(
            format!("{err}").contains("stale hello"),
            "rejection must say why: {err}"
        );
    }
    assert_eq!(
        gateway.n_workers(),
        1,
        "rejected hellos must not grow the roster"
    );
    assert_eq!(gateway.stats().adoptions, 0);

    // A strictly higher incarnation adopts the old slot in place.
    let (w3, g3) = loopback_pair();
    let h3 = scripted_worker(w3, 0x1D, 4, events, None);
    assert_eq!(
        gateway.attach(Arc::new(g3)).unwrap(),
        0,
        "re-attach must adopt the old slot, not append"
    );
    assert_eq!(gateway.n_workers(), 1);
    assert_eq!(gateway.stats().adoptions, 1);
    let resp = gateway
        .submit_to(0, Request::new(vec![ChunkId(1)], vec![1]).max_new_tokens(2))
        .collect()
        .expect("the adopted slot serves");
    assert_eq!(resp.answer, vec![5, 6]);
    drop(gateway);
    h1.join().unwrap();
    h3.join().unwrap();
}

/// RPC timeouts surface as structured errors naming the RPC and the
/// destination worker — not a bare "timed out".
#[test]
fn rpc_timeouts_name_the_rpc_and_destination() {
    let _guard = serial();
    let gateway = Gateway::new(
        GatewayConfig::default()
            .retry(RetryPolicy::default().rpc_timeout(Duration::from_millis(50))),
    );
    // A worker that hellos and then ignores everything.
    let (w, g) = loopback_pair();
    w.send(&Message::HelloWorker {
        id: 0x77,
        incarnation: 1,
        probe: healthy_probe(),
        stats: ServiceStats::default(),
    })
    .unwrap();
    gateway.attach(Arc::new(g)).unwrap();
    let err = gateway
        .register_chunk(&[1, 2, 3])
        .expect_err("an unanswered RPC must time out");
    let text = format!("{err}");
    assert!(
        text.contains("RegisterChunk") && text.contains("worker 0"),
        "the timeout must name the RPC and its destination, got: {text}"
    );
    drop(w);
}

/// A worker process dying abruptly over real TCP — mid-request, with one
/// request admitted and another queued behind it — is invisible to the
/// collectors: both stranded requests are transparently retried on the
/// surviving worker (exactly once each) and the answer is bit-identical
/// to the no-failure baseline.
#[test]
fn tcp_worker_death_mid_stream_is_invisible_to_the_collector() {
    let _guard = serial();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let gateway = Arc::new(Gateway::new(
        GatewayConfig::default()
            .retry(RetryPolicy::default().backoff_base(Duration::from_millis(1))),
    ));
    let acceptor = {
        let gateway = Arc::clone(&gateway);
        std::thread::spawn(move || {
            for stream in listener.incoming().take(3) {
                let t = TcpTransport::from_stream(stream.unwrap()).unwrap();
                gateway.accept(Arc::new(t)).unwrap();
            }
        })
    };
    // Keep a handle on worker 0's transport: `shutdown()` severs the
    // socket exactly as a SIGKILL would.
    let w0_conn = Arc::new(TcpTransport::connect(addr).unwrap());
    let w0_dyn: Arc<dyn Transport> = w0_conn.clone();
    let _w0 = Worker::start(tiny_service(), w0_dyn, WorkerConfig::default()).unwrap();
    let _w1 = Worker::start(
        tiny_service(),
        Arc::new(TcpTransport::connect(addr).unwrap()),
        WorkerConfig::default(),
    )
    .unwrap();
    wait_until("both workers attached", || gateway.n_workers() == 2);
    let client = NetClient::connect(Arc::new(TcpTransport::connect(addr).unwrap())).unwrap();
    acceptor.join().unwrap();

    let (chunks, q) = eval_corpus();
    let ids: Vec<ChunkId> = chunks
        .iter()
        .map(|c| client.register_chunk(c, true).unwrap())
        .collect();
    let target_req = Request::new(vec![ids[0], ids[3]], q.clone())
        .ratio(0.45)
        .max_new_tokens(6);
    let baseline = client.submit(&target_req).expect("no-failure baseline");

    // A long-context blocker pins worker 0's single scheduler thread so
    // the kill deterministically lands while the target is still owed.
    let mut big_q = Vec::new();
    while big_q.len() < 768 {
        big_q.extend_from_slice(&q);
    }
    let blocker_req = Request::new(vec![ids[1]], big_q)
        .ratio(0.45)
        .max_new_tokens(4);
    let blocker = gateway.submit_to(0, blocker_req);
    loop {
        match blocker.recv() {
            Some(Event::Admitted) => break, // Worker 0 is now busy with it.
            Some(_) => {}
            None => panic!("blocker stream ended before admission"),
        }
    }
    let target = gateway.submit_to(0, target_req.clone());
    loop {
        match target.recv() {
            Some(Event::Queued) => break, // Queued behind the blocker.
            Some(_) => {}
            None => panic!("target stream ended before queueing"),
        }
    }
    w0_conn.shutdown(); // The kill.

    let served = target.collect().expect("target survives the worker death");
    assert_eq!(
        served.answer, baseline.answer,
        "the retried answer must be bit-identical to the no-failure run"
    );
    blocker
        .collect()
        .expect("the in-flight blocker is retried too");
    let stats = gateway.stats();
    assert_eq!(
        stats.retries, 2,
        "both stranded requests retried exactly once each"
    );
    assert!(!gateway.worker_healthy(0), "the dead worker is marked down");
    assert!(gateway.worker_healthy(1));
}

/// Plays the gateway's half of a client session up to a mid-stream
/// sever: takes the hello and one submission, relays the opening of its
/// stream (no terminal event), then drops the connection with the rest
/// of the stream still owed.
fn relay_prefix_then_sever(gateway_end: impl Transport) {
    assert_eq!(gateway_end.recv().unwrap(), Message::HelloClient);
    let Message::Submit { id, trace, .. } = gateway_end.recv().unwrap() else {
        panic!("expected the client's submission");
    };
    let events = scripted_events(&[5, 6, 7]);
    for event in &events[..events.len() - 2] {
        let frame = Message::Ev {
            id,
            trace,
            event: event.clone(),
        };
        gateway_end.send(&frame).unwrap();
    }
}

/// Severs `client`'s gateway connection mid-stream (through
/// `gateway_end`, the gateway's side of it) and checks what the client
/// promises: the open stream ends in `Canceled`, and a submission made
/// afterwards fails before `submit_stream` returns, with
/// `NoHealthyWorker`, instead of waiting on a connection that is gone.
fn assert_dead_gateway_cancels(client: NetClient, gateway_end: impl Transport) {
    let request = Request::new(vec![ChunkId(7)], vec![1, 2, 3]).max_new_tokens(3);
    let open = client.submit_stream(&request);
    relay_prefix_then_sever(gateway_end);
    assert_eq!(open.collect().unwrap_err(), EngineError::Canceled);

    let late = client.submit_stream(&request);
    match late.try_recv() {
        Some(Event::Failed(EngineError::Remote { code, .. })) => {
            assert_eq!(code, ErrorCode::NoHealthyWorker);
        }
        other => panic!("a submission after the sever must fail at once, got {other:?}"),
    }
    assert!(late.recv().is_none(), "the failed stream is closed");
}

/// A dead gateway connection is final: nothing redials, over loopback
/// (`NetClient::connect`) or over TCP (`NetClient::connect_endpoints`).
#[test]
fn dead_gateway_cancels_open_streams_and_fails_later_submits() {
    let (client_end, gateway_end) = loopback_pair();
    let client = NetClient::connect(Arc::new(client_end)).unwrap();
    assert_dead_gateway_cancels(client, gateway_end);

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let client = NetClient::connect_endpoints(&[addr], RetryPolicy::default()).unwrap();
    let gateway_end = TcpTransport::from_stream(listener.accept().unwrap().0).unwrap();
    assert_dead_gateway_cancels(client, gateway_end);
}

// ---------------------------------------------------------------------------
// Metrics scrape
// ---------------------------------------------------------------------------

/// A client scrape over real TCP returns the cluster-aggregated registry:
/// counter deltas match the requests this test served, the TTFT histogram
/// grows coherently, and the Prometheus rendering exposes both.
#[test]
fn tcp_scrape_aggregates_cluster_metrics() {
    let _guard = serial();
    let (chunks, q) = eval_corpus();

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let gateway = Arc::new(Gateway::new(GatewayConfig::default()));
    let acceptor = {
        let gateway = Arc::clone(&gateway);
        std::thread::spawn(move || {
            for stream in listener.incoming().take(3) {
                let t = TcpTransport::from_stream(stream.unwrap()).unwrap();
                gateway.accept(Arc::new(t)).unwrap();
            }
        })
    };
    let _workers: Vec<Worker> = (0..2)
        .map(|_| {
            Worker::start(
                tiny_service(),
                Arc::new(TcpTransport::connect(addr).unwrap()),
                WorkerConfig::default(),
            )
            .unwrap()
        })
        .collect();
    wait_until("both workers attached", || gateway.n_workers() == 2);
    let client = NetClient::connect(Arc::new(TcpTransport::connect(addr).unwrap())).unwrap();
    acceptor.join().unwrap();

    let _ = (&chunks, &q);
    let v = cacheblend::tokenizer::Vocab::default_eval();
    let chunk = vec![v.id(Entity(3)), v.id(Attr(1)), v.id(Value(7)), v.id(Sep)];
    let query = vec![v.id(Query), v.id(Entity(3)), v.id(Attr(1)), v.id(QMark)];
    let id = client.register_chunk(&chunk, true).unwrap();

    // Baseline scrape first: the registry is process-global, so only
    // deltas against it are attributable to this test.
    let before = client.scrape().expect("baseline scrape");
    let n = 5u64;
    for _ in 0..n {
        let resp = client
            .submit(
                &Request::new(vec![id], query.clone())
                    .ratio(0.45)
                    .max_new_tokens(4),
            )
            .expect("request serves");
        assert!(!resp.answer.is_empty(), "smoke-shaped request decodes");
    }
    let after = client.scrape().expect("post-run scrape");

    let delta = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0))
    };
    assert_eq!(delta("cb_requests_completed_total"), n, "completed delta");
    assert_eq!(delta("cb_requests_submitted_total"), n, "submitted delta");
    assert_eq!(delta("cb_requests_failed_total"), 0, "failed delta");
    assert!(delta("cb_tokens_total") > 0, "tokens delta");
    assert_eq!(
        delta("cb_gateway_requests_total"),
        n,
        "gateway request counter is scrape-exposed"
    );

    let ttft_before = before.hist("cb_ttft_seconds").map(|h| h.count).unwrap_or(0);
    let ttft = after.hist("cb_ttft_seconds").expect("ttft histogram");
    assert!(
        ttft.count >= ttft_before + n,
        "ttft histogram grew by fewer samples than requests served"
    );
    assert!(
        ttft.quantile_seconds(0.99) >= ttft.quantile_seconds(0.50)
            && ttft.quantile_seconds(0.50) > 0.0,
        "ttft percentiles incoherent"
    );

    // Scraping twice back-to-back must not double-count: the worker-side
    // publishes are deltas against their previous snapshot.
    let again = client.scrape().expect("idempotent scrape");
    assert_eq!(
        again.counter("cb_requests_completed_total"),
        after.counter("cb_requests_completed_total"),
        "an idle re-scrape must not inflate counters"
    );

    let text = after.to_prometheus();
    assert!(
        text.contains("cb_requests_completed_total"),
        "prom counters"
    );
    assert!(
        text.contains("# TYPE cb_ttft_seconds summary"),
        "prom histogram summary"
    );
    assert!(
        text.contains("cb_ttft_seconds{quantile=\"0.99\"}"),
        "prom quantile lines"
    );
}

/// The gateway's end of a worker that died without a clean close, as a
/// TCP peer killed with `kill -9` looks: after `die()` every receive
/// reports the connection closed, while a send still succeeds locally
/// (the first write to a dead TCP peer does). It counts the `Metrics`
/// requests written to it after its death.
#[derive(Debug)]
struct DeadPeer {
    inner: LoopbackTransport,
    dead: AtomicBool,
    metrics_after_death: AtomicUsize,
}

impl DeadPeer {
    fn new(inner: LoopbackTransport) -> Self {
        Self {
            inner,
            dead: Default::default(),
            metrics_after_death: Default::default(),
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn die(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }
}

impl Transport for DeadPeer {
    fn send(&self, msg: &Message) -> Result<(), NetError> {
        if !self.is_dead() {
            return self.inner.send(msg);
        }
        if matches!(msg, Message::Metrics { .. }) {
            self.metrics_after_death.fetch_add(1, Ordering::SeqCst);
        }
        Ok(())
    }

    fn recv(&self) -> Result<Message, NetError> {
        match self.is_dead() {
            true => Err(NetError::Closed),
            false => self.inner.recv(),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Message, NetError> {
        match self.is_dead() {
            true => Err(NetError::Closed),
            false => self.inner.recv_timeout(timeout),
        }
    }

    fn peer(&self) -> String {
        "dead-peer".into()
    }
}

/// A scripted worker that hellos, then answers every `Metrics` request
/// with a snapshot of its own registry, which counts one
/// `cb_test_survivor_total`.
fn metrics_worker(conn: LoopbackTransport, id: u64) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let registry = cacheblend::obs::metrics::Registry::new();
        registry.counter("cb_test_survivor_total").inc();
        conn.send(&Message::HelloWorker {
            id,
            incarnation: 1,
            probe: healthy_probe(),
            stats: ServiceStats::default(),
        })
        .expect("scripted hello");
        while let Ok(msg) = conn.recv() {
            match msg {
                Message::Metrics { rpc } => {
                    let snapshot = registry.snapshot().encode();
                    let _ = conn.send(&Message::MetricsReply { rpc, snapshot });
                }
                Message::Shutdown => return,
                _ => {}
            }
        }
    })
}

/// A scrape asks only workers whose connection is alive: a worker the
/// gateway saw die is skipped, even though a write to it would still
/// succeed (and its reply would never come, so the scrape would wait out
/// the RPC timeout). The survivors' replies are merged as usual.
#[test]
fn scrape_skips_a_worker_whose_connection_died() {
    let _guard = serial();
    // Health falls only with the connection: no heartbeat expiry.
    let gateway =
        Gateway::new(GatewayConfig::default().heartbeat_timeout(Duration::from_secs(3600)));
    let (dead_worker_end, dead_gateway_end) = loopback_pair();
    dead_worker_end
        .send(&Message::HelloWorker {
            id: 0xDEAD,
            incarnation: 1,
            probe: healthy_probe(),
            stats: ServiceStats::default(),
        })
        .unwrap();
    let dead = Arc::new(DeadPeer::new(dead_gateway_end));
    assert_eq!(
        gateway
            .attach(Arc::clone(&dead) as Arc<dyn Transport>)
            .unwrap(),
        0
    );
    let (survivor_end, survivor_gateway_end) = loopback_pair();
    let survivor = metrics_worker(survivor_end, 0xBEEF);
    assert_eq!(gateway.attach(Arc::new(survivor_gateway_end)).unwrap(), 1);

    dead.die();
    wait_until("the gateway to see worker 0 die", || {
        gateway.stats().failovers == 1
    });
    let merged = gateway.scrape();
    assert_eq!(
        dead.metrics_after_death.load(Ordering::SeqCst),
        0,
        "the scrape must not ask a worker whose connection died"
    );
    assert_eq!(
        merged.counter("cb_test_survivor_total"),
        Some(1),
        "the survivor's reply is merged"
    );
    drop(gateway);
    survivor.join().unwrap();
    drop(dead_worker_end);
}
