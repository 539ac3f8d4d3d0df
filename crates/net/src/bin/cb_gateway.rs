//! `cb_gateway`: the cluster coordinator process. Listens for worker and
//! client connections, routes submissions by chunk locality, and (with
//! `--smoke`) self-checks one request end-to-end through a real TCP
//! client session, exiting 0 on success.
//!
//! ```text
//! cb_gateway --listen 127.0.0.1:7070 --expect-workers 2 [--smoke [--chaos]]
//! ```
//!
//! The gateway is a single point of failure: if this process dies, its
//! clients' open streams end with `Canceled`, and `cb_worker
//! --retry-attach` workers re-attach once a gateway listens on the same
//! address again.
//!
//! `--chaos` extends the smoke into a fault drill: it registers one
//! chunk, prints a `{"chaos_home": …}` line naming the slot and the
//! worker id (as `cb_worker` logs it) of that chunk's home, and then
//! keeps a stream of concurrent requests on the home for several seconds
//! while an **external injector** (the CI script) SIGKILLs that worker
//! mid-run. It then asserts that every request still completed and that
//! at least one mid-stream retry happened. Killing the other worker
//! strands nothing, and killing none fails the drill: it exits 1.
//!
//! CI runs the smoke as: start `cb_gateway … --smoke` plus two
//! `cb_worker` processes, then wait on the gateway's exit status.

use cb_core::engine::Request;
use cb_net::client::NetClient;
use cb_net::gateway::{Gateway, GatewayConfig};
use cb_net::tcp::TcpTransport;
use cb_obs::{cb_error, cb_info, cb_warn};
use cb_tokenizer::{TokenId, TokenKind, Vocab};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!("usage: cb_gateway --listen ADDR [--expect-workers N] [--smoke [--chaos]]");
    std::process::exit(2);
}

/// Starts the accept loop on `listener`, handing every connection —
/// worker or client — to the gateway.
fn serve(gateway: &Arc<Gateway>, listener: TcpListener) {
    let gateway = Arc::clone(gateway);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            match TcpTransport::from_stream(stream) {
                Ok(t) => match gateway.accept(Arc::new(t)) {
                    Ok(accepted) => cb_info!("gateway", "accepted {accepted:?}"),
                    Err(e) => cb_warn!("gateway", "rejected connection: {e}"),
                },
                Err(e) => cb_warn!("gateway", "connection setup failed: {e}"),
            }
        }
    });
}

fn wait_for_workers(gateway: &Gateway, expect: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while gateway.n_workers() < expect {
        if Instant::now() > deadline {
            cb_error!(
                "gateway",
                "only {}/{} workers attached within 60s",
                gateway.n_workers(),
                expect
            );
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    cb_info!("gateway", "{} workers attached", gateway.n_workers());
}

fn eval_chunk_and_query(v: &Vocab) -> (Vec<TokenId>, Vec<TokenId>) {
    let chunk = vec![
        v.id(TokenKind::Entity(3)),
        v.id(TokenKind::Attr(1)),
        v.id(TokenKind::Value(7)),
        v.id(TokenKind::Sep),
    ];
    let query = vec![
        v.id(TokenKind::Query),
        v.id(TokenKind::Entity(3)),
        v.id(TokenKind::Attr(1)),
        v.id(TokenKind::QMark),
    ];
    (chunk, query)
}

/// The chaos drill (see module docs): concurrent requests across a
/// worker kill, every one must complete, at least one must have been
/// transparently retried.
fn chaos_smoke(gateway: &Gateway, client: &NetClient) {
    let v = Vocab::default_eval();
    let (chunk, query) = eval_chunk_and_query(&v);
    let id = client
        .register_chunk(&chunk, true)
        .expect("chunk registers cluster-wide");
    // The injector kills the chunk's home: every request runs there, so
    // the kill strands whatever is in flight.
    let home = gateway.home_of(id);
    println!(
        "{{\"chaos_home\": {{\"slot\": {home}, \"worker\": \"{:#018x}\"}}}}",
        gateway.worker_id(home)
    );
    let window = Duration::from_secs(6);
    let start = Instant::now();
    let mut completed = 0u64;
    let mut failed = 0u64;
    while start.elapsed() < window {
        // Waves of 4 concurrent streams: enough overlap that the kill
        // lands mid-stream for some of them.
        let streams: Vec<_> = (0..4)
            .map(|_| {
                client.submit_stream(
                    &Request::new(vec![id], query.clone())
                        .ratio(0.45)
                        .max_new_tokens(12),
                )
            })
            .collect();
        for s in streams {
            match s.collect() {
                Ok(resp) => {
                    assert!(!resp.answer.is_empty(), "chaos request produced no tokens");
                    completed += 1;
                }
                Err(e) => {
                    cb_warn!("gateway", "chaos: request failed: {e}");
                    failed += 1;
                }
            }
        }
    }
    let stats = gateway.stats();
    println!(
        "{{\"chaos\": true, \"completed\": {completed}, \"failed\": {failed}, \
         \"retries\": {}, \"failovers\": {}}}",
        stats.retries, stats.failovers
    );
    if failed > 0 {
        cb_error!("gateway", "chaos: {failed} requests failed");
        std::process::exit(1);
    }
    if stats.retries == 0 {
        cb_error!(
            "gateway",
            "chaos: no mid-stream retry happened — was a worker actually killed?"
        );
        std::process::exit(1);
    }
    println!(
        "cb_gateway chaos OK: {completed} requests survived the kill ({} retries)",
        stats.retries
    );
}

fn main() {
    let mut listen = "127.0.0.1:7070".to_string();
    let mut expect = 1usize;
    let mut smoke = false;
    let mut chaos = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.next().unwrap_or_else(|| usage()),
            "--expect-workers" => {
                expect = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--smoke" => smoke = true,
            "--chaos" => chaos = true,
            _ => usage(),
        }
    }
    if chaos && !smoke {
        cb_error!("gateway", "--chaos requires --smoke");
        usage();
    }

    let gateway = Arc::new(Gateway::new(GatewayConfig::default()));

    let listener = TcpListener::bind(&listen).unwrap_or_else(|e| {
        cb_error!("gateway", "cannot bind {listen}: {e}");
        std::process::exit(1);
    });
    let addr = listener.local_addr().expect("bound address");
    cb_info!("gateway", "listening on {addr}");
    serve(&gateway, listener);
    wait_for_workers(&gateway, expect);

    if !smoke {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }

    // Smoke: drive requests through a real client connection — the exact
    // path an external process uses.
    let client = NetClient::connect(Arc::new(TcpTransport::connect(addr).expect("self-connect")))
        .expect("client handshake");

    if chaos {
        chaos_smoke(&gateway, &client);
        drop(client);
        return;
    }

    let v = Vocab::default_eval();
    let (chunk, query) = eval_chunk_and_query(&v);
    let id = client
        .register_chunk(&chunk, true)
        .expect("chunk registers cluster-wide");
    let smoke_requests = 3u64;
    let mut answer_tokens = 0;
    let mut last_ttft = Duration::ZERO;
    for _ in 0..smoke_requests {
        let resp = client
            .submit(
                &Request::new(vec![id], query.clone())
                    .ratio(0.45)
                    .max_new_tokens(4),
            )
            .expect("smoke request completes");
        assert!(!resp.answer.is_empty(), "smoke request produced no tokens");
        answer_tokens = resp.answer.len();
        last_ttft = resp.ttft.total;
    }
    let (healthy, _) = client.cluster_status().expect("status RPC");
    assert!(
        healthy.iter().all(|&h| h),
        "all workers healthy after smoke"
    );
    // Mid-run scrape: the aggregated registry must see every request this
    // smoke completed, with a coherent TTFT distribution.
    let snap = client.scrape().expect("metrics scrape RPC");
    let completed = snap.counter("cb_requests_completed_total").unwrap_or(0);
    let submitted = snap.counter("cb_requests_submitted_total").unwrap_or(0);
    assert!(
        completed >= smoke_requests,
        "scrape saw {completed} completed requests, expected >= {smoke_requests}"
    );
    assert_eq!(
        submitted, completed,
        "every submitted request must have completed"
    );
    let ttft = snap
        .hist("cb_ttft_seconds")
        .expect("ttft histogram present in scrape");
    assert!(ttft.count >= smoke_requests, "ttft histogram undercounts");
    let (p50, p99) = (ttft.quantile_seconds(0.50), ttft.quantile_seconds(0.99));
    assert!(
        p99 >= p50 && p50 > 0.0,
        "ttft percentiles incoherent: p50={p50} p99={p99}"
    );
    println!(
        "cb_gateway smoke OK: {} workers, {} answer tokens, ttft {:?}, \
         scrape: {completed} completed, ttft p50 {:.3}ms p99 {:.3}ms",
        healthy.len(),
        answer_tokens,
        last_ttft,
        p50 * 1e3,
        p99 * 1e3,
    );
    drop(client);
    // Process exit closes every worker connection; workers observe the
    // close and exit on their own.
}
