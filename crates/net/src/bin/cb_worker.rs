//! `cb_worker`: one engine worker process. Connects to a `cb_gateway`
//! over TCP, announces itself, and serves submissions until the gateway
//! ends the session.
//!
//! ```text
//! cb_worker --gateway ADDR[,ADDR...] [--workers 2] [--seed 11] [--retry-attach]
//! ```
//!
//! `--gateway` takes an **ordered** endpoint list; the worker dials the
//! addresses in order and serves the first that accepts. An
//! unreachable gateway fails fast: a few capped-backoff passes over the
//! list (about two seconds), then a clear message and a non-zero exit.
//!
//! With `--retry-attach`, a worker whose gateway session ends keeps its
//! engine (and every cached chunk) alive, redials the list with backoff,
//! and re-attaches under the **same identity with a bumped incarnation**
//! — so a gateway that still holds its slot lets it adopt that slot and
//! no chunk home moves.
//!
//! The engine is a Tiny-profile instance built from `--seed`; every
//! worker in a cluster must use the same profile and seed so routing
//! never changes results.

use cb_core::engine::EngineBuilder;
use cb_core::scheduler::{EngineService, ServiceConfig};
use cb_model::ModelProfile;
use cb_net::retry::RetryPolicy;
use cb_net::tcp::TcpTransport;
use cb_net::worker::{Worker, WorkerConfig};
use cb_obs::{cb_error, cb_info};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: cb_worker --gateway ADDR[,ADDR...] [--workers N] [--seed S] [--retry-attach]"
    );
    std::process::exit(2);
}

/// Dials the endpoint list in order, with the policy's capped backoff
/// between passes. Returns the first connection, or the last error.
fn dial(endpoints: &[String], policy: &RetryPolicy) -> Result<TcpTransport, String> {
    let mut last = String::from("<no endpoints>");
    for attempt in 0..=policy.max_retries {
        std::thread::sleep(policy.backoff(attempt));
        for ep in endpoints {
            match TcpTransport::connect(ep.as_str()) {
                Ok(t) => return Ok(t),
                Err(e) => last = format!("{ep}: {e}"),
            }
        }
    }
    Err(last)
}

fn main() {
    let mut gateway = None;
    let mut workers = 2usize;
    let mut seed = 11u64;
    let mut retry_attach = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gateway" => gateway = args.next(),
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--retry-attach" => retry_attach = true,
            _ => usage(),
        }
    }
    let Some(addrs) = gateway else { usage() };
    let endpoints: Vec<String> = addrs.split(',').map(str::to_string).collect();

    // ~2s of capped backoff over the whole list: enough to ride out a
    // gateway still binding its listener, fast enough that a wrong
    // address fails visibly instead of hanging.
    let policy = RetryPolicy::default().max_retries(6);

    // One engine for the process lifetime: re-attaches keep every cached
    // chunk warm.
    let engine = EngineBuilder::new(ModelProfile::Tiny)
        .seed(seed)
        .build()
        .expect("Tiny engine builds");
    let service = Arc::new(EngineService::new(
        engine,
        ServiceConfig::default().workers(workers).queue_capacity(64),
    ));

    let mut identity: Option<(u64, u64)> = None;
    loop {
        let conn = match dial(&endpoints, &policy) {
            Ok(c) => c,
            Err(e) => {
                if identity.is_none() || !retry_attach {
                    cb_error!(
                        "worker",
                        "no gateway reachable among {endpoints:?} (last error: {e}); giving up"
                    );
                    std::process::exit(1);
                }
                continue; // dial() already paced the attempts.
            }
        };
        let cfg = match identity {
            // Same id, next incarnation: adopt the old slot.
            Some((id, incarnation)) => WorkerConfig::default().identity(id, incarnation + 1),
            None => WorkerConfig::default(),
        };
        let worker = match Worker::start(Arc::clone(&service), Arc::new(conn), cfg) {
            Ok(w) => w,
            Err(e) => {
                if !retry_attach {
                    cb_error!("worker", "gateway handshake failed: {e}");
                    std::process::exit(1);
                }
                continue;
            }
        };
        let (id, incarnation) = worker.identity();
        identity = Some((id, incarnation));
        cb_info!(
            "worker",
            "serving {endpoints:?} as {id:#018x} incarnation {incarnation} \
             (scheduler workers: {workers}, seed: {seed})"
        );
        worker.run_until_disconnected();
        if !retry_attach {
            cb_info!("worker", "gateway session ended, exiting");
            return;
        }
        cb_info!("worker", "gateway session ended, re-attaching");
    }
}
