//! Watching a cluster run: the `cb-obs` metrics registry and per-request
//! span timelines, end to end in one process.
//!
//! Builds a two-replica [`Gateway`] cluster, serves a handful of traced
//! requests, then:
//!
//! 1. scrapes the cluster-aggregated metrics registry (the same
//!    [`MetricsSnapshot`] a remote `NetClient::scrape()` or `cb_top`
//!    sees) and prints the Prometheus text rendering, and
//! 2. exports every span the run recorded as `chrome://tracing` JSON —
//!    open the file in `chrome://tracing` or <https://ui.perfetto.dev>
//!    to see each request's admit → queue → blend → decode timeline.
//!
//! Run with: `cargo run --release --example observability`
//!
//! [`MetricsSnapshot`]: cacheblend::obs::metrics::MetricsSnapshot

use std::sync::Arc;

use cacheblend::obs::trace::{chrome_trace_json, Tracer};
use cacheblend::prelude::*;
use cacheblend::tokenizer::TokenKind::*;

fn main() {
    // Start the span ring fresh so the export holds exactly this run.
    Tracer::global().clear();

    let cluster = Gateway::new(GatewayConfig::default());
    let cfg = ServiceConfig::default().workers(1).queue_capacity(8);
    let workers: Vec<Worker> = (0..2)
        .map(|_| {
            let engine = EngineBuilder::new(ModelProfile::Tiny).seed(11).build();
            let service = Arc::new(EngineService::new(engine.expect("replica builds"), cfg));
            cluster
                .attach_local(service, WorkerConfig::default())
                .expect("replica attaches")
                .0
        })
        .collect();
    let v = workers[0].service().engine().model().cfg.vocab.clone();

    let chunks: Vec<Vec<u32>> = (0..6)
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

    // Traced requests: a nonzero trace id makes every phase the request
    // passes through — gateway placement, queue wait, the blend's
    // fetch/recompute, each decode step — record a span on one timeline.
    let query = vec![v.id(Query), v.id(Entity(2)), v.id(Attr(2)), v.id(QMark)];
    for round in 0..8u64 {
        let set = vec![ids[(round % 6) as usize], ids[((round + 3) % 6) as usize]];
        let resp = cluster
            .submit(
                Request::new(set, query.clone())
                    .ratio(0.45)
                    .max_new_tokens(4)
                    .trace(0xB10B_0000 + round, 0),
            )
            .expect("request serves");
        println!(
            "round {round}: {} tokens, ttft {:?}",
            resp.answer.len(),
            resp.ttft.total
        );
    }

    // The scrape: worker stores and the gateway publish their stats into
    // the process-global registry; the snapshot is instance-deduplicated
    // and mergeable across machines.
    let snap = cluster.scrape();
    println!("\n--- prometheus exposition (what `cb_top` polls) ---");
    print!("{}", snap.to_prometheus());

    let completed = snap.counter("cb_requests_completed_total").unwrap_or(0);
    let ttft = snap.hist("cb_ttft_seconds").expect("ttft histogram");
    println!("--- highlights ---");
    println!("completed: {completed}");
    println!(
        "ttft p50 {:.3} ms, p99 {:.3} ms over {} samples",
        ttft.quantile_seconds(0.50) * 1e3,
        ttft.quantile_seconds(0.99) * 1e3,
        ttft.count,
    );

    // The timeline: every recorded span, as chrome://tracing JSON.
    let spans = Tracer::global().drain();
    let path = std::env::temp_dir().join("cb_observability_trace.json");
    std::fs::write(&path, chrome_trace_json(&spans)).expect("trace file writes");
    println!(
        "\nwrote {} spans to {} — load it in chrome://tracing",
        spans.len(),
        path.display()
    );
}
