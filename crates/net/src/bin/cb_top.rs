//! `cb_top` — a live terminal dashboard over a running gateway.
//!
//! Polls [`NetClient::scrape`] (the cluster-aggregated metrics registry)
//! and [`NetClient::cluster_status`] every interval and renders goodput,
//! TTFT percentiles, per-worker health/load, KV tier hit rates, gateway
//! retry/failover counters, and compaction activity. Rates are deltas
//! between consecutive scrapes; totals are lifetime.
//!
//! ```text
//! cb_top --gateway 127.0.0.1:7070              # live, 1s refresh
//! cb_top --gateway 127.0.0.1:7070 --once       # one plain-text frame
//! cb_top --gateway a:7070 --gateway b:7071     # dial the first that answers
//! ```

use cb_net::client::NetClient;
use cb_net::retry::RetryPolicy;
use cb_obs::metrics::MetricsSnapshot;
use std::time::{Duration, Instant};

struct Opts {
    endpoints: Vec<String>,
    interval: Duration,
    once: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: cb_top --gateway HOST:PORT [--gateway HOST:PORT ...] \
         [--interval-ms N] [--once]"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        endpoints: Vec::new(),
        interval: Duration::from_millis(1000),
        once: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gateway" => match args.next() {
                Some(ep) => opts.endpoints.push(ep),
                None => usage(),
            },
            "--interval-ms" => {
                let ms = args.next().and_then(|v| v.parse::<u64>().ok());
                match ms {
                    Some(ms) => opts.interval = Duration::from_millis(ms.max(50)),
                    None => usage(),
                }
            }
            "--once" => opts.once = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if opts.endpoints.is_empty() {
        usage();
    }
    opts
}

/// The previous frame's counter values, for rate computation.
struct Prev {
    at: Instant,
    completed: u64,
    tokens: u64,
    hits: u64,
    misses: u64,
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

fn rate(now: u64, then: u64, dt: f64) -> f64 {
    if dt <= 0.0 {
        0.0
    } else {
        now.saturating_sub(then) as f64 / dt
    }
}

fn render(
    snap: &MetricsSnapshot,
    health: &[(bool, usize, usize, usize)],
    prev: Option<&Prev>,
    now: Instant,
) -> String {
    let mut out = String::new();
    let completed = counter(snap, "cb_requests_completed_total");
    let tokens = counter(snap, "cb_tokens_total");
    let hits = counter(snap, "cb_store_hits_total");
    let misses = counter(snap, "cb_store_misses_total");

    let (req_s, tok_s, hit_window) = match prev {
        Some(p) => {
            let dt = now.duration_since(p.at).as_secs_f64();
            let dh = hits.saturating_sub(p.hits);
            let dm = misses.saturating_sub(p.misses);
            let window = if dh + dm > 0 {
                dh as f64 / (dh + dm) as f64
            } else {
                f64::NAN
            };
            (
                rate(completed, p.completed, dt),
                rate(tokens, p.tokens, dt),
                window,
            )
        }
        None => (f64::NAN, f64::NAN, f64::NAN),
    };

    out.push_str("cb_top — CacheBlend cluster\n\n");

    // -- throughput --------------------------------------------------------
    out.push_str(&format!(
        "  requests  completed {completed:>8}   failed {:>6}   rejected {:>6}   canceled {:>6}\n",
        counter(snap, "cb_requests_failed_total"),
        counter(snap, "cb_requests_rejected_total"),
        counter(snap, "cb_requests_canceled_total"),
    ));
    if req_s.is_nan() {
        out.push_str("  goodput   (first frame — rates need two scrapes)\n");
    } else {
        out.push_str(&format!(
            "  goodput   {req_s:>10.1} req/s   {tok_s:>10.1} tok/s\n"
        ));
    }
    out.push_str(&format!(
        "  deadline misses {:>6}   tokens total {:>10}\n",
        counter(snap, "cb_deadline_misses_total"),
        tokens,
    ));

    // -- latency -----------------------------------------------------------
    out.push('\n');
    for (label, name) in [
        ("ttft      ", "cb_ttft_seconds"),
        ("queue wait", "cb_queue_wait_seconds"),
        ("decode/tok", "cb_decode_token_seconds"),
    ] {
        match snap.hist(name) {
            Some(h) if h.count > 0 => out.push_str(&format!(
                "  {label}  p50 {:>9.3}ms  p90 {:>9.3}ms  p99 {:>9.3}ms  p999 {:>9.3}ms  (n={})\n",
                h.quantile_seconds(0.50) * 1e3,
                h.quantile_seconds(0.90) * 1e3,
                h.quantile_seconds(0.99) * 1e3,
                h.quantile_seconds(0.999) * 1e3,
                h.count,
            )),
            _ => out.push_str(&format!("  {label}  (no samples)\n")),
        }
    }

    // -- workers -----------------------------------------------------------
    out.push('\n');
    out.push_str("  worker   health   queue   inflight   capacity\n");
    for (i, &(healthy, queue, inflight, capacity)) in health.iter().enumerate() {
        out.push_str(&format!(
            "  {i:>6}   {}   {queue:>5}   {inflight:>8}   {capacity:>8}\n",
            if healthy { "  up  " } else { " DOWN " },
        ));
    }

    // -- kv tiers ----------------------------------------------------------
    let lookups = hits + misses;
    let lifetime_hit = if lookups > 0 {
        hits as f64 / lookups as f64
    } else {
        f64::NAN
    };
    out.push('\n');
    out.push_str(&format!(
        "  kv        hits {hits:>9}   misses {misses:>8}   hit rate {:>6}   window {:>6}\n",
        pct(lifetime_hit),
        pct(hit_window),
    ));
    out.push_str(&format!(
        "  tiers     spills {:>7}   promotions {:>5}   quantized {:>6}   evictions {:>6}\n",
        counter(snap, "cb_store_spills_total"),
        counter(snap, "cb_store_promotions_total"),
        counter(snap, "cb_store_quantizations_total"),
        counter(snap, "cb_store_evictions_total"),
    ));
    let compactions = counter(snap, "cb_store_compactions_total");
    let reclaimed = counter(snap, "cb_store_compaction_reclaimed_bytes_total");
    match snap.hist("cb_compaction_seconds") {
        Some(h) if h.count > 0 => out.push_str(&format!(
            "  compact   passes {compactions:>7}   reclaimed {:>9}   pass p50 {:.3}ms\n",
            human_bytes(reclaimed),
            h.quantile_seconds(0.50) * 1e3,
        )),
        _ => out.push_str(&format!(
            "  compact   passes {compactions:>7}   reclaimed {:>9}\n",
            human_bytes(reclaimed),
        )),
    }

    // -- gateway -----------------------------------------------------------
    out.push('\n');
    out.push_str(&format!(
        "  gateway   retries {:>6}   failovers {:>5}   adoptions {:>5}\n",
        counter(snap, "cb_gateway_retries_total"),
        counter(snap, "cb_gateway_failovers_total"),
        counter(snap, "cb_gateway_adoptions_total"),
    ));
    out.push_str(&format!(
        "            spills {:>7}   reroutes {:>6}   rejections {:>4}   locality {:>5}\n",
        counter(snap, "cb_gateway_spills_total"),
        counter(snap, "cb_gateway_reroutes_total"),
        counter(snap, "cb_gateway_rejections_total"),
        pct({
            let lookups = counter(snap, "cb_gateway_chunk_lookups_total");
            if lookups > 0 {
                counter(snap, "cb_gateway_chunk_local_total") as f64 / lookups as f64
            } else {
                f64::NAN
            }
        }),
    ));
    out
}

fn pct(f: f64) -> String {
    if f.is_nan() {
        "  --  ".into()
    } else {
        format!("{:5.1}%", f * 100.0)
    }
}

fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

fn main() {
    let opts = parse_opts();
    let client = match NetClient::connect_endpoints(&opts.endpoints, RetryPolicy::default()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cb_top: cannot reach a gateway: {e}");
            std::process::exit(1);
        }
    };
    let mut prev: Option<Prev> = None;
    loop {
        let snap = match client.scrape() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cb_top: scrape failed: {e}");
                std::process::exit(1);
            }
        };
        let health: Vec<(bool, usize, usize, usize)> = match client.cluster_status() {
            Ok((healthy, probes)) => healthy
                .into_iter()
                .zip(probes)
                .map(|(h, p)| (h, p.queue_depth, p.inflight, p.queue_capacity))
                .collect(),
            Err(_) => Vec::new(),
        };
        let now = Instant::now();
        let frame = render(&snap, &health, prev.as_ref(), now);
        if opts.once {
            print!("{frame}");
            return;
        }
        // ANSI: home + clear-to-end, so the frame repaints in place.
        print!("\x1b[H\x1b[2J{frame}");
        use std::io::Write;
        let _ = std::io::stdout().flush();
        prev = Some(Prev {
            at: now,
            completed: counter(&snap, "cb_requests_completed_total"),
            tokens: counter(&snap, "cb_tokens_total"),
            hits: counter(&snap, "cb_store_hits_total"),
            misses: counter(&snap, "cb_store_misses_total"),
        });
        std::thread::sleep(opts.interval);
    }
}
