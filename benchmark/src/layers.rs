//! The traced run: where a request's time goes, layer by layer.
//!
//! Four sources, in the order they run:
//!
//! 1. **Measured blocks**, alternating untraced and traced. Traced blocks
//!    tag every request with `Request::trace`, so the spans `cb-obs`
//!    records inside the program hang under the client span the harness
//!    records around the call. The client-side event timestamps, the
//!    `TtftBreakdown` / `chunk_sources` / `recompute_ratio` each response
//!    carries, and the deltas of `ServiceStats`, `StoreStats` and
//!    `NetClient::scrape()` over these blocks give the scheduler, fusor
//!    and kv numbers. Traced vs untraced TTFT is the tracing overhead.
//! 2. **The peel**: the same requests replayed one at a time through
//!    `NetClient::submit`, `EngineService::submit` and `Engine::submit`,
//!    interleaved per request. The paired differences are the cost of
//!    each wrapper: the two network hops, the scheduler.
//! 3. **Direct calls** into the lower layers' public APIs on the
//!    workload's own data (`direct.rs`).
//! 4. **Computed** values (bytes per GEMM, emulated device time), named
//!    as such in the README.
//!
//! Every call the harness makes into a layer is wrapped in a span; all
//! spans (harness and program) are written to
//! `benchmark/out/trace_<workload>.json` in chrome-tracing format.
//!
//! End-to-end numbers never come from this run.

use crate::loadgen::{run_block, BlockOutcome, RequestOutcome, Served};
use crate::oplist::{fresh_chunk, rng, Workload};
use crate::report::{catalogue, Host, Metrics, Report};
use crate::run::{deploy, rss_peak_mb, served, ttfts, Calibrator, Checker, Deployment, RunArgs};
use crate::stack::nproc;
use crate::stats::{cv, mean, median, percentile_or_zero};
use cb_core::engine::ChunkSource;
use cb_core::scheduler::ServiceStats;
use cb_core::stream::Event;
use cb_kv::StoreStats;
use cb_net::{decode_frame, encode_frame, Message, WireEvent, WireRequest};
use cb_obs::metrics::{HistSnapshot, MetricsSnapshot};
use cb_obs::trace::{alloc_span_id, chrome_trace_json, record_span, record_span_with_id, Tracer};
use cb_storage::DeviceKind;
use cb_tokenizer::TokenId;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Measured blocks of a traced run: untraced, traced, untraced, traced,
/// so host drift hits both kinds alike. A fixed count, like the untraced
/// run's, so every count read off them repeats exactly.
const TRACED_RUN_BLOCKS: usize = 4;
/// Share of `--seconds` the peel and the direct calls may each use. These
/// are sampling loops over calls, not op lists: a phase that runs out of
/// time reports what it has (every loop takes a minimum number of samples).
const PEEL_SHARE: f64 = 0.30;
const DIRECT_SHARE: f64 = 0.25;

/// Runs `f` and records a harness span around it. Returns the result and
/// the elapsed milliseconds.
pub fn span<T>(name: &str, trace: u64, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let start = cb_obs::now_nanos();
    let out = f();
    let end = cb_obs::now_nanos();
    record_span(trace, parent, name, start, end);
    (out, (end - start) as f64 / 1e6)
}

/// Repeats `f` until `budget` is spent (at least `min`, at most `max`
/// times) and returns each call's milliseconds. Every call is a span
/// under `trace`.
pub fn sample_ms(
    name: &str,
    trace: u64,
    budget: Duration,
    min: usize,
    max: usize,
    mut f: impl FnMut(),
) -> Vec<f64> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < max && (out.len() < min || t0.elapsed() < budget) {
        out.push(span(name, trace, 0, &mut f).1);
    }
    out
}

fn p50_or_zero(v: &[f64]) -> f64 {
    percentile_or_zero(v, 0.5)
}

fn put_p50(m: &mut Metrics, name: &str, samples: &[f64]) {
    m.put(name, p50_or_zero(samples), samples.len());
}

fn hist_delta(
    after: &MetricsSnapshot,
    before: &MetricsSnapshot,
    name: &str,
) -> Option<HistSnapshot> {
    let a = after.hist(name)?;
    let Some(b) = before.hist(name) else {
        return Some(a.clone());
    };
    let was = |i: u32| {
        b.buckets
            .iter()
            .find(|&&(j, _)| j == i)
            .map_or(0, |&(_, n)| n)
    };
    let buckets = a
        .buckets
        .iter()
        .map(|&(i, n)| (i, n - was(i)))
        .filter(|&(_, n)| n > 0)
        .collect();
    Some(HistSnapshot {
        sub_bits: a.sub_bits,
        count: a.count - b.count,
        sum: a.sum - b.sum,
        buckets,
    })
}

fn counter_delta(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// Minor page faults of this process so far (`minflt`, the tenth field of
/// `/proc/self/stat`; the second, the command name, may hold spaces, so
/// fields are counted from the parenthesis that closes it).
fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let after_comm = &s[s.rfind(')')? + 1..];
            after_comm.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The response of a request `served()` let through.
fn sv(r: &RequestOutcome) -> &Served {
    r.result.as_ref().expect("served() filters failures")
}

/// The one trace every measured-phase registration span is filed under.
const REGISTER_TRACE: u64 = 0x7C00_0000_0000_0001;

/// The harness's ids for its own traces: a high bit pattern no gateway-
/// derived trace id is likely to share, low bits a counter.
struct TraceIds(u64);

impl TraceIds {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        0x7B00_0000_0000_0000 | self.0
    }
}

/// The measured blocks of a traced run and the program's own counters on
/// either side of them.
struct Measured {
    plain: Vec<BlockOutcome>,
    traced: Vec<BlockOutcome>,
    scrape: (MetricsSnapshot, MetricsSnapshot),
    store: (StoreStats, StoreStats),
    service: (ServiceStats, ServiceStats),
    /// This process's minor page faults so far, either side.
    minor_faults: (u64, u64),
}

impl Measured {
    fn blocks(&self) -> impl Iterator<Item = &BlockOutcome> {
        self.plain.iter().chain(&self.traced)
    }
}

fn measure_blocks(
    d: &Deployment,
    first: usize,
    smoke: bool,
    ids: &mut TraceIds,
    checker: &mut Checker,
    calib: &mut Calibrator,
) -> Measured {
    let counters = || {
        (
            d.stack.client.scrape().expect("metrics scrape"),
            d.stack.engine().store().stats(),
            d.stack.service.stats(),
            minor_faults(),
        )
    };
    let before = counters();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for b in 0..if smoke { 1 } else { TRACED_RUN_BLOCKS } {
        calib.sample();
        let tracing = smoke || b % 2 == 1;
        let block = if tracing {
            run_block(&d.stack, &d.list.block(first + b), &mut |case| {
                d.request(case).trace(ids.next(), alloc_span_id())
            })
        } else {
            d.run_block(first + b)
        };
        let kind = if tracing { "traced" } else { "untraced" };
        checker.check(&d.list, &format!("block {} ({kind})", b + 1), &block);
        if tracing {
            record_client_spans(&block);
            traced.push(block);
        } else {
            plain.push(block);
        }
    }
    let after = counters();
    Measured {
        plain,
        traced,
        scrape: (before.0, after.0),
        store: (before.1, after.1),
        service: (before.2, after.2),
        minor_faults: (before.3, after.3),
    }
}

/// Client-side spans of a traced block: the root the program's spans hang
/// under, and its split at the first token.
fn record_client_spans(block: &BlockOutcome) {
    for r in &block.requests {
        record_span_with_id(
            r.trace,
            r.root_span,
            0,
            "client.request",
            r.submit_ns,
            r.end_ns,
        );
        if let Some(first) = r.first_token_ns {
            record_span(r.trace, r.root_span, "client.ttft", r.submit_ns, first);
            record_span(r.trace, r.root_span, "client.token_stream", first, r.end_ns);
        }
    }
    for r in &block.registers {
        record_span(
            REGISTER_TRACE,
            0,
            "client.register_chunk",
            r.start_ns,
            r.end_ns,
        );
    }
}

/// Medians the later phases need again: the parts of TTFT the layers
/// account for, and the client's own view of it.
struct TtftParts {
    client_ms: f64,
    queue_wait_ms: f64,
    precompute_ms: f64,
    load_wait_ms: f64,
    recompute_ms: f64,
}

/// Everything read off the measured blocks: scheduler, fusor, kv, storage
/// counters, model decode time, obs overhead, loadgen.
fn block_metrics(d: &Deployment, x: &Measured, m: &mut Metrics) -> TtftParts {
    let all: Vec<&RequestOutcome> = x.blocks().flat_map(served).collect();
    let n_req = all.len().max(1);
    let n_blocks = x.blocks().count();
    let ms_between = |a: Option<u64>, b: Option<u64>| Some((b? - a?) as f64 / 1e6);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let column = |f: &dyn Fn(&RequestOutcome) -> Option<f64>| -> Vec<f64> {
        all.iter().filter_map(|r| f(r)).collect()
    };

    // scheduler
    let queue_wait = column(&|r| ms_between(r.queued_ns, r.admitted_ns));
    put_p50(m, "scheduler.queue_wait_ms_p50", &queue_wait);
    put_p50(
        m,
        "scheduler.admit_to_first_ms_p50",
        &column(&|r| ms_between(r.admitted_ns, r.first_token_ns)),
    );
    let (scrape_before, scrape_after) = (&x.scrape.0, &x.scrape.1);
    let steps = hist_delta(scrape_after, scrape_before, "cb_decode_step_seconds");
    let step_count = steps.as_ref().map_or(0, |h| h.count) as usize;
    // Sequence-steps: a served sequence takes one decode step per answer
    // token plus the step that finds its stop token and retires it.
    let seq_steps = counter_delta(scrape_after, scrape_before, "cb_tokens_total")
        + counter_delta(scrape_after, scrape_before, "cb_requests_completed_total");
    m.put(
        "scheduler.batch_occupancy_mean",
        seq_steps as f64 / step_count.max(1) as f64,
        step_count,
    );
    m.put(
        "scheduler.decode_step_ms_p50",
        steps.map_or(0.0, |h| h.quantile_seconds(0.5) * 1e3),
        step_count,
    );
    m.put(
        "scheduler.peak_queue_depth",
        x.service.1.peak_queue_depth as f64,
        1,
    );
    m.put(
        "scheduler.deadline_misses",
        (x.service.1.deadline_misses - x.service.0.deadline_misses) as f64,
        n_req,
    );

    // fusor, from every response's TtftBreakdown
    let load_wait = column(&|r| Some(ms(sv(r).ttft.load_wait)));
    let recompute = column(&|r| Some(ms(sv(r).ttft.recompute)));
    let precompute = column(&|r| Some(ms(sv(r).ttft.precompute)));
    put_p50(m, "fusor.load_wait_ms_p50", &load_wait);
    put_p50(m, "fusor.recompute_ms_p50", &recompute);
    put_p50(m, "fusor.precompute_ms_p50", &precompute);
    m.put(
        "fusor.recompute_ratio_mean",
        mean(&column(&|r| Some(f64::from(sv(r).recompute_ratio)))),
        n_req,
    );
    m.put(
        "fusor.recomputed_tok_per_req",
        mean(&column(&|r| Some(sv(r).recomputed_tokens))),
        n_req,
    );

    // kv: where every fetched chunk came from (exact counts)
    let mut from = [0usize; 4]; // tier 0, 1, 2, precomputed
    for source in all.iter().flat_map(|r| &sv(r).chunk_sources) {
        match *source {
            ChunkSource::Hit { tier } => from[tier.min(2)] += 1,
            ChunkSource::Precomputed => from[3] += 1,
        }
    }
    let fetched = from.iter().sum::<usize>().max(1);
    for (name, count) in [
        ("kv.hit_tier0_frac", from[0]),
        ("kv.hit_tier1_frac", from[1]),
        ("kv.hit_tier2_frac", from[2]),
        ("kv.precomputed_frac", from[3]),
    ] {
        m.put(name, count as f64 / fetched as f64, fetched);
    }
    let (s0, s1) = (&x.store.0, &x.store.1);
    let mb = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    for (name, value) in [
        ("kv.spills", (s1.spills - s0.spills) as f64),
        ("kv.promotions", (s1.promotions - s0.promotions) as f64),
        ("kv.evictions", (s1.evictions - s0.evictions) as f64),
        (
            "kv.quantizations",
            (s1.quantizations - s0.quantizations) as f64,
        ),
        (
            "kv.dequantizations",
            (s1.dequantizations - s0.dequantizations) as f64,
        ),
        ("kv.loaded_mb", mb(s1.loaded_bytes - s0.loaded_bytes)),
        ("kv.spilled_mb", mb(s1.spilled_bytes - s0.spilled_bytes)),
        (
            "storage.compactions",
            (s1.compactions - s0.compactions) as f64,
        ),
        (
            "storage.reclaimed_mb",
            mb(s1.compaction_reclaimed_bytes - s0.compaction_reclaimed_bytes),
        ),
    ] {
        m.put(name, value, n_blocks);
    }
    // Computed, not measured: the throttle sleeps the slow-SSD tier's
    // catalogue read time for every tier-1 hit.
    let model = d.stack.engine().model();
    let entry_bytes: Vec<f64> = d
        .list
        .universe
        .iter()
        .map(|c| {
            cb_kv::serialize::entry_len(model.n_layers(), c.len(), model.cfg.kv_width()) as f64
        })
        .collect();
    let device_ms = DeviceKind::SlowSsd.read_time(mean(&entry_bytes)) * 1e3;
    m.put(
        "storage.device_ms_per_req",
        from[1] as f64 / n_req as f64 * device_ms,
        n_req,
    );

    // model: decode time per token as the responses report it
    let per_token = column(&|r| {
        (!sv(r).answer.is_empty()).then(|| ms(sv(r).ttft.decode) / sv(r).answer.len() as f64)
    });
    put_p50(m, "model.decode_ms_per_tok_p50", &per_token);

    // obs: the program records its spans in both kinds of block; traced
    // ones add client-supplied ids and the harness's own spans.
    let block_p50 = |blocks: &[BlockOutcome]| {
        p50_or_zero(
            &blocks
                .iter()
                .map(|b| p50_or_zero(&ttfts(b)))
                .collect::<Vec<_>>(),
        )
    };
    let (plain, traced) = (block_p50(&x.plain), block_p50(&x.traced));
    m.put(
        "obs.trace_overhead_frac",
        if plain > 0.0 {
            traced / plain - 1.0
        } else {
            0.0
        },
        n_blocks,
    );

    // loadgen / host
    put_p50(
        m,
        "loadgen.wave_submit_skew_us_p50",
        &x.blocks()
            .flat_map(|b| b.submit_skew_us.clone())
            .collect::<Vec<_>>(),
    );
    m.put(
        "loadgen.block_cv",
        cv(&x
            .blocks()
            .map(|b| served(b).count() as f64 / b.wall_s)
            .collect::<Vec<_>>()),
        n_blocks,
    );
    m.put(
        "loadgen.threads",
        if d.list.workload == Workload::IngestMix {
            2.0
        } else {
            1.0
        },
        1,
    );
    m.put("host.nproc", nproc() as f64, 1);
    m.put("host.rss_peak_mb", rss_peak_mb(), 1);
    // Under glibc's default mmap threshold every 1.5 MB KV entry the
    // program allocates is a fresh mapping, faulted in page by page; what
    // a fault costs on a guest moves with the hypervisor's memory state.
    m.put(
        "host.minor_faults_per_req",
        (x.minor_faults.1 - x.minor_faults.0) as f64 / n_req as f64,
        n_req,
    );

    TtftParts {
        client_ms: p50_or_zero(&x.blocks().flat_map(ttfts).collect::<Vec<_>>()),
        queue_wait_ms: p50_or_zero(&queue_wait),
        precompute_ms: p50_or_zero(&precompute),
        load_wait_ms: p50_or_zero(&load_wait),
        recompute_ms: p50_or_zero(&recompute),
    }
}

/// Replays requests through the three front doors, one at a time, and
/// registrations through two; reports the wrappers' costs and the wire
/// format's. Returns the network hop's median (for the residual).
fn peel(d: &Deployment, ids: &mut TraceIds, budget: Duration, smoke: bool, m: &mut Metrics) -> f64 {
    let t0 = Instant::now();
    let engine = d.stack.engine();
    let request_budget = budget.mul_f64(0.7);
    let min_cases = if smoke { 2 } else { 6 };
    let (mut hop, mut over_engine, mut engine_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
    let (mut frames, mut bytes, mut framed_requests) = (0usize, 0usize, 0usize);
    for case in 0..d.list.cases.len() {
        if case >= min_cases && t0.elapsed() > request_budget {
            break;
        }
        let (trace, root) = (ids.next(), alloc_span_id());
        let request = d.request(case).trace(trace, root);
        // Untimed touch: brings the request's chunks into the RAM tier so
        // the three timed calls below all see the same store state.
        engine.submit(request.clone()).expect("peel touch");
        let start = cb_obs::now_nanos();
        let mut times = [0.0f64; 3];
        // Rotate which door goes first, so residual warmth favours none.
        for k in 0..3 {
            let door = (case + k) % 3;
            times[door] = match door {
                0 => {
                    span("peel.NetClient.submit", trace, root, || {
                        d.stack.client.submit(&request).expect("client submit")
                    })
                    .1
                }
                1 => {
                    span("peel.EngineService.submit", trace, root, || {
                        d.stack
                            .service
                            .submit(request.clone())
                            .expect("service submit")
                    })
                    .1
                }
                _ => {
                    span("peel.Engine.submit", trace, root, || {
                        engine.submit(request.clone()).expect("engine submit")
                    })
                    .1
                }
            };
        }
        record_span_with_id(trace, root, 0, "peel.request", start, cb_obs::now_nanos());
        hop.push(times[0] - times[1]);
        over_engine.push(times[1] - times[2]);
        engine_ms.push(times[2]);

        // The frames this request puts on the wire, re-encoded here: one
        // Submit and one Ev per stream event, on each of the two hops.
        if case < 8 {
            // (`ResponseStream` also has an inherent `collect`; this is
            // the iterator's.)
            let events: Vec<Event> = Iterator::collect(d.stack.client.submit_stream(&request));
            let id = case as u64 + 1;
            let submit = Message::Submit {
                id,
                trace,
                span: root,
                blocking: false,
                request: WireRequest::from_request(&request),
            };
            let relayed = events.iter().map(|e| Message::Ev {
                id,
                trace,
                event: WireEvent::from_event(e),
            });
            for msg in std::iter::once(submit).chain(relayed) {
                let t = Instant::now();
                let frame = encode_frame(&msg.encode());
                encode_us.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                let (payload, _) = decode_frame(&frame).expect("own frame decodes");
                black_box(Message::decode(payload).expect("own message decodes"));
                decode_us.push(t.elapsed().as_secs_f64() * 1e6);
                frames += 2;
                bytes += 2 * frame.len();
            }
            framed_requests += 1;
        }
    }
    put_p50(m, "net.hop_ms_p50", &hop);
    put_p50(m, "engine.submit_ms_p50", &engine_ms);
    put_p50(m, "engine.service_overhead_ms_p50", &over_engine);
    put_p50(m, "net.codec_encode_us_p50", &encode_us);
    put_p50(m, "net.codec_decode_us_p50", &decode_us);
    m.put(
        "net.frames_per_req",
        frames as f64 / framed_requests.max(1) as f64,
        framed_requests,
    );
    m.put(
        "net.bytes_per_req",
        bytes as f64 / framed_requests.max(1) as f64,
        framed_requests,
    );

    // Registration: the RPC against the same work done in-process (what
    // the worker does for an eager registration: register, then replicate
    // to the persistent tier). Fresh chunks each time, all the same size.
    let mut draw = rng(d.list.seed, 0x9EE1);
    let min_registrations = if smoke { 2 } else { 5 };
    let trace = ids.next();
    let (mut via_client, mut in_process, mut engine_only) = (Vec::new(), Vec::new(), Vec::new());
    while via_client.len() < min_registrations || (t0.elapsed() < budget && via_client.len() < 24) {
        let (a, b, c) = (
            fresh_chunk(&mut draw),
            fresh_chunk(&mut draw),
            fresh_chunk(&mut draw),
        );
        via_client.push(
            span("peel.NetClient.register_chunk", trace, 0, || {
                d.stack
                    .client
                    .register_chunk(&a, true)
                    .expect("client register")
            })
            .1,
        );
        in_process.push(
            span("peel.Engine.register_chunk+replicate", trace, 0, || {
                let id = engine.register_chunk(&b).expect("in-process register");
                engine
                    .store()
                    .replicate_to_persistent(id)
                    .expect("in-process replicate");
            })
            .1,
        );
        engine_only.push(
            span("peel.Engine.register_chunk", trace, 0, || {
                engine.register_chunk(&c).expect("engine register")
            })
            .1,
        );
    }
    m.put(
        "net.register_rpc_ms_p50",
        p50_or_zero(&via_client) - p50_or_zero(&in_process),
        via_client.len(),
    );
    put_p50(m, "engine.register_ms_p50", &engine_only);
    p50_or_zero(&hop)
}

/// The answer each case was served with (identical across blocks, or the
/// run is already marked incorrect).
fn served_answers(x: &Measured) -> Vec<(usize, Vec<TokenId>)> {
    let mut seen = BTreeMap::new();
    for r in x.blocks().flat_map(served) {
        seen.entry(r.case).or_insert_with(|| sv(r).answer.clone());
    }
    seen.into_iter().collect()
}

pub fn run_traced(args: &RunArgs) -> Report {
    Tracer::global().set_capacity(1 << 20);
    let dropped_before = Tracer::global().dropped();
    let mut ids = TraceIds(0);
    let (d, _) = span("harness.setup", ids.next(), 0, || deploy(args));
    let mut checker = Checker::default();
    let mut calib = Calibrator::default();
    let mut m = Metrics::default();

    let first = d.warm_up(args.smoke, &mut checker);
    let measured = measure_blocks(&d, first, args.smoke, &mut ids, &mut checker, &mut calib);
    let parts = block_metrics(&d, &measured, &mut m);

    let hop_ms = peel(
        &d,
        &mut ids,
        Duration::from_secs_f64(args.seconds * PEEL_SHARE),
        args.smoke,
        &mut m,
    );
    // The client-observed TTFT against the parts the layers account for.
    // ROADMAP wants the unexplained rest within 5 %; reported, not gated.
    let explained = hop_ms
        + parts.queue_wait_ms
        + parts.precompute_ms
        + parts.load_wait_ms
        + parts.recompute_ms;
    let residual = if parts.client_ms > 0.0 {
        (parts.client_ms - explained) / parts.client_ms
    } else {
        0.0
    };
    m.put(
        "peel.residual_frac",
        residual,
        measured.blocks().map(|b| b.requests.len()).sum(),
    );

    crate::direct::run(
        &d,
        &mut m,
        ids.next(),
        Duration::from_secs_f64(args.seconds * DIRECT_SHARE),
        parts.load_wait_ms,
        &served_answers(&measured),
    );
    calib.sample();
    m.put(
        "host.calib_ms_p50",
        median(&calib.samples_ms),
        calib.samples_ms.len(),
    );

    // The trace file: every span recorded in this process, harness and
    // program alike.
    let spans = Tracer::global().drain();
    let traced_requests: usize = measured.traced.iter().map(|b| b.requests.len()).sum();
    let request_traces: HashSet<u64> = measured
        .traced
        .iter()
        .flat_map(|b| &b.requests)
        .map(|r| r.trace)
        .collect();
    let request_spans = spans
        .iter()
        .filter(|s| request_traces.contains(&s.trace))
        .count();
    m.put(
        "obs.spans_per_req",
        request_spans as f64 / traced_requests.max(1) as f64,
        traced_requests,
    );
    m.put(
        "obs.spans_dropped",
        (Tracer::global().dropped() - dropped_before) as f64,
        spans.len(),
    );
    std::fs::create_dir_all(&args.out_dir).expect("create output directory");
    let trace_path = args
        .out_dir
        .join(format!("trace_{}.json", args.workload.name()));
    std::fs::write(&trace_path, chrome_trace_json(&spans)).expect("write trace file");
    println!("{} spans written to {}", spans.len(), trace_path.display());

    for v in &checker.violations {
        eprintln!("CHECK FAILED: {v}");
    }
    // The report lists the per-layer metrics in catalogue order, all of
    // them and nothing else.
    let per_layer = &catalogue().per_layer;
    let ordered: Vec<_> = per_layer
        .iter()
        .map(|def| {
            m.0.iter()
                .find(|v| v.name == def.name)
                .unwrap_or_else(|| panic!("traced run did not produce {}", def.name))
                .clone()
        })
        .collect();
    assert_eq!(
        ordered.len(),
        m.0.len(),
        "a reported per-layer metric is missing from BENCHMARK.json"
    );
    let report = Report {
        workload: args.workload.name().into(),
        seed: args.seed,
        traced: true,
        comparable: !args.smoke,
        correct: checker.correct(),
        attempted: checker.attempted,
        failed: checker.failed,
        oplist_hash: d.list.hash(first + measured.blocks().count()),
        blocks: measured.blocks().count(),
        metrics: Metrics(ordered),
        host: Host::detect(),
    };
    d.stack.stop();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_delta_subtracts_bucket_counts() {
        let snap = |buckets: Vec<(u32, u64)>| MetricsSnapshot {
            instances: vec![1],
            counters: vec![("c".into(), buckets.iter().map(|b| b.1).sum())],
            gauges: Vec::new(),
            hists: vec![(
                "h".into(),
                HistSnapshot {
                    sub_bits: 5,
                    count: buckets.iter().map(|b| b.1).sum(),
                    sum: 0,
                    buckets,
                },
            )],
        };
        let before = snap(vec![(3, 2), (9, 1)]);
        let after = snap(vec![(3, 2), (9, 4), (12, 5)]);
        let d = hist_delta(&after, &before, "h").unwrap();
        assert_eq!(d.count, 8);
        assert_eq!(d.buckets, vec![(9, 3), (12, 5)]);
        assert_eq!(counter_delta(&after, &before, "c"), 8);
        assert!(hist_delta(&after, &before, "missing").is_none());
    }
}
