//! Figure 14: TTFT vs request rate on the extended datasets.
//!
//! Paper shape: every scheme's TTFT blows up past its saturation rate;
//! CacheBlend's knee sits 2.8–5× further right than full recompute and
//! prefix caching.
//!
//! Two arms share one queueing loop through the [`ServingBackend`] trait:
//!
//! - **analytic** — the paper-scale delay model per scheme (the original
//!   arm; TTFTs in A40 seconds).
//! - **engine** — closed loop: every simulated request is served through a
//!   real [`EngineService`] (scheduler → tiered store → pipelined blend on
//!   the compiled tiny model) and the *measured* wall-clock TTFTs drive
//!   the same queueing model, so the saturation knee emerges from real
//!   engine latencies. The rate grid is normalized to a measured probe of
//!   the warm blend service time, mirroring how the analytic grid is
//!   normalized to the modeled full-prefill time.
//! - **net-cluster** — scale-out: N engine replicas behind the `cb-net`
//!   [`Gateway`] locality router, each a loopback worker with its own RAM
//!   tier over one *shared* persistent tier, so every submission crosses
//!   the full frame/wire codec. Admission costs are measured by really
//!   serving every request at its routed replica; the multi-server
//!   queueing (per-replica busy clocks, spill on virtual backlog) is
//!   composed in virtual time — the same methodology as the engine arm,
//!   extended to N servers, so the replicas-vs-goodput curve reflects the
//!   design rather than the host's core count. A measured *routing-hop
//!   latency tax* rides along: the per-request overhead of gateway
//!   routing + frame codec + event relay over a direct in-process submit
//!   on the same warm engine. Emits
//!   `target/experiments/BENCH_cluster.json`. With
//!   [`Fig14Opts::chaos`], a fault drill rides along: the same workload
//!   is served twice — undisturbed, and with a **deterministic kill
//!   schedule** (one worker's connection severed mid-run, then
//!   re-attached under the same identity) — and the goodput and p99 TTFT
//!   of both runs land in `target/experiments/BENCH_chaos.json`, so the
//!   retry machinery's latency tax is a measured number, not a claim.
//!
//! [`ServingBackend`]: cb_serving::backend::ServingBackend
//! [`EngineService`]: cb_core::scheduler::EngineService
//! [`Gateway`]: cb_net::Gateway

use std::collections::HashMap;
use std::sync::Arc;

use cb_baselines::SchemeKind;
use cb_core::engine::{ChunkSource, EngineBuilder, Request as EngineRequest, StorageConfig};
use cb_core::scheduler::{EngineService, ServiceConfig};
use cb_kv::ChunkId;
use cb_model::ModelProfile;
use cb_net::{Gateway, GatewayConfig, Worker, WorkerConfig};
use cb_serving::backend::EngineBackend;
use cb_serving::sim::{ServingConfig, Simulator};
use cb_serving::stats::LatencySummary;
use cb_serving::workload::{Workload, WorkloadConfig};
use cb_storage::device::DeviceKind;
use cb_storage::perf::{PaperModel, PerfModel};
use cb_tokenizer::{TokenId, TokenKind};

use crate::out::{emit, Row};

/// Which backend arm(s) to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendArm {
    /// Paper-scale delay model only (the default; what `run` does).
    Analytic,
    /// Real engine measurements only.
    Engine,
    /// Multi-replica cluster serving through the `cb-net` gateway, plus a
    /// measured routing-hop latency tax (gateway + wire codec overhead
    /// per request vs. a direct in-process submit). Emits
    /// `BENCH_cluster.json`.
    NetCluster,
    /// Analytic + engine arms.
    Both,
}

/// Experiment options.
#[derive(Clone, Debug)]
pub struct Fig14Opts {
    /// Shrink the grids so the experiment finishes in seconds (CI smoke).
    pub smoke: bool,
    /// Backend arm selection.
    pub backend: BackendArm,
    /// Largest replica count for the cluster arm (the grid always
    /// includes 1 and 2 so the scale-out ratio is measured).
    pub replicas: usize,
    /// Run the net-cluster chaos drill (mid-run worker kill vs.
    /// undisturbed baseline; emits `BENCH_chaos.json`). Only meaningful
    /// with [`BackendArm::NetCluster`].
    pub chaos: bool,
    /// Export the spans the run recorded as `chrome://tracing` JSON to
    /// this path (the tracer ring is cleared first, so the file holds
    /// exactly this run; a chaos run shows each mid-stream retry as a
    /// `retry#k` child span under its request).
    pub trace_out: Option<String>,
}

impl Default for Fig14Opts {
    fn default() -> Self {
        Self {
            smoke: false,
            backend: BackendArm::Analytic,
            replicas: 2,
            chaos: false,
            trace_out: None,
        }
    }
}

/// Runs the default (analytic, full-grid) experiment and emits rows.
pub fn run() {
    run_opts(Fig14Opts::default());
}

/// Runs the experiment with explicit options.
pub fn run_opts(opts: Fig14Opts) {
    if opts.trace_out.is_some() {
        // The export below should hold exactly this run's spans.
        cb_obs::trace::Tracer::global().clear();
    }
    let mut rows = Vec::new();
    if matches!(opts.backend, BackendArm::Analytic | BackendArm::Both) {
        analytic_arm(opts.smoke, &mut rows);
    }
    if matches!(opts.backend, BackendArm::Engine | BackendArm::Both) {
        engine_arm(opts.smoke, &mut rows);
    }
    if !rows.is_empty() {
        emit("fig14_serving_rate", &rows);
    }
    if opts.backend == BackendArm::NetCluster {
        cluster_arm(opts.smoke, opts.replicas);
        if opts.chaos {
            chaos_arm(opts.smoke);
        }
    }
    if let Some(path) = &opts.trace_out {
        let spans = cb_obs::trace::Tracer::global().drain();
        let json = cb_obs::trace::chrome_trace_json(&spans);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("fig14: cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "fig14: wrote {} spans to {path} (load in chrome://tracing or ui.perfetto.dev)",
            spans.len()
        );
    }
}

fn analytic_arm(smoke: bool, rows: &mut Vec<Row>) {
    let schemes = [
        SchemeKind::CacheBlend,
        SchemeKind::FullRecompute,
        SchemeKind::PrefixCaching,
    ];
    let models = if smoke {
        vec![PaperModel::Mistral7B]
    } else {
        PaperModel::evaluation_models().to_vec()
    };
    let mults: &[f64] = if smoke {
        &[0.5, 2.0]
    } else {
        &[0.2, 0.5, 0.8, 1.2, 2.0, 3.5, 5.0]
    };
    for pm in models {
        let perf = PerfModel::on_a40(pm);
        // Rate grid scaled to each model's service time so the knee is
        // visible for all of them.
        let full_service = perf.ttft_full_prefill(6 * 512 + 32);
        let base = 1.0 / full_service;
        for (ds_name, seed) in [("Musique-ext", 21u64), ("2WikiMQA-ext", 22u64)] {
            for &mult in mults {
                let rate = base * mult;
                let w = Workload::generate(&WorkloadConfig::extended(rate, seed));
                for scheme in schemes {
                    let cfg = ServingConfig::fig14(scheme, perf, DeviceKind::NvmeSsd);
                    let stats = Simulator::new(cfg).run(&w);
                    rows.push(
                        Row::new("fig14")
                            .col("backend", "analytic")
                            .col("model", perf.spec.name)
                            .col("dataset", ds_name)
                            .col("scheme", scheme.name())
                            .num("rate_rps", rate)
                            .num("mean_ttft_s", stats.ttft.mean_s)
                            .num("p95_ttft_s", stats.ttft.p95_s)
                            .num("hit_rate", stats.hit_rate)
                            .num("throughput_rps", stats.throughput_rps)
                            .col("peak_queue_depth", stats.peak_queue_depth)
                            .col("deadline_misses", stats.deadline_misses),
                    );
                }
            }
        }
    }
}

/// The closed-loop workload shape: smaller than the paper grid because
/// every request really runs the blend path on the compiled model.
fn engine_workload(rate: f64, n_requests: usize, seed: u64) -> Workload {
    Workload::generate(&WorkloadConfig {
        rate_per_s: rate,
        n_requests,
        n_groups: 30,
        n_chunks: 150,
        chunks_per_request: 4,
        zipf_s: 0.9,
        shuffle_order: true,
        seed,
    })
}

fn engine_arm(smoke: bool, rows: &mut Vec<Row>) {
    let n_requests = if smoke { 40 } else { 120 };
    let mults: &[f64] = if smoke {
        &[0.5, 3.0]
    } else {
        &[0.3, 0.8, 1.5, 3.0]
    };

    // Normalize the rate grid to the measured warm service time, like the
    // analytic arm normalizes to the modeled full-prefill time.
    let service_s = EngineBackend::single_worker(ModelProfile::Tiny).warm_service_time_s();
    let base = 1.0 / service_s;

    for &mult in mults {
        let rate = base * mult;
        let w = engine_workload(rate, n_requests, 23);
        // Fresh service per rate so every point starts from a cold store,
        // matching the analytic arm.
        let mut backend = EngineBackend::single_worker(ModelProfile::Tiny);
        let stats = Simulator::run_with(&w, &mut backend, Some(3.0 * service_s));
        rows.push(
            Row::new("fig14")
                .col("backend", "engine")
                .col("model", "tiny-compiled")
                .col("dataset", "Musique-ext-small")
                .col("scheme", SchemeKind::CacheBlend.name())
                .num("rate_rps", rate)
                .num("mean_ttft_s", stats.ttft.mean_s)
                .num("p95_ttft_s", stats.ttft.p95_s)
                .num("hit_rate", stats.hit_rate)
                .num("throughput_rps", stats.throughput_rps)
                .col("peak_queue_depth", stats.peak_queue_depth)
                .col("deadline_misses", stats.deadline_misses),
        );
        assert_eq!(
            backend.service().stats().completed,
            n_requests as u64,
            "every simulated request must be really served"
        );
    }
}

/// `n` replicas built by `engine`, each behind a one-thread scheduler
/// and attached to one gateway as a loopback worker.
fn local_cluster(n: usize, engine: impl Fn() -> EngineBuilder) -> (Gateway, Vec<Worker>) {
    let gateway = Gateway::new(GatewayConfig::default());
    let cfg = ServiceConfig::default().workers(1).queue_capacity(64);
    let workers = (0..n)
        .map(|_| {
            let service = EngineService::new(engine().build().expect("replica builds"), cfg);
            let attached = gateway.attach_local(Arc::new(service), WorkerConfig::default());
            attached.expect("loopback worker attaches").0
        })
        .collect();
    (gateway, workers)
}

fn tiny_engine() -> EngineBuilder {
    EngineBuilder::new(ModelProfile::Tiny).seed(11)
}

/// What one cluster run measured.
struct ClusterPoint {
    ttft: LatencySummary,
    goodput_rps: f64,
    throughput_rps: f64,
    /// Router-level locality: chunks served at their home replica.
    locality_hit_rate: f64,
    /// Measured store locality: chunk KV served from the replica's RAM.
    ram_hit_rate: f64,
    spills: u64,
    deadline_misses: u64,
    admissions: Vec<u64>,
}

/// Serves one workload through an R-replica cluster: every request really
/// runs at its routed replica (measured admission cost), and the
/// multi-server queueing is composed in virtual time — per-replica busy
/// clocks, spill to the least-backlogged replica when the routed one's
/// virtual backlog exceeds the queue budget.
fn run_cluster_point(
    replicas: usize,
    workload: &Workload,
    warm_s: f64,
    deadline_s: f64,
    ram_entries: u64,
    dir: &std::path::Path,
) -> ClusterPoint {
    let _ = std::fs::remove_dir_all(dir);
    // Entry size of one workload chunk, to size the RAM tier in entries.
    let probe_model =
        cb_model::Model::compiled(cb_model::ModelConfig::standard(ModelProfile::Tiny, 11));
    let entry_bytes = {
        let tokens = sim_chunk_tokens(&probe_model.cfg.vocab, 0);
        let cache = cb_kv::precompute::precompute_chunk(&probe_model, &tokens);
        cb_kv::serialize::encode(&cache).len() as u64
    };
    let ram_bytes = ram_entries * (entry_bytes + entry_bytes / 4);
    let (cluster, _workers) = local_cluster(replicas, || {
        tiny_engine().storage(
            StorageConfig::default()
                .tier(DeviceKind::CpuRam, ram_bytes)
                .shared_disk_tier(DeviceKind::NvmeSsd, 1 << 30, dir, false),
        )
    });

    let vocab = probe_model.cfg.vocab.clone();
    let query = cluster_query(&vocab);
    let mut chunk_map: HashMap<u64, ChunkId> = HashMap::new();
    let mut map_chunk = |sim_id: u64| -> ChunkId {
        if let Some(&id) = chunk_map.get(&sim_id) {
            return id;
        }
        let tokens = sim_chunk_tokens(&vocab, sim_id);
        let id = cluster
            .register_chunk_lazy(&tokens)
            .expect("chunk tokens are non-empty");
        chunk_map.insert(sim_id, id);
        id
    };

    // Virtual multi-server queueing state.
    let mut free_at = vec![0.0f64; replicas];
    // Spill when the routed replica's virtual backlog exceeds what its
    // admission queue would hold at the warm service rate.
    let spill_backlog_s = 8.0 * warm_s;
    let mut ttfts = Vec::with_capacity(workload.requests.len());
    let mut spills = 0u64;
    let mut met = 0u64;
    let mut deadline_misses = 0u64;
    let mut lookups = 0u64;
    let mut ram_hits = 0u64;
    let mut last_finish = 0.0f64;

    for req in &workload.requests {
        let ids: Vec<ChunkId> = req.chunk_ids.iter().map(|&c| map_chunk(c)).collect();
        let (routed, _) = cluster.route(&ids).expect("all replicas healthy");
        let target = if free_at[routed] - req.arrival_s > spill_backlog_s {
            spills += 1;
            (0..replicas)
                .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                .expect("at least one replica")
        } else {
            routed
        };
        let request = EngineRequest::new(ids, query.clone()).max_new_tokens(4);
        let resp = cluster
            .submit_to(target, request)
            .collect()
            .expect("cluster request serves");
        for s in &resp.chunk_sources {
            lookups += 1;
            if matches!(s, ChunkSource::Hit { tier: 0 }) {
                ram_hits += 1;
            }
        }
        let work_s = resp
            .ttft
            .total
            .saturating_sub(resp.ttft.decode)
            .as_secs_f64();
        let decode_s = resp.ttft.decode.as_secs_f64();
        let start = free_at[target].max(req.arrival_s);
        let ttft = start + work_s - req.arrival_s;
        ttfts.push(ttft);
        if ttft <= deadline_s {
            met += 1;
        } else {
            deadline_misses += 1;
        }
        free_at[target] = start + work_s + decode_s;
        last_finish = last_finish.max(free_at[target]);
    }

    let makespan = last_finish.max(f64::EPSILON);
    let stats = cluster.stats();
    let point = ClusterPoint {
        ttft: LatencySummary::of(ttfts),
        goodput_rps: met as f64 / makespan,
        throughput_rps: workload.requests.len() as f64 / makespan,
        locality_hit_rate: stats.locality_hit_rate(),
        ram_hit_rate: if lookups > 0 {
            ram_hits as f64 / lookups as f64
        } else {
            0.0
        },
        spills,
        deadline_misses,
        admissions: stats.admissions,
    };
    let _ = std::fs::remove_dir_all(dir);
    point
}

/// Deterministic token content for a simulated chunk id (distinct ids →
/// distinct content hashes for any universe below `n_entities²`).
fn sim_chunk_tokens(v: &cb_tokenizer::Vocab, sim_id: u64) -> Vec<TokenId> {
    let (ne, na, nv) = (
        v.n_entities() as u64,
        v.n_attrs() as u64,
        v.n_values() as u64,
    );
    vec![
        v.id(TokenKind::Entity((sim_id % ne) as u32)),
        v.id(TokenKind::Entity(((sim_id / ne) % ne) as u32)),
        v.id(TokenKind::Attr((sim_id % na) as u32)),
        v.id(TokenKind::Value((sim_id % nv) as u32)),
        v.id(TokenKind::Sep),
    ]
}

/// The one query every cluster-arm request asks.
fn cluster_query(v: &cb_tokenizer::Vocab) -> Vec<TokenId> {
    [
        TokenKind::Query,
        TokenKind::Entity(0),
        TokenKind::Attr(0),
        TokenKind::QMark,
    ]
    .map(|k| v.id(k))
    .to_vec()
}

/// The chunk-skewed cluster workload: a hot chunk set (Zipf 1.1) shared
/// across query groups, so locality routing has something to exploit.
fn cluster_workload(rate: f64, n_requests: usize) -> Workload {
    Workload::generate(&WorkloadConfig {
        rate_per_s: rate,
        n_requests,
        n_groups: 24,
        n_chunks: 120,
        chunks_per_request: 4,
        zipf_s: 1.1,
        shuffle_order: true,
        seed: 29,
    })
}

/// Measures the warm service time *through the control plane*: the same
/// 4-warm-chunk probe shape as [`EngineBackend::warm_service_time_s`],
/// but timed wall-clock over `submit_to` so the gateway hop, frame
/// codec, and relay threads are part of the measurement. The net-cluster
/// arm normalizes its rate grid and deadline to this, exactly as the
/// engine arm normalizes to its own in-process probe.
fn net_warm_service_time_s() -> f64 {
    let (cluster, workers) = local_cluster(1, tiny_engine);
    let vocab = workers[0].service().engine().model().cfg.vocab.clone();
    let chunks: Vec<Vec<TokenId>> = (0..4u32)
        .map(|j| {
            vec![
                vocab.id(TokenKind::Filler(j)),
                vocab.id(TokenKind::Filler(j + 1)),
                vocab.id(TokenKind::Value(j)),
                vocab.id(TokenKind::Sep),
            ]
        })
        .collect();
    let ids = cluster
        .register_chunks(&chunks)
        .expect("probe chunks register");
    let query = cluster_query(&vocab);
    let mk = || EngineRequest::new(ids.clone(), query.clone()).max_new_tokens(4);
    cluster.submit_to(0, mk()).collect().expect("probe serves");
    // Median of per-request samples: on a loaded single-core host one
    // scheduling hiccup can double an 8-sample mean, and an inflated
    // warm_s deflates every derived rate until the "saturating" point no
    // longer saturates. The median shrugs the outlier off.
    let n = 9;
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let start = std::time::Instant::now();
            cluster.submit_to(0, mk()).collect().expect("probe serves");
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[n / 2].max(1e-6)
}

/// Measures the routing-hop latency tax: the per-request overhead of the
/// control-plane path (gateway routing + frame codec + loopback hop +
/// event relay) over a direct in-process `EngineService` submit of the
/// identical warm request. Returns `(direct_median_us, net_median_us)`.
fn routing_hop_tax_us(warm_requests: usize) -> (f64, f64) {
    let (cluster, workers) = local_cluster(1, tiny_engine);
    let replica = workers[0].service();
    let vocab = replica.engine().model().cfg.vocab.clone();
    let tokens = sim_chunk_tokens(&vocab, 7);
    let id = cluster.register_chunk(&tokens).expect("chunk registers");
    let query = cluster_query(&vocab);
    let mk = || EngineRequest::new(vec![id], query.clone()).max_new_tokens(1);
    // Warm both paths (store warm, threads paged in) before timing.
    for _ in 0..5 {
        replica.submit(mk()).expect("warmup serves");
        cluster.submit_to(0, mk()).collect().expect("warmup serves");
    }
    // Interleave short blocks of each path and take per-request medians,
    // so scheduler drift on a loaded host cancels instead of biasing one
    // side.
    let mut direct = Vec::with_capacity(warm_requests);
    let mut net = Vec::with_capacity(warm_requests);
    while direct.len() < warm_requests {
        for _ in 0..5.min(warm_requests - direct.len()) {
            let t = std::time::Instant::now();
            replica.submit(mk()).expect("direct path serves");
            direct.push(t.elapsed().as_secs_f64() * 1e6);
        }
        for _ in 0..5.min(warm_requests - net.len()) {
            let t = std::time::Instant::now();
            cluster
                .submit_to(0, mk())
                .collect()
                .expect("net path serves");
            net.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(direct), median(net))
}

fn cluster_arm(smoke: bool, max_replicas: usize) {
    // The smoke workload is long enough that the single replica's
    // saturated makespan dominates its deadline-met count — the goodput
    // ratio then depends on the queueing structure, not on probe noise.
    let n_requests = if smoke { 64 } else { 120 };
    let mults: &[f64] = if smoke { &[1.5] } else { &[0.75, 1.5, 3.0] };
    let mut replica_grid = vec![1usize, 2];
    if max_replicas > 2 {
        replica_grid.push(max_replicas);
    }

    // Normalize rates to the measured warm single-worker service time,
    // exactly like the engine arm. The arm serves through the control
    // plane, so the probe goes through the same path — the wire overhead sits inside the
    // normalization, not as noise against a deadline calibrated for a
    // path the arm never takes.
    let warm_s = net_warm_service_time_s();
    let deadline_s = 4.0 * warm_s;
    // RAM sized to half the chunk universe: one replica thrashes its RAM
    // tier over the shared disk, two replicas hold their home shards.
    let ram_entries = 60u64;

    let mut rows = Vec::new();
    let mut goodput_at = HashMap::new();
    for &mult in mults {
        let rate = mult / warm_s;
        let workload = cluster_workload(rate, n_requests);
        for &replicas in &replica_grid {
            let dir = std::env::temp_dir().join(format!(
                "cb-cluster-bench-{}-{replicas}-{}",
                std::process::id(),
                (mult * 100.0) as u64
            ));
            let p = run_cluster_point(replicas, &workload, warm_s, deadline_s, ram_entries, &dir);
            goodput_at.insert((mult.to_bits(), replicas), p.goodput_rps);
            let admissions = p
                .admissions
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join("/");
            rows.push(
                Row::new("cluster")
                    .col("backend", "net-cluster")
                    .col("replicas", replicas)
                    .num("rate_rps", rate)
                    .num("rate_mult", mult)
                    .num("goodput_rps", p.goodput_rps)
                    .num("throughput_rps", p.throughput_rps)
                    .num("mean_ttft_s", p.ttft.mean_s)
                    .num("p95_ttft_s", p.ttft.p95_s)
                    .num("locality_hit_rate", p.locality_hit_rate)
                    .num("ram_hit_rate", p.ram_hit_rate)
                    .col("spills", p.spills)
                    .col("deadline_misses", p.deadline_misses)
                    .col("admissions", admissions),
            );
        }
    }
    // The price of the wire boundary, measured head-to-head on the same
    // warm single-replica engine.
    let (direct_us, net_us) = routing_hop_tax_us(if smoke { 40 } else { 120 });
    let tax_us = (net_us - direct_us).max(0.0);
    println!(
        "routing-hop latency tax: direct {direct_us:.1}µs → net {net_us:.1}µs \
         (+{tax_us:.1}µs/request)"
    );
    rows.push(
        Row::new("cluster")
            .col("backend", "net-cluster")
            .col("metric", "routing_hop_tax")
            .num("direct_median_us", direct_us)
            .num("net_median_us", net_us)
            .num("hop_tax_us", tax_us),
    );
    emit("BENCH_cluster", &rows);

    // The scale-out acceptance bar: at the saturating rate, two replicas
    // sustain at least 1.8× the goodput of one.
    let key_mult = 1.5f64;
    let g1 = goodput_at[&(key_mult.to_bits(), 1)];
    let g2 = goodput_at[&(key_mult.to_bits(), 2)];
    println!(
        "\ncluster scale-out: goodput 1→2 replicas = {g1:.3} → {g2:.3} rps ({:.2}×)",
        g2 / g1
    );
    assert!(
        g2 >= 1.8 * g1,
        "2 replicas must sustain ≥1.8× the goodput of 1 at the saturating rate: {g1} vs {g2}"
    );
}

/// What one chaos run measured (wall-clock, not virtual time: the retry
/// backoff and re-attach latency are exactly what this arm is after).
struct ChaosPoint {
    completed: u64,
    failed: u64,
    p50_ttft_s: f64,
    p99_ttft_s: f64,
    goodput_rps: f64,
    retries: u64,
    adoptions: u64,
}

/// Serves `n_requests` through a 2-replica net cluster in concurrent
/// waves of 8, optionally severing replica 0's connection (and
/// re-attaching it under the same identity, as `cb_worker
/// --retry-attach` would) right after wave `kill_after_wave` is
/// submitted — the deterministic kill schedule. TTFTs are wall-clock to
/// each stream's first token, timestamped on arrival by a per-stream
/// collector thread.
fn run_chaos_point(n_requests: usize, kill_after_wave: Option<usize>) -> ChaosPoint {
    const WAVE: usize = 8;
    let (cluster, mut workers) = local_cluster(2, tiny_engine);
    let vocab = workers[0].service().engine().model().cfg.vocab.clone();
    let query = cluster_query(&vocab);
    let workload = cluster_workload(1.0, n_requests);
    // Register every chunk up front so the run itself measures serving,
    // not registration.
    let mut chunk_map: HashMap<u64, ChunkId> = HashMap::new();
    for req in &workload.requests {
        for &sim_id in &req.chunk_ids {
            if let std::collections::hash_map::Entry::Vacant(e) = chunk_map.entry(sim_id) {
                let tokens = sim_chunk_tokens(&vocab, sim_id);
                e.insert(
                    cluster
                        .register_chunk_lazy(&tokens)
                        .expect("chunk tokens are non-empty"),
                );
            }
        }
    }

    let start = std::time::Instant::now();
    let mut ttfts = Vec::with_capacity(n_requests);
    let (mut completed, mut failed) = (0u64, 0u64);
    for (wave_idx, wave) in workload.requests.chunks(WAVE).enumerate() {
        let collectors: Vec<_> = wave
            .iter()
            .enumerate()
            .map(|(i, req)| {
                let ids: Vec<ChunkId> = req.chunk_ids.iter().map(|c| chunk_map[c]).collect();
                // Placement is driven by the harness (as in the cluster
                // arm), alternating replicas — so the kill wave always
                // has work in flight at replica 0 when the bounce lands,
                // and a retry is guaranteed rather than luck of the
                // router. 12 decoded tokens keep each stream alive for
                // several ms, comfortably spanning the kill.
                let stream = cluster.submit_to(
                    i % 2,
                    EngineRequest::new(ids, query.clone()).max_new_tokens(12),
                );
                let t0 = std::time::Instant::now();
                std::thread::spawn(move || {
                    let mut first = None;
                    let mut ok = false;
                    for ev in stream {
                        match ev {
                            cb_core::stream::Event::FirstToken(_) => {
                                first = Some(t0.elapsed().as_secs_f64());
                            }
                            cb_core::stream::Event::Done(_) => ok = true,
                            _ => {}
                        }
                    }
                    (first, ok)
                })
            })
            .collect();
        if kill_after_wave == Some(wave_idx) {
            // The kill: replica 0's connection dies abruptly with the
            // wave in flight; stranded requests retry on replica 1 while
            // the bounced worker re-attaches and adopts its slot.
            cluster
                .reattach_local(&mut workers[0], 0, WorkerConfig::default())
                .expect("the killed worker re-attaches");
        }
        for c in collectors {
            let (first, ok) = c.join().expect("collector thread");
            if ok {
                completed += 1;
                if let Some(t) = first {
                    ttfts.push(t);
                }
            } else {
                failed += 1;
            }
        }
    }
    let makespan = start.elapsed().as_secs_f64().max(f64::EPSILON);
    ttfts.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if ttfts.is_empty() {
            return 0.0;
        }
        let at = ((ttfts.len() as f64 * p).ceil() as usize).clamp(1, ttfts.len()) - 1;
        ttfts[at]
    };
    let stats = cluster.stats();
    ChaosPoint {
        completed,
        failed,
        p50_ttft_s: pct(0.50),
        p99_ttft_s: pct(0.99),
        goodput_rps: completed as f64 / makespan,
        retries: stats.retries,
        adoptions: stats.adoptions,
    }
}

/// The chaos drill: the same workload with and without a mid-run worker
/// death, side by side. Emits `BENCH_chaos.json` and prints the measured
/// retry latency tax (the p99 TTFT delta the kill costs).
fn chaos_arm(smoke: bool) {
    let n_requests = if smoke { 48 } else { 160 };
    let kill_wave = (n_requests / 8) / 2; // Mid-run, deterministically.
    let baseline = run_chaos_point(n_requests, None);
    let chaos = run_chaos_point(n_requests, Some(kill_wave));

    let mut rows = Vec::new();
    for (arm, p) in [("baseline", &baseline), ("worker-killed", &chaos)] {
        rows.push(
            Row::new("chaos")
                .col("backend", "net-cluster")
                .col("arm", arm)
                .col("requests", n_requests)
                .col("completed", p.completed)
                .col("failed", p.failed)
                .num("p50_ttft_s", p.p50_ttft_s)
                .num("p99_ttft_s", p.p99_ttft_s)
                .num("goodput_rps", p.goodput_rps)
                .col("retries", p.retries)
                .col("adoptions", p.adoptions),
        );
    }
    emit("BENCH_chaos", &rows);
    println!(
        "chaos drill: {} requests, kill after wave {kill_wave}: goodput {:.2} → {:.2} rps, \
         p99 TTFT {:.1}ms → {:.1}ms ({} retries, {} adoption)",
        n_requests,
        baseline.goodput_rps,
        chaos.goodput_rps,
        baseline.p99_ttft_s * 1e3,
        chaos.p99_ttft_s * 1e3,
        chaos.retries,
        chaos.adoptions,
    );
    assert_eq!(
        baseline.failed, 0,
        "the undisturbed run must not fail requests"
    );
    assert_eq!(baseline.retries, 0, "the undisturbed run must not retry");
    assert_eq!(
        chaos.failed, 0,
        "every request must survive the mid-run worker death"
    );
    assert!(
        chaos.retries >= 1,
        "the kill landed mid-run, so at least one request must have been retried"
    );
    assert_eq!(
        chaos.adoptions, 1,
        "the bounced worker must adopt its old slot exactly once"
    );
}
