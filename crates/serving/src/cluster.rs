//! Cluster serving: N engine replicas behind one chunk-locality router —
//! now a thin facade over the `cb-net` control plane.
//!
//! One [`EngineService`] scales *up* (more workers over one engine); this
//! module scales *out*: a [`ClusterService`] fronts several replicas, each
//! with its own model instance, scheduler, and RAM store tier — typically
//! all backed by one **shared persistent tier** (a
//! [`SegmentLogBackend::open_shared`] log dir, one log series per
//! replica), so any replica can serve any chunk via the existing prefetch
//! pipeline even when its RAM is cold.
//!
//! **Architecture.** The routing, spill, and failover policy lives in
//! [`cb_net::gateway::Gateway`]; this facade wires each replica behind a
//! [`cb_net::worker::Worker`] over an in-process
//! [`loopback transport`](cb_net::transport::LoopbackTransport) and
//! attaches them all to one gateway. Loopback carries *encoded frames*,
//! so every in-process cluster test exercises the identical wire protocol
//! the TCP deployment uses — routing decisions, spill rounds, heartbeats,
//! and token streams all cross the codec.
//!
//! **Routing.** Requests are routed by *rendezvous hashing over their
//! chunk ids*: every chunk has a stable home replica, and a request goes
//! to the replica home to the most of its chunks. Repeated RAG contexts —
//! the paper's workload is exactly this — keep hitting the replica whose
//! RAM cache is already warm.
//!
//! **Spill and failover.** Admission is non-blocking at the routed
//! replica: a full queue answers `Rejected` and the gateway respills the
//! request to the least-loaded healthy replica (blocking there only when
//! every healthy queue is full). Replica health combines the operator
//! mark, the scheduler probe, heartbeat freshness, and connection
//! liveness; [`ClusterStats::failovers`] counts health **down-edges**
//! idempotently — a replica observed down twice is one failover, a
//! replica that recovers and fails again is two. A replica whose worker
//! session dies and re-attaches ([`ClusterService::bounce_replica`])
//! *adopts* its old slot via its stable worker identity: homes,
//! admission counters, and roster size are all unchanged. Requests
//! stranded mid-stream on a dead replica are transparently retried on a
//! healthy sibling ([`ClusterStats::retries`]), the already-delivered
//! prefix suppressed.
//!
//! **Observability.** [`ClusterStats`] reports per-replica admissions, the
//! chunk- and request-level locality rates, spill/reroute/failover counts,
//! and the summed scheduler counters (deadline misses included).
//!
//! [`SegmentLogBackend::open_shared`]: cb_storage::SegmentLogBackend::open_shared

use std::sync::Arc;
use std::time::{Duration, Instant};

use cb_core::engine::{Engine, EngineError, Request, Response};
use cb_core::scheduler::{EngineService, ServiceConfig, ServiceStats};
use cb_core::stream::ResponseStream;
use cb_kv::ChunkId;
use cb_net::gateway::{Gateway, GatewayConfig};
use cb_net::transport::loopback_pair;
use cb_net::worker::{Worker, WorkerConfig};
use cb_tokenizer::TokenId;

pub use cb_net::gateway::{ClusterError, ClusterStats};

/// The cluster front end (see module docs). Dropping it shuts the gateway
/// down first (closing worker sessions), then every replica's scheduler
/// after draining its queue.
#[derive(Debug)]
pub struct ClusterService {
    // Field order is drop order: gateway before workers before services.
    gateway: Gateway,
    #[allow(dead_code)] // Held for teardown; all traffic flows via the gateway.
    workers: Vec<Worker>,
    services: Vec<Arc<EngineService>>,
}

impl ClusterService {
    /// Fronts an explicit set of running replicas: each is wrapped in a
    /// control-plane worker and attached to a fresh gateway over a
    /// loopback transport.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn new(replicas: Vec<EngineService>) -> Self {
        assert!(!replicas.is_empty(), "cluster needs at least one replica");
        let services: Vec<Arc<EngineService>> = replicas.into_iter().map(Arc::new).collect();
        let gateway = Gateway::new(GatewayConfig::default());
        let workers = services
            .iter()
            .map(|service| {
                let (worker_end, gateway_end) = loopback_pair();
                let worker = Worker::start(
                    Arc::clone(service),
                    Arc::new(worker_end),
                    WorkerConfig::default(),
                )
                .expect("loopback worker handshake cannot fail");
                gateway
                    .attach(Arc::new(gateway_end))
                    .expect("loopback attach cannot fail");
                worker
            })
            .collect();
        Self {
            gateway,
            workers,
            services,
        }
    }

    /// Builds `n` replicas from an engine factory (called with the replica
    /// index) and starts each behind its own scheduler with `service_cfg`.
    /// Replicas meant to produce identical outputs must be built from the
    /// same model profile and seed — routing then changes only placement
    /// and latency, never results.
    pub fn build<F>(
        n: usize,
        service_cfg: ServiceConfig,
        mut engine: F,
    ) -> Result<Self, EngineError>
    where
        F: FnMut(usize) -> Result<Engine, EngineError>,
    {
        let replicas = (0..n)
            .map(|i| Ok(EngineService::new(engine(i)?, service_cfg)))
            .collect::<Result<Vec<_>, EngineError>>()?;
        Ok(Self::new(replicas))
    }

    /// The gateway this facade fronts (direct access for network-level
    /// tooling — e.g. attaching remote TCP clients to an in-process
    /// cluster).
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// Number of replicas (healthy or not).
    pub fn n_replicas(&self) -> usize {
        self.services.len()
    }

    /// A replica's scheduler (for stats, probes, or direct registration).
    pub fn replica(&self, i: usize) -> &EngineService {
        &self.services[i]
    }

    /// Marks a replica up or down for routing. A downed replica receives
    /// no new cluster traffic (in-flight requests finish); marking it up
    /// restores it. Fault-injection tests and operators use this.
    /// Idempotent with respect to [`ClusterStats::failovers`]: only the
    /// down-transition counts.
    pub fn set_replica_health(&self, i: usize, healthy: bool) {
        self.gateway.set_worker_health(i, healthy);
    }

    /// True if replica `i` is eligible for routing: marked up, its
    /// scheduler can make progress, and its heartbeats are fresh.
    pub fn replica_healthy(&self, i: usize) -> bool {
        self.gateway.worker_healthy(i)
    }

    /// Simulates replica `i`'s worker process dying and restarting: the
    /// old control-plane session is torn down (the gateway observes the
    /// disconnect — one failover edge), then a fresh worker re-attaches
    /// under the **same identity with a bumped incarnation** and adopts
    /// its old slot — same index, chunk homes untouched, roster size
    /// unchanged, one adoption counted. The replica's engine and warm
    /// cache survive, exactly like a worker process that kept its store
    /// across a reconnect.
    pub fn bounce_replica(&mut self, i: usize) {
        let (id, incarnation) = self.workers[i].identity();
        let (worker_end, gateway_end) = loopback_pair();
        let replacement = Worker::start(
            Arc::clone(&self.services[i]),
            Arc::new(worker_end),
            WorkerConfig::default().identity(id, incarnation + 1),
        )
        .expect("loopback worker handshake cannot fail");
        // Drop the old session and wait until the gateway has observed
        // the death — a restarted process always dials back after its
        // predecessor's sockets closed.
        self.workers[i] = replacement;
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.gateway.worker_healthy(i) {
            assert!(
                Instant::now() < deadline,
                "gateway never observed the bounced replica's disconnect"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let adopted = self
            .gateway
            .attach(Arc::new(gateway_end))
            .expect("loopback re-attach cannot fail");
        assert_eq!(adopted, i, "re-attach must adopt the old slot");
    }

    /// The stable home replica of a chunk: the replica with the highest
    /// rendezvous score for its id, over *all* replicas (health does not
    /// move homes — routing falls back instead, so a recovering replica
    /// finds its cache assignments unchanged).
    pub fn home_of(&self, id: ChunkId) -> usize {
        self.gateway.home_of(id)
    }

    /// The locality-preferred replica for a chunk set (health ignored).
    pub fn preferred(&self, chunk_ids: &[ChunkId]) -> usize {
        self.gateway.preferred(chunk_ids)
    }

    /// Routing decision for a chunk set: the locality-preferred replica if
    /// healthy, else the healthy replica with the best (votes, rendezvous)
    /// rank. `None` if no replica is healthy. The second field reports
    /// whether the preferred replica had to be skipped (a reroute).
    pub fn route(&self, chunk_ids: &[ChunkId]) -> Option<(usize, bool)> {
        self.gateway.route(chunk_ids)
    }

    /// The healthy replica currently owing the least work (queued plus in
    /// flight) per its latest probe. Ties go to the lowest index.
    pub fn least_loaded(&self, exclude: Option<usize>) -> Option<usize> {
        self.gateway.least_loaded(exclude)
    }

    /// Registers a chunk cluster-wide: the tokens enter every replica's
    /// registry (so any replica can repair a miss by precompute), the KV
    /// cache is precomputed eagerly only at the chunk's *home* replica —
    /// warming exactly the cache the router will route to — and the
    /// entry is replicated onto the home store's persistent tier (when
    /// one is configured), so a spilled or failed-over request at any
    /// sibling replica discovers it there instead of re-precomputing.
    pub fn register_chunk(&self, tokens: &[TokenId]) -> Result<ChunkId, EngineError> {
        self.gateway.register_chunk(tokens)
    }

    /// Registers a chunk on every replica without precomputing any KV
    /// (content-addressed ids are identical across replicas). The first
    /// request naming it pays the precompute at whichever replica serves
    /// it.
    pub fn register_chunk_lazy(&self, tokens: &[TokenId]) -> Result<ChunkId, EngineError> {
        self.gateway.register_chunk_lazy(tokens)
    }

    /// Registers many chunks, returning ids in input order.
    pub fn register_chunks(&self, chunks: &[Vec<TokenId>]) -> Result<Vec<ChunkId>, EngineError> {
        self.gateway.register_chunks(chunks)
    }

    /// Submits a request through the locality router and returns its event
    /// stream. Placement: routed replica if it admits, else respill to the
    /// least-loaded healthy replica (blocking there only if every healthy
    /// queue is full). Admission is asynchronous — a rejection at the
    /// routed replica is observed and re-placed by the gateway without the
    /// caller blocking.
    pub fn submit_stream(&self, request: Request) -> Result<ResponseStream, ClusterError> {
        self.gateway.submit_stream(request)
    }

    /// Blocking one-shot convenience over [`ClusterService::submit_stream`].
    /// A fully-unhealthy cluster surfaces the structured
    /// [`EngineError::Remote`] carrying
    /// [`ErrorCode::NoHealthyWorker`](cb_core::engine::ErrorCode::NoHealthyWorker).
    pub fn submit(&self, request: Request) -> Result<Response, EngineError> {
        self.gateway.submit(request)
    }

    /// Submits directly to an explicit replica, bypassing the router but
    /// keeping the cluster accounting (admin tooling and the bench harness
    /// drive placement themselves).
    pub fn submit_to(&self, replica: usize, request: Request) -> ResponseStream {
        self.gateway.submit_to(replica, request)
    }

    /// Snapshot of the cluster counters.
    ///
    /// Note: the retry/failover/adoption/spill counters here are also
    /// published into the metrics registry as `cb_gateway_*_total` and
    /// reachable through [`ClusterService::scrape`] alongside every other
    /// series — prefer the scrape for monitoring; this struct remains for
    /// in-process assertions.
    pub fn stats(&self) -> ClusterStats {
        self.gateway.stats()
    }

    /// Cluster-aggregated metrics registry snapshot (see
    /// [`Gateway::scrape`]): counters, gauges, and TTFT/queue-wait
    /// histograms across the gateway and every worker, ready for
    /// [`to_prometheus`](cb_obs::metrics::MetricsSnapshot::to_prometheus)
    /// rendering.
    pub fn scrape(&self) -> cb_obs::metrics::MetricsSnapshot {
        self.gateway.scrape()
    }

    /// Per-replica scheduler counters.
    ///
    /// Note: process-wide totals of these counters are also live in the
    /// metrics registry (`cb_requests_*_total`); this per-replica view
    /// remains authoritative for placement assertions.
    pub fn service_stats(&self) -> Vec<ServiceStats> {
        self.services.iter().map(|r| r.stats()).collect()
    }

    /// Summed scheduler counters across replicas (deadline misses, peak
    /// queue depth as the max over replicas).
    pub fn aggregate_service_stats(&self) -> ServiceStats {
        let mut agg = ServiceStats::default();
        for s in self.service_stats() {
            agg.submitted += s.submitted;
            agg.rejected += s.rejected;
            agg.completed += s.completed;
            agg.failed += s.failed;
            agg.deadline_misses += s.deadline_misses;
            agg.canceled += s.canceled;
            agg.peak_queue_depth = agg.peak_queue_depth.max(s.peak_queue_depth);
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_core::engine::{EngineBuilder, ErrorCode};
    use cb_model::ModelProfile;
    use cb_tokenizer::TokenKind::*;

    /// SplitMix64 finalizer — the same mix the gateway's rendezvous
    /// scoring uses; tests reuse it as a cheap id scrambler.
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn cluster(n: usize, workers: usize, capacity: usize) -> ClusterService {
        ClusterService::build(
            n,
            ServiceConfig::default()
                .workers(workers)
                .queue_capacity(capacity),
            |_| EngineBuilder::new(ModelProfile::Tiny).build(),
        )
        .unwrap()
    }

    /// Registers `n` distinct chunks and the cross-chunk query.
    fn scenario(c: &ClusterService, n: usize) -> (Vec<ChunkId>, Vec<TokenId>) {
        let v = c.replica(0).engine().model().cfg.vocab.clone();
        let chunks: Vec<Vec<TokenId>> = (0..n)
            .map(|i| {
                vec![
                    v.id(Entity(i as u32 % 16)),
                    v.id(Attr(i as u32 % 8)),
                    v.id(Value(i as u32 % 24)),
                    v.id(Sep),
                ]
            })
            .collect();
        let ids = c.register_chunks(&chunks).unwrap();
        let q = vec![v.id(Query), v.id(Entity(0)), v.id(Attr(0)), v.id(QMark)];
        (ids, q)
    }

    #[test]
    fn homes_are_stable_and_roughly_balanced() {
        let a = cluster(4, 0, 4);
        let b = cluster(4, 0, 4);
        let mut per_replica = [0usize; 4];
        for i in 0..1000u64 {
            let id = ChunkId(splitmix64(i));
            assert_eq!(a.home_of(id), b.home_of(id), "homes depend only on n");
            per_replica[a.home_of(id)] += 1;
        }
        for (r, &n) in per_replica.iter().enumerate() {
            assert!(
                (150..=350).contains(&n),
                "replica {r} homes {n}/1000 chunks — rendezvous should balance"
            );
        }
    }

    #[test]
    fn route_prefers_the_majority_home() {
        let c = cluster(3, 0, 4);
        // Build a set where one replica is home to most chunks.
        let ids: Vec<ChunkId> = (0..64).map(|i| ChunkId(splitmix64(1000 + i))).collect();
        let target = c.home_of(ids[0]);
        let majority: Vec<ChunkId> = ids
            .iter()
            .copied()
            .filter(|&c2| c.home_of(c2) == target)
            .take(3)
            .collect();
        let mut set = majority.clone();
        set.push(*ids.iter().find(|&&c2| c.home_of(c2) != target).unwrap());
        // 0-worker replicas are unhealthy, so route() falls back — use the
        // internal preference which ignores health.
        assert_eq!(c.preferred(&set), target);
        // Order-independence: shuffling the set does not change the pick.
        set.reverse();
        assert_eq!(c.preferred(&set), target);
    }

    #[test]
    fn cluster_serves_requests_and_reports_locality() {
        let c = cluster(2, 1, 8);
        let (ids, q) = scenario(&c, 6);
        for i in 0..12 {
            let set = vec![ids[i % 6], ids[(i + 1) % 6], ids[(i + 2) % 6]];
            let resp = c
                .submit(Request::new(set, q.clone()).ratio(0.45).max_new_tokens(2))
                .unwrap();
            assert!(resp.blend.stats.ctx_len > 0, "request really blended");
        }
        let st = c.stats();
        assert_eq!(st.total_requests, 12);
        assert_eq!(st.admissions.iter().sum::<u64>(), 12);
        assert_eq!(st.spills, 0, "unloaded cluster never spills");
        assert_eq!(st.failovers, 0);
        assert_eq!(st.reroutes, 0);
        assert_eq!(
            st.request_locality_rate(),
            1.0,
            "every request served at its preferred replica"
        );
        assert!(
            st.locality_hit_rate() > 0.5,
            "majority voting keeps most chunks home"
        );
        assert_eq!(c.aggregate_service_stats().completed, 12);
    }

    #[test]
    fn eager_registration_warms_only_the_home_replica() {
        let c = cluster(3, 1, 8);
        let (ids, _) = scenario(&c, 8);
        for &id in &ids {
            let home = c.home_of(id);
            for r in 0..3 {
                assert_eq!(
                    c.replica(r).engine().store().contains(id),
                    r == home,
                    "chunk {id:?} must be cached exactly at home replica {home}"
                );
            }
            for r in 0..3 {
                assert_eq!(c.replica(r).engine().registered_chunks(), 8);
            }
        }
    }

    #[test]
    fn downed_replica_triggers_failover_and_recovers() {
        let c = cluster(2, 1, 8);
        let (ids, q) = scenario(&c, 4);
        let set = vec![ids[0], ids[1]];
        let preferred = c.preferred(&set);
        c.set_replica_health(preferred, false);
        let resp = c
            .submit(
                Request::new(set.clone(), q.clone())
                    .ratio(0.45)
                    .max_new_tokens(2),
            )
            .unwrap();
        assert!(!resp.answer.is_empty(), "failover still serves");
        let st = c.stats();
        assert_eq!(st.failovers, 1, "one down-transition, counted once");
        assert_eq!(st.reroutes, 1, "the request was placed away from home");
        assert_eq!(st.admissions[preferred], 0);
        assert_eq!(st.admissions[1 - preferred], 1);

        // Re-observing the downed replica (routing probes, health checks)
        // must not inflate the failover count: it is edge-triggered.
        assert!(!c.replica_healthy(preferred));
        assert!(!c.replica_healthy(preferred));
        assert_eq!(c.stats().failovers, 1);

        c.set_replica_health(preferred, true);
        c.submit(Request::new(set, q).ratio(0.45).max_new_tokens(2))
            .unwrap();
        assert_eq!(
            c.stats().admissions[preferred],
            1,
            "recovered replica gets its traffic back"
        );
        assert_eq!(c.stats().failovers, 1, "recovery is not a failover");
    }

    #[test]
    fn no_healthy_replica_is_reported() {
        let c = cluster(2, 1, 4);
        let (ids, q) = scenario(&c, 2);
        c.set_replica_health(0, false);
        c.set_replica_health(1, false);
        let err = c
            .submit_stream(Request::new(ids.clone(), q.clone()))
            .unwrap_err();
        assert_eq!(err, ClusterError::NoHealthyReplica);
        assert_eq!(c.stats().rejections, 1);
        // The blocking path surfaces the structured remote error, keeping
        // the code and human-readable detail across the service boundary.
        match c.submit(Request::new(ids, q)).unwrap_err() {
            EngineError::Remote { code, message } => {
                assert_eq!(code, ErrorCode::NoHealthyWorker);
                assert!(!message.is_empty(), "error detail must survive");
            }
            other => panic!("expected a structured remote error, got {other:?}"),
        }
    }

    #[test]
    fn zero_worker_replicas_are_unhealthy_by_probe() {
        let c = cluster(2, 0, 4);
        assert!(!c.replica_healthy(0));
        assert!(!c.replica_healthy(1));
        let (ids, q) = scenario(&c, 2);
        assert_eq!(
            c.submit_stream(Request::new(ids, q)).unwrap_err(),
            ClusterError::NoHealthyReplica
        );
    }

    #[test]
    fn bounced_replica_adopts_its_slot_and_keeps_homes() {
        let mut c = cluster(2, 1, 8);
        let (ids, q) = scenario(&c, 6);
        let homes: Vec<usize> = ids.iter().map(|&id| c.home_of(id)).collect();
        c.submit(
            Request::new(vec![ids[0]], q.clone())
                .ratio(0.45)
                .max_new_tokens(2),
        )
        .unwrap();
        c.bounce_replica(0);
        assert_eq!(c.gateway().n_workers(), 2, "the roster must not grow");
        let st = c.stats();
        assert_eq!(st.adoptions, 1, "exactly one adoption");
        assert_eq!(st.failovers, 1, "the death was observed as one edge");
        assert_eq!(
            ids.iter().map(|&id| c.home_of(id)).collect::<Vec<_>>(),
            homes,
            "chunk homes survive the bounce"
        );
        // The bounced replica serves again immediately (hello carried a
        // fresh probe, so no heartbeat wait).
        let resp = c
            .submit(Request::new(vec![ids[0]], q).ratio(0.45).max_new_tokens(2))
            .unwrap();
        assert!(!resp.answer.is_empty(), "adopted replica still serves");
        assert_eq!(c.stats().failovers, 1, "re-attach is not another edge");
    }

    #[test]
    fn queue_full_spills_to_the_least_loaded_replica() {
        // Tiny queues: flood the preferred replica's queue through the
        // cluster until an admission observes QueueFull and spills. The
        // flood is retried because the 1-worker replica drains between
        // probes — the loop is bounded and the outcome asserted exactly.
        let c = cluster(2, 1, 1);
        let (ids, q) = scenario(&c, 4);
        let set = vec![ids[0], ids[1]];
        let mk = || {
            Request::new(set.clone(), q.clone())
                .ratio(0.45)
                .max_new_tokens(8)
        };
        let mut streams = Vec::new();
        for _ in 0..64 {
            streams.push(c.submit_stream(mk()).unwrap());
            if c.stats().spills > 0 {
                break;
            }
        }
        // Spills are observed asynchronously (the rejection travels back
        // over the wire), so settle the cluster before asserting.
        for s in streams {
            s.collect().expect("every admitted request completes");
        }
        let st = c.stats();
        assert!(
            st.spills > 0,
            "a capacity-1 queue must overflow under a 64-request flood"
        );
        assert!(
            st.admissions.iter().all(|&a| a > 0),
            "spill placed work on the alternate replica: {:?}",
            st.admissions
        );
    }
}
