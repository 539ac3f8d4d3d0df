//! The coordinator side of the control plane: the [`Gateway`] owns chunk
//! placement, request routing, spill, and failover over any
//! [`Transport`]. It is the only cluster front door: in-process clusters
//! attach their workers over loopback ([`Gateway::attach_local`]), remote
//! ones over TCP ([`Gateway::accept`]).
//!
//! **Placement and routing.** Every chunk has a stable home worker under
//! rendezvous hashing (SplitMix64 scores; health never moves homes), and
//! a request goes to the worker home to the most of its chunks, ties
//! broken by an order-independent hash of the whole set.
//!
//! **Admission is optimistic and asynchronous.** `Submit` frames carry
//! `blocking: false` first; a worker whose queue is full answers
//! `Rejected` with a fresh probe, and the gateway *respills* the pending
//! request — first to the least-loaded other healthy worker, then (if
//! every queue is full) back to the best healthy worker with
//! `blocking: true`, which cannot be refused.
//!
//! **Failover is edge-triggered.** A worker is *effectively healthy* when
//! the operator mark is up, the connection lives, its last probe says the
//! scheduler can make progress, and a heartbeat arrived within
//! [`GatewayConfig::heartbeat_timeout`]. Every health evaluation runs
//! through one idempotent transition detector: [`ClusterStats::failovers`]
//! counts **down-transitions exactly once** — a worker that recovers
//! mid-probe and fails again counts twice, but re-observing a down worker
//! (from routing, heartbeat sweeps, and operator marks concurrently)
//! never double-counts.
//!
//! The state machine per worker:
//!
//! ```text
//!            heartbeat fresh ∧ probe healthy ∧ marked ∧ connected
//!          ┌─────────────────────────────────────────────────────┐
//!          ▼                                                     │
//!        UP ──(silence > timeout | probe unhealthy | marked down │
//!          │        | disconnect)──▶ DOWN ──(condition clears)───┘
//!          │  ↑ counted once per down edge (`failovers`)
//! ```
//!
//! **Re-attach adopts slots.** Workers carry a stable identity
//! (`id` + `incarnation`, see [`Message::HelloWorker`]): a worker that
//! reconnects under a known id with a higher incarnation *adopts* its
//! old slot — same index, so every chunk home is untouched; health
//! history and admission counters carry over — and the roster never
//! grows ([`ClusterStats::adoptions`] counts each adoption). A hello
//! whose incarnation does not exceed the slot's current one is rejected,
//! and frames still arriving from a superseded connection are dropped.
//!
//! **Mid-stream retry is client-invisible.** Every routed request is
//! journaled (`Pending`: the request body plus a
//! [`ReplayFilter`] recording the delivered event prefix). When the
//! serving worker dies mid-stream — or fails the request with a
//! [retryable](ErrorCode::retryable) code — the gateway re-submits to
//! the next-best healthy worker under the capped exponential backoff of
//! [`RetryPolicy`], rewinds the filter, and suppresses the replayed
//! prefix; determinism makes replayed tokens bit-identical (asserted),
//! so the client's `collect()` sees one seamless stream. Journal entries
//! retire exactly once, on the first terminal event actually forwarded.
//!
//! **The gateway itself is a single point of failure.** Its journal and
//! roster live only in this process: when it dies, every client stream
//! closes with [`EngineError::Canceled`], and workers started with
//! `--retry-attach` wait to re-attach to a gateway restarted on the same
//! address. Gateway high availability needs a fencing epoch and a lease
//! first, so that two gateways can never both accept submits.

use crate::message::{Message, WireEvent, WireFailure, WireRequest};
use crate::retry::RetryPolicy;
use crate::transport::{loopback_pair, NetError, Transport};
use crate::worker::{Worker, WorkerConfig};
use cb_core::engine::{EngineError, ErrorCode, Request, Response};
use cb_core::scheduler::{EngineService, ServiceProbe};
use cb_core::stream::{Event, ReplayFilter, ResponseStream};
use cb_kv::chunk::hash_tokens;
use cb_kv::ChunkId;
use cb_obs::metrics::{MetricsSnapshot, Registry};
use cb_obs::trace::{alloc_span_id, record_span_with_id};
use cb_obs::{cb_debug, cb_warn};
use cb_tokenizer::TokenId;
use crossbeam::channel::{self, Sender};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Errors surfaced by cluster submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// Every worker is unhealthy (no scheduler workers, shut down, marked
    /// down, heartbeat-silent, or disconnected); the request was not
    /// accepted anywhere.
    NoHealthyReplica,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoHealthyReplica => {
                write!(f, "no healthy worker available to serve the request")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ClusterError> for EngineError {
    /// The structured remote error a client sees for a routing failure.
    fn from(e: ClusterError) -> Self {
        match e {
            ClusterError::NoHealthyReplica => EngineError::Remote {
                code: ErrorCode::NoHealthyWorker,
                message: e.to_string(),
            },
        }
    }
}

/// Lifetime counters of a gateway (see [`Gateway::stats`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterStats {
    /// Requests admitted per worker (router submissions only).
    pub admissions: Vec<u64>,
    /// Requests that could not be admitted at their routed worker (queue
    /// full) and were respilled to the least-loaded worker instead.
    pub spills: u64,
    /// Worker health **down-transitions**, counted once per edge — the
    /// idempotent failover counter (see module docs' state machine).
    pub failovers: u64,
    /// Requests routed away from their locality-preferred worker because
    /// it was unhealthy at submit time.
    pub reroutes: u64,
    /// Requests served by their locality-preferred worker.
    pub local_requests: u64,
    /// Requests admitted in total.
    pub total_requests: u64,
    /// Chunk references across all admitted requests.
    pub chunk_lookups: u64,
    /// Chunk references served by the chunk's home worker — the cache the
    /// rendezvous placement keeps warm.
    pub chunk_local: u64,
    /// Requests rejected because no worker was healthy.
    pub rejections: u64,
    /// Mid-stream retries: requests transparently re-submitted after
    /// their worker died or failed them with a retryable code. The
    /// client saw one seamless stream.
    pub retries: u64,
    /// Slot adoptions: workers that re-attached under a known identity
    /// and reclaimed their old slot instead of growing the roster.
    pub adoptions: u64,
}

impl ClusterStats {
    /// Fraction of chunk references served at the chunk's home worker —
    /// the router's locality hit rate.
    pub fn locality_hit_rate(&self) -> f64 {
        if self.chunk_lookups == 0 {
            0.0
        } else {
            self.chunk_local as f64 / self.chunk_lookups as f64
        }
    }

    /// Fraction of requests served by their locality-preferred worker.
    pub fn request_locality_rate(&self) -> f64 {
        if self.total_requests == 0 {
            0.0
        } else {
            self.local_requests as f64 / self.total_requests as f64
        }
    }
}

#[derive(Debug, Default)]
struct AtomicClusterStats {
    spills: AtomicU64,
    failovers: AtomicU64,
    reroutes: AtomicU64,
    local_requests: AtomicU64,
    total_requests: AtomicU64,
    chunk_lookups: AtomicU64,
    chunk_local: AtomicU64,
    rejections: AtomicU64,
    retries: AtomicU64,
    adoptions: AtomicU64,
}

/// Gateway tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct GatewayConfig {
    /// Silence longer than this declares a worker down (until its next
    /// heartbeat). Keep it several heartbeat intervals wide.
    pub heartbeat_timeout: Duration,
    /// How long [`Gateway::attach`] waits for the `HelloWorker` frame.
    pub attach_timeout: Duration,
    /// RPC timeout plus the mid-stream retry budget and backoff curve
    /// (see [`RetryPolicy`] for where each knob applies).
    pub retry: RetryPolicy,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            heartbeat_timeout: Duration::from_secs(5),
            attach_timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
        }
    }
}

impl GatewayConfig {
    /// Sets the heartbeat-silence window.
    pub fn heartbeat_timeout(mut self, d: Duration) -> Self {
        self.heartbeat_timeout = d;
        self
    }

    /// Sets the RPC timeout / retry / backoff policy.
    pub fn retry(mut self, p: RetryPolicy) -> Self {
        self.retry = p;
        self
    }

    /// The demux poll period: frequent enough to sweep heartbeat expiry
    /// well inside the timeout window.
    fn tick(&self) -> Duration {
        (self.heartbeat_timeout / 4).clamp(Duration::from_millis(5), Duration::from_millis(250))
    }
}

/// SplitMix64 finalizer: a strong, cheap 64-bit mix for rendezvous scores.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const REPLICA_SALT: u64 = 0xA24B_AED4_963E_E407;
const TRACE_SALT: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// The rendezvous home of a chunk among `n` workers: the highest score
/// wins. `None` on an empty roster.
fn home_among(id: ChunkId, n: usize) -> Option<usize> {
    (0..n).max_by_key(|&r| splitmix64(id.0 ^ (r as u64).wrapping_mul(REPLICA_SALT)))
}

#[derive(Debug)]
struct SlotState {
    probe: ServiceProbe,
    last_heartbeat: Instant,
    /// Operator mark (fault injection, maintenance).
    marked_up: bool,
    /// False once the connection died.
    connected: bool,
    /// Last *observed* effective health — the edge detector's memory.
    was_healthy: bool,
}

#[derive(Debug)]
struct WorkerSlot {
    index: usize,
    /// Stable worker identity (the adoption key across reconnects).
    id: u64,
    /// Current connection generation; hellos must exceed it to adopt,
    /// frames from older incarnations are dropped.
    incarnation: AtomicU64,
    /// The live connection, replaced when a re-attach adopts the slot.
    conn: RwLock<Arc<dyn Transport>>,
    admissions: AtomicU64,
    state: Mutex<SlotState>,
}

impl WorkerSlot {
    fn send(&self, msg: &Message) -> Result<(), NetError> {
        // Clone out of the lock: a slow send must not hold up a re-attach.
        let conn = Arc::clone(&self.conn.read().unwrap());
        conn.send(msg)
    }
}

/// One in-flight routed request — the journal entry a retry replays
/// from.
struct Pending {
    request: Request,
    tx: Sender<Event>,
    worker: usize,
    preferred: usize,
    /// Rejections seen so far (drives the respill escalation).
    attempts: u32,
    /// True once its admission was recorded (first `Queued` event).
    counted: bool,
    /// Delivered-prefix record: suppresses replayed events on retry and
    /// asserts replayed tokens are bit-identical.
    filter: ReplayFilter,
    /// Mid-stream retries consumed (bounded by
    /// [`RetryPolicy::max_retries`]).
    retries: u32,
    /// Observability: the request's nonzero trace id (client-supplied, or
    /// derived from the journal id), the still-open root `request` span
    /// covering place → terminal, and the currently open serve-attempt
    /// span (`serve#k` / `retry#k`) the serving worker parents under.
    trace: u64,
    root_span: u64,
    root_parent: u64,
    root_start_ns: u64,
    attempt_span: u64,
    attempt_name: String,
    attempt_start_ns: u64,
}

impl Pending {
    /// Closes the open serve-attempt span and opens the next one (a
    /// respill or retry re-placement), returning the new span id to put
    /// in the `Submit` frame. Each attempt is a sibling child of the
    /// root `request` span — a retry is a new interval, never a rewind.
    fn next_attempt(&mut self, name: String) -> u64 {
        let now = cb_obs::now_nanos();
        record_span_with_id(
            self.trace,
            self.attempt_span,
            self.root_span,
            std::mem::replace(&mut self.attempt_name, name),
            self.attempt_start_ns,
            now,
        );
        self.attempt_span = alloc_span_id();
        self.attempt_start_ns = now;
        self.attempt_span
    }

    /// Closes both open spans — called exactly once, when the journal
    /// entry retires (terminal event forwarded, or a structured failure).
    fn close_trace(&self) {
        let now = cb_obs::now_nanos();
        record_span_with_id(
            self.trace,
            self.attempt_span,
            self.root_span,
            self.attempt_name.clone(),
            self.attempt_start_ns,
            now,
        );
        record_span_with_id(
            self.trace,
            self.root_span,
            self.root_parent,
            "request",
            self.root_start_ns,
            now,
        );
    }
}

/// What [`Gateway::accept`] found on a new connection.
#[derive(Debug)]
pub enum Accepted {
    /// A worker announced itself; its index is returned.
    Worker(usize),
    /// A client session started (served on a background thread).
    Client,
}

struct GwInner {
    cfg: GatewayConfig,
    workers: RwLock<Vec<Arc<WorkerSlot>>>,
    pending: Mutex<HashMap<u64, Pending>>,
    /// Reply routes of in-flight RPCs. The worker demux removes an entry
    /// before it sends the one reply, so every route is a `bounded(1)`
    /// channel whose single send can never block.
    rpcs: Mutex<HashMap<u64, Sender<Message>>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    stats: AtomicClusterStats,
    /// Counter values already pushed into the global metrics registry —
    /// the next [`GwInner::publish_metrics`] pushes only the delta, so
    /// repeated scrapes are idempotent.
    published: Mutex<ClusterStats>,
}

impl GwInner {
    // --- health -----------------------------------------------------------

    /// Evaluates a slot's effective health and runs the idempotent edge
    /// detector: a true→false observation counts one failover; repeated
    /// observations of the same state count nothing.
    fn refresh_slot(&self, slot: &WorkerSlot) -> bool {
        let mut st = slot.state.lock().unwrap();
        let eff = st.marked_up
            && st.connected
            && st.probe.healthy()
            && st.last_heartbeat.elapsed() <= self.cfg.heartbeat_timeout;
        if st.was_healthy && !eff {
            self.stats.failovers.fetch_add(1, Ordering::Relaxed);
        }
        st.was_healthy = eff;
        eff
    }

    fn slots(&self) -> Vec<Arc<WorkerSlot>> {
        self.workers.read().unwrap().clone()
    }

    fn n_workers(&self) -> usize {
        self.workers.read().unwrap().len()
    }

    // --- placement --------------------------------------------------------

    /// One-scan routing decision: `(target, preferred, rerouted)`, where
    /// `target` is `None` if no worker is healthy. `None` on an empty
    /// roster.
    fn decide(&self, chunk_ids: &[ChunkId]) -> Option<(Option<usize>, usize, bool)> {
        let slots = self.slots();
        let n = slots.len();
        let mut votes = vec![0usize; n];
        let mut set_hash = 0u64;
        for &c in chunk_ids {
            votes[home_among(c, n)?] += 1;
            set_hash ^= splitmix64(c.0);
        }
        let rank = |r: usize| {
            (
                votes[r],
                splitmix64(set_hash ^ (r as u64).wrapping_mul(REPLICA_SALT)),
            )
        };
        let preferred = (0..n).max_by_key(|&r| rank(r))?;
        if self.refresh_slot(&slots[preferred]) {
            return Some((Some(preferred), preferred, false));
        }
        let target = (0..n)
            .filter(|&r| self.refresh_slot(&slots[r]))
            .max_by_key(|&r| rank(r));
        Some((target, preferred, target.is_some()))
    }

    /// The healthy worker currently owing the least work per its last
    /// reported probe, skipping `exclude`. Ties go to the lowest index.
    fn least_loaded(&self, exclude: Option<usize>) -> Option<usize> {
        let slots = self.slots();
        (0..slots.len())
            .filter(|&r| Some(r) != exclude && self.refresh_slot(&slots[r]))
            .min_by_key(|&r| slots[r].state.lock().unwrap().probe.load())
    }

    // --- accounting -------------------------------------------------------

    fn record_admission(&self, worker: usize, preferred: usize, chunk_ids: &[ChunkId]) {
        self.slots()[worker]
            .admissions
            .fetch_add(1, Ordering::Relaxed);
        self.stats.total_requests.fetch_add(1, Ordering::Relaxed);
        if worker == preferred {
            self.stats.local_requests.fetch_add(1, Ordering::Relaxed);
        }
        let local = chunk_ids
            .iter()
            .filter(|&&c| home_among(c, self.n_workers()) == Some(worker))
            .count();
        self.stats
            .chunk_lookups
            .fetch_add(chunk_ids.len() as u64, Ordering::Relaxed);
        self.stats
            .chunk_local
            .fetch_add(local as u64, Ordering::Relaxed);
    }

    fn stats_snapshot(&self) -> ClusterStats {
        let s = &self.stats;
        ClusterStats {
            admissions: self
                .slots()
                .iter()
                .map(|w| w.admissions.load(Ordering::Relaxed))
                .collect(),
            spills: s.spills.load(Ordering::Relaxed),
            failovers: s.failovers.load(Ordering::Relaxed),
            reroutes: s.reroutes.load(Ordering::Relaxed),
            local_requests: s.local_requests.load(Ordering::Relaxed),
            total_requests: s.total_requests.load(Ordering::Relaxed),
            chunk_lookups: s.chunk_lookups.load(Ordering::Relaxed),
            chunk_local: s.chunk_local.load(Ordering::Relaxed),
            rejections: s.rejections.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            adoptions: s.adoptions.load(Ordering::Relaxed),
        }
    }

    // --- metrics ----------------------------------------------------------

    /// Flushes the cluster counters into the process-global registry as
    /// `cb_gateway_*_total` series, publishing only the delta since the
    /// last flush (so repeated scrapes never double-count), and stamps
    /// each worker slot's gateway-side health view into labeled gauges.
    fn publish_metrics(&self) {
        let current = self.stats_snapshot();
        let prev = {
            let mut published = self.published.lock().unwrap();
            std::mem::replace(&mut *published, current.clone())
        };
        let reg = Registry::global();
        for (name, now, then) in [
            ("cb_gateway_spills_total", current.spills, prev.spills),
            (
                "cb_gateway_failovers_total",
                current.failovers,
                prev.failovers,
            ),
            ("cb_gateway_reroutes_total", current.reroutes, prev.reroutes),
            (
                "cb_gateway_local_requests_total",
                current.local_requests,
                prev.local_requests,
            ),
            (
                "cb_gateway_requests_total",
                current.total_requests,
                prev.total_requests,
            ),
            (
                "cb_gateway_chunk_lookups_total",
                current.chunk_lookups,
                prev.chunk_lookups,
            ),
            (
                "cb_gateway_chunk_local_total",
                current.chunk_local,
                prev.chunk_local,
            ),
            (
                "cb_gateway_rejections_total",
                current.rejections,
                prev.rejections,
            ),
            ("cb_gateway_retries_total", current.retries, prev.retries),
            (
                "cb_gateway_adoptions_total",
                current.adoptions,
                prev.adoptions,
            ),
        ] {
            let delta = now.saturating_sub(then);
            if delta > 0 {
                reg.counter(name).add(delta);
            }
        }
        for slot in self.slots() {
            let healthy = self.refresh_slot(&slot);
            let (queue_depth, inflight) = {
                let st = slot.state.lock().unwrap();
                (st.probe.queue_depth, st.probe.inflight)
            };
            let idx = slot.index;
            reg.gauge(&format!("cb_gateway_worker_healthy{{worker=\"{idx}\"}}"))
                .set(healthy as u64 as f64);
            reg.gauge(&format!(
                "cb_gateway_worker_queue_depth{{worker=\"{idx}\"}}"
            ))
            .set(queue_depth as f64);
            reg.gauge(&format!("cb_gateway_worker_inflight{{worker=\"{idx}\"}}"))
                .set(inflight as f64);
        }
    }

    /// Cluster-wide scrape: flushes gateway counters, fans a `Metrics`
    /// RPC to every connected worker, and merges the replies with this
    /// process's own registry. The merge is instance-deduplicated, so a
    /// loopback cluster (gateway and workers sharing one process-global
    /// registry) is counted once while TCP workers sum correctly.
    fn scrape(&self) -> MetricsSnapshot {
        self.publish_metrics();
        let mut waits = Vec::new();
        for slot in self.slots() {
            // A worker whose connection already died cannot reply, and a
            // TCP send to it may still succeed locally: asking would only
            // wait out the RPC timeout.
            if !slot.state.lock().unwrap().connected {
                continue;
            }
            let rpc = self.next_id.fetch_add(1, Ordering::Relaxed);
            let (tx, rx) = channel::bounded(1);
            self.rpcs.lock().unwrap().insert(rpc, tx);
            if slot.send(&Message::Metrics { rpc }).is_err() {
                // Disconnected worker: scrape whoever remains.
                self.rpcs.lock().unwrap().remove(&rpc);
                continue;
            }
            waits.push((rpc, rx));
        }
        let mut replies = Vec::with_capacity(waits.len());
        for (rpc, rx) in waits {
            match rx.recv_timeout(self.cfg.retry.rpc_timeout) {
                Ok(Message::MetricsReply { snapshot, .. }) => {
                    match MetricsSnapshot::decode(&snapshot) {
                        Ok(snap) => replies.push(snap),
                        Err(e) => cb_warn!("gateway", "undecodable metrics reply: {e}"),
                    }
                }
                _ => {
                    self.rpcs.lock().unwrap().remove(&rpc);
                }
            }
        }
        // Snapshot our own registry only after every worker replied: a
        // loopback worker shares it, and its reply is dedup-skipped — its
        // scrape-time flushes must already be visible here.
        let mut merged = Registry::global().snapshot();
        for snap in replies {
            merged.merge(&snap);
        }
        merged
    }

    // --- demux ------------------------------------------------------------

    /// Serves one worker connection of one incarnation. A re-attach bumps
    /// the slot's incarnation and starts a fresh demux thread; this loop
    /// then observes itself superseded and exits, rejecting any frame
    /// still arriving on the old connection.
    fn demux_loop(
        self: Arc<Self>,
        slot: Arc<WorkerSlot>,
        conn: Arc<dyn Transport>,
        incarnation: u64,
    ) {
        let tick = self.cfg.tick();
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let current = slot.incarnation.load(Ordering::Relaxed);
            if current != incarnation {
                return; // Superseded by a re-attach: drop this connection.
            }
            match conn.recv_timeout(tick) {
                Ok(msg) => {
                    // Re-check after the (possibly long) receive: a frame
                    // from a superseded incarnation must not be applied.
                    if slot.incarnation.load(Ordering::Relaxed) != incarnation {
                        return;
                    }
                    self.handle_worker_msg(&slot, msg);
                }
                Err(NetError::Timeout) => {
                    // The periodic sweep: expire heartbeat silence.
                    self.refresh_slot(&slot);
                }
                Err(_) => {
                    self.on_worker_disconnect(&slot, incarnation);
                    return;
                }
            }
        }
    }

    fn handle_worker_msg(self: &Arc<Self>, slot: &Arc<WorkerSlot>, msg: Message) {
        match msg {
            Message::Heartbeat { probe, .. } => {
                {
                    let mut st = slot.state.lock().unwrap();
                    st.probe = probe;
                    st.last_heartbeat = Instant::now();
                }
                self.refresh_slot(slot);
            }
            Message::Rejected { id, probe } => {
                {
                    let mut st = slot.state.lock().unwrap();
                    st.probe = probe;
                }
                self.respill(id, Some(slot.index));
            }
            Message::Ev { id, event, .. } => self.handle_event(slot, id, event.into_event()),
            Message::RegisterReply { rpc, .. }
            | Message::StatusReply { rpc, .. }
            | Message::MetricsReply { rpc, .. }
            | Message::DrainReply { rpc } => {
                if let Some(tx) = self.rpcs.lock().unwrap().remove(&rpc) {
                    let _ = tx.send(msg);
                }
            }
            _ => {} // Frames the gateway never consumes from workers.
        }
    }

    /// Applies one stream event from a worker to its journal entry: runs
    /// the replay filter (suppressing the replayed prefix after a
    /// retry), intercepts retryable terminal failures while retry budget
    /// remains, forwards everything else to the client, and retires the
    /// entry on the first terminal event actually forwarded — exactly
    /// once.
    fn handle_event(self: &Arc<Self>, slot: &Arc<WorkerSlot>, id: u64, ev: Event) {
        // A terminal failure with a retryable code consumes a retry
        // instead of reaching the client, while budget lasts.
        if let Event::Failed(err) = &ev {
            if err.code().retryable() && self.try_retry(id, Some(slot.index)) {
                return;
            }
        }
        let mut pending = self.pending.lock().unwrap();
        let Some(p) = pending.get_mut(&id) else {
            return; // Late event for a resolved/abandoned request.
        };
        if matches!(ev, Event::Queued) && !p.counted {
            p.counted = true;
            let (worker, preferred, chunk_ids) =
                (p.worker, p.preferred, p.request.chunk_ids.clone());
            self.record_admission(worker, preferred, &chunk_ids);
        }
        let forward = match p.filter.admit(&ev) {
            Ok(forward) => forward,
            Err(m) => {
                // Determinism violated: the replay diverged from what the
                // client already saw. Fail the request rather than splice
                // two different answers together — and assert in debug
                // builds, because same-seed replicas make this impossible.
                let _ = p.tx.send(Event::Failed(EngineError::Remote {
                    code: ErrorCode::Corrupt,
                    message: format!("mid-stream retry replay diverged: {m}"),
                }));
                if let Some(p) = pending.remove(&id) {
                    p.close_trace();
                }
                drop(pending); // Release the journal before asserting.
                debug_assert!(false, "mid-stream retry replay diverged: {m}");
                return;
            }
        };
        if !forward {
            return; // Replayed prefix: suppressed, bit-identity verified.
        }
        let terminal = ev.is_terminal();
        let _ = p.tx.send(ev); // Receiver may be gone; fine.
        if terminal {
            if let Some(p) = pending.remove(&id) {
                p.close_trace();
            }
        }
    }

    /// Consumes one retry for journal entry `id` if budget remains:
    /// rewinds the replay filter, waits the policy backoff off-thread,
    /// then re-submits to the next-best healthy worker. Returns `false`
    /// (without touching the entry) when the id is unknown or the budget
    /// is exhausted — the caller decides whether to surface the failure.
    fn try_retry(self: &Arc<Self>, id: u64, exclude: Option<usize>) -> bool {
        let delay = {
            let mut pending = self.pending.lock().unwrap();
            let Some(p) = pending.get_mut(&id) else {
                return false;
            };
            if p.retries >= self.cfg.retry.max_retries {
                return false;
            }
            p.retries += 1;
            p.filter.rewind();
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
            self.cfg.retry.backoff(p.retries)
        };
        let inner = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("cb-net-gw-retry-{id}"))
            .spawn(move || {
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                inner.resubmit(id, exclude);
            });
        if spawned.is_err() {
            self.resubmit(id, exclude); // No thread: retry inline.
        }
        true
    }

    /// The body of a retry after its backoff: picks the next-best
    /// healthy worker (excluding the failed one when another exists) and
    /// re-submits with `blocking: true` so the placement cannot be
    /// refused. No healthy worker — or another death during the send
    /// with the budget spent — fails the entry with a structured error.
    fn resubmit(self: &Arc<Self>, id: u64, exclude: Option<usize>) {
        let target = self
            .least_loaded(exclude)
            .or_else(|| self.least_loaded(None));
        let Some(target) = target else {
            self.fail_pending(id, "no healthy worker remains to retry the request");
            return;
        };
        let (request, trace, span) = {
            let mut pending = self.pending.lock().unwrap();
            let Some(p) = pending.get_mut(&id) else {
                return; // Resolved while the backoff elapsed.
            };
            p.worker = target;
            let span = p.next_attempt(format!("retry#{}", p.retries));
            (WireRequest::from_request(&p.request), p.trace, span)
        };
        cb_debug!("gateway", "retry {id} -> worker {target} trace={trace:#x}");
        let sent = self.slots()[target].send(&Message::Submit {
            id,
            trace,
            span,
            blocking: true,
            request,
        });
        if sent.is_err() && !self.try_retry(id, Some(target)) {
            self.fail_pending(
                id,
                &format!("worker {target} died while the request was being retried"),
            );
        }
    }

    /// Retires journal entry `id` with a structured failure (exactly
    /// once; a no-op if the entry already resolved).
    fn fail_pending(&self, id: u64, why: &str) {
        let removed = self.pending.lock().unwrap().remove(&id);
        if let Some(p) = removed {
            cb_warn!("gateway", "request {id} failed: {why}");
            p.close_trace();
            let _ = p.tx.send(Event::Failed(EngineError::Remote {
                code: ErrorCode::NoHealthyWorker,
                message: why.into(),
            }));
        }
    }

    /// Re-places a pending request after its worker rejected it (or
    /// died). Escalation: first rejection spills to the least-loaded
    /// *other* healthy worker non-blocking; anything further goes to the
    /// best healthy worker with `blocking: true` (cannot be refused). No
    /// healthy worker at all fails the request with a structured error —
    /// never a hang.
    fn respill(&self, id: u64, reject_origin: Option<usize>) {
        let mut pending = self.pending.lock().unwrap();
        let Some(p) = pending.get_mut(&id) else {
            return;
        };
        p.attempts += 1;
        let placement = if p.attempts == 1 {
            match self.least_loaded(reject_origin) {
                Some(t) => {
                    self.stats.spills.fetch_add(1, Ordering::Relaxed);
                    Some((t, false))
                }
                // Nowhere else to go: block at the best healthy worker
                // (usually the origin itself) — uncounted, matching the
                // in-process router's "nowhere to spill" semantics.
                None => self.least_loaded(None).map(|t| (t, true)),
            }
        } else {
            self.least_loaded(None).map(|t| (t, true))
        };
        let Some((target, blocking)) = placement else {
            drop(pending);
            self.fail_pending(id, "request rejected and no healthy worker remains");
            return;
        };
        p.worker = target;
        let request = WireRequest::from_request(&p.request);
        let trace = p.trace;
        let span = p.next_attempt(format!("serve#{}", p.attempts));
        drop(pending);
        cb_debug!(
            "gateway",
            "respill {id} -> worker {target} blocking={blocking}"
        );
        let sent = self.slots()[target].send(&Message::Submit {
            id,
            trace,
            span,
            blocking,
            request,
        });
        if sent.is_err() {
            // Raced a second failure: give up with the structured error.
            self.fail_pending(
                id,
                &format!("worker {target} died while the request respilled"),
            );
        }
    }

    /// Reacts to a connection death — but only if `incarnation` is still
    /// the slot's current one. A superseded connection dying after its
    /// worker already re-attached must not mark the adopted slot down.
    fn on_worker_disconnect(self: &Arc<Self>, slot: &WorkerSlot, incarnation: u64) {
        if self.shutdown.load(Ordering::Relaxed) {
            return; // Normal teardown, not a fault.
        }
        if slot.incarnation.load(Ordering::Relaxed) != incarnation {
            return; // A newer incarnation already adopted the slot.
        }
        {
            let mut st = slot.state.lock().unwrap();
            st.connected = false;
        }
        self.refresh_slot(slot); // Counts the down edge.
                                 // Strand no request on the dead worker: retry everything it
                                 // still owed (the replay filter suppresses whatever prefix the
                                 // client already saw), failing only entries whose retry budget
                                 // is spent.
        let stranded: Vec<u64> = {
            let pending = self.pending.lock().unwrap();
            pending
                .iter()
                .filter(|(_, p)| p.worker == slot.index)
                .map(|(&id, _)| id)
                .collect()
        };
        for id in stranded {
            if !self.try_retry(id, Some(slot.index)) {
                self.fail_pending(
                    id,
                    &format!(
                        "worker {} died and the request's retry budget is spent",
                        slot.index
                    ),
                );
            }
        }
    }

    // --- submission -------------------------------------------------------

    fn submit_stream(&self, request: Request) -> Result<ResponseStream, ClusterError> {
        let Some((Some(target), preferred, rerouted)) = self.decide(&request.chunk_ids) else {
            self.stats.rejections.fetch_add(1, Ordering::Relaxed);
            return Err(ClusterError::NoHealthyReplica);
        };
        if rerouted {
            self.stats.reroutes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(self.place(request, target, preferred, false))
    }

    fn submit_to(&self, worker: usize, request: Request) -> ResponseStream {
        let preferred = self.decide(&request.chunk_ids).map_or(worker, |d| d.1);
        // Pinned placement blocks for queue space (admin tooling and the
        // bench harness drive placement themselves and expect admission).
        self.place(request, worker, preferred, true)
    }

    fn place(
        &self,
        request: Request,
        worker: usize,
        preferred: usize,
        blocking: bool,
    ) -> ResponseStream {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, stream) = ResponseStream::channel();
        let wire = WireRequest::from_request(&request);
        // Every routed request gets a trace: the client's id when it sent
        // one, else one derived from the journal id (always nonzero).
        let trace = if request.trace != 0 {
            request.trace
        } else {
            splitmix64(id ^ TRACE_SALT) | 1
        };
        let root_parent = request.trace_parent;
        let now = cb_obs::now_nanos();
        let root_span = alloc_span_id();
        let attempt_span = alloc_span_id();
        self.pending.lock().unwrap().insert(
            id,
            Pending {
                request,
                tx,
                worker,
                preferred,
                attempts: 0,
                counted: false,
                filter: ReplayFilter::new(),
                retries: 0,
                trace,
                root_span,
                root_parent,
                root_start_ns: now,
                attempt_span,
                attempt_name: "serve#0".into(),
                attempt_start_ns: now,
            },
        );
        cb_debug!("gateway", "place {id} -> worker {worker} trace={trace:#x}");
        let sent = self.slots()[worker].send(&Message::Submit {
            id,
            trace,
            span: attempt_span,
            blocking,
            request: wire,
        });
        if sent.is_err() {
            // The worker died between routing and sending: respill rather
            // than lose the request.
            self.respill(id, Some(worker));
        }
        stream
    }

    // --- RPCs -------------------------------------------------------------

    fn rpc(&self, worker: usize, build: impl FnOnce(u64) -> Message) -> Result<Message, NetError> {
        let rpc = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::bounded(1);
        self.rpcs.lock().unwrap().insert(rpc, tx);
        if let Err(e) = self.slots()[worker].send(&build(rpc)) {
            self.rpcs.lock().unwrap().remove(&rpc);
            return Err(e);
        }
        rx.recv_timeout(self.cfg.retry.rpc_timeout).map_err(|_| {
            self.rpcs.lock().unwrap().remove(&rpc);
            NetError::Timeout
        })
    }

    fn register_chunk_impl(
        &self,
        tokens: &[TokenId],
        eager_at_home: bool,
    ) -> Result<ChunkId, EngineError> {
        if tokens.is_empty() {
            return Err(EngineError::EmptyChunk);
        }
        // Content-addressed ids let the gateway place the chunk before
        // any worker has seen it.
        let id = hash_tokens(tokens);
        let slots = self.slots();
        let Some(home) = home_among(id, slots.len()) else {
            return Err(ClusterError::NoHealthyReplica.into());
        };
        // Fan the registration out, then await every reply: lazy at every
        // worker (any of them can repair a miss by precompute), eager KV
        // precompute + persistent-tier replication only at the home.
        let mut waits = Vec::with_capacity(slots.len());
        for slot in &slots {
            let rpc = self.next_id.fetch_add(1, Ordering::Relaxed);
            let (tx, rx) = channel::bounded(1);
            self.rpcs.lock().unwrap().insert(rpc, tx);
            let msg = Message::RegisterChunk {
                rpc,
                eager: eager_at_home && slot.index == home,
                tokens: tokens.to_vec(),
            };
            if slot.send(&msg).is_err() {
                self.rpcs.lock().unwrap().remove(&rpc);
                return Err(EngineError::Storage(format!(
                    "worker {} unreachable during chunk registration",
                    slot.index
                )));
            }
            waits.push((slot.index, rpc, rx));
        }
        for (index, rpc, rx) in waits {
            let reply = rx.recv_timeout(self.cfg.retry.rpc_timeout).map_err(|_| {
                self.rpcs.lock().unwrap().remove(&rpc);
                EngineError::Storage(format!(
                    "RegisterChunk RPC to worker {index} timed out after {:?}",
                    self.cfg.retry.rpc_timeout
                ))
            })?;
            match reply {
                Message::RegisterReply {
                    result: Ok(raw), ..
                } => {
                    debug_assert_eq!(raw, id.0, "content-addressed ids must agree");
                }
                Message::RegisterReply {
                    result: Err(failure),
                    ..
                } => {
                    return Err(failure.into_error());
                }
                other => {
                    return Err(EngineError::Storage(format!(
                        "worker {index} sent {other:?} instead of a registration reply"
                    )));
                }
            }
        }
        Ok(id)
    }

    // --- client sessions ---------------------------------------------------

    /// Serves one remote client connection: relays submissions through
    /// the router and registration/status RPCs to the cluster.
    fn client_loop(self: Arc<Self>, conn: Arc<dyn Transport>) {
        let tick = self.cfg.tick();
        let mut relays: Vec<JoinHandle<()>> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            match conn.recv_timeout(tick) {
                Ok(Message::Submit {
                    id,
                    trace,
                    span,
                    request,
                    ..
                }) => {
                    let mut request = request.into_request();
                    request.trace = trace;
                    request.trace_parent = span;
                    match self.submit_stream(request) {
                        Ok(stream) => {
                            let conn = Arc::clone(&conn);
                            relays.push(std::thread::spawn(move || {
                                let mut terminal = false;
                                for ev in stream {
                                    terminal = terminal || ev.is_terminal();
                                    let msg = Message::Ev {
                                        id,
                                        trace,
                                        event: WireEvent::from_event(&ev),
                                    };
                                    if conn.send(&msg).is_err() {
                                        return;
                                    }
                                }
                                if !terminal {
                                    let failure = WireFailure::from_error(&EngineError::Canceled);
                                    let _ = conn.send(&Message::Ev {
                                        id,
                                        trace,
                                        event: WireEvent::Failed(failure),
                                    });
                                }
                            }));
                        }
                        Err(e) => {
                            let _ = conn.send(&Message::Ev {
                                id,
                                trace,
                                event: WireEvent::Failed(WireFailure::from_error(&e.into())),
                            });
                        }
                    }
                }
                Ok(Message::Metrics { rpc }) => {
                    let snapshot = self.scrape();
                    let _ = conn.send(&Message::MetricsReply {
                        rpc,
                        snapshot: snapshot.encode(),
                    });
                }
                Ok(Message::RegisterChunk { rpc, eager, tokens }) => {
                    let result = self
                        .register_chunk_impl(&tokens, eager)
                        .map(|id| id.0)
                        .map_err(|e| WireFailure::from_error(&e));
                    let _ = conn.send(&Message::RegisterReply { rpc, result });
                }
                Ok(Message::Status { rpc }) => {
                    let slots = self.slots();
                    let healthy = slots.iter().map(|s| self.refresh_slot(s)).collect();
                    let probes = slots
                        .iter()
                        .map(|s| s.state.lock().unwrap().probe)
                        .collect();
                    let _ = conn.send(&Message::ClusterStatusReply {
                        rpc,
                        healthy,
                        probes,
                    });
                }
                Ok(Message::Shutdown) | Err(NetError::Closed) => break,
                Ok(_) => {}
                Err(NetError::Timeout) => {
                    let (done, live): (Vec<_>, Vec<_>) =
                        relays.drain(..).partition(|h| h.is_finished());
                    for h in done {
                        let _ = h.join();
                    }
                    relays = live;
                }
                Err(_) => break,
            }
        }
        // On a clean client exit, let in-flight relays finish; on gateway
        // shutdown they are detached (the process is going down and their
        // streams may never resolve).
        if !self.shutdown.load(Ordering::Relaxed) {
            for h in relays {
                let _ = h.join();
            }
        }
    }
}

/// The coordinator (see module docs). Dropping it sends `Shutdown` to
/// every worker and joins its demux threads; pending streams close,
/// reporting [`EngineError::Canceled`] to collectors.
pub struct Gateway {
    inner: Arc<GwInner>,
    demux: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("workers", &self.inner.n_workers())
            .finish()
    }
}

impl Gateway {
    /// An empty gateway; attach workers before submitting.
    pub fn new(cfg: GatewayConfig) -> Self {
        Self {
            inner: Arc::new(GwInner {
                cfg,
                workers: RwLock::new(Vec::new()),
                pending: Mutex::new(HashMap::new()),
                rpcs: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(1),
                shutdown: AtomicBool::new(false),
                stats: AtomicClusterStats::default(),
                published: Mutex::new(ClusterStats::default()),
            }),
            demux: Mutex::new(Vec::new()),
        }
    }

    /// Attaches a worker connection: blocks for its `HelloWorker` frame
    /// (so health state is settled when this returns), assigns the next
    /// index — or, for a known identity with a higher incarnation, its
    /// **old** index — and starts the connection's demux thread.
    pub fn attach(&self, conn: Arc<dyn Transport>) -> Result<usize, NetError> {
        match self.accept(conn)? {
            Accepted::Worker(index) => Ok(index),
            Accepted::Client => Err(NetError::Io(
                "expected a HelloWorker frame, got a client hello".into(),
            )),
        }
    }

    /// Starts a [`Worker`] for `service` and attaches it over an
    /// in-process loopback transport, which carries the same encoded
    /// frames a TCP worker sends. Returns the worker (dropping it ends
    /// its session) and its slot index.
    pub fn attach_local(
        &self,
        service: Arc<EngineService>,
        cfg: WorkerConfig,
    ) -> Result<(Worker, usize), NetError> {
        let (worker_end, gateway_end) = loopback_pair();
        let worker = Worker::start(service, Arc::new(worker_end), cfg)?;
        let index = self.attach(Arc::new(gateway_end))?;
        Ok((worker, index))
    }

    /// Restarts a loopback worker the way a dead worker process dials
    /// back: its session is torn down (the gateway observes one failover
    /// edge), then a fresh worker over the same service attaches under
    /// the same id with `incarnation + 1` and adopts `slot` (chunk homes,
    /// admission counters and roster size unchanged; one adoption
    /// counted). The service and its warm cache survive. `cfg`'s
    /// identity is overridden.
    ///
    /// Fails without touching `worker` if `slot` does not hold its
    /// identity. Fails with [`NetError::Timeout`] if the gateway does not
    /// observe the old session's death within
    /// [`GatewayConfig::attach_timeout`], and fails if the re-attach is
    /// refused or lands in another slot; `worker` is then left holding
    /// the replacement.
    pub fn reattach_local(
        &self,
        worker: &mut Worker,
        slot: usize,
        cfg: WorkerConfig,
    ) -> Result<(), NetError> {
        let (id, incarnation) = worker.identity();
        if self.inner.slots().get(slot).map(|s| s.id) != Some(id) {
            return Err(NetError::Io(format!(
                "slot {slot} does not hold worker {id:#018x}"
            )));
        }
        let (worker_end, gateway_end) = loopback_pair();
        let replacement = Worker::start(
            Arc::clone(worker.service()),
            Arc::new(worker_end),
            cfg.identity(id, incarnation + 1),
        )?;
        // Drop the old session and wait until the gateway has observed
        // its death: a restarted process dials back only after its
        // predecessor's connection closed.
        *worker = replacement;
        let deadline = Instant::now() + self.inner.cfg.attach_timeout;
        while self.worker_healthy(slot) {
            if Instant::now() >= deadline {
                return Err(NetError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        match self.attach(Arc::new(gateway_end))? {
            adopted if adopted == slot => Ok(()),
            other => Err(NetError::Io(format!(
                "re-attach landed in slot {other}, not {slot}"
            ))),
        }
    }

    /// Accepts a new connection of any kind: workers are attached (a
    /// known identity with a higher incarnation adopts its old slot),
    /// and clients get a session thread speaking submit/register/status.
    pub fn accept(&self, conn: Arc<dyn Transport>) -> Result<Accepted, NetError> {
        match conn.recv_timeout(self.inner.cfg.attach_timeout)? {
            Message::HelloWorker {
                id,
                incarnation,
                probe,
                ..
            } => {
                let slot = {
                    let mut workers = self.inner.workers.write().unwrap();
                    if let Some(existing) = workers.iter().find(|s| s.id == id) {
                        // Re-attach: adopt the old slot, keeping chunk
                        // homes (same index), admission counters, and the
                        // health edge-detector's memory.
                        let current = existing.incarnation.load(Ordering::Relaxed);
                        if incarnation <= current {
                            return Err(NetError::Io(format!(
                                "stale hello from worker {id:#018x}: \
                                 incarnation {incarnation} does not exceed current {current}"
                            )));
                        }
                        existing.incarnation.store(incarnation, Ordering::Relaxed);
                        *existing.conn.write().unwrap() = Arc::clone(&conn);
                        {
                            let mut st = existing.state.lock().unwrap();
                            st.probe = probe;
                            st.last_heartbeat = Instant::now();
                            st.connected = true;
                        }
                        self.inner.refresh_slot(existing);
                        self.inner.stats.adoptions.fetch_add(1, Ordering::Relaxed);
                        Arc::clone(existing)
                    } else {
                        let index = workers.len();
                        let healthy_now = probe.healthy();
                        let slot = Arc::new(WorkerSlot {
                            index,
                            id,
                            incarnation: AtomicU64::new(incarnation),
                            conn: RwLock::new(Arc::clone(&conn)),
                            admissions: AtomicU64::new(0),
                            state: Mutex::new(SlotState {
                                probe,
                                last_heartbeat: Instant::now(),
                                marked_up: true,
                                connected: true,
                                // Start from the observed state: a worker
                                // that attaches unhealthy is not a failover.
                                was_healthy: healthy_now,
                            }),
                        });
                        workers.push(Arc::clone(&slot));
                        slot
                    }
                };
                let index = slot.index;
                let inner = Arc::clone(&self.inner);
                let handle = std::thread::Builder::new()
                    .name(format!("cb-net-gw-demux-{index}"))
                    .spawn(move || inner.demux_loop(slot, conn, incarnation))
                    .map_err(|e| NetError::Io(e.to_string()))?;
                self.demux.lock().unwrap().push(handle);
                Ok(Accepted::Worker(index))
            }
            Message::HelloClient => {
                let inner = Arc::clone(&self.inner);
                let handle = std::thread::Builder::new()
                    .name("cb-net-gw-client".into())
                    .spawn(move || inner.client_loop(conn))
                    .map_err(|e| NetError::Io(e.to_string()))?;
                self.demux.lock().unwrap().push(handle);
                Ok(Accepted::Client)
            }
            other => Err(NetError::Io(format!(
                "expected a hello frame, got {other:?}"
            ))),
        }
    }

    /// Number of attached workers (healthy or not).
    pub fn n_workers(&self) -> usize {
        self.inner.n_workers()
    }

    /// Marks a worker up or down for routing (operator control / fault
    /// injection). Idempotent: re-marking an already-down worker counts
    /// no additional failover.
    pub fn set_worker_health(&self, index: usize, healthy: bool) {
        let slot = self.inner.slots()[index].clone();
        {
            let mut st = slot.state.lock().unwrap();
            st.marked_up = healthy;
        }
        self.inner.refresh_slot(&slot);
    }

    /// True if worker `index` is currently eligible for routing.
    pub fn worker_healthy(&self, index: usize) -> bool {
        let slot = self.inner.slots()[index].clone();
        self.inner.refresh_slot(&slot)
    }

    /// The identity worker `index` announced in its `HelloWorker` (kept
    /// across re-attaches; a worker process logs it when it attaches).
    pub fn worker_id(&self, index: usize) -> u64 {
        self.inner.slots()[index].id
    }

    /// The stable home worker of a chunk (health never moves homes).
    ///
    /// # Panics
    ///
    /// Panics if no worker has attached yet.
    pub fn home_of(&self, id: ChunkId) -> usize {
        home_among(id, self.n_workers()).expect("home_of needs at least one attached worker")
    }

    /// Routing decision for a chunk set: `(target, rerouted)`, `None` if
    /// no worker is healthy.
    pub fn route(&self, chunk_ids: &[ChunkId]) -> Option<(usize, bool)> {
        let (target, _, rerouted) = self.inner.decide(chunk_ids)?;
        target.map(|t| (t, rerouted))
    }

    /// Registers a chunk cluster-wide: tokens on every worker, the KV
    /// precomputed eagerly (and replicated to the persistent tier) only
    /// at the chunk's home.
    pub fn register_chunk(&self, tokens: &[TokenId]) -> Result<ChunkId, EngineError> {
        self.inner.register_chunk_impl(tokens, true)
    }

    /// Registers a chunk on every worker without precomputing any KV.
    pub fn register_chunk_lazy(&self, tokens: &[TokenId]) -> Result<ChunkId, EngineError> {
        self.inner.register_chunk_impl(tokens, false)
    }

    /// Registers many chunks, returning ids in input order.
    pub fn register_chunks(&self, chunks: &[Vec<TokenId>]) -> Result<Vec<ChunkId>, EngineError> {
        chunks.iter().map(|c| self.register_chunk(c)).collect()
    }

    /// Submits a request through the locality router and returns its
    /// event stream (fed by `Ev` frames as the worker streams them).
    pub fn submit_stream(&self, request: Request) -> Result<ResponseStream, ClusterError> {
        self.inner.submit_stream(request)
    }

    /// Blocking one-shot convenience over [`Gateway::submit_stream`].
    /// Routing failures surface as the structured
    /// [`EngineError::Remote`] with [`ErrorCode::NoHealthyWorker`].
    pub fn submit(&self, request: Request) -> Result<Response, EngineError> {
        self.submit_stream(request)?.collect()
    }

    /// Submits directly to an explicit worker, bypassing the router but
    /// keeping the cluster accounting (admin tooling and the bench
    /// harness drive placement themselves).
    pub fn submit_to(&self, worker: usize, request: Request) -> ResponseStream {
        self.inner.submit_to(worker, request)
    }

    /// Asks every worker to finish all queued work; returns when all have.
    pub fn drain(&self) -> Result<(), NetError> {
        for index in 0..self.n_workers() {
            match self.inner.rpc(index, |rpc| Message::Drain { rpc })? {
                Message::DrainReply { .. } => {}
                other => return Err(NetError::Io(format!("unexpected drain reply {other:?}"))),
            }
        }
        Ok(())
    }

    /// Snapshot of the cluster counters.
    ///
    /// Most of these are also published cluster-wide as
    /// `cb_gateway_*_total` registry series (see [`Gateway::scrape`]), so
    /// one scrape sees retries, failovers, and adoptions next to every
    /// other metric; prefer the scrape for monitoring and keep this
    /// struct for in-process assertions.
    pub fn stats(&self) -> ClusterStats {
        self.inner.stats_snapshot()
    }

    /// Cluster-aggregated metrics: this process's registry (with the
    /// gateway counters freshly published) merged with every connected
    /// worker's, instance-deduplicated so loopback workers sharing the
    /// process-global registry are counted once.
    pub fn scrape(&self) -> MetricsSnapshot {
        self.inner.scrape()
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        for slot in self.inner.slots() {
            let _ = slot.send(&Message::Shutdown);
        }
        let handles: Vec<_> = self.demux.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackTransport;
    use cb_core::engine::EngineBuilder;
    use cb_core::scheduler::{ServiceConfig, ServiceStats};
    use cb_model::ModelProfile;
    use cb_tokenizer::TokenKind::*;
    use cb_tokenizer::Vocab;

    /// A gateway over `n` tiny-model workers, each with `threads`
    /// scheduler threads and an admission queue of `capacity`.
    fn cluster(n: usize, threads: usize, capacity: usize) -> (Gateway, Vec<Worker>) {
        let gw = Gateway::new(GatewayConfig::default());
        let cfg = ServiceConfig::default()
            .workers(threads)
            .queue_capacity(capacity);
        let workers = (0..n)
            .map(|_| {
                let engine = EngineBuilder::new(ModelProfile::Tiny).build().unwrap();
                let service = Arc::new(EngineService::new(engine, cfg));
                gw.attach_local(service, WorkerConfig::default()).unwrap().0
            })
            .collect();
        (gw, workers)
    }

    /// Registers `n` distinct chunks and the cross-chunk query.
    fn scenario(gw: &Gateway, n: usize) -> (Vec<ChunkId>, Vec<TokenId>) {
        let v = Vocab::default_eval();
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
        let ids = gw.register_chunks(&chunks).unwrap();
        let q = vec![v.id(Query), v.id(Entity(0)), v.id(Attr(0)), v.id(QMark)];
        (ids, q)
    }

    fn req(ids: &[ChunkId], q: &[TokenId]) -> Request {
        Request::new(ids.to_vec(), q.to_vec())
            .ratio(0.45)
            .max_new_tokens(2)
    }

    /// The locality-preferred worker for a chunk set (health ignored).
    fn preferred(gw: &Gateway, chunk_ids: &[ChunkId]) -> usize {
        gw.inner.decide(chunk_ids).unwrap().1
    }

    #[test]
    fn homes_are_stable_and_roughly_balanced() {
        let (a, _wa) = cluster(4, 0, 4);
        let (b, _wb) = cluster(4, 0, 4);
        let mut per_worker = [0usize; 4];
        for i in 0..1000u64 {
            let id = ChunkId(splitmix64(i));
            assert_eq!(a.home_of(id), b.home_of(id), "homes depend only on n");
            per_worker[a.home_of(id)] += 1;
        }
        for (r, &n) in per_worker.iter().enumerate() {
            assert!(
                (150..=350).contains(&n),
                "worker {r} homes {n}/1000 chunks — rendezvous should balance"
            );
        }
    }

    #[test]
    fn route_prefers_the_majority_home() {
        let (gw, _workers) = cluster(3, 0, 4);
        // Build a set where one worker is home to most chunks.
        let ids: Vec<ChunkId> = (0..64).map(|i| ChunkId(splitmix64(1000 + i))).collect();
        let target = gw.home_of(ids[0]);
        let mut set: Vec<ChunkId> = ids
            .iter()
            .copied()
            .filter(|&c| gw.home_of(c) == target)
            .take(3)
            .collect();
        set.push(*ids.iter().find(|&&c| gw.home_of(c) != target).unwrap());
        // 0-thread workers are unhealthy, so route() falls back — use the
        // preference, which ignores health.
        assert_eq!(preferred(&gw, &set), target);
        // Order-independence: shuffling the set does not change the pick.
        set.reverse();
        assert_eq!(preferred(&gw, &set), target);
    }

    #[test]
    fn cluster_serves_requests_and_reports_locality() {
        let (gw, workers) = cluster(2, 1, 8);
        let (ids, q) = scenario(&gw, 6);
        for i in 0..12 {
            let set = vec![ids[i % 6], ids[(i + 1) % 6], ids[(i + 2) % 6]];
            let resp = gw.submit(req(&set, &q)).unwrap();
            assert!(resp.blend.stats.ctx_len > 0, "request really blended");
        }
        let st = gw.stats();
        assert_eq!(st.total_requests, 12);
        assert_eq!(st.admissions.iter().sum::<u64>(), 12);
        assert_eq!(st.spills, 0, "unloaded cluster never spills");
        assert_eq!(st.failovers, 0);
        assert_eq!(st.reroutes, 0);
        assert_eq!(
            st.request_locality_rate(),
            1.0,
            "every request served at its preferred worker"
        );
        assert!(
            st.locality_hit_rate() > 0.5,
            "majority voting keeps most chunks home"
        );
        let completed: u64 = workers.iter().map(|w| w.service().stats().completed).sum();
        assert_eq!(completed, 12);
    }

    #[test]
    fn eager_registration_warms_only_the_home_replica() {
        let (gw, workers) = cluster(3, 1, 8);
        let (ids, _) = scenario(&gw, 8);
        for &id in &ids {
            let home = gw.home_of(id);
            for (r, w) in workers.iter().enumerate() {
                assert_eq!(
                    w.service().engine().store().contains(id),
                    r == home,
                    "chunk {id:?} must be cached exactly at home worker {home}"
                );
                assert_eq!(w.service().engine().registered_chunks(), 8);
            }
        }
    }

    #[test]
    fn downed_replica_triggers_failover_and_recovers() {
        let (gw, _workers) = cluster(2, 1, 8);
        let (ids, q) = scenario(&gw, 4);
        let set = vec![ids[0], ids[1]];
        let preferred = preferred(&gw, &set);
        gw.set_worker_health(preferred, false);
        let resp = gw.submit(req(&set, &q)).unwrap();
        assert!(!resp.answer.is_empty(), "failover still serves");
        let st = gw.stats();
        assert_eq!(st.failovers, 1, "one down-transition, counted once");
        assert_eq!(st.reroutes, 1, "the request was placed away from home");
        assert_eq!(st.admissions[preferred], 0);
        assert_eq!(st.admissions[1 - preferred], 1);

        // Re-observing the downed worker (routing probes, health checks)
        // must not inflate the failover count: it is edge-triggered.
        assert!(!gw.worker_healthy(preferred));
        assert!(!gw.worker_healthy(preferred));
        assert_eq!(gw.stats().failovers, 1);

        gw.set_worker_health(preferred, true);
        gw.submit(req(&set, &q)).unwrap();
        assert_eq!(
            gw.stats().admissions[preferred],
            1,
            "recovered worker gets its traffic back"
        );
        assert_eq!(gw.stats().failovers, 1, "recovery is not a failover");
    }

    #[test]
    fn no_healthy_replica_is_reported() {
        let (gw, _workers) = cluster(2, 1, 4);
        let (ids, q) = scenario(&gw, 2);
        gw.set_worker_health(0, false);
        gw.set_worker_health(1, false);
        let err = gw.submit_stream(req(&ids, &q)).unwrap_err();
        assert_eq!(err, ClusterError::NoHealthyReplica);
        assert_eq!(gw.stats().rejections, 1);
        // The blocking path surfaces the structured remote error, keeping
        // the code and human-readable detail across the service boundary.
        match gw.submit(req(&ids, &q)).unwrap_err() {
            EngineError::Remote { code, message } => {
                assert_eq!(code, ErrorCode::NoHealthyWorker);
                assert!(!message.is_empty(), "error detail must survive");
            }
            other => panic!("expected a structured remote error, got {other:?}"),
        }
    }

    #[test]
    fn zero_worker_replicas_are_unhealthy_by_probe() {
        let (gw, _workers) = cluster(2, 0, 4);
        assert!(!gw.worker_healthy(0));
        assert!(!gw.worker_healthy(1));
        let (ids, q) = scenario(&gw, 2);
        let err = gw.submit_stream(req(&ids, &q)).unwrap_err();
        assert_eq!(err, ClusterError::NoHealthyReplica);
    }

    #[test]
    fn bounced_replica_adopts_its_slot_and_keeps_homes() {
        let (gw, mut workers) = cluster(2, 1, 8);
        let (ids, q) = scenario(&gw, 6);
        let homes: Vec<usize> = ids.iter().map(|&id| gw.home_of(id)).collect();
        gw.submit(req(&ids[..1], &q)).unwrap();
        let (id, incarnation) = workers[0].identity();
        gw.reattach_local(&mut workers[0], 0, WorkerConfig::default())
            .unwrap();
        assert_eq!(workers[0].identity(), (id, incarnation + 1));
        assert_eq!(gw.n_workers(), 2, "the roster must not grow");
        let st = gw.stats();
        assert_eq!(st.adoptions, 1, "exactly one adoption");
        assert_eq!(st.failovers, 1, "the death was observed as one edge");
        assert_eq!(
            ids.iter().map(|&id| gw.home_of(id)).collect::<Vec<_>>(),
            homes,
            "chunk homes survive the bounce"
        );
        // The bounced worker serves again immediately (hello carried a
        // fresh probe, so no heartbeat wait).
        let resp = gw.submit(req(&ids[..1], &q)).unwrap();
        assert!(!resp.answer.is_empty(), "adopted worker still serves");
        assert_eq!(gw.stats().failovers, 1, "re-attach is not another edge");

        // A slot that does not hold the worker's identity is refused
        // before the worker is touched.
        let before = workers[0].identity();
        assert!(gw
            .reattach_local(&mut workers[0], 1, WorkerConfig::default())
            .is_err());
        assert_eq!(workers[0].identity(), before);
    }

    #[test]
    fn queue_full_spills_to_the_least_loaded_replica() {
        // Tiny queues: flood the preferred worker's queue through the
        // gateway until an admission observes QueueFull and spills. The
        // flood is retried because the 1-thread worker drains between
        // probes — the loop is bounded and the outcome asserted exactly.
        let (gw, _workers) = cluster(2, 1, 1);
        let (ids, q) = scenario(&gw, 4);
        let set = vec![ids[0], ids[1]];
        let mk = || {
            Request::new(set.clone(), q.clone())
                .ratio(0.45)
                .max_new_tokens(8)
        };
        let mut streams = Vec::new();
        for _ in 0..64 {
            streams.push(gw.submit_stream(mk()).unwrap());
            if gw.stats().spills > 0 {
                break;
            }
        }
        // Spills are observed asynchronously (the rejection travels back
        // over the wire), so settle the cluster before asserting.
        for s in streams {
            s.collect().expect("every admitted request completes");
        }
        let st = gw.stats();
        assert!(
            st.spills > 0,
            "a capacity-1 queue must overflow under a 64-request flood"
        );
        assert!(
            st.admissions.iter().all(|&a| a > 0),
            "spill placed work on the alternate worker: {:?}",
            st.admissions
        );
    }

    #[test]
    fn least_loaded_breaks_ties_low_and_skips_excluded_and_unhealthy() {
        let gw = Gateway::new(GatewayConfig::default());
        assert_eq!(gw.inner.least_loaded(None), None, "empty roster");
        // Engine-less workers announcing fixed loads. They never
        // heartbeat, so their health holds for the default 5 s timeout.
        let _conns: Vec<LoopbackTransport> = [3, 1, 1, 2]
            .into_iter()
            .enumerate()
            .map(|(id, queue_depth)| {
                let (worker_end, gateway_end) = loopback_pair();
                let probe = ServiceProbe {
                    queue_depth,
                    queue_capacity: 32,
                    workers: 1,
                    ..ServiceProbe::default()
                };
                let hello = Message::HelloWorker {
                    id: id as u64,
                    incarnation: 1,
                    probe,
                    stats: ServiceStats::default(),
                };
                worker_end.send(&hello).unwrap();
                gw.attach(Arc::new(gateway_end)).unwrap();
                worker_end
            })
            .collect();
        // Workers 1 and 2 tie at load 1: the lower index wins.
        assert_eq!(gw.inner.least_loaded(None), Some(1));
        assert_eq!(gw.inner.least_loaded(Some(1)), Some(2));
        gw.set_worker_health(1, false);
        assert_eq!(gw.inner.least_loaded(None), Some(2));
        assert_eq!(gw.inner.least_loaded(Some(2)), Some(3));
        gw.set_worker_health(2, false);
        gw.set_worker_health(3, false);
        assert_eq!(gw.inner.least_loaded(None), Some(0));
        assert_eq!(gw.inner.least_loaded(Some(0)), None);
    }
}
