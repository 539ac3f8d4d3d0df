//! The persistent scheduler: [`EngineService`] owns a long-lived worker
//! pool over a shared [`Engine`] handle and serves streaming responses.
//!
//! Where [`Engine::submit`] is one-shot and synchronous, the service is a
//! request-lifecycle front end for continuous serving:
//!
//! - **Bounded admission queue** with two lanes ([`Priority::High`] /
//!   [`Priority::Normal`]), FIFO within a lane. A full queue pushes back:
//!   [`EngineService::try_submit_stream`] returns
//!   [`TrySubmitError::QueueFull`] (returning the request to the caller),
//!   while [`EngineService::submit_stream`] blocks until space frees.
//! - **Anti-starvation**: after [`ServiceConfig::fair_burst`] consecutive
//!   high-lane dispatches while normal work waits, the next dispatch comes
//!   from the normal lane, so neither lane starves.
//! - **Streaming**: every submission returns a [`ResponseStream`] yielding
//!   [`Event`]s (`Queued → Admitted → FirstToken → Token* → Done`);
//!   `ResponseStream::collect()` recovers the one-shot shape.
//! - **Observability**: [`ServiceStats`] counts submissions, rejections,
//!   completions, failures, TTFT-deadline misses, and the peak queue
//!   depth.
//! - **Continuous batching** ([`ServiceConfig::decode_batch`] ≥ 2):
//!   workers run only the blend/prefill half of a request and hand the
//!   prefilled sequence to a dedicated decoder thread stepping a shared
//!   [`cb_model::DecodeBatch`]. Sequences join and leave the running
//!   batch between decode iterations, so one request's recompute overlaps
//!   another's decode. Batched decode is bit-identical to the sequential
//!   path and per-request event order is unchanged.
//!
//! Workers drain the queue on shutdown ([`EngineService`]'s `Drop` joins
//! them, then the decoder), so every accepted request reaches a terminal
//! event as long as at least one worker exists.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cb_model::{DecodeBatch, KvCache, SeqId};
use cb_obs::metrics::{Counter, Gauge, Histogram, Registry};
use cb_obs::trace::{Span, TraceContext};
use crossbeam::channel::{self, Receiver, Sender};

use crate::engine::{Engine, EngineError, Prefilled, Priority, Request, Response};
use crate::stream::{Event, ResponseStream};

/// Cached handles into the process-global metrics registry. Every
/// [`EngineService`] in the process bumps the same series — the registry
/// view is the process total, while [`ServiceStats`] stays the
/// authoritative *per-service* count (cluster tests and routers read
/// those; one scrape reads these).
struct SchedObs {
    submitted: Arc<Counter>,
    rejected: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    canceled: Arc<Counter>,
    deadline_misses: Arc<Counter>,
    tokens: Arc<Counter>,
    queue_wait: Arc<Histogram>,
    ttft: Arc<Histogram>,
    ttft_load_wait: Arc<Histogram>,
    ttft_recompute: Arc<Histogram>,
    ttft_precompute: Arc<Histogram>,
    decode_token: Arc<Histogram>,
    request: Arc<Histogram>,
    batch_occupancy: Arc<Gauge>,
    decode_step: Arc<Histogram>,
}

fn sched_obs() -> &'static SchedObs {
    static OBS: OnceLock<SchedObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = Registry::global();
        SchedObs {
            submitted: r.counter("cb_requests_submitted_total"),
            rejected: r.counter("cb_requests_rejected_total"),
            completed: r.counter("cb_requests_completed_total"),
            failed: r.counter("cb_requests_failed_total"),
            canceled: r.counter("cb_requests_canceled_total"),
            deadline_misses: r.counter("cb_deadline_misses_total"),
            tokens: r.counter("cb_tokens_total"),
            queue_wait: r.histogram("cb_queue_wait_seconds"),
            ttft: r.histogram("cb_ttft_seconds"),
            ttft_load_wait: r.histogram("cb_ttft_load_wait_seconds"),
            ttft_recompute: r.histogram("cb_ttft_recompute_seconds"),
            ttft_precompute: r.histogram("cb_ttft_precompute_seconds"),
            decode_token: r.histogram("cb_decode_token_seconds"),
            request: r.histogram("cb_request_seconds"),
            batch_occupancy: r.gauge("cb_batch_occupancy"),
            decode_step: r.histogram("cb_decode_step_seconds"),
        }
    })
}

/// Configuration of an [`EngineService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads serving the queue. `0` creates a *paused* service
    /// whose queue never drains — useful for testing admission
    /// backpressure deterministically (pair with
    /// [`EngineService::try_submit_stream`]; a blocking submit against a
    /// full paused queue would wait forever).
    pub workers: usize,
    /// Maximum requests waiting across both lanes (admitted-but-running
    /// requests do not count).
    pub queue_capacity: usize,
    /// Consecutive high-lane dispatches allowed while normal-lane work is
    /// waiting before one normal request is dispatched.
    pub fair_burst: usize,
    /// Width of the continuous decode batch. `1` (the default) decodes
    /// each request on the worker that prefilled it — the classic path.
    /// `n ≥ 2` routes prefilled requests to a dedicated decoder thread
    /// that steps up to `n` sequences in lockstep, admitting and retiring
    /// between iterations.
    pub decode_batch: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(4),
            queue_capacity: 64,
            fair_burst: 4,
            decode_batch: 1,
        }
    }
}

impl ServiceConfig {
    /// Sets the worker-thread count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Sets the admission-queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero (a zero-capacity queue could admit nothing).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        assert!(n > 0, "queue capacity must be positive");
        self.queue_capacity = n;
        self
    }

    /// Sets the anti-starvation burst length.
    pub fn fair_burst(mut self, n: usize) -> Self {
        self.fair_burst = n;
        self
    }

    /// Sets the continuous decode-batch width (see
    /// [`ServiceConfig::decode_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero (a zero-wide batch could decode nothing).
    pub fn decode_batch(mut self, n: usize) -> Self {
        assert!(n > 0, "decode batch width must be positive");
        self.decode_batch = n;
        self
    }
}

/// Error returned by [`EngineService::try_submit_stream`].
#[derive(Debug)]
pub enum TrySubmitError {
    /// The admission queue is at capacity; the request is handed back so
    /// the caller can retry, shed, or block.
    QueueFull(Request),
}

impl std::fmt::Display for TrySubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::QueueFull(_) => write!(f, "admission queue is full"),
        }
    }
}

impl std::error::Error for TrySubmitError {}

/// Counters of a service's lifetime (monotone; read with
/// [`EngineService::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests rejected with [`TrySubmitError::QueueFull`].
    pub rejected: u64,
    /// Requests that reached [`Event::Done`].
    pub completed: u64,
    /// Requests that reached [`Event::Failed`].
    pub failed: u64,
    /// Requests whose first token arrived after their
    /// [`Request::deadline`] — or that went terminal (failed, canceled)
    /// without ever producing a first token once the deadline had passed.
    pub deadline_misses: u64,
    /// Requests skipped because the client dropped the
    /// [`ResponseStream`] while they were still queued.
    pub canceled: u64,
    /// Highest number of requests simultaneously waiting in the queue.
    pub peak_queue_depth: u64,
}

#[derive(Debug, Default)]
struct AtomicStats {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    deadline_misses: AtomicU64,
    canceled: AtomicU64,
    peak_queue_depth: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            canceled: self.canceled.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
        }
    }
}

/// Non-blocking snapshot of a service's instantaneous load, taken with
/// [`EngineService::probe`]. Routers (the cluster front end) read these to
/// pick a replica without ever waiting on admission: the probe never
/// blocks for queue space, only for the brief scheduler mutex.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceProbe {
    /// Requests waiting in the admission queue right now.
    pub queue_depth: usize,
    /// The queue's configured capacity.
    pub queue_capacity: usize,
    /// Requests admitted to a worker but not yet terminal.
    pub inflight: usize,
    /// Worker threads serving the queue.
    pub workers: usize,
    /// True once the service has begun shutting down.
    pub shutdown: bool,
}

impl ServiceProbe {
    /// True if a `try_submit_stream` right now would be rejected.
    pub fn queue_full(&self) -> bool {
        self.queue_depth >= self.queue_capacity
    }

    /// Requests this service currently owes (queued + in flight) — the
    /// load metric the cluster router minimizes when spilling.
    pub fn load(&self) -> usize {
        self.queue_depth + self.inflight
    }

    /// True if the service can still make progress on new work.
    pub fn healthy(&self) -> bool {
        self.workers > 0 && !self.shutdown
    }
}

/// Two FIFO lanes with a total capacity and an anti-starvation dispatch
/// rule: at most `fair_burst` consecutive high-lane pops while the normal
/// lane is non-empty.
#[derive(Debug)]
struct LaneQueue<T> {
    high: VecDeque<T>,
    normal: VecDeque<T>,
    capacity: usize,
    fair_burst: usize,
    high_streak: usize,
}

impl<T> LaneQueue<T> {
    fn new(capacity: usize, fair_burst: usize) -> Self {
        Self {
            high: VecDeque::new(),
            normal: VecDeque::new(),
            capacity,
            fair_burst,
            high_streak: 0,
        }
    }

    fn len(&self) -> usize {
        self.high.len() + self.normal.len()
    }

    fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Enqueues into the lane for `priority`, or hands the item back when
    /// at capacity.
    fn push(&mut self, priority: Priority, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        match priority {
            Priority::High => self.high.push_back(item),
            Priority::Normal => self.normal.push_back(item),
        }
        Ok(())
    }

    /// Dispatches the next item under the fairness rule.
    ///
    /// Invariant: while the normal lane stays non-empty, at most
    /// `fair_burst` consecutive pops come from the high lane. The streak
    /// therefore only accumulates while normal-lane work is actually
    /// waiting, and resets on every path that cannot starve anyone: a pop
    /// with the normal lane empty (no one is waiting) and a pop that
    /// serves the normal lane (the wait ended). Missing either reset was
    /// the failure mode audited here — a stale streak would either tax
    /// high-lane bursts that starved no one, or let a drained-then-refilled
    /// normal lane wait longer than a burst.
    fn pop(&mut self) -> Option<T> {
        if self.normal.is_empty() {
            self.high_streak = 0;
            return self.high.pop_front();
        }
        if self.high.is_empty() || self.high_streak >= self.fair_burst {
            self.high_streak = 0;
            return self.normal.pop_front();
        }
        self.high_streak += 1;
        self.high.pop_front()
    }
}

/// One queued request plus its event channel.
#[derive(Debug)]
struct Job {
    request: Request,
    tx: Sender<Event>,
    enqueued: Instant,
}

#[derive(Debug)]
struct SchedState {
    queue: LaneQueue<Job>,
    shutdown: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<SchedState>,
    /// Workers wait here for jobs (or shutdown).
    jobs_cv: Condvar,
    /// Blocking submitters wait here for queue space.
    space_cv: Condvar,
    stats: AtomicStats,
    /// Jobs popped by a worker but not yet terminal (see
    /// [`ServiceProbe::inflight`]).
    inflight: AtomicU64,
}

/// The persistent streaming scheduler over an [`Engine`]. See the module
/// docs for the lifecycle; dropping the service shuts the pool down after
/// draining the queue.
#[derive(Debug)]
pub struct EngineService {
    engine: Engine,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    decoder: Option<JoinHandle<()>>,
}

impl EngineService {
    /// Starts the service: spawns `cfg.workers` threads, each holding a
    /// clone of `engine` (clones share the store, registry, and model).
    /// With [`ServiceConfig::decode_batch`] ≥ 2 a decoder thread is also
    /// spawned; workers then prefill and hand sequences to it.
    pub fn new(engine: Engine, cfg: ServiceConfig) -> Self {
        // At most one request per worker and one per batch slot holds a
        // fused cache, so that many caches' layers are worth keeping for
        // reuse (`Engine::recycle`); more could only sit idle.
        engine
            .layer_pool()
            .raise_bound((cfg.workers + cfg.decode_batch) * engine.model().n_layers());
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                queue: LaneQueue::new(cfg.queue_capacity.max(1), cfg.fair_burst.max(1)),
                shutdown: false,
            }),
            jobs_cv: Condvar::new(),
            space_cv: Condvar::new(),
            stats: AtomicStats::default(),
            inflight: AtomicU64::new(0),
        });
        let (batch_tx, decoder) = if cfg.decode_batch > 1 && cfg.workers > 0 {
            let (tx, rx) = channel::unbounded();
            let engine = engine.clone();
            let shared = shared.clone();
            let cap = cfg.decode_batch;
            let handle = std::thread::spawn(move || decoder_loop(engine, shared, rx, cap));
            (Some(tx), Some(handle))
        } else {
            (None, None)
        };
        let workers = (0..cfg.workers)
            .map(|_| {
                let engine = engine.clone();
                let shared = shared.clone();
                let batch_tx = batch_tx.clone();
                std::thread::spawn(move || worker_loop(engine, shared, batch_tx))
            })
            .collect();
        // Only workers hold handoff senders (`batch_tx` drops here), so
        // the decoder's receiver disconnects exactly when the last worker
        // exits — it then drains its batch and terminates.
        drop(batch_tx);
        Self {
            engine,
            shared,
            workers,
            decoder,
        }
    }

    /// The engine this service schedules over (register chunks here).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Submits a request, blocking while the admission queue is full, and
    /// returns its event stream. The stream's first event is
    /// [`Event::Queued`].
    pub fn submit_stream(&self, request: Request) -> ResponseStream {
        let (tx, rx) = channel::unbounded();
        let mut st = self.shared.state.lock().unwrap();
        loop {
            if st.shutdown {
                // tx drops here: the stream closes without a terminal
                // event and collect() reports Canceled.
                return ResponseStream::new(rx);
            }
            if !st.queue.is_full() {
                break;
            }
            st = self.shared.space_cv.wait(st).unwrap();
        }
        let _ = tx.send(Event::Queued);
        self.enqueue_locked(&mut st, request, tx);
        drop(st);
        self.shared.jobs_cv.notify_one();
        ResponseStream::new(rx)
    }

    /// Non-blocking submit: on a full queue the request is handed back in
    /// [`TrySubmitError::QueueFull`] instead of waiting.
    pub fn try_submit_stream(&self, request: Request) -> Result<ResponseStream, TrySubmitError> {
        let (tx, rx) = channel::unbounded();
        let mut st = self.shared.state.lock().unwrap();
        if st.queue.is_full() || st.shutdown {
            self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            sched_obs().rejected.inc();
            return Err(TrySubmitError::QueueFull(request));
        }
        let _ = tx.send(Event::Queued);
        self.enqueue_locked(&mut st, request, tx);
        drop(st);
        self.shared.jobs_cv.notify_one();
        Ok(ResponseStream::new(rx))
    }

    fn enqueue_locked(&self, st: &mut SchedState, request: Request, tx: Sender<Event>) {
        let priority = request.priority;
        let job = Job {
            request,
            tx,
            enqueued: Instant::now(),
        };
        st.queue
            .push(priority, job)
            .unwrap_or_else(|_| unreachable!("capacity checked under the same lock"));
        let stats = &self.shared.stats;
        stats.submitted.fetch_add(1, Ordering::Relaxed);
        sched_obs().submitted.inc();
        stats
            .peak_queue_depth
            .fetch_max(st.queue.len() as u64, Ordering::Relaxed);
    }

    /// Blocking one-shot convenience: `submit_stream(request).collect()`.
    pub fn submit(&self, request: Request) -> Result<Response, EngineError> {
        self.submit_stream(request).collect()
    }

    /// Requests currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Non-blocking load/health snapshot (see [`ServiceProbe`]). The
    /// cluster router calls this on every spill decision, so it must never
    /// wait on queue space — it only takes the scheduler mutex briefly.
    pub fn probe(&self) -> ServiceProbe {
        let st = self.shared.state.lock().unwrap();
        ServiceProbe {
            queue_depth: st.queue.len(),
            queue_capacity: st.queue.capacity,
            inflight: self.shared.inflight.load(Ordering::Relaxed) as usize,
            workers: self.workers.len(),
            shutdown: st.shutdown,
        }
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats.snapshot()
    }
}

impl Drop for EngineService {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.jobs_cv.notify_all();
        self.shared.space_cv.notify_all();
        // Workers first: they drain the queue (possibly handing more
        // sequences to the decoder) and drop their handoff senders on
        // exit. Only then can the decoder observe disconnection, finish
        // the in-flight batch, and return.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(d) = self.decoder.take() {
            let _ = d.join();
        }
    }
}

/// Records a TTFT-deadline miss for one retiring request. A deadlined
/// request misses when its first token arrived late — or, if it went
/// terminal (failed, canceled) without ever producing a first token, when
/// the deadline had already passed by then. The second arm is what keeps
/// the miss count honest under failure: a request that blows through its
/// deadline and *then* errors out used to vanish from the count entirely,
/// which made an overloaded, failing service look like it was meeting
/// latency targets.
fn note_deadline(
    shared: &Shared,
    obs: &SchedObs,
    deadline: Option<Duration>,
    enqueued: Instant,
    first_token_at: Option<Instant>,
) {
    let Some(deadline) = deadline else { return };
    let missed = match first_token_at {
        Some(at) => at.duration_since(enqueued) > deadline,
        None => enqueued.elapsed() > deadline,
    };
    if missed {
        shared.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
        obs.deadline_misses.inc();
    }
}

fn worker_loop(engine: Engine, shared: Arc<Shared>, batch_tx: Option<Sender<DecodeHandoff>>) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(job) = st.queue.pop() {
                    // Counted in flight while the queue lock is still held,
                    // so a probe never sees the job in neither place.
                    shared.inflight.fetch_add(1, Ordering::Relaxed);
                    shared.space_cv.notify_one();
                    break Some(job);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.jobs_cv.wait(st).unwrap();
            }
        };
        let Some(job) = job else { return };
        let obs = sched_obs();
        let queue_wait = job.enqueued.elapsed();
        obs.queue_wait.record_duration(queue_wait);
        // Bind this request's trace to the worker thread so the queue
        // span, the serve span, and the engine's phase spans all land on
        // one timeline (the guard unbinds when the request retires).
        let _trace = TraceContext::enter(job.request.trace, job.request.trace_parent);
        if job.request.trace != 0 {
            let end = cb_obs::now_nanos();
            cb_obs::trace::record_span(
                job.request.trace,
                job.request.trace_parent,
                "queue",
                end.saturating_sub(queue_wait.as_nanos() as u64),
                end,
            );
        }
        // If the client already dropped the stream, skip the blend — no
        // one is listening, and the lane is better spent on live requests.
        if job.tx.send(Event::Admitted).is_err() {
            note_deadline(&shared, obs, job.request.deadline, job.enqueued, None);
            shared.stats.canceled.fetch_add(1, Ordering::Relaxed);
            obs.canceled.inc();
            shared.inflight.fetch_sub(1, Ordering::Relaxed);
            continue;
        }
        if let Some(batch_tx) = &batch_tx {
            // Batched mode: this worker only runs the blend/prefill, then
            // hands the sequence to the decoder thread. While the decoder
            // steps other requests' tokens, this worker is already
            // prefilling the next request — that overlap is the whole
            // point of continuous batching.
            let serve_span = Span::begin("prefill");
            let served_at = Instant::now();
            let mut first_token_at = None;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.prefill_streaming(&job.request, &mut |event| {
                    if let Event::FirstToken(ttft) = &event {
                        if first_token_at.is_none() {
                            let now = Instant::now();
                            first_token_at = Some(now);
                            obs.ttft.record_duration(now.duration_since(job.enqueued));
                            obs.ttft_load_wait.record_duration(ttft.load_wait);
                            obs.ttft_recompute.record_duration(ttft.recompute);
                            obs.ttft_precompute.record_duration(ttft.precompute);
                        }
                    }
                    let _ = job.tx.send(event);
                })
            }))
            .unwrap_or(Err(EngineError::Panicked));
            note_deadline(
                &shared,
                obs,
                job.request.deadline,
                job.enqueued,
                first_token_at,
            );
            serve_span.end();
            match result {
                Ok(prefilled) => {
                    let handoff = DecodeHandoff {
                        prefilled,
                        tx: job.tx,
                        served_at,
                        first_token_at,
                        trace: job.request.trace,
                        trace_parent: job.request.trace_parent,
                    };
                    // The decoder owns the request from here: it
                    // decrements inflight and sends the terminal event at
                    // retire. A send can only fail during a shutdown race;
                    // dropping the handoff closes the stream, which
                    // clients observe as Canceled — same as a request
                    // still queued at shutdown.
                    if batch_tx.send(handoff).is_err() {
                        shared.stats.canceled.fetch_add(1, Ordering::Relaxed);
                        obs.canceled.inc();
                        shared.inflight.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                Err(err) => {
                    obs.request.record_duration(served_at.elapsed());
                    shared.inflight.fetch_sub(1, Ordering::Relaxed);
                    shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                    obs.failed.inc();
                    let _ = job.tx.send(Event::Failed(err));
                }
            }
            continue;
        }
        let serve_span = Span::begin("serve");
        let served_at = Instant::now();
        let mut first_token_at = None;
        let mut last_token_at: Option<Instant> = None;
        // A panic anywhere in the blend/decode path must not kill the
        // worker — that would silently shrink the pool and leave queued
        // streams hanging. Contain it and fail only this request.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.submit_streaming(&job.request, &mut |event| {
                match &event {
                    Event::FirstToken(ttft) if first_token_at.is_none() => {
                        let now = Instant::now();
                        first_token_at = Some(now);
                        last_token_at = Some(now);
                        obs.ttft.record_duration(now.duration_since(job.enqueued));
                        obs.ttft_load_wait.record_duration(ttft.load_wait);
                        obs.ttft_recompute.record_duration(ttft.recompute);
                        obs.ttft_precompute.record_duration(ttft.precompute);
                    }
                    Event::Token(_) => {
                        let now = Instant::now();
                        if let Some(prev) = last_token_at.replace(now) {
                            obs.decode_token.record_duration(now.duration_since(prev));
                        }
                        obs.tokens.inc();
                    }
                    _ => {}
                }
                let _ = job.tx.send(event);
            })
        }))
        .unwrap_or(Err(EngineError::Panicked));
        note_deadline(
            &shared,
            obs,
            job.request.deadline,
            job.enqueued,
            first_token_at,
        );
        obs.request.record_duration(served_at.elapsed());
        serve_span.end();
        // Decremented before the terminal event goes out: a client that
        // observed Done/Failed must never still see the request in flight.
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
        match result {
            Ok(resp) => {
                shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                obs.completed.inc();
                let _ = job.tx.send(Event::Done(resp));
            }
            Err(err) => {
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                obs.failed.inc();
                let _ = job.tx.send(Event::Failed(err));
            }
        }
    }
}

/// A prefilled request handed from a worker to the decoder thread, ready
/// to join the continuous batch.
struct DecodeHandoff {
    prefilled: Prefilled,
    tx: Sender<Event>,
    served_at: Instant,
    first_token_at: Option<Instant>,
    trace: u64,
    trace_parent: u64,
}

/// Per-sequence bookkeeping while a request decodes inside the shared
/// batch.
struct DecodeCtx {
    prefilled: Prefilled,
    tx: Sender<Event>,
    served_at: Instant,
    last_token_at: Instant,
    decode_started: Instant,
    decode_start_ns: u64,
    /// Pre-allocated span id for the request's `decode` span, so per-step
    /// spans can parent onto it before it is recorded at retire. Zero for
    /// untraced requests.
    decode_span: u64,
    trace: u64,
    trace_parent: u64,
}

fn admit_handoff(
    engine: &Engine,
    batch: &mut DecodeBatch,
    slots: &mut HashMap<SeqId, DecodeCtx>,
    mut h: DecodeHandoff,
) {
    // The cache moves into the batch slot; it moves back into the blend
    // result at retire (with the answer's rows appended), so the response
    // shape matches the sequential path exactly.
    let cache = std::mem::replace(&mut h.prefilled.blend.cache, KvCache::empty(0, 0));
    let sid = batch.admit(
        engine.model(),
        cache,
        &h.prefilled.blend.last_residual,
        h.prefilled.max_new_tokens,
    );
    let now = Instant::now();
    let decode_span = if h.trace != 0 {
        cb_obs::trace::alloc_span_id()
    } else {
        0
    };
    slots.insert(
        sid,
        DecodeCtx {
            last_token_at: h.first_token_at.unwrap_or(now),
            prefilled: h.prefilled,
            tx: h.tx,
            served_at: h.served_at,
            decode_started: now,
            decode_start_ns: cb_obs::now_nanos(),
            decode_span,
            trace: h.trace,
            trace_parent: h.trace_parent,
        },
    );
}

/// The continuous-batching decode loop: one thread stepping every
/// in-flight sequence together. Between steps it tops the batch up from
/// the handoff channel — blocking only when the batch is empty, so a busy
/// batch never stalls waiting for admissions. Exits when the channel
/// disconnects (all workers gone) and the batch has drained.
fn decoder_loop(engine: Engine, shared: Arc<Shared>, rx: Receiver<DecodeHandoff>, cap: usize) {
    let obs = sched_obs();
    let mut batch = DecodeBatch::new();
    let mut slots: HashMap<SeqId, DecodeCtx> = HashMap::new();
    loop {
        while batch.len() < cap {
            if batch.is_empty() {
                match rx.recv() {
                    Ok(h) => admit_handoff(&engine, &mut batch, &mut slots, h),
                    Err(_) => return,
                }
            } else {
                match rx.try_recv() {
                    Ok(h) => admit_handoff(&engine, &mut batch, &mut slots, h),
                    Err(_) => break,
                }
            }
        }
        obs.batch_occupancy.set(batch.len() as f64);
        let step_started = Instant::now();
        let step_start_ns = cb_obs::now_nanos();
        // Same containment as the worker loop: a panic mid-step must not
        // kill the decoder. It does leave the batch in an undefined state,
        // so every in-flight sequence fails and the batch restarts empty.
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batch.step(engine.model(), &mut |sid, token| {
                let Some(ctx) = slots.get_mut(&sid) else {
                    return;
                };
                let now = Instant::now();
                obs.decode_token
                    .record_duration(now.duration_since(ctx.last_token_at));
                ctx.last_token_at = now;
                obs.tokens.inc();
                let _ = ctx.tx.send(Event::Token(token));
            })
        }));
        obs.decode_step.record_duration(step_started.elapsed());
        let retired = match stepped {
            Ok(retired) => retired,
            Err(_) => {
                batch = DecodeBatch::new();
                for (_, ctx) in slots.drain() {
                    shared.inflight.fetch_sub(1, Ordering::Relaxed);
                    shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                    obs.failed.inc();
                    let _ = ctx.tx.send(Event::Failed(EngineError::Panicked));
                }
                obs.batch_occupancy.set(0.0);
                continue;
            }
        };
        let step_end_ns = cb_obs::now_nanos();
        // Per-step spans for traced sequences, parented onto the
        // request's (not-yet-recorded) decode span. Sequences retiring on
        // this step are still in `slots` here, so their last step is
        // covered too.
        for ctx in slots.values() {
            if ctx.trace != 0 {
                cb_obs::trace::record_span(
                    ctx.trace,
                    ctx.decode_span,
                    "decode.step",
                    step_start_ns,
                    step_end_ns,
                );
            }
        }
        for (sid, fin) in retired {
            let Some(ctx) = slots.remove(&sid) else {
                continue;
            };
            let Prefilled {
                mut blend,
                mut ttft,
                recompute_ratio,
                chunk_sources,
                started,
                max_new_tokens: _,
            } = ctx.prefilled;
            blend.cache = fin.cache;
            ttft.decode = ctx.decode_started.elapsed();
            ttft.total = started.elapsed();
            let resp = Response {
                answer: fin.tokens,
                blend,
                ttft,
                recompute_ratio,
                chunk_sources,
            };
            if ctx.trace != 0 {
                cb_obs::trace::record_span_with_id(
                    ctx.trace,
                    ctx.decode_span,
                    ctx.trace_parent,
                    "decode",
                    ctx.decode_start_ns,
                    cb_obs::now_nanos(),
                );
            }
            obs.request.record_duration(ctx.served_at.elapsed());
            // Decremented before the terminal event goes out, matching
            // the sequential path's guarantee.
            shared.inflight.fetch_sub(1, Ordering::Relaxed);
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            obs.completed.inc();
            let _ = ctx.tx.send(Event::Done(resp));
        }
        if batch.is_empty() {
            obs.batch_occupancy.set(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use cb_model::ModelProfile;
    use cb_tokenizer::TokenKind::*;

    #[test]
    fn lane_queue_respects_capacity() {
        let mut q: LaneQueue<u32> = LaneQueue::new(2, 4);
        assert!(q.push(Priority::Normal, 1).is_ok());
        assert!(q.push(Priority::High, 2).is_ok());
        assert_eq!(q.push(Priority::High, 3), Err(3));
        q.pop();
        assert!(q.push(Priority::Normal, 3).is_ok());
    }

    #[test]
    fn lane_queue_serves_high_first_but_never_starves_normal() {
        // 20 high + 4 normal items, fair_burst = 3: with the normal lane
        // non-empty throughout its residence, a normal item must surface at
        // least every fair_burst + 1 dispatches.
        let mut q: LaneQueue<(Priority, u32)> = LaneQueue::new(64, 3);
        for i in 0..20 {
            q.push(Priority::High, (Priority::High, i)).unwrap();
        }
        for i in 0..4 {
            q.push(Priority::Normal, (Priority::Normal, i)).unwrap();
        }
        let order: Vec<(Priority, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order.len(), 24);
        assert_eq!(order[0].0, Priority::High, "high lane is served first");
        let normal_positions: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, (p, _))| *p == Priority::Normal)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(normal_positions.len(), 4);
        // First normal item within the first burst window; consecutive
        // normal dispatches no further than a burst apart.
        assert!(normal_positions[0] <= 3, "positions {normal_positions:?}");
        for w in normal_positions.windows(2) {
            assert!(w[1] - w[0] <= 4, "positions {normal_positions:?}");
        }
        // FIFO within each lane.
        let highs: Vec<u32> = order
            .iter()
            .filter(|(p, _)| *p == Priority::High)
            .map(|&(_, i)| i)
            .collect();
        assert_eq!(highs, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn lane_queue_streak_resets_when_normal_lane_is_empty() {
        let mut q: LaneQueue<u32> = LaneQueue::new(8, 2);
        q.push(Priority::High, 0).unwrap();
        q.push(Priority::High, 1).unwrap();
        q.push(Priority::High, 2).unwrap();
        // Normal lane empty: pops don't accumulate a streak.
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        q.push(Priority::Normal, 10).unwrap();
        q.push(Priority::High, 3).unwrap();
        q.push(Priority::High, 4).unwrap();
        // Full burst of high available before the waiting normal.
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(10), "burst of 2 exhausted");
        assert_eq!(q.pop(), Some(4));
    }

    #[test]
    fn lane_queue_fairness_holds_under_random_arrivals() {
        // Property: while the normal lane is non-empty, at most
        // `fair_burst` consecutive dispatches come from the high lane —
        // i.e. a normal item surfaces at least every fair_burst + 1
        // dispatches. Randomized arrivals/drains exercise the
        // drain-then-refill interleavings the fixed-scenario tests miss.
        let mut rng_state: u64 = 0x9e37_79b9_97f4_a7c5;
        let mut rng = move || {
            // xorshift64*: deterministic, no dev-dependency needed.
            rng_state ^= rng_state >> 12;
            rng_state ^= rng_state << 25;
            rng_state ^= rng_state >> 27;
            rng_state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for fair_burst in [1usize, 2, 4] {
            let mut q: LaneQueue<Priority> = LaneQueue::new(1024, fair_burst);
            let mut high_run = 0usize;
            for _ in 0..5000 {
                match rng() % 4 {
                    0 => {
                        let _ = q.push(Priority::High, Priority::High);
                    }
                    1 => {
                        let _ = q.push(Priority::Normal, Priority::Normal);
                    }
                    _ => {
                        let normal_waiting = !q.normal.is_empty();
                        match q.pop() {
                            Some(Priority::High) if normal_waiting => {
                                high_run += 1;
                                assert!(
                                    high_run <= fair_burst,
                                    "{high_run} consecutive high pops past a waiting \
                                     normal lane (fair_burst {fair_burst})"
                                );
                            }
                            // A high pop with no normal waiting starves
                            // no one; a normal pop ends the wait.
                            Some(_) | None => high_run = 0,
                        }
                    }
                }
            }
        }
    }

    fn service(workers: usize, capacity: usize) -> EngineService {
        let engine = EngineBuilder::new(ModelProfile::Tiny).build().unwrap();
        EngineService::new(
            engine,
            ServiceConfig::default()
                .workers(workers)
                .queue_capacity(capacity),
        )
    }

    #[test]
    fn stream_yields_lifecycle_in_order_and_collect_answers() {
        let s = service(2, 8);
        let v = s.engine().model().cfg.vocab.clone();
        let c1: Vec<_> = [Entity(5), Attr(0), Value(1), Sep]
            .map(|k| v.id(k))
            .to_vec();
        let c2: Vec<_> = [Ref, Attr(3), Value(9), Sep].map(|k| v.id(k)).to_vec();
        let ids = s.engine().register_chunks(&[c1, c2]).unwrap();
        let q: Vec<_> = [Query, Entity(5), Attr(3), QMark].map(|k| v.id(k)).to_vec();

        let stream = s.submit_stream(Request::new(ids, q).ratio(0.45).max_new_tokens(4));
        let mut events = Vec::new();
        for e in stream {
            events.push(e);
        }
        assert!(matches!(events[0], Event::Queued));
        assert!(matches!(events[1], Event::Admitted));
        assert!(matches!(events[2], Event::FirstToken(_)));
        let tokens: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Token(t) => Some(*t),
                _ => None,
            })
            .collect();
        let Event::Done(resp) = events.last().unwrap() else {
            panic!("missing terminal Done: {events:?}");
        };
        assert_eq!(tokens, resp.answer, "streamed tokens match the answer");
        assert_eq!(resp.answer, vec![v.id(Value(9))]);
        assert_eq!(s.stats().completed, 1);
    }

    #[test]
    fn failures_stream_a_terminal_failed_event() {
        let s = service(1, 4);
        let v = s.engine().model().cfg.vocab.clone();
        let q = vec![v.id(Query), v.id(QMark)];
        let err = s
            .submit_stream(Request::new(vec![cb_kv::ChunkId(99)], q))
            .collect()
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownChunk(cb_kv::ChunkId(99)));
        assert_eq!(s.stats().failed, 1);
    }

    #[test]
    fn paused_service_backpressures_with_queue_full() {
        // workers = 0: nothing drains, so the capacity-2 queue fills
        // deterministically and the third submit is pushed back.
        let s = service(0, 2);
        let v = s.engine().model().cfg.vocab.clone();
        let chunk = vec![v.id(Entity(1)), v.id(Attr(1)), v.id(Value(1))];
        let id = s.engine().register_chunk(&chunk).unwrap();
        let q = vec![v.id(Query), v.id(QMark)];
        let mk = || Request::new(vec![id], q.clone());

        let _s1 = s.try_submit_stream(mk()).expect("first fits");
        let _s2 = s.try_submit_stream(mk()).expect("second fits");
        match s.try_submit_stream(mk()) {
            Err(TrySubmitError::QueueFull(req)) => assert_eq!(req.chunk_ids, vec![id]),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(s.queue_depth(), 2);
        let st = s.stats();
        assert_eq!((st.submitted, st.rejected), (2, 1));
        assert_eq!(st.peak_queue_depth, 2);
    }

    #[test]
    fn probe_reports_load_and_health_without_blocking() {
        // A paused (0-worker) full queue: probe must return immediately
        // with the exact queue picture instead of waiting for space.
        let s = service(0, 2);
        let v = s.engine().model().cfg.vocab.clone();
        let id = s
            .engine()
            .register_chunk(&[v.id(Entity(1)), v.id(Value(2))])
            .unwrap();
        let q = vec![v.id(Query), v.id(QMark)];
        let _s1 = s
            .try_submit_stream(Request::new(vec![id], q.clone()))
            .unwrap();
        let _s2 = s.try_submit_stream(Request::new(vec![id], q)).unwrap();
        let p = s.probe();
        assert_eq!(p.queue_depth, 2);
        assert_eq!(p.queue_capacity, 2);
        assert!(p.queue_full());
        assert_eq!(p.inflight, 0, "nothing drains a paused service");
        assert_eq!(p.load(), 2);
        assert!(!p.healthy(), "a workerless service cannot make progress");

        let live = service(2, 4);
        let p = live.probe();
        assert!(p.healthy());
        assert!(!p.queue_full());
        assert_eq!(p.workers, 2);
    }

    #[test]
    fn inflight_returns_to_zero_after_completion() {
        let s = service(1, 4);
        let v = s.engine().model().cfg.vocab.clone();
        let id = s
            .engine()
            .register_chunk(&[v.id(Entity(3)), v.id(Attr(1)), v.id(Value(2)), v.id(Sep)])
            .unwrap();
        let q = vec![v.id(Query), v.id(Entity(3)), v.id(Attr(1)), v.id(QMark)];
        s.submit(Request::new(vec![id], q)).unwrap();
        let p = s.probe();
        assert_eq!(p.inflight, 0);
        assert_eq!(p.load(), 0);
    }

    #[test]
    fn dropping_a_paused_service_cancels_queued_streams() {
        let s = service(0, 2);
        let v = s.engine().model().cfg.vocab.clone();
        let id = s
            .engine()
            .register_chunk(&[v.id(Entity(1)), v.id(Value(1))])
            .unwrap();
        let stream = s
            .try_submit_stream(Request::new(vec![id], vec![v.id(Query), v.id(QMark)]))
            .unwrap();
        drop(s);
        assert_eq!(stream.collect().unwrap_err(), EngineError::Canceled);
    }

    #[test]
    fn deadline_misses_are_counted() {
        let s = service(1, 8);
        let v = s.engine().model().cfg.vocab.clone();
        let id = s
            .engine()
            .register_chunk(&[v.id(Entity(2)), v.id(Attr(1)), v.id(Value(3)), v.id(Sep)])
            .unwrap();
        let q = vec![v.id(Query), v.id(Entity(2)), v.id(Attr(1)), v.id(QMark)];
        // An impossible deadline is always missed; a generous one never is.
        s.submit(Request::new(vec![id], q.clone()).deadline(std::time::Duration::ZERO))
            .unwrap();
        s.submit(Request::new(vec![id], q).deadline(std::time::Duration::from_secs(3600)))
            .unwrap();
        assert_eq!(s.stats().deadline_misses, 1);
    }

    #[test]
    fn deadline_misses_count_failures_that_never_produced_a_token() {
        // Regression: a request that fails before its first token used to
        // escape the miss count (the check required `first_token_at`).
        // An unknown chunk forces exactly that failure mode.
        let s = service(1, 8);
        let v = s.engine().model().cfg.vocab.clone();
        let q = vec![v.id(Query), v.id(QMark)];
        let err = s
            .submit_stream(
                Request::new(vec![cb_kv::ChunkId(99)], q.clone())
                    .deadline(std::time::Duration::ZERO),
            )
            .collect()
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownChunk(cb_kv::ChunkId(99)));
        assert_eq!(
            s.stats().deadline_misses,
            1,
            "an already-late failure is a miss"
        );
        // The same failure well inside a generous deadline is not a miss.
        s.submit_stream(
            Request::new(vec![cb_kv::ChunkId(99)], q)
                .deadline(std::time::Duration::from_secs(3600)),
        )
        .collect()
        .unwrap_err();
        let st = s.stats();
        assert_eq!(st.deadline_misses, 1);
        assert_eq!(st.failed, 2);
    }

    fn batched_service(workers: usize, capacity: usize, batch: usize) -> EngineService {
        let engine = EngineBuilder::new(ModelProfile::Tiny).build().unwrap();
        EngineService::new(
            engine,
            ServiceConfig::default()
                .workers(workers)
                .queue_capacity(capacity)
                .decode_batch(batch),
        )
    }

    /// Registers the same fact chunks on a service and returns one query
    /// per fact, with the expected answer token.
    fn fact_requests(s: &EngineService, n: usize) -> Vec<(Request, cb_tokenizer::TokenId)> {
        let v = s.engine().model().cfg.vocab.clone();
        (0..n)
            .map(|i| {
                let (e, a, val) = ((i % 7) as u32, (i % 5) as u32, ((i * 3 + 1) % 10) as u32);
                let chunk: Vec<_> = [Entity(e), Attr(a), Value(val), Sep]
                    .map(|k| v.id(k))
                    .to_vec();
                let id = s.engine().register_chunk(&chunk).unwrap();
                let q: Vec<_> = [Query, Entity(e), Attr(a), QMark].map(|k| v.id(k)).to_vec();
                (
                    Request::new(vec![id], q).ratio(0.45).max_new_tokens(4),
                    v.id(Value(val)),
                )
            })
            .collect()
    }

    #[test]
    fn batched_service_preserves_event_order_and_matches_sequential_answers() {
        let seq = service(1, 16);
        let bat = batched_service(2, 16, 4);
        let n = 6;
        let seq_reqs = fact_requests(&seq, n);
        let bat_reqs = fact_requests(&bat, n);
        let seq_resps: Vec<_> = seq_reqs
            .into_iter()
            .map(|(r, want)| {
                let resp = seq.submit(r).unwrap();
                assert_eq!(resp.answer, vec![want]);
                resp
            })
            .collect();
        // Submit everything up front so requests genuinely share the
        // batch, then drain each stream.
        let streams: Vec<_> = bat_reqs
            .iter()
            .map(|(r, _)| bat.submit_stream(r.clone()))
            .collect();
        for (stream, ((_, want), seq_resp)) in
            streams.into_iter().zip(bat_reqs.iter().zip(&seq_resps))
        {
            let mut events = Vec::new();
            for e in stream {
                events.push(e);
            }
            assert!(matches!(events[0], Event::Queued));
            assert!(matches!(events[1], Event::Admitted));
            assert!(matches!(events[2], Event::FirstToken(_)));
            let tokens: Vec<_> = events
                .iter()
                .filter_map(|e| match e {
                    Event::Token(t) => Some(*t),
                    _ => None,
                })
                .collect();
            let Event::Done(resp) = events.last().unwrap() else {
                panic!("missing terminal Done: {events:?}");
            };
            assert_eq!(tokens, resp.answer, "streamed tokens match the answer");
            assert_eq!(resp.answer, vec![*want]);
            // Bit-identity at the service level: the batched response's
            // cache (prompt + answer rows) equals the sequential one's.
            assert_eq!(resp.blend.cache, seq_resp.blend.cache);
        }
        let st = bat.stats();
        assert_eq!((st.completed, st.failed), (n as u64, 0));
        let p = bat.probe();
        assert_eq!(p.inflight, 0);
        assert_eq!(p.load(), 0);
    }

    #[test]
    fn a_fused_cache_decodes_in_the_buffers_the_blend_reserved() {
        // The fused cache comes out of the blend with room for the answer,
        // so the decoder's admit (its `reserve`) and every decode step
        // append in place: the layers retire in the buffers they were
        // blended into.
        let s = batched_service(1, 4, 4);
        let engine = s.engine();
        let (request, want) = fact_requests(&s, 1).remove(0);
        let k_bufs = |c: &KvCache| -> Vec<*const f32> {
            c.layers.iter().map(|l| l.k.as_slice().as_ptr()).collect()
        };
        let prefilled = engine.prefill_streaming(&request, &mut |_| {}).unwrap();
        let blended = k_bufs(&prefilled.blend.cache);
        let mut batch = DecodeBatch::new();
        batch.admit(
            engine.model(),
            prefilled.blend.cache,
            &prefilled.blend.last_residual,
            prefilled.max_new_tokens,
        );
        let fin = loop {
            if let Some((_, fin)) = batch.step(engine.model(), &mut |_, _| {}).pop() {
                break fin;
            }
        };
        assert_eq!(fin.tokens, vec![want]);
        assert_eq!(k_bufs(&fin.cache), blended);
    }

    #[test]
    fn batched_service_streams_failures_and_drains_on_drop() {
        let s = batched_service(2, 16, 4);
        let v = s.engine().model().cfg.vocab.clone();
        let q = vec![v.id(Query), v.id(QMark)];
        // Failures happen worker-side (prefill) and must still reach the
        // stream as a terminal event in batched mode.
        let err = s
            .submit_stream(Request::new(vec![cb_kv::ChunkId(99)], q))
            .collect()
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownChunk(cb_kv::ChunkId(99)));
        assert_eq!(s.stats().failed, 1);
        // Dropping the service with live streams still terminates every
        // accepted request (workers drain, then the decoder drains).
        let reqs = fact_requests(&s, 5);
        let streams: Vec<_> = reqs
            .iter()
            .map(|(r, _)| s.submit_stream(r.clone()))
            .collect();
        drop(s);
        for (stream, (_, want)) in streams.into_iter().zip(reqs) {
            match stream.collect() {
                Ok(resp) => assert_eq!(resp.answer, vec![want]),
                Err(err) => assert_eq!(err, EngineError::Canceled),
            }
        }
    }
}
