//! The worker side of the control plane: wraps one [`EngineService`]
//! behind a [`Transport`] connection to the gateway.
//!
//! A worker runs two threads of its own plus one forwarder per in-flight
//! request:
//!
//! - the **control loop** serves gateway frames — `Submit` (admit or
//!   answer `Rejected` with a fresh probe), `RegisterChunk` (eager at the
//!   chunk's home: precompute + replicate to the persistent tier),
//!   `Status`, `Drain`, and `Shutdown`;
//! - the **heartbeat ticker** sends `Heartbeat { probe, stats }` every
//!   [`WorkerConfig::heartbeat_interval`] — the gateway's only liveness
//!   signal. Tests pause it ([`Worker::pause_heartbeats`]) to simulate a
//!   partition without killing the worker;
//! - each admitted request gets a **forwarder** thread that drains its
//!   [`ResponseStream`] and ships every event back as an `Ev` frame, then
//!   hands a `Done`'s fused cache, which the frame does not carry, back
//!   to the engine (`Engine::recycle`). A
//!   stream that closes without a terminal event (service shutdown)
//!   synthesizes `Failed(Canceled)` so the gateway's pending entry always
//!   resolves.

use crate::message::{Message, WireEvent, WireFailure};
use crate::transport::{NetError, Transport};
use cb_core::engine::EngineError;
use cb_core::scheduler::{EngineService, TrySubmitError};
use cb_core::stream::{Event, ResponseStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Worker tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct WorkerConfig {
    /// Heartbeat period. The gateway declares a worker down after
    /// [`crate::gateway::GatewayConfig::heartbeat_timeout`] without one,
    /// so keep this several times smaller.
    pub heartbeat_interval: Duration,
    /// Stable worker identity, or `None` to generate a fresh one (process
    /// entropy mixed with a process-local counter). A worker that
    /// reconnects under the same identity with a **higher incarnation**
    /// adopts its old gateway slot — chunk homes, health history, and
    /// admission stats carry over — instead of growing the roster.
    pub worker_id: Option<u64>,
    /// Connection generation under `worker_id`. Bump it on every
    /// reconnect: the gateway rejects hellos whose incarnation does not
    /// exceed the slot's current one, and drops frames from superseded
    /// connections.
    pub incarnation: u64,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(50),
            worker_id: None,
            incarnation: 1,
        }
    }
}

impl WorkerConfig {
    /// Sets the heartbeat period.
    pub fn heartbeat_interval(mut self, d: Duration) -> Self {
        self.heartbeat_interval = d;
        self
    }

    /// Sets the stable identity (see [`WorkerConfig::worker_id`]).
    pub fn identity(mut self, worker_id: u64, incarnation: u64) -> Self {
        self.worker_id = Some(worker_id);
        self.incarnation = incarnation;
        self
    }
}

/// A fresh, effectively unique worker id: process entropy (pid + clock)
/// mixed with a process-local counter through SplitMix64.
pub(crate) fn fresh_worker_id() -> u64 {
    use std::sync::atomic::AtomicU64;
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seed = nanos
        ^ (std::process::id() as u64).rotate_left(32)
        ^ COUNTER.fetch_add(1, Ordering::Relaxed).rotate_left(48);
    crate::gateway::splitmix64(seed)
}

struct WorkerInner {
    service: Arc<EngineService>,
    conn: Arc<dyn Transport>,
    identity: (u64, u64),
    hb_paused: AtomicBool,
    shutdown: AtomicBool,
    forwarders: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerInner {
    fn heartbeat(&self) -> Message {
        Message::Heartbeat {
            probe: self.service.probe(),
            stats: self.service.stats(),
        }
    }

    fn handle_submit(
        self: &Arc<Self>,
        id: u64,
        trace: u64,
        span: u64,
        blocking: bool,
        request: crate::message::WireRequest,
    ) {
        let mut request = request.into_request();
        // Re-attach the trace context the Submit frame carried so the
        // engine's spans nest under the gateway's serve-attempt span.
        request.trace = trace;
        request.trace_parent = span;
        cb_obs::cb_debug!(
            "worker",
            "submit id={id} trace={trace:#x} blocking={blocking} chunks={} query_tokens={}",
            request.chunk_ids.len(),
            request.query.len()
        );
        let outcome = if blocking {
            // Last-resort placement: the gateway found no queue with
            // space, so wait for ours to free up.
            Ok(self.service.submit_stream(request))
        } else {
            self.service.try_submit_stream(request)
        };
        match outcome {
            Ok(stream) => {
                let inner = Arc::clone(self);
                let handle = std::thread::spawn(move || inner.forward(id, trace, stream));
                let mut fwd = self.forwarders.lock().unwrap();
                // Reap finished forwarders so a long-lived worker's handle
                // list stays proportional to in-flight work.
                let (done, live): (Vec<_>, Vec<_>) = fwd.drain(..).partition(|h| h.is_finished());
                for h in done {
                    let _ = h.join();
                }
                *fwd = live;
                fwd.push(handle);
            }
            Err(TrySubmitError::QueueFull(_)) => {
                cb_obs::cb_debug!("worker", "reject id={id}: queue full");
                let _ = self.conn.send(&Message::Rejected {
                    id,
                    probe: self.service.probe(),
                });
            }
        }
    }

    fn forward(&self, id: u64, trace: u64, stream: ResponseStream) {
        let mut terminal = false;
        for ev in stream {
            terminal = terminal || ev.is_terminal();
            let msg = Message::Ev {
                id,
                trace,
                event: WireEvent::from_event(&ev),
            };
            let sent = self.conn.send(&msg);
            if let Event::Done(resp) = ev {
                // The fused cache never crosses the wire: once the frame
                // is encoded its layers go back to the engine's free list.
                self.service.engine().recycle(resp.blend.cache);
            }
            if sent.is_err() {
                return; // Gateway gone; the engine still finishes locally.
            }
        }
        if !terminal {
            // Stream closed without Done/Failed (service shut down): the
            // gateway must not wait forever.
            let failure = WireFailure::from_error(&EngineError::Canceled);
            let _ = self.conn.send(&Message::Ev {
                id,
                trace,
                event: WireEvent::Failed(failure),
            });
        }
    }

    /// Answers a `Metrics` scrape: flushes store counters into the global
    /// registry, stamps this worker's instantaneous load into labeled
    /// gauges, and ships the encoded registry snapshot back.
    fn handle_metrics(&self, rpc: u64) {
        self.service.engine().store().publish_metrics();
        let probe = self.service.probe();
        let reg = cb_obs::metrics::Registry::global();
        let label = format!("{:016x}", self.identity.0);
        reg.gauge(&format!("cb_worker_queue_depth{{worker=\"{label}\"}}"))
            .set(probe.queue_depth as f64);
        reg.gauge(&format!("cb_worker_inflight{{worker=\"{label}\"}}"))
            .set(probe.inflight as f64);
        let _ = self.conn.send(&Message::MetricsReply {
            rpc,
            snapshot: reg.snapshot().encode(),
        });
    }

    fn control_loop(self: Arc<Self>, tick: Duration) {
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            match self.conn.recv_timeout(tick) {
                Ok(Message::Submit {
                    id,
                    trace,
                    span,
                    blocking,
                    request,
                }) => self.handle_submit(id, trace, span, blocking, request),
                Ok(Message::RegisterChunk { rpc, eager, tokens }) => {
                    let engine = self.service.engine();
                    let result = if eager {
                        engine.register_chunk(&tokens).and_then(|id| {
                            engine
                                .store()
                                .replicate_to_persistent(id)
                                .map_err(EngineError::from)?;
                            Ok(id)
                        })
                    } else {
                        engine.register_chunk_lazy(&tokens)
                    };
                    let result = result
                        .map(|id| id.0)
                        .map_err(|e| WireFailure::from_error(&e));
                    let _ = self.conn.send(&Message::RegisterReply { rpc, result });
                }
                Ok(Message::Status { rpc }) => {
                    let _ = self.conn.send(&Message::StatusReply {
                        rpc,
                        probe: self.service.probe(),
                        stats: self.service.stats(),
                    });
                }
                Ok(Message::Metrics { rpc }) => self.handle_metrics(rpc),
                Ok(Message::Drain { rpc }) => {
                    while self.service.probe().load() > 0 && !self.shutdown.load(Ordering::Relaxed)
                    {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    let _ = self.conn.send(&Message::DrainReply { rpc });
                }
                Ok(Message::Shutdown) => return,
                Ok(_) => {} // Ignore frames this side never consumes.
                Err(NetError::Timeout) => {}
                Err(_) => return, // Connection dead.
            }
        }
    }

    fn heartbeat_loop(self: Arc<Self>, interval: Duration) {
        loop {
            std::thread::sleep(interval);
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            if self.hb_paused.load(Ordering::Relaxed) {
                continue;
            }
            if self.conn.send(&self.heartbeat()).is_err() {
                return;
            }
        }
    }
}

/// A running worker. Dropping it stops both threads (finishing in-flight
/// forwarders first) but leaves the wrapped service running — the owner
/// decides when the engine itself shuts down.
pub struct Worker {
    inner: Arc<WorkerInner>,
    control: Option<JoinHandle<()>>,
    heartbeat: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("peer", &self.inner.conn.peer())
            .finish()
    }
}

impl Worker {
    /// Connects a service to the gateway over `conn`: sends the
    /// `HelloWorker` announcement (synchronously, so the gateway's attach
    /// finds it) and starts the control + heartbeat threads.
    pub fn start(
        service: Arc<EngineService>,
        conn: Arc<dyn Transport>,
        cfg: WorkerConfig,
    ) -> Result<Worker, NetError> {
        let id = cfg.worker_id.unwrap_or_else(fresh_worker_id);
        conn.send(&Message::HelloWorker {
            id,
            incarnation: cfg.incarnation,
            probe: service.probe(),
            stats: service.stats(),
        })?;
        let inner = Arc::new(WorkerInner {
            service,
            conn,
            identity: (id, cfg.incarnation),
            hb_paused: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            forwarders: Mutex::new(Vec::new()),
        });
        let tick = cfg.heartbeat_interval.min(Duration::from_millis(50));
        let control = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("cb-net-worker-control".into())
                .spawn(move || inner.control_loop(tick))
                .map_err(|e| NetError::Io(e.to_string()))?
        };
        let heartbeat = {
            let inner = Arc::clone(&inner);
            let interval = cfg.heartbeat_interval;
            std::thread::Builder::new()
                .name("cb-net-worker-heartbeat".into())
                .spawn(move || inner.heartbeat_loop(interval))
                .map_err(|e| NetError::Io(e.to_string()))?
        };
        Ok(Worker {
            inner,
            control: Some(control),
            heartbeat: Some(heartbeat),
        })
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<EngineService> {
        &self.inner.service
    }

    /// This worker's `(id, incarnation)` — reuse the id with a higher
    /// incarnation to re-attach into the same gateway slot.
    pub fn identity(&self) -> (u64, u64) {
        self.inner.identity
    }

    /// Pauses (or resumes) heartbeats without stopping the worker — the
    /// partition fault injection: the gateway sees silence while the
    /// worker keeps serving whatever it already admitted.
    pub fn pause_heartbeats(&self, paused: bool) {
        self.inner.hb_paused.store(paused, Ordering::Relaxed);
    }

    /// Blocks until the gateway ends the session (a `Shutdown` frame or a
    /// closed connection), then tears the worker down. The `cb_worker`
    /// binary's main thread parks here.
    pub fn run_until_disconnected(mut self) {
        if let Some(h) = self.control.take() {
            let _ = h.join();
        }
        // Drop does the rest (heartbeat thread, forwarders).
    }

    fn stop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.control.take() {
            let _ = h.join();
        }
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self.inner.forwarders.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.stop();
    }
}
