//! [`NetClient`]: the remote front door. Speaks the client half of the
//! protocol to a gateway over any [`Transport`] — submit requests and get
//! back ordinary [`ResponseStream`]s, register chunks cluster-wide, and
//! snapshot worker health. The `cb_gateway --smoke` self-check and the
//! loopback-vs-TCP parity tests drive the cluster exclusively through
//! this type.
//!
//! **A session lives as long as its gateway connection.** Nothing
//! redials: when the connection dies, every open stream closes and its
//! collector observes [`EngineError::Canceled`], every waiting RPC fails,
//! and every later [`NetClient::submit_stream`] fails at once with
//! [`ErrorCode::NoHealthyWorker`]. [`NetClient::connect_endpoints`] walks
//! an endpoint list only for the initial dial.

use crate::message::{Message, WireRequest};
use crate::retry::RetryPolicy;
use crate::tcp::TcpTransport;
use crate::transport::{NetError, Transport};
use cb_core::engine::{EngineError, ErrorCode, Request, Response};
use cb_core::scheduler::ServiceProbe;
use cb_core::stream::{Event, ResponseStream};
use cb_kv::ChunkId;
use cb_obs::metrics::MetricsSnapshot;
use cb_tokenizer::TokenId;
use crossbeam::channel::{self, RecvTimeoutError, Sender};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Where the demux delivers what the gateway sends back.
#[derive(Default)]
struct Routes {
    /// One event route per open stream, by request id.
    streams: HashMap<u64, Sender<Event>>,
    /// One reply route per in-flight RPC. The demux removes the entry
    /// before it sends the one reply, so each is a `bounded(1)` channel
    /// whose single send can never block.
    rpcs: HashMap<u64, Sender<Message>>,
}

struct ClientInner {
    conn: Arc<dyn Transport>,
    policy: RetryPolicy,
    /// `None` once the gateway connection died: dropping the routes
    /// closes every open stream and fails every waiting RPC.
    routes: Mutex<Option<Routes>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
}

impl ClientInner {
    /// Runs `f` on the routes; `None` once the gateway connection died.
    fn with_routes<R>(&self, f: impl FnOnce(&mut Routes) -> R) -> Option<R> {
        self.routes.lock().unwrap().as_mut().map(f)
    }

    fn demux_loop(&self) {
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            match self.conn.recv_timeout(Duration::from_millis(50)) {
                Ok(Message::Ev { id, event, .. }) => {
                    let event = event.into_event();
                    // The terminal event retires the route; a late event
                    // for a resolved stream finds none and is dropped.
                    self.with_routes(|r| {
                        if event.is_terminal() {
                            if let Some(tx) = r.streams.remove(&id) {
                                let _ = tx.send(event);
                            }
                        } else if let Some(tx) = r.streams.get(&id) {
                            let _ = tx.send(event);
                        }
                    });
                }
                Ok(
                    msg @ (Message::RegisterReply { rpc, .. }
                    | Message::ClusterStatusReply { rpc, .. }
                    | Message::MetricsReply { rpc, .. }),
                ) => {
                    if let Some(Some(tx)) = self.with_routes(|r| r.rpcs.remove(&rpc)) {
                        let _ = tx.send(msg);
                    }
                }
                Ok(_) => {}
                Err(NetError::Timeout) => {}
                Err(_) => {
                    // The gateway is gone and nothing redials it.
                    *self.routes.lock().unwrap() = None;
                    return;
                }
            }
        }
    }

    /// One request/reply RPC. `name` is the wire verb — errors name it
    /// and the destination so operators know *which* call to *where*
    /// failed.
    fn rpc(&self, name: &str, build: impl FnOnce(u64) -> Message) -> Result<Message, NetError> {
        let rpc = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::bounded(1);
        let sent = match self.with_routes(|r| r.rpcs.insert(rpc, tx)) {
            Some(_) => self.conn.send(&build(rpc)),
            None => Err(NetError::Closed),
        };
        if let Err(e) = sent {
            self.with_routes(|r| r.rpcs.remove(&rpc));
            return Err(NetError::Io(format!(
                "{name} RPC to gateway {} failed to send: {e}",
                self.conn.peer()
            )));
        }
        rx.recv_timeout(self.policy.rpc_timeout).map_err(|e| {
            self.with_routes(|r| r.rpcs.remove(&rpc));
            let why = match e {
                RecvTimeoutError::Timeout => {
                    format!("timed out after {:?}", self.policy.rpc_timeout)
                }
                RecvTimeoutError::Disconnected => "lost its connection before replying".into(),
            };
            NetError::Io(format!("{name} RPC to gateway {} {why}", self.conn.peer()))
        })
    }
}

/// A connected client session (see module docs). Dropping it closes the
/// session; streams still open report [`EngineError::Canceled`].
pub struct NetClient {
    inner: Arc<ClientInner>,
    demux: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("peer", &self.inner.conn.peer())
            .finish()
    }
}

impl NetClient {
    /// Opens a client session on `conn`: announces `HelloClient` and
    /// starts the demux thread that routes incoming frames to streams.
    pub fn connect(conn: Arc<dyn Transport>) -> Result<NetClient, NetError> {
        Self::start(conn, RetryPolicy::default())
    }

    /// Dials an ordered endpoint list over TCP, taking the first that
    /// accepts, under the policy's backoff, then opens a session as
    /// [`NetClient::connect`] does. The list is walked only for this
    /// dial: a session that loses its gateway later is over.
    pub fn connect_endpoints(
        endpoints: &[impl AsRef<str>],
        policy: RetryPolicy,
    ) -> Result<NetClient, NetError> {
        let endpoints: Vec<&str> = endpoints.iter().map(AsRef::as_ref).collect();
        if endpoints.is_empty() {
            return Err(NetError::Io("empty gateway endpoint list".into()));
        }
        let mut last_err = None;
        for attempt in 0..=policy.max_retries {
            std::thread::sleep(policy.backoff(attempt));
            for &ep in &endpoints {
                match TcpTransport::connect(ep) {
                    Ok(t) => return Self::start(Arc::new(t), policy),
                    Err(e) => last_err = Some(format!("{ep}: {e}")),
                }
            }
        }
        Err(NetError::Io(format!(
            "no gateway reachable among {:?}: last error {}",
            endpoints,
            last_err.unwrap_or_else(|| "<none>".into())
        )))
    }

    fn start(conn: Arc<dyn Transport>, policy: RetryPolicy) -> Result<NetClient, NetError> {
        conn.send(&Message::HelloClient)?;
        let inner = Arc::new(ClientInner {
            conn,
            policy,
            routes: Mutex::new(Some(Routes::default())),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });
        let demux = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("cb-net-client-demux".into())
                .spawn(move || inner.demux_loop())
                .map_err(|e| NetError::Io(e.to_string()))?
        };
        Ok(NetClient {
            inner,
            demux: Some(demux),
        })
    }

    /// Submits a request through the gateway's locality router. The
    /// returned stream replays the worker's events exactly as an
    /// in-process `EngineService` stream would; routing failures arrive
    /// as `Event::Failed` with the structured
    /// [`ErrorCode::NoHealthyWorker`] error, and so does a submission the
    /// dead gateway connection cannot carry.
    pub fn submit_stream(&self, request: &Request) -> ResponseStream {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, stream) = ResponseStream::channel();
        let sent = self
            .inner
            .with_routes(|r| r.streams.insert(id, tx.clone()))
            .is_some()
            && self
                .inner
                .conn
                .send(&Message::Submit {
                    id,
                    trace: request.trace,
                    span: request.trace_parent,
                    blocking: false,
                    request: WireRequest::from_request(request),
                })
                .is_ok();
        if !sent {
            self.inner.with_routes(|r| r.streams.remove(&id));
            let _ = tx.send(Event::Failed(EngineError::Remote {
                code: ErrorCode::NoHealthyWorker,
                message: "gateway connection closed".into(),
            }));
        }
        stream
    }

    /// Blocking one-shot convenience over [`NetClient::submit_stream`].
    pub fn submit(&self, request: &Request) -> Result<Response, EngineError> {
        self.submit_stream(request).collect()
    }

    /// Registers a chunk on every worker. With `eager`, the chunk's home
    /// worker precomputes its KV and replicates it to the persistent
    /// tier; otherwise registration is lazy everywhere.
    pub fn register_chunk(&self, tokens: &[TokenId], eager: bool) -> Result<ChunkId, EngineError> {
        let reply = self
            .inner
            .rpc("RegisterChunk", |rpc| Message::RegisterChunk {
                rpc,
                eager,
                tokens: tokens.to_vec(),
            })
            .map_err(|e| EngineError::Storage(e.to_string()))?;
        match reply {
            Message::RegisterReply {
                result: Ok(raw), ..
            } => Ok(ChunkId(raw)),
            Message::RegisterReply {
                result: Err(failure),
                ..
            } => Err(failure.into_error()),
            other => Err(EngineError::Storage(format!(
                "unexpected registration reply {other:?}"
            ))),
        }
    }

    /// Per-worker health and last-heartbeat probes, as the gateway sees
    /// them.
    pub fn cluster_status(&self) -> Result<(Vec<bool>, Vec<ServiceProbe>), NetError> {
        match self.inner.rpc("Status", |rpc| Message::Status { rpc })? {
            Message::ClusterStatusReply {
                healthy, probes, ..
            } => Ok((healthy, probes)),
            other => Err(NetError::Io(format!("unexpected status reply {other:?}"))),
        }
    }

    /// Cluster-aggregated metrics: the gateway publishes its own
    /// counters, fans the scrape out to every connected worker, and
    /// merges the registries (instance-deduplicated). One call sees
    /// request/TTFT histograms, store tier counters, gateway
    /// retry/failover counters, and per-worker load gauges.
    pub fn scrape(&self) -> Result<MetricsSnapshot, NetError> {
        match self.inner.rpc("Metrics", |rpc| Message::Metrics { rpc })? {
            Message::MetricsReply { snapshot, .. } => MetricsSnapshot::decode(&snapshot)
                .map_err(|e| NetError::Io(format!("undecodable metrics snapshot: {e}"))),
            other => Err(NetError::Io(format!("unexpected metrics reply {other:?}"))),
        }
    }

    /// [`NetClient::scrape`] rendered as Prometheus text exposition.
    pub fn scrape_text(&self) -> Result<String, NetError> {
        Ok(self.scrape()?.to_prometheus())
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        // Tell the gateway the session is over (best-effort).
        let _ = self.inner.conn.send(&Message::Shutdown);
        if let Some(h) = self.demux.take() {
            let _ = h.join();
        }
    }
}
