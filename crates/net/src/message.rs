//! The control plane's message catalogue and its byte codec.
//!
//! Every [`Message`] encodes to a little-endian byte payload (carried
//! inside one [`crate::frame`] frame). The codec is hand-rolled like
//! `cb-kv::serialize`: a tag byte selects the variant, fixed-width
//! integers and length-prefixed vectors follow. Decoding is defensive —
//! **every length field is validated against the bytes actually
//! remaining before any allocation**, so a corrupted or hostile payload
//! can neither panic the decoder nor make it over-allocate.
//!
//! Lossy conversions are explicit: a [`WireResponse`] carries the
//! answer, timing, provenance, and blend statistics of a
//! [`Response`], but not the fused KV cache itself (megabytes of
//! per-layer matrices that no remote caller consumes — they exist for
//! continued decoding *on the worker*). Reconstruction stubs the cache
//! empty; everything tests and benches assert on survives the trip.

use cb_core::engine::{
    ChunkSource, EngineError, ErrorCode, Priority, Request, Response, TtftBreakdown,
};
use cb_core::fusor::{BlendResult, BlendStats};
use cb_core::scheduler::{ServiceProbe, ServiceStats};
use cb_core::stream::Event;
use cb_kv::ChunkId;
use cb_model::KvCache;
use cb_tokenizer::TokenId;
use std::time::Duration;

/// Why a payload failed to decode into a [`Message`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    Truncated,
    /// An unknown message or event tag.
    BadTag(u8),
    /// A length field exceeds the bytes remaining in the payload.
    BadLength(u64),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// An enum field carries an unassigned discriminant.
    BadEnum(u64),
    /// Bytes were left over after the message decoded (framing bug or
    /// corruption that happened to parse).
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message payload truncated"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadLength(n) => write!(f, "length field {n} exceeds payload"),
            WireError::BadUtf8 => write!(f, "string field is not valid utf-8"),
            WireError::BadEnum(v) => write!(f, "unassigned enum discriminant {v}"),
            WireError::TrailingBytes(n) => write!(f, "{n} bytes left over after message"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Encoder / decoder primitives
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn u32s(&mut self, v: &[u32]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u32(x);
        }
    }
    fn u64s(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u64(x);
        }
    }
    fn f32s(&mut self, v: &[f32]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.f32(x);
        }
    }
    fn blob(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads a vector length and validates it against the bytes remaining
    /// (`elem_size` bytes per element) *before* the caller allocates.
    fn len(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_size) > self.remaining() {
            return Err(WireError::BadLength(n as u64));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.len(1)?;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn blob(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.len(1)?;
        Ok(self.bytes(n)?.to_vec())
    }

    fn u32s(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.len(4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn f32s(&mut self) -> Result<Vec<f32>, WireError> {
        let n = self.len(4)?;
        (0..n).map(|_| self.f32()).collect()
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Wire mirrors of cb-core request/response types
// ---------------------------------------------------------------------------

/// A [`Request`] flattened for the wire (lossless).
#[derive(Clone, Debug, PartialEq)]
pub struct WireRequest {
    /// [`Request::chunk_ids`] as raw ids.
    pub chunk_ids: Vec<u64>,
    /// [`Request::query`].
    pub query: Vec<TokenId>,
    /// [`Request::max_new_tokens`].
    pub max_new_tokens: u32,
    /// [`Request::ratio`].
    pub ratio: Option<f32>,
    /// [`Request::priority`] (true = high lane).
    pub high_priority: bool,
    /// [`Request::deadline`] in nanoseconds.
    pub deadline_nanos: Option<u64>,
}

impl WireRequest {
    /// Flattens a request.
    pub fn from_request(r: &Request) -> Self {
        Self {
            chunk_ids: r.chunk_ids.iter().map(|c| c.0).collect(),
            query: r.query.clone(),
            max_new_tokens: r.max_new_tokens as u32,
            ratio: r.ratio,
            high_priority: r.priority == Priority::High,
            deadline_nanos: r.deadline.map(|d| d.as_nanos() as u64),
        }
    }

    /// Rebuilds the request.
    pub fn into_request(self) -> Request {
        Request {
            chunk_ids: self.chunk_ids.into_iter().map(ChunkId).collect(),
            query: self.query,
            max_new_tokens: self.max_new_tokens as usize,
            ratio: self.ratio,
            priority: if self.high_priority {
                Priority::High
            } else {
                Priority::Normal
            },
            deadline: self.deadline_nanos.map(Duration::from_nanos),
            // The trace context does not ride in the request body — it
            // crosses the wire in the `Submit` frame and is re-attached
            // by the receiving worker.
            trace: 0,
            trace_parent: 0,
        }
    }

    fn encode(&self, e: &mut Enc) {
        e.u64s(&self.chunk_ids);
        e.u32s(&self.query);
        e.u32(self.max_new_tokens);
        match self.ratio {
            Some(r) => {
                e.bool(true);
                e.f32(r);
            }
            None => e.bool(false),
        }
        e.bool(self.high_priority);
        match self.deadline_nanos {
            Some(d) => {
                e.bool(true);
                e.u64(d);
            }
            None => e.bool(false),
        }
    }

    fn decode(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Self {
            chunk_ids: d.u64s()?,
            query: d.u32s()?,
            max_new_tokens: d.u32()?,
            ratio: if d.bool()? { Some(d.f32()?) } else { None },
            high_priority: d.bool()?,
            deadline_nanos: if d.bool()? { Some(d.u64()?) } else { None },
        })
    }
}

/// A [`TtftBreakdown`] flattened to nanosecond counts (lossless).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WireTtft {
    /// [`TtftBreakdown::precompute`] in nanoseconds.
    pub precompute_nanos: u64,
    /// [`TtftBreakdown::load_wait`] in nanoseconds.
    pub load_wait_nanos: u64,
    /// [`TtftBreakdown::recompute`] in nanoseconds.
    pub recompute_nanos: u64,
    /// [`TtftBreakdown::decode`] in nanoseconds.
    pub decode_nanos: u64,
    /// [`TtftBreakdown::total`] in nanoseconds.
    pub total_nanos: u64,
    /// [`TtftBreakdown::modeled_ttft_s`].
    pub modeled_ttft_s: Option<f64>,
}

impl WireTtft {
    /// Flattens a breakdown.
    pub fn from_ttft(t: &TtftBreakdown) -> Self {
        Self {
            precompute_nanos: t.precompute.as_nanos() as u64,
            load_wait_nanos: t.load_wait.as_nanos() as u64,
            recompute_nanos: t.recompute.as_nanos() as u64,
            decode_nanos: t.decode.as_nanos() as u64,
            total_nanos: t.total.as_nanos() as u64,
            modeled_ttft_s: t.modeled_ttft_s,
        }
    }

    /// Rebuilds the breakdown.
    pub fn into_ttft(self) -> TtftBreakdown {
        TtftBreakdown {
            precompute: Duration::from_nanos(self.precompute_nanos),
            load_wait: Duration::from_nanos(self.load_wait_nanos),
            recompute: Duration::from_nanos(self.recompute_nanos),
            decode: Duration::from_nanos(self.decode_nanos),
            total: Duration::from_nanos(self.total_nanos),
            modeled_ttft_s: self.modeled_ttft_s,
        }
    }

    fn encode(&self, e: &mut Enc) {
        e.u64(self.precompute_nanos);
        e.u64(self.load_wait_nanos);
        e.u64(self.recompute_nanos);
        e.u64(self.decode_nanos);
        e.u64(self.total_nanos);
        match self.modeled_ttft_s {
            Some(m) => {
                e.bool(true);
                e.f64(m);
            }
            None => e.bool(false),
        }
    }

    fn decode(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Self {
            precompute_nanos: d.u64()?,
            load_wait_nanos: d.u64()?,
            recompute_nanos: d.u64()?,
            decode_nanos: d.u64()?,
            total_nanos: d.u64()?,
            modeled_ttft_s: if d.bool()? { Some(d.f64()?) } else { None },
        })
    }
}

/// A [`Response`] flattened for the wire. Carries everything remote
/// callers consume — answer, timing, ratio, provenance, blend stats —
/// but **not** the fused KV cache, final residual, or attention trace
/// (worker-local by design; see module docs). Reconstruction stubs those
/// empty.
#[derive(Clone, Debug, PartialEq)]
pub struct WireResponse {
    /// [`Response::answer`].
    pub answer: Vec<TokenId>,
    /// [`Response::ttft`].
    pub ttft: WireTtft,
    /// [`Response::recompute_ratio`].
    pub recompute_ratio: f32,
    /// [`Response::chunk_sources`]: `None` = precomputed, `Some(tier)` =
    /// store hit at that tier.
    pub chunk_sources: Vec<Option<u32>>,
    /// [`BlendStats::ctx_len`].
    pub ctx_len: u32,
    /// [`BlendStats::suffix_len`].
    pub suffix_len: u32,
    /// [`BlendStats::selected_per_layer`].
    pub selected_per_layer: Vec<u32>,
    /// [`BlendStats::first_layer_deviations`].
    pub first_layer_deviations: Vec<f32>,
}

impl WireResponse {
    /// Flattens a response.
    pub fn from_response(r: &Response) -> Self {
        Self {
            answer: r.answer.clone(),
            ttft: WireTtft::from_ttft(&r.ttft),
            recompute_ratio: r.recompute_ratio,
            chunk_sources: r
                .chunk_sources
                .iter()
                .map(|s| match s {
                    ChunkSource::Hit { tier } => Some(*tier as u32),
                    ChunkSource::Precomputed => None,
                })
                .collect(),
            ctx_len: r.blend.stats.ctx_len as u32,
            suffix_len: r.blend.stats.suffix_len as u32,
            selected_per_layer: r
                .blend
                .stats
                .selected_per_layer
                .iter()
                .map(|&n| n as u32)
                .collect(),
            first_layer_deviations: r.blend.stats.first_layer_deviations.clone(),
        }
    }

    /// Rebuilds a response with the worker-local fields stubbed empty.
    pub fn into_response(self) -> Response {
        Response {
            answer: self.answer,
            blend: BlendResult {
                cache: KvCache::empty(0, 0),
                last_residual: Vec::new(),
                stats: BlendStats {
                    ctx_len: self.ctx_len as usize,
                    suffix_len: self.suffix_len as usize,
                    selected_per_layer: self
                        .selected_per_layer
                        .iter()
                        .map(|&n| n as usize)
                        .collect(),
                    first_layer_deviations: self.first_layer_deviations,
                },
                trace: None,
            },
            ttft: self.ttft.into_ttft(),
            recompute_ratio: self.recompute_ratio,
            chunk_sources: self
                .chunk_sources
                .into_iter()
                .map(|s| match s {
                    Some(tier) => ChunkSource::Hit {
                        tier: tier as usize,
                    },
                    None => ChunkSource::Precomputed,
                })
                .collect(),
        }
    }

    fn encode(&self, e: &mut Enc) {
        e.u32s(&self.answer);
        self.ttft.encode(e);
        e.f32(self.recompute_ratio);
        e.u32(self.chunk_sources.len() as u32);
        for s in &self.chunk_sources {
            match s {
                Some(tier) => {
                    e.bool(true);
                    e.u32(*tier);
                }
                None => e.bool(false),
            }
        }
        e.u32(self.ctx_len);
        e.u32(self.suffix_len);
        e.u32s(&self.selected_per_layer);
        e.f32s(&self.first_layer_deviations);
    }

    fn decode(d: &mut Dec) -> Result<Self, WireError> {
        let answer = d.u32s()?;
        let ttft = WireTtft::decode(d)?;
        let recompute_ratio = d.f32()?;
        let n_sources = d.len(1)?;
        let chunk_sources = (0..n_sources)
            .map(|_| Ok(if d.bool()? { Some(d.u32()?) } else { None }))
            .collect::<Result<Vec<_>, WireError>>()?;
        Ok(Self {
            answer,
            ttft,
            recompute_ratio,
            chunk_sources,
            ctx_len: d.u32()?,
            suffix_len: d.u32()?,
            selected_per_layer: d.u32s()?,
            first_layer_deviations: d.f32s()?,
        })
    }
}

/// An [`EngineError`] flattened to `(code, detail, message)` — the
/// structured failure satellite: detail survives the service boundary
/// instead of collapsing to an opaque cancel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireFailure {
    /// [`ErrorCode`] as its `u16` discriminant.
    pub code: u16,
    /// Variant-specific numeric detail (chunk id, byte size).
    pub detail: u64,
    /// Human-readable detail rendered on the failing side.
    pub message: String,
}

impl WireFailure {
    /// Flattens an error via [`EngineError::to_wire`].
    pub fn from_error(e: &EngineError) -> Self {
        let (code, detail, message) = e.to_wire();
        Self {
            code: code as u16,
            detail,
            message,
        }
    }

    /// Rebuilds the error via [`EngineError::from_wire`].
    pub fn into_error(self) -> EngineError {
        match ErrorCode::from_u16(self.code) {
            Some(code) => EngineError::from_wire(code, self.detail, self.message),
            // An unassigned code (newer peer): preserve what we can.
            None => EngineError::Remote {
                code: ErrorCode::Canceled,
                message: format!("unknown remote error code {}: {}", self.code, self.message),
            },
        }
    }

    fn encode(&self, e: &mut Enc) {
        e.u16(self.code);
        e.u64(self.detail);
        e.str(&self.message);
    }

    fn decode(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Self {
            code: d.u16()?,
            detail: d.u64()?,
            message: d.str()?,
        })
    }
}

/// A [`cb_core::stream::Event`] flattened for the wire, one variant per
/// lifecycle step.
#[derive(Clone, Debug, PartialEq)]
pub enum WireEvent {
    /// [`Event::Queued`].
    Queued,
    /// [`Event::Admitted`].
    Admitted,
    /// [`Event::FirstToken`].
    FirstToken(WireTtft),
    /// [`Event::Token`].
    Token(TokenId),
    /// [`Event::Done`].
    Done(WireResponse),
    /// [`Event::Failed`].
    Failed(WireFailure),
}

impl WireEvent {
    /// Flattens a stream event.
    pub fn from_event(ev: &Event) -> Self {
        match ev {
            Event::Queued => WireEvent::Queued,
            Event::Admitted => WireEvent::Admitted,
            Event::FirstToken(t) => WireEvent::FirstToken(WireTtft::from_ttft(t)),
            Event::Token(t) => WireEvent::Token(*t),
            Event::Done(r) => WireEvent::Done(WireResponse::from_response(r)),
            Event::Failed(e) => WireEvent::Failed(WireFailure::from_error(e)),
        }
    }

    /// Rebuilds the native event (see [`WireResponse::into_response`] for
    /// what a `Done` payload stubs).
    pub fn into_event(self) -> Event {
        match self {
            WireEvent::Queued => Event::Queued,
            WireEvent::Admitted => Event::Admitted,
            WireEvent::FirstToken(t) => Event::FirstToken(t.into_ttft()),
            WireEvent::Token(t) => Event::Token(t),
            WireEvent::Done(r) => Event::Done(r.into_response()),
            WireEvent::Failed(f) => Event::Failed(f.into_error()),
        }
    }

    /// True for `Done`/`Failed` (mirrors [`Event::is_terminal`]).
    pub fn is_terminal(&self) -> bool {
        matches!(self, WireEvent::Done(_) | WireEvent::Failed(_))
    }

    fn encode(&self, e: &mut Enc) {
        match self {
            WireEvent::Queued => e.u8(0),
            WireEvent::Admitted => e.u8(1),
            WireEvent::FirstToken(t) => {
                e.u8(2);
                t.encode(e);
            }
            WireEvent::Token(t) => {
                e.u8(3);
                e.u32(*t);
            }
            WireEvent::Done(r) => {
                e.u8(4);
                r.encode(e);
            }
            WireEvent::Failed(f) => {
                e.u8(5);
                f.encode(e);
            }
        }
    }

    fn decode(d: &mut Dec) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => WireEvent::Queued,
            1 => WireEvent::Admitted,
            2 => WireEvent::FirstToken(WireTtft::decode(d)?),
            3 => WireEvent::Token(d.u32()?),
            4 => WireEvent::Done(WireResponse::decode(d)?),
            5 => WireEvent::Failed(WireFailure::decode(d)?),
            t => return Err(WireError::BadTag(t)),
        })
    }
}

fn encode_probe(e: &mut Enc, p: &ServiceProbe) {
    e.u32(p.queue_depth as u32);
    e.u32(p.queue_capacity as u32);
    e.u32(p.inflight as u32);
    e.u32(p.workers as u32);
    e.bool(p.shutdown);
}

fn decode_probe(d: &mut Dec) -> Result<ServiceProbe, WireError> {
    Ok(ServiceProbe {
        queue_depth: d.u32()? as usize,
        queue_capacity: d.u32()? as usize,
        inflight: d.u32()? as usize,
        workers: d.u32()? as usize,
        shutdown: d.bool()?,
    })
}

fn encode_stats(e: &mut Enc, s: &ServiceStats) {
    e.u64(s.submitted);
    e.u64(s.rejected);
    e.u64(s.completed);
    e.u64(s.failed);
    e.u64(s.deadline_misses);
    e.u64(s.canceled);
    e.u64(s.peak_queue_depth);
}

fn decode_stats(d: &mut Dec) -> Result<ServiceStats, WireError> {
    Ok(ServiceStats {
        submitted: d.u64()?,
        rejected: d.u64()?,
        completed: d.u64()?,
        failed: d.u64()?,
        deadline_misses: d.u64()?,
        canceled: d.u64()?,
        peak_queue_depth: d.u64()?,
    })
}

// ---------------------------------------------------------------------------
// The message catalogue
// ---------------------------------------------------------------------------

/// Every message the control plane speaks, in both directions.
///
/// Direction conventions: workers send `HelloWorker`, `Heartbeat`,
/// `Rejected`, `Ev`, and RPC replies; the gateway sends `Submit`,
/// `RegisterChunk`, `Status`, `Drain`, and `Shutdown`. Clients speak the
/// same submit/register/status verbs to the gateway, which relays `Ev`
/// frames back.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// First frame on a worker connection: announces the engine service
    /// behind it with a stable identity, an initial probe, and counters.
    HelloWorker {
        /// Stable worker identity: survives process restarts, so a
        /// reconnecting worker adopts its old slot (chunk homes, health
        /// history, and stats carry over) instead of growing the roster.
        id: u64,
        /// Monotonic per-identity connection generation. A re-attach
        /// must carry a strictly higher incarnation than the slot's
        /// current one; frames from a superseded incarnation are
        /// rejected.
        incarnation: u64,
        /// The service's admission probe at connect time.
        probe: ServiceProbe,
        /// The service's lifetime counters at connect time.
        stats: ServiceStats,
    },
    /// First frame on a client connection.
    HelloClient,
    /// Periodic worker → gateway health report.
    Heartbeat {
        /// Fresh admission probe.
        probe: ServiceProbe,
        /// Fresh lifetime counters.
        stats: ServiceStats,
    },
    /// Gateway → worker (or client → gateway) request submission.
    Submit {
        /// Request id, unique per connection.
        id: u64,
        /// Observability trace id for this request's timeline (0 = none).
        /// The gateway assigns one at placement; the worker binds it to
        /// the serving thread so engine spans land on the same trace.
        trace: u64,
        /// Span id the receiver should parent its spans under (the
        /// gateway's `serve` span for this placement attempt; 0 = root).
        span: u64,
        /// If true the worker must block for queue space rather than
        /// reject (the gateway's last-resort placement).
        blocking: bool,
        /// The request itself.
        request: WireRequest,
    },
    /// Worker → gateway: the submission was rejected (queue full). The
    /// probe rides along so the gateway respills with fresh load data.
    Rejected {
        /// Id of the rejected submission.
        id: u64,
        /// The worker's probe at rejection time.
        probe: ServiceProbe,
    },
    /// One stream event of request `id`, worker → gateway → client.
    Ev {
        /// The request the event belongs to.
        id: u64,
        /// The trace id the event belongs to (mirrors the `Submit` that
        /// started it; 0 = untraced), so relays can label span timelines
        /// without a lookup.
        trace: u64,
        /// The event.
        event: WireEvent,
    },
    /// Registers a chunk on the receiving worker.
    RegisterChunk {
        /// RPC correlation id.
        rpc: u64,
        /// Eager: precompute the KV and replicate it to the persistent
        /// tier (done at the chunk's home). Lazy otherwise.
        eager: bool,
        /// The chunk's tokens.
        tokens: Vec<TokenId>,
    },
    /// Reply to [`Message::RegisterChunk`].
    RegisterReply {
        /// RPC correlation id.
        rpc: u64,
        /// The chunk id, or the registration failure.
        result: Result<u64, WireFailure>,
    },
    /// Probe request (gateway → worker, or client → gateway).
    Status {
        /// RPC correlation id.
        rpc: u64,
    },
    /// Worker → gateway reply to [`Message::Status`].
    StatusReply {
        /// RPC correlation id.
        rpc: u64,
        /// Fresh admission probe.
        probe: ServiceProbe,
        /// Fresh lifetime counters.
        stats: ServiceStats,
    },
    /// Gateway → client reply to [`Message::Status`]: per-worker health
    /// and probes.
    ClusterStatusReply {
        /// RPC correlation id.
        rpc: u64,
        /// Routing eligibility per worker.
        healthy: Vec<bool>,
        /// Last-heartbeat probe per worker.
        probes: Vec<ServiceProbe>,
    },
    /// Metrics scrape (client → gateway, or gateway → worker). The
    /// gateway answers with its *cluster-aggregated* registry: it
    /// fans this same message out to every live worker, merges the
    /// replies with its own registry (instance-deduplicated, so the
    /// in-process loopback cluster is not double-counted), and folds in
    /// the cluster counters.
    Metrics {
        /// RPC correlation id.
        rpc: u64,
    },
    /// Reply to [`Message::Metrics`]: one encoded
    /// [`MetricsSnapshot`](cb_obs::metrics::MetricsSnapshot).
    MetricsReply {
        /// RPC correlation id.
        rpc: u64,
        /// `MetricsSnapshot::encode()` payload (self-validating; decoded
        /// with `MetricsSnapshot::decode`).
        snapshot: Vec<u8>,
    },
    /// Asks the receiver to finish all queued work before replying.
    Drain {
        /// RPC correlation id.
        rpc: u64,
    },
    /// Reply to [`Message::Drain`] once the queue and in-flight set are
    /// empty.
    DrainReply {
        /// RPC correlation id.
        rpc: u64,
    },
    /// Terminal frame: the peer is going away; tear the connection down.
    Shutdown,
}

const TAG_HELLO_WORKER: u8 = 1;
const TAG_HELLO_CLIENT: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_SUBMIT: u8 = 4;
const TAG_REJECTED: u8 = 5;
const TAG_EV: u8 = 6;
const TAG_REGISTER_CHUNK: u8 = 7;
const TAG_REGISTER_REPLY: u8 = 8;
const TAG_STATUS: u8 = 9;
const TAG_STATUS_REPLY: u8 = 10;
const TAG_CLUSTER_STATUS_REPLY: u8 = 11;
const TAG_DRAIN: u8 = 12;
const TAG_DRAIN_REPLY: u8 = 13;
const TAG_SHUTDOWN: u8 = 14;
// Tags 15..=20 are retired: they decode to `BadTag` and are never
// reassigned, so no surviving variant changes its byte on the wire.
const TAG_METRICS: u8 = 21;
const TAG_METRICS_REPLY: u8 = 22;

impl Message {
    /// Encodes the message into a frame payload (pair with
    /// [`crate::frame::encode_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        match self {
            Message::HelloWorker {
                id,
                incarnation,
                probe,
                stats,
            } => {
                e.u8(TAG_HELLO_WORKER);
                e.u64(*id);
                e.u64(*incarnation);
                encode_probe(&mut e, probe);
                encode_stats(&mut e, stats);
            }
            Message::HelloClient => e.u8(TAG_HELLO_CLIENT),
            Message::Heartbeat { probe, stats } => {
                e.u8(TAG_HEARTBEAT);
                encode_probe(&mut e, probe);
                encode_stats(&mut e, stats);
            }
            Message::Submit {
                id,
                trace,
                span,
                blocking,
                request,
            } => {
                e.u8(TAG_SUBMIT);
                e.u64(*id);
                e.u64(*trace);
                e.u64(*span);
                e.bool(*blocking);
                request.encode(&mut e);
            }
            Message::Rejected { id, probe } => {
                e.u8(TAG_REJECTED);
                e.u64(*id);
                encode_probe(&mut e, probe);
            }
            Message::Ev { id, trace, event } => {
                e.u8(TAG_EV);
                e.u64(*id);
                e.u64(*trace);
                event.encode(&mut e);
            }
            Message::RegisterChunk { rpc, eager, tokens } => {
                e.u8(TAG_REGISTER_CHUNK);
                e.u64(*rpc);
                e.bool(*eager);
                e.u32s(tokens);
            }
            Message::RegisterReply { rpc, result } => {
                e.u8(TAG_REGISTER_REPLY);
                e.u64(*rpc);
                match result {
                    Ok(id) => {
                        e.bool(true);
                        e.u64(*id);
                    }
                    Err(fail) => {
                        e.bool(false);
                        fail.encode(&mut e);
                    }
                }
            }
            Message::Status { rpc } => {
                e.u8(TAG_STATUS);
                e.u64(*rpc);
            }
            Message::StatusReply { rpc, probe, stats } => {
                e.u8(TAG_STATUS_REPLY);
                e.u64(*rpc);
                encode_probe(&mut e, probe);
                encode_stats(&mut e, stats);
            }
            Message::ClusterStatusReply {
                rpc,
                healthy,
                probes,
            } => {
                e.u8(TAG_CLUSTER_STATUS_REPLY);
                e.u64(*rpc);
                e.u32(healthy.len() as u32);
                for &h in healthy {
                    e.bool(h);
                }
                e.u32(probes.len() as u32);
                for p in probes {
                    encode_probe(&mut e, p);
                }
            }
            Message::Metrics { rpc } => {
                e.u8(TAG_METRICS);
                e.u64(*rpc);
            }
            Message::MetricsReply { rpc, snapshot } => {
                e.u8(TAG_METRICS_REPLY);
                e.u64(*rpc);
                e.blob(snapshot);
            }
            Message::Drain { rpc } => {
                e.u8(TAG_DRAIN);
                e.u64(*rpc);
            }
            Message::DrainReply { rpc } => {
                e.u8(TAG_DRAIN_REPLY);
                e.u64(*rpc);
            }
            Message::Shutdown => e.u8(TAG_SHUTDOWN),
        }
        e.buf
    }

    /// Decodes a frame payload. Rejects unknown tags, truncated or
    /// oversized fields, and trailing bytes — without panicking or
    /// allocating beyond the payload's own length.
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let mut d = Dec::new(payload);
        let msg = match d.u8()? {
            TAG_HELLO_WORKER => Message::HelloWorker {
                id: d.u64()?,
                incarnation: d.u64()?,
                probe: decode_probe(&mut d)?,
                stats: decode_stats(&mut d)?,
            },
            TAG_HELLO_CLIENT => Message::HelloClient,
            TAG_HEARTBEAT => Message::Heartbeat {
                probe: decode_probe(&mut d)?,
                stats: decode_stats(&mut d)?,
            },
            TAG_SUBMIT => Message::Submit {
                id: d.u64()?,
                trace: d.u64()?,
                span: d.u64()?,
                blocking: d.bool()?,
                request: WireRequest::decode(&mut d)?,
            },
            TAG_REJECTED => Message::Rejected {
                id: d.u64()?,
                probe: decode_probe(&mut d)?,
            },
            TAG_EV => Message::Ev {
                id: d.u64()?,
                trace: d.u64()?,
                event: WireEvent::decode(&mut d)?,
            },
            TAG_REGISTER_CHUNK => Message::RegisterChunk {
                rpc: d.u64()?,
                eager: d.bool()?,
                tokens: d.u32s()?,
            },
            TAG_REGISTER_REPLY => Message::RegisterReply {
                rpc: d.u64()?,
                result: if d.bool()? {
                    Ok(d.u64()?)
                } else {
                    Err(WireFailure::decode(&mut d)?)
                },
            },
            TAG_STATUS => Message::Status { rpc: d.u64()? },
            TAG_STATUS_REPLY => Message::StatusReply {
                rpc: d.u64()?,
                probe: decode_probe(&mut d)?,
                stats: decode_stats(&mut d)?,
            },
            TAG_CLUSTER_STATUS_REPLY => {
                let rpc = d.u64()?;
                let n_healthy = d.len(1)?;
                let healthy = (0..n_healthy)
                    .map(|_| d.bool())
                    .collect::<Result<Vec<_>, _>>()?;
                let n_probes = d.len(17)?;
                let probes = (0..n_probes)
                    .map(|_| decode_probe(&mut d))
                    .collect::<Result<Vec<_>, _>>()?;
                Message::ClusterStatusReply {
                    rpc,
                    healthy,
                    probes,
                }
            }
            TAG_METRICS => Message::Metrics { rpc: d.u64()? },
            TAG_METRICS_REPLY => Message::MetricsReply {
                rpc: d.u64()?,
                snapshot: d.blob()?,
            },
            TAG_DRAIN => Message::Drain { rpc: d.u64()? },
            TAG_DRAIN_REPLY => Message::DrainReply { rpc: d.u64()? },
            TAG_SHUTDOWN => Message::Shutdown,
            t => return Err(WireError::BadTag(t)),
        };
        d.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_probe() -> ServiceProbe {
        ServiceProbe {
            queue_depth: 3,
            queue_capacity: 64,
            inflight: 2,
            workers: 4,
            shutdown: false,
        }
    }

    fn sample_stats() -> ServiceStats {
        ServiceStats {
            submitted: 10,
            rejected: 1,
            completed: 8,
            failed: 1,
            deadline_misses: 2,
            canceled: 0,
            peak_queue_depth: 5,
        }
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::HelloWorker {
                id: 0xB0B5_1ED5,
                incarnation: 3,
                probe: sample_probe(),
                stats: sample_stats(),
            },
            Message::HelloClient,
            Message::Heartbeat {
                probe: sample_probe(),
                stats: sample_stats(),
            },
            Message::Submit {
                id: 42,
                trace: 0xFEED_F00D,
                span: 21,
                blocking: true,
                request: WireRequest {
                    chunk_ids: vec![0xDEAD_BEEF, 7],
                    query: vec![1, 2, 3],
                    max_new_tokens: 8,
                    ratio: Some(0.45),
                    high_priority: true,
                    deadline_nanos: Some(5_000_000),
                },
            },
            Message::Rejected {
                id: 42,
                probe: sample_probe(),
            },
            Message::Ev {
                id: 9,
                trace: 0xFEED_F00D,
                event: WireEvent::Queued,
            },
            Message::Ev {
                id: 9,
                trace: 0xFEED_F00D,
                event: WireEvent::FirstToken(WireTtft::default()),
            },
            Message::Ev {
                id: 9,
                trace: 0xFEED_F00D,
                event: WireEvent::Token(77),
            },
            Message::Ev {
                id: 9,
                trace: 0xFEED_F00D,
                event: WireEvent::Done(WireResponse {
                    answer: vec![5, 6],
                    ttft: WireTtft {
                        precompute_nanos: 1,
                        load_wait_nanos: 2,
                        recompute_nanos: 3,
                        decode_nanos: 4,
                        total_nanos: 10,
                        modeled_ttft_s: Some(0.5),
                    },
                    recompute_ratio: 0.15,
                    chunk_sources: vec![Some(1), None],
                    ctx_len: 33,
                    suffix_len: 4,
                    selected_per_layer: vec![4, 5],
                    first_layer_deviations: vec![0.1, 0.2],
                }),
            },
            Message::Ev {
                id: 9,
                trace: 0xFEED_F00D,
                event: WireEvent::Failed(WireFailure {
                    code: ErrorCode::UnknownChunk as u16,
                    detail: 0xABCD,
                    message: String::new(),
                }),
            },
            Message::RegisterChunk {
                rpc: 1,
                eager: true,
                tokens: vec![10, 11, 12],
            },
            Message::RegisterReply {
                rpc: 1,
                result: Ok(0x1234),
            },
            Message::RegisterReply {
                rpc: 2,
                result: Err(WireFailure {
                    code: ErrorCode::EmptyChunk as u16,
                    detail: 0,
                    message: "empty".into(),
                }),
            },
            Message::Status { rpc: 3 },
            Message::StatusReply {
                rpc: 3,
                probe: sample_probe(),
                stats: sample_stats(),
            },
            Message::ClusterStatusReply {
                rpc: 4,
                healthy: vec![true, false],
                probes: vec![sample_probe(), sample_probe()],
            },
            Message::Metrics { rpc: 6 },
            Message::MetricsReply {
                rpc: 6,
                snapshot: {
                    // A real encoded registry snapshot, so the roundtrip
                    // covers the nested codec end to end.
                    let reg = cb_obs::metrics::Registry::new();
                    reg.counter("cb_requests_completed_total").add(3);
                    reg.histogram("cb_ttft_seconds").record(1_000_000);
                    reg.snapshot().encode()
                },
            },
            Message::Drain { rpc: 5 },
            Message::DrainReply { rpc: 5 },
            Message::Shutdown,
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in sample_messages() {
            let bytes = msg.encode();
            assert_eq!(
                Message::decode(&bytes).unwrap(),
                msg,
                "roundtrip of {msg:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Message::Shutdown.encode();
        bytes.push(0);
        assert_eq!(Message::decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(Message::decode(&[0xEE]), Err(WireError::BadTag(0xEE)));
        assert_eq!(Message::decode(&[]), Err(WireError::Truncated));
    }

    /// The tag byte every variant puts on the wire. The match has no
    /// wildcard, so a new variant must be pinned here before it compiles.
    fn pinned_tag(msg: &Message) -> u8 {
        match msg {
            Message::HelloWorker { .. } => 1,
            Message::HelloClient => 2,
            Message::Heartbeat { .. } => 3,
            Message::Submit { .. } => 4,
            Message::Rejected { .. } => 5,
            Message::Ev { .. } => 6,
            Message::RegisterChunk { .. } => 7,
            Message::RegisterReply { .. } => 8,
            Message::Status { .. } => 9,
            Message::StatusReply { .. } => 10,
            Message::ClusterStatusReply { .. } => 11,
            Message::Drain { .. } => 12,
            Message::DrainReply { .. } => 13,
            Message::Shutdown => 14,
            Message::Metrics { .. } => 21,
            Message::MetricsReply { .. } => 22,
        }
    }

    #[test]
    fn tag_bytes_are_pinned_and_retired_tags_decode_to_errors() {
        let mut seen: Vec<u8> = sample_messages()
            .iter()
            .map(|msg| {
                let tag = msg.encode()[0];
                assert_eq!(tag, pinned_tag(msg), "tag byte of {msg:?} moved");
                tag
            })
            .collect();
        seen.sort_unstable();
        seen.dedup();
        let mut live: Vec<u8> = (1..=14).collect();
        live.extend([21, 22]);
        assert_eq!(seen, live, "the samples cover every variant");

        // A retired tag is an error whatever follows it: nothing, a
        // surviving variant's body, or a run of junk.
        let bodies = [
            Vec::new(),
            Message::Metrics { rpc: 7 }.encode()[1..].to_vec(),
            vec![0xFF; 64],
        ];
        for tag in 15u8..=20 {
            for body in &bodies {
                let mut payload = vec![tag];
                payload.extend_from_slice(body);
                assert_eq!(Message::decode(&payload), Err(WireError::BadTag(tag)));
            }
        }
    }

    #[test]
    fn length_fields_are_validated_before_allocation() {
        // A RegisterChunk claiming u32::MAX tokens in a 20-byte payload
        // must fail on the length check, not attempt a 16 GiB Vec.
        let mut e = Enc::default();
        e.u8(TAG_REGISTER_CHUNK);
        e.u64(1);
        e.bool(false);
        e.u32(u32::MAX);
        assert_eq!(
            Message::decode(&e.buf),
            Err(WireError::BadLength(u32::MAX as u64))
        );
    }

    #[test]
    fn request_and_error_conversions_roundtrip() {
        let req = Request::new(vec![ChunkId(5), ChunkId(9)], vec![1, 2])
            .ratio(0.3)
            .max_new_tokens(4);
        let wire = WireRequest::from_request(&req);
        let back = wire.into_request();
        assert_eq!(back.chunk_ids, req.chunk_ids);
        assert_eq!(back.query, req.query);
        assert_eq!(back.max_new_tokens, req.max_new_tokens);
        assert_eq!(back.ratio, req.ratio);

        for err in [
            EngineError::UnknownChunk(ChunkId(0xFEED)),
            EngineError::EmptyChunk,
            EngineError::EmptyQuery,
            EngineError::TooLarge { size: 1 << 30 },
            EngineError::Storage("disk on fire".into()),
            EngineError::Config("bad ratio".into()),
            EngineError::Canceled,
            EngineError::Panicked,
        ] {
            let wire = WireFailure::from_error(&err);
            assert_eq!(wire.into_error(), err, "lossless for {err:?}");
        }
    }
}
