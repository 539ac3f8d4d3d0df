//! `cb-net`: the network control plane — a coordinator/worker cluster
//! over an explicit wire protocol.
//!
//! Earlier layers served multi-replica traffic through an in-process
//! router that called replica services directly. This crate splits that
//! coupling at a wire boundary so the same cluster logic runs across
//! processes and machines:
//!
//! - [`frame`] — the byte layer: length-prefixed, FNV-checksummed,
//!   versioned frames (`CBNF`), hostile-input safe (length validated
//!   before any allocation).
//! - [`message`] — the protocol: the [`message::Message`] catalogue
//!   (hello, submit, token-stream events, heartbeat, chunk registration,
//!   status/drain RPCs) and its hand-rolled little-endian codec.
//! - [`transport`] / [`tcp`] — one connection abstraction, two carriers:
//!   [`transport::LoopbackTransport`] (in-process channels carrying
//!   encoded frames, so `cargo test` exercises the full codec with no
//!   sockets) and [`tcp::TcpTransport`] (std TCP, one demux thread per
//!   connection).
//! - [`gateway`] — the coordinator: rendezvous chunk homes, locality
//!   routing, spill-to-least-loaded, heartbeat-timeout failover with
//!   idempotent (edge-counted) health transitions, slot adoption for
//!   re-attaching workers, and client-invisible mid-stream retry (a
//!   journaled request replays onto the next-best worker when its
//!   worker dies; the delivered prefix is suppressed).
//! - [`worker`] — wraps an
//!   [`EngineService`](cb_core::scheduler::EngineService): admits or
//!   rejects submissions, streams events back frame-by-frame, heartbeats
//!   on a ticker. Carries a stable `(id, incarnation)` identity so a
//!   reconnect adopts its old gateway slot.
//! - [`client`] — the remote front door used by external processes (and
//!   the gateway's own `--smoke` self-check). A dead gateway connection
//!   closes every open stream with `Canceled`.
//! - [`retry`] — the shared [`retry::RetryPolicy`]: every timeout,
//!   retry-budget, and backoff knob in one documented place.
//!
//! The [`Gateway`] is the only cluster API. In-process clusters attach
//! their workers with [`Gateway::attach_local`] (a loopback transport,
//! so every in-process cluster test exercises the full protocol path)
//! and restart one with [`Gateway::reattach_local`]. The gateway is a
//! single point of failure: when it dies, every client stream closes
//! with `Canceled`, and nothing takes its place.

pub mod client;
pub mod frame;
pub mod gateway;
pub mod message;
pub mod retry;
pub mod tcp;
pub mod transport;
pub mod worker;

pub use client::NetClient;
pub use frame::{decode_frame, encode_frame, read_frame, write_frame, FrameError};
pub use gateway::{Accepted, ClusterError, ClusterStats, Gateway, GatewayConfig};
pub use message::{Message, WireError, WireEvent, WireFailure, WireRequest, WireResponse};
pub use retry::RetryPolicy;
pub use tcp::TcpTransport;
pub use transport::{loopback_pair, LoopbackTransport, NetError, Transport};
pub use worker::{Worker, WorkerConfig};
