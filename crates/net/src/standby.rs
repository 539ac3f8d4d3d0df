//! The warm-standby half of gateway survivability: a [`Standby`]
//! subscribes to a primary [`Gateway`]'s
//! replication feed, mirrors everything a takeover needs, and converts
//! itself into a live gateway when the primary dies.
//!
//! ```text
//!   connect ── HelloStandby ──▶ primary
//!      │  ◀── snapshot: roster, chunks, pending journal
//!      │  ◀── live feed: ReplicatePending/Progress/Retire/Chunk/Roster
//!      ▼
//!   MIRRORING ──(roster silence > heartbeat_timeout │ conn closed)──▶
//!   TAKEOVER: Gateway::resume(roster, chunks) — same slot order, so
//!   every rendezvous chunk home is exactly what the old primary
//!   computed; workers re-attach and adopt their placeholder slots.
//! ```
//!
//! The primary re-sends the roster every mirror tick, so the roster
//! stream doubles as its heartbeat: the standby holds the primary to the
//! same silence rule ([`GatewayConfig::heartbeat_timeout`]) the primary
//! holds workers to. A closed connection triggers takeover immediately —
//! a crashed process closes its sockets, and waiting out the window
//! would only add latency.
//!
//! The mirrored pending journal is not re-driven by the new gateway
//! (clients re-submit their in-flight requests themselves when they
//! reconnect, deduplicating the replayed prefix with their own
//! [`ReplayFilter`](cb_core::stream::ReplayFilter)); it is kept so a
//! takeover can report what was orphaned ([`Standby::journal_len`],
//! [`Standby::delivered_tokens`]).

use crate::gateway::{Gateway, GatewayConfig};
use crate::message::{Message, WireRequest};
use crate::transport::{NetError, Transport};
use cb_tokenizer::TokenId;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One mirrored journal entry: the request body plus how much of its
/// answer the primary already delivered.
#[derive(Clone, Debug)]
struct MirroredPending {
    request: WireRequest,
    delivered_tokens: u32,
}

/// A standby gateway mirroring a primary (see module docs). Single
/// owner, single thread: the caller pumps frames ([`Standby::pump_for`])
/// or blocks straight through to takeover ([`Standby::wait_takeover`]).
pub struct Standby {
    conn: Arc<dyn Transport>,
    cfg: GatewayConfig,
    journal: HashMap<u64, MirroredPending>,
    chunks: HashMap<u64, Vec<TokenId>>,
    roster: Vec<(u64, u64)>,
    last_signal: Instant,
    primary_dead: bool,
}

impl std::fmt::Debug for Standby {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Standby")
            .field("roster", &self.roster.len())
            .field("chunks", &self.chunks.len())
            .field("journal", &self.journal.len())
            .field("primary_dead", &self.primary_dead)
            .finish()
    }
}

impl Standby {
    /// Subscribes to the primary over `conn`: sends `HelloStandby` and
    /// returns immediately — the snapshot and live feed are consumed by
    /// [`Standby::pump_for`] / [`Standby::wait_takeover`]. `cfg` is the
    /// configuration the gateway will run with after a takeover; its
    /// `heartbeat_timeout` is also the primary-silence window.
    pub fn connect(conn: Arc<dyn Transport>, cfg: GatewayConfig) -> Result<Standby, NetError> {
        conn.send(&Message::HelloStandby)?;
        Ok(Standby {
            conn,
            cfg,
            journal: HashMap::new(),
            chunks: HashMap::new(),
            roster: Vec::new(),
            last_signal: Instant::now(),
            primary_dead: false,
        })
    }

    fn apply(&mut self, msg: Message) {
        match msg {
            Message::ReplicatePending {
                id,
                request,
                delivered_tokens,
            } => {
                self.journal.insert(
                    id,
                    MirroredPending {
                        request,
                        delivered_tokens,
                    },
                );
            }
            Message::ReplicateProgress {
                id,
                delivered_tokens,
            } => {
                if let Some(p) = self.journal.get_mut(&id) {
                    p.delivered_tokens = delivered_tokens;
                }
            }
            Message::ReplicateRetire { id } => {
                self.journal.remove(&id);
            }
            Message::ReplicateChunk { tokens } => {
                let id = cb_kv::chunk::hash_tokens(&tokens);
                self.chunks.insert(id.0, tokens);
            }
            Message::ReplicateRoster { ids, incarnations } => {
                self.roster = ids.into_iter().zip(incarnations).collect();
            }
            _ => {} // Frames a standby never consumes.
        }
    }

    /// Drains replication frames for (at least) `window` wall time, then
    /// returns. Detects primary death on the way (a closed connection);
    /// use [`Standby::primary_alive`] afterwards. Tests use this to
    /// observe mirror convergence without committing to a takeover.
    pub fn pump_for(&mut self, window: Duration) {
        let deadline = Instant::now() + window;
        while !self.primary_dead {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            match self.conn.recv_timeout(deadline - now) {
                Ok(msg) => {
                    self.last_signal = Instant::now();
                    self.apply(msg);
                }
                Err(NetError::Timeout) => return,
                Err(_) => self.primary_dead = true,
            }
        }
    }

    /// Whether the primary still shows signs of life: the connection is
    /// up and a frame arrived within the heartbeat window.
    pub fn primary_alive(&self) -> bool {
        !self.primary_dead && self.last_signal.elapsed() <= self.cfg.heartbeat_timeout
    }

    /// Mirrored journal size (in-flight requests the primary owed).
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Answer tokens the primary had delivered for journal entry `id`
    /// (`None` if the entry was retired or never mirrored).
    pub fn delivered_tokens(&self, id: u64) -> Option<u32> {
        self.journal.get(&id).map(|p| p.delivered_tokens)
    }

    /// The mirrored request body for journal entry `id` — what a
    /// takeover reports as orphaned (clients re-drive it themselves on
    /// reconnect).
    pub fn journaled_request(&self, id: u64) -> Option<&WireRequest> {
        self.journal.get(&id).map(|p| &p.request)
    }

    /// Mirrored chunk registry size.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Mirrored worker roster: `(id, incarnation)` in slot order.
    pub fn roster(&self) -> &[(u64, u64)] {
        &self.roster
    }

    /// Blocks until the primary dies (connection closed, or roster
    /// silence beyond the heartbeat window), then converts the mirror
    /// into a live [`Gateway`] via [`Gateway::resume`]: same slot order
    /// (chunk homes intact), chunk registry re-seeded, `takeovers = 1`.
    /// Workers re-attach and adopt their placeholder slots; clients
    /// re-submit their in-flight requests on reconnect.
    pub fn wait_takeover(mut self) -> Gateway {
        let tick = (self.cfg.heartbeat_timeout / 4)
            .clamp(Duration::from_millis(5), Duration::from_millis(250));
        while !self.primary_dead {
            match self.conn.recv_timeout(tick) {
                Ok(msg) => {
                    self.last_signal = Instant::now();
                    self.apply(msg);
                }
                Err(NetError::Timeout) => {
                    if self.last_signal.elapsed() > self.cfg.heartbeat_timeout {
                        break; // Silent too long: presumed dead.
                    }
                }
                Err(_) => break, // Connection closed: dead now.
            }
        }
        Gateway::resume(self.cfg, self.roster, self.chunks, 1)
    }
}
