//! The one deployment every workload runs on, hosted in this process the
//! way `examples/net_control_plane.rs` hosts it:
//!
//! ```text
//! NetClient -> TcpTransport -> Gateway -> TcpTransport -> Worker
//!           -> EngineService -> Engine
//! ```
//!
//! Both hops are real loopback sockets. One gateway, one worker,
//! `ServiceConfig::default().workers(1).decode_batch(8)`, kernel pool at
//! `nproc`, and a three-tier store in a fresh directory: RAM (96 entries
//! of 128 tokens) over a throttled slow-SSD packed log over an int8
//! object-store cold tier. Only the model profile differs per workload.

use cb_core::engine::{Engine, EngineBuilder, StorageConfig};
use cb_core::scheduler::{EngineService, ServiceConfig};
use cb_kv::quantize::q_entry_len;
use cb_kv::serialize::entry_len;
use cb_model::{ModelConfig, ModelProfile};
use cb_net::{Gateway, GatewayConfig, NetClient, TcpTransport, Worker, WorkerConfig};
use cb_storage::device::DeviceKind;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// RAM-tier capacity in 128-token entries. `rag_warm`'s ~54-chunk
/// universe fits; `rag_tiered`'s ~324 does not.
pub const RAM_ENTRIES: usize = 96;
/// Slow-SSD tier capacity, same unit. RAM + SSD hold `rag_tiered`'s whole
/// universe (319 chunks) and everything an `ingest_mix` run writes (54 +
/// 240 chunks) with a wide margin, so every read RAM misses is a throttled
/// SSD read and no run crosses this tier's boundary part-way through; a
/// capacity near either size would flip reads between the SSD and the cold
/// tier from seed to seed, or change the work done from block to block.
pub const SSD_ENTRIES: usize = 384;
/// Cold-tier capacity in int8 entries. It holds the int8 replica every
/// eager registration writes; nothing is demoted into it during a run.
pub const COLD_ENTRIES: usize = 512;
const ENTRY_TOKENS: usize = crate::oplist::RAG_CHUNK_LEN;
const MODEL_SEED: u64 = 11;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Serialized size of one 128-token entry of `profile` (f32 format).
pub fn entry_bytes(profile: ModelProfile) -> usize {
    let cfg = ModelConfig::standard(profile, MODEL_SEED);
    entry_len(cfg.n_layers(), ENTRY_TOKENS, cfg.kv_width())
}

fn cold_entry_bytes(profile: ModelProfile) -> usize {
    let cfg = ModelConfig::standard(profile, MODEL_SEED);
    q_entry_len(cfg.n_layers(), ENTRY_TOKENS, cfg.kv_width())
}

pub struct Stack {
    pub client: NetClient,
    worker: Worker,
    pub gateway: Arc<Gateway>,
    pub service: Arc<EngineService>,
    dir: PathBuf,
}

impl Stack {
    /// Starts the whole stack with its store under a fresh `dir`
    /// ([`Stack::stop`] removes it again).
    pub fn start(profile: ModelProfile, dir: &Path) -> Stack {
        cb_tensor::pool::set_threads(nproc());
        std::fs::create_dir_all(dir).expect("create store dir");
        let entry = entry_bytes(profile) as u64;
        let storage = StorageConfig::default()
            .tier(DeviceKind::CpuRam, RAM_ENTRIES as u64 * entry)
            .disk_tier_opts(
                DeviceKind::SlowSsd,
                SSD_ENTRIES as u64 * entry,
                dir.join("ssd"),
                true,
            )
            .packed_log()
            .cold_tier(
                DeviceKind::ObjectStore,
                COLD_ENTRIES as u64 * cold_entry_bytes(profile) as u64,
                dir.join("cold"),
            );
        let engine = EngineBuilder::new(profile)
            .seed(MODEL_SEED)
            .storage(storage)
            .build()
            .expect("engine builds");
        let service = Arc::new(EngineService::new(
            engine,
            ServiceConfig::default().workers(1).decode_batch(8),
        ));

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener address");
        let gateway = Arc::new(Gateway::new(GatewayConfig::default()));
        let accept = {
            let gateway = Arc::clone(&gateway);
            std::thread::spawn(move || {
                // Exactly two peers ever dial in: the worker, then the client.
                for stream in listener.incoming().take(2) {
                    let conn =
                        TcpTransport::from_stream(stream.expect("accept")).expect("tcp handshake");
                    gateway.accept(Arc::new(conn)).expect("peer accepted");
                }
            })
        };
        let worker = Worker::start(
            Arc::clone(&service),
            Arc::new(TcpTransport::connect(addr).expect("worker dials gateway")),
            WorkerConfig::default(),
        )
        .expect("worker handshake");
        while gateway.n_workers() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let client = NetClient::connect(Arc::new(
            TcpTransport::connect(addr).expect("client dials gateway"),
        ))
        .expect("client handshake");
        accept.join().expect("accept thread");
        Stack {
            client,
            worker,
            gateway,
            service,
            dir: dir.to_path_buf(),
        }
    }

    pub fn engine(&self) -> &Engine {
        self.service.engine()
    }

    /// The stack's own directory, for files that should go when it does.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Tears the stack down in dependency order — client session, worker
    /// session, gateway, then the service with its engine and store
    /// (joining every thread they own) — and removes the store's files.
    pub fn stop(self) {
        let Stack {
            client,
            worker,
            gateway,
            service,
            dir,
        } = self;
        drop(client);
        drop(worker);
        drop(gateway);
        drop(service);
        std::fs::remove_dir_all(&dir).expect("remove store dir");
    }
}
