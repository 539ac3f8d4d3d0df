//! Cross-restart integration tests of the tiered persistent KV storage:
//! an engine's KV state survives a drop/rebuild over the same cache dir,
//! recovery drops crash debris, and corrupt entries are repaired rather
//! than served.

use cacheblend::prelude::*;
use cacheblend::tokenizer::TokenKind::*;

fn cache_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("cb-persist-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn build_engine(dir: &std::path::Path) -> Engine {
    EngineBuilder::new(ModelProfile::Tiny)
        .blend_config(BlendConfig::with_ratio(0.45))
        .storage(
            StorageConfig::default()
                .tier(DeviceKind::CpuRam, 1 << 20)
                .disk_tier(DeviceKind::NvmeSsd, 1 << 30, dir),
        )
        .build()
        .expect("engine builds over the cache dir")
}

/// The disk tier's log files, oldest first.
fn log_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut logs: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cblog"))
        .collect();
    logs.sort();
    logs
}

/// Byte ranges of every record's payload in a log (record framing:
/// 24-byte header whose last word is the payload length, payload,
/// 8-byte checksum).
fn payloads(raw: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < raw.len() {
        let len = u64::from_le_bytes(raw[pos + 16..pos + 24].try_into().unwrap()) as usize;
        out.push(pos + 24..pos + 24 + len);
        pos += 24 + len + 8;
    }
    out
}

fn scenario(e: &Engine) -> (Vec<Vec<u32>>, Vec<u32>, u32) {
    let v = &e.model().cfg.vocab;
    let c1: Vec<u32> = [Entity(5), Attr(0), Value(1), Sep]
        .map(|k| v.id(k))
        .to_vec();
    let c2: Vec<u32> = [
        Ref,
        Attr(3),
        Value(9),
        Sep,
        Entity(8),
        Attr(1),
        Value(4),
        Sep,
    ]
    .map(|k| v.id(k))
    .to_vec();
    let q: Vec<u32> = [Query, Entity(5), Attr(3), QMark].map(|k| v.id(k)).to_vec();
    (vec![c1, c2], q, v.id(Value(9)))
}

#[test]
fn engine_state_survives_restart_with_crash_debris() {
    let dir = cache_dir("restart");

    // Session 1: register, serve, persist.
    let (chunks, query, gold) = {
        let e = build_engine(&dir);
        let (chunks, query, gold) = scenario(&e);
        let ids = e.register_chunks(&chunks).unwrap();
        let resp = e
            .submit(Request::new(ids, query.clone()).max_new_tokens(4))
            .unwrap();
        assert_eq!(resp.answer, vec![gold]);
        e.persist().unwrap();
        (chunks, query, gold)
    };

    // Simulated crash debris: the active log's tail record torn
    // mid-payload, plus a stale compaction temp. Recovery must drop both
    // and keep the intact entry.
    let logs = log_files(&dir);
    assert_eq!(logs.len(), 1, "one session, one log");
    let raw = std::fs::read(&logs[0]).unwrap();
    let records = payloads(&raw);
    assert_eq!(records.len(), 2, "both chunks persisted");
    let tail = &records[1];
    std::fs::write(&logs[0], &raw[..tail.start + tail.len() / 2]).unwrap();
    let stale = dir.join("00000007.cblog.ctmp");
    std::fs::write(&stale, b"half a compaction").unwrap();

    // Session 2: rebuild. One chunk recovered, the torn one re-precomputed
    // transparently at registration; the request serves correctly.
    let e = build_engine(&dir);
    assert_eq!(e.store().len(), 1, "torn record dropped at recovery");
    assert!(!stale.exists(), "stale compaction temp deleted");
    let ids = e.register_chunks(&chunks).unwrap();
    assert_eq!(
        e.store().stats().inserts,
        1,
        "exactly the torn chunk was re-precomputed"
    );
    let resp = e
        .submit(Request::new(ids, query).max_new_tokens(4))
        .unwrap();
    assert_eq!(resp.answer, vec![gold], "restart must not change answers");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn service_streams_disk_resident_chunks() {
    // An EngineService whose store spills to disk: requests served through
    // the scheduler stream their KV off the disk tier via the pipelined
    // loader and still match the direct in-RAM answer.
    let dir = cache_dir("service");
    let e = build_engine(&dir);
    let (chunks, query, gold) = scenario(&e);
    let ids = e.register_chunks(&chunks).unwrap();
    e.persist().unwrap(); // push everything to the disk tier
    for &id in &ids {
        assert_eq!(e.store().tier_of(id), Some(1));
    }

    let service = EngineService::new(e, ServiceConfig::default().workers(2));
    let streams: Vec<_> = (0..6)
        .map(|_| service.submit_stream(Request::new(ids.clone(), query.clone()).max_new_tokens(4)))
        .collect();
    for s in streams {
        let resp = s.collect().expect("disk-resident request completes");
        assert_eq!(resp.answer, vec![gold]);
    }
    let stats = service.engine().store().stats();
    assert!(stats.loaded_bytes > 0, "disk tier actually served loads");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_disk_segment_is_quarantined_and_repaired() {
    let dir = cache_dir("corrupt");
    let e = build_engine(&dir);
    let (chunks, query, gold) = scenario(&e);
    let ids = e.register_chunks(&chunks).unwrap();
    e.persist().unwrap();

    // Flip one byte deep inside a record's layer data.
    let log = log_files(&dir).pop().unwrap();
    let mut raw = std::fs::read(&log).unwrap();
    let first = payloads(&raw)[0].clone();
    raw[first.start + first.len() / 2] ^= 0xFF;
    std::fs::write(&log, raw).unwrap();

    // First submit trips the checksum: unified Corrupt error, entry gone.
    let err = e
        .submit(Request::new(ids.clone(), query.clone()).max_new_tokens(4))
        .unwrap_err();
    assert!(matches!(err, EngineError::Corrupt(_)), "got {err:?}");
    assert!(e.store().len() < 2, "poisoned entry evicted");

    // Second submit repairs by re-precompute and answers correctly.
    let resp = e
        .submit(Request::new(ids, query).max_new_tokens(4))
        .unwrap();
    assert_eq!(resp.answer, vec![gold]);
    assert!(resp
        .chunk_sources
        .iter()
        .any(|s| matches!(s, cacheblend::engine::ChunkSource::Precomputed)));
    let _ = std::fs::remove_dir_all(&dir);
}
