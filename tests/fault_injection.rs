//! Fault-injection matrix for the persistent disk tier (the segment log).
//!
//! Every case damages the victim's record in a populated log dir in a
//! specific way — a tail append torn mid-header or mid-payload, a log torn
//! to zero length, a stale `.ctmp` compaction orphan holding a
//! valid-looking copy, a flipped checksum word mid-log — and asserts the
//! same three things: startup recovery indexes exactly the intact
//! records, the damaged artifact is quarantined (cut off, deleted, or left
//! as unindexed garbage for the compactor — never served), and the intact
//! siblings still load byte-identically.

use bytes::Bytes;
use cacheblend::storage::backend::BackendError;
use cacheblend::storage::{SegmentLogBackend, StorageBackend};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn test_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cb-fault-{}-{}-{}",
        std::process::id(),
        tag,
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

const SIBLINGS: [u64; 3] = [1, 2, 3];
const VICTIM: u64 = 9;
/// One session appending the victim last: damage to it is a torn tail.
const VICTIM_LAST: &[&[u64]] = &[&[1, 2, 3, VICTIM]];
/// One session appending the victim between siblings: mid-log damage.
const VICTIM_MID: &[&[u64]] = &[&[1, VICTIM, 2, 3]];
/// Record framing: magic/kind/key/len header, payload, checksum word.
const HEADER_LEN: usize = 24;
const FRAME_LEN: usize = HEADER_LEN + 8;

fn payload_of(key: u64) -> Bytes {
    Bytes::from(vec![key as u8; 64 + (key as usize % 32)])
}

/// Bytes the siblings' record frames take (their live bytes, and where a
/// torn victim's tail must be cut back to).
fn sibling_frames() -> u64 {
    SIBLINGS
        .iter()
        .map(|&k| (payload_of(k).len() + FRAME_LEN) as u64)
        .sum()
}

/// Runs one session per entry of `sessions` (each appends its keys in
/// order to a fresh log) and returns the last session's log.
fn populate(dir: &Path, sessions: &[&[u64]]) -> PathBuf {
    for keys in sessions {
        let b = SegmentLogBackend::new(dir, None).unwrap();
        for &k in *keys {
            b.put(k, payload_of(k)).unwrap();
        }
        b.flush().unwrap();
    }
    let mut logs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cblog"))
        .collect();
    logs.sort();
    logs.pop().expect("a session wrote a log")
}

/// Byte range of the victim's record frame in a log's bytes.
fn victim_frame(raw: &[u8]) -> Range<usize> {
    let mut pos = 0;
    loop {
        let len = u64::from_le_bytes(raw[pos + 16..pos + 24].try_into().unwrap()) as usize;
        if u64::from_le_bytes(raw[pos + 8..pos + 16].try_into().unwrap()) == VICTIM {
            return pos..pos + FRAME_LEN + len;
        }
        pos += FRAME_LEN + len;
    }
}

/// Asserts exactly the siblings are indexed, the victim reads as a clean
/// miss, and every sibling still serves its exact bytes.
fn assert_recovery(b: &SegmentLogBackend, case: &str) {
    assert_eq!(b.recovered_records(), SIBLINGS.len(), "{case}: recovered");
    assert!(!b.contains(VICTIM), "{case}: victim must not be indexed");
    assert!(b.get(VICTIM).unwrap().is_none(), "{case}: clean miss");
    for &k in &SIBLINGS {
        assert_eq!(b.get(k).unwrap().unwrap(), payload_of(k), "{case}: {k}");
    }
}

/// How startup recovery must dispose of the damaged victim.
enum Outcome {
    /// A torn tail: the log is cut back to the end of the last intact
    /// record.
    Truncated,
    /// A debris file is deleted; the damaged log keeps `log_len` bytes.
    Deleted { log_len: u64 },
    /// Mid-log damage is skipped and counted; the log keeps every byte.
    Skipped,
}

/// Populates `sessions`, lets `damage` rewrite the last log's bytes (given
/// the victim's frame, and the dir to leave debris in), restarts, and
/// asserts the recovery outcome.
fn assert_fault(
    case: &str,
    sessions: &[&[u64]],
    outcome: Outcome,
    damage: impl FnOnce(&Path, &mut Vec<u8>, Range<usize>),
) {
    let dir = test_dir(case);
    let log = populate(&dir, sessions);
    let mut raw = std::fs::read(&log).unwrap();
    let original_len = raw.len() as u64;
    let victim = victim_frame(&raw);
    damage(&dir, &mut raw, victim);
    std::fs::write(&log, &raw).unwrap();

    let b = SegmentLogBackend::new(&dir, None).unwrap();
    assert_recovery(&b, case);
    let stats = b.log_stats();
    let (torn, debris, skipped, log_len) = match outcome {
        Outcome::Truncated => (1, 0, 0, sibling_frames()),
        Outcome::Deleted { log_len } => (0, 1, 0, log_len),
        Outcome::Skipped => (0, 0, 1, original_len),
    };
    assert_eq!(stats.torn_truncated, torn, "{case}: torn tails");
    assert_eq!(b.dropped_debris(), debris, "{case}: debris files");
    assert_eq!(stats.corrupt_dropped, skipped, "{case}: skipped records");
    assert_eq!(stats.live_bytes, sibling_frames(), "{case}: live bytes");
    let len = std::fs::metadata(&log).map_or(0, |m| m.len());
    assert_eq!(len, log_len, "{case}: damaged log's length");
    let ctmp = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .any(|e| e.path().extension().is_some_and(|x| x == "ctmp"));
    assert!(!ctmp, "{case}: exclusive startup deletes every .ctmp");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_mid_header_is_dropped_at_startup() {
    assert_fault(
        "mid-header",
        VICTIM_LAST,
        Outcome::Truncated,
        |_, raw, v| raw.truncate(v.start + HEADER_LEN / 2),
    );
}

#[test]
fn truncation_mid_payload_is_dropped_at_startup() {
    assert_fault(
        "mid-payload",
        VICTIM_LAST,
        Outcome::Truncated,
        |_, raw, v| raw.truncate(v.start + HEADER_LEN + (v.len() - FRAME_LEN) / 2),
    );
}

#[test]
fn zero_length_segment_is_dropped_at_startup() {
    // The victim went into a later session's log, which a crash left
    // empty: startup deletes it (and the fresh active log reuses its
    // sequence number, so the path holds an empty file again).
    let outcome = Outcome::Deleted { log_len: 0 };
    assert_fault("zero-len", &[&SIBLINGS, &[VICTIM]], outcome, |_, raw, _| {
        raw.clear()
    });
}

#[test]
fn stale_tmp_orphan_is_deleted_and_never_indexed() {
    // A compaction that crashed before its rename leaves a `.ctmp` holding
    // a perfectly framed copy. The victim's durable record is *also* gone
    // (cut exactly at a record boundary), so the orphan is the only
    // artifact under its key — recovery must not resurrect it.
    let outcome = Outcome::Deleted {
        log_len: sibling_frames(),
    };
    assert_fault("tmp-orphan", VICTIM_LAST, outcome, |dir, raw, v| {
        std::fs::write(dir.join("00000002.cblog.ctmp"), &raw[v.clone()]).unwrap();
        raw.truncate(v.start);
    });
}

#[test]
fn flipped_checksum_word_is_dropped_at_startup() {
    // Mid-log damage: the records appended after the victim survive, and
    // its frame stays on disk as compactor garbage.
    assert_fault("bad-checksum", VICTIM_MID, Outcome::Skipped, |_, raw, v| {
        raw[v.end - 8..v.end].iter_mut().for_each(|b| *b ^= 0xFF)
    });
}

#[test]
fn live_corruption_quarantines_on_read_not_just_at_startup() {
    // The same kind of fault injected while the backend is open: the read
    // surfaces Corrupt exactly once, quarantines the record, and siblings
    // are untouched — then and after a restart.
    let dir = test_dir("live-corrupt");
    let log = populate(&dir, VICTIM_MID);
    let b = SegmentLogBackend::new(&dir, None).unwrap();
    let mut raw = std::fs::read(&log).unwrap();
    let victim = victim_frame(&raw);
    raw[victim.start + HEADER_LEN + 5] ^= 0x40;
    std::fs::write(&log, &raw).unwrap();

    assert_eq!(b.get(VICTIM).unwrap_err(), BackendError::Corrupt);
    assert!(!b.contains(VICTIM), "quarantined after the failed read");
    assert_eq!(
        b.log_stats().live_bytes,
        sibling_frames(),
        "frame is garbage"
    );
    assert!(
        b.get(VICTIM).unwrap().is_none(),
        "second read is a clean miss"
    );
    for &k in &SIBLINGS {
        assert_eq!(b.get(k).unwrap().unwrap(), payload_of(k));
    }
    drop(b);
    assert_recovery(&SegmentLogBackend::new(&dir, None).unwrap(), "restarted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tiered_store_repairs_quarantined_disk_entries_by_reinsert() {
    // Store-level view of the matrix: a corrupt disk-resident KV entry
    // surfaces StoreError::Corrupt, is evicted everywhere, leaves the
    // sibling servable, and a reinsert makes the id cleanly servable again.
    use cacheblend::kv::store::{KvStore, StoreError, TierConfig};
    use cacheblend::kv::ChunkId;
    use cacheblend::model::{Model, ModelConfig, ModelProfile};
    use cacheblend::storage::MemBackend;
    use std::sync::Arc;

    let dir = test_dir("store-level");
    let m = Model::compiled(ModelConfig::standard(ModelProfile::Tiny, 11));
    let v = m.cfg.vocab.clone();
    use cacheblend::tokenizer::TokenKind::*;
    let mk_cache = |i: u32| {
        cacheblend::kv::precompute::precompute_chunk(
            &m,
            &[
                v.id(Entity(i)),
                v.id(Attr(i % 8)),
                v.id(Value(i)),
                v.id(Sep),
            ],
        )
    };
    let victim_cache = mk_cache(1);
    let sibling_cache = mk_cache(2);
    let entry = cacheblend::kv::serialize::encode(&victim_cache).len() as u64;

    let store = KvStore::with_backends(vec![
        (
            TierConfig::new("ram", entry / 2), // nothing fits in RAM: all disk-resident,
            Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>,
        ),
        (
            TierConfig::new("disk", 1 << 20),
            Arc::new(SegmentLogBackend::new(&dir, None).unwrap()),
        ),
    ]);
    store.insert(ChunkId(1), &victim_cache).unwrap();
    store.insert(ChunkId(2), &sibling_cache).unwrap();
    store.flush().unwrap();
    assert_eq!(store.tier_of(ChunkId(1)), Some(1));

    assert!(store.corrupt(ChunkId(1), 40));
    let err = store.get(ChunkId(1)).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt(_)), "got {err}");
    assert!(!store.contains(ChunkId(1)), "quarantined");
    assert_eq!(store.stats().corrupt_evictions, 1);
    assert_eq!(
        store.get(ChunkId(2)).unwrap().unwrap().0,
        sibling_cache,
        "sibling unaffected"
    );
    store.insert(ChunkId(1), &victim_cache).unwrap();
    assert_eq!(
        store.get(ChunkId(1)).unwrap().unwrap().0,
        victim_cache,
        "reinsert repairs the quarantined id"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
