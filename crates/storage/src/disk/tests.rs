use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;

use crate::backend::{BackendError, ReadStream, StorageBackend};
use crate::segment_log::{log_path, SegmentLogBackend, REC_FRAME, REC_HEADER};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn test_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cb-disk-{}-{}-{}",
        std::process::id(),
        tag,
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// The log an exclusive handle's first session appends to.
fn first_log(dir: &std::path::Path) -> PathBuf {
    log_path(dir, (1, 0))
}

fn drain(mut s: Box<dyn ReadStream + Send>, step: usize) -> Vec<u8> {
    let mut got = Vec::new();
    loop {
        let chunk = s.read_next(step).unwrap();
        if chunk.is_empty() {
            return got;
        }
        got.extend_from_slice(&chunk);
    }
}

#[test]
fn put_get_roundtrips_through_pending_and_disk() {
    let dir = test_dir("roundtrip");
    let b: Box<dyn StorageBackend> = Box::new(SegmentLogBackend::new(&dir, None).unwrap());
    assert!(b.persistent());
    let payload = Bytes::from((0u8..200).collect::<Vec<_>>());
    b.put(42, payload.clone()).unwrap();
    // Readable immediately (pending map), and after the flush.
    assert_eq!(b.get(42).unwrap().unwrap(), payload);
    b.flush().unwrap();
    assert_eq!(b.get(42).unwrap().unwrap(), payload);
    assert_eq!(b.used_bytes(), 200);
    assert_eq!(b.entries(), vec![(42, 200)]);
    assert!(b.contains(42));
    assert!(b.remove(42));
    assert!(b.get(42).unwrap().is_none());
    assert_eq!(b.used_bytes(), 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn entries_survive_reopen() {
    let dir = test_dir("reopen");
    {
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        b.put(1, Bytes::from(vec![9u8; 64])).unwrap();
        b.put(2, Bytes::from(vec![7u8; 32])).unwrap();
        // Dropping the backend drains the write-behind queue.
    }
    let b = SegmentLogBackend::new(&dir, None).unwrap();
    assert_eq!(b.recovered_records(), 2);
    assert_eq!(b.len(), 2);
    assert_eq!(b.used_bytes(), 96);
    assert_eq!(b.get(1).unwrap().unwrap().as_ref(), &[9u8; 64][..]);
    assert_eq!(b.get(2).unwrap().unwrap().as_ref(), &[7u8; 32][..]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_drops_tmp_orphans_and_torn_segments() {
    let dir = test_dir("recovery");
    {
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        b.put(1, Bytes::from(vec![1u8; 40])).unwrap();
        b.put(2, Bytes::from(vec![2u8; 40])).unwrap();
    }
    // Simulate a crash: key 2's record torn mid-payload, plus a
    // compaction temp whose rename never happened.
    let log = first_log(&dir);
    let frame = 40 + REC_FRAME;
    let raw = fs::read(&log).unwrap();
    assert_eq!(raw.len(), 2 * frame);
    fs::write(&log, &raw[..frame + REC_HEADER + 20]).unwrap();
    let orphan = dir.join("00000009.cblog.ctmp");
    fs::write(&orphan, b"partial").unwrap();

    let b = SegmentLogBackend::new(&dir, None).unwrap();
    assert_eq!(b.recovered_records(), 1, "only the intact record");
    assert_eq!(b.torn_truncations(), 1, "the torn record");
    assert_eq!(b.dropped_debris(), 1, "the temp orphan");
    assert!(b.contains(1));
    assert!(!b.contains(2));
    assert!(!orphan.exists());
    assert_eq!(
        fs::metadata(&log).unwrap().len(),
        frame as u64,
        "truncated back to the intact prefix"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_segment_read_errors_and_is_dropped() {
    let dir = test_dir("corrupt");
    let b = SegmentLogBackend::new(&dir, None).unwrap();
    b.put(5, Bytes::from(vec![3u8; 100])).unwrap();
    b.put(6, Bytes::from(vec![4u8; 100])).unwrap();
    b.flush().unwrap();
    // Flip a payload byte of key 5 on disk.
    let log = first_log(&dir);
    let mut raw = fs::read(&log).unwrap();
    raw[REC_HEADER + 10] ^= 0xFF;
    fs::write(&log, &raw).unwrap();
    assert_eq!(b.get(5).unwrap_err(), BackendError::Corrupt);
    assert!(!b.contains(5), "corrupt record evicted");
    assert_eq!(b.used_bytes(), 100);
    drop(b);
    // The damage is never re-indexed by a later session either.
    let b = SegmentLogBackend::new(&dir, None).unwrap();
    assert!(!b.contains(5));
    assert_eq!(b.log_stats().corrupt_dropped, 1);
    assert_eq!(b.get(6).unwrap().unwrap().as_ref(), &[4u8; 100][..]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stream_reads_payload_in_order() {
    let dir = test_dir("stream");
    let b = SegmentLogBackend::new(&dir, None).unwrap();
    let payload: Vec<u8> = (0u8..=99).collect();
    b.put(7, Bytes::from(payload.clone())).unwrap();
    // Both sides of the write-behind stream the same bytes.
    let pending = b.open_read(7).unwrap().unwrap();
    assert_eq!(pending.payload_len(), 100);
    b.flush().unwrap();
    let durable = b.open_read(7).unwrap().unwrap();
    assert_eq!(durable.payload_len(), 100);
    assert_eq!(drain(pending, 32), payload);
    assert_eq!(drain(durable, 32), payload);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn overwrite_replaces_and_reaccounts() {
    let dir = test_dir("overwrite");
    {
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        b.put(9, Bytes::from(vec![1u8; 100])).unwrap();
        b.put(9, Bytes::from(vec![2u8; 50])).unwrap();
        b.flush().unwrap();
        assert_eq!(b.used_bytes(), 50);
        assert_eq!(b.get(9).unwrap().unwrap().as_ref(), &[2u8; 50][..]);
        assert_eq!(b.len(), 1);
    }
    // Replay reaches the same accounting.
    let b = SegmentLogBackend::new(&dir, None).unwrap();
    assert_eq!(b.used_bytes(), 50);
    assert_eq!(b.get(9).unwrap().unwrap().as_ref(), &[2u8; 50][..]);
    assert_eq!(b.len(), 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn shared_handles_discover_each_others_segments() {
    let dir = test_dir("shared-discover");
    let a = SegmentLogBackend::open_shared(&dir, None).unwrap();
    let b = SegmentLogBackend::open_shared(&dir, None).unwrap();
    assert!(a.shared() && b.shared());
    let payload = Bytes::from(vec![5u8; 80]);
    a.put(77, payload.clone()).unwrap();
    a.flush().unwrap();
    assert!(!b.contains(77), "b has not indexed a's record yet");
    assert_eq!(b.discover(77), Some(80));
    assert!(b.contains(77));
    assert_eq!(b.used_bytes(), 80);
    assert_eq!(b.get(77).unwrap().unwrap(), payload);
    // A sibling's removal: b keeps serving the verified bytes it already
    // claimed (keys are content hashes), while a handle that never
    // claimed the record finds it undiscoverable.
    assert!(a.remove(77));
    a.flush().unwrap();
    assert_eq!(b.get(77).unwrap().unwrap(), payload);
    let c = SegmentLogBackend::open_shared(&dir, None).unwrap();
    assert!(!c.contains(77));
    assert_eq!(c.discover(77), None, "removed record is undiscoverable");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn exclusive_handle_never_discovers_foreign_segments() {
    let dir = test_dir("excl-discover");
    {
        let writer = SegmentLogBackend::new(&dir, None).unwrap();
        writer.put(4, Bytes::from(vec![1u8; 32])).unwrap();
    }
    let later = SegmentLogBackend::new(&dir, None).unwrap();
    assert_eq!(later.discover(4), Some(32), "indexed at startup");
    // Append a fresh record behind the exclusive handle's back.
    {
        let sneaky = SegmentLogBackend::open_shared(&dir, None).unwrap();
        sneaky.put(5, Bytes::from(vec![2u8; 16])).unwrap();
    }
    assert_eq!(
        later.discover(5),
        None,
        "exclusive handles trust only their own index"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn shared_startup_preserves_foreign_tmp_files() {
    let dir = test_dir("shared-tmp");
    let sibling = SegmentLogBackend::open_shared(&dir, None).unwrap();
    sibling.put(3, Bytes::from(vec![6u8; 24])).unwrap();
    sibling.flush().unwrap();
    // What a sibling's in-flight compaction looks like on disk.
    let foreign = dir.join("00000000cafef00d-00000009.cblog.ctmp");
    fs::write(&foreign, b"sibling in-flight compaction").unwrap();
    let shared = SegmentLogBackend::open_shared(&dir, None).unwrap();
    assert_eq!(shared.dropped_debris(), 0);
    assert!(foreign.exists(), "shared startup must not delete .ctmp");
    assert_eq!(shared.get(3).unwrap().unwrap().as_ref(), &[6u8; 24][..]);
    drop((sibling, shared));
    // The exclusive owner cleans the temp and the second handle's empty
    // log, and keeps the sibling's record.
    let exclusive = SegmentLogBackend::new(&dir, None).unwrap();
    assert_eq!(exclusive.dropped_debris(), 2, "exclusive startup cleans");
    assert!(!foreign.exists());
    assert!(exclusive.contains(3));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn remove_during_pending_write_does_not_resurrect() {
    let dir = test_dir("race");
    {
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        b.put(3, Bytes::from(vec![4u8; 64])).unwrap();
        assert!(b.remove(3));
        b.flush().unwrap();
        assert!(!b.contains(3));
        assert!(b.get(3).unwrap().is_none(), "flusher must not resurrect");
    }
    let b = SegmentLogBackend::new(&dir, None).unwrap();
    assert!(!b.contains(3));
    assert!(b.is_empty());
    assert_eq!(b.used_bytes(), 0);
    let _ = fs::remove_dir_all(&dir);
}
