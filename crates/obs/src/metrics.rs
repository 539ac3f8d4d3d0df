//! The metrics registry: counters, gauges, log-linear histograms, and
//! the serializable/mergeable/renderable [`MetricsSnapshot`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonic counter. Updates are relaxed atomic adds.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Adds `n`; a no-op while instrumentation is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// An f64 gauge (bit-cast into an atomic u64). `set` is a plain store;
/// `add` is a CAS loop — gauges are off the per-token hot path.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge to `v`; a no-op while instrumentation is disabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `d` (atomically, via CAS).
    pub fn add(&self, d: f64) {
        if !crate::enabled() {
            return;
        }
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                Some((f64::from_bits(b) + d).to_bits())
            });
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Default sub-bucket resolution: 2⁵ = 32 sub-buckets per power of two,
/// a guaranteed relative quantile error γ ≤ 1/32 ≈ 3.13%.
pub const DEFAULT_SUB_BITS: u32 = 5;

/// A log-linear histogram over `u64` values (HdrHistogram-shaped).
///
/// Values below 2^`sub_bits` get one exact bucket each; every power-of-two
/// range [2ᵉ, 2ᵉ⁺¹) above that is split into 2^`sub_bits` equal
/// sub-buckets, so a recorded value is reconstructed from its bucket's
/// upper bound with relative error ≤ γ = 2^-`sub_bits`. Recording is
/// three relaxed `fetch_add`s — lock-free and wait-free.
#[derive(Debug)]
pub struct Histogram {
    sub_bits: u32,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

/// Number of buckets for a given resolution.
fn n_buckets(sub_bits: u32) -> usize {
    (1usize << sub_bits) * (65 - sub_bits as usize)
}

/// The bucket a value lands in (shared by the live histogram and
/// snapshot reconstruction).
fn bucket_index(sub_bits: u32, v: u64) -> usize {
    let sub = 1u64 << sub_bits;
    if v < sub {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // >= sub_bits
    let shift = e - sub_bits;
    let sub_idx = ((v >> shift) - sub) as usize;
    (sub as usize) + (shift as usize) * (sub as usize) + sub_idx
}

/// The largest value that lands in bucket `i` — the quantile
/// representative (upper bound keeps the γ error one-sided).
pub fn bucket_upper(sub_bits: u32, i: usize) -> u64 {
    let sub = 1usize << sub_bits;
    if i < sub {
        return i as u64; // exact bucket
    }
    let group = (i - sub) / sub;
    let pos = ((i - sub) % sub) as u64;
    let e = group as u32 + sub_bits;
    let width = 1u64 << (e - sub_bits);
    (1u64 << e) + (pos + 1) * width - 1
}

impl Histogram {
    fn new(sub_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&sub_bits),
            "sub_bits out of range: {sub_bits}"
        );
        let buckets = (0..n_buckets(sub_bits))
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            sub_bits,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets,
        }
    }

    /// The configured relative error bound γ = 2^-`sub_bits`.
    pub fn gamma(&self) -> f64 {
        1.0 / (1u64 << self.sub_bits) as f64
    }

    /// Records one value; a no-op while instrumentation is disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(self.sub_bits, v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (the convention
    /// for `*_seconds` histograms).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos() as u64);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy (sparse: only non-empty buckets).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u32, c));
            }
        }
        HistSnapshot {
            sub_bits: self.sub_bits,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Quantile of the live histogram (see [`HistSnapshot::quantile`]).
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// A serializable point-in-time histogram: sparse `(bucket, count)`
/// pairs plus totals. Merging adds bucket counts, so cluster-wide
/// quantiles are exact with respect to the bucketed data (merge is
/// associative and commutative — property-tested).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    pub sub_bits: u32,
    pub count: u64,
    pub sum: u64,
    /// Sorted by bucket index, counts > 0.
    pub buckets: Vec<(u32, u64)>,
}

impl HistSnapshot {
    /// The value at quantile `q ∈ [0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q · count)`. Returns 0
    /// for an empty histogram. Monotone in `q` by construction; relative
    /// error ≤ γ = 2^-`sub_bits` versus the true recorded value.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for &(i, c) in &self.buckets {
            cum += c;
            if cum >= target {
                return bucket_upper(self.sub_bits, i as usize);
            }
        }
        // Unreachable when counts are consistent; fall back to the max.
        self.buckets
            .last()
            .map(|&(i, _)| bucket_upper(self.sub_bits, i as usize))
            .unwrap_or(0)
    }

    /// Quantile scaled to seconds (for `*_seconds` histograms, which
    /// record nanoseconds).
    pub fn quantile_seconds(&self, q: f64) -> f64 {
        self.quantile(q) as f64 / 1e9
    }

    /// Mean of the recorded values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Adds `other`'s buckets into `self`. Panics if the resolutions
    /// differ (all histograms in this workspace use one γ per name). A
    /// default-constructed `self` (`sub_bits` 0, which no histogram has)
    /// takes `other`'s resolution even when `other` is empty, so the
    /// merge encodes.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            if self.sub_bits == 0 {
                self.sub_bits = other.sub_bits;
            }
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        assert_eq!(
            self.sub_bits, other.sub_bits,
            "histogram resolution mismatch"
        );
        self.count += other.count;
        self.sum += other.sum;
        let mut map: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(i, c) in &other.buckets {
            *map.entry(i).or_insert(0) += c;
        }
        self.buckets = map.into_iter().collect();
    }
}

/// A named collection of metrics. One global instance per process
/// ([`Registry::global`]); tests and the bench harness can build
/// private ones. Handle lookup takes a mutex; updates through the
/// returned `Arc` handles are lock-free — cache the handle, not the
/// name.
#[derive(Debug)]
pub struct Registry {
    instance: u64,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn instance_id() -> u64 {
    // splitmix64 over (pid, wall clock): distinct per process, which is
    // exactly the granularity snapshot dedup needs.
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut x = (std::process::id() as u64) ^ t.rotate_left(32);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)).max(1)
}

impl Registry {
    /// A fresh, private registry (tests, benches).
    pub fn new() -> Self {
        Self {
            instance: instance_id(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
        }
    }

    /// The process-wide registry every subsystem publishes into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// This registry's process-unique identity, used to deduplicate when
    /// a gateway merges worker snapshots that may alias its own registry
    /// (the in-process loopback cluster).
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// The counter named `name` (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.counters.lock().unwrap();
        Arc::clone(m.entry(name.to_string()).or_default())
    }

    /// The gauge named `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.gauges.lock().unwrap();
        Arc::clone(m.entry(name.to_string()).or_default())
    }

    /// The histogram named `name` at the default resolution
    /// ([`DEFAULT_SUB_BITS`]).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with_sub_bits(name, DEFAULT_SUB_BITS)
    }

    /// The histogram named `name` with γ = 2^-`sub_bits`. The resolution
    /// is fixed by whoever registers the name first.
    pub fn histogram_with_sub_bits(&self, name: &str, sub_bits: u32) -> Arc<Histogram> {
        let mut m = self.hists.lock().unwrap();
        Arc::clone(
            m.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(sub_bits))),
        )
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect();
        let hists = self
            .hists
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            instances: vec![self.instance],
            counters,
            gauges,
            hists,
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// A serializable view of one or more registries. Name-sorted vectors;
/// `instances` lists every registry merged in (dedup key).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub instances: Vec<u64>,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub hists: Vec<(String, HistSnapshot)>,
}

// Defensive caps for the wire decoder: a corrupt or hostile payload may
// not cause large allocations before its claimed sizes are validated.
const MAX_NAME: usize = 512;
const MAX_ENTRIES: usize = 65_536;
const MAX_HIST_BUCKETS: usize = 1 << 20;
const SNAPSHOT_VERSION: u8 = 1;

/// Decode failure (truncated, oversized, or malformed payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDecodeError(pub &'static str);

impl std::fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "metrics snapshot decode: {}", self.0)
    }
}

impl std::error::Error for SnapshotDecodeError {}

struct Cur<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotDecodeError> {
        if self.b.len() - self.at < n {
            return Err(SnapshotDecodeError("truncated"));
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotDecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, SnapshotDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, SnapshotDecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn name(&mut self) -> Result<String, SnapshotDecodeError> {
        let n = self.u32()? as usize;
        if n > MAX_NAME {
            return Err(SnapshotDecodeError("name too long"));
        }
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| SnapshotDecodeError("name not utf-8"))
    }
    /// Validates an element count against both the hard cap and the
    /// bytes actually remaining (`min_elem` bytes per element).
    fn count(&mut self, cap: usize, min_elem: usize) -> Result<usize, SnapshotDecodeError> {
        let n = self.u32()? as usize;
        if n > cap || n * min_elem > self.b.len() - self.at {
            return Err(SnapshotDecodeError("length exceeds payload"));
        }
        Ok(n)
    }
}

fn put_name(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

impl MetricsSnapshot {
    /// Serializes to the length-checked little-endian wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.push(SNAPSHOT_VERSION);
        out.extend_from_slice(&(self.instances.len() as u32).to_le_bytes());
        for &i in &self.instances {
            out.extend_from_slice(&i.to_le_bytes());
        }
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (k, v) in &self.counters {
            put_name(&mut out, k);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.gauges.len() as u32).to_le_bytes());
        for (k, v) in &self.gauges {
            put_name(&mut out, k);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(self.hists.len() as u32).to_le_bytes());
        for (k, h) in &self.hists {
            put_name(&mut out, k);
            out.push(h.sub_bits as u8);
            out.extend_from_slice(&h.count.to_le_bytes());
            out.extend_from_slice(&h.sum.to_le_bytes());
            out.extend_from_slice(&(h.buckets.len() as u32).to_le_bytes());
            for &(i, c) in &h.buckets {
                out.extend_from_slice(&i.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    /// Decodes the wire format; every claimed length is validated against
    /// the remaining payload before any allocation.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotDecodeError> {
        let mut c = Cur { b: bytes, at: 0 };
        if c.u8()? != SNAPSHOT_VERSION {
            return Err(SnapshotDecodeError("unknown version"));
        }
        let n = c.count(MAX_ENTRIES, 8)?;
        let mut instances = Vec::with_capacity(n);
        for _ in 0..n {
            instances.push(c.u64()?);
        }
        let n = c.count(MAX_ENTRIES, 12)?;
        let mut counters = Vec::with_capacity(n);
        for _ in 0..n {
            let k = c.name()?;
            counters.push((k, c.u64()?));
        }
        let n = c.count(MAX_ENTRIES, 12)?;
        let mut gauges = Vec::with_capacity(n);
        for _ in 0..n {
            let k = c.name()?;
            gauges.push((k, c.f64()?));
        }
        let n = c.count(MAX_ENTRIES, 25)?;
        let mut hists = Vec::with_capacity(n);
        for _ in 0..n {
            let k = c.name()?;
            let sub_bits = c.u8()? as u32;
            if !(1..=16).contains(&sub_bits) {
                return Err(SnapshotDecodeError("bad histogram resolution"));
            }
            let count = c.u64()?;
            let sum = c.u64()?;
            let nb = c.count(MAX_HIST_BUCKETS, 12)?;
            let mut buckets = Vec::with_capacity(nb);
            for _ in 0..nb {
                let i = c.u32()?;
                if i as usize >= n_buckets(sub_bits) {
                    return Err(SnapshotDecodeError("bucket index out of range"));
                }
                buckets.push((i, c.u64()?));
            }
            hists.push((
                k,
                HistSnapshot {
                    sub_bits,
                    count,
                    sum,
                    buckets,
                },
            ));
        }
        if c.at != bytes.len() {
            return Err(SnapshotDecodeError("trailing bytes"));
        }
        Ok(Self {
            instances,
            counters,
            gauges,
            hists,
        })
    }

    /// Merges `other` into `self`: counters and gauges sum by name,
    /// histograms merge bucket-wise. A snapshot whose instances are all
    /// already present is skipped entirely — this is what keeps a
    /// loopback cluster (gateway and workers sharing one process-global
    /// registry) from counting itself N times.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        if !other.instances.is_empty() && other.instances.iter().all(|i| self.instances.contains(i))
        {
            return;
        }
        for &i in &other.instances {
            if !self.instances.contains(&i) {
                self.instances.push(i);
            }
        }
        let mut counters: BTreeMap<String, u64> = self.counters.drain(..).collect();
        for (k, v) in &other.counters {
            *counters.entry(k.clone()).or_insert(0) += v;
        }
        self.counters = counters.into_iter().collect();
        let mut gauges: BTreeMap<String, f64> = self.gauges.drain(..).collect();
        for (k, v) in &other.gauges {
            *gauges.entry(k.clone()).or_insert(0.0) += v;
        }
        self.gauges = gauges.into_iter().collect();
        let mut hists: BTreeMap<String, HistSnapshot> = self.hists.drain(..).collect();
        for (k, h) in &other.hists {
            hists.entry(k.clone()).or_default().merge(h);
        }
        self.hists = hists.into_iter().collect();
    }

    /// Counter value by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Gauge value by exact name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Histogram by exact name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// Sum of a labeled gauge family, e.g. `cb_worker_queue_depth`
    /// matches `cb_worker_queue_depth{worker="w0"}`.
    pub fn gauge_family_sum(&self, base: &str) -> f64 {
        self.gauges
            .iter()
            .filter(|(k, _)| k == base || (k.starts_with(base) && k[base.len()..].starts_with('{')))
            .map(|&(_, v)| v)
            .sum()
    }

    /// Prometheus-style exposition text. `*_seconds` histograms (which
    /// record nanoseconds) are rendered in seconds.
    pub fn to_prometheus(&self) -> String {
        fn base(name: &str) -> &str {
            name.split('{').next().unwrap_or(name)
        }
        let mut out = String::new();
        let mut last_base = String::new();
        for (k, v) in &self.counters {
            if base(k) != last_base {
                last_base = base(k).to_string();
                out.push_str(&format!("# TYPE {last_base} counter\n"));
            }
            out.push_str(&format!("{k} {v}\n"));
        }
        last_base.clear();
        for (k, v) in &self.gauges {
            if base(k) != last_base {
                last_base = base(k).to_string();
                out.push_str(&format!("# TYPE {last_base} gauge\n"));
            }
            out.push_str(&format!("{k} {v}\n"));
        }
        for (k, h) in &self.hists {
            let secs = k.ends_with("_seconds");
            let scale = if secs { 1e-9 } else { 1.0 };
            out.push_str(&format!("# TYPE {k} summary\n"));
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)] {
                out.push_str(&format!(
                    "{k}{{quantile=\"{label}\"}} {}\n",
                    h.quantile(q) as f64 * scale
                ));
            }
            out.push_str(&format!("{k}_sum {}\n", h.sum as f64 * scale));
            out.push_str(&format!("{k}_count {}\n", h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_an_empty_histogram_into_a_snapshot_without_it_encodes() {
        // An idle worker's registry holds a histogram nothing recorded
        // into; the gateway's snapshot lacks it.
        let worker = Registry::new();
        worker.histogram_with_sub_bits("cb_idle_seconds", 7);
        let mut merged = Registry::new().snapshot();
        merged.merge(&worker.snapshot());
        let idle = merged.hist("cb_idle_seconds").expect("merged histogram");
        assert_eq!((idle.count, idle.sub_bits), (0, 7));
        let decoded = MetricsSnapshot::decode(&merged.encode()).expect("the merge decodes");
        assert_eq!(decoded, merged);
    }

    #[test]
    fn linear_buckets_are_exact() {
        let h = Histogram::new(5);
        for v in 0..32u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 32);
        assert_eq!(s.sum, (0..32).sum::<u64>());
        // Every value below 2^sub_bits reconstructs exactly.
        for v in 0..32usize {
            assert_eq!(bucket_upper(5, bucket_index(5, v as u64)), v as u64);
        }
    }

    #[test]
    fn bucket_error_bound_holds_across_the_range() {
        for sub_bits in [1u32, 3, 5, 8] {
            let gamma = 1.0 / (1u64 << sub_bits) as f64;
            let mut v = 1u64;
            while v < u64::MAX / 3 {
                for x in [v, v + v / 3, v * 2 - 1] {
                    let i = bucket_index(sub_bits, x);
                    let up = bucket_upper(sub_bits, i);
                    assert!(up >= x, "upper {up} < value {x}");
                    let err = (up - x) as f64;
                    assert!(
                        err <= gamma * x as f64 + 1.0,
                        "sub_bits={sub_bits} x={x} up={up} err={err}"
                    );
                }
                v = v.saturating_mul(2);
            }
        }
    }

    #[test]
    fn quantiles_match_exact_percentiles_within_gamma() {
        let h = Histogram::new(5);
        let vals: Vec<u64> = (1..=10_000u64).map(|i| i * 37).collect();
        for &v in &vals {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = vals[((q * vals.len() as f64).ceil() as usize - 1).min(vals.len() - 1)];
            let got = h.quantile(q);
            let err = (got as f64 - exact as f64).abs();
            assert!(
                err <= h.gamma() * exact as f64 + 1.0,
                "q={q} exact={exact} got={got}"
            );
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let h = Histogram::new(5);
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 5, 900, 44]);
        let b = mk(&[3, 70_000, 2]);
        let c = mk(&[1_000_000, 9]);
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba);
    }

    #[test]
    fn snapshot_codec_round_trips() {
        let r = Registry::new();
        r.counter("cb_x_total").add(7);
        r.gauge("cb_depth{worker=\"w0\"}").set(3.5);
        let h = r.histogram("cb_lat_seconds");
        for v in [10u64, 2_000, 5_000_000] {
            h.record(v);
        }
        let s = r.snapshot();
        let bytes = s.encode();
        let back = MetricsSnapshot::decode(&bytes).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let r = Registry::new();
        r.counter("a").inc();
        let bytes = r.snapshot().encode();
        // Truncations at every length never panic or over-allocate.
        for n in 0..bytes.len() {
            assert!(MetricsSnapshot::decode(&bytes[..n]).is_err());
        }
        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(MetricsSnapshot::decode(&long).is_err());
        // A claimed huge count fails fast instead of allocating.
        let mut evil = vec![SNAPSHOT_VERSION];
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(MetricsSnapshot::decode(&evil).is_err());
    }

    #[test]
    fn merge_dedupes_by_instance() {
        let r = Registry::new();
        r.counter("cb_total").add(5);
        let s = r.snapshot();
        let mut merged = s.clone();
        merged.merge(&s); // same instance: must not double
        assert_eq!(merged.counter("cb_total"), Some(5));
        let r2 = Registry::new();
        r2.counter("cb_total").add(3);
        merged.merge(&r2.snapshot());
        assert_eq!(merged.counter("cb_total"), Some(8));
        assert_eq!(merged.instances.len(), 2);
    }

    #[test]
    fn prometheus_rendering_scales_seconds() {
        let r = Registry::new();
        r.counter("cb_req_total").add(2);
        let h = r.histogram("cb_lat_seconds");
        h.record(1_000_000_000); // 1s in nanos
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE cb_req_total counter"));
        assert!(text.contains("cb_req_total 2"));
        assert!(text.contains("cb_lat_seconds_count 1"));
        // The quantile renders near 1.0 seconds, not 1e9.
        let line = text
            .lines()
            .find(|l| l.starts_with("cb_lat_seconds{quantile=\"0.5\"}"))
            .unwrap();
        let v: f64 = line.split_whitespace().last().unwrap().parse().unwrap();
        assert!((0.9..=1.1).contains(&v), "quantile rendered as {v}");
    }

    #[test]
    fn gauge_family_sum_matches_labels() {
        let r = Registry::new();
        r.gauge("cb_q{worker=\"w0\"}").set(2.0);
        r.gauge("cb_q{worker=\"w1\"}").set(3.0);
        r.gauge("cb_qx").set(100.0);
        let s = r.snapshot();
        assert_eq!(s.gauge_family_sum("cb_q"), 5.0);
    }
}
