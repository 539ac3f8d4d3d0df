//! Byte serialization of KV caches with section-granular checksums.
//!
//! Device-resident cache entries are stored as bytes; this module defines
//! the (little-endian) wire format and detects corruption on load. Layout
//! (format v2 — the "CBK2" magic):
//!
//! ```text
//! magic u32 | n_layers u32 | rows u32 | width u32
//! positions: rows × u64
//! tokens:    rows × u32
//! header checksum: u64 (word-wise FNV over all preceding bytes)
//! layers:    n_layers × (K rows×width f32, V rows×width f32, layer
//!            checksum u64 over that layer's K+V bytes)
//! ```
//!
//! v1 had a single trailing whole-entry checksum, which forced every
//! consumer to hold the full entry in memory before verifying anything.
//! The v2 *section* checksums let the tiered store stream an entry off
//! disk one layer at a time — each block is verified the moment it
//! arrives, before any of its bytes reach the fusor — so the pipelined
//! loader never trades integrity for overlap. The checksum itself is the
//! workspace-shared word-wise FNV ([`cb_storage::fnv64`]).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cb_model::{KvCache, LayerKv};
use cb_storage::fnv64;
use cb_tensor::Matrix;

pub(crate) const MAGIC: u32 = 0x4342_4b32; // "CBK2"

/// Bytes of the fixed-size prefix (magic + three dims) — enough to learn
/// an entry's shape and therefore every section offset.
pub const DIMS_LEN: usize = 16;

/// Errors surfaced when decoding a serialized cache entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer too short for the declared sizes.
    Truncated,
    /// Magic number mismatch (not a cache entry).
    BadMagic,
    /// Checksum mismatch (corrupted bytes).
    Corrupted,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "serialized cache truncated"),
            DecodeError::BadMagic => write!(f, "bad magic (not a KV cache entry)"),
            DecodeError::Corrupted => write!(f, "checksum mismatch (corrupted entry)"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The two on-wire entry encodings. They share the header layout
/// byte-for-byte (only the magic differs), so shape parsing, per-block
/// verification, and layer streaming are one code path dispatching here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryFormat {
    /// Full-precision f32 ("CBK2") — see this module's docs.
    F32,
    /// Per-row symmetric int8 ("CBQ2") — see [`crate::quantize`].
    Quantized,
}

impl EntryFormat {
    /// Bytes of one layer block (K + V + checksum) in this format.
    pub fn layer_block_len(self, rows: usize, width: usize) -> usize {
        match self {
            EntryFormat::F32 => layer_block_len(rows, width),
            EntryFormat::Quantized => crate::quantize::q_layer_block_len(rows, width),
        }
    }

    /// Total bytes of an entry with the given shape in this format.
    pub fn entry_len(self, n_layers: usize, rows: usize, width: usize) -> usize {
        header_len(rows) + n_layers * self.layer_block_len(rows, width)
    }

    /// [`EntryFormat::entry_len`] computed without overflow, for
    /// validating untrusted dims against a trusted payload length.
    pub fn entry_len_u128(self, n_layers: usize, rows: usize, width: usize) -> u128 {
        match self {
            EntryFormat::F32 => entry_len_u128(n_layers, rows, width),
            EntryFormat::Quantized => crate::quantize::q_entry_len_u128(n_layers, rows, width),
        }
    }

    /// Verifies one layer block's checksum without decoding it.
    pub fn verify_layer_block(
        self,
        block: &[u8],
        rows: usize,
        width: usize,
    ) -> Result<(), DecodeError> {
        let expect = self.layer_block_len(rows, width);
        if block.len() < expect {
            return Err(DecodeError::Truncated);
        }
        let body = expect - 8;
        let declared = u64::from_le_bytes(block[body..expect].try_into().unwrap());
        if fnv64(&block[..body]) != declared {
            return Err(DecodeError::Corrupted);
        }
        Ok(())
    }

    /// Verifies one layer block's checksum and decodes it (dequantizing
    /// if needed) into `out`.
    pub fn decode_layer_block(
        self,
        block: &[u8],
        rows: usize,
        width: usize,
        out: &mut LayerKv,
    ) -> Result<(), DecodeError> {
        match self {
            EntryFormat::F32 => decode_layer_block(block, rows, width, out),
            EntryFormat::Quantized => {
                crate::quantize::decode_quantized_block(block, rows, width, out)
            }
        }
    }
}

/// Identifies an entry's format from its magic (first four bytes).
pub fn sniff_format(prefix: &[u8]) -> Result<EntryFormat, DecodeError> {
    if prefix.len() < 4 {
        return Err(DecodeError::Truncated);
    }
    match u32::from_le_bytes(prefix[0..4].try_into().unwrap()) {
        MAGIC => Ok(EntryFormat::F32),
        crate::quantize::QMAGIC => Ok(EntryFormat::Quantized),
        _ => Err(DecodeError::BadMagic),
    }
}

/// Bytes of the header section (dims + positions + tokens + checksum).
pub fn header_len(rows: usize) -> usize {
    DIMS_LEN + rows * 12 + 8
}

/// Bytes of one layer's block (K + V + checksum).
pub fn layer_block_len(rows: usize, width: usize) -> usize {
    8 * rows * width + 8
}

/// Total bytes of an entry with the given shape.
pub fn entry_len(n_layers: usize, rows: usize, width: usize) -> usize {
    header_len(rows) + n_layers * layer_block_len(rows, width)
}

/// The decoded header of a serialized entry: shape and token metadata,
/// everything the blend planner needs before any layer bytes arrive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryMeta {
    /// Number of layers in the entry.
    pub n_layers: usize,
    /// Cached token count.
    pub rows: usize,
    /// KV width (heads × head dim).
    pub width: usize,
    /// Absolute positions of the cached tokens.
    pub positions: Vec<usize>,
    /// Token ids of the cached tokens.
    pub tokens: Vec<u32>,
}

impl EntryMeta {
    /// Bytes of one layer block in this entry.
    pub fn layer_block_len(&self) -> usize {
        layer_block_len(self.rows, self.width)
    }

    /// Total serialized bytes of this entry.
    pub fn entry_len(&self) -> usize {
        entry_len(self.n_layers, self.rows, self.width)
    }
}

/// Parses the fixed-size dims prefix: `(n_layers, rows, width)` after the
/// magic check. The values are **not yet checksum-verified** — callers
/// sizing buffers from them must bound them against a trusted length
/// (see [`entry_len_u128`]) before allocating.
pub fn parse_dims(prefix: &[u8]) -> Result<(usize, usize, usize), DecodeError> {
    let (format, n_layers, rows, width) = parse_dims_any(prefix)?;
    if format != EntryFormat::F32 {
        return Err(DecodeError::BadMagic);
    }
    Ok((n_layers, rows, width))
}

/// [`parse_dims`] accepting either format: the entry's format plus
/// `(n_layers, rows, width)`. Same caveat — the dims are untrusted until
/// bounded against a known payload length.
pub fn parse_dims_any(prefix: &[u8]) -> Result<(EntryFormat, usize, usize, usize), DecodeError> {
    let format = sniff_format(prefix)?;
    if prefix.len() < DIMS_LEN {
        return Err(DecodeError::Truncated);
    }
    Ok((
        format,
        u32::from_le_bytes(prefix[4..8].try_into().unwrap()) as usize,
        u32::from_le_bytes(prefix[8..12].try_into().unwrap()) as usize,
        u32::from_le_bytes(prefix[12..16].try_into().unwrap()) as usize,
    ))
}

/// [`entry_len`] computed without overflow — for validating *untrusted*
/// dims (each field is a raw u32 off the wire; their product can exceed
/// `usize`) against a known payload length before any allocation.
pub fn entry_len_u128(n_layers: usize, rows: usize, width: usize) -> u128 {
    let block = 8u128 * rows as u128 * width as u128 + 8;
    DIMS_LEN as u128 + rows as u128 * 12 + 8 + n_layers as u128 * block
}

/// Parses and verifies the header section from a byte prefix (at least
/// [`header_len`] bytes for the entry's row count — call with the first
/// [`DIMS_LEN`] bytes' worth of dims already fetched, or just hand in the
/// whole entry).
pub fn parse_header(prefix: &[u8]) -> Result<EntryMeta, DecodeError> {
    let (_, n_layers, rows, width) = parse_dims_any(prefix)?;
    let hlen = header_len(rows);
    if prefix.len() < hlen {
        return Err(DecodeError::Truncated);
    }
    let declared = u64::from_le_bytes(prefix[hlen - 8..hlen].try_into().unwrap());
    if fnv64(&prefix[..hlen - 8]) != declared {
        return Err(DecodeError::Corrupted);
    }
    let mut positions = Vec::with_capacity(rows);
    let mut tokens = Vec::with_capacity(rows);
    let mut off = DIMS_LEN;
    for _ in 0..rows {
        positions.push(u64::from_le_bytes(prefix[off..off + 8].try_into().unwrap()) as usize);
        off += 8;
    }
    for _ in 0..rows {
        tokens.push(u32::from_le_bytes(prefix[off..off + 4].try_into().unwrap()));
        off += 4;
    }
    Ok(EntryMeta {
        n_layers,
        rows,
        width,
        positions,
        tokens,
    })
}

/// Verifies one layer block's checksum and decodes it into `out`.
pub fn decode_layer_block(
    block: &[u8],
    rows: usize,
    width: usize,
    out: &mut LayerKv,
) -> Result<(), DecodeError> {
    EntryFormat::F32.verify_layer_block(block, rows, width)?;
    let half = (layer_block_len(rows, width) - 8) / 2;
    // Bulk little-endian conversion (chunked from_le_bytes compiles to a
    // plain copy on LE targets) — layer decode sits on the blend's
    // TTFT-critical path.
    let fill = |m: &mut Matrix, lo: usize| {
        // Every element is overwritten by the conversion loop below.
        m.resize_dirty(rows, width);
        for (v, ch) in m
            .as_mut_slice()
            .iter_mut()
            .zip(block[lo..lo + half].chunks_exact(4))
        {
            *v = f32::from_le_bytes(ch.try_into().unwrap());
        }
    };
    fill(&mut out.k, 0);
    fill(&mut out.v, half);
    Ok(())
}

/// Verifies every section checksum of a full serialized entry without
/// materializing the cache — the store runs this on each whole-entry load
/// so no poisoned bytes are ever handed out.
pub fn verify_entry(bytes: &[u8]) -> Result<EntryMeta, DecodeError> {
    let format = sniff_format(bytes)?;
    let meta = parse_header(bytes)?;
    if bytes.len() as u128 != format.entry_len_u128(meta.n_layers, meta.rows, meta.width) {
        return Err(DecodeError::Truncated);
    }
    let block = format.layer_block_len(meta.rows, meta.width);
    let mut off = header_len(meta.rows);
    for _ in 0..meta.n_layers {
        format.verify_layer_block(&bytes[off..off + block], meta.rows, meta.width)?;
        off += block;
    }
    Ok(meta)
}

/// Serializes a cache to bytes (see module docs for the layout).
pub fn encode(cache: &KvCache) -> Bytes {
    let rows = cache.len();
    let width = cache.layers.first().map(|l| l.k.cols()).unwrap_or(0);
    let n_layers = cache.n_layers();
    let mut buf = BytesMut::with_capacity(entry_len(n_layers, rows, width));
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(n_layers as u32);
    buf.put_u32_le(rows as u32);
    buf.put_u32_le(width as u32);
    for &p in &cache.positions {
        buf.put_u64_le(p as u64);
    }
    for &t in &cache.tokens {
        buf.put_u32_le(t);
    }
    let hsum = fnv64(&buf);
    buf.put_u64_le(hsum);
    for layer in &cache.layers {
        let start = buf.len();
        for &x in layer.k.as_slice() {
            buf.put_f32_le(x);
        }
        for &x in layer.v.as_slice() {
            buf.put_f32_le(x);
        }
        let sum = fnv64(&buf[start..]);
        buf.put_u64_le(sum);
    }
    buf.freeze()
}

/// Decodes bytes produced by [`encode`] — or a quantized entry, which is
/// transparently dequantized — verifying every section checksum.
pub fn decode(bytes: Bytes) -> Result<KvCache, DecodeError> {
    let reader = EntryReader::new(bytes)?;
    let mut layers = Vec::with_capacity(reader.n_layers());
    for l in 0..reader.n_layers() {
        layers.push(reader.layer(l)?);
    }
    Ok(KvCache {
        layers,
        positions: reader.meta.positions.clone(),
        tokens: reader.meta.tokens.clone(),
    })
}

/// Random-access reader over an in-memory serialized entry, decoding one
/// layer at a time — the streaming loader fetches layer `i+1` while layer
/// `i` is being recomputed, so it must not pay for a full decode upfront.
/// Each layer's checksum is verified when that layer is decoded.
#[derive(Clone, Debug)]
pub struct EntryReader {
    bytes: Bytes,
    meta: EntryMeta,
    format: EntryFormat,
}

impl EntryReader {
    /// Parses and verifies the header of a serialized entry (either
    /// format, sniffed from the magic) and checks the total length
    /// against the declared shape. Layer blocks are verified lazily by
    /// [`EntryReader::layer_into`].
    pub fn new(bytes: Bytes) -> Result<Self, DecodeError> {
        let format = sniff_format(&bytes)?;
        let meta = parse_header(&bytes)?;
        if bytes.len() as u128 != format.entry_len_u128(meta.n_layers, meta.rows, meta.width) {
            return Err(DecodeError::Truncated);
        }
        Ok(Self {
            bytes,
            meta,
            format,
        })
    }

    /// The entry's wire format.
    pub fn format(&self) -> EntryFormat {
        self.format
    }

    /// The entry's header metadata.
    pub fn meta(&self) -> &EntryMeta {
        &self.meta
    }

    /// Number of layers in the entry.
    pub fn n_layers(&self) -> usize {
        self.meta.n_layers
    }

    /// Cached token count.
    pub fn rows(&self) -> usize {
        self.meta.rows
    }

    /// Absolute positions of the cached tokens.
    pub fn positions(&self) -> &[usize] {
        &self.meta.positions
    }

    /// Token ids of the cached tokens.
    pub fn tokens(&self) -> &[u32] {
        &self.meta.tokens
    }

    /// Size in bytes of one layer's block (K + V + checksum) in the
    /// entry's own format.
    pub fn layer_bytes(&self) -> usize {
        self.format.layer_block_len(self.meta.rows, self.meta.width)
    }

    /// Decodes and verifies layer `l` only.
    ///
    /// # Panics
    ///
    /// Panics if `l >= n_layers()`.
    pub fn layer(&self, l: usize) -> Result<LayerKv, DecodeError> {
        let mut out = LayerKv::empty(self.meta.width);
        self.layer_into(l, &mut out)?;
        Ok(out)
    }

    /// Decodes and verifies layer `l` into a reusable buffer (the
    /// streaming loader decodes every chunk of every layer through one
    /// scratch `LayerKv`).
    ///
    /// # Panics
    ///
    /// Panics if `l >= n_layers()`.
    pub fn layer_into(&self, l: usize, out: &mut LayerKv) -> Result<(), DecodeError> {
        assert!(l < self.meta.n_layers, "layer {l} out of range");
        let block = self.layer_bytes();
        let start = header_len(self.meta.rows) + l * block;
        self.format.decode_layer_block(
            &self.bytes[start..start + block],
            self.meta.rows,
            self.meta.width,
            out,
        )
    }
}

/// Serializes a single layer (used by tests exchanging one layer's KV
/// without full-entry framing).
pub fn encode_layer(layer: &LayerKv) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + 8 * layer.k.rows() * layer.k.cols());
    buf.put_u32_le(layer.k.rows() as u32);
    buf.put_u32_le(layer.k.cols() as u32);
    for &x in layer.k.as_slice() {
        buf.put_f32_le(x);
    }
    for &x in layer.v.as_slice() {
        buf.put_f32_le(x);
    }
    buf.freeze()
}

/// Decodes a single layer produced by [`encode_layer`].
pub fn decode_layer(mut bytes: Bytes) -> Result<LayerKv, DecodeError> {
    if bytes.len() < 8 {
        return Err(DecodeError::Truncated);
    }
    let rows = bytes.get_u32_le() as usize;
    let width = bytes.get_u32_le() as usize;
    if bytes.remaining() < 2 * rows * width * 4 {
        return Err(DecodeError::Truncated);
    }
    let mut read = |n: usize| {
        let mut d = Vec::with_capacity(n);
        for _ in 0..n {
            d.push(bytes.get_f32_le());
        }
        d
    };
    let k = Matrix::from_vec(rows, width, read(rows * width));
    let v = Matrix::from_vec(rows, width, read(rows * width));
    Ok(LayerKv { k, v })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> KvCache {
        let mut c = KvCache::empty(2, 4);
        for l in 0..2 {
            let k = Matrix::from_fn(3, 4, |r, d| (l * 100 + r * 4 + d) as f32 * 0.5);
            let v = Matrix::from_fn(3, 4, |r, d| -((l * 100 + r * 4 + d) as f32));
            c.layers[l].append(&k, &v);
        }
        c.positions = vec![1, 2, 3];
        c.tokens = vec![10, 11, 12];
        c
    }

    #[test]
    fn roundtrip_is_exact() {
        let c = toy();
        let got = decode(encode(&c)).unwrap();
        assert_eq!(got, c);
    }

    #[test]
    fn empty_cache_roundtrips() {
        let c = KvCache::empty(3, 8);
        let got = decode(encode(&c)).unwrap();
        assert_eq!(got.n_layers(), 3);
        assert!(got.is_empty());
    }

    #[test]
    fn declared_sizes_match_encoding() {
        let c = toy();
        let bytes = encode(&c);
        assert_eq!(bytes.len(), entry_len(2, 3, 4));
        assert_eq!(verify_entry(&bytes).unwrap().rows, 3);
    }

    #[test]
    fn corruption_is_detected_in_any_section() {
        let c = toy();
        let clean = encode(&c).to_vec();
        // Flip one byte in the header, in layer 0, and in layer 1.
        for &at in &[
            6usize,
            header_len(3) + 4,
            header_len(3) + layer_block_len(3, 4) + 4,
        ] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0xFF;
            assert_eq!(
                decode(Bytes::from(bytes.clone())),
                Err(DecodeError::Corrupted),
                "flip at {at} undetected by decode"
            );
            assert_eq!(
                verify_entry(&bytes),
                Err(DecodeError::Corrupted),
                "flip at {at} undetected by verify_entry"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let c = toy();
        let bytes = encode(&c);
        let cut = bytes.slice(0..bytes.len() / 3);
        assert!(matches!(
            decode(cut),
            Err(DecodeError::Truncated | DecodeError::Corrupted)
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let c = toy();
        let mut bytes = encode(&c).to_vec();
        bytes[0] ^= 0x01;
        // The header checksum covers the magic, but after fixing it the
        // magic check must fire on its own.
        let hlen = header_len(3);
        let sum = fnv64(&bytes[..hlen - 8]);
        bytes[hlen - 8..hlen].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(decode(Bytes::from(bytes)), Err(DecodeError::BadMagic));
    }

    #[test]
    fn layer_roundtrip() {
        let c = toy();
        let got = decode_layer(encode_layer(&c.layers[1])).unwrap();
        assert_eq!(got, c.layers[1]);
    }

    #[test]
    fn entry_reader_decodes_layers_independently() {
        let c = toy();
        let r = EntryReader::new(encode(&c)).unwrap();
        assert_eq!(r.n_layers(), 2);
        assert_eq!(r.rows(), 3);
        assert_eq!(r.positions(), &[1, 2, 3]);
        assert_eq!(r.tokens(), &[10, 11, 12]);
        assert_eq!(r.layer(0).unwrap(), c.layers[0]);
        assert_eq!(r.layer(1).unwrap(), c.layers[1]);
    }

    #[test]
    fn entry_reader_detects_layer_corruption_at_decode_time() {
        let c = toy();
        let mut bytes = encode(&c).to_vec();
        // Corrupt layer 1 only: the header parses, layer 0 decodes, and
        // the poisoned layer errors exactly when it is requested.
        let at = header_len(3) + layer_block_len(3, 4) + 4;
        bytes[at] ^= 0xFF;
        let r = EntryReader::new(Bytes::from(bytes)).unwrap();
        assert_eq!(r.layer(0).unwrap(), c.layers[0]);
        assert_eq!(r.layer(1), Err(DecodeError::Corrupted));
    }

    #[test]
    fn entry_reader_detects_header_corruption_upfront() {
        let c = toy();
        let mut bytes = encode(&c).to_vec();
        bytes[DIMS_LEN + 2] ^= 0xFF; // inside positions
        assert_eq!(
            EntryReader::new(Bytes::from(bytes)).err(),
            Some(DecodeError::Corrupted)
        );
    }

    #[test]
    fn parse_header_needs_only_the_header_prefix() {
        let c = toy();
        let bytes = encode(&c);
        let meta = parse_header(&bytes[..header_len(3)]).unwrap();
        assert_eq!(meta.n_layers, 2);
        assert_eq!(meta.tokens, vec![10, 11, 12]);
        assert_eq!(meta.entry_len(), bytes.len());
    }
}
