//! 8-bit KV cache quantization — the cold tier's wire format.
//!
//! The paper serves Yi-34B and Llama-70B with 8-bit quantization and names
//! KV-compression work (KIVI, CacheGen, …) as complementary: "CacheBlend
//! can benefit from such techniques by storing and loading less KV cache"
//! (§8). This module implements the storage side: per-row symmetric int8
//! quantization of K and V, quartering the bytes a store holds and a
//! loader moves. The compiled program's decision margins are multi-nat, so
//! blending from quantized caches preserves answers — verified by tests.
//!
//! Wire format (little-endian, the "CBQ2" magic) — deliberately the same
//! *sectioned* shape as [`crate::serialize`]'s f32 v2 format, so header
//! parsing, per-block verification, and layer streaming are shared code
//! dispatching only on the magic:
//!
//! ```text
//! magic u32 | n_layers u32 | rows u32 | width u32
//! positions rows×u64 | tokens rows×u32 | header checksum u64
//! per layer: K rows×(scale f32, width×i8),
//!            V rows×(scale f32, width×i8), layer checksum u64
//! ```
//!
//! The per-layer checksums are what lets [`crate::prefetch`] stream a
//! *quantized* entry off the cold tier one layer at a time — dequantizing
//! per layer on arrival, never materializing the whole entry first — so
//! the compute/load pipeline survives the cold tier unchanged.
//!
//! The tiered store transcodes at tier boundaries with
//! [`quantize_entry`] / [`dequantize_entry`] (demote to the cold tier /
//! promote out of it); callers of the store always see f32 entries.

use bytes::{BufMut, Bytes, BytesMut};
use cb_model::{KvCache, LayerKv};
use cb_storage::fnv64;
use cb_tensor::Matrix;

use crate::serialize::{
    header_len, parse_header, sniff_format, DecodeError, EntryFormat, EntryReader, DIMS_LEN,
};

pub(crate) const QMAGIC: u32 = 0x4342_5132; // "CBQ2"

/// Bytes of one quantized layer block: K and V each store `rows` of one
/// f32 scale plus `width` int8 codes, plus the block checksum.
pub fn q_layer_block_len(rows: usize, width: usize) -> usize {
    2 * rows * (4 + width) + 8
}

/// Total bytes of a quantized entry with the given shape.
pub fn q_entry_len(n_layers: usize, rows: usize, width: usize) -> usize {
    header_len(rows) + n_layers * q_layer_block_len(rows, width)
}

/// [`q_entry_len`] computed without overflow, for validating untrusted
/// dims against a trusted payload length before any allocation.
pub fn q_entry_len_u128(n_layers: usize, rows: usize, width: usize) -> u128 {
    let block = 2u128 * rows as u128 * (4 + width as u128) + 8;
    DIMS_LEN as u128 + rows as u128 * 12 + 8 + n_layers as u128 * block
}

/// The quantization's worst-case relative error per element: `1/254` of the
/// row's max-abs (symmetric int8 rounding).
pub const MAX_RELATIVE_ERROR: f32 = 1.0 / 254.0;

/// Quantizes one f32 row into `scale | width×i8`.
fn put_quantized_row(buf: &mut BytesMut, row: &[f32]) {
    let max = row.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
    buf.put_f32_le(scale);
    for &v in row {
        buf.put_i8((v / scale).round().clamp(-127.0, 127.0) as i8);
    }
}

fn put_header(buf: &mut BytesMut, n_layers: usize, rows: usize, width: usize, cache: &KvCache) {
    buf.put_u32_le(QMAGIC);
    buf.put_u32_le(n_layers as u32);
    buf.put_u32_le(rows as u32);
    buf.put_u32_le(width as u32);
    for &p in &cache.positions {
        buf.put_u64_le(p as u64);
    }
    for &t in &cache.tokens {
        buf.put_u32_le(t);
    }
    let sum = fnv64(buf);
    buf.put_u64_le(sum);
}

/// Serializes a cache with int8 quantization (≈4× smaller than
/// [`crate::serialize::encode`]; see module docs for the layout).
pub fn encode_quantized(cache: &KvCache) -> Bytes {
    let rows = cache.len();
    let width = cache.layers.first().map(|l| l.k.cols()).unwrap_or(0);
    let n_layers = cache.n_layers();
    let mut buf = BytesMut::with_capacity(q_entry_len(n_layers, rows, width));
    put_header(&mut buf, n_layers, rows, width, cache);
    for layer in &cache.layers {
        let start = buf.len();
        for r in 0..rows {
            put_quantized_row(&mut buf, layer.k.row(r));
        }
        for r in 0..rows {
            put_quantized_row(&mut buf, layer.v.row(r));
        }
        let sum = fnv64(&buf[start..]);
        buf.put_u64_le(sum);
    }
    buf.freeze()
}

/// Verifies one quantized layer block's checksum and dequantizes it into
/// `out`.
pub fn decode_quantized_block(
    block: &[u8],
    rows: usize,
    width: usize,
    out: &mut LayerKv,
) -> Result<(), DecodeError> {
    EntryFormat::Quantized.verify_layer_block(block, rows, width)?;
    let stride = 4 + width;
    let fill = |m: &mut Matrix, lo: usize| {
        // Every element is overwritten below.
        m.resize_dirty(rows, width);
        for r in 0..rows {
            let at = lo + r * stride;
            let scale = f32::from_le_bytes(block[at..at + 4].try_into().unwrap());
            for (v, &code) in m.row_mut(r).iter_mut().zip(&block[at + 4..at + 4 + width]) {
                *v = code as i8 as f32 * scale;
            }
        }
    };
    fill(&mut out.k, 0);
    fill(&mut out.v, rows * stride);
    Ok(())
}

/// Decodes a quantized entry back to an f32 cache (dequantizing).
pub fn decode_quantized(bytes: Bytes) -> Result<KvCache, DecodeError> {
    if sniff_format(&bytes)? != EntryFormat::Quantized {
        return Err(DecodeError::BadMagic);
    }
    let reader = EntryReader::new(bytes)?;
    let mut layers = Vec::with_capacity(reader.n_layers());
    for l in 0..reader.n_layers() {
        layers.push(reader.layer(l)?);
    }
    Ok(KvCache {
        layers,
        positions: reader.positions().to_vec(),
        tokens: reader.tokens().to_vec(),
    })
}

/// Rewrites a header section with a new magic (the two formats share the
/// header layout byte-for-byte, so only the magic and the checksum move).
fn transcoded_header(src: &[u8], hlen: usize, magic: u32) -> BytesMut {
    let mut buf = BytesMut::with_capacity(hlen);
    buf.put_u32_le(magic);
    buf.put_slice(&src[4..hlen - 8]);
    let sum = fnv64(&buf);
    buf.put_u64_le(sum);
    buf
}

/// Transcodes a serialized f32 entry ([`crate::serialize::encode`]) into
/// the quantized format without materializing a [`KvCache`] — the demote
/// path into the cold tier. Every source section checksum is verified as
/// it is consumed; quantized input is returned unchanged (idempotent).
pub fn quantize_entry(src: &[u8]) -> Result<Bytes, DecodeError> {
    if sniff_format(src)? == EntryFormat::Quantized {
        return Ok(Bytes::from(src));
    }
    let meta = parse_header(src)?;
    let (n_layers, rows, width) = (meta.n_layers, meta.rows, meta.width);
    if src.len() as u128 != EntryFormat::F32.entry_len_u128(n_layers, rows, width) {
        return Err(DecodeError::Truncated);
    }
    let hlen = header_len(rows);
    let mut buf = transcoded_header(src, hlen, QMAGIC);
    let src_block = EntryFormat::F32.layer_block_len(rows, width);
    let mut row_buf = vec![0.0f32; width];
    for l in 0..n_layers {
        let block = &src[hlen + l * src_block..hlen + (l + 1) * src_block];
        let body = src_block - 8;
        let declared = u64::from_le_bytes(block[body..].try_into().unwrap());
        if fnv64(&block[..body]) != declared {
            return Err(DecodeError::Corrupted);
        }
        let start = buf.len();
        for r in 0..2 * rows {
            // K rows then V rows: the f32 block is K then V contiguously.
            let at = r * width * 4;
            for (v, ch) in row_buf
                .iter_mut()
                .zip(block[at..at + width * 4].chunks_exact(4))
            {
                *v = f32::from_le_bytes(ch.try_into().unwrap());
            }
            put_quantized_row(&mut buf, &row_buf);
        }
        let sum = fnv64(&buf[start..]);
        buf.put_u64_le(sum);
    }
    Ok(buf.freeze())
}

/// Transcodes a quantized entry back to the f32 format — the promote path
/// out of the cold tier. f32 input is returned unchanged (idempotent).
/// The result decodes exactly to what the quantized entry held; the
/// quantization loss happened once, at [`quantize_entry`] time.
pub fn dequantize_entry(src: &[u8]) -> Result<Bytes, DecodeError> {
    if sniff_format(src)? == EntryFormat::F32 {
        return Ok(Bytes::from(src));
    }
    let meta = parse_header(src)?;
    let (n_layers, rows, width) = (meta.n_layers, meta.rows, meta.width);
    if src.len() as u128 != EntryFormat::Quantized.entry_len_u128(n_layers, rows, width) {
        return Err(DecodeError::Truncated);
    }
    let hlen = header_len(rows);
    let mut buf = transcoded_header(src, hlen, crate::serialize::MAGIC);
    let src_block = q_layer_block_len(rows, width);
    let stride = 4 + width;
    for l in 0..n_layers {
        let block = &src[hlen + l * src_block..hlen + (l + 1) * src_block];
        let body = src_block - 8;
        let declared = u64::from_le_bytes(block[body..].try_into().unwrap());
        if fnv64(&block[..body]) != declared {
            return Err(DecodeError::Corrupted);
        }
        let start = buf.len();
        for r in 0..2 * rows {
            let at = r * stride;
            let scale = f32::from_le_bytes(block[at..at + 4].try_into().unwrap());
            for &code in &block[at + 4..at + 4 + width] {
                buf.put_f32_le(code as i8 as f32 * scale);
            }
        }
        let sum = fnv64(&buf[start..]);
        buf.put_u64_le(sum);
    }
    Ok(buf.freeze())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precompute::precompute_chunk;
    use crate::serialize::{decode, encode, verify_entry};
    use cb_model::{Model, ModelConfig, ModelProfile};
    use cb_tokenizer::TokenKind::*;

    fn model() -> Model {
        Model::compiled(ModelConfig::standard(ModelProfile::Tiny, 11))
    }

    fn chunk_cache(m: &Model) -> KvCache {
        let v = &m.cfg.vocab;
        let toks: Vec<u32> = [
            Entity(5),
            Attr(0),
            Value(1),
            Sep,
            Ref,
            Attr(3),
            Value(9),
            Sep,
        ]
        .map(|k| v.id(k))
        .to_vec();
        precompute_chunk(m, &toks)
    }

    #[test]
    fn quantized_roundtrip_is_close() {
        let m = model();
        let cache = chunk_cache(&m);
        let back = decode_quantized(encode_quantized(&cache)).unwrap();
        assert_eq!(back.positions, cache.positions);
        assert_eq!(back.tokens, cache.tokens);
        for l in 0..cache.n_layers() {
            let max = cache.layers[l].k.max_abs();
            let d = cache.layers[l].k.frobenius_distance(&back.layers[l].k);
            // Error per element ≤ max·(1/254); Frobenius over n elements
            // ≤ max·√n/254.
            let n = (cache.layers[l].k.rows() * cache.layers[l].k.cols()) as f32;
            assert!(
                d <= max * n.sqrt() * MAX_RELATIVE_ERROR * 1.01,
                "layer {l}: error {d} exceeds bound"
            );
        }
    }

    #[test]
    fn quantized_entries_are_about_4x_smaller() {
        let m = model();
        let cache = chunk_cache(&m);
        let full = encode(&cache).len() as f64;
        let quant = encode_quantized(&cache).len() as f64;
        let ratio = full / quant;
        assert!((3.0..4.5).contains(&ratio), "compression ratio {ratio}");
    }

    #[test]
    fn corruption_is_detected() {
        let m = model();
        let mut raw = encode_quantized(&chunk_cache(&m)).to_vec();
        let n = raw.len();
        raw[n / 2] ^= 0x55;
        assert_eq!(
            decode_quantized(Bytes::from(raw)),
            Err(DecodeError::Corrupted)
        );
    }

    #[test]
    fn plain_entries_are_rejected_by_magic() {
        let m = model();
        let cache = chunk_cache(&m);
        let plain = encode(&cache);
        assert!(matches!(
            decode_quantized(plain),
            Err(DecodeError::BadMagic | DecodeError::Corrupted)
        ));
    }

    #[test]
    fn zero_rows_roundtrip() {
        let cache = KvCache::empty(2, 8);
        let back = decode_quantized(encode_quantized(&cache)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.n_layers(), 2);
    }

    #[test]
    fn declared_sizes_match_encoding() {
        let m = model();
        let cache = chunk_cache(&m);
        let bytes = encode_quantized(&cache);
        assert_eq!(
            bytes.len(),
            q_entry_len(cache.n_layers(), cache.len(), cache.layers[0].k.cols())
        );
        // The shared verifier accepts the quantized format too.
        assert_eq!(verify_entry(&bytes).unwrap().rows, cache.len());
    }

    #[test]
    fn transcode_roundtrip_equals_direct_quantization() {
        let m = model();
        let cache = chunk_cache(&m);
        let f32_entry = encode(&cache);
        // Transcode from bytes must equal encoding from the cache.
        let q = quantize_entry(&f32_entry).unwrap();
        assert_eq!(q, encode_quantized(&cache));
        // And back: dequantize re-frames as f32, decoding to the
        // quantization image of the original (loss happens exactly once).
        let back = dequantize_entry(&q).unwrap();
        let reloaded = decode(back).unwrap();
        assert_eq!(reloaded, decode_quantized(q.clone()).unwrap());
        // Idempotence in both directions.
        assert_eq!(quantize_entry(&q).unwrap(), q);
        let f = dequantize_entry(&f32_entry).unwrap();
        assert_eq!(f, f32_entry);
    }

    #[test]
    fn transcode_rejects_corruption() {
        let m = model();
        let cache = chunk_cache(&m);
        let mut f32_entry = encode(&cache).to_vec();
        let n = f32_entry.len();
        f32_entry[n - 12] ^= 0xFF;
        assert_eq!(quantize_entry(&f32_entry), Err(DecodeError::Corrupted));
        let mut q = encode_quantized(&cache).to_vec();
        let n = q.len();
        q[n - 12] ^= 0xFF;
        assert_eq!(dequantize_entry(&q), Err(DecodeError::Corrupted));
    }

    #[test]
    fn entry_reader_streams_quantized_layers() {
        // Satellite: the layer-streaming reader works off a quantized
        // record directly — per-layer dequantize, no whole-entry decode.
        let m = model();
        let cache = chunk_cache(&m);
        let q = encode_quantized(&cache);
        let r = EntryReader::new(q.clone()).unwrap();
        assert_eq!(r.format(), EntryFormat::Quantized);
        assert_eq!(r.layer_bytes(), q_layer_block_len(r.rows(), r.meta().width));
        let direct = decode_quantized(q).unwrap();
        for l in 0..r.n_layers() {
            assert_eq!(r.layer(l).unwrap(), direct.layers[l], "layer {l}");
        }
    }
}
