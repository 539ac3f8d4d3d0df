//! KV cache containers.
//!
//! A [`KvCache`] holds, for every transformer layer, one K row and one V row
//! per cached token. Rows are laid out head-major: row = `[head0 | head1 |
//! …]`, each slice `head_dim` wide. K rows are stored *with RoPE applied at
//! the position recorded in [`KvCache::positions`]* — relocating a cache to
//! a different position range is done by the Appendix-A re-rotation (see
//! `cb-core::rope_align`), never by recomputation.

use cb_tensor::Matrix;

/// One layer's cached keys and values (`seq × kv_width` each).
#[derive(Clone, Debug, PartialEq)]
pub struct LayerKv {
    /// Keys, RoPE-rotated at their recorded positions.
    pub k: Matrix,
    /// Values.
    pub v: Matrix,
}

impl LayerKv {
    /// An empty layer cache of the given row width.
    pub fn empty(kv_width: usize) -> Self {
        Self {
            k: Matrix::zeros(0, kv_width),
            v: Matrix::zeros(0, kv_width),
        }
    }

    /// Empties the layer to zero rows of `kv_width`, keeping the capacity
    /// of both buffers (a recycled layer starts here).
    pub fn clear(&mut self, kv_width: usize) {
        self.k.zero_resize(0, kv_width);
        self.v.zero_resize(0, kv_width);
    }

    /// Number of cached tokens.
    pub fn len(&self) -> usize {
        self.k.rows()
    }

    /// True if no tokens are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the rows of `k`/`v` (shape `n × kv_width`) in place —
    /// amortized O(n) per append (and allocation-free once
    /// [`LayerKv::reserve`] has sized the buffers), where the historical
    /// implementation re-copied the whole accumulated cache every call.
    pub fn append(&mut self, k: &Matrix, v: &Matrix) {
        assert_eq!(k.rows(), v.rows(), "K/V row count mismatch");
        self.k.extend_rows(k);
        self.v.extend_rows(v);
    }

    /// Appends rows `lo..hi` of `k`/`v` without slicing a temporary.
    pub fn append_rows(&mut self, k: &Matrix, v: &Matrix, lo: usize, hi: usize) {
        self.k.extend_from_rows(k, lo, hi);
        self.v.extend_from_rows(v, lo, hi);
    }

    /// The seed's copy-on-append (`vcat` of old + new), used by the
    /// reference forward pass in tests.
    #[cfg(test)]
    pub(crate) fn append_vcat(&mut self, k: &Matrix, v: &Matrix) {
        assert_eq!(k.rows(), v.rows(), "K/V row count mismatch");
        self.k = Matrix::vcat(&[&self.k, k]);
        self.v = Matrix::vcat(&[&self.v, v]);
    }

    /// Reserves capacity for `extra` more cached tokens.
    pub fn reserve(&mut self, extra: usize) {
        self.k.reserve_rows(extra);
        self.v.reserve_rows(extra);
    }

    /// Overwrites rows `rows[i]` with row `i` of `k`/`v` (selective
    /// recompute scatters fresh HKVD rows into the loaded cache).
    pub fn scatter(&mut self, rows: &[usize], k: &Matrix, v: &Matrix) {
        self.k.scatter_rows(rows, k);
        self.v.scatter_rows(rows, v);
    }
}

/// A multi-layer KV cache with the absolute position of every cached token.
#[derive(Clone, Debug, PartialEq)]
pub struct KvCache {
    /// One entry per transformer layer.
    pub layers: Vec<LayerKv>,
    /// Absolute position of each cached token (row index → position).
    pub positions: Vec<usize>,
    /// The token ids the rows were computed from (needed by selective
    /// recompute to re-embed HKVD tokens).
    pub tokens: Vec<u32>,
}

impl KvCache {
    /// An empty cache for a model with `n_layers` layers and `kv_width`-wide
    /// rows.
    pub fn empty(n_layers: usize, kv_width: usize) -> Self {
        Self {
            layers: vec![LayerKv::empty(kv_width); n_layers],
            positions: Vec::new(),
            tokens: Vec::new(),
        }
    }

    /// Number of cached tokens.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if no tokens are cached.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Reserves capacity for `extra` more tokens on every layer (decode
    /// loops call this once so steady-state appends allocate nothing).
    pub fn reserve(&mut self, extra: usize) {
        for l in &mut self.layers {
            l.reserve(extra);
        }
        self.positions.reserve(extra);
        self.tokens.reserve(extra);
    }

    /// Concatenates caches for consecutive text segments into one cache.
    ///
    /// The caller is responsible for the segments' positions being already
    /// disjoint and increasing (use `cb-core::rope_align` to relocate each
    /// segment first).
    ///
    /// # Panics
    ///
    /// Panics if layer counts differ or positions are not strictly
    /// increasing across the seam.
    pub fn concat(parts: &[&KvCache]) -> KvCache {
        assert!(!parts.is_empty(), "concat of zero caches");
        let n_layers = parts[0].n_layers();
        let mut out = KvCache {
            layers: Vec::with_capacity(n_layers),
            positions: Vec::new(),
            tokens: Vec::new(),
        };
        for l in 0..n_layers {
            let ks: Vec<&Matrix> = parts
                .iter()
                .map(|p| {
                    assert_eq!(p.n_layers(), n_layers, "layer count mismatch");
                    &p.layers[l].k
                })
                .collect();
            let vs: Vec<&Matrix> = parts.iter().map(|p| &p.layers[l].v).collect();
            out.layers.push(LayerKv {
                k: Matrix::vcat(&ks),
                v: Matrix::vcat(&vs),
            });
        }
        for p in parts {
            out.positions.extend_from_slice(&p.positions);
            out.tokens.extend_from_slice(&p.tokens);
        }
        assert!(
            out.positions.windows(2).all(|w| w[0] < w[1]),
            "concatenated cache positions must be strictly increasing"
        );
        out
    }

    /// Total f32 elements held (K + V across layers), used for size
    /// accounting by the KV store.
    pub fn element_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| 2 * l.k.rows() * l.k.cols())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_cache(n_layers: usize, rows: usize, width: usize, fill: f32, pos0: usize) -> KvCache {
        let mut c = KvCache::empty(n_layers, width);
        for l in 0..n_layers {
            let k = Matrix::from_fn(rows, width, |r, d| fill + (r * width + d) as f32 * 0.01);
            let v = Matrix::from_fn(rows, width, |r, d| -fill - (r * width + d) as f32 * 0.01);
            c.layers[l].append(&k, &v);
        }
        c.positions = (pos0..pos0 + rows).collect();
        c.tokens = vec![7; rows];
        c
    }

    #[test]
    fn empty_cache_has_no_tokens() {
        let c = KvCache::empty(3, 8);
        assert!(c.is_empty());
        assert_eq!(c.n_layers(), 3);
        assert_eq!(c.element_count(), 0);
    }

    #[test]
    fn append_grows_rows() {
        let mut l = LayerKv::empty(4);
        let k = Matrix::from_fn(2, 4, |r, c| (r + c) as f32);
        l.append(&k, &k);
        assert_eq!(l.len(), 2);
        l.append(&k, &k);
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn scatter_overwrites_selected_rows() {
        let mut l = LayerKv::empty(2);
        let k = Matrix::from_fn(3, 2, |_, _| 1.0);
        l.append(&k, &k);
        let fresh = Matrix::from_fn(1, 2, |_, _| 9.0);
        l.scatter(&[1], &fresh, &fresh);
        assert_eq!(l.k.row(0), &[1.0, 1.0]);
        assert_eq!(l.k.row(1), &[9.0, 9.0]);
        assert_eq!(l.v.row(1), &[9.0, 9.0]);
    }

    #[test]
    fn concat_preserves_order_and_positions() {
        let a = toy_cache(2, 3, 4, 1.0, 0);
        let b = toy_cache(2, 2, 4, 5.0, 3);
        let c = KvCache::concat(&[&a, &b]);
        assert_eq!(c.len(), 5);
        assert_eq!(c.positions, vec![0, 1, 2, 3, 4]);
        assert_eq!(c.layers[0].k.row(0), a.layers[0].k.row(0));
        assert_eq!(c.layers[1].k.row(3), b.layers[1].k.row(0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn concat_rejects_overlapping_positions() {
        let a = toy_cache(1, 3, 4, 1.0, 0);
        let b = toy_cache(1, 2, 4, 5.0, 1);
        let _ = KvCache::concat(&[&a, &b]);
    }

    #[test]
    fn element_count_counts_k_and_v() {
        let c = toy_cache(2, 3, 4, 0.0, 0);
        assert_eq!(c.element_count(), 2 * 2 * 3 * 4);
    }
}
