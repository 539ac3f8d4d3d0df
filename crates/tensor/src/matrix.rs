//! Row-major dense f32 matrix and matmul kernels.
//!
//! The kernels are portable Rust that the compiler vectorizes, plus two
//! AVX-512 tiles (module `zmm`) that builds targeting AVX-512F compile
//! in, because LLVM tunes the portable tiles to half-width `ymm` code on
//! such hosts. None reassociates floating-point arithmetic, so every
//! output element has one fixed evaluation order, and that order — not
//! the loop structure or vector width around it — is each kernel's
//! contract:
//!
//! - **GEMM** ([`Matrix::matmul`], [`Matrix::matmul_into`],
//!   [`Matrix::matmul_cols_into`]): a register tile of 6 output rows × 32
//!   columns (64 in `zmm` tiles) keeps its accumulators in registers for
//!   the whole `k` loop and stores them once; the rows past the last full
//!   tile run as one tile of height `m % 6`, and the columns past the
//!   wide tiles as 32-wide, 8-wide, then 1-wide tiles. Per-row limits
//!   (the context product's causal cuts) end a tile's `k` loop at its
//!   rows' largest limit. A single remaining row (a decode step's
//!   product) is an AXPY over the output row instead: it streams the
//!   weights row by row, which is faster when they come from L3. Per
//!   element: start at `+0.0`, then `acc = b.mul_add(a, acc)` over the
//!   participating `k` in ascending order, skipping a `k` at
//!   which the tile's whole `a` column is zero (exact: it adds `±0.0`).
//!   Since no step depends on the tile shape, the result is bit-identical
//!   for every shape, row partition and thread count. A one-time density
//!   probe cached per matrix lets the `k` loop skip a left operand's
//!   all-zero columns and a right operand's all-zero rows (compiled
//!   program weights are heavily row-sparse — e.g. a subspace read
//!   touches 32 of 224 rows — while noise weights are dense). Large
//!   products are split across the crate's [`crate::pool`] thread pool by
//!   disjoint output-row ranges.
//! - **Attention scores** ([`Matrix::matmul_transposed_block_limited_into`]
//!   and friends): per element, `dot1`'s 16 lane accumulators of fused
//!   products from `+0.0`, summed in lane order, plus the unfused tail
//!   dims. Two paths produce those bits. With at least
//!   [`SCORE_TILE_MIN_ROWS`] query rows the keys are laid out as
//!   [`KeyPanels`] (`Kᵀ` in 16-key panels) and tiles of 4 query rows × 16
//!   keys (two panels in `zmm` tiles, when the head dim is a multiple of
//!   16) hold one lane's accumulators for 16 keys side by side; below it
//!   (decode's single row) the dot kernel runs, because the layout would
//!   cost more than the tiles save.
//! - **Reference kernels** ([`Matrix::matmul_reference`],
//!   [`Matrix::matmul_transposed_reference`]): the original scalar loops,
//!   kept verbatim as the parity baseline for tests (this crate's and
//!   `cb-model`'s; no production path calls them).
//!
//! `rows × cols` values stored contiguously; row `r` occupies
//! `data[r*cols .. (r+1)*cols]`. This is the only tensor type the
//! reproduction needs: vectors are `1 × n` or `n × 1` matrices, and the
//! 3-D activations of a transformer layer are handled as `(seq, dim)`
//! matrices per layer.

use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::OnceLock;

use crate::pool;

/// Rows of the GEMM register tile.
const MR: usize = 6;
/// Columns of the portable GEMM register tile. Compiled to 8-lane `ymm`
/// vectors, the 6 × 32 accumulators take 24 of the 32 vector registers
/// AVX-512VL offers, leaving room for the four `b` vectors and a
/// broadcast `a`. AVX-512 builds run 64-column `zmm` tiles first, and
/// this tile on the columns left over.
const NR: usize = 32;
/// Width of the GEMM's column-tail tile (one 8-lane vector).
const NR_TAIL: usize = 8;
/// Accumulator lanes of the dot-product (transposed) kernel.
const LANES: usize = 16;
/// Column pairs computed together by the transposed kernel.
const JB: usize = 2;
/// Query rows from which the causal score kernel lays the keys out as
/// [`KeyPanels`] and runs `SQ` × `SK` (4 × 16) tiles. Below it (decode's single
/// row) the layout costs more than the tiles save, so the dot kernel runs.
pub const SCORE_TILE_MIN_ROWS: usize = 16;
/// Query rows of a score tile.
const SQ: usize = 4;
/// Keys of a score tile: one accumulator per key and lane group.
const SK: usize = 16;
/// A matrix axis is classified sparse when at most this fraction of its
/// rows (or columns) contain a non-zero.
const SPARSE_FRACTION: f32 = 0.75;
/// Minimum output rows before a matmul is split across the thread pool.
const PAR_MIN_ROWS: usize = 64;

/// One-time density probe of a matrix, along both axes: the `k` loop of a
/// product can skip a left operand's all-zero *columns* and a right
/// operand's all-zero *rows* (either way the skipped products are exactly
/// zero). Compiled program weights are row-sparse; compiled embeddings are
/// column-sparse.
#[derive(Clone, Debug)]
struct DensityProfile {
    /// Non-zero rows, when at most `SPARSE_FRACTION` of rows are non-zero.
    nz_rows: Option<Box<[u32]>>,
    /// Non-zero columns, under the same threshold.
    nz_cols: Option<Box<[u32]>>,
}

/// Which `k` indices participate in a product.
#[derive(Clone, Copy)]
enum KSet<'a> {
    /// Every row (dense operand).
    All(usize),
    /// Only these rows hold non-zeros.
    List(&'a [u32]),
}

/// A row-major dense `f32` matrix.
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
    /// Cached [`DensityProfile`]. Reset by every mutating accessor; never
    /// observable through `PartialEq`.
    profile: OnceLock<DensityProfile>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        let profile = OnceLock::new();
        if let Some(p) = self.profile.get() {
            let _ = profile.set(p.clone());
        }
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
            profile,
        }
    }
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data == other.data
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Default for Matrix {
    /// The empty `0 × 0` matrix (scratch buffers start here).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
            profile: OnceLock::new(),
        }
    }

    /// Creates a matrix from an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self {
            rows,
            cols,
            data,
            profile: OnceLock::new(),
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// The identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Invalidates the cached density profile; must precede every mutable
    /// exposure of the data (a stale sparse profile would let the kernels
    /// skip rows that have since become non-zero).
    #[inline]
    fn touch(&mut self) {
        if self.profile.get().is_some() {
            self.profile.take();
        }
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.touch();
        &mut self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        self.touch();
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies `src` into row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != cols`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols);
        self.row_mut(r).copy_from_slice(src);
    }

    /// Reshapes to `rows × cols` with every element zeroed, reusing the
    /// existing allocation when it is large enough. The workhorse of the
    /// `_into` kernels and scratch arenas.
    pub fn zero_resize(&mut self, rows: usize, cols: usize) {
        self.touch();
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows × cols` WITHOUT clearing: contents are whatever
    /// the buffer previously held. Only for callers that overwrite every
    /// element before reading (skips a full memset on large outputs —
    /// score kernels, the KV byte decoder).
    pub fn resize_dirty(&mut self, rows: usize, cols: usize) {
        self.touch();
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Reserves capacity for `extra` additional rows without changing the
    /// shape (so steady-state [`Matrix::extend_rows`] growth allocates
    /// nothing).
    pub fn reserve_rows(&mut self, extra: usize) {
        self.data.reserve(extra * self.cols);
    }

    /// Appends the rows of `src` in place (no intermediate matrix, unlike
    /// the historical `vcat(&[&self, src])` pattern which copied the whole
    /// accumulated buffer on every append).
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn extend_rows(&mut self, src: &Matrix) {
        self.extend_from_rows(src, 0, src.rows);
    }

    /// Appends rows `lo..hi` of `src` in place.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ or `hi > src.rows()`.
    pub fn extend_from_rows(&mut self, src: &Matrix, lo: usize, hi: usize) {
        assert_eq!(src.cols, self.cols, "extend_rows column mismatch");
        assert!(lo <= hi && hi <= src.rows);
        self.touch();
        self.data
            .extend_from_slice(&src.data[lo * src.cols..hi * src.cols]);
        self.rows += hi - lo;
    }

    /// Returns a new matrix containing only the rows listed in `idx`
    /// (in that order). Used by selective prefill to gather HKVD tokens.
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, self.cols);
        self.gather_rows_into(idx, &mut out);
        out
    }

    /// [`Matrix::gather_rows`] into a caller-provided buffer.
    pub fn gather_rows_into(&self, idx: &[usize], out: &mut Matrix) {
        out.touch();
        out.rows = idx.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.reserve(idx.len() * self.cols);
        for &src in idx {
            out.data
                .extend_from_slice(&self.data[src * self.cols..(src + 1) * self.cols]);
        }
    }

    /// Scatters the rows of `src` back into `self` at positions `idx`.
    /// The inverse of [`Matrix::gather_rows`].
    ///
    /// # Panics
    ///
    /// Panics if `src.rows() != idx.len()` or the column counts differ.
    pub fn scatter_rows(&mut self, idx: &[usize], src: &Matrix) {
        assert_eq!(src.rows(), idx.len());
        assert_eq!(src.cols(), self.cols);
        for (s, &dst) in idx.iter().enumerate() {
            self.row_mut(dst).copy_from_slice(src.row(s));
        }
    }

    /// The cached one-time density probe (one scan computes both axes).
    /// The scan is branch-free so it vectorizes: a blend's residuals and
    /// context products change every layer, so each of their products
    /// probes afresh.
    fn density(&self) -> &DensityProfile {
        self.profile.get_or_init(|| {
            let mut nz_rows = Vec::new();
            let mut col_has = vec![false; self.cols];
            for r in 0..self.rows {
                let mut any = false;
                for (h, &v) in col_has.iter_mut().zip(self.row(r)) {
                    let nz = v != 0.0;
                    *h |= nz;
                    any |= nz;
                }
                if any {
                    nz_rows.push(r as u32);
                }
            }
            let nz_cols: Vec<u32> = col_has
                .iter()
                .enumerate()
                .filter_map(|(c, &h)| h.then_some(c as u32))
                .collect();
            DensityProfile {
                nz_rows: ((nz_rows.len() as f32) <= self.rows as f32 * SPARSE_FRACTION)
                    .then(|| nz_rows.into_boxed_slice()),
                nz_cols: ((nz_cols.len() as f32) <= self.cols as f32 * SPARSE_FRACTION)
                    .then(|| nz_cols.into_boxed_slice()),
            }
        })
    }

    /// Matrix product `self × rhs`.
    ///
    /// Allocating wrapper over [`Matrix::matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self × rhs` written into `out` (resized, previous
    /// contents discarded, allocation reused when large enough).
    ///
    /// Dispatches on both operands' cached density probes: dense operands
    /// run every `k`; a left operand's all-zero columns and a right
    /// operand's all-zero rows (compiled program weights) are skipped
    /// outright. Splits output rows across the [`crate::pool`] when the
    /// product is large enough — per-element accumulation order is fixed,
    /// so results are bit-identical for every pool size.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize_dirty(self.rows, rhs.cols);
        let (m, n, kdim) = (self.rows, rhs.cols, self.cols);
        if m == 0 || n == 0 {
            return;
        }
        let ks = pick_kset(self.density(), rhs.density(), kdim);
        // Check the size threshold before touching the global pool: tiny
        // products (every decode-step matmul) skip the RwLock/Arc traffic.
        if m < PAR_MIN_ROWS {
            gemm_block(
                &self.data,
                kdim,
                &rhs.data,
                n,
                0,
                &mut out.data,
                m,
                n,
                &ks,
                None,
            );
            return;
        }
        let pool = pool::current();
        if pool.threads() <= 1 {
            gemm_block(
                &self.data,
                kdim,
                &rhs.data,
                n,
                0,
                &mut out.data,
                m,
                n,
                &ks,
                None,
            );
            return;
        }
        // Whole register tiles per chunk, so only the last chunk runs a
        // remainder tile.
        let threads = pool.threads();
        let chunk = (m.div_ceil(threads)).div_ceil(MR) * MR;
        let a = &self.data;
        let b = &rhs.data;
        let jobs: Vec<pool::Job<'_>> = out
            .data
            .chunks_mut(chunk * n)
            .enumerate()
            .map(|(i, o)| {
                let lo = i * chunk;
                let rows = o.len() / n;
                let a_part = &a[lo * kdim..(lo + rows) * kdim];
                let job: pool::Job<'_> = Box::new(move || {
                    gemm_block(a_part, kdim, b, n, 0, o, rows, n, &ks, None);
                });
                job
            })
            .collect();
        pool.run(jobs);
    }

    /// `self × rhs[:, lo..hi]` written into `out` — the right-hand operand
    /// is a column block viewed in place (no copy). This is the attention
    /// context kernel `P × V_h` over a head's columns.
    ///
    /// With `limits`, row `i` of `self` reads as zero from column
    /// `limits[i]` on: the causal cut of a probability row whose tail is
    /// exact `0.0` already. Each register tile then packs and runs only
    /// the `k` below its rows' largest limit; since the GEMM contract drops
    /// a `k` at which the tile's `a` column is zero anyway, the bits are
    /// those of the product without limits.
    ///
    /// # Panics
    ///
    /// Panics if the shapes mismatch, the block is out of range or
    /// `limits` does not hold one limit per row.
    pub fn matmul_cols_into(
        &self,
        rhs: &Matrix,
        lo: usize,
        hi: usize,
        limits: Option<&[usize]>,
        out: &mut Matrix,
    ) {
        assert_eq!(self.cols, rhs.rows, "matmul_cols shape mismatch");
        assert!(lo <= hi && hi <= rhs.cols);
        if let Some(l) = limits {
            assert_eq!(l.len(), self.rows, "one limit per row");
        }
        out.resize_dirty(self.rows, hi - lo);
        if self.rows == 0 || hi == lo {
            return;
        }
        gemm_block(
            &self.data,
            self.cols,
            &rhs.data,
            rhs.cols,
            lo,
            &mut out.data,
            self.rows,
            hi - lo,
            &KSet::All(self.cols),
            limits,
        );
    }

    /// Matrix product `self × rhsᵀ` without materializing the transpose.
    ///
    /// This is the attention-score kernel: `Q · Kᵀ`.
    pub fn matmul_transposed(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_transposed_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_transposed`] into a caller-provided buffer.
    pub fn matmul_transposed_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transposed shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.matmul_transposed_block_into(rhs, 0, self.cols, out);
    }

    /// `self[:, lo..hi] × (rhs[:, lo..hi])ᵀ` into `out`: both operands are
    /// viewed through the same column block in place. This is the per-head
    /// attention-score kernel `Q_h · K_hᵀ` — no `col_block` copies.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ or the block is out of range.
    pub fn matmul_transposed_block_into(
        &self,
        rhs: &Matrix,
        lo: usize,
        hi: usize,
        out: &mut Matrix,
    ) {
        assert_eq!(self.cols, rhs.cols, "column-block width mismatch");
        assert!(lo <= hi && hi <= self.cols);
        out.zero_resize(self.rows, rhs.rows);
        let (m, jn) = (self.rows, rhs.rows);
        if m == 0 || jn == 0 {
            return;
        }
        let (lda, ldb) = (self.cols, rhs.cols);
        let a = &self.data;
        let b = &rhs.data;
        let full_j = jn - jn % JB;
        for i in 0..m {
            let ar = &a[i * lda + lo..i * lda + hi];
            let orow = &mut out.data[i * jn..(i + 1) * jn];
            let mut j = 0;
            while j < full_j {
                let b0 = &b[j * ldb + lo..j * ldb + hi];
                let b1 = &b[(j + 1) * ldb + lo..(j + 1) * ldb + hi];
                let (d0, d1) = dot2(ar, b0, b1);
                orow[j] = d0;
                orow[j + 1] = d1;
                j += JB;
            }
            for (jj, orv) in orow.iter_mut().enumerate().skip(full_j) {
                let br = &b[jj * ldb + lo..jj * ldb + hi];
                *orv = dot1(ar, br);
            }
        }
    }

    /// [`Matrix::matmul_transposed_block_into`] with a per-row column
    /// limit and a scale: row `i` gets `scale · dot(q_i, k_j)` for `rhs`
    /// rows `j < limits[i]` and exact `0.0` for the rest. This is the
    /// causal attention score kernel — masked positions are never computed
    /// at all (for prefill that halves the score work), and the exact zeros
    /// let the downstream context product skip them too.
    ///
    /// With at least [`SCORE_TILE_MIN_ROWS`] query rows the key block is
    /// laid out as [`KeyPanels`] and the tiled kernel of
    /// [`Matrix::matmul_key_panels_limited_into`] runs; below it, the dot
    /// kernel. Both produce the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `limits.len() != self.rows()` or any limit exceeds
    /// `rhs.rows()`.
    pub fn matmul_transposed_block_limited_into(
        &self,
        rhs: &Matrix,
        lo: usize,
        hi: usize,
        limits: &[usize],
        scale: f32,
        out: &mut Matrix,
    ) {
        assert_eq!(self.cols, rhs.cols, "column-block width mismatch");
        if self.rows >= SCORE_TILE_MIN_ROWS {
            let mut keys = KeyPanels::default();
            keys.pack_block(rhs, lo, hi);
            self.scores_tiled_into(&keys, lo, hi, 0, limits, scale, out);
        } else {
            self.scores_dot_into(rhs, lo, hi, limits, scale, out);
        }
    }

    /// The dot kernel of [`Matrix::matmul_transposed_block_limited_into`].
    fn scores_dot_into(
        &self,
        rhs: &Matrix,
        lo: usize,
        hi: usize,
        limits: &[usize],
        scale: f32,
        out: &mut Matrix,
    ) {
        assert!(lo <= hi && hi <= self.cols);
        assert_eq!(limits.len(), self.rows, "one limit per query row");
        // Every element is written below (live dots + zero tail), so the
        // usual zeroing memset would be pure overhead on big score
        // matrices.
        out.resize_dirty(self.rows, rhs.rows);
        let (m, jn) = (self.rows, rhs.rows);
        if m == 0 || jn == 0 {
            return;
        }
        assert!(limits.iter().all(|&l| l <= jn), "limit exceeds key rows");
        let (lda, ldb) = (self.cols, rhs.cols);
        let a = &self.data;
        let b = &rhs.data;
        // Each key quad is loaded once and dotted with every query row
        // (below the tile threshold there are at most 15 of them).
        let cmin = limits.iter().copied().min().unwrap();
        let full = cmin - cmin % 4;
        let mut j = 0;
        while j < full {
            let b0 = &b[j * ldb + lo..j * ldb + hi];
            let b1 = &b[(j + 1) * ldb + lo..(j + 1) * ldb + hi];
            let b2 = &b[(j + 2) * ldb + lo..(j + 2) * ldb + hi];
            let b3 = &b[(j + 3) * ldb + lo..(j + 3) * ldb + hi];
            for i in 0..m {
                let ar = &a[i * lda + lo..i * lda + hi];
                let d = dot4(ar, b0, b1, b2, b3);
                let o = i * jn + j;
                out.data[o] = d[0] * scale;
                out.data[o + 1] = d[1] * scale;
                out.data[o + 2] = d[2] * scale;
                out.data[o + 3] = d[3] * scale;
            }
            j += 4;
        }
        // Per-row remainder past the shared prefix, plus the zero tail.
        for (i, &lim) in limits.iter().enumerate() {
            let ar = &a[i * lda + lo..i * lda + hi];
            let orow = &mut out.data[i * jn..(i + 1) * jn];
            let mut jj = full;
            while jj + 4 <= lim {
                let b0 = &b[jj * ldb + lo..jj * ldb + hi];
                let b1 = &b[(jj + 1) * ldb + lo..(jj + 1) * ldb + hi];
                let b2 = &b[(jj + 2) * ldb + lo..(jj + 2) * ldb + hi];
                let b3 = &b[(jj + 3) * ldb + lo..(jj + 3) * ldb + hi];
                let d = dot4(ar, b0, b1, b2, b3);
                orow[jj] = d[0] * scale;
                orow[jj + 1] = d[1] * scale;
                orow[jj + 2] = d[2] * scale;
                orow[jj + 3] = d[3] * scale;
                jj += 4;
            }
            while jj < lim {
                let br = &b[jj * ldb + lo..jj * ldb + hi];
                orow[jj] = dot1(ar, br) * scale;
                jj += 1;
            }
            orow[lim..].fill(0.0);
        }
    }

    /// [`Matrix::matmul_transposed_block_limited_into`] against keys the
    /// caller laid out once for all heads: `keys` holds every dim of every
    /// key, and dims `lo..hi` of it pair with columns `lo..hi` of `self`.
    /// Always runs the tiled kernel, whatever the row count.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is not `self.cols()` wide, `limits.len() !=
    /// self.rows()` or any limit exceeds the key count.
    pub fn matmul_key_panels_limited_into(
        &self,
        keys: &KeyPanels,
        lo: usize,
        hi: usize,
        limits: &[usize],
        scale: f32,
        out: &mut Matrix,
    ) {
        assert_eq!(self.cols, keys.width, "column-block width mismatch");
        self.scores_tiled_into(keys, lo, hi, lo, limits, scale, out);
    }

    /// The tiled score kernel: columns `lo..hi` of `self` against dims
    /// `key_lo..key_lo + hi - lo` of `keys`.
    #[allow(clippy::too_many_arguments)]
    fn scores_tiled_into(
        &self,
        keys: &KeyPanels,
        lo: usize,
        hi: usize,
        key_lo: usize,
        limits: &[usize],
        scale: f32,
        out: &mut Matrix,
    ) {
        assert!(lo <= hi && hi <= self.cols && key_lo + hi - lo <= keys.width);
        assert_eq!(limits.len(), self.rows, "one limit per query row");
        assert!(
            limits.iter().all(|&l| l <= keys.keys),
            "limit exceeds key rows"
        );
        out.resize_dirty(self.rows, keys.keys);
        if self.rows == 0 || keys.keys == 0 {
            return;
        }
        let job = Scores {
            q: self,
            lo,
            hd: hi - lo,
            keys,
            key_lo,
            limits,
            scale,
        };
        let mut panel = vec![0.0f32; SQ * job.hd];
        let full = self.rows - self.rows % SQ;
        for i in (0..full).step_by(SQ) {
            scores_row_tile::<SQ>(&job, i, &mut panel, &mut out.data);
        }
        match self.rows - full {
            0 => {}
            1 => scores_row_tile::<1>(&job, full, &mut panel, &mut out.data),
            2 => scores_row_tile::<2>(&job, full, &mut panel, &mut out.data),
            3 => scores_row_tile::<3>(&job, full, &mut panel, &mut out.data),
            _ => unreachable!("remainder of a division by SQ"),
        }
    }

    /// The seed's scalar `matmul` (ikj loop with a per-element zero skip),
    /// kept verbatim as the tests' parity baseline.
    pub fn matmul_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue; // Compiled program weights are sparse.
                }
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The seed's scalar `matmul_transposed` (single sequential dot per
    /// output element), kept verbatim as the tests' parity baseline.
    pub fn matmul_transposed_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transposed shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..rhs.rows {
                let b_row = rhs.row(j);
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        self.touch();
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// Element-wise in-place scaling.
    pub fn scale(&mut self, s: f32) {
        self.touch();
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Concatenates matrices vertically (stacking rows).
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ or `parts` is empty.
    pub fn vcat(parts: &[&Matrix]) -> Matrix {
        Matrix::vcat_from(parts.iter().copied())
    }

    /// [`Matrix::vcat`] over any re-iterable source of matrix references —
    /// callers no longer need to collect a `Vec<&Matrix>` first.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ or the iterator is empty.
    pub fn vcat_from<'a, I>(parts: I) -> Matrix
    where
        I: IntoIterator<Item = &'a Matrix>,
        I::IntoIter: Clone,
    {
        let iter = parts.into_iter();
        let mut sizing = iter.clone();
        let first = sizing.next().expect("vcat of zero matrices");
        let cols = first.cols;
        let rows: usize = first.rows + sizing.map(|m| m.rows).sum::<usize>();
        let mut data = Vec::with_capacity(rows * cols);
        for m in iter {
            assert_eq!(m.cols, cols, "vcat column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Returns the submatrix of columns `lo..hi` (copied).
    ///
    /// Attention slices per-head column blocks out of head-major K/V rows.
    pub fn col_block(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo <= hi && hi <= self.cols);
        let mut out = Matrix::zeros(self.rows, hi - lo);
        for r in 0..self.rows {
            out.row_mut(r)
                .copy_from_slice(&self.data[r * self.cols + lo..r * self.cols + hi]);
        }
        out
    }

    /// Writes `src` into columns `lo..lo + src.cols()` of `self`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ or the block exceeds the width.
    pub fn set_col_block(&mut self, lo: usize, src: &Matrix) {
        assert_eq!(self.rows, src.rows());
        assert!(lo + src.cols() <= self.cols);
        self.touch();
        for r in 0..self.rows {
            let dst = &mut self.data[r * self.cols + lo..r * self.cols + lo + src.cols()];
            dst.copy_from_slice(src.row(r));
        }
    }

    /// Returns the submatrix of rows `lo..hi`.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo <= hi && hi <= self.rows);
        Matrix::from_vec(
            hi - lo,
            self.cols,
            self.data[lo * self.cols..hi * self.cols].to_vec(),
        )
    }

    /// Frobenius norm of the difference `self - rhs`.
    pub fn frobenius_distance(&self, rhs: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

/// Chooses the `k` set of a product: the shorter of the left operand's
/// non-zero columns and the right operand's non-zero rows (skipping either
/// side's structural zeros is exact), or the full range when both are
/// dense.
fn pick_kset<'a>(lhs: &'a DensityProfile, rhs: &'a DensityProfile, kdim: usize) -> KSet<'a> {
    match (&lhs.nz_cols, &rhs.nz_rows) {
        (Some(c), Some(r)) => KSet::List(if c.len() <= r.len() { c } else { r }),
        (Some(c), None) => KSet::List(c),
        (None, Some(r)) => KSet::List(r),
        (None, None) => KSet::All(kdim),
    }
}

/// Lane-split dot product over two equal-length slices: lane accumulators
/// keep the FP adds independent, so the loop vectorizes without
/// reassociation licence. Accumulation order is fixed (deterministic).
#[inline]
fn dot1(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut ach = a.chunks_exact(LANES);
    let mut bch = b.chunks_exact(LANES);
    for (ca, cb) in (&mut ach).zip(&mut bch) {
        for t in 0..LANES {
            acc[t] = ca[t].mul_add(cb[t], acc[t]);
        }
    }
    let mut s = 0.0f32;
    for &lane in &acc {
        s += lane;
    }
    for (&x, &y) in ach.remainder().iter().zip(bch.remainder()) {
        s += x * y;
    }
    s
}

/// Two dot products sharing the left operand (halves the `a` loads).
#[inline]
fn dot2(a: &[f32], b0: &[f32], b1: &[f32]) -> (f32, f32) {
    let mut acc0 = [0.0f32; LANES];
    let mut acc1 = [0.0f32; LANES];
    let mut ach = a.chunks_exact(LANES);
    let mut b0ch = b0.chunks_exact(LANES);
    let mut b1ch = b1.chunks_exact(LANES);
    for ((ca, c0), c1) in (&mut ach).zip(&mut b0ch).zip(&mut b1ch) {
        for t in 0..LANES {
            acc0[t] = ca[t].mul_add(c0[t], acc0[t]);
            acc1[t] = ca[t].mul_add(c1[t], acc1[t]);
        }
    }
    let (mut s0, mut s1) = (0.0f32, 0.0f32);
    for t in 0..LANES {
        s0 += acc0[t];
        s1 += acc1[t];
    }
    for ((&x, &y0), &y1) in ach
        .remainder()
        .iter()
        .zip(b0ch.remainder())
        .zip(b1ch.remainder())
    {
        s0 += x * y0;
        s1 += x * y1;
    }
    (s0, s1)
}

/// Four dot products sharing the left operand.
#[inline]
fn dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    let mut acc0 = [0.0f32; LANES];
    let mut acc1 = [0.0f32; LANES];
    let mut acc2 = [0.0f32; LANES];
    let mut acc3 = [0.0f32; LANES];
    let mut ach = a.chunks_exact(LANES);
    let mut b0ch = b0.chunks_exact(LANES);
    let mut b1ch = b1.chunks_exact(LANES);
    let mut b2ch = b2.chunks_exact(LANES);
    let mut b3ch = b3.chunks_exact(LANES);
    for ((((ca, c0), c1), c2), c3) in (&mut ach)
        .zip(&mut b0ch)
        .zip(&mut b1ch)
        .zip(&mut b2ch)
        .zip(&mut b3ch)
    {
        for t in 0..LANES {
            acc0[t] = ca[t].mul_add(c0[t], acc0[t]);
            acc1[t] = ca[t].mul_add(c1[t], acc1[t]);
            acc2[t] = ca[t].mul_add(c2[t], acc2[t]);
            acc3[t] = ca[t].mul_add(c3[t], acc3[t]);
        }
    }
    let mut s = [0.0f32; 4];
    for t in 0..LANES {
        s[0] += acc0[t];
        s[1] += acc1[t];
        s[2] += acc2[t];
        s[3] += acc3[t];
    }
    for ((((&x, &y0), &y1), &y2), &y3) in ach
        .remainder()
        .iter()
        .zip(b0ch.remainder())
        .zip(b1ch.remainder())
        .zip(b2ch.remainder())
        .zip(b3ch.remainder())
    {
        s[0] += x * y0;
        s[1] += x * y1;
        s[2] += x * y2;
        s[3] += x * y3;
    }
    s
}

/// The operands of one [`gemm_block`] call: `a` is row-major with row
/// stride `lda`, `b` is viewed through row stride `ldb` at column offset
/// `bcol`, the output is contiguous with `n` columns, `ks` selects the
/// participating `k`, and `limits` (one per row of `a`) cuts row `i` of
/// `a` to its first `limits[i]` columns.
struct Gemm<'a> {
    a: &'a [f32],
    lda: usize,
    b: &'a [f32],
    ldb: usize,
    bcol: usize,
    n: usize,
    ks: &'a KSet<'a>,
    limits: Option<&'a [usize]>,
}

impl Gemm<'_> {
    /// The `k` of `ks` below `end`, as a count of `ks`' leading entries
    /// (both `KSet` forms list `k` in ascending order).
    fn ks_below(&self, end: usize) -> usize {
        match *self.ks {
            KSet::All(kdim) => kdim.min(end),
            KSet::List(list) => list.partition_point(|&k| (k as usize) < end),
        }
    }

    /// Row `i`'s column limit (`usize::MAX` without limits).
    #[inline(always)]
    fn limit(&self, i: usize) -> usize {
        self.limits.map_or(usize::MAX, |l| l[i])
    }
}

/// The GEMM core: `out[m × n] = a[m × kdim] × b[·, bcol..bcol+n]` over
/// the `k` in `ks` (the probed sparse path). Every element of `out` is
/// stored, so it need not be cleared.
///
/// Rows go in [`MR`]-high tiles plus one remainder tile of height
/// `m % MR`, where a single remaining row is an AXPY ([`gemm_row`]). Each
/// tile first packs its rows' live `a` columns (see [`gemm_row_tile`]);
/// [`gemm_tile`] states the per-element contract that makes the result
/// independent of the tiling.
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    bcol: usize,
    out: &mut [f32],
    m: usize,
    n: usize,
    ks: &KSet<'_>,
    limits: Option<&[usize]>,
) {
    let g = Gemm {
        a,
        lda,
        b,
        ldb,
        bcol,
        n,
        ks,
        limits,
    };
    let nk = g.ks_below(usize::MAX);
    // A single row packs nothing (see `gemm_row`).
    let (mut panel, mut live) = match m {
        1 => (Vec::new(), Vec::new()),
        _ => (vec![0.0f32; MR.min(m) * nk], vec![0u32; nk]),
    };
    let full = m - m % MR;
    let (body, tail) = out[..m * n].split_at_mut(full * n);
    for (t, rows) in body.chunks_exact_mut(MR * n).enumerate() {
        gemm_row_tile::<MR>(&g, t * MR, &mut panel, &mut live, rows);
    }
    match m - full {
        0 => {}
        1 => gemm_row(&g, full, tail),
        2 => gemm_row_tile::<2>(&g, full, &mut panel, &mut live, tail),
        3 => gemm_row_tile::<3>(&g, full, &mut panel, &mut live, tail),
        4 => gemm_row_tile::<4>(&g, full, &mut panel, &mut live, tail),
        5 => gemm_row_tile::<5>(&g, full, &mut panel, &mut live, tail),
        _ => unreachable!("remainder of a division by MR"),
    }
}

/// Output rows `i..i + R` (`out` holds exactly those rows).
///
/// Packs the rows' `a` values at each `k` of `ks` side by side in `panel`,
/// keeping only the `k` at which some row is non-zero (`live`), so the
/// zero skip runs once per row tile instead of once per column tile, and
/// the tiles' inner loop reads `a` contiguously. Packing stops at the
/// rows' largest limit, and reads a row as zero past its own. Then
/// 64-column `zmm` tiles where the build targets AVX-512, [`NR`]-wide
/// column tiles, [`NR_TAIL`]-wide, and single columns.
fn gemm_row_tile<const R: usize>(
    g: &Gemm<'_>,
    i: usize,
    panel: &mut [f32],
    live: &mut [u32],
    out: &mut [f32],
) {
    let (panel, _) = panel[..R * live.len()].as_chunks_mut::<R>();
    let rows: [&[f32]; R] = std::array::from_fn(|r| &g.a[(i + r) * g.lda..(i + r + 1) * g.lda]);
    let lim: [usize; R] = std::array::from_fn(|r| g.limit(i + r));
    let nk = g.ks_below(lim.iter().copied().max().unwrap_or(0));
    let mut n_live = 0;
    for idx in 0..nk {
        let k = match *g.ks {
            KSet::All(_) => idx,
            KSet::List(list) => list[idx] as usize,
        };
        let av: [f32; R] = std::array::from_fn(|r| if k < lim[r] { rows[r][k] } else { 0.0 });
        panel[n_live] = av;
        live[n_live] = k as u32;
        n_live += usize::from(av.iter().any(|&x| x != 0.0));
    }
    let (panel, live) = (&panel[..n_live], &live[..n_live]);
    let mut j = 0;
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    while j + zmm::NR <= g.n {
        // SAFETY: this loop is compiled only into builds that target
        // AVX-512F, which run only on CPUs that have it.
        unsafe { zmm::gemm_tile::<R>(g, panel, live, j, out) };
        j += zmm::NR;
    }
    while j + NR <= g.n {
        gemm_tile::<R, NR>(g, panel, live, j, out);
        j += NR;
    }
    while j + NR_TAIL <= g.n {
        gemm_tile::<R, NR_TAIL>(g, panel, live, j, out);
        j += NR_TAIL;
    }
    while j < g.n {
        gemm_tile::<R, 1>(g, panel, live, j, out);
        j += 1;
    }
}

/// Output row `i` alone, as an AXPY over the row itself (which stays in
/// L1), in the same per-element order as [`gemm_tile`]. It reads `b` row
/// after row, which the prefetchers stream faster than a register tile's
/// column panels when the weights do not fit L2, and it needs no packing
/// pass: an occupancy-1 decode step measured 5–9 % faster this way.
fn gemm_row(g: &Gemm<'_>, i: usize, out: &mut [f32]) {
    let a = &g.a[i * g.lda..(i + 1) * g.lda];
    out.fill(0.0);
    let mut axpy = |k: usize| {
        let av = a[k];
        if av != 0.0 {
            let brow = &g.b[k * g.ldb + g.bcol..][..g.n];
            for (o, &bv) in out.iter_mut().zip(brow) {
                *o = bv.mul_add(av, *o);
            }
        }
    };
    let nk = g.ks_below(g.limit(i));
    match *g.ks {
        KSet::All(_) => (0..nk).for_each(axpy),
        KSet::List(list) => list[..nk].iter().for_each(|&k| axpy(k as usize)),
    }
}

/// One `R × C` register tile of the output at column `j`: the
/// accumulators stay in registers for the whole `k` loop and are stored
/// once at the end.
///
/// The per-element contract, which every tile shape keeps: output
/// `(i, j)` starts at `+0.0` and runs `acc = b[k][j].mul_add(a[i][k], acc)`
/// over `ks` in ascending order. A `k` at which all `R` rows of `a` are
/// zero was dropped by the packing; that is exact, because accumulators
/// start at `+0.0`
/// and adding the `±0.0` product leaves every finite accumulator's bits
/// unchanged. So the result is the same for every tile height, column
/// tiling and row partition across the thread pool.
#[inline(always)]
fn gemm_tile<const R: usize, const C: usize>(
    g: &Gemm<'_>,
    panel: &[[f32; R]],
    live: &[u32],
    j: usize,
    out: &mut [f32],
) {
    let col = g.bcol + j;
    let mut acc = [[0.0f32; C]; R];
    for (av, &k) in panel.iter().zip(live) {
        let bv: &[f32; C] = g.b[k as usize * g.ldb + col..][..C]
            .try_into()
            .expect("slice of length C");
        for r in 0..R {
            for c in 0..C {
                acc[r][c] = bv[c].mul_add(av[r], acc[r][c]);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[r * g.n + j..][..C].copy_from_slice(row);
    }
}

/// Keys laid out for the tiled attention-score kernel: `Kᵀ` cut into
/// panels of `SK` (16) keys. Panel `p` holds keys `p·SK..(p + 1)·SK` as
/// `width` rows of `SK` values (row `d` is dim `d` of those keys), so a
/// score tile reads one contiguous block; the last panel is zero-padded.
/// Packing once per attention call serves every head.
#[derive(Clone, Debug, Default)]
pub struct KeyPanels {
    keys: usize,
    width: usize,
    data: Vec<f32>,
}

impl KeyPanels {
    /// Lays out every row of `k` as one key (reusing the allocation).
    pub fn pack(&mut self, k: &Matrix) {
        self.pack_block(k, 0, k.cols);
    }

    /// Lays out columns `lo..hi` of the rows of `k`.
    fn pack_block(&mut self, k: &Matrix, lo: usize, hi: usize) {
        assert!(lo <= hi && hi <= k.cols);
        self.keys = k.rows;
        self.width = hi - lo;
        let panel = self.width * SK;
        self.data.clear();
        self.data.resize(k.rows.div_ceil(SK) * panel, 0.0);
        for j in 0..k.rows {
            let dst = &mut self.data[(j / SK) * panel..];
            for (d, &v) in k.row(j)[lo..hi].iter().enumerate() {
                dst[d * SK + j % SK] = v;
            }
        }
    }

    /// Dims `lo..lo + hd` of panel `p`, one `[f32; SK]` per dim.
    fn panel(&self, p: usize, lo: usize, hd: usize) -> &[[f32; SK]] {
        let start = p * self.width * SK + lo * SK;
        self.data[start..start + hd * SK].as_chunks().0
    }
}

/// One call of the tiled score kernel of
/// [`Matrix::matmul_transposed_block_limited_into`]: columns
/// `lo..lo + hd` of `q` against dims `key_lo..key_lo + hd` of `keys`,
/// into a `limits.len() × keys` output.
///
/// Tiles of [`SQ`] query rows × [`SK`] keys. Each output keeps
/// [`dot1`]'s arithmetic exactly: lane `t`'s accumulator runs the fused
/// products of dims `t, t + 16, …` from `+0.0`, the lanes are summed into
/// `+0.0` in lane order, then the unfused products of the dims past the
/// last full 16-lane chunk, then the scale. A tile holds the 16 keys'
/// lane-`t` accumulators side by side, so that order costs nothing, where
/// the dot kernel ends every output with 16 dependent scalar adds.
struct Scores<'a> {
    q: &'a Matrix,
    lo: usize,
    hd: usize,
    keys: &'a KeyPanels,
    key_lo: usize,
    limits: &'a [usize],
    scale: f32,
}

/// Query rows `i..i + R` of a [`Scores`] call: packs the rows' values
/// dim by dim into `panel`, runs key tiles up to the largest limit of the
/// `R` rows (the last one stores only the keys below it), then writes each
/// row's exact-zero tail, which also overwrites what the shared tiles
/// computed past a smaller limit. AVX-512 builds run the key tiles in
/// `zmm` registers when the head dim is whole 16-lane chunks.
fn scores_row_tile<const R: usize>(job: &Scores<'_>, i: usize, panel: &mut [f32], out: &mut [f32]) {
    let jn = job.keys.keys;
    let (qt, _) = panel[..R * job.hd].as_chunks_mut::<R>();
    for (d, qd) in qt.iter_mut().enumerate() {
        *qd = std::array::from_fn(|r| job.q[(i + r, job.lo + d)]);
    }
    let lim = &job.limits[i..i + R];
    let end = lim.iter().copied().max().unwrap_or(0);
    let mut j = 0;
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    if job.hd.is_multiple_of(LANES) {
        // SAFETY: this block is compiled only into builds that target
        // AVX-512F, which run only on CPUs that have it.
        j = unsafe { zmm::scores_row_tile::<R>(job, qt, i, end, out) };
    }
    while j < end {
        let s = score_tile::<R>(qt, job.keys.panel(j / SK, job.key_lo, job.hd));
        let n = SK.min(end - j);
        for (r, row) in s.iter().enumerate() {
            for (o, &v) in out[(i + r) * jn + j..][..n].iter_mut().zip(row) {
                *o = v * job.scale;
            }
        }
        j += SK;
    }
    for (r, &l) in lim.iter().enumerate() {
        out[(i + r) * jn + l..(i + r + 1) * jn].fill(0.0);
    }
}

/// Unscaled dots of `R` query rows (`qt[d]` holds their dim `d`) with the
/// [`SK`] keys of one panel (`kp[d]` holds their dim `d`), in [`dot1`]'s
/// per-element order (see [`Scores`]).
#[inline(always)]
fn score_tile<const R: usize>(qt: &[[f32; R]], kp: &[[f32; SK]]) -> [[f32; SK]; R] {
    let hd = qt.len().min(kp.len());
    let full = hd - hd % LANES;
    let mut s = [[0.0f32; SK]; R];
    for t in 0..LANES {
        let mut acc = [[0.0f32; SK]; R];
        for d in (t..full).step_by(LANES) {
            let (kv, qv) = (&kp[d], &qt[d]);
            for r in 0..R {
                for x in 0..SK {
                    acc[r][x] = qv[r].mul_add(kv[x], acc[r][x]);
                }
            }
        }
        for r in 0..R {
            for x in 0..SK {
                s[r][x] += acc[r][x];
            }
        }
    }
    for d in full..hd {
        let (kv, qv) = (&kp[d], &qt[d]);
        for r in 0..R {
            for x in 0..SK {
                s[r][x] += qv[r] * kv[x];
            }
        }
    }
    s
}

/// The GEMM and score tiles at full AVX-512 width, compiled in when the
/// build targets it (`.cargo/config.toml` builds for the host CPU). LLVM's
/// tuning for AVX-512 Xeons prefers 256-bit vectors, so the portable tiles
/// compile to `ymm` code that reaches half the FMA peak of `zmm` code
/// (a synthetic FMA loop on one 2.1 GHz Xeon vCPU: 54–72 GFLOP/s on
/// `ymm`, 119–136 on `zmm`). These tiles keep the
/// portable tiles' per-element order exactly: `_mm512_fmadd_ps(b,
/// set1(a), acc)` is the same correctly rounded operation per lane as
/// `b.mul_add(a, acc)`, and an unfused add is an unfused add. The portable
/// tiles stay as the fallback for every other target.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod zmm {
    use std::arch::x86_64::{
        __m512, __mmask16, _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps,
        _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };

    use super::{Gemm, Scores, LANES, SK};

    /// Lanes of a `zmm` register.
    const W: usize = 16;
    /// Columns of the GEMM tile: four `zmm` accumulators per row, so the
    /// six-row tile holds 24 of the 32 `zmm` registers.
    pub(super) const NR: usize = 4 * W;

    /// [`super::gemm_tile`] for `R × 64` columns at `j`, with the same
    /// per-element contract.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn gemm_tile<const R: usize>(
        g: &Gemm<'_>,
        panel: &[[f32; R]],
        live: &[u32],
        j: usize,
        out: &mut [f32],
    ) {
        let col = g.bcol + j;
        let kmax = live.iter().copied().max().map_or(0, |k| k as usize);
        assert!(
            live.is_empty() || kmax * g.ldb + col + NR <= g.b.len(),
            "gemm tile reads past b"
        );
        let mut acc = [[_mm512_setzero_ps(); 4]; R];
        for (av, &k) in panel.iter().zip(live) {
            // SAFETY: `k ≤ kmax`, and the assert above puts the 64 floats
            // from `k·ldb + col` inside `g.b`.
            let bk = unsafe { g.b.as_ptr().add(k as usize * g.ldb + col) };
            let bv: [__m512; 4] = std::array::from_fn(|c| {
                // SAFETY: `bk + 16c .. bk + 16c + 16` lies in the 64 floats
                // asserted above (`c < 4`).
                unsafe { _mm512_loadu_ps(bk.add(W * c)) }
            });
            for (ar, &a) in acc.iter_mut().zip(av) {
                let a = _mm512_set1_ps(a);
                for (x, &b) in ar.iter_mut().zip(&bv) {
                    *x = _mm512_fmadd_ps(b, a, *x);
                }
            }
        }
        for (r, ar) in acc.iter().enumerate() {
            let dst = &mut out[r * g.n + j..][..NR];
            for (c, &x) in ar.iter().enumerate() {
                // SAFETY: `dst` holds 64 floats, so `16c .. 16c + 16` is
                // inside it (`c < 4`).
                unsafe { _mm512_storeu_ps(dst.as_mut_ptr().add(W * c), x) };
            }
        }
    }

    /// The key loop of [`super::scores_row_tile`] for a head dim that is
    /// whole [`LANES`]-lane chunks: keys `0..end` against the query rows
    /// `i..i + R` packed in `qt`, two key panels at a time, with the
    /// scaled stores of each row's keys below `end`. Returns the first key
    /// it did not store (`end`, rounded up to a panel).
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn scores_row_tile<const R: usize>(
        job: &Scores<'_>,
        qt: &[[f32; R]],
        i: usize,
        end: usize,
        out: &mut [f32],
    ) -> usize {
        let jn = job.keys.keys;
        let scale = _mm512_set1_ps(job.scale);
        let panel = |j: usize| job.keys.panel(j / SK, job.key_lo, job.hd);
        let mut store = |j: usize, s: &[__m512; R]| {
            let n = SK.min(end - j);
            for (r, &x) in s.iter().enumerate() {
                store_prefix(&mut out[(i + r) * jn + j..][..n], _mm512_mul_ps(x, scale));
            }
        };
        let mut j = 0;
        while j + SK < end {
            let [s0, s1] = score_tile::<R, 2>(qt, [panel(j), panel(j + SK)]);
            store(j, &s0);
            store(j + SK, &s1);
            j += 2 * SK;
        }
        if j < end {
            let [s] = score_tile::<R, 1>(qt, [panel(j)]);
            store(j, &s);
            j += SK;
        }
        j
    }

    /// Stores the first `dst.len()` (at most 16) lanes of `x` into `dst`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store_prefix(dst: &mut [f32], x: __m512) {
        assert!(dst.len() <= W);
        let mask = ((1u32 << dst.len()) - 1) as __mmask16;
        // SAFETY: the mask enables only the first `dst.len()` lanes, all
        // inside `dst`; masked-off lanes touch no memory.
        unsafe { _mm512_mask_storeu_ps(dst.as_mut_ptr(), mask, x) };
    }

    /// Unscaled [`super::score_tile`] against `P` key panels at once, with
    /// one query row's 16 keys of a panel in one `zmm`; the head dim must
    /// be whole [`LANES`]-lane chunks (no unfused tail). Each `q`
    /// broadcast feeds `P` FMAs.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn score_tile<const R: usize, const P: usize>(
        qt: &[[f32; R]],
        kps: [&[[f32; SK]]; P],
    ) -> [[__m512; R]; P] {
        let hd = kps.iter().fold(qt.len(), |hd, kp| hd.min(kp.len()));
        assert!(
            hd.is_multiple_of(LANES),
            "zmm score tile has no unfused tail"
        );
        let qt = &qt[..hd];
        let kps = kps.map(|kp| &kp[..hd]);
        let mut s = [[_mm512_setzero_ps(); R]; P];
        // G lanes at a time, so G × P × R accumulators are in flight.
        const G: usize = 2;
        for t0 in (0..LANES).step_by(G) {
            let mut acc = [[[_mm512_setzero_ps(); R]; P]; G];
            for c in (0..hd).step_by(LANES) {
                for (g, ag) in acc.iter_mut().enumerate() {
                    let d = c + t0 + g;
                    for (ap, kp) in ag.iter_mut().zip(&kps) {
                        // SAFETY: `kp[d]` is a `[f32; 16]`, exactly one
                        // `zmm` load.
                        let kv = unsafe { _mm512_loadu_ps(kp[d].as_ptr()) };
                        for (x, &q) in ap.iter_mut().zip(&qt[d]) {
                            *x = _mm512_fmadd_ps(_mm512_set1_ps(q), kv, *x);
                        }
                    }
                }
            }
            for ag in &acc {
                for (sp, ap) in s.iter_mut().zip(ag) {
                    for (sr, &x) in sp.iter_mut().zip(ap) {
                        *sr = _mm512_add_ps(*sr, x);
                    }
                }
            }
        }
        s
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        self.touch();
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_and_index() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 2)], 12.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        let id = Matrix::identity(3);
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 5, |r, c| (r * 5 + c) as f32 * 0.1);
        let b = Matrix::from_fn(3, 5, |r, c| ((r + 2) * (c + 1)) as f32 * 0.01);
        let bt = Matrix::from_fn(5, 3, |r, c| b[(c, r)]);
        let via_t = a.matmul(&bt);
        let direct = a.matmul_transposed(&b);
        for (x, y) in direct.as_slice().iter().zip(via_t.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Tiny xorshift-style generator: deterministic, no dependency.
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2000) as f32 - 1000.0) / 500.0
        })
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    /// Bitwise equality (`==` would equate `-0.0` and `+0.0`).
    fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(
            (got.rows(), got.cols()),
            (want.rows(), want.cols()),
            "{what}"
        );
        for (n, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {n}: {x} vs {y}");
        }
    }

    /// The GEMM's per-element contract in scalar form: `+0.0`, then
    /// `acc = b.mul_add(a, acc)` over ascending `k`, skipping nothing.
    fn spec_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).fold(0.0f32, |acc, k| b[(k, j)].mul_add(a[(i, k)], acc))
        })
    }

    /// `seeded` with `-0.0` at every fifth element and all-zero rows
    /// `6..12` (a whole register tile) and `13` (part of one): the zero
    /// skip must not change a bit.
    fn seeded_with_zeros(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut a = seeded(rows, cols, seed);
        for (n, v) in a.as_mut_slice().iter_mut().enumerate() {
            if n % 5 == 0 {
                *v = -0.0;
            }
        }
        for r in (6..12).chain([13]).filter(|&r| r < rows) {
            a.row_mut(r).fill(0.0);
        }
        a
    }

    #[test]
    fn blocked_matmul_matches_reference_across_shapes() {
        // Rectangular, tile-edge, single-row, and empty shapes; the repo
        // convention is seeded loops, not proptest.
        let mut shapes = vec![
            (1u64, (1usize, 1usize, 1usize)),
            (2, (1, 224, 64)),
            (3, (5, 7, 3)),
            (4, (17, 33, 19)),
            (5, (64, 224, 768)),
            (6, (4, 16, 16)),
            (7, (0, 8, 8)),
            (8, (8, 8, 0)),
        ];
        // Every remainder tile height against every column-tail shape,
        // and against widths on both sides of the 64-column `zmm` tile.
        for m in 1..=13 {
            for n in [1, 7, 8, 31, 32, 33, 63, 64, 65, 96, 128, 224] {
                shapes.push((100 + (m * 64 + n) as u64, (m, 19, n)));
            }
        }
        for (seed, (m, k, n)) in shapes {
            for a in [seeded(m, k, seed), seeded_with_zeros(m, k, seed)] {
                let b = seeded(k, n, seed ^ 0xABCD);
                let got = a.matmul(&b);
                assert_close(&got, &a.matmul_reference(&b), 2e-3);
                assert_bits(&got, &spec_matmul(&a, &b), &format!("{m}x{k}x{n}"));
            }
        }
    }

    #[test]
    fn blocked_transposed_matches_reference_across_shapes() {
        for (seed, (m, k, n)) in [
            (11u64, (1usize, 1usize, 1usize)),
            (12, (3, 64, 9)),
            (13, (17, 65, 21)),
            (14, (32, 256, 48)),
            (15, (0, 8, 4)),
        ] {
            let a = seeded(m, k, seed);
            let b = seeded(n, k, seed ^ 0x1234);
            assert_close(
                &a.matmul_transposed(&b),
                &a.matmul_transposed_reference(&b),
                2e-3,
            );
        }
    }

    #[test]
    fn sparse_rhs_path_matches_dense() {
        // A rhs with only a few non-zero rows takes the probed sparse
        // path; zeroing different rows after a clone resets the probe.
        let a = seeded(9, 32, 21);
        let mut b = seeded(32, 12, 22);
        for r in 0..32 {
            if r % 4 != 0 {
                b.row_mut(r).fill(0.0);
            }
        }
        assert!(matches!(
            pick_kset(a.density(), b.density(), 32),
            KSet::List(_)
        ));
        assert_close(&a.matmul(&b), &a.matmul_reference(&b), 1e-3);
        assert_bits(&a.matmul(&b), &spec_matmul(&a, &b), "row-sparse rhs");
        // Mutating after a probe must invalidate it (correctness, not
        // just performance: a stale skip list would drop this row).
        let _ = a.matmul(&b);
        b.row_mut(1).fill(2.5);
        assert_close(&a.matmul(&b), &a.matmul_reference(&b), 1e-3);
        assert_bits(&a.matmul(&b), &spec_matmul(&a, &b), "after mutation");
        // A column-sparse lhs (compiled embeddings) skips its zero columns,
        // on every remainder tile height.
        for m in [1, 6, 13] {
            let mut a = seeded_with_zeros(m, 32, 23);
            for r in 0..m {
                for c in (0..32).filter(|c| c % 3 != 0) {
                    a[(r, c)] = 0.0;
                }
            }
            let b = seeded(32, 40, 24);
            assert!(matches!(
                pick_kset(a.density(), b.density(), 32),
                KSet::List(_)
            ));
            assert_bits(&a.matmul(&b), &spec_matmul(&a, &b), "column-sparse lhs");
        }
    }

    #[test]
    fn col_block_kernels_match_copied_blocks() {
        let q = seeded(7, 96, 31);
        let kmat = seeded(13, 96, 32);
        let (lo, hi) = (32, 64);
        let qh = q.col_block(lo, hi);
        let kh = kmat.col_block(lo, hi);
        let mut scores = Matrix::zeros(0, 0);
        q.matmul_transposed_block_into(&kmat, lo, hi, &mut scores);
        assert_close(&scores, &qh.matmul_transposed(&kh), 1e-4);

        // The context product reads `rhs` at a column offset; causal
        // zeros in `p` exercise the skip. With row limits (causal, none,
        // all keys, and a row with values past its limit) it must equal
        // the product of `p` cut to its limits, at every pool size.
        let _guard = crate::pool::GLOBAL_POOL_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let vmat = seeded(70, 224, 34);
        for (m, keys, lo, hi) in [
            (7, 13, 32, 64),
            (13, 13, 5, 40),
            (6, 13, 1, 9),
            (1, 13, 95, 96),
            (13, 70, 64, 128),
            (49, 70, 96, 160),
            (20, 70, 31, 96),
            (9, 40, 0, 224),
        ] {
            let rhs = vmat.slice_rows(0, keys);
            let vh = rhs.col_block(lo, hi);
            let mut p = seeded(m, keys, 33 + lo as u64);
            let limits: Vec<usize> = (0..m)
                .map(|i| match i % 4 {
                    1 => 0,
                    2 => keys,
                    _ => (keys - m.min(keys) + i + 1).min(keys),
                })
                .collect();
            let mut cut = p.clone();
            for (i, &l) in limits.iter().enumerate() {
                cut.row_mut(i)[l..].fill(0.0);
                if i % 4 != 3 {
                    p.row_mut(i)[l..].fill(0.0);
                }
            }
            let what = format!("{m} rows x {keys} keys, cols {lo}..{hi}");
            let mut ctx = Matrix::zeros(0, 0);
            for threads in 1..=4 {
                crate::pool::set_threads(threads);
                p.matmul_cols_into(&rhs, lo, hi, None, &mut ctx);
                assert_close(&ctx, &p.matmul(&vh), 1e-4);
                assert_bits(&ctx, &spec_matmul(&p, &vh), &what);
                p.matmul_cols_into(&rhs, lo, hi, Some(&limits), &mut ctx);
                assert_bits(&ctx, &spec_matmul(&cut, &vh), &format!("limited, {what}"));
            }
        }
        crate::pool::set_threads(1);
    }

    #[test]
    fn parallel_matmul_bit_identical_across_thread_counts() {
        // Rows over the parallel threshold: each element's accumulation
        // order is fixed, so every pool size must produce the same bytes.
        let _guard = crate::pool::GLOBAL_POOL_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let a = seeded_with_zeros(130, 96, 91);
        for n in [48, 63, 64, 65, 96, 128, 224] {
            let b = seeded(96, n, 92);
            crate::pool::set_threads(1);
            let baseline = a.matmul(&b);
            for threads in 2..=4 {
                crate::pool::set_threads(threads);
                let got = a.matmul(&b);
                assert_bits(
                    &got,
                    &baseline,
                    &format!("{n} cols, thread count {threads}"),
                );
            }
            crate::pool::set_threads(1);
            assert_close(&baseline, &a.matmul_reference(&b), 2e-3);
            assert_bits(
                &baseline,
                &spec_matmul(&a, &b),
                &format!("{n} cols, the spec"),
            );
        }
    }

    #[test]
    fn score_paths_match_dot1_bit_for_bit() {
        // Both score kernels, on both sides of the row threshold, against
        // `dot1 · scale` below each row's limit and exact 0.0 above it.
        let _guard = crate::pool::GLOBAL_POOL_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let keys = 37; // two full key panels and a partial one
        let scale = 0.37;
        // hd 40 has an unfused 8-dim tail.
        for hd in [16, 40, 64] {
            let kmat = seeded(keys, 3 * hd, hd as u64);
            let (lo, hi) = (hd, 2 * hd);
            let mut panels = KeyPanels::default();
            panels.pack(&kmat);
            for rows in [1, 3, 15, 16, 23, 47, 48, 49] {
                let q = seeded_with_zeros(rows, 3 * hd, 7 * rows as u64);
                // Causal, plus rows limited to nothing, to everything and
                // exactly to a key panel's edge.
                let limits: Vec<usize> = (0..rows)
                    .map(|i| match i % 7 {
                        3 => 0,
                        4 => keys,
                        5 => SK,
                        6 => 2 * SK,
                        _ => (keys - rows.min(keys) + i + 1).min(keys),
                    })
                    .collect();
                let want = Matrix::from_fn(rows, keys, |i, j| {
                    if j < limits[i] {
                        dot1(&q.row(i)[lo..hi], &kmat.row(j)[lo..hi]) * scale
                    } else {
                        0.0
                    }
                });
                for threads in 1..=4 {
                    crate::pool::set_threads(threads);
                    let what = format!("hd {hd}, {rows} rows, {threads} threads");
                    let mut out = Matrix::zeros(0, 0);
                    q.matmul_transposed_block_limited_into(&kmat, lo, hi, &limits, scale, &mut out);
                    assert_bits(&out, &want, &format!("dispatch, {what}"));
                    q.scores_dot_into(&kmat, lo, hi, &limits, scale, &mut out);
                    assert_bits(&out, &want, &format!("dot, {what}"));
                    q.matmul_key_panels_limited_into(&panels, lo, hi, &limits, scale, &mut out);
                    assert_bits(&out, &want, &format!("tiled, {what}"));
                }
            }
        }
        crate::pool::set_threads(1);
    }

    #[test]
    fn matmul_into_reuses_buffer() {
        let a = seeded(8, 8, 41);
        let b = seeded(8, 8, 42);
        let mut out = Matrix::zeros(64, 64); // larger: capacity reused
        let cap = out.data.capacity();
        a.matmul_into(&b, &mut out);
        assert_eq!(out.rows(), 8);
        assert_eq!(out.data.capacity(), cap);
        assert_close(&out, &a.matmul_reference(&b), 1e-3);
    }

    #[test]
    fn extend_rows_appends_in_place() {
        let mut m = Matrix::zeros(0, 3);
        m.reserve_rows(4);
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        m.extend_rows(&a);
        m.extend_from_rows(&a, 1, 2);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.row(2), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn gather_then_scatter_roundtrips() {
        let src = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let idx = [4usize, 0, 2];
        let g = src.gather_rows(&idx);
        assert_eq!(g.row(0), src.row(4));
        assert_eq!(g.row(1), src.row(0));
        let mut dst = Matrix::zeros(5, 3);
        dst.scatter_rows(&idx, &g);
        assert_eq!(dst.row(4), src.row(4));
        assert_eq!(dst.row(0), src.row(0));
        assert_eq!(dst.row(2), src.row(2));
        assert!(dst.row(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn vcat_stacks_rows() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let c = Matrix::vcat(&[&a, &b]);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn vcat_from_iterates_without_collecting() {
        let parts = [
            Matrix::from_vec(1, 2, vec![1.0, 2.0]),
            Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]),
        ];
        let c = Matrix::vcat_from(parts.iter());
        assert_eq!(c.rows(), 3);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn slice_rows_extracts_range() {
        let a = Matrix::from_fn(4, 2, |r, _| r as f32);
        let s = a.slice_rows(1, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(0)[0], 1.0);
        assert_eq!(s.row(1)[0], 2.0);
    }

    #[test]
    fn frobenius_distance_of_equal_is_zero() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * c) as f32);
        assert_eq!(a.frobenius_distance(&a), 0.0);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![0.5, 0.5, 0.5]);
        a.add_assign(&b);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[3.0, 5.0, 7.0]);
    }
}
