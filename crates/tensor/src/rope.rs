//! Rotary positional embedding (RoPE) and cached-key re-rotation.
//!
//! RoPE rotates consecutive dimension pairs `(2i, 2i+1)` of a query/key
//! vector at position `m` by angle `m·θᵢ` with `θᵢ = base^(-2i/d)`.
//!
//! CacheBlend's Appendix A relies on the group property of these rotations:
//! a key cached at position `m` can be relocated to position `m+Δ` by
//! rotating it by `Δ·θᵢ` — no recomputation required. [`rotate_rows_by`]
//! implements that correction and `tests` verify Proposition A.1 (attention
//! scores depend only on relative offsets).
//!
//! Rotating a projected row at its absolute position
//! ([`RopeTable::rotate_at`]) reads its `(sin, cos)` pairs from an angle
//! table instead of evaluating them per row and head: the table holds
//! `(p as f32 · θᵢ).sin_cos()` for positions `p <` [`ANGLE_POSITIONS`],
//! exactly the values [`RopeTable::rotate`] computes, so the rotated bits
//! are the same. Tables with the same θs share one angle table for as
//! long as any of them lives (a model's noise heads all use one θ set).

use std::fmt;
use std::sync::{Arc, Mutex, Weak};

use crate::matrix::Matrix;

/// Positions whose rotation angles a [`RopeTable`] holds precomputed;
/// rows at later positions evaluate theirs per call. A table of `n`
/// pairs takes `ANGLE_POSITIONS · n · 8` bytes (128 KiB for 8 pairs).
pub const ANGLE_POSITIONS: usize = 2048;

/// The `(sin, cos)` of one rotation angle.
type SinCos = (f32, f32);

/// The `(sin, cos)` of `p as f32 · θᵢ` at index `p · pairs + i`.
type Angles = Arc<[SinCos]>;

/// A live angle table, keyed by the bits of its θs.
type Interned = (Vec<u32>, Weak<[SinCos]>);

/// Every live angle table.
static ANGLE_TABLES: Mutex<Vec<Interned>> = Mutex::new(Vec::new());

/// The angle table of `thetas`: the live one if some table with these θs
/// still holds it, else a new one.
fn shared_angles(thetas: &[f32]) -> Angles {
    let key: Vec<u32> = thetas.iter().map(|t| t.to_bits()).collect();
    let mut tables = ANGLE_TABLES.lock().unwrap_or_else(|e| e.into_inner());
    tables.retain(|(_, w)| w.strong_count() > 0);
    if let Some(angles) = tables
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, w)| w.upgrade())
    {
        return angles;
    }
    let angles: Angles = (0..ANGLE_POSITIONS)
        .flat_map(|p| {
            thetas
                .iter()
                .map(move |&theta| (p as f32 * theta).sin_cos())
        })
        .collect();
    tables.push((key, Arc::downgrade(&angles)));
    angles
}

/// Precomputed per-pair RoPE frequencies for a head dimension, with the
/// angle table of the positions below [`ANGLE_POSITIONS`].
#[derive(Clone)]
pub struct RopeTable {
    /// θᵢ for each dimension pair `i ∈ [0, dim/2)`.
    thetas: Vec<f32>,
    /// `(p as f32 · θᵢ).sin_cos()` at index `p · pairs + i`.
    angles: Angles,
}

impl fmt::Debug for RopeTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RopeTable")
            .field("thetas", &self.thetas)
            .field("angle_bytes", &self.angle_bytes())
            .finish()
    }
}

impl RopeTable {
    /// Builds the frequency table for vectors of length `dim` (must be even)
    /// with the given base (10000.0 in the paper; smaller bases give the
    /// compiled program faster-decaying positional kernels).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is odd or zero.
    pub fn new(dim: usize, base: f32) -> Self {
        assert!(
            dim > 0 && dim.is_multiple_of(2),
            "RoPE dim must be even, got {dim}"
        );
        let half = dim / 2;
        let thetas = (0..half)
            .map(|i| base.powf(-2.0 * i as f32 / dim as f32))
            .collect();
        Self::from_thetas(thetas)
    }

    /// Builds a table with explicit per-pair frequencies. Rotation then
    /// applies only to the first `2 * thetas.len()` dimensions of a vector,
    /// leaving the rest untouched (partial RoPE, GPT-NeoX style). The
    /// compiled program uses this to give positional heads hand-picked
    /// kernels while content dimensions stay position-free.
    pub fn from_thetas(thetas: Vec<f32>) -> Self {
        let angles = shared_angles(&thetas);
        Self { thetas, angles }
    }

    /// Bytes of this table's angle table (shared with every table of the
    /// same θs).
    pub fn angle_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.angles)
    }

    /// Number of dimension pairs.
    pub fn pairs(&self) -> usize {
        self.thetas.len()
    }

    /// The frequency of pair `i`.
    pub fn theta(&self, i: usize) -> f32 {
        self.thetas[i]
    }

    /// Rotates the first `2 * self.pairs()` entries of `v` in place as if at
    /// position `pos`; any remaining entries are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() < 2 * self.pairs()`.
    pub fn rotate(&self, v: &mut [f32], pos: f32) {
        assert!(
            v.len() >= 2 * self.thetas.len(),
            "vector shorter than rotated prefix"
        );
        for (i, &theta) in self.thetas.iter().enumerate() {
            let angle = pos * theta;
            let (sin, cos) = angle.sin_cos();
            let a = v[2 * i];
            let b = v[2 * i + 1];
            v[2 * i] = a * cos - b * sin;
            v[2 * i + 1] = a * sin + b * cos;
        }
    }

    /// [`RopeTable::rotate`] at the absolute position `pos`, with the
    /// angles read from the table below [`ANGLE_POSITIONS`] (the same
    /// bits).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() < 2 * self.pairs()`.
    #[inline]
    pub fn rotate_at(&self, v: &mut [f32], pos: usize) {
        let n = self.thetas.len();
        if pos < ANGLE_POSITIONS {
            assert!(v.len() >= 2 * n, "vector shorter than rotated prefix");
            self.rotate_planned(v, &self.angles[pos * n..(pos + 1) * n]);
        } else {
            self.rotate(v, pos as f32);
        }
    }
}

/// Rotates every row of `m` (row `r` is a head vector) by its absolute
/// position `pos[r]`.
pub fn apply_rope(m: &mut Matrix, table: &RopeTable, pos: &[usize]) {
    assert_eq!(m.rows(), pos.len());
    for (r, &p) in pos.iter().enumerate() {
        table.rotate(m.row_mut(r), p as f32);
    }
}

impl RopeTable {
    /// Precomputes the per-pair `(sin, cos)` of a fixed rotation offset —
    /// relocation rotates *every* row of a cache by the same delta, so the
    /// trigonometry is hoisted out of the row loop.
    pub fn plan(&self, pos: f32) -> Vec<(f32, f32)> {
        self.thetas
            .iter()
            .map(|&theta| (pos * theta).sin_cos())
            .collect()
    }

    /// Applies a precomputed [`RopeTable::plan`] to the first
    /// `2 * plan.len()` entries of `v`.
    #[inline]
    pub fn rotate_planned(&self, v: &mut [f32], plan: &[(f32, f32)]) {
        for (i, &(sin, cos)) in plan.iter().enumerate() {
            let a = v[2 * i];
            let b = v[2 * i + 1];
            v[2 * i] = a * cos - b * sin;
            v[2 * i + 1] = a * sin + b * cos;
        }
    }
}

/// Relocates cached keys: rotates every row of `m` by the *offset* `delta`
/// (may be negative), implementing the Appendix-A positional correction
/// `K(m) → K(m+Δ)`.
pub fn rotate_rows_by(m: &mut Matrix, table: &RopeTable, delta: i64) {
    let plan = table.plan(delta as f32);
    for r in 0..m.rows() {
        table.rotate_planned(m.row_mut(r), &plan);
    }
}

/// [`rotate_rows_by`] on the column block starting at `lo` of every row
/// (relocating one head's segment of head-major K rows in place).
pub fn rotate_col_block_by(m: &mut Matrix, table: &RopeTable, lo: usize, delta: i64) {
    let plan = table.plan(delta as f32);
    let hi = lo + 2 * table.pairs();
    for r in 0..m.rows() {
        table.rotate_planned(&mut m.row_mut(r)[lo..hi], &plan);
    }
}

/// Dot product helper used by the invariance tests and the compiled program
/// design: score of query at position `p_q` against key at position `p_k`.
pub fn rope_score(table: &RopeTable, q: &[f32], k: &[f32], p_q: usize, p_k: usize) -> f32 {
    let mut qr = q.to_vec();
    let mut kr = k.to_vec();
    table.rotate(&mut qr, p_q as f32);
    table.rotate(&mut kr, p_k as f32);
    qr.iter().zip(kr.iter()).map(|(a, b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_at_zero_is_identity() {
        let t = RopeTable::new(8, 10000.0);
        let orig: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let mut v = orig.clone();
        t.rotate(&mut v, 0.0);
        for (a, b) in v.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rotation_preserves_norm() {
        let t = RopeTable::new(16, 10000.0);
        let mut v: Vec<f32> = (0..16).map(|i| (i as f32 * 0.7).sin()).collect();
        let n0: f32 = v.iter().map(|x| x * x).sum();
        t.rotate(&mut v, 123.0);
        let n1: f32 = v.iter().map(|x| x * x).sum();
        assert!((n0 - n1).abs() < 1e-3);
    }

    #[test]
    fn proposition_a1_relative_position_invariance() {
        // Attention score depends only on the relative offset l = p_q - p_k.
        let t = RopeTable::new(8, 100.0);
        let q: Vec<f32> = vec![0.3, -0.5, 0.9, 0.1, -0.2, 0.8, 0.4, -0.7];
        let k: Vec<f32> = vec![1.0, 0.2, -0.3, 0.5, 0.6, -0.1, 0.9, 0.4];
        let s1 = rope_score(&t, &q, &k, 10, 4);
        let s2 = rope_score(&t, &q, &k, 110, 104);
        let s3 = rope_score(&t, &q, &k, 1003, 997);
        assert!((s1 - s2).abs() < 1e-3, "{s1} vs {s2}");
        assert!((s1 - s3).abs() < 1e-2, "{s1} vs {s3}");
    }

    #[test]
    fn rotate_rows_by_relocates_cached_keys() {
        // A key computed at local position 3 then shifted by delta=7 must
        // equal the key computed directly at position 10 (Appendix A).
        let t = RopeTable::new(8, 10000.0);
        let base: Vec<f32> = vec![0.5, -0.4, 0.3, 0.9, -0.8, 0.2, 0.1, 0.7];

        let mut local = base.clone();
        t.rotate(&mut local, 3.0);
        let mut m = Matrix::from_vec(1, 8, local);
        rotate_rows_by(&mut m, &t, 7);

        let mut direct = base.clone();
        t.rotate(&mut direct, 10.0);
        for (a, b) in m.row(0).iter().zip(direct.iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn negative_delta_undoes_positive() {
        let t = RopeTable::new(8, 10000.0);
        let orig: Vec<f32> = (0..8).map(|i| (i as f32).cos()).collect();
        let mut m = Matrix::from_vec(1, 8, orig.clone());
        rotate_rows_by(&mut m, &t, 42);
        rotate_rows_by(&mut m, &t, -42);
        for (a, b) in m.row(0).iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn tables_of_equal_thetas_share_one_angle_table() {
        let a = RopeTable::new(16, 10000.0);
        let b = RopeTable::new(16, 10000.0);
        let c = RopeTable::from_thetas(vec![0.5, 0.25]);
        assert!(Arc::ptr_eq(&a.angles, &b.angles));
        assert!(!Arc::ptr_eq(&a.angles, &c.angles));
        assert_eq!(a.angle_bytes(), ANGLE_POSITIONS * 8 * 8);
        assert_eq!(c.angle_bytes(), ANGLE_POSITIONS * 2 * 8);
    }

    #[test]
    fn table_rotation_matches_rotate_bit_for_bit() {
        // Below the table, at its edge and past it.
        let t = RopeTable::from_thetas(vec![1.0, 0.3, 1e-3]);
        let orig: Vec<f32> = vec![0.5, -0.4, 0.3, 0.9, -0.8, 0.2, 0.1];
        for p in (0..8)
            .chain(ANGLE_POSITIONS - 2..ANGLE_POSITIONS + 2)
            .chain([99_999])
        {
            let (mut want, mut got) = (orig.clone(), orig.clone());
            t.rotate(&mut want, p as f32);
            t.rotate_at(&mut got, p);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "position {p}");
        }
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_dim_rejected() {
        let _ = RopeTable::new(7, 10000.0);
    }
}
