//! Elementwise and row-wise neural-network operations.

use crate::matrix::Matrix;

/// Numerically stable in-place softmax over a single row (slice).
///
/// Entries equal to [`f32::NEG_INFINITY`] (masked positions) receive exactly
/// zero probability. If *every* entry is masked the row becomes all zeros
/// rather than NaN, which is the behaviour selective prefill relies on for
/// empty attention windows.
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        row.fill(0.0);
        return;
    }
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Fast exp via `2^(x·log2 e)`: exponent bit-stuffing plus a degree-5
/// polynomial on the fractional part (relative error ≈ 2e-7). Inputs are
/// expected ≤ 0 (softmax shifts by the row max); anything below the
/// flush threshold returns exactly 0.0. Branch-free and lane-parallel, so
/// the softmax loop vectorizes.
#[inline]
fn exp_fast(x: f32) -> f32 {
    // exp(-87) < f32::MIN_POSITIVE: flush to an exact zero (downstream
    // kernels rely on masked probabilities being exactly 0.0).
    let alive = (x > -87.0) as u32 as f32;
    let t = (x.max(-87.0)) * std::f32::consts::LOG2_E;
    let tf = t.floor();
    let f = t - tf;
    // Cephes exp2 minimax polynomial on [0, 1).
    let p = 1.535_336_9e-4f32;
    let p = p.mul_add(f, 1.339_887_5e-3);
    let p = p.mul_add(f, 9.618_437e-3);
    let p = p.mul_add(f, 5.550_332_8e-2);
    let p = p.mul_add(f, 2.402_264_7e-1);
    let p = p.mul_add(f, 6.931_472e-1);
    let p = p.mul_add(f, 1.0);
    p * pow2i(tf) * alive
}

/// `2^tf` for an integer `tf ∈ [−126, 0]`, built with float arithmetic
/// rather than a saturating `tf as i32`, which LLVM scalarizes (one
/// convert and two selects per lane): `2²³ + 127 + tf` is exact, and its
/// low mantissa bits are the biased exponent `127 + tf`, so shifting them
/// into the exponent field gives the bits of `((tf as i32 + 127) as u32)
/// << 23`.
#[inline]
fn pow2i(tf: f32) -> f32 {
    // 8_388_735 = 2²³ + 127.
    f32::from_bits((tf + 8_388_735.0).to_bits() << 23)
}

/// Numerically stable softmax over `row[..live]`, leaving `row[live..]`
/// as it is — the blocked attention path's softmax: the causally masked
/// tail is never read or written (its one later reader, the context
/// product, reads a row only below the same cut), and the live prefix
/// runs `exp_fast` a full vector of lanes at a time. An
/// all-masked (`live == 0`) row's prefix is empty; the probabilities
/// equal [`softmax_row`]'s of the row with its tail masked, up to
/// `exp_fast`'s error.
pub fn softmax_prefix_fast(row: &mut [f32], live: usize) {
    let head = &mut row[..live];
    let max = head.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        head.fill(0.0);
        return;
    }
    // Exponentiation and summation are separate passes: a fused loop's
    // scalar `sum` chain would block vectorization of the exp itself.
    for v in head.iter_mut() {
        *v = exp_fast(*v - max);
    }
    let mut lanes = [0.0f32; 8];
    let mut ch = head.chunks_exact(8);
    for c in &mut ch {
        for t in 0..8 {
            lanes[t] += c[t];
        }
    }
    let mut sum: f32 = lanes.iter().sum();
    sum += ch.remainder().iter().sum::<f32>();
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for v in head.iter_mut() {
            *v *= inv;
        }
    }
}

/// Applies [`softmax_row`] to every row of `m`.
pub fn softmax_rows(m: &mut Matrix) {
    let cols = m.cols();
    for r in 0..m.rows() {
        let _ = cols;
        softmax_row(m.row_mut(r));
    }
}

/// RMSNorm over each row: `x_i * g_i / rms(x)` with `rms = sqrt(mean(x^2) + eps)`.
///
/// `gain` must have length `m.cols()`.
pub fn rmsnorm_rows(m: &mut Matrix, gain: &[f32], eps: f32) {
    assert_eq!(gain.len(), m.cols(), "rmsnorm gain length mismatch");
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let ms: f32 = row.iter().map(|&v| v * v).sum::<f32>() / row.len() as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        for (v, &g) in row.iter_mut().zip(gain.iter()) {
            *v *= inv * g;
        }
    }
}

/// SiLU (swish) activation applied in place.
pub fn silu(m: &mut Matrix) {
    for v in m.as_mut_slice() {
        *v = *v / (1.0 + (-*v).exp());
    }
}

/// Tanh applied in place.
pub fn tanh(m: &mut Matrix) {
    for v in m.as_mut_slice() {
        *v = v.tanh();
    }
}

/// Applies a causal mask to a `q_len × k_len` score matrix where query row
/// `i` corresponds to absolute position `q_pos[i]` and key column `j` to
/// absolute position `k_pos[j]`: entries with `k_pos[j] > q_pos[i]` are set
/// to `-inf`.
///
/// Selective prefill uses the general form: the query rows are a *subset* of
/// positions while key columns cover every position, so a plain triangular
/// mask is not enough.
pub fn causal_mask(scores: &mut Matrix, q_pos: &[usize], k_pos: &[usize]) {
    assert_eq!(scores.rows(), q_pos.len());
    assert_eq!(scores.cols(), k_pos.len());
    for (i, &qp) in q_pos.iter().enumerate() {
        let row = scores.row_mut(i);
        for (j, &kp) in k_pos.iter().enumerate() {
            if kp > qp {
                row[j] = f32::NEG_INFINITY;
            }
        }
    }
}

/// Returns the index of the maximum element of `row`.
///
/// # Panics
///
/// Panics if `row` is empty.
pub fn argmax(row: &[f32]) -> usize {
    assert!(!row.is_empty(), "argmax of empty slice");
    let mut best = 0;
    let mut best_v = row[0];
    for (i, &v) in row.iter().enumerate().skip(1) {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

/// Returns the indices of the `k` largest elements of `vals`, sorted by
/// descending value (ties broken by lower index first).
pub fn top_k_indices(vals: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..vals.len()).collect();
    idx.sort_by(|&a, &b| {
        vals[b]
            .partial_cmp(&vals[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn softmax_row_sums_to_one() {
        let mut row = vec![1.0, 2.0, 3.0];
        softmax_row(&mut row);
        assert_close(row.iter().sum::<f32>(), 1.0, 1e-6);
        assert!(row[2] > row[1] && row[1] > row[0]);
    }

    #[test]
    fn softmax_row_handles_large_values() {
        let mut row = vec![10000.0, 10001.0];
        softmax_row(&mut row);
        assert!(row.iter().all(|v| v.is_finite()));
        assert_close(row.iter().sum::<f32>(), 1.0, 1e-6);
    }

    #[test]
    fn softmax_row_masked_entries_get_zero() {
        let mut row = vec![f32::NEG_INFINITY, 0.0, f32::NEG_INFINITY];
        softmax_row(&mut row);
        assert_eq!(row, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn softmax_row_all_masked_becomes_zero() {
        let mut row = vec![f32::NEG_INFINITY; 4];
        softmax_row(&mut row);
        assert!(row.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn softmax_prefix_fast_matches_exact_softmax() {
        // Seeded sweep: live prefixes of several lengths against the exact
        // softmax with the tail explicitly masked.
        let mut s = 0x1234_5678u64;
        for live in [0usize, 1, 3, 8, 31, 64] {
            let n = 64;
            let mut fast: Vec<f32> = (0..n)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    ((s % 400) as f32 - 200.0) / 10.0
                })
                .collect();
            let mut exact = fast.clone();
            let tail: Vec<u32> = fast[live..].iter().map(|v| v.to_bits()).collect();
            for v in exact[live..].iter_mut() {
                *v = f32::NEG_INFINITY;
            }
            softmax_row(&mut exact);
            softmax_prefix_fast(&mut fast, live);
            for (a, b) in fast[..live].iter().zip(exact.iter()) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b} (live {live})");
            }
            let kept: Vec<u32> = fast[live..].iter().map(|v| v.to_bits()).collect();
            assert_eq!(kept, tail, "the tail is left as it was");
        }
    }

    /// `exp_fast` as it was before `pow2i`: the same polynomial, with
    /// `2^tf` built by a saturating integer cast.
    fn exp_fast_cast(x: f32) -> f32 {
        let alive = (x > -87.0) as u32 as f32;
        let t = (x.max(-87.0)) * std::f32::consts::LOG2_E;
        let tf = t.floor();
        let f = t - tf;
        let p = 1.535_336_9e-4f32;
        let p = p.mul_add(f, 1.339_887_5e-3);
        let p = p.mul_add(f, 9.618_437e-3);
        let p = p.mul_add(f, 5.550_332_8e-2);
        let p = p.mul_add(f, 2.402_264_7e-1);
        let p = p.mul_add(f, 6.931_472e-1);
        let p = p.mul_add(f, 1.0);
        let scale = f32::from_bits((((tf as i32) + 127) as u32) << 23);
        p * scale * alive
    }

    #[test]
    fn exp_fast_keeps_the_cast_constructions_bits() {
        for tf in -126..=0 {
            let want = f32::from_bits(((tf + 127) as u32) << 23);
            assert_eq!(pow2i(tf as f32).to_bits(), want.to_bits(), "2^{tf}");
        }
        // Every 1021st bit pattern from -0.0 down to -100.0 (~1.1M inputs),
        // plus both zeros and the ends of the range.
        let (lo, hi) = ((-0.0f32).to_bits(), (-100.0f32).to_bits());
        let sweep = (lo..=hi).step_by(1021).chain([lo, hi, 0.0f32.to_bits()]);
        for bits in sweep {
            let x = f32::from_bits(bits);
            assert_eq!(
                exp_fast(x).to_bits(),
                exp_fast_cast(x).to_bits(),
                "exp_fast({x:e})"
            );
        }
    }

    #[test]
    fn rmsnorm_produces_unit_rms_with_unit_gain() {
        let mut m = Matrix::from_vec(1, 4, vec![2.0, -2.0, 2.0, -2.0]);
        rmsnorm_rows(&mut m, &[1.0; 4], 1e-6);
        let ms: f32 = m.row(0).iter().map(|&v| v * v).sum::<f32>() / 4.0;
        assert_close(ms, 1.0, 1e-4);
    }

    #[test]
    fn causal_mask_general_positions() {
        // Query rows at absolute positions 2 and 5; keys at 0..6.
        let mut s = Matrix::zeros(2, 6);
        causal_mask(&mut s, &[2, 5], &[0, 1, 2, 3, 4, 5]);
        assert_eq!(s[(0, 2)], 0.0);
        assert_eq!(s[(0, 3)], f32::NEG_INFINITY);
        assert_eq!(s[(1, 5)], 0.0);
    }

    #[test]
    fn argmax_picks_largest() {
        assert_eq!(argmax(&[0.1, 3.0, 2.0]), 1);
    }

    #[test]
    fn top_k_orders_by_value() {
        let v = [1.0, 9.0, 5.0, 9.0, 2.0];
        assert_eq!(top_k_indices(&v, 3), vec![1, 3, 2]);
    }

    #[test]
    fn top_k_k_larger_than_len() {
        let v = [1.0, 2.0];
        assert_eq!(top_k_indices(&v, 10), vec![1, 0]);
    }

    #[test]
    fn silu_matches_definition() {
        let mut m = Matrix::from_vec(1, 1, vec![1.0]);
        silu(&mut m);
        assert_close(m[(0, 0)], 1.0 / (1.0 + (-1.0f32).exp()), 1e-6);
    }
}
