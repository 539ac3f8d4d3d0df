//! Weight containers for heads and MLPs, plus seeded noise builders.

use cb_tensor::rope::RopeTable;
use cb_tensor::Matrix;
use rand::rngs::SmallRng;
use rand::Rng;

/// Position-dependent additive attention bias of a head.
///
/// Biases are computed from absolute positions at attention time, so they
/// survive KV cache relocation by construction (only RoPE'd keys need the
/// Appendix-A re-rotation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttnBias {
    /// No positional bias.
    None,
    /// Sharp previous-token kernel: `0` at offset −1, `-lambda·|Δ+1|`
    /// elsewhere (ALiBi-style relative bias).
    PrevToken {
        /// Per-position penalty; ≥ ~12 makes the head effectively hard.
        lambda: f32,
    },
    /// Subtracts `penalty` from the self position (`Δ = 0`) only. Used by
    /// the induction and recall heads so a query never matches itself.
    ExcludeSelf {
        /// Logit penalty at the self position.
        penalty: f32,
    },
    /// The lookup-head gate: excludes the self position and adds
    /// `sink_score` at absolute position 0 (the BOS sink). A genuine match
    /// scores above the sink; a noise match scores below it, so "no match"
    /// resolves to the sink instead of winner-take-all noise.
    LookupGate {
        /// Logit penalty at the self position.
        self_penalty: f32,
        /// Logit of the BOS sink at position 0.
        sink_score: f32,
    },
}

impl AttnBias {
    /// The bias added to the logit of query position `q_pos` attending to
    /// key position `k_pos` (callers guarantee `k_pos <= q_pos`).
    #[inline]
    pub fn bias(self, q_pos: usize, k_pos: usize) -> f32 {
        match self {
            AttnBias::None => 0.0,
            AttnBias::PrevToken { lambda } => {
                // Offset Δ = k_pos − q_pos ∈ {0, −1, −2, …}; peak at −1.
                let delta_plus_one = k_pos as f32 - q_pos as f32 + 1.0;
                -lambda * delta_plus_one.abs()
            }
            AttnBias::ExcludeSelf { penalty } => {
                if q_pos == k_pos {
                    -penalty
                } else {
                    0.0
                }
            }
            AttnBias::LookupGate {
                self_penalty,
                sink_score,
            } => {
                let mut b = 0.0;
                if q_pos == k_pos {
                    b -= self_penalty;
                }
                if k_pos == 0 {
                    b += sink_score;
                }
                b
            }
        }
    }
}

/// One attention head's weights.
#[derive(Clone, Debug)]
pub struct HeadWeights {
    /// Query projection, `d_model × head_dim`.
    pub wq: Matrix,
    /// Key projection, `d_model × head_dim`.
    pub wk: Matrix,
    /// Value projection, `d_model × head_dim`.
    pub wv: Matrix,
    /// Output projection, `head_dim × d_model`.
    pub wo: Matrix,
    /// Partial RoPE over the first `2·pairs()` head dims, if any.
    pub rope: Option<RopeTable>,
    /// Positional bias.
    pub bias: AttnBias,
    /// Multiplier on the QK logits (program heads use 1.0; noise heads use
    /// `1/sqrt(head_dim)` like a standard transformer).
    pub scale: f32,
}

impl HeadWeights {
    /// An inert head: all-zero projections, uniform attention over the
    /// causal window, zero output. Placeholder for unused head slots.
    pub fn zero(d_model: usize, head_dim: usize) -> Self {
        Self {
            wq: Matrix::zeros(d_model, head_dim),
            wk: Matrix::zeros(d_model, head_dim),
            wv: Matrix::zeros(d_model, head_dim),
            wo: Matrix::zeros(head_dim, d_model),
            rope: None,
            bias: AttnBias::None,
            scale: 1.0,
        }
    }

    /// A seeded random "mixing" head emulating the bulk of a trained model:
    /// standard-scaled QK logits, small value/output magnitudes so program
    /// subspaces are perturbed but never overwhelmed.
    ///
    /// `out_scale` bounds the magnitude of the head's residual contribution.
    pub fn noise(rng: &mut SmallRng, d_model: usize, head_dim: usize, out_scale: f32) -> Self {
        let g = |rng: &mut SmallRng, rows: usize, cols: usize, sd: f32| {
            Matrix::from_fn(rows, cols, |_, _| gauss(rng) * sd)
        };
        let qk_sd = 1.0 / (d_model as f32).sqrt();
        Self {
            wq: g(rng, d_model, head_dim, qk_sd),
            wk: g(rng, d_model, head_dim, qk_sd),
            wv: g(rng, d_model, head_dim, 1.0 / (d_model as f32).sqrt()),
            wo: g(rng, head_dim, d_model, out_scale / (head_dim as f32).sqrt()),
            rope: Some(RopeTable::new(head_dim.min(16), 10000.0)),
            bias: AttnBias::None,
            scale: 1.0 / (head_dim as f32).sqrt(),
        }
    }
}

/// A layer's feed-forward block.
#[derive(Clone, Debug)]
pub enum Mlp {
    /// No feed-forward (the residual passes through).
    None,
    /// Gated bilinear unit `x += wd((wg·x) ⊙ (wu·x))` — the fact-binding
    /// step of the compiled program (computes `code(ent) ⊙ code(prev)`).
    Bilinear {
        /// Gate projection, `d_model × hidden`.
        wg: Matrix,
        /// Up projection, `d_model × hidden`.
        wu: Matrix,
        /// Down projection, `hidden × d_model`.
        wd: Matrix,
    },
    /// Small tanh MLP `x += scale · w2·tanh(w1·x)` adding trained-model-like
    /// perturbation to every token.
    Noise {
        /// First projection, `d_model × hidden`.
        w1: Matrix,
        /// Second projection, `hidden × d_model`.
        w2: Matrix,
        /// Output magnitude bound.
        scale: f32,
    },
}

impl Mlp {
    /// A seeded noise MLP with the given output scale.
    pub fn noise(rng: &mut SmallRng, d_model: usize, hidden: usize, scale: f32) -> Self {
        let w1 = Matrix::from_fn(d_model, hidden, |_, _| gauss(rng) / (d_model as f32).sqrt());
        let w2 = Matrix::from_fn(hidden, d_model, |_, _| gauss(rng) / (hidden as f32).sqrt());
        Mlp::Noise { w1, w2, scale }
    }

    /// Applies the block to `x` (`rows × d_model`), returning the residual
    /// *delta* (caller adds it).
    pub fn forward(&self, x: &Matrix) -> Option<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        let mut h1 = Matrix::zeros(0, 0);
        let mut h2 = Matrix::zeros(0, 0);
        self.forward_into(x, &mut h1, &mut h2, &mut out)
            .then_some(out)
    }

    /// [`Mlp::forward`] into caller-provided buffers (`h1`/`h2` are hidden
    /// scratch, `out` receives the delta). Returns false for [`Mlp::None`]
    /// (`out` untouched).
    pub fn forward_into(
        &self,
        x: &Matrix,
        h1: &mut Matrix,
        h2: &mut Matrix,
        out: &mut Matrix,
    ) -> bool {
        match self {
            Mlp::None => false,
            Mlp::Bilinear { wg, wu, wd } => {
                x.matmul_into(wg, h1);
                x.matmul_into(wu, h2);
                for (hv, uv) in h1.as_mut_slice().iter_mut().zip(h2.as_slice()) {
                    *hv *= *uv;
                }
                h1.matmul_into(wd, out);
                true
            }
            Mlp::Noise { w1, w2, scale } => {
                x.matmul_into(w1, h1);
                cb_tensor::ops::tanh(h1);
                h1.matmul_into(w2, out);
                out.scale(*scale);
                true
            }
        }
    }

    /// [`Mlp::forward`] on the seed's scalar reference kernels (the test
    /// oracle for [`Mlp::forward_into`]).
    #[cfg(test)]
    pub(crate) fn forward_reference(&self, x: &Matrix) -> Option<Matrix> {
        match self {
            Mlp::None => None,
            Mlp::Bilinear { wg, wu, wd } => {
                let g = x.matmul_reference(wg);
                let u = x.matmul_reference(wu);
                let mut h = g;
                for (hv, uv) in h.as_mut_slice().iter_mut().zip(u.as_slice()) {
                    *hv *= *uv;
                }
                Some(h.matmul_reference(wd))
            }
            Mlp::Noise { w1, w2, scale } => {
                let mut h = x.matmul_reference(w1);
                cb_tensor::ops::tanh(&mut h);
                let mut out = h.matmul_reference(w2);
                out.scale(*scale);
                Some(out)
            }
        }
    }
}

/// One transformer layer.
#[derive(Clone, Debug)]
pub struct Layer {
    /// Attention heads.
    pub heads: Vec<HeadWeights>,
    /// Feed-forward block.
    pub mlp: Mlp,
    /// Every head's query projection side by side, `d_model × kv_width`
    /// (head-major columns), so a layer's queries are one blocked matmul
    /// instead of `n_heads` small ones. Built once by [`Layer::new`] from
    /// the per-head weights it mirrors.
    pub wq: Matrix,
    /// Every head's key projection, laid out as [`Layer::wq`].
    pub wk: Matrix,
    /// Every head's value projection, laid out as [`Layer::wq`].
    pub wv: Matrix,
}

impl Layer {
    /// Builds a layer, packing the per-head projections into
    /// [`Layer::wq`], [`Layer::wk`] and [`Layer::wv`].
    ///
    /// # Panics
    ///
    /// Panics if `heads` is empty or head shapes disagree.
    pub fn new(heads: Vec<HeadWeights>, mlp: Mlp) -> Self {
        assert!(!heads.is_empty(), "a layer needs at least one head");
        let d = heads[0].wq.rows();
        let hd = heads[0].wq.cols();
        let width = heads.len() * hd;
        let pack = |w: fn(&HeadWeights) -> &Matrix| {
            let mut out = Matrix::zeros(d, width);
            for (h, head) in heads.iter().enumerate() {
                assert_eq!((w(head).rows(), w(head).cols()), (d, hd));
                out.set_col_block(h * hd, w(head));
            }
            out
        };
        let (wq, wk, wv) = (pack(|h| &h.wq), pack(|h| &h.wk), pack(|h| &h.wv));
        Self {
            heads,
            mlp,
            wq,
            wk,
            wv,
        }
    }
}

/// Standard-normal sample via Box–Muller (keeps us off rand_distr).
pub(crate) fn gauss(rng: &mut SmallRng) -> f32 {
    let u1: f32 = rng.random::<f32>().max(1e-7);
    let u2: f32 = rng.random::<f32>();
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn prev_token_bias_peaks_at_minus_one() {
        let b = AttnBias::PrevToken { lambda: 10.0 };
        assert_eq!(b.bias(5, 4), 0.0);
        assert_eq!(b.bias(5, 5), -10.0);
        assert_eq!(b.bias(5, 3), -10.0);
        assert_eq!(b.bias(5, 0), -40.0);
    }

    #[test]
    fn exclude_self_hits_only_diagonal() {
        let b = AttnBias::ExcludeSelf { penalty: 100.0 };
        assert_eq!(b.bias(3, 3), -100.0);
        assert_eq!(b.bias(3, 2), 0.0);
    }

    #[test]
    fn lookup_gate_combines_sink_and_self() {
        let b = AttnBias::LookupGate {
            self_penalty: 100.0,
            sink_score: 40.0,
        };
        assert_eq!(b.bias(3, 0), 40.0);
        assert_eq!(b.bias(3, 3), -100.0);
        assert_eq!(b.bias(3, 2), 0.0);
        assert_eq!(b.bias(0, 0), -60.0);
    }

    #[test]
    fn bilinear_mlp_computes_elementwise_product() {
        // wg selects dim 0, wu selects dim 1, wd writes to dim 2.
        let mut wg = Matrix::zeros(3, 1);
        wg[(0, 0)] = 1.0;
        let mut wu = Matrix::zeros(3, 1);
        wu[(1, 0)] = 1.0;
        let mut wd = Matrix::zeros(1, 3);
        wd[(0, 2)] = 1.0;
        let mlp = Mlp::Bilinear { wg, wu, wd };
        let x = Matrix::from_vec(1, 3, vec![3.0, 4.0, 0.0]);
        let delta = mlp.forward(&x).unwrap();
        assert_eq!(delta.as_slice(), &[0.0, 0.0, 12.0]);
    }

    #[test]
    fn noise_mlp_output_is_bounded() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mlp = Mlp::noise(&mut rng, 16, 32, 0.05);
        let x = Matrix::from_fn(4, 16, |_, _| 1.0);
        let delta = mlp.forward(&x).unwrap();
        assert!(
            delta.max_abs() < 0.5,
            "noise too large: {}",
            delta.max_abs()
        );
    }

    #[test]
    fn noise_head_is_deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        let ha = HeadWeights::noise(&mut a, 16, 8, 0.1);
        let hb = HeadWeights::noise(&mut b, 16, 8, 0.1);
        assert_eq!(ha.wq, hb.wq);
        assert_eq!(ha.wo, hb.wo);
    }

    #[test]
    fn zero_head_has_zero_output_projection() {
        let h = HeadWeights::zero(8, 4);
        assert_eq!(h.wo.max_abs(), 0.0);
    }

    #[test]
    fn mlp_none_returns_none() {
        assert!(Mlp::None.forward(&Matrix::zeros(1, 4)).is_none());
    }
}
