//! The recall-program compiler.
//!
//! Compiles transformer weights that perform *cross-chunk multi-hop
//! associative recall* — no training involved. The program gives the
//! reproduction a model where the paper's central claims are mechanical
//! facts rather than empirical tendencies:
//!
//! 1. **Cross-attention matters** — a `REF` (coreference) fact's subject
//!    lives in a *previous* chunk; the last-entity head resolves it across
//!    the chunk boundary. Precomputing a chunk's KV in isolation (full KV
//!    reuse) resolves `REF` to the null entity and the answer is lost.
//! 2. **Cross-attention is sparse** — only the tokens of `REF`-facts (and
//!    chunk-initial tokens of continuation chains) depend on preceding
//!    chunks, so their KV deviation is high while everyone else's is near
//!    zero: exactly the HKVD structure of §4.3.
//! 3. **Selective recompute repairs quality** — recomputing just those
//!    tokens' KV restores the recall path.
//!
//! ## Layer map
//!
//! | Layer | Component | Writes |
//! |-------|-----------|--------|
//! | 0 / head 0 | previous-token head (relative bias) | `PREV` |
//! | 0 / head 1 | last-entity head (class + slow RoPE recency) | `ENT` |
//! | 1 / MLP    | bilinear fact binding `code(ent) ⊙ code(prev)` | `KEY` |
//! | 2 / head 0 | induction head (chain continuation) | `ANS` |
//! | 3 / head 0 | recall head (fact lookup by `KEY`) | `ANS` |
//! | all others | seeded noise heads/MLPs (mixing layers) | scratch |
//!
//! The numeric constants below are chosen so every softmax selector has a
//! multi-nat margin over its worst-case distractor at context lengths up to
//! ~1100 tokens; `margin` tests in this module verify the kernels directly.

use cb_tensor::rope::RopeTable;
use cb_tensor::Matrix;
use cb_tokenizer::codes::CodeBook;
use cb_tokenizer::{TokenKind, Vocab};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::config::{
    cls, ModelConfig, Subspace, CLS_DIMS, CLS_OFFSET, CODE_DIM, CONST_OFFSET, SINK_OFFSET,
};
use crate::model::Model;
use crate::weights::{AttnBias, HeadWeights, Layer, Mlp};

/// Sharpness of the previous-token kernel.
const PREV_LAMBDA: f32 = 14.0;
/// Recency kernel mass on the fast pair (θ = 0.01; period 628).
const REC_M1: f32 = 5000.0;
/// Fast recency frequency.
const REC_THETA1: f32 = 0.01;
/// Recency kernel mass on the slow pair (θ = 0.0035; period 1795) — damps
/// the fast pair's wrap-around so distant entities cannot steal attention.
const REC_M2: f32 = 5240.0;
/// Slow recency frequency.
const REC_THETA2: f32 = 0.0035;
/// Class bonus keeping entity tokens ahead of non-entities at any distance.
const REC_CLS: f32 = 2700.0;
/// Content-match logit gain of the induction and recall heads.
const BETA: f32 = 2.0;
/// Output gain of the induction head. Strictly above the recall gain: when
/// a chain is being continued the recall head re-matches the *previous*
/// chain link (its binding `(entity, prev_value)` also exists in context)
/// and would re-emit it; induction must outvote that echo.
const G_IND: f32 = 1.5;
/// Output gain of the recall head. At the `?` step induction is silent
/// (nothing in context follows a `?`), so recall decides the first answer
/// token unopposed.
const G_REC: f32 = 1.0;
/// Self-attention penalty for induction/recall.
const SELF_PENALTY: f32 = 1e4;
/// BOS-sink logit for the recall head: above worst-case binding noise
/// (≈ 34·BETA = 68), below a genuine match (64·BETA = 128), so "no match"
/// attends the sink (whose value is cancelled to zero) instead of noise.
const SINK_RECALL: f32 = 96.0;
/// BOS-sink logit for the (single-width) induction head: between worst-case
/// code noise (≈ 24·BETA = 48) and a genuine match (32·BETA = 64).
const SINK_INDUCTION: f32 = 56.0;
/// Logit bias of EOS so empty `ANS` stops decoding instead of sampling noise.
const EOS_BIAS: f32 = 4.0;
/// Hidden width of noise MLPs.
const NOISE_HIDDEN: usize = 64;

/// Maximum context length (tokens) at which the recency kernel is
/// guaranteed monotone enough to resolve coreference. Generators cap
/// contexts at this length; beyond it quality degrades gracefully (the
/// reproduction's "lost in the middle" analogue).
pub const MAX_RELIABLE_CONTEXT: usize = 1100;

/// Maximum distance (tokens) between a coreference and its antecedent
/// entity at which resolution is guaranteed. Dataset generators keep `REF`
/// antecedents within this window (the paper's chunks likewise keep
/// coreferents nearby — a pronoun's antecedent is almost always within a
/// couple hundred tokens).
pub const MAX_ANTECEDENT_DISTANCE: usize = 200;

/// Class-indicator channel for a token kind.
pub fn class_of(kind: TokenKind) -> usize {
    match kind {
        TokenKind::Entity(_) | TokenKind::Bos => cls::ENT_OR_BOS,
        TokenKind::Attr(_) => cls::ATTR,
        TokenKind::Value(_) => cls::VALUE,
        TokenKind::Ref => cls::REF,
        TokenKind::QMark => cls::QMARK,
        TokenKind::Sep => cls::SEP,
        TokenKind::Filler(_) => cls::FILLER,
        TokenKind::Query | TokenKind::Eos | TokenKind::Pad => cls::OTHER,
    }
}

fn build_embed(vocab: &Vocab, codebook: &CodeBook, d_model: usize) -> Matrix {
    let mut e = Matrix::zeros(vocab.size(), d_model);
    for t in 0..vocab.size() as u32 {
        let row = e.row_mut(t as usize);
        let code = codebook.code(t);
        row[Subspace::Cur.offset()..Subspace::Cur.offset() + CODE_DIM].copy_from_slice(code);
        let c = class_of(vocab.kind(t));
        debug_assert!(c < CLS_DIMS);
        row[CLS_OFFSET + c] = 1.0;
        row[CONST_OFFSET] = 1.0;
        if vocab.kind(t) == TokenKind::Bos {
            row[SINK_OFFSET] = 1.0;
            // BOS acts as the *null* entity: discounting its entity-class
            // indicator puts it ~REC_CLS·0.05 ≈ 135 logits behind any real
            // entity in the recency head, so it resolves coreference only
            // when no antecedent exists and never dilutes a genuine one.
            row[CLS_OFFSET + c] = 0.95;
        }
    }
    e
}

fn build_unembed(vocab: &Vocab, codebook: &CodeBook, d_model: usize) -> Matrix {
    let mut u = Matrix::zeros(d_model, vocab.size());
    for t in 0..vocab.size() as u32 {
        let code = codebook.code(t);
        for i in 0..CODE_DIM {
            u[(Subspace::Ans.offset() + i, t as usize)] = code[i];
        }
    }
    u[(CONST_OFFSET, vocab.id(TokenKind::Eos) as usize)] = EOS_BIAS;
    u
}

/// Identity map from a residual subspace into head dims `0..CODE_DIM`.
fn read_subspace(d_model: usize, head_dim: usize, from: Subspace, gain: f32) -> Matrix {
    let mut w = Matrix::zeros(d_model, head_dim);
    for i in 0..CODE_DIM {
        w[(from.offset() + i, i)] = gain;
    }
    w
}

/// Identity map from head dims `0..CODE_DIM` into a residual subspace.
fn write_subspace(d_model: usize, head_dim: usize, to: Subspace, gain: f32) -> Matrix {
    let mut w = Matrix::zeros(head_dim, d_model);
    for i in 0..CODE_DIM {
        w[(i, to.offset() + i)] = gain;
    }
    w
}

fn prev_token_head(d_model: usize, head_dim: usize, codebook: &CodeBook, bos: u32) -> HeadWeights {
    // The value is sink-cancelled so PREV(BOS) ≈ 0: BOS then contributes no
    // content to downstream lookup keys, keeping the lookup heads' sink
    // logits exact.
    HeadWeights {
        wq: Matrix::zeros(d_model, head_dim),
        wk: Matrix::zeros(d_model, head_dim),
        wv: sink_cancelled_value(d_model, head_dim, codebook, bos),
        wo: write_subspace(d_model, head_dim, Subspace::Prev, 1.0),
        rope: None,
        bias: AttnBias::PrevToken {
            lambda: PREV_LAMBDA,
        },
        scale: 1.0,
    }
}

fn last_entity_head(d_model: usize, head_dim: usize, codebook: &CodeBook, bos: u32) -> HeadWeights {
    let s1 = REC_M1.sqrt();
    let s2 = REC_M2.sqrt();
    let c = REC_CLS.sqrt();
    // Query: constant probe (every position asks "nearest entity?").
    let mut wq = Matrix::zeros(d_model, head_dim);
    wq[(CONST_OFFSET, 0)] = s1;
    wq[(CONST_OFFSET, 2)] = s2;
    wq[(CONST_OFFSET, 4)] = c;
    // Key: present only at entity/BOS tokens (class-gated), so non-entities
    // score exactly zero.
    let mut wk = Matrix::zeros(d_model, head_dim);
    wk[(CLS_OFFSET + cls::ENT_OR_BOS, 0)] = s1;
    wk[(CLS_OFFSET + cls::ENT_OR_BOS, 2)] = s2;
    wk[(CLS_OFFSET + cls::ENT_OR_BOS, 4)] = c;
    HeadWeights {
        wq,
        wk,
        // Sink-cancelled: a token whose nearest "entity" is BOS gets a zero
        // ENT (null), so its binding key is zero and recall sinks cleanly.
        wv: sink_cancelled_value(d_model, head_dim, codebook, bos),
        wo: write_subspace(d_model, head_dim, Subspace::Ent, 1.0),
        // Dims (0,1) rotate at θ1, dims (2,3) at θ2, dim 4 (class) is not
        // rotated. The kernel m1·cos(dθ1) + m2·cos(dθ2) decays with
        // distance d, so the *nearest* entity wins; reusing cached K at the
        // wrong absolute position corrupts exactly this head — which is why
        // the Appendix-A re-rotation is load-bearing.
        rope: Some(RopeTable::from_thetas(vec![REC_THETA1, REC_THETA2])),
        bias: AttnBias::None,
        scale: 1.0,
    }
}

/// Reads two subspaces into head dims `0..32` / `32..64`.
fn read_pair(d_model: usize, head_dim: usize, a: Subspace, b: Subspace, gain: f32) -> Matrix {
    assert!(head_dim >= 2 * CODE_DIM, "lookup heads need 64 head dims");
    let mut w = Matrix::zeros(d_model, head_dim);
    for i in 0..CODE_DIM {
        w[(a.offset() + i, i)] = gain;
        w[(b.offset() + i, CODE_DIM + i)] = gain;
    }
    w
}

/// Value projection reading CUR, with the BOS sink's content cancelled to
/// zero (via the SINK flag dim), so attending the sink writes nothing.
fn sink_cancelled_value(
    d_model: usize,
    head_dim: usize,
    codebook: &CodeBook,
    bos_id: u32,
) -> Matrix {
    let mut wv = read_subspace(d_model, head_dim, Subspace::Cur, 1.0);
    let bos_code = codebook.code(bos_id);
    for i in 0..CODE_DIM {
        wv[(SINK_OFFSET, i)] = -bos_code[i];
    }
    wv
}

fn induction_head(d_model: usize, head_dim: usize, codebook: &CodeBook, bos: u32) -> HeadWeights {
    // Classic induction: the query is the *current* token's code and keys
    // are each position's *previous*-token code, so position `p` attends to
    // successors of earlier occurrences of its own token and copies them
    // into ANS — this continues multi-token value chains during decoding
    // (and ends them: the successor of the last chain token is a separator,
    // which stops greedy decoding). The BOS sink absorbs no-match queries.
    // Single-width: "doubling" a plain code match is dot-product invariant
    // and gains nothing, unlike the recall head's product-code halves.
    HeadWeights {
        wq: read_subspace(d_model, head_dim, Subspace::Cur, BETA),
        wk: read_subspace(d_model, head_dim, Subspace::Prev, 1.0),
        wv: sink_cancelled_value(d_model, head_dim, codebook, bos),
        wo: write_subspace(d_model, head_dim, Subspace::Ans, G_IND),
        rope: None,
        bias: AttnBias::LookupGate {
            self_penalty: SELF_PENALTY,
            sink_score: SINK_INDUCTION,
        },
        scale: 1.0,
    }
}

fn recall_head(d_model: usize, head_dim: usize, codebook: &CodeBook, bos: u32) -> HeadWeights {
    HeadWeights {
        wq: read_pair(d_model, head_dim, Subspace::KeyA, Subspace::KeyB, BETA),
        wk: read_pair(d_model, head_dim, Subspace::KeyA, Subspace::KeyB, 1.0),
        wv: sink_cancelled_value(d_model, head_dim, codebook, bos),
        wo: write_subspace(d_model, head_dim, Subspace::Ans, G_REC),
        rope: None,
        bias: AttnBias::LookupGate {
            self_penalty: SELF_PENALTY,
            sink_score: SINK_RECALL,
        },
        scale: 1.0,
    }
}

fn binding_mlp(d_model: usize) -> Mlp {
    // KEYA ← ENT ⊙ PREV and KEYB ← roll(ENT, 1) ⊙ PREV at every position:
    // value tokens get their fact's binding (subject ⊗ attribute), the
    // query's `?` gets the probe. Two halves double the lookup margin.
    let hidden = 2 * CODE_DIM;
    let mut wg = Matrix::zeros(d_model, hidden);
    let mut wu = Matrix::zeros(d_model, hidden);
    let mut wd = Matrix::zeros(hidden, d_model);
    for i in 0..CODE_DIM {
        wg[(Subspace::Ent.offset() + i, i)] = 1.0;
        wg[(Subspace::Ent.offset() + (i + 1) % CODE_DIM, CODE_DIM + i)] = 1.0;
        wu[(Subspace::Prev.offset() + i, i)] = 1.0;
        wu[(Subspace::Prev.offset() + i, CODE_DIM + i)] = 1.0;
        wd[(i, Subspace::KeyA.offset() + i)] = 1.0;
        wd[(CODE_DIM + i, Subspace::KeyB.offset() + i)] = 1.0;
    }
    Mlp::Bilinear { wg, wu, wd }
}

/// Compiles the recall program for `cfg`.
///
/// Layers 0–3 carry the program; any further layers are seeded noise
/// ("mixing") layers emulating the bulk of a trained model, so deviation
/// statistics have realistic depth (Figures 7/8).
pub fn compile(cfg: ModelConfig) -> Model {
    assert!(cfg.n_layers() >= 4, "program needs at least 4 layers");
    assert!(
        cfg.head_dim >= 2 * CODE_DIM,
        "head_dim must hold a doubled code"
    );
    assert!(cfg.n_heads >= 2, "program needs 2 heads on layer 0");
    let d = cfg.d_model();
    let hd = cfg.head_dim;
    let codebook = CodeBook::new(cfg.vocab.size(), CODE_DIM, cfg.seed);
    let mut rng = SmallRng::seed_from_u64(
        cfg.seed
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(cfg.n_layers() as u64),
    );

    let bos = cfg.vocab.id(TokenKind::Bos);
    let noise_head = |rng: &mut SmallRng| HeadWeights::noise(rng, d, hd, cfg.noise_scale);
    let mut layers = Vec::with_capacity(cfg.n_layers());
    for l in 0..cfg.n_layers() {
        let mut heads = Vec::with_capacity(cfg.n_heads);
        match l {
            0 => {
                heads.push(prev_token_head(d, hd, &codebook, bos));
                heads.push(last_entity_head(d, hd, &codebook, bos));
            }
            2 => heads.push(induction_head(d, hd, &codebook, bos)),
            3 => heads.push(recall_head(d, hd, &codebook, bos)),
            _ => {}
        }
        while heads.len() < cfg.n_heads {
            heads.push(noise_head(&mut rng));
        }
        let mlp = match l {
            0 => Mlp::None,
            1 => binding_mlp(d),
            _ => Mlp::noise(&mut rng, d, NOISE_HIDDEN, cfg.noise_scale),
        };
        layers.push(Layer::new(heads, mlp));
    }

    let embed = build_embed(&cfg.vocab, &codebook, d);
    let unembed = build_unembed(&cfg.vocab, &codebook, d);
    Model {
        cfg,
        codebook,
        embed,
        unembed,
        layers,
        bos: Default::default(),
    }
}

/// Compiles an all-noise model of the same shape (dense weights everywhere).
#[cfg(test)]
pub(crate) fn compile_noise_only(cfg: ModelConfig) -> Model {
    let d = cfg.d_model();
    let hd = cfg.head_dim;
    let codebook = CodeBook::new(cfg.vocab.size(), CODE_DIM, cfg.seed);
    let mut rng = SmallRng::seed_from_u64(
        cfg.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(cfg.n_layers() as u64),
    );
    let layers = (0..cfg.n_layers())
        .map(|_| {
            let heads = (0..cfg.n_heads)
                .map(|_| HeadWeights::noise(&mut rng, d, hd, 0.1))
                .collect();
            Layer::new(heads, Mlp::noise(&mut rng, d, NOISE_HIDDEN, 0.1))
        })
        .collect();
    let embed = build_embed(&cfg.vocab, &codebook, d);
    let unembed = build_unembed(&cfg.vocab, &codebook, d);
    Model {
        cfg,
        codebook,
        embed,
        unembed,
        layers,
        bos: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelProfile;
    use cb_tokenizer::TokenId;

    fn model() -> Model {
        Model::compiled(ModelConfig::standard(ModelProfile::Tiny, 11))
    }

    /// The recency kernel: margin of the nearest entity over competitors.
    fn recency_score(d: f32) -> f32 {
        REC_CLS + REC_M1 * (d * REC_THETA1).cos() + REC_M2 * (d * REC_THETA2).cos()
    }

    #[test]
    fn recency_kernel_prefers_nearer_entities() {
        // A nearest entity within the antecedent window must beat any
        // entity ≥ 4 tokens further back, anywhere in the reliable context.
        for d_near in [1usize, 2, 5, 10, 50, 100, 200] {
            for gap in [4usize, 8, 16, 64, 256, 512] {
                let d_far = d_near + gap;
                if d_far > MAX_RELIABLE_CONTEXT {
                    continue;
                }
                let margin = recency_score(d_near as f32) - recency_score(d_far as f32);
                assert!(
                    margin > 4.0,
                    "weak margin {margin} at d_near={d_near}, d_far={d_far}"
                );
            }
        }
    }

    #[test]
    fn recency_kernel_positive_within_antecedent_window() {
        // Within the guaranteed antecedent window an entity must beat the 0
        // score of every non-entity token.
        for d in 1..=MAX_ANTECEDENT_DISTANCE {
            assert!(
                recency_score(d as f32) > 4.0,
                "entity at distance {d} loses to non-entities"
            );
        }
    }

    fn seq(v: &Vocab, spec: &[TokenKind]) -> Vec<TokenId> {
        spec.iter().map(|&k| v.id(k)).collect()
    }

    #[test]
    fn prev_head_writes_predecessor_code() {
        let m = model();
        let v = m.cfg.vocab.clone();
        let toks = seq(
            &v,
            &[
                TokenKind::Bos,
                TokenKind::Entity(3),
                TokenKind::Attr(1),
                TokenKind::Value(9),
            ],
        );
        let (_, x) = m.prefill(&toks);
        // After layer 0 the PREV subspace of row 2 (attr) holds the code of
        // the entity token; measured at the end it still should (noise is
        // small). Dot with the true predecessor code ≈ CODE_DIM.
        let prev = &x.row(2)[Subspace::Prev.offset()..Subspace::Prev.offset() + CODE_DIM];
        let code = m.codebook.code(toks[1]);
        let dot: f32 = prev.iter().zip(code.iter()).map(|(a, b)| a * b).sum();
        assert!(dot > 24.0, "prev-token head weak: dot = {dot}");
        // And clearly larger than against an unrelated token's code.
        let other = m.codebook.code(v.id(TokenKind::Entity(7)));
        let dot_other: f32 = prev.iter().zip(other.iter()).map(|(a, b)| a * b).sum();
        assert!(dot_other < dot / 2.0);
    }

    #[test]
    fn last_entity_head_resolves_nearest_entity() {
        let m = model();
        let v = m.cfg.vocab.clone();
        // ent5 ... ent8 ... attr2 — the attr's ENT must be ent8 (nearer).
        let toks = seq(
            &v,
            &[
                TokenKind::Bos,
                TokenKind::Entity(5),
                TokenKind::Attr(0),
                TokenKind::Value(1),
                TokenKind::Sep,
                TokenKind::Entity(8),
                TokenKind::Attr(2),
            ],
        );
        let (_, x) = m.prefill(&toks);
        let ent = &x.row(6)[Subspace::Ent.offset()..Subspace::Ent.offset() + CODE_DIM];
        let near = m.codebook.code(v.id(TokenKind::Entity(8)));
        let far = m.codebook.code(v.id(TokenKind::Entity(5)));
        let dot_near: f32 = ent.iter().zip(near.iter()).map(|(a, b)| a * b).sum();
        let dot_far: f32 = ent.iter().zip(far.iter()).map(|(a, b)| a * b).sum();
        assert!(dot_near > 24.0, "nearest entity not resolved: {dot_near}");
        assert!(dot_far < dot_near / 2.0, "stale entity leaks: {dot_far}");
    }

    #[test]
    fn ref_fact_resolves_antecedent_entity() {
        let m = model();
        let v = m.cfg.vocab.clone();
        // "ent5 attr0 val1 . it attr2 val7 ." — the REF fact's subject is
        // ent5; its attr position must carry ent5 in ENT.
        let toks = seq(
            &v,
            &[
                TokenKind::Bos,
                TokenKind::Entity(5),
                TokenKind::Attr(0),
                TokenKind::Value(1),
                TokenKind::Sep,
                TokenKind::Ref,
                TokenKind::Attr(2),
                TokenKind::Value(7),
                TokenKind::Sep,
            ],
        );
        let (_, x) = m.prefill(&toks);
        let ent = &x.row(6)[Subspace::Ent.offset()..Subspace::Ent.offset() + CODE_DIM];
        let ante = m.codebook.code(v.id(TokenKind::Entity(5)));
        let dot: f32 = ent.iter().zip(ante.iter()).map(|(a, b)| a * b).sum();
        assert!(dot > 24.0, "REF antecedent not resolved: {dot}");
    }

    #[test]
    fn single_hop_recall_answers_query() {
        let m = model();
        let v = m.cfg.vocab.clone();
        // Facts: ent5.attr0 = val1; ent8.attr0 = val7. Query ent8.attr0.
        let toks = seq(
            &v,
            &[
                TokenKind::Bos,
                TokenKind::Entity(5),
                TokenKind::Attr(0),
                TokenKind::Value(1),
                TokenKind::Sep,
                TokenKind::Entity(8),
                TokenKind::Attr(0),
                TokenKind::Value(7),
                TokenKind::Sep,
                TokenKind::Query,
                TokenKind::Entity(8),
                TokenKind::Attr(0),
                TokenKind::QMark,
            ],
        );
        let ans = m.generate(&toks, 4);
        assert_eq!(ans, vec![v.id(TokenKind::Value(7))], "wrong recall");
    }

    #[test]
    fn recall_distinguishes_attributes_of_same_entity() {
        let m = model();
        let v = m.cfg.vocab.clone();
        let toks = seq(
            &v,
            &[
                TokenKind::Bos,
                TokenKind::Entity(5),
                TokenKind::Attr(0),
                TokenKind::Value(1),
                TokenKind::Sep,
                TokenKind::Ref,
                TokenKind::Attr(3),
                TokenKind::Value(9),
                TokenKind::Sep,
                TokenKind::Query,
                TokenKind::Entity(5),
                TokenKind::Attr(3),
                TokenKind::QMark,
            ],
        );
        let ans = m.generate(&toks, 4);
        assert_eq!(ans, vec![v.id(TokenKind::Value(9))]);
    }

    #[test]
    fn value_chains_continue_by_induction() {
        let m = model();
        let v = m.cfg.vocab.clone();
        // ent5.attr0 = [val1 val2 val3].
        let toks = seq(
            &v,
            &[
                TokenKind::Bos,
                TokenKind::Entity(5),
                TokenKind::Attr(0),
                TokenKind::Value(1),
                TokenKind::Value(2),
                TokenKind::Value(3),
                TokenKind::Sep,
                TokenKind::Query,
                TokenKind::Entity(5),
                TokenKind::Attr(0),
                TokenKind::QMark,
            ],
        );
        let ans = m.generate(&toks, 8);
        let expect: Vec<TokenId> = [
            TokenKind::Value(1),
            TokenKind::Value(2),
            TokenKind::Value(3),
        ]
        .iter()
        .map(|&k| v.id(k))
        .collect();
        assert_eq!(ans, expect, "chain decode failed");
    }

    #[test]
    fn absent_fact_stops_or_misses() {
        let m = model();
        let v = m.cfg.vocab.clone();
        let toks = seq(
            &v,
            &[
                TokenKind::Bos,
                TokenKind::Entity(5),
                TokenKind::Attr(0),
                TokenKind::Value(1),
                TokenKind::Sep,
                TokenKind::Query,
                TokenKind::Entity(9),
                TokenKind::Attr(4),
                TokenKind::QMark,
            ],
        );
        let ans = m.generate(&toks, 4);
        // Without the fact in context the model must not "recall" val1 via
        // the recall head; either it stops immediately or hallucinates an
        // unrelated value — but never the (9,4) ground truth, which does not
        // exist. The strong guarantee we need: it does not return val1
        // *because of* entity mismatch.
        assert_ne!(ans, vec![v.id(TokenKind::Value(1))]);
    }

    #[test]
    fn deeper_profiles_preserve_recall() {
        for p in [ModelProfile::Mistral7B, ModelProfile::Yi34B] {
            let m = Model::compiled(ModelConfig::standard(p, 11));
            let v = m.cfg.vocab.clone();
            let toks = seq(
                &v,
                &[
                    TokenKind::Bos,
                    TokenKind::Entity(5),
                    TokenKind::Attr(0),
                    TokenKind::Value(1),
                    TokenKind::Sep,
                    TokenKind::Entity(8),
                    TokenKind::Attr(0),
                    TokenKind::Value(7),
                    TokenKind::Sep,
                    TokenKind::Query,
                    TokenKind::Entity(8),
                    TokenKind::Attr(0),
                    TokenKind::QMark,
                ],
            );
            let ans = m.generate(&toks, 4);
            assert_eq!(
                ans,
                vec![v.id(TokenKind::Value(7))],
                "recall broken at profile {p:?}"
            );
        }
    }
}
