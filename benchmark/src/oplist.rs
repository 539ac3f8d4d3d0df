//! The four workloads as fixed, seeded op lists.
//!
//! A workload is a *universe* of chunks registered at set-up, a list of
//! *cases* (one request each: retrieved chunk ids + query + gold answer),
//! and a *block*: the sequence of barrier waves the load generator issues.
//! A run is a fixed number of blocks, never a time box. Every block issues
//! the same requests in the same order, so answers, quality and every
//! count must repeat block to block; only the never-queried chunks
//! `ingest_mix` registers are fresh per block (still a pure function of the
//! seed and the block index).
//!
//! The *corpus* (documents, chunks, questions, gold answers) is a constant
//! of the benchmark, like a dataset file on disk. `--seed` draws the
//! *traffic*: the order in which the cases are requested and the chunks
//! `ingest_mix` writes. The benchmark driver judges run-to-run noise
//! across seeds; with the corpus drawn from the seed too, `quality_score`
//! moved by a case or two in 48 from seed to seed, which no bound on an
//! "equal quality" gate can tell from a real loss.
//!
//! The program under test only ever sees the generated token ids.

use cb_model::ModelProfile;
use cb_rag::datasets::{Dataset, DatasetKind, GenConfig};
use cb_tokenizer::{TokenId, TokenKind, Vocab};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// An independent generator for every (seed, purpose) pair. The vendored
/// `rand` is the generator the datasets themselves are drawn with, so op
/// lists are exactly as stable as the corpus is.
pub fn rng(seed: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Seed of the corpus: a constant, deliberately not `--seed` (see above).
const CORPUS_SEED: u64 = 12;

/// Measured blocks of a run at the catalogue's `run_seconds`.
pub const MEASURED_BLOCKS: usize = 8;

/// Measured blocks for `--seconds`: proportional to the catalogue's run
/// length, fixed before the run starts and independent of how fast the
/// host happens to be. At least two, so there is a median over blocks.
pub fn measured_blocks(seconds: f64, run_seconds: f64) -> usize {
    ((MEASURED_BLOCKS as f64 * seconds / run_seconds).round() as usize).max(2)
}

/// The workload names are stable identifiers: `BENCHMARK.json`, result
/// files and later PRs refer to them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RagWarm,
    RagTiered,
    LongDecode,
    IngestMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RagWarm,
        Workload::RagTiered,
        Workload::LongDecode,
        Workload::IngestMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RagWarm => "rag_warm",
            Workload::RagTiered => "rag_tiered",
            Workload::LongDecode => "long_decode",
            Workload::IngestMix => "ingest_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Only the model profile and the traffic differ per workload; the
    /// deployment (see `stack.rs`) is the same for all four.
    pub fn profile(self) -> ModelProfile {
        match self {
            Workload::LongDecode => ModelProfile::Llama70B,
            _ => ModelProfile::Mistral7B,
        }
    }

    /// Wave width W: ops submitted back to back before the barrier.
    ///
    /// The one prefill worker serves a wave's requests one after the
    /// other, so their TTFTs fall into W clusters a prefill apart. With an
    /// even number of requests per wave the median sits in the *gap*
    /// between two clusters and flips between them from run to run; an
    /// odd number puts it inside the middle cluster. Hence 3 and 7, not 2
    /// and 8 (`ingest_mix`'s second caller registers, so its waves hold
    /// one request).
    pub fn wave_width(self) -> usize {
        match self {
            Workload::RagWarm => 1,
            Workload::IngestMix => 2,
            Workload::RagTiered => 3,
            Workload::LongDecode => 7,
        }
    }

    pub fn max_new_tokens(self) -> usize {
        match self {
            Workload::LongDecode => 64,
            _ => 8,
        }
    }

    /// Discarded blocks before the measured ones. One warms caches, pools
    /// and tiers. `ingest_mix` takes two: its RAM tier (96 entries) holds
    /// the 54-chunk universe and the first 42 fresh chunks, so the
    /// spilling every later registration causes starts inside the second
    /// block, and every measured block sees the same steady state.
    pub fn warmup_blocks(self) -> usize {
        match self {
            Workload::IngestMix => 2,
            _ => 1,
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median. Three where a
    /// set-up takes a second or two; `rag_tiered` registers six times the
    /// chunks (6–8 s a set-up), and a third would cost more run time than
    /// the driver's budget has.
    pub fn setups(self) -> usize {
        match self {
            Workload::RagTiered => 2,
            _ => 3,
        }
    }

    /// TTFT limit for `slo_met_frac`, fixed at about three times the p50
    /// measured on the seed commit (README, "SLO limits"). A constant of
    /// the benchmark: changing it is a benchmark change, not a tuning knob.
    pub fn slo_ttft_ms(self) -> f64 {
        match self {
            Workload::RagWarm => 250.0,
            Workload::RagTiered => 450.0,
            Workload::LongDecode => 150.0,
            Workload::IngestMix => 250.0,
        }
    }
}

/// One request of the fixed case list.
#[derive(Clone, Debug)]
pub struct Case {
    /// Indices into [`OpList::universe`], in context order.
    pub chunks: Vec<usize>,
    pub query: Vec<TokenId>,
    pub gold: Vec<TokenId>,
    /// Which of [`OpList::datasets`] scores this case.
    pub dataset: usize,
}

#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Serve case `i`.
    Request(usize),
    /// `register_chunk(eager)` this fresh chunk.
    Register(Vec<TokenId>),
}

pub type Wave = Vec<Op>;

pub struct OpList {
    pub workload: Workload,
    pub seed: u64,
    pub datasets: Vec<Dataset>,
    /// Every chunk registered at set-up, in registration order.
    pub universe: Vec<Vec<TokenId>>,
    pub cases: Vec<Case>,
    /// Case indices in issue order for one block (cases may repeat).
    order: Vec<usize>,
}

/// Tokens per context chunk on the three RAG-shaped workloads; with k = 6
/// a request's context is ~770 tokens, inside the compiled model's
/// reliable window (~1100).
pub const RAG_CHUNK_LEN: usize = 128;
const RAG_K: usize = 6;
/// Tiered universe: this many independently drawn datasets (~54 chunks
/// each), 3.3x the RAM tier's 96 entries.
const TIERED_DATASETS: usize = 6;
const TIERED_CASES_PER_DATASET: usize = 4;

/// Cases of `rag_warm` / `ingest_mix` (a block serves each once) and of
/// `long_decode` (a block serves each twice: 56 requests, eight waves of
/// seven, which lasts about as long as the RAG workloads' 24 requests).
/// The block sizes make eight measured blocks last about 15 s on the
/// reference host when it is calm: the driver's budget (92 runs and two
/// builds in 3420 s) leaves a run ~35 s, set-ups and warm-up included, and
/// the host has slow stretches in which everything takes a third longer.
const RAG_CASES: usize = 24;
const DECODE_CASES: usize = 28;

fn rag_config(seed: u64) -> GenConfig {
    GenConfig {
        // 27 documents of ~290 tokens: two full 128-token chunks each (54
        // in all) and a short tail that is not used.
        n_docs: 27,
        doc_facts: 56,
        chunk_len: RAG_CHUNK_LEN,
        // Three times the cases served, so enough survive without a tail
        // chunk.
        n_cases: 3 * RAG_CASES,
        ..GenConfig::standard(DatasetKind::MusiqueSim, seed)
    }
}

fn decode_config(seed: u64) -> GenConfig {
    GenConfig {
        // Two 32-value facts per document and a chunk long enough to hold
        // the whole document: no answer chain straddles a chunk boundary,
        // so with k = 1 every request decodes its full 32 tokens. (Values
        // are unique within a document; the vocabulary has 96.)
        answer_len: (32, 32),
        n_docs: 20,
        doc_facts: 2,
        chunk_len: 96,
        n_cases: DECODE_CASES,
        ..GenConfig::standard(DatasetKind::MultiNewsSim, seed)
    }
}

impl OpList {
    /// Builds the op list of `workload` for `seed`. `requests_per_block`
    /// overrides the block length (the smoke run's short block); `None`
    /// is the benchmark's own size.
    pub fn generate(workload: Workload, seed: u64, requests_per_block: Option<usize>) -> OpList {
        let vocab = Vocab::default_eval;
        let mut datasets = Vec::new();
        let mut universe = Vec::new();
        let mut cases = Vec::new();
        let mut add_dataset = |cfg: GenConfig, k: usize, take: usize| {
            let ds = Dataset::generate(vocab(), &cfg);
            // Fixed-window chunking leaves every document a short last
            // chunk. The RAG workloads register and serve only the full
            // windows, so every request has the same context length
            // whichever case it serves; `long_decode` (k = 1) keeps its
            // one-chunk documents whole.
            let usable = |c: usize| k == 1 || ds.chunks[c].len() == cfg.chunk_len;
            let mut slot = vec![usize::MAX; ds.chunks.len()];
            for c in (0..ds.chunks.len()).filter(|&c| usable(c)) {
                slot[c] = universe.len();
                universe.push(ds.chunks[c].clone());
            }
            // A case's context: the chunks that hold its answer, topped up
            // to k with retrieved distractors, in document order. The
            // request path under test starts after retrieval, and a
            // retrieval miss would make quality measure the retriever.
            let (mut eligible, mut contexts) = (Vec::new(), Vec::new());
            for (i, case) in ds.cases.iter().enumerate() {
                if !case.relevant_chunks.iter().all(|&c| usable(c)) {
                    continue;
                }
                let mut ctx = case.relevant_chunks.clone();
                for c in ds.retrieve(case, 2 * k) {
                    if ctx.len() < k && usable(c) && !ctx.contains(&c) {
                        ctx.push(c);
                    }
                }
                if ctx.len() == k {
                    ctx.sort_unstable();
                    eligible.push(i);
                    contexts.push(ctx.into_iter().map(|c| slot[c]).collect::<Vec<_>>());
                }
            }
            assert!(
                contexts.len() >= take,
                "dataset has {} usable cases, need {take}",
                contexts.len()
            );
            for pick in least_overlapping(&contexts, take) {
                let case = &ds.cases[eligible[pick]];
                cases.push(Case {
                    chunks: contexts[pick].clone(),
                    query: case.query.clone(),
                    gold: case.gold.clone(),
                    dataset: datasets.len(),
                });
            }
            datasets.push(ds);
        };
        // The traffic: every block requests the cases in this order.
        let mut draw = rng(seed, 1);
        let mut order: Vec<usize> = match workload {
            Workload::RagWarm | Workload::IngestMix => {
                add_dataset(rag_config(CORPUS_SEED), RAG_K, RAG_CASES);
                let mut order: Vec<usize> = (0..cases.len()).collect();
                order.shuffle(&mut draw);
                order
            }
            Workload::RagTiered => {
                for d in 0..TIERED_DATASETS {
                    add_dataset(
                        rag_config(CORPUS_SEED + 100 + d as u64),
                        RAG_K,
                        TIERED_CASES_PER_DATASET,
                    );
                }
                // Round-robin over the datasets (in a drawn order, each
                // dataset's cases in a drawn order), so consecutive
                // requests share no chunk and LRU keeps cycling the tiers.
                let mut dataset_order: Vec<usize> = (0..TIERED_DATASETS).collect();
                dataset_order.shuffle(&mut draw);
                let case_order: Vec<Vec<usize>> = (0..TIERED_DATASETS)
                    .map(|_| {
                        let mut o: Vec<usize> = (0..TIERED_CASES_PER_DATASET).collect();
                        o.shuffle(&mut draw);
                        o
                    })
                    .collect();
                (0..TIERED_CASES_PER_DATASET)
                    .flat_map(|j| {
                        dataset_order
                            .iter()
                            .map(|&d| d * TIERED_CASES_PER_DATASET + case_order[d][j])
                            .collect::<Vec<_>>()
                    })
                    .collect()
            }
            Workload::LongDecode => {
                add_dataset(decode_config(CORPUS_SEED + 2), 1, DECODE_CASES);
                // Every case twice, in a drawn order: eight whole waves.
                let mut order: Vec<usize> = (0..cases.len()).chain(0..cases.len()).collect();
                order.shuffle(&mut draw);
                order
            }
        };
        if let Some(n) = requests_per_block {
            order.truncate(n.max(1));
        }
        OpList {
            workload,
            seed,
            datasets,
            universe,
            cases,
            order,
        }
    }

    pub fn requests_per_block(&self) -> usize {
        self.order.len()
    }

    /// The waves of block `block`, counting the discarded warm-up blocks
    /// (the first [`Workload::warmup_blocks`]) too.
    pub fn block(&self, block: usize) -> Vec<Wave> {
        let w = self.workload.wave_width();
        match self.workload {
            Workload::IngestMix => {
                // W = 2 callers: one serves a request, the other registers
                // a fresh chunk that no request will ever name.
                let mut draw = rng(self.seed, 0x1A6E57 + block as u64);
                self.order
                    .iter()
                    .map(|&c| vec![Op::Request(c), Op::Register(fresh_chunk(&mut draw))])
                    .collect()
            }
            _ => self
                .order
                .chunks(w)
                .map(|wave| wave.iter().map(|&c| Op::Request(c)).collect())
                .collect(),
        }
    }

    /// FNV-1a over everything the program will be fed in a run of `blocks`
    /// blocks (warm-up included): the universe, the cases, and every
    /// block's waves. Printed as `workload.oplist_hash`; equal hashes mean
    /// equal inputs.
    pub fn hash(&self, blocks: usize) -> u64 {
        let mut h = Fnv::default();
        for chunk in &self.universe {
            h.tokens(chunk);
        }
        for case in &self.cases {
            h.word(case.chunks.len() as u64);
            for &c in &case.chunks {
                h.word(c as u64);
            }
            h.tokens(&case.query);
            h.tokens(&case.gold);
        }
        for block in 0..blocks {
            for wave in self.block(block) {
                h.word(wave.len() as u64);
                for op in wave {
                    match op {
                        Op::Request(c) => h.word(c as u64),
                        Op::Register(chunk) => h.tokens(&chunk),
                    }
                }
            }
        }
        h.0
    }

    pub fn score(&self, case: &Case, answer: &[TokenId]) -> f64 {
        f64::from(self.datasets[case.dataset].score(answer, &case.gold))
    }
}

/// Picks `n` of `contexts` greedily so that each next pick shares the
/// fewest chunks with those already picked (ties to the lowest index).
/// Spreading a block's requests over the universe matters on
/// `rag_tiered`: the fewer chunks a block re-reads while they are still in
/// RAM, the more of its fetches reach the slower tiers.
fn least_overlapping(contexts: &[Vec<usize>], n: usize) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::new();
    let mut used: Vec<usize> = Vec::new();
    while picked.len() < n.min(contexts.len()) {
        let next = (0..contexts.len())
            .filter(|i| !picked.contains(i))
            .min_by_key(|&i| contexts[i].iter().filter(|c| used.contains(c)).count())
            .expect("fewer picks than contexts");
        used.extend_from_slice(&contexts[next]);
        picked.push(next);
    }
    picked
}

/// A fresh 128-token chunk of random facts (`entity attr value .` with
/// filler in between), shaped like dataset text but never queried.
pub fn fresh_chunk(draw: &mut SmallRng) -> Vec<TokenId> {
    let v = Vocab::default_eval();
    let mut out = Vec::with_capacity(RAG_CHUNK_LEN + 8);
    while out.len() < RAG_CHUNK_LEN {
        for _ in 0..draw.random_range(0..3u32) {
            out.push(v.id(TokenKind::Filler(draw.random_range(0..v.n_fillers()))));
        }
        out.push(v.id(TokenKind::Entity(draw.random_range(0..v.n_entities()))));
        out.push(v.id(TokenKind::Attr(draw.random_range(0..v.n_attrs()))));
        out.push(v.id(TokenKind::Value(draw.random_range(0..v.n_values()))));
        out.push(v.id(TokenKind::Sep));
    }
    out.truncate(RAG_CHUNK_LEN);
    out
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn tokens(&mut self, tokens: &[TokenId]) {
        self.word(tokens.len() as u64);
        tokens.iter().for_each(|&t| self.word(u64::from(t)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_hash_different_seed_different_hash() {
        for w in Workload::ALL {
            let a = OpList::generate(w, 7, None).hash(9);
            assert_eq!(a, OpList::generate(w, 7, None).hash(9), "{}", w.name());
            assert_ne!(a, OpList::generate(w, 8, None).hash(9), "{}", w.name());
        }
    }

    #[test]
    fn the_seed_draws_the_traffic_not_the_corpus() {
        for w in Workload::ALL {
            let (a, b) = (OpList::generate(w, 7, None), OpList::generate(w, 8, None));
            assert_eq!(a.universe, b.universe, "{}", w.name());
            assert_eq!(a.cases.len(), b.cases.len());
            assert!(a
                .cases
                .iter()
                .zip(&b.cases)
                .all(|(x, y)| x.query == y.query));
            assert_ne!(a.order, b.order, "{}", w.name());
            // Every block serves the same multiset of cases, whatever the
            // seed: quality_score cannot depend on it.
            let served = |l: &OpList| {
                let mut o = l.order.clone();
                o.sort_unstable();
                o
            };
            assert_eq!(served(&a), served(&b), "{}", w.name());
        }
    }

    #[test]
    fn block_count_follows_seconds_not_the_clock() {
        assert_eq!(measured_blocks(15.0, 15.0), MEASURED_BLOCKS);
        assert_eq!(measured_blocks(7.5, 15.0), 4);
        assert_eq!(measured_blocks(1.0, 15.0), 2);
        assert_eq!(measured_blocks(60.0, 15.0), 32);
    }

    #[test]
    fn every_wave_has_exactly_w_ops() {
        for w in Workload::ALL {
            let list = OpList::generate(w, 7, None);
            let block = list.block(1);
            assert!(!block.is_empty());
            // Only the last wave of a block may be short (block length not
            // a multiple of W); ingest_mix pairs are always whole.
            for wave in &block[..block.len() - 1] {
                assert_eq!(wave.len(), w.wave_width(), "{}", w.name());
            }
            assert!(block.last().unwrap().len() <= w.wave_width());
        }
    }

    #[test]
    fn ingest_chunks_are_fresh_every_block_and_never_queried() {
        let list = OpList::generate(Workload::IngestMix, 7, None);
        let fresh = |b: usize| -> Vec<Vec<TokenId>> {
            list.block(b)
                .into_iter()
                .flatten()
                .filter_map(|op| match op {
                    Op::Register(c) => Some(c),
                    Op::Request(_) => None,
                })
                .collect()
        };
        let (b1, b2) = (fresh(1), fresh(2));
        assert_eq!(b1.len(), list.requests_per_block());
        assert!(b1.iter().all(|c| c.len() == RAG_CHUNK_LEN));
        assert!(b1
            .iter()
            .all(|c| !b2.contains(c) && !list.universe.contains(c)));
        assert_eq!(
            b1,
            fresh(1),
            "a block's chunks are a function of seed and index"
        );
    }

    #[test]
    fn tiered_universe_exceeds_ram_tier() {
        let list = OpList::generate(Workload::RagTiered, 7, None);
        assert!(list.universe.len() > 3 * crate::stack::RAM_ENTRIES);
        let warm = OpList::generate(Workload::RagWarm, 7, None);
        assert!(warm.universe.len() <= crate::stack::RAM_ENTRIES);
    }

    /// `ingest_mix` must be stationary over the measured blocks: the RAM
    /// tier starts spilling during warm-up, and the tier below it does not
    /// fill in a run of the catalogue's length (nor in one a quarter
    /// longer).
    #[test]
    fn ingest_mix_crosses_no_tier_boundary_while_measured() {
        use crate::stack::{RAM_ENTRIES, SSD_ENTRIES};
        let list = OpList::generate(Workload::IngestMix, 7, None);
        let per_block = list.requests_per_block();
        let warmup = Workload::IngestMix.warmup_blocks() * per_block;
        assert!(list.universe.len() + warmup > RAM_ENTRIES);
        let run = warmup + (MEASURED_BLOCKS + 2) * per_block;
        assert!(list.universe.len() + run < RAM_ENTRIES + SSD_ENTRIES);
    }
}
