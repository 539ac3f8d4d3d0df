//! The untraced run: set the stack up, warm it, drive the measured blocks,
//! check every output, and reduce the blocks to the end-to-end metrics.
//! The pieces the traced run shares (deployment, output checks, per-block
//! statistics, host calibration) live here too.

use crate::loadgen::{run_block, BlockOutcome, RequestOutcome, Target};
use crate::oplist::{measured_blocks, OpList, Workload};
use crate::report::{catalogue, Host, Metrics, Report};
use crate::stack::Stack;
use crate::stats::{cv, median, median_of_blocks, percentile_or_zero};
use cb_core::engine::Request;
use cb_core::stream::ResponseStream;
use cb_kv::ChunkId;
use cb_tokenizer::TokenId;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Nominal length of the measured phase, seconds. It fixes the number
    /// of measured blocks before the run starts ([`measured_blocks`]); the
    /// clock never ends a run.
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// Requests in the smoke run's single block.
const SMOKE_REQUESTS: usize = 8;

impl Target for Stack {
    fn submit(&self, request: &Request) -> ResponseStream {
        self.client.submit_stream(request)
    }

    fn register(&self, tokens: &[TokenId]) -> Result<(), String> {
        self.client
            .register_chunk(tokens, true)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// A started stack with the workload's universe registered.
pub struct Deployment {
    pub list: OpList,
    pub stack: Stack,
    /// Chunk ids of `list.universe`, index for index.
    pub ids: Vec<ChunkId>,
    /// Client-observed latency of every set-up registration.
    pub register_ms: Vec<f64>,
    /// Dataset generation + stack start + universe registration.
    pub setup_s: f64,
}

/// A store directory no earlier set-up of this process used.
fn fresh_store_dir(out_dir: &Path) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    out_dir.join(format!(
        "store-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

pub fn deploy(args: &RunArgs) -> Deployment {
    let t0 = Instant::now();
    let list = OpList::generate(
        args.workload,
        args.seed,
        args.smoke.then_some(SMOKE_REQUESTS),
    );
    let stack = Stack::start(args.workload.profile(), &fresh_store_dir(&args.out_dir));
    let mut ids = Vec::with_capacity(list.universe.len());
    let mut register_ms = Vec::with_capacity(list.universe.len());
    for chunk in &list.universe {
        let t = Instant::now();
        let id = stack
            .client
            .register_chunk(chunk, true)
            .expect("set-up registration succeeds");
        register_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ids.push(id);
    }
    Deployment {
        list,
        stack,
        ids,
        register_ms,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

impl Deployment {
    pub fn request(&self, case: usize) -> Request {
        let c = &self.list.cases[case];
        Request::new(
            c.chunks.iter().map(|&i| self.ids[i]).collect(),
            c.query.clone(),
        )
        .max_new_tokens(self.list.workload.max_new_tokens())
        // Counted by the scheduler (`scheduler.deadline_misses`), never
        // enforced: a late request is still served.
        .deadline(Duration::from_secs_f64(
            self.list.workload.slo_ttft_ms() / 1e3,
        ))
    }

    pub fn run_block(&self, block: usize) -> BlockOutcome {
        run_block(&self.stack, &self.list.block(block), &mut |case| {
            self.request(case)
        })
    }

    /// Runs the discarded warm-up blocks (none in a smoke run). They warm
    /// caches, pools and the tiers; their answers still seed the
    /// cross-block identity check. Returns the index of the first measured
    /// block.
    pub fn warm_up(&self, smoke: bool, checker: &mut Checker) -> usize {
        let blocks = if smoke {
            0
        } else {
            self.list.workload.warmup_blocks()
        };
        for block in 0..blocks {
            let warm = self.run_block(block);
            checker.check(&self.list, &format!("warm-up {}", block + 1), &warm);
        }
        checker.start_measuring();
        blocks
    }
}

/// The output check built into every run. A benchmark number from a
/// program that answers differently from block to block is worthless, so
/// any violation fails the run (`correct: false`, non-zero exit).
#[derive(Default)]
pub struct Checker {
    /// First answer seen per case; every later serving must equal it.
    reference: Vec<Option<Vec<TokenId>>>,
    quality: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Checker {
    fn violation(&mut self, what: String) {
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    /// Checks one block and returns its quality score (mean F1 / Rouge-L
    /// of the served answers against gold).
    pub fn check(&mut self, list: &OpList, label: &str, block: &BlockOutcome) -> f64 {
        self.reference.resize(list.cases.len(), None);
        let mut score = 0.0;
        let mut failed_here = 0u64;
        self.attempted += (block.requests.len() + block.registers.len()) as u64;
        for r in &block.requests {
            let served = match &r.result {
                Ok(served) => served,
                Err(e) => {
                    failed_here += 1;
                    self.violation(format!("{label}: request for case {} failed: {e}", r.case));
                    continue;
                }
            };
            if served.answer != r.streamed {
                self.violation(format!(
                    "{label}: case {}: Token events {:?} differ from Done.answer {:?}",
                    r.case, r.streamed, served.answer
                ));
            }
            match &self.reference[r.case] {
                None => self.reference[r.case] = Some(served.answer.clone()),
                Some(first) if *first != served.answer => self.violation(format!(
                    "{label}: case {}: answer {:?} differs from the first serving's {:?}",
                    r.case, served.answer, first
                )),
                Some(_) => {}
            }
            score += list.score(&list.cases[r.case], &served.answer);
        }
        for r in &block.registers {
            if let Err(e) = &r.result {
                failed_here += 1;
                self.violation(format!("{label}: register_chunk failed: {e}"));
            }
        }
        self.failed += failed_here;
        let quality = score / block.requests.len().max(1) as f64;
        match self.quality {
            None => self.quality = Some(quality),
            Some(q) if q != quality => {
                self.violation(format!("{label}: quality_score {quality} differs from {q}"))
            }
            Some(_) => {}
        }
        println!(
            "{label}: requests attempted={} succeeded={} failed={} registrations={} wall={:.3}s",
            block.requests.len(),
            block.requests.iter().filter(|r| r.result.is_ok()).count(),
            failed_here,
            block.registers.len(),
            block.wall_s,
        );
        quality
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Forgets the counts (not the violations or the reference answers):
    /// called after the warm-up block, which is checked but not reported.
    pub fn start_measuring(&mut self) {
        self.attempted = 0;
        self.failed = 0;
    }
}

/// The statistics of one measured block.
#[derive(Clone, Debug)]
pub struct BlockStats {
    pub ttft_p50: f64,
    pub ttft_p90: f64,
    pub e2e_p50: f64,
    pub req_s: f64,
    /// Share of the block's *attempted* requests whose first token came
    /// within the workload's limit; a failed request is a miss.
    pub slo_met: f64,
    pub requests: usize,
}

pub fn served(block: &BlockOutcome) -> impl Iterator<Item = &RequestOutcome> {
    block.requests.iter().filter(|r| r.result.is_ok())
}

pub fn ttfts(block: &BlockOutcome) -> Vec<f64> {
    served(block).filter_map(RequestOutcome::ttft_ms).collect()
}

impl BlockStats {
    pub fn of(block: &BlockOutcome, slo_ttft_ms: f64) -> BlockStats {
        let ttft = ttfts(block);
        let e2e: Vec<f64> = served(block).map(RequestOutcome::e2e_ms).collect();
        let in_time = ttft.iter().filter(|&&t| t <= slo_ttft_ms).count();
        BlockStats {
            ttft_p50: percentile_or_zero(&ttft, 0.5),
            ttft_p90: percentile_or_zero(&ttft, 0.9),
            e2e_p50: percentile_or_zero(&e2e, 0.5),
            req_s: e2e.len() as f64 / block.wall_s,
            slo_met: in_time as f64 / block.requests.len().max(1) as f64,
            requests: block.requests.len(),
        }
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed amount of the harness's own work — a dependent FMA chain, then
/// a streaming pass over 8 MB — timed between blocks. It touches no
/// program code, so when it moves, the host moved.
pub struct Calibrator {
    buf: Vec<f32>,
    pub samples_ms: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            buf: vec![1.0; 2 << 20],
            samples_ms: Vec::new(),
        }
    }
}

impl Calibrator {
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut acc = [1.0f32, 1.1, 1.2, 1.3];
        for _ in 0..500_000 {
            for a in &mut acc {
                *a = a.mul_add(0.999_999, 1e-7);
            }
        }
        let mut carry = std::hint::black_box(acc).iter().sum::<f32>();
        for x in self.buf.iter_mut() {
            carry = carry * 0.5 + *x;
            *x = carry * 1e-3 + 1.0;
        }
        std::hint::black_box(carry);
        self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
}

/// Appends the run's record to `results.jsonl` in the output directory.
pub fn store(report: &Report, out_dir: &Path) {
    use std::io::Write;
    std::fs::create_dir_all(out_dir).expect("create output directory");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir.join("results.jsonl"))
        .expect("open results.jsonl");
    writeln!(f, "{}", report.record_line()).expect("append result");
}

pub fn run_untraced(args: &RunArgs) -> Report {
    let setups = if args.smoke {
        1
    } else {
        args.workload.setups()
    };
    let mut setup_s = Vec::new();
    let mut setup_register_ms = Vec::new();
    let mut deployment: Option<Deployment> = None;
    for _ in 0..setups {
        if let Some(previous) = deployment.take() {
            previous.stack.stop();
        }
        let d = deploy(args);
        setup_s.push(d.setup_s);
        setup_register_ms.extend_from_slice(&d.register_ms);
        deployment = Some(d);
    }
    let d = deployment.expect("at least one set-up");
    let n_blocks = if args.smoke {
        1
    } else {
        measured_blocks(args.seconds, catalogue().run_seconds)
    };
    println!(
        "{}: universe {} chunks, {} cases, {} measured blocks of {} requests in waves of {}, set-up {:?} s",
        args.workload.name(),
        d.list.universe.len(),
        d.list.cases.len(),
        n_blocks,
        d.list.requests_per_block(),
        args.workload.wave_width(),
        setup_s,
    );

    let mut checker = Checker::default();
    let mut calib = Calibrator::default();
    let first = d.warm_up(args.smoke, &mut checker);
    let mut blocks: Vec<BlockOutcome> = Vec::new();
    let mut quality = 0.0;
    for b in 0..n_blocks {
        calib.sample();
        let block = d.run_block(first + b);
        // Every block's quality equals the last one's, or the check failed.
        quality = checker.check(&d.list, &format!("block {}", b + 1), &block);
        blocks.push(block);
    }

    let slo = args.workload.slo_ttft_ms();
    let stats: Vec<BlockStats> = blocks.iter().map(|b| BlockStats::of(b, slo)).collect();
    let requests: usize = stats.iter().map(|s| s.requests).sum();
    // Registrations: the measured phase's on `ingest_mix` (per block, like
    // every other timing), set-up's on the read-only workloads.
    let (register_ms, register_samples) = if args.workload == Workload::IngestMix {
        let per_block = |b: &BlockOutcome| {
            let ms: Vec<f64> = b.registers.iter().map(|r| r.latency_ms()).collect();
            percentile_or_zero(&ms, 0.5)
        };
        (
            median_of_blocks(&blocks, per_block),
            blocks.iter().map(|b| b.registers.len()).sum(),
        )
    } else {
        (median(&setup_register_ms), setup_register_ms.len())
    };
    let succeeded = checker.attempted - checker.failed;

    let mut m = Metrics::default();
    for (name, stat) in [
        ("ttft_p50_ms", (|s| s.ttft_p50) as fn(&BlockStats) -> f64),
        ("ttft_p90_ms", |s| s.ttft_p90),
        ("e2e_p50_ms", |s| s.e2e_p50),
        ("req_s", |s| s.req_s),
    ] {
        m.put(name, median_of_blocks(&stats, stat), requests);
    }
    m.put("register_p50_ms", register_ms, register_samples);
    m.put(
        "success_frac",
        succeeded as f64 / checker.attempted as f64,
        checker.attempted as usize,
    );
    m.put(
        "slo_met_frac",
        median_of_blocks(&stats, |s| s.slo_met),
        requests,
    );
    m.put("quality_score", quality, d.list.requests_per_block());
    m.put("setup_s", median(&setup_s), setup_s.len());
    // The contract line carries every end-to-end metric of the catalogue,
    // in its order, and nothing else.
    let emitted: Vec<&str> = m.0.iter().map(|v| v.name.as_str()).collect();
    let listed: Vec<&str> = catalogue()
        .end_to_end
        .iter()
        .map(|d| d.name.as_str())
        .collect();
    assert_eq!(
        emitted, listed,
        "the untraced run and BENCHMARK.json disagree on the end-to-end metrics"
    );
    // Not end-to-end metrics, but worth a line in every run's output: the
    // run's own noise reading, the host's speed, the memory peak.
    println!(
        "loadgen.block_cv={:.4} (req_s over {n_blocks} blocks)  host.calib_ms_p50={:.3}  host.rss_peak_mb={:.1}",
        cv(&stats.iter().map(|s| s.req_s).collect::<Vec<_>>()),
        median(&calib.samples_ms),
        rss_peak_mb(),
    );
    for v in &checker.violations {
        eprintln!("CHECK FAILED: {v}");
    }
    let report = Report {
        workload: args.workload.name().into(),
        seed: args.seed,
        traced: false,
        comparable: !args.smoke,
        correct: checker.correct(),
        attempted: checker.attempted,
        failed: checker.failed,
        oplist_hash: d.list.hash(first + n_blocks),
        blocks: n_blocks,
        metrics: m,
        host: Host::detect(),
    };
    d.stack.stop();
    report
}
