//! The load generator: a closed loop of barrier waves.
//!
//! A wave submits its W ops back to back, then waits for all W terminal
//! events before the next wave starts (W callers that each wait for a
//! reply; W = 1 is sequential). A free-running closed loop phase-locks on
//! a 2-vCPU host and lands per-run TTFT medians in one of two modes 25 %
//! apart; re-aligning the callers every wave removes that mode switch.
//!
//! Threads: the calling thread multiplexes every request stream of a wave
//! with `ResponseStream::try_recv` and sleeps of at most 100 us when idle
//! (it never spins); one helper thread issues the blocking
//! `register_chunk` RPCs of `ingest_mix`. That is the whole generator —
//! at most two threads, one connection.
//!
//! All latencies are client-observed: from just before the submit call to
//! the moment the event is taken off the stream.

use crate::oplist::{Op, Wave};
use cb_core::engine::{ChunkSource, Request, TtftBreakdown};
use cb_core::stream::{Event, ResponseStream};
use cb_tokenizer::TokenId;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What the load generator drives. `Stack` implements it over the wire;
/// the unit tests substitute a fake that checks the wave discipline.
pub trait Target: Sync {
    fn submit(&self, request: &Request) -> ResponseStream;
    fn register(&self, tokens: &[TokenId]) -> Result<(), String>;
}

/// The parts of a `Response` the benchmark reads (the blended KV cache a
/// `Done` event carries is dropped as soon as the event is seen).
#[derive(Clone, Debug)]
pub struct Served {
    pub answer: Vec<TokenId>,
    pub ttft: TtftBreakdown,
    pub recompute_ratio: f32,
    pub recomputed_tokens: f64,
    pub chunk_sources: Vec<ChunkSource>,
}

/// One request as the client saw it. Times are `cb_obs::now_nanos()`
/// readings (the span clock), so they can be written into the trace.
#[derive(Clone, Debug)]
pub struct RequestOutcome {
    pub case: usize,
    pub trace: u64,
    pub root_span: u64,
    pub submit_ns: u64,
    pub queued_ns: Option<u64>,
    pub admitted_ns: Option<u64>,
    pub first_token_ns: Option<u64>,
    pub end_ns: u64,
    /// Answer tokens as streamed by `Event::Token`.
    pub streamed: Vec<TokenId>,
    pub result: Result<Served, String>,
}

impl RequestOutcome {
    pub fn ttft_ms(&self) -> Option<f64> {
        self.first_token_ns.map(|t| ms(t - self.submit_ns))
    }

    pub fn e2e_ms(&self) -> f64 {
        ms(self.end_ns - self.submit_ns)
    }
}

#[derive(Clone, Debug)]
pub struct RegisterOutcome {
    pub start_ns: u64,
    pub end_ns: u64,
    pub result: Result<(), String>,
}

impl RegisterOutcome {
    pub fn latency_ms(&self) -> f64 {
        ms(self.end_ns - self.start_ns)
    }
}

#[derive(Clone, Debug, Default)]
pub struct BlockOutcome {
    pub wall_s: f64,
    pub requests: Vec<RequestOutcome>,
    pub registers: Vec<RegisterOutcome>,
    /// Per wave: first submit call to last submit call returning.
    pub submit_skew_us: Vec<f64>,
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

const IDLE_SLEEP: Duration = Duration::from_micros(100);
/// A wave whose request streams are still open after this long is given
/// up, and the block with it: a stream that never delivers a terminal
/// event (service hung) would otherwise never end it. Registrations need
/// no timeout of their own: the client's RPC timeout ends them.
const WAVE_TIMEOUT: Duration = Duration::from_secs(30);

struct Pending {
    stream: ResponseStream,
    outcome: RequestOutcome,
    done: bool,
}

/// Issues `waves` against `target`. `build` turns a case index into the
/// request to send (the traced run tags requests there).
pub fn run_block(
    target: &dyn Target,
    waves: &[Wave],
    build: &mut dyn FnMut(usize) -> Request,
) -> BlockOutcome {
    drive(target, waves, build, WAVE_TIMEOUT)
}

fn unserved(case: usize, now: u64, why: &str) -> RequestOutcome {
    RequestOutcome {
        case,
        trace: 0,
        root_span: 0,
        submit_ns: now,
        queued_ns: None,
        admitted_ns: None,
        first_token_ns: None,
        end_ns: now,
        streamed: Vec::new(),
        result: Err(why.into()),
    }
}

fn drive(
    target: &dyn Target,
    waves: &[Wave],
    build: &mut dyn FnMut(usize) -> Request,
    wave_timeout: Duration,
) -> BlockOutcome {
    let mut out = BlockOutcome::default();
    let has_registers = waves
        .iter()
        .flatten()
        .any(|op| matches!(op, Op::Register(_)));
    let t0 = cb_obs::now_nanos();
    std::thread::scope(|scope| {
        // The one helper thread: registers the chunks it is sent, one
        // after the other, and reports each outcome.
        let (job_tx, job_rx) = mpsc::channel::<Vec<TokenId>>();
        let (res_tx, res_rx) = mpsc::channel::<RegisterOutcome>();
        if has_registers {
            scope.spawn(move || {
                for tokens in job_rx {
                    let start_ns = cb_obs::now_nanos();
                    let result = target.register(&tokens);
                    let done = RegisterOutcome {
                        start_ns,
                        end_ns: cb_obs::now_nanos(),
                        result,
                    };
                    if res_tx.send(done).is_err() {
                        return;
                    }
                }
            });
        }
        let mut waves = waves.iter();
        for wave in waves.by_ref() {
            let mut pending: Vec<Pending> = Vec::with_capacity(wave.len());
            let mut registers_due = 0usize;
            let first_submit = cb_obs::now_nanos();
            for op in wave {
                match op {
                    Op::Request(case) => {
                        let request = build(*case);
                        let submit_ns = cb_obs::now_nanos();
                        let stream = target.submit(&request);
                        pending.push(Pending {
                            stream,
                            outcome: RequestOutcome {
                                trace: request.trace,
                                root_span: request.trace_parent,
                                ..unserved(
                                    *case,
                                    submit_ns,
                                    "no terminal event: stream closed, or the wave timed out",
                                )
                            },
                            done: false,
                        });
                    }
                    Op::Register(chunk) => {
                        registers_due += 1;
                        job_tx.send(chunk.clone()).expect("register helper alive");
                    }
                }
            }
            out.submit_skew_us
                .push((cb_obs::now_nanos() - first_submit) as f64 / 1e3);

            // The barrier: every op of the wave reaches its terminal event.
            // Every registration due was sent in this wave and the helper
            // reports each exactly once, so the count cannot underflow.
            let mut open = pending.len();
            let wave_start = Instant::now();
            let mut timed_out = false;
            while open > 0 || registers_due > 0 {
                let mut progressed = false;
                for p in pending.iter_mut().filter(|p| !p.done) {
                    while let Some(event) = p.stream.try_recv() {
                        progressed = true;
                        if absorb(&mut p.outcome, event) {
                            p.done = true;
                            open -= 1;
                            break;
                        }
                    }
                }
                while let Ok(done) = res_rx.try_recv() {
                    progressed = true;
                    registers_due -= 1;
                    out.registers.push(done);
                }
                if open > 0 && wave_start.elapsed() > wave_timeout {
                    // Streams still open keep the error they were created
                    // with; registrations are still waited for.
                    timed_out = true;
                    open = 0;
                }
                if !progressed {
                    std::thread::sleep(IDLE_SLEEP);
                }
            }
            let wave_end = cb_obs::now_nanos();
            out.requests.extend(pending.into_iter().map(|mut p| {
                if !p.done {
                    p.outcome.end_ns = wave_end;
                }
                p.outcome
            }));
            if timed_out {
                break;
            }
        }
        // Only after a time-out is anything left: the block is abandoned
        // and its remaining ops count as attempted and failed, unissued.
        let now = cb_obs::now_nanos();
        for op in waves.flatten() {
            let why = "not issued: an earlier wave of the block timed out";
            match op {
                Op::Request(case) => out.requests.push(unserved(*case, now, why)),
                Op::Register(_) => out.registers.push(RegisterOutcome {
                    start_ns: now,
                    end_ns: now,
                    result: Err(why.into()),
                }),
            }
        }
        drop(job_tx);
    });
    out.wall_s = (cb_obs::now_nanos() - t0) as f64 / 1e9;
    out
}

/// Folds one stream event into the outcome; true on the terminal event.
fn absorb(o: &mut RequestOutcome, event: Event) -> bool {
    let now = cb_obs::now_nanos();
    match event {
        Event::Queued => o.queued_ns = Some(now),
        Event::Admitted => o.admitted_ns = Some(now),
        Event::FirstToken(_) => o.first_token_ns = Some(now),
        Event::Token(t) => o.streamed.push(t),
        Event::Done(response) => {
            o.end_ns = now;
            o.result = Ok(Served {
                recomputed_tokens: response
                    .blend
                    .stats
                    .selected_per_layer
                    .iter()
                    .sum::<usize>() as f64
                    / response.blend.stats.selected_per_layer.len().max(1) as f64,
                answer: response.answer,
                ttft: response.ttft,
                recompute_ratio: response.recompute_ratio,
                chunk_sources: response.chunk_sources,
            });
            return true;
        }
        Event::Failed(e) => {
            o.end_ns = now;
            o.result = Err(e.to_string());
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oplist::{OpList, Workload};
    use cb_core::engine::Response;
    use cb_core::fusor::{BlendResult, BlendStats};
    use cb_model::KvCache;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    fn response(answer: Vec<TokenId>) -> Response {
        Response {
            answer,
            blend: BlendResult {
                cache: KvCache::empty(0, 0),
                last_residual: Vec::new(),
                stats: BlendStats {
                    ctx_len: 0,
                    suffix_len: 0,
                    selected_per_layer: vec![3, 1],
                    first_layer_deviations: Vec::new(),
                },
                trace: None,
            },
            ttft: TtftBreakdown::default(),
            recompute_ratio: 0.15,
            chunk_sources: Vec::new(),
        }
    }

    /// Completes requests only once a whole wave is outstanding: a
    /// scheduler that waited after fewer than `w` submits would hang, one
    /// that submitted more than `w` before its barrier trips the assert.
    struct WaveChecker {
        w: usize,
        held: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
        waves_released: AtomicUsize,
        registered: AtomicUsize,
        threads: Mutex<HashSet<ThreadId>>,
    }

    impl WaveChecker {
        fn new(w: usize) -> Self {
            WaveChecker {
                w,
                held: Mutex::new(Vec::new()),
                waves_released: AtomicUsize::new(0),
                registered: AtomicUsize::new(0),
                threads: Mutex::new(HashSet::new()),
            }
        }
    }

    impl Target for WaveChecker {
        fn submit(&self, request: &Request) -> ResponseStream {
            self.threads
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            let (tx, stream) = ResponseStream::channel();
            let token = request.query[0];
            let mut held = self.held.lock().unwrap();
            held.push(Box::new(move || {
                for event in [
                    Event::Queued,
                    Event::Admitted,
                    Event::FirstToken(TtftBreakdown::default()),
                    Event::Token(token),
                    Event::Done(response(vec![token])),
                ] {
                    tx.send(event).unwrap();
                }
            }));
            assert!(held.len() <= self.w, "more than W requests in flight");
            if held.len() == self.w {
                self.waves_released.fetch_add(1, Ordering::SeqCst);
                held.drain(..).for_each(|complete| complete());
            }
            stream
        }

        fn register(&self, _tokens: &[TokenId]) -> Result<(), String> {
            self.threads
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            self.registered.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    #[test]
    fn issues_exactly_w_ops_per_wave_on_at_most_two_threads() {
        // 48 requests at W = 8: six whole waves.
        let waves: Vec<Wave> = (0..48)
            .collect::<Vec<usize>>()
            .chunks(8)
            .map(|w| w.iter().map(|&c| Op::Request(c)).collect())
            .collect();
        let target = WaveChecker::new(8);
        let out = run_block(&target, &waves, &mut |case| {
            Request::new(Vec::new(), vec![case as TokenId])
        });
        assert_eq!(target.waves_released.load(Ordering::SeqCst), 6);
        assert_eq!(out.requests.len(), 48);
        assert_eq!(out.submit_skew_us.len(), 6);
        for (i, r) in out.requests.iter().enumerate() {
            assert_eq!(r.case, i);
            let served = r.result.as_ref().expect("served");
            assert_eq!(served.answer, r.streamed);
            assert_eq!(served.recomputed_tokens, 2.0);
            assert!(r.queued_ns.is_some() && r.admitted_ns.is_some());
            assert!(r.first_token_ns.unwrap() >= r.submit_ns && r.end_ns >= r.submit_ns);
        }
        // Waves do not overlap: wave n+1 is submitted after wave n ended.
        for pair in out.requests.chunks(8).collect::<Vec<_>>().windows(2) {
            let end = pair[0].iter().map(|r| r.end_ns).max().unwrap();
            assert!(pair[1].iter().all(|r| r.submit_ns >= end));
        }
        assert_eq!(target.threads.lock().unwrap().len(), 1);
    }

    /// Serves the first `serve` requests and leaves every later stream
    /// open without ever sending on it.
    struct Stalls {
        serve: usize,
        submitted: AtomicUsize,
        parked: Mutex<Vec<Box<dyn Send>>>,
    }

    impl Target for Stalls {
        fn submit(&self, request: &Request) -> ResponseStream {
            let (tx, stream) = ResponseStream::channel();
            if self.submitted.fetch_add(1, Ordering::SeqCst) < self.serve {
                tx.send(Event::Done(response(request.query.clone())))
                    .unwrap();
            } else {
                self.parked.lock().unwrap().push(Box::new(tx));
            }
            stream
        }

        fn register(&self, _tokens: &[TokenId]) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn a_timed_out_wave_abandons_the_block_and_fails_every_remaining_op() {
        // Five ingest waves (one request + one registration each); the
        // third request never ends.
        let list = OpList::generate(Workload::IngestMix, 7, Some(5));
        let target = Stalls {
            serve: 2,
            submitted: AtomicUsize::new(0),
            parked: Mutex::new(Vec::new()),
        };
        let out = drive(
            &target,
            &list.block(1),
            &mut |case| Request::new(Vec::new(), vec![case as TokenId]),
            Duration::from_millis(20),
        );
        // Every op of the block is accounted for exactly once.
        assert_eq!(out.requests.len(), 5);
        assert_eq!(out.registers.len(), 5);
        assert_eq!(out.requests.iter().filter(|r| r.result.is_ok()).count(), 2);
        // Waves 1-3 registered; waves 4 and 5 were never issued.
        assert_eq!(out.registers.iter().filter(|r| r.result.is_ok()).count(), 3);
        assert_eq!(target.submitted.load(Ordering::SeqCst), 3);
        assert!(out.requests[2..].iter().all(|r| r.result.is_err()));
    }

    #[test]
    fn ingest_waves_pair_one_request_with_one_registration() {
        let list = OpList::generate(Workload::IngestMix, 7, Some(5));
        let target = WaveChecker::new(1);
        let out = run_block(&target, &list.block(1), &mut |case| {
            Request::new(Vec::new(), vec![case as TokenId])
        });
        assert_eq!(out.requests.len(), 5);
        assert_eq!(out.registers.len(), 5);
        assert_eq!(target.registered.load(Ordering::SeqCst), 5);
        assert!(out.registers.iter().all(|r| r.result.is_ok()));
        // The submitting thread plus the one register helper.
        assert_eq!(target.threads.lock().unwrap().len(), 2);
        assert!(target.threads.lock().unwrap().len() <= crate::stack::nproc().max(2));
    }
}
