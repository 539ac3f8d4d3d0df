//! A small persistent thread pool for intra-request parallelism.
//!
//! The kernels in this crate (row-range splits of [`crate::Matrix::matmul_into`])
//! and the per-head attention loop in `cb-model` push closures onto one
//! process-wide [`ThreadPool`] built on a std `Mutex` + `Condvar` queue.
//! Design points:
//!
//! - **Regions and tickets.** Each [`ThreadPool::run`] call is a *region*
//!   that owns its jobs. The caller puts at most `threads - 1` helper
//!   tickets for the region on the shared queue, wakes that many parked
//!   workers, and retracts the tickets no worker popped before it returns,
//!   so the queue holds at most `threads - 1` tickets per in-flight region.
//!   A worker that pops a ticket claims jobs from that ticket's region
//!   only; workers park on the condvar without holding the queue lock.
//! - **Caller participation.** The submitting thread claims and runs its
//!   own region's jobs until none is left unclaimed, then waits on the
//!   region's completion count, so a pool of `n` threads uses `n - 1`
//!   workers plus the caller and a pool of 1 degrades to plain serial
//!   execution. A caller never runs another region's job: a decode step
//!   never picks up a concurrent blend's attention head.
//! - **Scoped borrows.** [`ThreadPool::run`] accepts closures borrowing the
//!   caller's stack and does not return until every one of them has
//!   finished, so the borrows stay valid (the lifetime is erased with one
//!   contained `unsafe` transmute — the completion barrier is what makes
//!   it sound).
//! - **No nesting.** Jobs that themselves reach a parallel region run it
//!   serially (a thread-local flag), so kernels can be called from inside
//!   attention head jobs without deadlock or oversubscription.
//! - **Determinism.** The pool only ever runs *disjoint* work items whose
//!   result layout is fixed by the caller (output row ranges, per-head
//!   buffers); nothing about scheduling order can change the bytes
//!   produced, which is what makes "pool size 1 vs N is bit-identical"
//!   testable at the engine level.
//! - **Panic containment.** A panicking job is caught where it ran, the
//!   barrier still completes, and the panic resumes on the caller.
//!
//! The global pool defaults to the machine's available parallelism;
//! [`set_threads`] reconfigures it (benchmarks pin 1 or 4).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};
use std::thread::JoinHandle;

/// A borrowing job: boxed closure tied to the caller's scope.
pub type Job<'scope> = Box<dyn FnOnce() + Send + 'scope>;

type Task = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Set while this thread is executing a pool job (worker or helping
    /// caller): parallel regions entered under it run serially.
    static IN_POOL_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A persistent pool of `threads - 1` workers plus the calling thread.
pub struct ThreadPool {
    threads: usize,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// The queue workers park on.
struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
}

struct Queue {
    /// Helper tickets: each lets one worker claim jobs of its region.
    tickets: VecDeque<Arc<Region>>,
    /// Set by `Drop`: parked workers exit.
    closed: bool,
}

/// One `run` call's jobs and its completion count.
struct Region {
    state: Mutex<RegionState>,
    done: Condvar,
}

struct RegionState {
    /// Jobs not yet claimed.
    jobs: std::vec::IntoIter<Task>,
    /// Jobs not yet finished (claimed or not).
    left: usize,
    panic: Option<Box<dyn Any + Send>>,
}

/// Locks `m`, ignoring poisoning: no pool lock is held while a job runs,
/// so a poisoned lock still guards consistent state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Region {
    /// Claims and runs this region's jobs until none is left unclaimed;
    /// whoever finishes the last job wakes the waiting caller.
    fn work(&self) {
        let mut state = lock(&self.state);
        while let Some(job) = state.jobs.next() {
            drop(state);
            IN_POOL_JOB.with(|f| f.set(true));
            let outcome = catch_unwind(AssertUnwindSafe(job));
            IN_POOL_JOB.with(|f| f.set(false));
            state = lock(&self.state);
            state.left -= 1;
            if let Err(p) = outcome {
                state.panic.get_or_insert(p);
            }
        }
        if state.left == 0 {
            self.done.notify_one();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ThreadPool({} threads)", self.threads)
    }
}

impl ThreadPool {
    /// Creates a pool that runs jobs on `threads` threads total (the
    /// caller counts as one; `threads - 1` workers are spawned). A value
    /// of 0 is clamped to 1.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tickets: VecDeque::new(),
                closed: false,
            }),
            wake: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cb-pool-{i}"))
                    .spawn(move || {
                        let mut queue = lock(&shared.queue);
                        loop {
                            if let Some(region) = queue.tickets.pop_front() {
                                drop(queue);
                                region.work();
                                queue = lock(&shared.queue);
                            } else if queue.closed {
                                return;
                            } else {
                                queue = shared.wake.wait(queue).unwrap_or_else(|e| e.into_inner());
                            }
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            threads,
            shared,
            workers,
        }
    }

    /// Total threads (workers + caller) this pool runs jobs on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job to completion before returning; the caller runs
    /// its own jobs alongside the workers it wakes. Serial when the pool
    /// has one thread, a single job is given, or the caller is itself a
    /// pool job.
    pub fn run<'scope>(&self, jobs: Vec<Job<'scope>>) {
        let n = jobs.len();
        if self.threads <= 1 || n <= 1 || IN_POOL_JOB.with(|f| f.get()) {
            for job in jobs {
                job();
            }
            return;
        }
        // SAFETY: only the lifetime changes. This call does not return
        // until the region's `left` count reaches zero, i.e. until every
        // job has run and been dropped, so the borrows they capture
        // outlive them. A ticket that outlives the call holds the region's
        // emptied job list, which borrows nothing.
        let jobs: Vec<Task> = unsafe { std::mem::transmute::<Vec<Job<'scope>>, Vec<Task>>(jobs) };
        let region = Arc::new(Region {
            state: Mutex::new(RegionState {
                jobs: jobs.into_iter(),
                left: n,
                panic: None,
            }),
            done: Condvar::new(),
        });
        let helpers = (self.threads - 1).min(n - 1);
        {
            let mut queue = lock(&self.shared.queue);
            queue
                .tickets
                .extend(std::iter::repeat_with(|| Arc::clone(&region)).take(helpers));
        }
        for _ in 0..helpers {
            self.shared.wake.notify_one();
        }
        region.work();
        // Every job is claimed: tickets no worker popped are dead weight.
        lock(&self.shared.queue)
            .tickets
            .retain(|r| !Arc::ptr_eq(r, &region));
        let mut state = lock(&region.state);
        while state.left > 0 {
            state = region.done.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        if let Some(p) = state.panic.take() {
            drop(state);
            resume_unwind(p);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        lock(&self.shared.queue).closed = true;
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

static GLOBAL: OnceLock<RwLock<Arc<ThreadPool>>> = OnceLock::new();

fn global() -> &'static RwLock<Arc<ThreadPool>> {
    GLOBAL.get_or_init(|| RwLock::new(Arc::new(ThreadPool::new(default_threads()))))
}

/// The machine's available parallelism (the global pool's default size).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The process-wide pool used by the kernels. Clones of the `Arc` taken
/// before a [`set_threads`] call keep running on the old pool.
pub fn current() -> Arc<ThreadPool> {
    Arc::clone(&global().read().unwrap_or_else(|e| e.into_inner()))
}

/// Replaces the process-wide pool with one of `threads` threads. In-flight
/// parallel regions finish on the pool they started with; results are
/// bit-identical either way (see the module docs).
pub fn set_threads(threads: usize) {
    let mut guard = global().write().unwrap_or_else(|e| e.into_inner());
    if guard.threads() != threads.max(1) {
        *guard = Arc::new(ThreadPool::new(threads));
    }
}

/// Serializes tests that reconfigure the process-wide pool (both this
/// module's swap test and the matrix kernels' thread-sweep test mutate
/// the global; `cargo test` runs them concurrently).
#[cfg(test)]
pub(crate) static GLOBAL_POOL_TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Yields until `flag` is set or `limit` passes; true if it was set.
    fn await_flag(flag: &AtomicBool, limit: Duration) -> bool {
        let t = Instant::now();
        while !flag.load(Ordering::Acquire) {
            if t.elapsed() > limit {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    fn counting_jobs(counter: &AtomicUsize, n: usize) -> Vec<Job<'_>> {
        (0..n)
            .map(|_| {
                let job: Job<'_> = Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
                job
            })
            .collect()
    }

    #[test]
    fn run_executes_every_job_with_borrows() {
        let pool = ThreadPool::new(4);
        let mut out = vec![0usize; 64];
        {
            let jobs: Vec<Job<'_>> = out
                .chunks_mut(16)
                .enumerate()
                .map(|(i, chunk)| {
                    let job: Job<'_> = Box::new(move || {
                        for (j, v) in chunk.iter_mut().enumerate() {
                            *v = i * 100 + j;
                        }
                    });
                    job
                })
                .collect();
            pool.run(jobs);
        }
        assert_eq!(out[0], 0);
        assert_eq!(out[17], 101);
        assert_eq!(out[63], 315);
    }

    #[test]
    fn single_thread_pool_runs_serially() {
        let pool = ThreadPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.run(counting_jobs(&counter, 8));
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_regions_run_serially_without_deadlock() {
        let pool = ThreadPool::new(3);
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Job<'_>> = (0..4)
            .map(|_| {
                let c = &counter;
                let p = &pool;
                let job: Job<'_> = Box::new(move || {
                    let inner: Vec<Job<'_>> = (0..4)
                        .map(|_| {
                            let c2 = c;
                            let j: Job<'_> = Box::new(move || {
                                c2.fetch_add(1, Ordering::Relaxed);
                            });
                            j
                        })
                        .collect();
                    p.run(inner);
                }) as Job<'_>;
                job
            })
            .collect();
        pool.run(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panicking_job_propagates_after_barrier() {
        let pool = ThreadPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Job<'_>> = (0..4)
                .map(|i| {
                    let f = &finished;
                    let job: Job<'_> = Box::new(move || {
                        if i == 2 {
                            panic!("boom");
                        }
                        f.fetch_add(1, Ordering::Relaxed);
                    });
                    job
                })
                .collect();
            pool.run(jobs);
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(finished.load(Ordering::Relaxed), 3, "others still ran");
        // The pool remains usable afterwards.
        let counter = AtomicUsize::new(0);
        pool.run(counting_jobs(&counter, 3));
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn set_threads_swaps_the_global_pool() {
        let _guard = GLOBAL_POOL_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        set_threads(2);
        assert_eq!(current().threads(), 2);
        set_threads(1);
        assert_eq!(current().threads(), 1);
    }

    #[test]
    fn two_job_regions_run_concurrently() {
        let pool = ThreadPool::new(2);
        let warm = AtomicUsize::new(0);
        pool.run(counting_jobs(&warm, 2));
        let caller = std::thread::current().id();
        let (mut serial, mut callerless) = (0, 0);
        for _ in 0..20 {
            // Long enough for the worker to park between regions.
            std::thread::sleep(Duration::from_millis(2));
            let started = [AtomicBool::new(false), AtomicBool::new(false)];
            let met = [AtomicBool::new(false), AtomicBool::new(false)];
            let ran_on = Mutex::new(Vec::new());
            let jobs: Vec<Job<'_>> = (0..2)
                .map(|i| {
                    let (started, met, ran_on) = (&started, &met, &ran_on);
                    let job: Job<'_> = Box::new(move || {
                        lock(ran_on).push(std::thread::current().id());
                        started[i].store(true, Ordering::Release);
                        let other = await_flag(&started[1 - i], Duration::from_millis(200));
                        met[i].store(other, Ordering::Relaxed);
                    });
                    job
                })
                .collect();
            pool.run(jobs);
            if !met.iter().all(|m| m.load(Ordering::Relaxed)) {
                serial += 1;
            }
            if !ran_on.into_inner().unwrap().contains(&caller) {
                callerless += 1;
            }
        }
        assert_eq!(serial, 0, "{serial} of 20 two-job regions ran serially");
        assert_eq!(
            callerless, 0,
            "the caller ran no job of {callerless} of 20 regions"
        );
    }

    #[test]
    fn callers_never_run_another_callers_jobs() {
        let pool = ThreadPool::new(2);
        // (the region's caller, the thread that ran the job)
        let records: Mutex<Vec<(ThreadId, ThreadId)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let me = std::thread::current().id();
                    for _ in 0..100 {
                        let jobs: Vec<Job<'_>> = (0..4)
                            .map(|_| {
                                let records = &records;
                                let job: Job<'_> = Box::new(move || {
                                    let t = Instant::now();
                                    while t.elapsed() < Duration::from_micros(50) {
                                        std::hint::spin_loop();
                                    }
                                    lock(records).push((me, std::thread::current().id()));
                                });
                                job
                            })
                            .collect();
                        pool.run(jobs);
                    }
                });
            }
        });
        let records = records.into_inner().unwrap();
        assert_eq!(records.len(), 800);
        let callers: HashSet<ThreadId> = records.iter().map(|r| r.0).collect();
        assert_eq!(callers.len(), 2);
        for (caller, ran_on) in &records {
            assert!(
                ran_on == caller || !callers.contains(ran_on),
                "a caller ran another caller's job"
            );
        }
    }

    #[test]
    fn dropping_a_parked_pool_joins_its_workers() {
        let pool = ThreadPool::new(3);
        let counter = AtomicUsize::new(0);
        pool.run(counting_jobs(&counter, 8));
        assert_eq!(counter.load(Ordering::Relaxed), 8);
        assert!(
            lock(&pool.shared.queue).tickets.is_empty(),
            "a finished region left tickets on the queue"
        );
        std::thread::sleep(Duration::from_millis(5)); // the workers park
        let shared = Arc::downgrade(&pool.shared);
        drop(pool);
        assert!(shared.upgrade().is_none(), "a worker outlived the pool");
    }

    #[test]
    fn set_threads_mid_region_finishes_on_the_old_pool() {
        let _guard = GLOBAL_POOL_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        set_threads(2);
        let old = Arc::downgrade(&current());
        let entered = AtomicBool::new(false);
        let swapped = AtomicBool::new(false);
        let mut out = vec![0usize; 8];
        std::thread::scope(|s| {
            let (entered, swapped, out) = (&entered, &swapped, &mut out);
            s.spawn(move || {
                let jobs: Vec<Job<'_>> = out
                    .chunks_mut(2)
                    .enumerate()
                    .map(|(i, chunk)| {
                        let job: Job<'_> = Box::new(move || {
                            entered.store(true, Ordering::Release);
                            assert!(await_flag(swapped, Duration::from_secs(10)));
                            chunk.fill(i + 1);
                        });
                        job
                    })
                    .collect();
                current().run(jobs);
            });
            assert!(await_flag(entered, Duration::from_secs(10)));
            set_threads(3);
            assert_eq!(current().threads(), 3);
            assert!(
                old.upgrade().is_some(),
                "the in-flight region holds the old pool"
            );
            swapped.store(true, Ordering::Release);
        });
        assert_eq!(out, [1, 1, 2, 2, 3, 3, 4, 4]);
        set_threads(1);
    }
}
