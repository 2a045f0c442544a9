//! The persistent worker pool: engine-lifetime threads replacing the
//! per-call `std::thread::scope` spawning in
//! `llmnpu_tensor::kernel::parallel`.
//!
//! # Design
//!
//! A [`WorkerPool`] owns `workers - 1` parked OS threads plus the
//! calling thread, for `workers` total lanes. Work arrives as batches of
//! [`Job`]s and is **deterministically partitioned**: job `i` always
//! runs on lane `i % workers` (the last lane is the submitting thread),
//! so repeated forward passes send the same band of the same GEMM to the
//! same worker — which keeps that worker's thread-local A-panel scratch
//! arena exactly warm. Numeric results never depend on the assignment
//! (band contents are assignment-invariant); determinism here is purely
//! a cache/allocation property.
//!
//! Two dispatch modes share the broadcast machinery:
//!
//! * [`WorkerPool::run_jobs`] (the [`ParallelBackend`] impl) is the
//!   fork-join mode for GEMM bands: non-blocking jobs, any count. When
//!   the pool cannot take a batch (nested submission, a worker thread
//!   itself, or a concurrent batch in flight) the jobs run inline on the
//!   caller — correct because band results are placement-invariant.
//! * [`WorkerPool::run_concurrent`] is the lane mode for the DAG
//!   executor: each job is a *lane loop* that may block waiting for
//!   tasks, so it must be guaranteed its own thread. The call returns
//!   `false` (running nothing) when that guarantee cannot be given, and
//!   the executor runs its one lane loop over every lane on the caller.
//!
//! Workers install `InlineBackend` on themselves at startup, so a GEMM
//! issued from a pool thread never re-enters the broadcast.
//!
//! # Lending: an idle lane runs a busy lane's kernel bands
//!
//! In lane mode the lanes are the threads, and a lane with no
//! dependency-ready task would otherwise sit out the run — on a decode
//! wave the NPU lane has nothing to do while the CPU lane runs every
//! step. So for the length of its lane loop each lane thread runs under
//! a *lending* backend ([`WorkerPool::run_concurrent`] installs it when
//! there are two or more lanes) whose worker count is the lane count: a
//! kernel call on a busy lane splits its output into that many bands and
//! *posts* them as a loan. The lender claims bands itself; an idle lane
//! waiting in `WorkerPool::lane_idle` — the lane loop's one wait
//! point, for a ready task and a posted band alike — claims the rest,
//! one band at a time, re-checking for a task of its own between bands.
//! A band is claimed exactly once (under the board lock), so whichever
//! lane runs it, the output is bit-identical; a lane still runs at most
//! one *task* at a time (Equation 4), and a lent band is not a task. One
//! loan is posted at a time; a kernel call that finds the board taken
//! (both lanes busy) runs its bands inline, which streams each weight
//! once because the kernels band by output columns.
//!
//! An idle lane spins for `LEND_SPIN` (200 µs) before it parks, yielding its
//! core on every turn: a decode step issues about thirty kernel calls a
//! few tens of microseconds apart, and a spin hand-off is far cheaper
//! than a futex round trip per call. A parked lane is woken by a post,
//! by `WorkerPool::signal_lanes` (the dispatcher's state changed), or
//! by its timeout (a release time).
//!
//! # Why the one `unsafe` impl
//!
//! Jobs borrow the caller's stack (`&mut` output bands), so their
//! lifetime is shorter than the worker threads'. The pool erases that
//! lifetime by passing a raw pointer to the job slice (`JobsPtr`), and
//! one function dereferences it. Soundness rests on two invariants,
//! both local to this module, and both broadcasts and loans keep them:
//! (1) the submitting thread does not return until every job it handed
//! out has been run — a broadcast waits for every worker's check-in, a
//! lender for every claimed band to settle — so the borrow outlives
//! every access; and (2) no two threads touch the same job — in a
//! broadcast lane `l` takes only indices `i ≡ l (mod workers)`, in a
//! loan each index is claimed once under the board lock. This is the
//! same argument every scoped-pool implementation (rayon, crossbeam)
//! makes; the rest of the crate stays `unsafe`-free and the compiler
//! enforces it (`#![deny(unsafe_code)]` with a scoped allow here).

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use llmnpu_obs::metrics::Counter;
use llmnpu_obs::MetricsRegistry;
use llmnpu_tensor::kernel::parallel::{self, InlineBackend, Job, ParallelBackend};

thread_local! {
    /// Set on pool worker threads: nested dispatch from a worker always
    /// runs inline (the worker *is* the parallelism).
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the current thread is a pool worker.
#[must_use]
pub fn on_pool_worker() -> bool {
    IN_POOL_WORKER.with(std::cell::Cell::get)
}

/// How long an idle lane spins, polling for a posted loan or a signal,
/// before it parks ([`WorkerPool::lane_idle`]).
pub(crate) const LEND_SPIN: Duration = Duration::from_micros(200);

/// A lifetime-erased view of a submitted job slice — a broadcast's or a
/// loan's.
///
/// Safety: see the module docs — the submitter blocks until every job
/// it handed out has run, and each job index reaches one thread.
struct JobsPtr {
    ptr: *mut Job<'static>,
    len: usize,
}

// SAFETY: `JobsPtr` erases the borrow of the `&mut [Job<'run>]` slice a
// `broadcast` call publishes or a lender posts as a loan, so sending it
// to other threads is sound only under the module's two invariants:
//
//   1. Jobs outlive the batch — the submitting thread blocks in
//      `broadcast` until `done_workers` reports every spawned worker
//      checked in for this epoch, and a lender blocks in
//      `LaneLender::run_jobs` until every claimed band has settled, so
//      the pointed-to slice (borrowed from the submitter's stack) is
//      live for every dereference. The pointer is additionally cleared
//      (`jobs: None`, the loan taken off the board) before the call
//      returns, so no thread can observe it after the borrow ends.
//   2. Accesses are disjoint — in a broadcast lane `l` touches only
//      indices `i ≡ l (mod workers)`; in a loan an index is handed out
//      once, by the board's claim counter under its lock. No two
//      threads alias a `Job`.
//
// The regression tests `jobs_outlive_the_batch` and
// `loans_outlive_their_bands` pin invariant 1: every borrowed slot is
// observably written the moment the call returns.
unsafe impl Send for JobsPtr {}

/// A band batch a busy lane posted for idle lanes to help with. Lives
/// on `Shared::loans`; every field changes under that lock only.
struct Loan {
    jobs: JobsPtr,
    /// Next unclaimed index. Claims only ever advance it, under the
    /// board lock, so each index is handed to one thread.
    next: usize,
    /// Claimed bands whose job has returned (or panicked).
    settled: usize,
    /// Bands that ran on a lane other than the lender.
    lent: usize,
    /// A band panicked on a helping lane; the lender re-raises it.
    helper_panicked: bool,
}

/// A band a thread has just run, handed back to the board.
#[derive(Clone, Copy)]
struct Ran {
    /// Run by a helping lane rather than the lender.
    helper: bool,
    panicked: bool,
}

/// What [`WorkerPool::lane_idle`] did before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneIdle {
    /// Ran one band of another lane's kernel call, over this interval.
    Lent {
        /// When the band started.
        start: Instant,
        /// When it returned.
        end: Instant,
    },
    /// A post or a signal arrived before the lane parked.
    Signalled,
    /// The spin window ran out and the lane parked until a post, a
    /// signal or the timeout.
    Parked,
}

/// Per-batch broadcast state. Guarded by `Shared::batch`; every field is
/// plain slab state that `broadcast` fully resets when it publishes a new
/// epoch, so a poisoned guard is always recovered via
/// [`PoisonError::into_inner`] — there is no cross-batch invariant a
/// panicking holder could have torn.
struct Batch {
    /// Monotonically increasing batch id; workers run each id once.
    epoch: u64,
    jobs: Option<JobsPtr>,
    /// Spawned workers that have finished their lane for this epoch.
    done_workers: usize,
    /// Set (under the batch lock, at check-in) when a job panicked on a
    /// worker during *this* epoch; the submitting thread re-raises after
    /// the batch completes (a silently swallowed panic would hide kernel
    /// assertion failures). Living inside `Batch` — reset when each
    /// epoch is published, written in the same critical section as the
    /// worker's check-in — makes it per-batch by construction: a late
    /// store from batch N can never leak into batch N + 1.
    worker_panicked: bool,
}

struct Shared {
    batch: Mutex<Batch>,
    work: Condvar,
    done: Condvar,
    shutdown: AtomicBool,
    /// The lending board: at most one posted loan. Never held while a
    /// job runs, so a panicking band cannot poison it.
    loans: Mutex<Option<Loan>>,
    /// Parked idle lanes wait here for a post or a signal.
    idle: Condvar,
    /// A lender waits here for its helpers' last band.
    settled: Condvar,
    /// Unclaimed bands of the posted loan: what a spinning lane polls.
    open_bands: AtomicUsize,
    /// Bumped by [`WorkerPool::signal_lanes`].
    signals: AtomicU64,
    /// Lanes parked on `idle`.
    parked: AtomicUsize,
    /// Fast flag for the metering slot below: the hot paths pay one
    /// relaxed load when no registry is installed.
    metered: AtomicBool,
    meters: Mutex<Option<PoolMeters>>,
}

impl Shared {
    /// Runs `f` against the installed meters, if any.
    fn meter(&self, f: impl FnOnce(&PoolMeters)) {
        if !self.metered.load(Ordering::Acquire) {
            return;
        }
        if let Some(m) = self
            .meters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            f(m);
        }
    }

    /// Settles the band this thread just ran (if any) and, when `claim`
    /// is set, claims the posted loan's next band: `(slice, len, index)`.
    /// One lock per band.
    fn band(&self, ran: Option<Ran>, claim: bool) -> Option<(*mut Job<'static>, usize, usize)> {
        let mut board = lock_loans(&self.loans);
        let loan = board.as_mut()?;
        let len = loan.jobs.len;
        if let Some(ran) = ran {
            debug_assert!(loan.settled < loan.next, "a band settles only once claimed");
            loan.settled += 1;
            if ran.helper {
                loan.lent += 1;
                loan.helper_panicked |= ran.panicked;
            }
            if loan.settled == len {
                self.settled.notify_all();
            }
        }
        if !claim || loan.next == len {
            return None;
        }
        let i = loan.next;
        loan.next += 1;
        debug_assert!(loan.next <= len, "the claim counter never passes the slice");
        self.open_bands.store(len - loan.next, Ordering::Release);
        Some((loan.jobs.ptr, len, i))
    }
}

/// Locks the lending board, recovering from poisoning: no job runs
/// under it, and every field is rewritten per loan.
fn lock_loans(m: &Mutex<Option<Loan>>) -> std::sync::MutexGuard<'_, Option<Loan>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cached counter handles for the pool's dispatch metrics — interned
/// once at [`WorkerPool::install_metrics`] so the hot submission paths
/// never do a registry name lookup.
struct PoolMeters {
    /// Lane-mode batches accepted by [`WorkerPool::run_concurrent`].
    lane_batches: Arc<Counter>,
    /// Jobs carried by those batches.
    lane_jobs: Arc<Counter>,
    /// Fork-join kernel batches broadcast to the workers.
    kernel_batches: Arc<Counter>,
    /// Kernel jobs that ran inline (pool busy, nested, or single-job).
    kernel_jobs_inline: Arc<Counter>,
    /// Loans at least one band of which ran on a helping lane.
    lent_batches: Arc<Counter>,
}

/// A persistent, deterministically-partitioned worker pool.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Serializes broadcasts; `try_lock` failure means "pool busy" and
    /// the submission degrades gracefully (inline / `false`).
    submit: Mutex<()>,
    /// Total lanes, spawned threads plus the submitting thread.
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("spawned", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `workers` total lanes (`workers - 1` spawned
    /// threads; the submitting thread is the last lane). `workers = 1`
    /// spawns nothing and runs everything inline.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            batch: Mutex::new(Batch {
                epoch: 0,
                jobs: None,
                done_workers: 0,
                worker_panicked: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            shutdown: AtomicBool::new(false),
            loans: Mutex::new(None),
            idle: Condvar::new(),
            settled: Condvar::new(),
            open_bands: AtomicUsize::new(0),
            signals: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            metered: AtomicBool::new(false),
            meters: Mutex::new(None),
        });
        let handles = (0..workers - 1)
            .map(|lane| {
                // Pool construction is the only spawn site; forwards
                // against a live pool spawn nothing (counter-pinned).
                parallel::note_thread_spawn();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("llmnpu-pool-{lane}"))
                    .spawn(move || worker_loop(&shared, lane, workers))
                    // lint: allow(panic) — construction-time only; a host that cannot spawn threads cannot serve
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            submit: Mutex::new(()),
            workers,
            handles,
        }
    }

    /// Wires the pool's dispatch counters (`pool.lane_batches`,
    /// `pool.lane_jobs`, `pool.kernel_batches`,
    /// `pool.kernel_jobs_inline`, `pool.lent_batches`) into `registry`.
    /// Counter handles are interned once here; until this is called the
    /// metering sites cost one relaxed atomic load each.
    pub fn install_metrics(&self, registry: &MetricsRegistry) {
        let meters = PoolMeters {
            lane_batches: registry.counter("pool.lane_batches"),
            lane_jobs: registry.counter("pool.lane_jobs"),
            kernel_batches: registry.counter("pool.kernel_batches"),
            kernel_jobs_inline: registry.counter("pool.kernel_jobs_inline"),
            lent_batches: registry.counter("pool.lent_batches"),
        };
        *self
            .shared
            .meters
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(meters);
        self.shared.metered.store(true, Ordering::Release);
    }

    /// Runs `f` against the installed meters, if any.
    fn meter(&self, f: impl FnOnce(&PoolMeters)) {
        self.shared.meter(f);
    }

    /// Pool size from the `LLMNPU_POOL_WORKERS` environment variable,
    /// falling back to `default`. The CI matrix uses this to force
    /// multi-worker execution on any host.
    #[must_use]
    pub fn env_workers(default: usize) -> usize {
        std::env::var("LLMNPU_POOL_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or(default)
    }

    /// Total lanes (spawned threads + the submitting thread).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Installs this pool as the current thread's kernel parallel
    /// backend for the duration of `f` — every GEMM band dispatched on
    /// this thread then runs on the pool with zero thread spawns.
    pub fn install_scope<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        let backend: Arc<dyn ParallelBackend> = Arc::clone(self) as Arc<dyn ParallelBackend>;
        parallel::with_backend(backend, f)
    }

    /// Runs `jobs` with each job guaranteed **its own thread** for the
    /// whole batch (lane mode, for job bodies that block on each other).
    /// Returns `false` without running anything when that guarantee is
    /// unavailable: more jobs than lanes, called from a pool worker, or
    /// a batch already in flight.
    pub fn run_concurrent(&self, jobs: &mut [Job<'_>]) -> bool {
        if jobs.len() > self.workers || on_pool_worker() {
            return false;
        }
        if jobs.len() <= 1 {
            // A single blocking lane needs no concurrency guarantee.
            for job in jobs.iter_mut() {
                job.run();
            }
            self.meter(|m| {
                m.lane_batches.inc();
                m.lane_jobs.add(jobs.len() as u64);
            });
            return true;
        }
        let guard = match self.submit.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => return false,
            // A propagated job panic unwound through `broadcast` and
            // poisoned the lock; the `()` payload guards no invariants
            // (batch state is reset at every broadcast), so recover —
            // treating poison as permanent would silently demote every
            // later batch for the pool's whole lifetime.
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
        };
        // Every lane loop runs under the lending backend (module docs).
        let lender: Arc<dyn ParallelBackend> = Arc::new(LaneLender {
            shared: Arc::clone(&self.shared),
            lanes: jobs.len(),
        });
        let mut lanes: Vec<Job<'_>> = jobs
            .iter_mut()
            .map(|job| {
                let lender = Arc::clone(&lender);
                Job::new(move || parallel::with_backend(lender, || job.run()))
            })
            .collect();
        self.broadcast(&mut lanes);
        drop(lanes);
        drop(guard);
        self.meter(|m| {
            m.lane_batches.inc();
            m.lane_jobs.add(jobs.len() as u64);
        });
        true
    }

    /// The signal count a lane reads *before* it checks for a task of its
    /// own, and hands to [`WorkerPool::lane_idle`] when it found none: a
    /// [`WorkerPool::signal_lanes`] in between then cannot be missed.
    #[must_use]
    pub(crate) fn lane_signals(&self) -> u64 {
        self.shared.signals.load(Ordering::SeqCst)
    }

    /// Tells idle lanes the dispatcher's state changed (a task settled,
    /// a gate fired, the run ended): spinning lanes return
    /// [`LaneIdle::Signalled`], parked ones wake.
    pub(crate) fn signal_lanes(&self) {
        let sh = &self.shared;
        sh.signals.fetch_add(1, Ordering::SeqCst);
        // A parker counts itself in `parked` before it re-reads `signals`,
        // both SeqCst: either it sees this bump, or this load sees it
        // parked — and it holds the board lock until it waits, so the
        // notify below cannot slip in before the wait.
        if sh.parked.load(Ordering::SeqCst) > 0 {
            drop(lock_loans(&sh.loans));
            sh.idle.notify_all();
        }
    }

    /// The lane loop's one wait point, for a lane with no ready task.
    /// Spins for at most [`LEND_SPIN`] (and at most `timeout`), yielding
    /// its core each turn, and returns as soon as it has run one band of
    /// a posted loan or seen a signal newer than `seen`
    /// ([`WorkerPool::lane_signals`]); then parks until a post, a
    /// signal, or `timeout` (`None`: no timeout).
    pub(crate) fn lane_idle(&self, seen: u64, timeout: Option<Duration>) -> LaneIdle {
        let sh = &self.shared;
        let begun = Instant::now();
        let spin_until = begun + timeout.map_or(LEND_SPIN, |t| t.min(LEND_SPIN));
        loop {
            if sh.open_bands.load(Ordering::Acquire) > 0 {
                if let Some(lent) = self.help() {
                    return lent;
                }
            }
            if sh.signals.load(Ordering::SeqCst) != seen {
                return LaneIdle::Signalled;
            }
            if Instant::now() >= spin_until {
                break;
            }
            std::thread::yield_now();
        }
        let board = lock_loans(&sh.loans);
        sh.parked.fetch_add(1, Ordering::SeqCst);
        let woken =
            sh.open_bands.load(Ordering::Acquire) > 0 || sh.signals.load(Ordering::SeqCst) != seen;
        let idle = if woken {
            drop(board);
            LaneIdle::Signalled
        } else {
            let board = match timeout {
                Some(t) => {
                    sh.idle
                        .wait_timeout(board, t.saturating_sub(begun.elapsed()))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => sh.idle.wait(board).unwrap_or_else(PoisonError::into_inner),
            };
            drop(board);
            LaneIdle::Parked
        };
        sh.parked.fetch_sub(1, Ordering::SeqCst);
        idle
    }

    /// Claims and runs one band of the posted loan, if one is open. A
    /// panicking band is recorded on the loan (the lender re-raises it)
    /// and this lane carries on.
    fn help(&self) -> Option<LaneIdle> {
        let (ptr, len, i) = self.shared.band(None, true)?;
        let start = Instant::now();
        let panicked = run_job(ptr, len, i).is_some();
        let end = Instant::now();
        self.shared.band(
            Some(Ran {
                helper: true,
                panicked,
            }),
            false,
        );
        Some(LaneIdle::Lent { start, end })
    }

    /// Broadcasts a batch: workers take lanes `i % workers`, the caller
    /// takes lane `workers - 1`, and the call returns once every spawned
    /// worker has checked in. Caller must hold `submit`.
    fn broadcast(&self, jobs: &mut [Job<'_>]) {
        let lanes = self.workers;
        // SAFETY (lifetime erasure): `broadcast` blocks below until all
        // spawned workers have checked in for this epoch, so `jobs`
        // outlives every worker access; lane partitioning makes the
        // element accesses disjoint (module docs).
        let ptr = jobs.as_mut_ptr().cast::<Job<'static>>();
        let len = jobs.len();
        {
            let mut batch = lock_batch(&self.shared.batch);
            batch.epoch += 1;
            batch.jobs = Some(JobsPtr { ptr, len });
            batch.done_workers = 0;
            batch.worker_panicked = false;
            self.shared.work.notify_all();
        }
        // The caller is lane `lanes - 1`. Its panic (like a worker's) is
        // caught so the wait below always happens — unwinding out of
        // this frame while workers still hold the erased borrow would be
        // a use-after-free, and it is exactly what the SAFETY argument
        // forbids.
        let caller_panic = run_lane(ptr, len, lanes - 1, lanes);
        // The panic flag is read in the same critical section that saw
        // the final check-in, so it is exactly this batch's verdict —
        // every epoch publishes a fresh `false` above.
        let worker_panicked = {
            let mut batch = lock_batch(&self.shared.batch);
            while batch.done_workers != lanes - 1 {
                batch = self
                    .shared
                    .done
                    .wait(batch)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            batch.jobs = None;
            batch.worker_panicked
        };
        if let Some(payload) = caller_panic {
            std::panic::resume_unwind(payload);
        }
        if worker_panicked {
            panic!("a pool worker panicked while running a batch");
        }
    }
}

/// Locks the batch mutex, recovering from poisoning: `Batch` is plain
/// per-epoch slab state (see its doc), fully reset at every broadcast,
/// so there is nothing a panicking holder could have left torn.
fn lock_batch(m: &Mutex<Batch>) -> std::sync::MutexGuard<'_, Batch> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs the jobs of one lane: indices `lane, lane + lanes, …`.
/// A panicking job is caught and returned so the lane can still check
/// in (the batch protocol must complete even on failure).
fn run_lane(
    ptr: *mut Job<'static>,
    len: usize,
    lane: usize,
    lanes: usize,
) -> Option<Box<dyn std::any::Any + Send>> {
    let mut first_panic = None;
    for i in (lane..len).step_by(lanes) {
        debug_assert_eq!(
            i % lanes,
            lane,
            "a broadcast lane runs only its own indices"
        );
        if let Some(payload) = run_job(ptr, len, i) {
            first_panic.get_or_insert(payload);
        }
    }
    first_panic
}

/// Runs job `i` of an erased slice of `len`, catching a panic and
/// returning its payload. The pool's one dereference of a `JobsPtr`.
fn run_job(ptr: *mut Job<'static>, len: usize, i: usize) -> Option<Box<dyn std::any::Any + Send>> {
    debug_assert!(i < len, "job index {i} past a slice of {len}");
    // SAFETY: index `i < len` reached this thread alone (a broadcast
    // lane's residue class or a loan claim, both exclusive), and the
    // slice is alive until its submitter has seen this job finish
    // (module docs).
    let job = unsafe { &mut *ptr.add(i) };
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run())).err()
}

fn worker_loop(shared: &Shared, lane: usize, lanes: usize) {
    IN_POOL_WORKER.with(|f| f.set(true));
    // A GEMM issued on a worker stays inline: a broadcast already runs
    // on every worker. In lane mode the lending backend stands in for
    // the length of the lane loop.
    parallel::install_backend(Some(Arc::new(InlineBackend)));
    let mut seen_epoch = 0u64;
    loop {
        let (ptr, len) = {
            let mut batch = lock_batch(&shared.batch);
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if batch.epoch != seen_epoch {
                    if let Some(jobs) = batch.jobs.as_ref() {
                        seen_epoch = batch.epoch;
                        break (jobs.ptr, jobs.len);
                    }
                }
                batch = shared
                    .work
                    .wait(batch)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let panicked = run_lane(ptr, len, lane, lanes).is_some();
        // Flag and check-in are one critical section: the submitter is
        // still blocked waiting for this check-in, so the flag provably
        // lands in the epoch this lane just ran.
        let mut batch = lock_batch(&shared.batch);
        if panicked {
            batch.worker_panicked = true;
        }
        batch.done_workers += 1;
        if batch.done_workers == lanes - 1 {
            shared.done.notify_all();
        }
    }
}

impl ParallelBackend for WorkerPool {
    /// Fork-join mode for GEMM bands. Jobs must not block on each other
    /// (kernel bands never do); when the pool cannot take the batch the
    /// jobs run inline on the caller, which is always numerically
    /// equivalent.
    fn run_jobs(&self, jobs: &mut [Job<'_>]) {
        if jobs.is_empty() {
            return;
        }
        if self.handles.is_empty() || jobs.len() == 1 || on_pool_worker() {
            for job in jobs.iter_mut() {
                job.run();
            }
            self.meter(|m| m.kernel_jobs_inline.add(jobs.len() as u64));
            return;
        }
        match self.submit.try_lock() {
            // Poison only means an earlier batch's panic unwound through
            // `broadcast`; the batch state is reset per broadcast, so
            // recover rather than permanently degrading to inline.
            Ok(guard) => {
                self.broadcast(jobs);
                drop(guard);
                self.meter(|m| m.kernel_batches.inc());
            }
            Err(TryLockError::Poisoned(p)) => {
                let guard = p.into_inner();
                self.broadcast(jobs);
                drop(guard);
                self.meter(|m| m.kernel_batches.inc());
            }
            // Busy (nested or concurrent submission): inline.
            Err(TryLockError::WouldBlock) => {
                for job in jobs.iter_mut() {
                    job.run();
                }
                self.meter(|m| m.kernel_jobs_inline.add(jobs.len() as u64));
            }
        }
    }

    fn workers(&self) -> usize {
        self.workers
    }
}

/// The kernel backend of a lane thread in lane mode: a kernel call
/// posts its bands as a loan that idle lanes help with (module docs).
struct LaneLender {
    shared: Arc<Shared>,
    /// Lanes in the lane-mode batch: the band count a kernel call asks
    /// for.
    lanes: usize,
}

impl LaneLender {
    /// Posts `jobs` as the loan, unless one is already posted.
    fn post(&self, jobs: &mut [Job<'_>]) -> bool {
        let sh = &self.shared;
        let mut board = lock_loans(&sh.loans);
        if board.is_some() {
            return false;
        }
        // Lifetime erasure: `run_jobs` takes the loan back only once
        // every claimed band has settled (module docs).
        *board = Some(Loan {
            jobs: JobsPtr {
                ptr: jobs.as_mut_ptr().cast::<Job<'static>>(),
                len: jobs.len(),
            },
            next: 0,
            settled: 0,
            lent: 0,
            helper_panicked: false,
        });
        sh.open_bands.store(jobs.len(), Ordering::Release);
        drop(board);
        // A parker re-reads `open_bands` under the board lock after
        // counting itself parked, so either this load sees it parked or
        // it sees the post.
        if sh.parked.load(Ordering::SeqCst) > 0 {
            sh.idle.notify_all();
        }
        true
    }
}

impl ParallelBackend for LaneLender {
    /// Posts the bands, claims them alongside any idle lane, and returns
    /// once every band has run; a band's panic — the lender's own or a
    /// helper's — is raised here, on the lending task.
    fn run_jobs(&self, jobs: &mut [Job<'_>]) {
        if jobs.len() <= 1 || !self.post(jobs) {
            for job in jobs.iter_mut() {
                job.run();
            }
            self.shared
                .meter(|m| m.kernel_jobs_inline.add(jobs.len() as u64));
            return;
        }
        let sh = &self.shared;
        let mut own_panic = None;
        let mut ran = None;
        while let Some((ptr, len, i)) = sh.band(ran.take(), true) {
            let panic = run_job(ptr, len, i);
            ran = Some(Ran {
                helper: false,
                panicked: panic.is_some(),
            });
            if let Some(payload) = panic {
                own_panic.get_or_insert(payload);
            }
        }
        // Every band is claimed; wait for the helpers' to settle, then
        // take the loan off the board before the borrow ends.
        let loan = {
            let mut board = lock_loans(&sh.loans);
            while board.as_ref().is_some_and(|l| l.settled < l.jobs.len) {
                board = sh
                    .settled
                    .wait(board)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            board.take()
        };
        let (lent, helper_panicked) = loan.map_or((0, false), |l| {
            debug_assert_eq!((l.next, l.settled), (l.jobs.len, l.jobs.len));
            (l.lent, l.helper_panicked)
        });
        if lent > 0 {
            sh.meter(|m| m.lent_batches.inc());
        }
        if let Some(payload) = own_panic {
            std::panic::resume_unwind(payload);
        }
        if helper_panicked {
            panic!("a lane lending its core panicked while running a band");
        }
    }

    fn workers(&self) -> usize {
        self.lanes
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_every_job_exactly_once() {
        let pool = WorkerPool::new(4);
        for jobs_n in [1usize, 2, 3, 4, 7, 16, 33] {
            let mut hits = vec![0u32; jobs_n];
            {
                let mut jobs: Vec<Job<'_>> =
                    hits.iter_mut().map(|h| Job::new(move || *h += 1)).collect();
                pool.run_jobs(&mut jobs);
            }
            assert!(hits.iter().all(|&h| h == 1), "{jobs_n} jobs: {hits:?}");
        }
    }

    #[test]
    fn pool_of_one_is_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        let mut hit = false;
        let caller = std::thread::current().id();
        let mut jobs = vec![Job::new(|| {
            hit = std::thread::current().id() == caller;
        })];
        pool.run_jobs(&mut jobs);
        drop(jobs);
        assert!(hit, "single-lane pool must run on the caller");
    }

    #[test]
    fn deterministic_lane_assignment() {
        // Job i must land on the same thread in every batch.
        let pool = WorkerPool::new(3);
        let observe = || {
            let mut ids = vec![None; 6];
            {
                let mut jobs: Vec<Job<'_>> = ids
                    .iter_mut()
                    .map(|slot| {
                        Job::new(move || {
                            *slot = Some(std::thread::current().id());
                        })
                    })
                    .collect();
                pool.run_jobs(&mut jobs);
            }
            ids
        };
        let first = observe();
        for _ in 0..5 {
            assert_eq!(observe(), first);
        }
        // Lanes i and i + workers share a thread.
        assert_eq!(first[0], first[3]);
        assert_eq!(first[1], first[4]);
        assert!(first.iter().all(Option::is_some));
    }

    #[test]
    fn run_concurrent_gives_each_job_its_own_thread() {
        use std::sync::mpsc;
        let pool = WorkerPool::new(2);
        // Two jobs that must be alive simultaneously: each sends, then
        // waits for the other's message. Deadlocks unless truly
        // concurrent (a 10 s timeout turns that into a failure).
        let (ta, ra) = mpsc::channel::<()>();
        let (tb, rb) = mpsc::channel::<()>();
        let mut jobs = vec![
            Job::new(move || {
                ta.send(()).unwrap();
                rb.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
            }),
            Job::new(move || {
                tb.send(()).unwrap();
                ra.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
            }),
        ];
        assert!(pool.run_concurrent(&mut jobs));
    }

    #[test]
    fn jobs_outlive_the_batch() {
        // Pins the lifetime-erasure contract behind `unsafe impl Send
        // for JobsPtr` (invariant 1 of its SAFETY block): the submitter
        // does not return from a batch until every worker finished, so
        // slots borrowed from the caller's stack are observably written
        // the instant `run_jobs`/`run_concurrent` returns, and the
        // erased pointer is cleared before the borrow ends.
        let pool = WorkerPool::new(4);
        for round in 0..200 {
            let mut slots = [0u64; 8];
            {
                let mut jobs: Vec<Job<'_>> = slots
                    .iter_mut()
                    .enumerate()
                    .map(|(i, s)| Job::new(move || *s = (round * 100 + i) as u64 + 1))
                    .collect();
                pool.run_jobs(&mut jobs);
            }
            // The borrow of `slots` has ended; every write must already
            // be visible (a worker still running here would be a
            // use-after-free of the caller's stack).
            for (i, &s) in slots.iter().enumerate() {
                assert_eq!(s, (round * 100 + i) as u64 + 1, "round {round} slot {i}");
            }
            // The pool has dropped the erased pointer: no worker can
            // reach the dead borrow between batches.
            let batch = pool.shared.batch.lock().unwrap();
            assert!(batch.jobs.is_none(), "JobsPtr must not outlive its batch");
        }
    }

    #[test]
    fn loans_outlive_their_bands() {
        // Invariant 1 for loans: a lender returns only once every band —
        // those an idle lane claimed included — has written its borrowed
        // slot, and the loan is off the board before the borrow ends.
        use std::sync::atomic::AtomicBool;
        let pool = WorkerPool::new(2);
        let done = AtomicBool::new(false);
        let mut jobs = vec![
            Job::new(|| {
                for round in 0..200 {
                    let mut slots = [0u64; 8];
                    parallel::run_row_partitioned(8, 8, 1, &mut slots, |row0, _, band| {
                        band[0] = (round * 100 + row0) as u64 + 1;
                    });
                    for (i, &s) in slots.iter().enumerate() {
                        assert_eq!(s, (round * 100 + i) as u64 + 1, "round {round} slot {i}");
                    }
                    assert!(lock_loans(&pool.shared.loans).is_none(), "loan left posted");
                }
                done.store(true, Ordering::SeqCst);
                pool.signal_lanes();
            }),
            Job::new(|| loop {
                let seen = pool.lane_signals();
                if done.load(Ordering::SeqCst) {
                    break;
                }
                pool.lane_idle(seen, None);
            }),
        ];
        assert!(pool.run_concurrent(&mut jobs));
    }

    #[test]
    fn run_concurrent_refuses_oversized_batches() {
        let pool = WorkerPool::new(2);
        let mut ran = [false; 3];
        {
            let mut jobs: Vec<Job<'_>> = ran
                .iter_mut()
                .map(|r| Job::new(move || *r = true))
                .collect();
            assert!(!pool.run_concurrent(&mut jobs));
        }
        assert!(ran.iter().all(|&r| !r), "refused batch must not run");
    }

    #[test]
    fn nested_submission_runs_inline() {
        let pool = Arc::new(WorkerPool::new(2));
        let inner = Arc::clone(&pool);
        let mut ok = false;
        {
            let ok = &mut ok;
            let mut outer = vec![Job::new(move || {
                // From a worker (or mid-batch caller), nested batches
                // must degrade to inline execution, not deadlock.
                let mut hits = [0u32; 4];
                {
                    let mut jobs: Vec<Job<'_>> =
                        hits.iter_mut().map(|h| Job::new(move || *h += 1)).collect();
                    inner.run_jobs(&mut jobs);
                }
                *ok = hits.iter().all(|&h| h == 1);
            })];
            pool.run_jobs(&mut outer);
        }
        assert!(ok);
    }

    #[test]
    fn pool_as_installed_backend_spawns_nothing() {
        let pool = Arc::new(WorkerPool::new(4));
        let before = parallel::thread_spawns();
        pool.install_scope(|| {
            let mut c = vec![0u32; 64];
            parallel::run_row_partitioned(4, 8, 8, &mut c, |row0, rows, band| {
                for r in 0..rows {
                    for x in &mut band[r * 8..(r + 1) * 8] {
                        *x = (row0 + r) as u32;
                    }
                }
            });
            for r in 0..8 {
                assert!(c[r * 8..(r + 1) * 8].iter().all(|&x| x == r as u32));
            }
            assert_eq!(parallel::effective_threads(16), 4, "pool caps at lanes");
        });
        assert_eq!(parallel::thread_spawns(), before, "no spawns per call");
    }

    #[test]
    fn worker_panic_is_propagated_not_deadlocked() {
        let pool = WorkerPool::new(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut jobs: Vec<Job<'_>> = (0..6)
                .map(|i| {
                    Job::new(move || {
                        if i == 1 {
                            panic!("boom");
                        }
                    })
                })
                .collect();
            pool.run_jobs(&mut jobs);
        }));
        assert!(result.is_err(), "worker panic must surface to the caller");
        // The pool must still *parallelize* afterwards — the panic
        // poisons the submit mutex, and treating poison as permanent
        // would silently demote every later batch to inline execution.
        let caller = std::thread::current().id();
        let mut ids = [None; 4];
        {
            let mut jobs: Vec<Job<'_>> = ids
                .iter_mut()
                .map(|slot| {
                    Job::new(move || {
                        *slot = Some(std::thread::current().id());
                    })
                })
                .collect();
            pool.run_jobs(&mut jobs);
        }
        assert!(ids.iter().all(Option::is_some));
        assert!(
            ids.iter().any(|id| *id != Some(caller)),
            "post-panic batches must still reach the workers"
        );
    }

    #[test]
    fn panic_flag_is_per_batch() {
        // Both the caller's lane AND a worker lane panic in batch N;
        // batch N + 1 is clean and must not inherit the verdict. With 2
        // lanes and 2 jobs, job 1 runs on the caller and job 0 on the
        // worker.
        let pool = WorkerPool::new(2);
        for _ in 0..8 {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut jobs: Vec<Job<'_>> =
                    (0..2).map(|_| Job::new(move || panic!("boom"))).collect();
                pool.run_jobs(&mut jobs);
            }));
            assert!(result.is_err(), "panic must surface");
            // The very next batch is clean: a stale flag from the
            // previous epoch would make this panic.
            let mut hits = [0u32; 2];
            {
                let mut jobs: Vec<Job<'_>> =
                    hits.iter_mut().map(|h| Job::new(move || *h += 1)).collect();
                pool.run_jobs(&mut jobs);
            }
            assert_eq!(hits, [1, 1]);
        }
    }

    #[test]
    fn env_workers_parses_and_falls_back() {
        // Only the fallback path is exercised hermetically (setting env
        // vars is racy under the multithreaded test harness).
        let w = WorkerPool::env_workers(3);
        assert!(w >= 1);
    }
}
