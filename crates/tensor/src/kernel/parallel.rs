//! Deterministic partitioned threading for the blocked kernels, behind a
//! pluggable execution backend.
//!
//! The GEMM drivers split the output matrix into contiguous column bands
//! of whole panels, one per worker (other callers band rows, or whole
//! work items, with [`run_row_partitioned`]); each band is produced
//! entirely by one worker with a K-traversal order fixed by the blocking
//! constants, so every output element sees exactly the same
//! floating-point operation sequence regardless of the thread count *or*
//! of which backend — or which thread — runs the bands. `threads = 1`,
//! `threads = 4`, and any other setting are bit-identical.
//!
//! # Execution backends
//!
//! *Where* the bands run is decided by a [`ParallelBackend`] installed
//! per thread:
//!
//! * [`ScopeBackend`] (the default when nothing is installed) spawns one
//!   `std::thread::scope` thread per band — the original spawn-per-call
//!   behavior, ~10 µs per worker.
//! * [`InlineBackend`] runs every band sequentially on the caller. Pool
//!   workers install it so nested GEMMs inside an already-parallel task
//!   never re-enter the pool (parallelism then comes from the task
//!   level, as in the out-of-order prefill executor).
//! * `llmnpu_sched::pool::WorkerPool` (in the scheduling crate, which
//!   owns thread lifecycle) is the persistent pool: workers are spawned
//!   once per engine and bands are handed to them with **zero** thread
//!   spawns per call — observable via [`thread_spawns`]. While the pool
//!   runs the executor's lanes, each lane thread dispatches to a lending
//!   backend instead, which hands its bands to whichever lane is idle.
//!
//! Backends receive the bands as erased [`Job`]s. The contract every
//! backend must uphold: **`run_jobs` returns only after every job has
//! run to completion** (the jobs borrow caller state).

use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// A borrowed unit of work, executable exactly once on any thread.
///
/// Wraps a boxed `FnOnce` so partitioned drivers can hand disjoint
/// `&mut` output bands to a [`ParallelBackend`] without exposing the
/// band types.
pub struct Job<'scope>(Option<Box<dyn FnOnce() + Send + 'scope>>);

impl<'scope> Job<'scope> {
    /// Wraps a closure as a dispatchable job.
    pub fn new(f: impl FnOnce() + Send + 'scope) -> Self {
        Job(Some(Box::new(f)))
    }

    /// Runs the job. Subsequent calls are no-ops, so a backend that
    /// retries lanes cannot double-execute work.
    pub fn run(&mut self) {
        if let Some(f) = self.0.take() {
            f();
        }
    }
}

impl std::fmt::Debug for Job<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Job").field(&self.0.is_some()).finish()
    }
}

/// Executes a batch of disjoint jobs and waits for all of them.
///
/// # Contract
///
/// `run_jobs` **must not return until every job in the slice has
/// completed** — the jobs borrow the caller's stack (GEMM operands,
/// output bands), and the caller resumes using that state immediately
/// after the call. Every job must run exactly once (enforced by
/// [`Job::run`] being idempotent). Job results never depend on *which*
/// worker runs them, so any assignment is correct; deterministic
/// assignment only helps warm per-worker caches (scratch arenas).
pub trait ParallelBackend: Send + Sync {
    /// Runs every job to completion before returning.
    fn run_jobs(&self, jobs: &mut [Job<'_>]);

    /// Concurrency this backend can actually deliver (used by
    /// [`effective_threads`] to size band counts).
    fn workers(&self) -> usize;
}

/// The spawn-per-call backend: one scoped thread per job (the pre-pool
/// behavior, and the fallback when no backend is installed).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScopeBackend;

impl ParallelBackend for ScopeBackend {
    fn run_jobs(&self, jobs: &mut [Job<'_>]) {
        std::thread::scope(|scope| {
            for job in jobs.iter_mut() {
                note_thread_spawn();
                scope.spawn(move || job.run());
            }
        });
    }

    fn workers(&self) -> usize {
        host_cpus()
    }
}

/// Runs every job sequentially on the calling thread. Installed by pool
/// workers so nested parallel regions stay inline.
#[derive(Debug, Clone, Copy, Default)]
pub struct InlineBackend;

impl ParallelBackend for InlineBackend {
    fn run_jobs(&self, jobs: &mut [Job<'_>]) {
        for job in jobs.iter_mut() {
            job.run();
        }
    }

    fn workers(&self) -> usize {
        1
    }
}

thread_local! {
    /// The backend partitioned drivers on this thread dispatch to.
    static BACKEND: RefCell<Option<Arc<dyn ParallelBackend>>> = const { RefCell::new(None) };
    /// Threads spawned *by this thread* for kernel work (scoped band
    /// workers, pool construction). Thread-local so concurrent tests
    /// cannot perturb each other; a forward pass observed from its own
    /// thread sees exactly the spawns it caused.
    static THREAD_SPAWNS: Cell<u64> = const { Cell::new(0) };
}

/// Installs (or clears) the parallel backend for the current thread,
/// returning the previous one. Callers that install a backend for a
/// scope should restore the returned value afterwards
/// ([`with_backend`] does this automatically).
pub fn install_backend(
    backend: Option<Arc<dyn ParallelBackend>>,
) -> Option<Arc<dyn ParallelBackend>> {
    BACKEND.with(|b| std::mem::replace(&mut *b.borrow_mut(), backend))
}

/// The backend installed on the current thread, if any.
#[must_use]
pub fn installed_backend() -> Option<Arc<dyn ParallelBackend>> {
    BACKEND.with(|b| b.borrow().clone())
}

/// Runs `f` with `backend` installed on the current thread, restoring
/// the previous backend afterwards (also on panic).
pub fn with_backend<R>(backend: Arc<dyn ParallelBackend>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<dyn ParallelBackend>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            install_backend(self.0.take());
        }
    }
    let _restore = Restore(install_backend(Some(backend)));
    f()
}

/// Number of threads spawned by the current thread for kernel work so
/// far. A snapshot-before / snapshot-after pair around a forward pass
/// observes that pass's spawn count — zero once a persistent pool is
/// installed and warm.
#[must_use]
pub fn thread_spawns() -> u64 {
    THREAD_SPAWNS.with(Cell::get)
}

/// Records one thread spawn on the current thread's counter. Public so
/// external backends (the persistent pool lives in `llmnpu-sched`) can
/// account their construction-time spawns through the same counter.
pub fn note_thread_spawn() {
    THREAD_SPAWNS.with(|c| c.set(c.get() + 1));
}

/// Dispatches jobs to the installed backend, or [`ScopeBackend`] if
/// none is installed.
fn dispatch(jobs: &mut [Job<'_>]) {
    match installed_backend() {
        Some(backend) => backend.run_jobs(jobs),
        None => ScopeBackend.run_jobs(jobs),
    }
}

/// Cores available to this process, queried once and cached (the std
/// call walks sched_getaffinity/cgroup state on Linux — too costly to
/// repeat on every projection of every layer).
fn host_cpus() -> usize {
    static HOST_CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST_CPUS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Caps a requested worker count at the concurrency actually available:
/// the installed backend's worker count when one is installed (a pool
/// delivers its own workers regardless of where its owner thread runs),
/// the host cores otherwise. Oversubscription only adds spawn/switch
/// overhead — results are thread-count-invariant either way — so the
/// public `gemm` wrappers route every requested count through this.
#[must_use]
pub fn effective_threads(requested: usize) -> usize {
    let cap = installed_backend().map_or_else(host_cpus, |b| b.workers().max(1));
    requested.min(cap)
}

/// Default worker count for library call sites that just want "use the
/// host sensibly": the installed backend's worker count, else the host
/// cores capped at 4 (this repo's linear-layer shapes saturate before
/// that). Thread count never changes results.
#[must_use]
pub fn default_threads() -> usize {
    installed_backend().map_or_else(|| host_cpus().min(4), |b| b.workers().max(1))
}

/// Splits `rows` into at most `pieces` contiguous bands of near-equal
/// size. Returns `(row0, rows_in_band)` pairs; empty bands are omitted.
#[must_use]
pub fn row_bands(rows: usize, pieces: usize) -> Vec<(usize, usize)> {
    let pieces = pieces.max(1).min(rows.max(1));
    let band = rows.div_ceil(pieces);
    let mut out = Vec::with_capacity(pieces);
    let mut r0 = 0;
    while r0 < rows {
        let here = band.min(rows - r0);
        out.push((r0, here));
        r0 += here;
    }
    out
}

/// Runs `work` over contiguous row bands of `c` (a `rows × cols`
/// row-major buffer), on `threads` workers of the installed
/// [`ParallelBackend`] (spawn-per-call scoped threads if none).
///
/// `work(row0, rows_in_band, band)` receives a disjoint mutable slice of
/// `c` covering rows `row0 .. row0 + rows_in_band`. With `threads <= 1`
/// (or a single band) the closure runs inline on the caller's thread.
///
/// # Panics
///
/// Panics if `c.len() != rows * cols` or if a worker panics.
pub fn run_row_partitioned<T, F>(threads: usize, rows: usize, cols: usize, c: &mut [T], work: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    assert_eq!(c.len(), rows * cols, "output buffer shape mismatch");
    let bands = row_bands(rows, threads);
    if bands.len() <= 1 || threads <= 1 {
        if rows > 0 {
            work(0, rows, c);
        }
        return;
    }
    let mut jobs = Vec::with_capacity(bands.len());
    let mut rest = c;
    for &(row0, band_rows) in &bands {
        let (band, tail) = rest.split_at_mut(band_rows * cols);
        rest = tail;
        let work = &work;
        jobs.push(Job::new(move || work(row0, band_rows, band)));
    }
    dispatch(&mut jobs);
}

/// Runs `work` over contiguous *column* bands of `c` (a `rows × cols`
/// row-major buffer), on `threads` workers of the installed backend.
///
/// This is the GEMV-side counterpart of [`run_row_partitioned`]: decode
/// shapes have `rows ≤ 2`, so partitioning rows cannot use more than two
/// workers — partitioning the output columns can. Band boundaries are
/// rounded up to multiples of `align` (pass 1 for no alignment; the
/// panel-walking f32 GEMV passes the panel width so no panel straddles
/// two workers). `work(row, col0, band_cols, band)` receives a disjoint
/// mutable slice of row `row` covering columns `col0 .. col0 +
/// band_cols`; each worker processes its column band across every row,
/// so one dispatch covers the whole call. With `threads <= 1` (or a
/// single band) the closure runs inline.
///
/// # Panics
///
/// Panics if `c.len() != rows * cols` or if a worker panics.
pub fn run_col_partitioned<T, F>(
    threads: usize,
    rows: usize,
    cols: usize,
    align: usize,
    c: &mut [T],
    work: F,
) where
    T: Send,
    F: Fn(usize, usize, usize, &mut [T]) + Sync,
{
    run_col_partitioned_rows(threads, rows, cols, align, c, |col0, _, group| {
        for (row, band) in group.iter_mut() {
            let band_cols = band.len();
            work(*row, col0, band_cols, &mut band[..]);
        }
    });
}

/// Like [`run_col_partitioned`], but hands each worker its column band
/// of **every row at once**: `work(col0, band_cols, group)` receives the
/// full cohort of `(row, band)` slices for its band in one call.
///
/// This is what the batched-rows LUT driver needs — with the per-(row,
/// band) callback of [`run_col_partitioned`] a worker would walk its
/// share of the weight bytes once *per row*; with the cohort callback it
/// can keep a weight column hot in cache while finishing all `B` rows
/// against it, so the weights stream through memory once per batch.
/// Partitioning is identical to [`run_col_partitioned`] (which is
/// implemented on top of this), so the two dispatch the same bands and
/// stay bit-identical for any thread count.
///
/// # Panics
///
/// Panics if `c.len() != rows * cols` or if a worker panics.
pub fn run_col_partitioned_rows<T, F>(
    threads: usize,
    rows: usize,
    cols: usize,
    align: usize,
    c: &mut [T],
    work: F,
) where
    T: Send,
    F: Fn(usize, usize, &mut [(usize, &mut [T])]) + Sync,
{
    assert_eq!(c.len(), rows * cols, "output buffer shape mismatch");
    if rows == 0 || cols == 0 {
        return;
    }
    let align = align.max(1);
    let bands: Vec<(usize, usize)> = row_bands(cols.div_ceil(align), threads)
        .into_iter()
        .map(|(u0, units)| {
            let col0 = u0 * align;
            (col0, (units * align).min(cols - col0))
        })
        .collect();
    if bands.len() <= 1 || threads <= 1 {
        let mut group: Vec<(usize, &mut [T])> = c.chunks_exact_mut(cols).enumerate().collect();
        work(0, cols, &mut group);
        return;
    }
    // Hand worker i its column band of *every* row: the per-(row, band)
    // slices are carved out up front so a single dispatch covers the
    // whole call.
    let mut groups: Vec<Vec<(usize, &mut [T])>> =
        bands.iter().map(|_| Vec::with_capacity(rows)).collect();
    let mut rest = c;
    for row in 0..rows {
        for (group, &(_, band_cols)) in groups.iter_mut().zip(&bands) {
            let (band, tail) = rest.split_at_mut(band_cols);
            rest = tail;
            group.push((row, band));
        }
    }
    let work = &work;
    let mut jobs: Vec<Job<'_>> = groups
        .into_iter()
        .zip(&bands)
        .map(|(mut group, &(col0, band_cols))| Job::new(move || work(col0, band_cols, &mut group)))
        .collect();
    dispatch(&mut jobs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_cover_rows_exactly_once() {
        for rows in [0usize, 1, 2, 7, 8, 9, 100] {
            for pieces in [1usize, 2, 3, 4, 16] {
                let bands = row_bands(rows, pieces);
                let total: usize = bands.iter().map(|&(_, n)| n).sum();
                assert_eq!(total, rows, "rows {rows} pieces {pieces}");
                let mut next = 0;
                for (r0, n) in bands {
                    assert_eq!(r0, next);
                    assert!(n > 0);
                    next = r0 + n;
                }
            }
        }
    }

    #[test]
    fn partitioned_run_touches_every_row_once() {
        let rows = 13;
        let cols = 3;
        for threads in [1usize, 2, 4, 8] {
            let mut c = vec![0u32; rows * cols];
            run_row_partitioned(threads, rows, cols, &mut c, |row0, band_rows, band| {
                for r in 0..band_rows {
                    for x in &mut band[r * cols..(r + 1) * cols] {
                        *x += (row0 + r) as u32 + 1;
                    }
                }
            });
            for r in 0..rows {
                assert!(c[r * cols..(r + 1) * cols]
                    .iter()
                    .all(|&x| x == r as u32 + 1));
            }
        }
    }

    #[test]
    fn zero_rows_is_a_noop() {
        let mut c: Vec<f32> = Vec::new();
        run_row_partitioned(4, 0, 5, &mut c, |_, _, _| panic!("no work expected"));
    }

    #[test]
    fn col_partitioned_run_touches_every_cell_once() {
        for (rows, cols, align) in [
            (2usize, 13usize, 1usize),
            (1, 40, 16),
            (2, 33, 16),
            (3, 7, 4),
        ] {
            for threads in [1usize, 2, 4, 8] {
                let mut c = vec![0u32; rows * cols];
                run_col_partitioned(
                    threads,
                    rows,
                    cols,
                    align,
                    &mut c,
                    |row, col0, band_cols, band| {
                        assert!(band_cols > 0);
                        assert_eq!(col0 % align, 0, "band start must be aligned");
                        for (j, x) in band.iter_mut().enumerate() {
                            *x += (row * cols + col0 + j) as u32 + 1;
                        }
                    },
                );
                for (i, &x) in c.iter().enumerate() {
                    assert_eq!(x, i as u32 + 1, "threads {threads} align {align}");
                }
            }
        }
    }

    #[test]
    fn col_partitioned_empty_dims_are_noops() {
        let mut c: Vec<f32> = Vec::new();
        run_col_partitioned(4, 0, 5, 1, &mut c, |_, _, _, _| panic!("no work expected"));
        run_col_partitioned(4, 3, 0, 1, &mut c, |_, _, _, _| panic!("no work expected"));
    }

    #[test]
    fn scope_backend_counts_spawns_inline_backend_does_not() {
        let before = thread_spawns();
        let mut c = vec![0u32; 8 * 2];
        run_row_partitioned(4, 8, 2, &mut c, |_, _, band| {
            for x in band.iter_mut() {
                *x += 1;
            }
        });
        let spawned = thread_spawns() - before;
        assert_eq!(spawned, 4, "one scoped spawn per band");

        let before = thread_spawns();
        with_backend(Arc::new(InlineBackend), || {
            let mut c = vec![0u32; 8 * 2];
            run_row_partitioned(4, 8, 2, &mut c, |_, _, band| {
                for x in band.iter_mut() {
                    *x += 1;
                }
            });
            for x in &c {
                assert_eq!(*x, 1);
            }
        });
        assert_eq!(thread_spawns(), before, "inline backend never spawns");
    }

    #[test]
    fn installed_backend_scopes_and_restores() {
        assert!(installed_backend().is_none());
        with_backend(Arc::new(InlineBackend), || {
            assert!(installed_backend().is_some());
            assert_eq!(effective_threads(16), 1, "inline caps at 1");
            assert_eq!(default_threads(), 1);
        });
        assert!(installed_backend().is_none());
    }

    #[test]
    fn jobs_run_exactly_once() {
        let mut hits = 0u32;
        let mut job = Job::new(|| hits += 1);
        job.run();
        job.run();
        drop(job);
        assert_eq!(hits, 1);
    }
}
