//! Persistent worker pool: parked OS threads executing deterministic
//! chunked jobs.
//!
//! Every parallel hot path of the workspace used to pay a fresh
//! `std::thread::scope` spawn (~10 µs per thread on Linux) per call — once
//! per round in the parallel executor, once per large product in the GEMM
//! cores. This module replaces those spawns with a process-wide pool of
//! [`hardware_threads()`]` - 1` **parked** workers plus the calling thread:
//! workers block on a condvar between jobs, so waking them costs a futex
//! wake instead of a clone/mmap/schedule cycle, and their thread-local
//! scratch buffers survive from job to job.
//!
//! # Lifecycle
//!
//! The pool is lazily initialised on the first parallel [`run_chunks`] call
//! and lives for the remainder of the process; workers are never torn down.
//! A host with a single core (or a pool asked for a single chunk) never
//! spawns anything — the calling thread runs every chunk inline. One job
//! runs at a time; concurrent dispatchers queue on the dispatch lock in
//! arrival order.
//!
//! # Determinism contract
//!
//! [`run_chunks`] splits `n_items` into contiguous ranges of
//! [`chunk_len`]`(n_items, max_workers)` items (or the
//! [`aligned_chunk_len`] variant), **computed from the requested worker
//! count alone** — never from how many workers happen to be parked or idle.
//! Results are returned in chunk order. Which OS thread executes which
//! chunk is scheduling noise by construction: chunks share nothing, so
//! every caller observes byte-identical results at any pool size, including
//! zero workers. The executor- and GEMM-level bit-identity suites pin this.
//!
//! # `single_threaded` interplay
//!
//! Inside a [`crate::parallel::single_threaded`] scope, and inside a pool
//! job itself (workers, or the caller while it participates), `run_chunks`
//! degrades to running every chunk inline on the current thread in chunk
//! order. Nesting therefore cannot oversubscribe the machine or deadlock
//! the single-job pool.
//!
//! # Panic policy
//!
//! A panic inside a chunk is caught on the executing thread, the remaining
//! chunks still run (matching `std::thread::scope`, which joins every
//! thread before propagating), and the first payload is re-raised on the
//! dispatching thread once the job completes. Workers survive: the pool
//! stays usable for subsequent jobs after a panicked one.
//!
//! # Why this module allows `unsafe`
//!
//! Parked (`'static`) workers executing a closure that borrows the
//! dispatcher's stack frame is exactly the lifetime-erasure problem scoped
//! thread libraries solve with `unsafe`; safe Rust cannot express "this
//! reference outlives the job because the dispatcher blocks until the job
//! is done". The crate-wide lint is therefore `deny(unsafe_code)` with an
//! allowance for this module only, and the erasure is confined to two
//! places: sending the job pointer (`Job`) and dereferencing it in the
//! worker loop. Soundness rests on one invariant, stated at both sites:
//! **the dispatcher does not return until every claimed chunk of its job
//! has finished executing**, so the erased reference never outlives the
//! frame that owns it.
#![allow(unsafe_code)]

use crate::parallel;
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};

/// The host's available parallelism, queried once per process.
///
/// Every thread-count decision in the workspace (kernel row splits, the
/// row-block inference walk, the pooled aggregation, the parallel
/// executor's worker count) shares this cached value instead of re-reading
/// `std::thread::available_parallelism()` — which walks cgroup files on
/// Linux — on every call.
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Chunk length [`run_chunks`] uses: `n_items` split as evenly as possible
/// over `max_workers` contiguous ranges (the last may be short).
pub fn chunk_len(n_items: usize, max_workers: usize) -> usize {
    n_items.div_ceil(max_workers.max(1)).max(1)
}

/// Chunk length [`run_aligned_chunks`] uses: [`chunk_len`] rounded up to a
/// multiple of `align`, so only the final chunk can carry a partial block.
/// This is the exact split the GEMM row partitioners computed before the
/// pool existed (`align` = their register-tile height), so every product
/// stays bit-identical.
pub fn aligned_chunk_len(n_items: usize, max_workers: usize, align: usize) -> usize {
    chunk_len(n_items, max_workers).next_multiple_of(align.max(1))
}

/// Runs `f` over `0..n_items` split into at most `max_workers` contiguous
/// chunks (boundaries per [`chunk_len`]), returning the per-chunk results
/// in chunk order.
///
/// Chunks execute on the pool's parked workers plus the calling thread;
/// inside a [`crate::parallel::single_threaded`] scope, inside another pool
/// job, with a single chunk, or on a single-core host, they all run inline
/// on the calling thread instead. Either way the chunk boundaries and the
/// result order are identical — parallelism here is purely a wall-clock
/// knob.
///
/// # Panics
///
/// Re-raises the first panic any chunk raised, after all chunks finished.
pub fn run_chunks<T, F>(n_items: usize, max_workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    run_with_chunk_len(n_items, chunk_len(n_items, max_workers), &f)
}

/// [`run_chunks`] with chunk boundaries rounded to multiples of `align`
/// (boundaries per [`aligned_chunk_len`]) — the shape the register-tiled
/// GEMM core needs so only the last chunk carries a partial tile.
///
/// # Panics
///
/// Re-raises the first panic any chunk raised, after all chunks finished.
pub fn run_aligned_chunks<T, F>(n_items: usize, max_workers: usize, align: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    run_with_chunk_len(n_items, aligned_chunk_len(n_items, max_workers, align), &f)
}

thread_local! {
    /// `true` while this thread is executing inside a pool job — set
    /// permanently on workers, scoped on a dispatching caller. Nested
    /// `run_chunks` calls observe it and run inline, which keeps the
    /// single-job pool deadlock-free under re-entrancy.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// A dispatched job: a type-erased chunk runner plus its chunk count.
///
/// `task` points at a `dyn Fn(usize) + Sync` that lives in the dispatching
/// [`run_with_chunk_len`] frame. The pointer is only dereferenced between
/// job publication and the dispatcher observing completion; the dispatcher
/// blocks until then, which is what makes the erasure sound.
#[derive(Clone, Copy)]
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    chunks: usize,
}

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and the dispatcher keeps it alive for as long as any worker can hold the
// pointer — see the completion barrier in `dispatch`.
unsafe impl Send for Job {}

/// Pool state guarded by one mutex: the current job, its claim cursor, how
/// many threads are inside a chunk, and the first panic payload.
struct State {
    job: Option<Job>,
    next_chunk: usize,
    active: usize,
    panic: Option<Box<dyn Any + Send>>,
}

struct Pool {
    state: Mutex<State>,
    /// Workers park here between jobs; `notify_all` on publication.
    work: Condvar,
    /// The dispatcher parks here while stragglers finish its job.
    done: Condvar,
    /// Serialises dispatchers: the pool runs one job at a time.
    dispatch: Mutex<()>,
}

impl Pool {
    /// Leaks a pool with `workers` parked threads. Leaking is deliberate:
    /// worker threads hold the reference forever, and the process-wide pool
    /// lives for the process anyway. Tests use this to exercise the real
    /// dispatch machinery with a fixed worker count, independent of the
    /// host's core count.
    fn leak_with_workers(workers: usize) -> &'static Pool {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            state: Mutex::new(State {
                job: None,
                next_chunk: 0,
                active: 0,
                panic: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            dispatch: Mutex::new(()),
        }));
        for index in 0..workers {
            std::thread::Builder::new()
                .name(format!("fedft-pool-{index}"))
                .spawn(move || worker_loop(pool))
                .expect("spawning a pool worker thread");
        }
        pool
    }
}

/// The process-wide pool, created on first parallel dispatch.
fn global() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::leak_with_workers(hardware_threads().saturating_sub(1)))
}

/// Claims and runs chunks of the current job until it is exhausted, then
/// parks. Runs forever; panics inside chunks are caught and recorded, so a
/// worker is never lost.
fn worker_loop(pool: &'static Pool) {
    IN_POOL_JOB.with(|flag| flag.set(true));
    let mut state = pool.state.lock().expect("pool state lock");
    loop {
        let claim = match state.job {
            Some(job) if state.next_chunk < job.chunks => {
                state.next_chunk += 1;
                state.active += 1;
                Some((job, state.next_chunk - 1))
            }
            _ => None,
        };
        let Some((job, chunk)) = claim else {
            state = pool.work.wait(state).expect("pool state lock");
            continue;
        };
        drop(state);
        // SAFETY: the dispatcher that published `job` is blocked in
        // `dispatch` until `active` returns to zero for an exhausted claim
        // cursor, so the frame owning the pointee is still on its stack.
        let task = unsafe { &*job.task };
        let result = catch_unwind(AssertUnwindSafe(|| task(chunk)));
        state = pool.state.lock().expect("pool state lock");
        state.active -= 1;
        if let Err(payload) = result {
            state.panic.get_or_insert(payload);
        }
        if state.next_chunk >= job.chunks && state.active == 0 {
            pool.done.notify_all();
        }
    }
}

fn run_with_chunk_len<T, F>(n_items: usize, chunk: usize, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if n_items == 0 {
        return Vec::new();
    }
    let chunks = n_items.div_ceil(chunk);
    let inline = chunks <= 1
        || hardware_threads() <= 1
        || parallel::is_single_threaded()
        || IN_POOL_JOB.with(Cell::get);
    if inline {
        return (0..chunks)
            .map(|index| f(index * chunk..((index + 1) * chunk).min(n_items)))
            .collect();
    }
    run_on(global(), n_items, chunk, f)
}

/// The parallel branch of [`run_with_chunk_len`], against an explicit pool
/// so tests can drive the dispatch machinery with a fixed worker count on
/// any host.
fn run_on<T, F>(pool: &'static Pool, n_items: usize, chunk: usize, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let chunks = n_items.div_ceil(chunk);
    let range_of = |index: usize| index * chunk..((index + 1) * chunk).min(n_items);
    let results: Vec<Mutex<Option<T>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    let runner = |index: usize| {
        let value = f(range_of(index));
        *results[index].lock().expect("pool result slot lock") = Some(value);
    };
    dispatch(pool, chunks, &runner);
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("pool result slot lock")
                .expect("every chunk stores its result before the job completes")
        })
        .collect()
}

/// Publishes a job, participates in it from the calling thread, and blocks
/// until every chunk has finished; re-raises the first recorded panic.
fn dispatch(pool: &'static Pool, chunks: usize, task: &(dyn Fn(usize) + Sync)) {
    // Mark the caller as inside the job for the duration (restored on exit,
    // including on unwind) so re-entrant `run_chunks` calls run inline.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_POOL_JOB.with(|flag| flag.set(self.0));
        }
    }
    let _scope = IN_POOL_JOB.with(|flag| {
        let previous = flag.get();
        flag.set(true);
        Restore(previous)
    });

    let turn = pool.dispatch.lock().expect("pool dispatch lock");
    // SAFETY: erasing the borrow to publish it to 'static workers. The
    // barrier below keeps this frame alive until no worker can hold the
    // pointer any more, and `state.job` is cleared before the dispatch
    // lock is released.
    let erased = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
    };
    {
        let mut state = pool.state.lock().expect("pool state lock");
        debug_assert!(state.job.is_none(), "the dispatch lock serialises jobs");
        state.job = Some(Job {
            task: erased,
            chunks,
        });
        state.next_chunk = 0;
        state.active = 0;
        state.panic = None;
    }
    pool.work.notify_all();

    // The calling thread is a full participant: claim chunks like a worker
    // until the cursor is exhausted.
    loop {
        let claimed = {
            let mut state = pool.state.lock().expect("pool state lock");
            if state.next_chunk < chunks {
                state.next_chunk += 1;
                state.active += 1;
                Some(state.next_chunk - 1)
            } else {
                None
            }
        };
        let Some(chunk) = claimed else { break };
        let result = catch_unwind(AssertUnwindSafe(|| task(chunk)));
        let mut state = pool.state.lock().expect("pool state lock");
        state.active -= 1;
        if let Err(payload) = result {
            state.panic.get_or_insert(payload);
        }
    }

    // Completion barrier: no return while any worker is inside a chunk.
    let mut state = pool.state.lock().expect("pool state lock");
    while state.active > 0 {
        state = pool.done.wait(state).expect("pool state lock");
    }
    state.job = None;
    let panic = state.panic.take();
    drop(state);
    // Release the dispatch lock *before* re-raising so a propagated panic
    // cannot poison it for the next dispatcher.
    drop(turn);
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn chunk_boundaries_match_the_historic_splits() {
        // The even split: div_ceil over the requested workers.
        assert_eq!(chunk_len(10, 4), 3);
        assert_eq!(chunk_len(100, 8), 13);
        assert_eq!(chunk_len(3, 8), 1);
        assert_eq!(
            chunk_len(0, 4),
            1,
            "degenerate input still yields a positive length"
        );
        assert_eq!(
            chunk_len(5, 0),
            5,
            "a zero worker request behaves like one worker"
        );
        // The GEMM split: div_ceil rounded to the register-tile height.
        assert_eq!(aligned_chunk_len(100, 8, 12), 24);
        assert_eq!(aligned_chunk_len(67, 2, 12), 36);
        assert_eq!(aligned_chunk_len(64, 4, 8), 16);
    }

    #[test]
    fn results_come_back_in_chunk_order_and_cover_everything() {
        for workers in [1, 2, 3, 8, 64] {
            let parts = run_chunks(23, workers, |range| range.clone());
            let chunk = chunk_len(23, workers);
            let mut expected_start = 0;
            for part in &parts {
                assert_eq!(part.start, expected_start, "workers {workers}");
                assert!(part.len() <= chunk, "workers {workers}");
                expected_start = part.end;
            }
            assert_eq!(expected_start, 23, "workers {workers}");
        }
    }

    #[test]
    fn zero_items_run_nothing() {
        let parts: Vec<Range<usize>> = run_chunks(0, 4, |range| range.clone());
        assert!(parts.is_empty());
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..997).map(|_| AtomicUsize::new(0)).collect();
        run_chunks(997, 8, |range| {
            for index in range {
                hits[index].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_threaded_scope_forces_inline_execution() {
        let caller = std::thread::current().id();
        let executed_on: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        parallel::single_threaded(|| {
            run_chunks(64, 8, |_range| {
                executed_on
                    .lock()
                    .unwrap()
                    .insert(std::thread::current().id());
            });
        });
        let threads = executed_on.into_inner().unwrap();
        assert_eq!(
            threads,
            HashSet::from([caller]),
            "chunks inside single_threaded must all run on the caller"
        );
    }

    #[test]
    fn nested_run_chunks_runs_inline_without_deadlocking() {
        let total: usize = run_chunks(8, 4, |outer| {
            // A chunk dispatching its own job must not wait on the pool it
            // is running on; the nested call runs inline instead.
            run_chunks(outer.len(), 4, |inner| inner.len())
                .into_iter()
                .sum::<usize>()
        })
        .into_iter()
        .sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn panic_in_one_chunk_propagates_and_pool_stays_usable() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_chunks(16, 4, |range| {
                if range.contains(&5) {
                    panic!("chunk boom");
                }
                range.len()
            })
        }));
        let payload = result.expect_err("the chunk panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(message, "chunk boom");
        // The pool must come back clean for the next job.
        for _ in 0..3 {
            let sum: usize = run_chunks(16, 4, |range| range.len()).into_iter().sum();
            assert_eq!(sum, 16);
        }
    }

    #[test]
    fn hardware_threads_is_stable_and_positive() {
        assert!(hardware_threads() >= 1);
        assert_eq!(hardware_threads(), hardware_threads());
    }

    // The tests below drive the dispatch machinery (condvar wake, chunk
    // claiming, completion barrier, panic funnel) against a dedicated
    // multi-worker pool, so they exercise the real parked-worker path even
    // on a single-core host where the public API would run inline.

    fn test_pool() -> &'static Pool {
        static POOL: OnceLock<&'static Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool::leak_with_workers(3))
    }

    #[test]
    fn parked_workers_execute_chunks_and_results_stay_ordered() {
        let pool = test_pool();
        for _ in 0..50 {
            let parts = run_on(pool, 100, 13, &|range: Range<usize>| range.clone());
            assert_eq!(parts.len(), 8);
            let mut expected_start = 0;
            for part in &parts {
                assert_eq!(part.start, expected_start);
                expected_start = part.end;
            }
            assert_eq!(expected_start, 100);
        }
    }

    #[test]
    fn parked_workers_actually_participate() {
        let pool = test_pool();
        // Forced, not probable: chunk 0 refuses to finish until a chunk has
        // been entered on another thread. Whoever claims chunk 0 — the
        // dispatcher or a worker — the job can only complete if a parked
        // worker wakes and claims a chunk, however loaded the host is.
        let entered: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let another_entered = Condvar::new();
        run_on(pool, 4, 1, &|range: Range<usize>| {
            let mut threads = entered.lock().unwrap();
            threads.insert(std::thread::current().id());
            another_entered.notify_all();
            if range.start == 0 {
                let (_threads, wait) = another_entered
                    .wait_timeout_while(threads, Duration::from_secs(30), |t| t.len() < 2)
                    .unwrap();
                assert!(
                    !wait.timed_out(),
                    "no parked worker claimed a chunk within 30 s"
                );
            }
        });
    }

    #[test]
    fn worker_panic_propagates_and_workers_survive() {
        let pool = test_pool();
        for _ in 0..20 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_on(pool, 8, 1, &|range: Range<usize>| {
                    panic!("worker boom {}", range.start);
                })
            }));
            assert!(result.is_err(), "the panic must reach the dispatcher");
            let sum: usize = run_on(pool, 8, 1, &|range: Range<usize>| range.len())
                .into_iter()
                .sum();
            assert_eq!(sum, 8, "the pool must stay usable after a panic");
        }
    }

    #[test]
    fn concurrent_dispatchers_queue_without_interference() {
        let pool = test_pool();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|seed| {
                    scope.spawn(move || {
                        let mut totals = Vec::new();
                        for round in 0..25 {
                            let n = 17 + (seed * 7 + round) % 90;
                            let total: usize =
                                run_on(pool, n, 5, &|range: Range<usize>| range.sum::<usize>())
                                    .into_iter()
                                    .sum();
                            totals.push((n, total));
                        }
                        totals
                    })
                })
                .collect();
            for handle in handles {
                for (n, total) in handle.join().unwrap() {
                    assert_eq!(total, n * (n - 1) / 2);
                }
            }
        });
    }
}
