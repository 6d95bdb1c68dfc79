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
//! The pool is lazily initialised on the first parallel [`run_parts`] call
//! and lives for the remainder of the process; workers are never torn down.
//! A host with a single core (or a job of a single part) never spawns
//! anything — the calling thread runs every part inline. One job runs at a
//! time; concurrent dispatchers queue on the dispatch lock in arrival order.
//!
//! # Determinism contract
//!
//! [`run_parts`] runs one chunk per part and returns the results in part
//! order; the parts are cut **from the requested worker count alone**
//! ([`chunk_len`]), never from how many workers happen to be parked or
//! idle. A pass over rows is cut here, by [`row_runs`] (contiguous runs of
//! rows, each with its disjoint `&mut` rows of the one output);
//! [`run_chunks`] is `run_parts` over the ranges of
//! [`chunk_len`]`(n_items, max_workers)` items. Each part is moved into the
//! one chunk that runs it: the pool's claim cursor hands every chunk out
//! once, and the chunk's slot holds its part until then and its result
//! after. Which OS thread executes which chunk is scheduling noise by
//! construction: chunks share nothing, so every caller observes
//! byte-identical results at any pool size, including zero workers. The
//! executor- and GEMM-level bit-identity suites pin this.
//!
//! # Inline runs and `single_threaded` interplay
//!
//! [`run_parts`] is the one place that decides whether a job runs inline:
//! with one part, on a single-core host, or inside a
//! [`crate::parallel::single_threaded`] scope, and no caller keeps a branch
//! of its own for those cases. Every chunk the pool runs — on a worker or
//! on the dispatcher, through one claim step — runs in that scope, so
//! nesting cannot oversubscribe the machine or deadlock the single-job
//! pool: a product inside a chunk is still cut into its parts, and they
//! run inline.
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
//! places: sending the job pointer (`Job`) and dereferencing it in the one
//! claim step (`run_claimed`). Soundness rests on one invariant, stated at
//! both sites: **the dispatcher does not return until every claimed chunk
//! of its job has finished executing**, so the erased reference never
//! outlives the frame that owns it.
#![allow(unsafe_code)]

use crate::parallel;
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

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

/// Runs `f` over `0..n_items` split into at most `max_workers` contiguous
/// chunks (boundaries per [`chunk_len`]), returning the per-chunk results
/// in chunk order: [`run_parts`] over those ranges.
///
/// # Panics
///
/// Re-raises the first panic any chunk raised, after all chunks finished.
pub fn run_chunks<T, F>(n_items: usize, max_workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    run_parts(ranges(0..n_items, chunk_len(n_items, max_workers)), f)
}

/// `rows` cut into consecutive ranges of `len` rows, the last one short.
fn ranges(rows: Range<usize>, len: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
    let end = rows.end;
    rows.step_by(len)
        .map(move |start| start..(start + len).min(end))
}

/// The parts of a pass over `rows` that writes `per_row` values a row into
/// `out`, whose first row is `rows.start`: `rows` cut into consecutive runs
/// of `len` rows, the last one short, each paired with its disjoint rows of
/// `out`, for [`run_parts`] — or to walk one run in smaller steps. `len`
/// must be non-zero.
pub fn row_runs(
    rows: Range<usize>,
    len: usize,
    mut out: &mut [f32],
    per_row: usize,
) -> impl ExactSizeIterator<Item = (Range<usize>, &mut [f32])> {
    ranges(rows, len).map(move |run| {
        let (run_out, rest) = std::mem::take(&mut out).split_at_mut(run.len() * per_row);
        out = rest;
        (run, run_out)
    })
}

/// Runs `f` on every part of `parts` (a `Vec` or any exact-size iterator),
/// one pool chunk per part, and returns the results in part order. Each
/// part is moved into the one chunk that runs it, so a part can be a
/// disjoint `&mut` piece of an output the caller cut.
///
/// Chunks execute on the pool's parked workers plus the calling thread,
/// each inside a [`crate::parallel::single_threaded`] scope. With one part,
/// on a single-core host, or inside such a scope (every pool job is one)
/// they all run inline on the calling thread instead, in part order; a lone
/// part outside such a scope stays outside it, so its products still split.
/// Either way the parts and the result order are the caller's —
/// parallelism here is purely a wall-clock knob.
///
/// # Panics
///
/// Re-raises the first panic any chunk raised, after all chunks finished.
pub fn run_parts<P, T, I>(parts: I, f: impl Fn(P) -> T + Sync) -> Vec<T>
where
    P: Send,
    T: Send,
    I: IntoIterator<Item = P>,
    I::IntoIter: ExactSizeIterator,
{
    let parts = parts.into_iter();
    if parts.len() <= 1 || hardware_threads() <= 1 || parallel::is_single_threaded() {
        return parts.map(f).collect();
    }
    run_on(global(), parts, &f)
}

/// A dispatched job: a type-erased chunk runner plus its chunk count.
///
/// `task` points at a `dyn Fn(usize) + Sync` that lives in the dispatching
/// [`run_on`] frame. The pointer is only dereferenced between job
/// publication and the dispatcher observing completion; the dispatcher
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
    let mut state = pool.state.lock().expect("pool state lock");
    loop {
        state = match claim(&mut state) {
            Some(claimed) => run_claimed(pool, state, claimed),
            None => pool.work.wait(state).expect("pool state lock"),
        };
    }
}

/// Hands out the next chunk of the current job, if one is left, and counts
/// its runner as active. Workers and the dispatcher claim through here.
fn claim(state: &mut State) -> Option<(Job, usize)> {
    let job = state.job?;
    if state.next_chunk >= job.chunks {
        return None;
    }
    state.next_chunk += 1;
    state.active += 1;
    Some((job, state.next_chunk - 1))
}

/// Runs a chunk [`claim`] handed out: unlocks the state, runs the chunk
/// single-threaded under `catch_unwind` (so its own `run_parts` calls run
/// inline), relocks, records any panic, and wakes the dispatcher when the
/// job's last chunk ends. Returns the relocked state.
fn run_claimed<'p>(
    pool: &'p Pool,
    state: MutexGuard<'p, State>,
    (job, chunk): (Job, usize),
) -> MutexGuard<'p, State> {
    drop(state);
    // SAFETY: the dispatcher that published `job` is blocked in `dispatch`
    // until `active` returns to zero for an exhausted claim cursor — or is
    // the thread running this chunk — so the frame owning the pointee is
    // still on its stack.
    let task = unsafe { &*job.task };
    let result = catch_unwind(AssertUnwindSafe(|| {
        parallel::single_threaded(|| task(chunk))
    }));
    let mut state = pool.state.lock().expect("pool state lock");
    state.active -= 1;
    if let Err(payload) = result {
        state.panic.get_or_insert(payload);
    }
    if state.next_chunk >= job.chunks && state.active == 0 {
        pool.done.notify_all();
    }
    state
}

/// What one chunk's slot holds: its part until the chunk claims it, then
/// its result.
enum Slot<P, T> {
    Part(P),
    Claimed,
    Done(T),
}

/// The parallel branch of [`run_parts`], against an explicit pool so tests
/// can drive the dispatch machinery with a fixed worker count on any host.
fn run_on<P, T>(
    pool: &'static Pool,
    parts: impl Iterator<Item = P>,
    f: &(impl Fn(P) -> T + Sync),
) -> Vec<T>
where
    P: Send,
    T: Send,
{
    let slots: Vec<Mutex<Slot<P, T>>> = parts.map(|part| Mutex::new(Slot::Part(part))).collect();
    let runner = |index: usize| {
        let slot = &slots[index];
        let claimed = std::mem::replace(&mut *slot.lock().expect("pool slot lock"), Slot::Claimed);
        let Slot::Part(part) = claimed else {
            unreachable!("the claim cursor hands every chunk out once");
        };
        let result = f(part);
        *slot.lock().expect("pool slot lock") = Slot::Done(result);
    };
    dispatch(pool, slots.len(), &runner);
    slots
        .into_iter()
        .map(|slot| match slot.into_inner().expect("pool slot lock") {
            Slot::Done(result) => result,
            Slot::Part(_) | Slot::Claimed => {
                unreachable!("dispatch returns once every chunk has stored its result")
            }
        })
        .collect()
}

/// Publishes a job, participates in it from the calling thread, and blocks
/// until every chunk has finished; re-raises the first recorded panic.
fn dispatch(pool: &'static Pool, chunks: usize, task: &(dyn Fn(usize) + Sync)) {
    let turn = pool.dispatch.lock().expect("pool dispatch lock");
    // SAFETY: erasing the borrow to publish it to 'static workers. The
    // barrier below keeps this frame alive until no worker can hold the
    // pointer any more, and `state.job` is cleared before the dispatch
    // lock is released.
    let erased = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
    };
    let mut state = pool.state.lock().expect("pool state lock");
    debug_assert!(state.job.is_none(), "the dispatch lock serialises jobs");
    state.job = Some(Job {
        task: erased,
        chunks,
    });
    state.next_chunk = 0;
    state.active = 0;
    state.panic = None;
    pool.work.notify_all();

    // The calling thread is a full participant: it claims and runs chunks
    // exactly as a worker does until the cursor is exhausted.
    while let Some(claimed) = claim(&mut state) {
        state = run_claimed(pool, state, claimed);
    }

    // Completion barrier: no return while any worker is inside a chunk.
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
            let parts = run_on(pool, ranges(0..100, 13), &|range: Range<usize>| {
                range.clone()
            });
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
        run_on(pool, ranges(0..4, 1), &|range: Range<usize>| {
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
                run_on(pool, ranges(0..8, 1), &|range: Range<usize>| {
                    panic!("worker boom {}", range.start);
                })
            }));
            assert!(result.is_err(), "the panic must reach the dispatcher");
            let sum: usize = run_on(pool, ranges(0..8, 1), &|range: Range<usize>| range.len())
                .into_iter()
                .sum();
            assert_eq!(sum, 8, "the pool must stay usable after a panic");
        }
    }

    #[test]
    fn mut_parts_reach_one_chunk_each_and_results_keep_part_order() {
        let pool = test_pool();
        let mut buffer = [0.0_f32; 23];
        for job in 1..=50_u8 {
            // Every element gains its part's number once per job: a part
            // run twice, or run on another part's slice, shows in the sums.
            let lens = run_on(
                pool,
                buffer.chunks_mut(5).enumerate(),
                &|(index, part): (usize, &mut [f32])| {
                    part.iter_mut().for_each(|x| *x += (index + 1) as f32);
                    (index, part.len())
                },
            );
            assert_eq!(lens, [(0, 5), (1, 5), (2, 5), (3, 5), (4, 3)]);
            for (at, &x) in buffer.iter().enumerate() {
                assert_eq!(
                    x,
                    f32::from(job) * (at / 5 + 1) as f32,
                    "job {job}, at {at}"
                );
            }
        }

        let result = catch_unwind(AssertUnwindSafe(|| {
            run_on(
                pool,
                buffer.chunks_mut(5).enumerate(),
                &|(index, part): (usize, &mut [f32])| {
                    if index == 2 {
                        panic!("part boom");
                    }
                    part.fill(-1.0);
                },
            )
        }));
        let payload = result.expect_err("the part's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("part boom"));
        // The pool must come back clean for the next job.
        let lens = run_on(pool, buffer.chunks_mut(5), &|part: &mut [f32]| {
            part.fill(1.0);
            part.len()
        });
        assert_eq!(lens, [5, 5, 5, 5, 3]);
        assert!(buffer.iter().all(|&x| x == 1.0));
    }

    /// What [`row_runs`] cut: each run's rows and the length of its slice
    /// of `out`.
    fn cut_rows(rows: Range<usize>, len: usize, per_row: usize) -> Vec<(Range<usize>, usize)> {
        let mut out = vec![0.0_f32; rows.len() * per_row];
        let runs = row_runs(rows, len, &mut out, per_row);
        let count = runs.len();
        let cut: Vec<_> = runs.map(|(run, out)| (run, out.len())).collect();
        assert_eq!(cut.len(), count, "the exact size is the run count");
        cut
    }

    #[test]
    fn row_runs_cut_consecutive_runs_each_with_its_rows_of_the_output() {
        // From a non-zero start, the last run short, three values a row.
        assert_eq!(
            cut_rows(5..15, 4, 3),
            [(5..9, 12), (9..13, 12), (13..15, 6)]
        );
        // Runs that divide the range evenly, one value a row.
        assert_eq!(cut_rows(0..6, 3, 1), [(0..3, 3), (3..6, 3)]);
        // A run longer than the range is the whole range.
        assert_eq!(cut_rows(7..10, 128, 2), [(7..10, 6)]);
        // An empty range has no run.
        assert!(cut_rows(4..4, 3, 5).is_empty());
        assert!(cut_rows(0..0, 1, 1).is_empty());
    }

    #[test]
    fn row_runs_on_the_pool_write_every_row_exactly_once() {
        let pool = test_pool();
        let per_row = 3;
        let mut out = vec![0.0_f32; 23 * per_row];
        for job in 1..=50_u8 {
            // Every value gains its row's number once per job: a run taken
            // twice, or written through another run's slice, shows.
            let runs = run_on(
                pool,
                row_runs(10..33, 5, &mut out, per_row),
                &|(run, out): (Range<usize>, &mut [f32])| {
                    assert_eq!(out.len(), run.len() * per_row);
                    for (row, values) in run.clone().zip(out.chunks_exact_mut(per_row)) {
                        values.iter_mut().for_each(|x| *x += row as f32);
                    }
                    run
                },
            );
            assert_eq!(runs, [10..15, 15..20, 20..25, 25..30, 30..33]);
            for (at, &x) in out.iter().enumerate() {
                let row = 10 + at / per_row;
                assert_eq!(x, f32::from(job) * row as f32, "job {job}, at {at}");
            }
        }
    }

    /// Runs four chunks on the test pool, each waiting until all four have
    /// been entered — so all four run at once, on the three workers and the
    /// dispatcher — and then running `then`. Records the thread of each
    /// chunk and whether it ran single-threaded.
    fn four_at_once(entered: &Mutex<Vec<(std::thread::ThreadId, bool)>>, then: impl Fn() + Sync) {
        let all_entered = Condvar::new();
        run_on(test_pool(), 0..4, &|_part: usize| {
            let mut seen = entered.lock().unwrap();
            seen.push((std::thread::current().id(), parallel::is_single_threaded()));
            all_entered.notify_all();
            let (seen, wait) = all_entered
                .wait_timeout_while(seen, Duration::from_secs(30), |seen| seen.len() < 4)
                .unwrap();
            drop(seen);
            assert!(
                !wait.timed_out(),
                "four chunks did not run at once within 30 s"
            );
            then();
        });
    }

    #[test]
    fn pool_jobs_run_single_threaded_on_workers_and_the_dispatcher() {
        let caller = std::thread::current().id();
        let check = |entered: Mutex<Vec<(std::thread::ThreadId, bool)>>, at: &str| {
            let entered = entered.into_inner().unwrap();
            assert!(entered.iter().all(|&(_, flag)| flag), "{at}: {entered:?}");
            let threads: HashSet<_> = entered.iter().map(|&(thread, _)| thread).collect();
            assert_eq!(threads.len(), 4, "{at}");
            assert!(
                threads.contains(&caller),
                "{at}: the dispatcher ran a chunk"
            );
            assert!(
                !parallel::is_single_threaded(),
                "{at}: the dispatcher's flag is restored"
            );
        };

        let entered = Mutex::new(Vec::new());
        four_at_once(&entered, || {});
        check(entered, "a job");

        let entered = Mutex::new(Vec::new());
        let result = catch_unwind(AssertUnwindSafe(|| {
            four_at_once(&entered, || panic!("every chunk panics"));
        }));
        assert!(result.is_err(), "the panic must reach the dispatcher");
        check(entered, "a panicked job");
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
                                run_on(pool, ranges(0..n, 5), &|range: Range<usize>| {
                                    range.sum::<usize>()
                                })
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
