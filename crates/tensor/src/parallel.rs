//! Coordination between the crate's internal parallelism and callers that
//! already parallelise above it.
//!
//! The blocked matmul kernels, the inference walk and the pooled
//! aggregation cut their work into parts and hand them to the persistent
//! worker pool ([`crate::pool`]). When a caller is already running one task
//! per core, letting every task fan its parts out again would oversubscribe
//! the machine quadratically. [`single_threaded`] is the one flag that says
//! "run inline on this thread", and the pool's dispatcher
//! ([`crate::pool::run_parts`]) is the one place that reads it: inside its
//! scope every job's parts run on the calling thread, in part order. Every
//! chunk the pool runs is in that scope, on a worker or on the dispatcher,
//! and callers that parallelise above the pool on threads of their own can
//! mark their tasks with it too. Results are unaffected either way — the
//! parts are cut the same, and the kernels are deterministic for any thread
//! count.

use std::cell::Cell;

thread_local! {
    static SINGLE_THREADED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this crate's internal thread-parallelism disabled on the
/// current thread (nested calls are fine; the flag is restored on exit,
/// including on panic-unwind since the guard lives on the stack).
pub fn single_threaded<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SINGLE_THREADED.with(|flag| flag.set(self.0));
        }
    }
    let _guard = SINGLE_THREADED.with(|flag| {
        let previous = flag.get();
        flag.set(true);
        Restore(previous)
    });
    f()
}

/// `true` while inside a [`single_threaded`] scope on this thread.
pub(crate) fn is_single_threaded() -> bool {
    SINGLE_THREADED.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_is_scoped_and_restored() {
        assert!(!is_single_threaded());
        let value = single_threaded(|| {
            assert!(is_single_threaded());
            single_threaded(|| assert!(is_single_threaded()));
            assert!(
                is_single_threaded(),
                "nested exit must not clear the outer scope"
            );
            42
        });
        assert_eq!(value, 42);
        assert!(!is_single_threaded());
    }

    #[test]
    fn flag_is_per_thread() {
        single_threaded(|| {
            std::thread::scope(|scope| {
                scope
                    .spawn(|| assert!(!is_single_threaded(), "flag must not leak across threads"))
                    .join()
                    .unwrap();
            });
        });
    }

    #[test]
    fn flag_is_restored_after_panic() {
        let result = std::panic::catch_unwind(|| single_threaded(|| panic!("boom")));
        assert!(result.is_err());
        assert!(!is_single_threaded(), "unwind must restore the flag");
    }
}
