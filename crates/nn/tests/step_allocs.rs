//! Allocation guard for the training step: once its buffers are warm, a
//! [`SuffixNet::train_batch`] on batches of the sizes it has seen — a full
//! one and a client's short last one — allocates nothing.
//!
//! This is the training-side twin of the inference-side guard
//! `suffix::snapshots_of_an_evaluated_model_hold_no_activations`: that one
//! keeps activations out of snapshots, this one keeps `malloc` out of the
//! step. The file holds a single test because the counter is per thread and
//! the allocator is per test binary.

use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel, Sgd, SgdConfig};
use fedft_tensor::{init, rng, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting this thread's allocation calls (reallocations
/// included; frees are not allocations).
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_warm_training_step_performs_no_heap_allocation() {
    // The `paper_default` step shape in small: three trainable dense layers.
    // A client's last batch is short, so the step alternates two sizes: 32
    // rows are whole register slabs, 7 take the kernels' row-remainder path;
    // the 10-class head takes their column panel at every level, and `Large`
    // / `Full` the scratch of an inter-layer `dX`. All of it is grow-only.
    let config = BlockNetConfig::new(24, 10).with_hidden(48, 40, 32);
    let model = BlockNet::new(&config, 17);
    let mut r = rng::rng_for(17, "step-allocs");
    let batches: Vec<(Matrix, Vec<usize>)> = [32, 7]
        .into_iter()
        .map(|rows| {
            let features = init::normal(&mut r, rows, 24, 0.0, 1.0);
            (features, (0..rows).map(|i| i % 10).collect())
        })
        .collect();

    for freeze in FreezeLevel::all() {
        let boundaries: Vec<Matrix> = batches
            .iter()
            .map(|(features, _)| model.forward_frozen(freeze, features).unwrap())
            .collect();
        let mut suffix = model.trainable_suffix(freeze);
        let mut optimizer = Sgd::new(SgdConfig::default()).unwrap();

        // One warm-up step of each size sizes every buffer: the workspace,
        // the layers' cached inputs, the optimiser's velocities, the kernels'
        // transpose and panel scratch.
        let mut last = 0.0;
        for (boundary, (_, labels)) in boundaries.iter().zip(&batches) {
            last = suffix
                .train_batch(boundary, labels, &mut optimizer)
                .unwrap();
        }
        assert!(allocations() > 0, "the counter sees this thread");

        let before = allocations();
        for step in 0..50 {
            let (boundary, (_, labels)) = (&boundaries[step % 2], &batches[step % 2]);
            last = suffix
                .train_batch(boundary, labels, &mut optimizer)
                .unwrap();
        }
        let during = allocations() - before;
        assert!(last.is_finite());
        assert_eq!(
            during, 0,
            "{during} heap allocations in 50 warm steps at {freeze}"
        );
    }
}
