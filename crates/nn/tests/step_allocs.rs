//! Allocation guards: once its buffers are warm, a
//! [`SuffixNet::train_batch`] on batches of the sizes it has seen — a full
//! one and a client's short last one — allocates nothing, an inference
//! pass allocates nothing activation-sized besides the matrix it returns,
//! and a model copy allocates its parameters and nothing else.
//!
//! These are the `malloc` twins of the inference-side guard
//! `suffix::snapshots_of_an_evaluated_model_hold_no_activations`: that one
//! keeps activations out of snapshots, these keep them out of the heap. The
//! counters are per thread, so each test reads only its own thread's calls.

use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel, Sgd, SgdConfig};
use fedft_tensor::parallel::single_threaded;
use fedft_tensor::{init, rng, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting this thread's allocation calls (reallocations
/// included; frees are not allocations).
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Allocations of more than [`THRESHOLD`] bytes.
    static LARGE: Cell<usize> = const { Cell::new(0) };
    static THRESHOLD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    if THRESHOLD
        .try_with(Cell::get)
        .is_ok_and(|threshold| bytes > threshold)
    {
        let _ = LARGE.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// How many allocations of more than `threshold` bytes `f` makes on this
/// thread.
fn large_allocations<T>(threshold: usize, f: impl FnOnce() -> T) -> (usize, T) {
    THRESHOLD.with(|t| t.set(threshold));
    let before = LARGE.with(Cell::get);
    let value = f();
    THRESHOLD.with(|t| t.set(usize::MAX));
    (LARGE.with(Cell::get) - before, value)
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

#[test]
fn a_warm_inference_pass_allocates_nothing_activation_sized_but_its_result() {
    // Several row blocks, run on this thread as an executor runner runs
    // them, and a single block, which runs on the caller in any case.
    let config = BlockNetConfig::new(24, 10).with_hidden(48, 40, 32);
    let model = BlockNet::new(&config, 19);
    let mut r = rng::rng_for(19, "inference-allocs");
    for rows in [300, 100] {
        let features = init::normal(&mut r, rows, 24, 0.0, 1.0);
        let labels: Vec<usize> = (0..rows).map(|i| i % 10).collect();
        // Anything larger than one value a row is activation-sized: the
        // narrowest activation, the logits, holds ten.
        let per_row = std::mem::size_of::<f32>() * rows;
        single_threaded(|| {
            for freeze in FreezeLevel::all() {
                let boundary = model.forward_frozen(freeze, &features).unwrap();
                model.evaluate_from(freeze, &boundary, &labels).unwrap();

                let (large, warm) =
                    large_allocations(per_row, || model.forward_frozen(freeze, &features));
                assert_eq!(warm.unwrap(), boundary);
                assert_eq!(
                    large,
                    1,
                    "{rows} rows at {freeze}: the result and {} more",
                    large - 1
                );
                let (large, report) =
                    large_allocations(per_row, || model.evaluate_from(freeze, &boundary, &labels));
                assert_eq!(report.unwrap().samples, rows);
                assert_eq!(large, 0, "{rows} rows at {freeze}: evaluation");
            }
        });
    }
}

#[test]
fn a_model_copy_allocates_its_parameters_and_nothing_else() {
    // A model in a run's state: evaluated, and written back from a trained
    // `Full` suffix, as pretraining leaves the global model.
    let config = BlockNetConfig::new(24, 10).with_hidden(48, 40, 32);
    let mut model = BlockNet::new(&config, 23);
    let mut r = rng::rng_for(23, "copy-allocs");
    let features = init::normal(&mut r, 32, 24, 0.0, 1.0);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    model.evaluate_accuracy(&features, &labels).unwrap();
    let mut suffix = model.trainable_suffix(FreezeLevel::Full);
    let mut optimizer = Sgd::new(SgdConfig::default()).unwrap();
    suffix
        .train_batch(&features, &labels, &mut optimizer)
        .unwrap();
    model.set_full_vector(&suffix.trainable_vector()).unwrap();

    // Each block's weight and bias byte sizes, low block first.
    let widths = [24, 48, 40, 32, 10];
    let f32_bytes = std::mem::size_of::<f32>();
    let tensors: Vec<[usize; 2]> = widths
        .windows(2)
        .map(|w| [w[0] * w[1] * f32_bytes, w[1] * f32_bytes])
        .collect();
    let smallest_weight = tensors.iter().map(|[weight, _]| *weight).min().unwrap();
    // Allocations at or above the smallest weight's size: one per parameter
    // tensor at least that large, in the blocks copied.
    let bound = |blocks: &[[usize; 2]]| {
        blocks
            .iter()
            .flatten()
            .filter(|&&bytes| bytes >= smallest_weight)
            .count()
    };

    let (large, copy) = large_allocations(smallest_weight - 1, || model.clone());
    assert_eq!(copy.full_vector(), model.full_vector());
    assert!(
        large <= bound(&tensors),
        "a model clone: {large} allocations of at least {smallest_weight} bytes"
    );
    for freeze in FreezeLevel::all() {
        let trainable = &tensors[freeze.frozen_blocks()..];
        let (large, snapshot) =
            large_allocations(smallest_weight - 1, || model.trainable_suffix(freeze));
        assert_eq!(snapshot.trainable_vector(), model.trainable_vector(freeze));
        assert!(
            large <= bound(trainable),
            "a snapshot at {freeze}: {large} allocations of at least {smallest_weight} bytes"
        );
    }
}
