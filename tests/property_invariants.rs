//! Property-based tests on the core invariants of the reproduction:
//! softmax/entropy behaviour, aggregation as a convex combination, selection
//! set sizes and ordering, Dirichlet partitioning conservation, and parameter
//! vector round-trips.
//!
//! The original seed used `proptest`, which is unavailable in the offline
//! build environment; the same invariants are exercised here with a
//! hand-rolled randomised-case loop over the deterministic `rand` shim, so
//! every failure is reproducible from the case index.

use fedft::core::entropy::rank_by_entropy;
use fedft::core::{Client, ClientUpdate, SelectionContext, SelectionStrategy, Server};
use fedft::data::{partition, Dataset};
use fedft::nn::{BlockNet, BlockNetConfig, FreezeLevel, ParamVector};
use fedft::tensor::{stats, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// Runs `body` for `CASES` deterministic random cases, labelling panics with
/// the case index so failures are reproducible.
fn for_each_case(test_name: &str, mut body: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xF00D ^ case.wrapping_mul(0x9E37_79B9));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            eprintln!("{test_name}: failing case index {case}");
            std::panic::resume_unwind(payload);
        }
    }
}

fn small_f32(rng: &mut StdRng) -> f32 {
    let v = rng.gen_range(-50.0f32..50.0);
    (v * 100.0).round() / 100.0
}

#[test]
fn softmax_rows_are_probability_distributions() {
    for_each_case("softmax_rows_are_probability_distributions", |rng| {
        let rows = rng.gen_range(1usize..6);
        let cols = rng.gen_range(2usize..8);
        let temperature = rng.gen_range(0.05f32..5.0);
        let values: Vec<f32> = (0..rows * cols)
            .map(|_| rng.gen_range(-30.0f32..30.0))
            .collect();
        let m = Matrix::from_vec(rows, cols, values).unwrap();
        let p = stats::softmax_with_temperature(&m, temperature).unwrap();
        for r in 0..rows {
            let row_sum: f32 = p.row(r).iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-4, "row {r} sums to {row_sum}");
            assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    });
}

#[test]
fn entropy_is_bounded_by_log_of_classes() {
    for_each_case("entropy_is_bounded_by_log_of_classes", |rng| {
        let cols = rng.gen_range(2usize..10);
        let values: Vec<f32> = (0..cols).map(|_| rng.gen_range(-20.0f32..20.0)).collect();
        let m = Matrix::from_vec(1, cols, values).unwrap();
        let p = stats::softmax(&m).unwrap();
        let h = stats::shannon_entropy(p.row(0));
        assert!(h >= -1e-6, "entropy {h} must be non-negative");
        assert!(
            h <= (cols as f32).ln() + 1e-4,
            "entropy {h} above ln({cols})"
        );
    });
}

#[test]
fn hardening_never_increases_entropy() {
    for_each_case("hardening_never_increases_entropy", |rng| {
        let cols = rng.gen_range(2usize..8);
        let values: Vec<f32> = (0..cols).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let m = Matrix::from_vec(1, cols, values).unwrap();
        let standard = stats::softmax_with_temperature(&m, 1.0).unwrap();
        let hardened = stats::softmax_with_temperature(&m, 0.2).unwrap();
        let h_standard = stats::shannon_entropy(standard.row(0));
        let h_hardened = stats::shannon_entropy(hardened.row(0));
        assert!(
            h_hardened <= h_standard + 1e-4,
            "hardened entropy {h_hardened} exceeds standard {h_standard}"
        );
    });
}

#[test]
fn entropy_ranking_is_a_permutation_sorted_descending() {
    for_each_case(
        "entropy_ranking_is_a_permutation_sorted_descending",
        |rng| {
            let n = rng.gen_range(1usize..40);
            let entropies: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0f32..3.0)).collect();
            let order = rank_by_entropy(&entropies);
            assert_eq!(order.len(), entropies.len());
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..entropies.len()).collect::<Vec<_>>());
            for pair in order.windows(2) {
                assert!(entropies[pair[0]] >= entropies[pair[1]]);
            }
        },
    );
}

#[test]
fn aggregation_is_a_convex_combination() {
    for_each_case("aggregation_is_a_convex_combination", |rng| {
        let clients = rng.gen_range(1usize..6);
        let thetas: Vec<Vec<f32>> = (0..clients)
            .map(|_| (0..4).map(|_| small_f32(rng)).collect())
            .collect();
        let weights: Vec<usize> = (0..clients).map(|_| rng.gen_range(1usize..100)).collect();
        let updates: Vec<ClientUpdate> = thetas
            .iter()
            .zip(&weights)
            .enumerate()
            .map(|(id, (theta, &selected))| ClientUpdate {
                client_id: id,
                theta: ParamVector::from_values(theta.clone()),
                selected_samples: selected,
                local_samples: selected,
                train_loss: 0.0,
                compute_seconds: 1.0,
                cached_compute_seconds: 0.5,
            })
            .collect();
        let aggregated = Server::new().aggregate(&updates, 0).unwrap();
        for i in 0..4 {
            let min = thetas.iter().map(|t| t[i]).fold(f32::INFINITY, f32::min);
            let max = thetas
                .iter()
                .map(|t| t[i])
                .fold(f32::NEG_INFINITY, f32::max);
            assert!(aggregated.values()[i] >= min - 1e-3);
            assert!(aggregated.values()[i] <= max + 1e-3);
        }
    });
}

#[test]
fn selection_count_matches_fraction_and_indices_are_unique() {
    // A random subset reads neither the model nor the features.
    let model = BlockNet::new(&BlockNetConfig::new(1, 2).with_hidden(1, 1, 1), 0);
    let freeze = FreezeLevel::Moderate;
    let mut suffix = model.trainable_suffix(freeze);
    for_each_case(
        "selection_count_matches_fraction_and_indices_are_unique",
        |rng| {
            let samples = rng.gen_range(1usize..60);
            let fraction = f64::from(rng.gen_range(1u32..101)) / 100.0;
            let round = rng.gen_range(0usize..5);
            let policy = SelectionStrategy::Random { fraction }.policy();
            let (features, labels) = (Matrix::zeros(samples, 1), vec![0; samples]);
            let mut ctx = SelectionContext::with_lazy_boundary(
                &mut suffix,
                &model,
                freeze,
                &features,
                &labels,
                round,
                0,
                9,
            );
            let selected = policy.select(&mut ctx).unwrap();
            let keep = (fraction * samples as f64).ceil() as usize;
            assert_eq!(selected.len(), keep.clamp(1, samples));
            assert!(!selected.is_empty());
            assert!(selected.len() <= samples);
            let mut unique = selected.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), selected.len());
            assert!(unique.iter().all(|&i| i < samples));
        },
    );
}

#[test]
fn dirichlet_partition_assigns_every_sample_exactly_once() {
    for_each_case(
        "dirichlet_partition_assigns_every_sample_exactly_once",
        |rng| {
            let samples_per_class = rng.gen_range(2usize..20);
            let num_classes = rng.gen_range(2usize..6);
            let alpha = f64::from(rng.gen_range(1u32..200)) / 100.0;
            let seed = rng.gen_range(0u64..5);
            let total = samples_per_class * num_classes;
            let clients = rng.gen_range(1usize..8).min(total);
            let features = Matrix::zeros(total, 2);
            let labels: Vec<usize> = (0..total).map(|i| i % num_classes).collect();
            let dataset = Dataset::new(features, labels, num_classes).unwrap();
            let shards = partition::dirichlet_partition(&dataset, clients, alpha, seed).unwrap();
            assert_eq!(shards.len(), clients);
            let mut all: Vec<usize> = shards.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all.len(), total);
            all.dedup();
            assert_eq!(all.len(), total);
        },
    );
}

#[test]
fn param_vector_roundtrip_preserves_model_output() {
    for_each_case("param_vector_roundtrip_preserves_model_output", |rng| {
        let seed = rng.gen_range(0u64..50);
        let scale = rng.gen_range(0.5f32..2.0);
        let cfg = BlockNetConfig::new(6, 3).with_hidden(8, 8, 8);
        let mut original = BlockNet::new(&cfg, seed);
        // Perturb the parameters so different seeds exercise different values.
        let perturbed = ParamVector::from_values(
            original
                .full_vector()
                .values()
                .iter()
                .map(|v| v * scale)
                .collect(),
        );
        original.set_full_vector(&perturbed).unwrap();

        let mut restored = BlockNet::new(&cfg, seed.wrapping_add(1));
        restored.set_full_vector(&original.full_vector()).unwrap();

        let x = Matrix::from_vec(2, 6, (0..12).map(|v| v as f32 * 0.1).collect()).unwrap();
        let a = original.forward(&x).unwrap();
        let b = restored.forward(&x).unwrap();
        assert!(a.approx_eq(&b, 1e-6));
    });
}

#[test]
fn client_update_weighting_is_deterministic_across_identical_runs() {
    // Not a randomised case: a single deterministic check that two identical
    // clients produce byte-identical updates, the foundation of
    // reproducibility.
    let features =
        Matrix::from_vec(12, 4, (0..48).map(|v| (v % 7) as f32 * 0.3).collect()).unwrap();
    let dataset = Dataset::new(features, (0..12).map(|i| i % 3).collect(), 3).unwrap();
    let model = BlockNet::new(&BlockNetConfig::new(4, 3).with_hidden(8, 8, 8), 2);
    let config = fedft::core::FlConfig::default()
        .with_rounds(1)
        .with_local_epochs(2)
        .with_batch_size(4);
    let a = Client::new(0, dataset.clone())
        .local_update(&model, &config, 0)
        .unwrap();
    let b = Client::new(0, dataset)
        .local_update(&model, &config, 0)
        .unwrap();
    assert_eq!(a, b);
}
