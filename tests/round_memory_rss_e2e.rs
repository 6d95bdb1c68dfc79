//! A process that runs one simulation after another does not grow.
//!
//! The memory half of `tests/round_memory_e2e.rs`, in a test binary of its
//! own because resident memory is a property of the process: six pooled runs
//! of a logical client pool must end no more than 5% above where the second
//! run ended. A run that leaves its uploads behind — 6.5 MB here — fails
//! that at once. The bound is too wide for the slow kind of growth this
//! change was measured against: θ uploads allocated on the pool's workers
//! and freed on the caller go back to the *workers'* malloc arenas, where
//! the caller's next run cannot reuse them, and a benchmark process shows
//! it as `peak_rss_mb` growing with `--seconds` (+2.5% over these six runs
//! with the top-up in `Executor::train` removed, +0.4% with it). That one is
//! read off the benchmark binary; the verify skill has the recipe.

#![cfg(target_os = "linux")]

use fedft::core::{ExecutionBackend, FlConfig, Method, Simulation};
use fedft::data::federated::PartitionScheme;
use fedft::data::{domains, FederatedDataset};
use fedft::nn::{BlockNet, BlockNetConfig};

/// This process's resident set, in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|line| line.starts_with("VmRSS:"))
        .expect("a VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmRSS in KiB")
}

#[test]
fn six_pooled_runs_end_where_the_second_one_did() {
    let target = domains::cifar10_like()
        .with_samples_per_class(40)
        .with_test_samples_per_class(10)
        .generate(6)
        .expect("target generation");
    let fed = FederatedDataset::partition(
        &target.train,
        target.test.clone(),
        20,
        PartitionScheme::Dirichlet { alpha: 0.5 },
        7,
    )
    .expect("partitioning");
    let model_cfg = BlockNetConfig::new(target.train.feature_dim(), target.train.num_classes())
        .with_hidden(96, 96, 96);
    let model = BlockNet::new(&model_cfg, 5);
    // 160 uploads of 41 KB a round — 6.5 MB a run that a ratchet would add.
    let config = Method::FedFtEds { pds: 0.1 }.configure(
        FlConfig::default()
            .with_rounds(3)
            .with_local_epochs(1)
            .with_batch_size(16)
            .with_logical_clients(4_000)
            .with_participation(0.04)
            .with_feature_cache(true)
            .with_worker_threads(2)
            .with_execution(ExecutionBackend::Parallel),
    );
    let simulation = Simulation::new(config).expect("valid config");

    let mut after = Vec::new();
    let mut accuracy = Vec::new();
    for _ in 0..6 {
        let result = simulation.run(&fed, &model).expect("simulation succeeds");
        assert_eq!(result.rounds[0].participants, 160);
        accuracy.push(result.final_accuracy().to_bits());
        after.push(vm_rss_kib());
    }
    assert!(accuracy.iter().all(|a| *a == accuracy[0]));
    let (second, sixth) = (after[1], after[5]);
    assert!(
        sixth * 100 <= second * 105,
        "VmRSS after each run, KiB: {after:?} — the sixth run ended more than 5% \
         above the second"
    );
}
