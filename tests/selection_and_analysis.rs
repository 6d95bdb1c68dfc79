//! Cross-crate integration tests for the data-selection pipeline and the
//! analysis utilities (entropy histograms, CKA, report tables).

use fedft::analysis::cka::{client_cka_matrix, mean_offdiagonal};
use fedft::analysis::curves::{efficiency_points, learning_curves};
use fedft::analysis::Table;
use fedft::core::entropy::{sample_entropies, EntropyHistogram};
use fedft::core::pretrain::pretrain_global_model;
use fedft::core::{Client, FlConfig, Method, SelectionContext, SelectionStrategy, Simulation};
use fedft::data::federated::PartitionScheme;
use fedft::data::{domains, FederatedDataset};
use fedft::nn::{BlockId, BlockNet, BlockNetConfig};

fn pretrained_setup() -> (FederatedDataset, BlockNet) {
    let source = domains::source_imagenet32()
        .with_samples_per_class(40)
        .generate(1)
        .unwrap();
    let target = domains::cifar10_like()
        .with_samples_per_class(16)
        .with_test_samples_per_class(8)
        .generate(2)
        .unwrap();
    let model_cfg = BlockNetConfig::new(target.train.feature_dim(), target.train.num_classes())
        .with_hidden(32, 32, 32);
    let global = pretrain_global_model(&model_cfg, &source, 10, 3).unwrap();
    let fed = FederatedDataset::partition(
        &target.train,
        target.test.clone(),
        6,
        PartitionScheme::Dirichlet { alpha: 0.1 },
        5,
    )
    .unwrap();
    (fed, global)
}

#[test]
fn hardened_softmax_shifts_the_entropy_distribution_left() {
    let (fed, mut model) = pretrained_setup();
    let data = fed.client(0);
    let standard = sample_entropies(&mut model, data.features(), 1.0).unwrap();
    let hardened = sample_entropies(&mut model, data.features(), 0.1).unwrap();
    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
    assert!(mean(&hardened) < mean(&standard));

    let hist_standard = EntropyHistogram::from_entropies(&standard, data.num_classes(), 8).unwrap();
    let hist_hardened = EntropyHistogram::from_entropies(&hardened, data.num_classes(), 8).unwrap();
    let low_mass = |h: &EntropyHistogram| h.counts[..4].iter().sum::<usize>();
    assert!(low_mass(&hist_hardened) >= low_mass(&hist_standard));
}

#[test]
fn entropy_selection_changes_as_the_model_evolves() {
    // EDS is dynamic: after some training the model is confident about
    // different samples, so the selected subset should change between rounds.
    let (fed, global) = pretrained_setup();
    let strategy = SelectionStrategy::Entropy {
        fraction: 0.3,
        temperature: 0.1,
    };
    // Train the global model federatedly for a few rounds, then reselect.
    let config = Method::FedFtEds { pds: 0.5 }.configure(
        FlConfig::default()
            .with_rounds(5)
            .with_local_epochs(2)
            .with_seed(1),
    );
    let select = |model: &BlockNet| {
        let data = fed.client(0);
        let mut suffix = model.trainable_suffix(config.freeze);
        let mut ctx = SelectionContext::with_lazy_boundary(
            &mut suffix,
            model,
            config.freeze,
            data.features(),
            data.labels(),
            0,
            0,
            config.seed,
        );
        strategy.policy().select(&mut ctx).unwrap()
    };
    let selected_before = select(&global);
    let sim = Simulation::new(config.clone()).unwrap();
    sim.run(&fed, &global).unwrap();
    // Reproduce the trained global model by re-running one client update and
    // checking the selection machinery still works on an updated model.
    let client = Client::new(0, fed.client(0).clone());
    let update = client.local_update(&global, &config, 0).unwrap();
    let mut after = global.clone();
    after
        .set_trainable_vector(config.freeze, &update.theta)
        .unwrap();
    let selected_after = select(&after);

    assert_eq!(selected_before.len(), selected_after.len());
    assert_ne!(
        selected_before, selected_after,
        "selection should adapt to the updated model"
    );
}

#[test]
fn cka_is_higher_for_identically_initialised_clients_than_for_diverged_ones() {
    let (fed, global) = pretrained_setup();
    // Clones of the same model are perfectly aligned.
    let mut identical = vec![global.clone(), global.clone(), global.clone()];
    let aligned = client_cka_matrix(&mut identical, fed.test().features(), BlockId::Up).unwrap();
    assert!(mean_offdiagonal(&aligned) > 0.999);

    // Models fine-tuned on different non-IID shards drift apart.
    let config = Method::FedAvg.configure(
        FlConfig::default()
            .with_rounds(1)
            .with_local_epochs(3)
            .with_seed(2),
    );
    let mut drifted = Vec::new();
    for k in 0..3 {
        let client = Client::new(k, fed.client(k).clone());
        let update = client.local_update(&global, &config, 0).unwrap();
        let mut model = global.clone();
        model
            .set_trainable_vector(config.freeze, &update.theta)
            .unwrap();
        drifted.push(model);
    }
    let diverged = client_cka_matrix(&mut drifted, fed.test().features(), BlockId::Up).unwrap();
    assert!(
        mean_offdiagonal(&diverged) < mean_offdiagonal(&aligned),
        "locally trained models must be less aligned than identical copies"
    );
}

#[test]
fn run_results_feed_the_analysis_and_reporting_pipeline() {
    let (fed, global) = pretrained_setup();
    let base = FlConfig::default()
        .with_rounds(3)
        .with_local_epochs(1)
        .with_seed(4);
    let runs = vec![
        Simulation::new(Method::FedAvg.configure(base.clone()))
            .unwrap()
            .run_labelled("FedAvg", &fed, &global)
            .unwrap(),
        Simulation::new(Method::FedFtEds { pds: 0.5 }.configure(base))
            .unwrap()
            .run_labelled("FedFT-EDS (50%)", &fed, &global)
            .unwrap(),
    ];

    let points = efficiency_points(&runs);
    assert_eq!(points.len(), 2);
    let eds_point = points.iter().find(|p| p.label.contains("EDS")).unwrap();
    let avg_point = points.iter().find(|p| p.label == "FedAvg").unwrap();
    assert!(eds_point.total_client_seconds < avg_point.total_client_seconds);

    let curves = learning_curves(&runs);
    assert_eq!(curves[0].accuracy_pct.len(), 3);

    let mut table = Table::new(vec!["method".into(), "best acc".into()]);
    for run in &runs {
        table
            .add_row(vec![
                run.label.clone(),
                format!("{:.2}", run.best_accuracy() * 100.0),
            ])
            .unwrap();
    }
    let markdown = table.to_markdown();
    assert!(markdown.contains("FedFT-EDS"));
    let csv = table.to_csv();
    assert_eq!(csv.lines().count(), 3);
}

#[test]
fn aggregation_weights_follow_selected_sample_counts_in_a_real_round() {
    let (fed, global) = pretrained_setup();
    let config = Method::FedFtEds { pds: 0.5 }.configure(
        FlConfig::default()
            .with_rounds(1)
            .with_local_epochs(1)
            .with_seed(6),
    );
    let server = fedft::core::Server::new();
    let mut updates = Vec::new();
    for k in 0..fed.num_clients() {
        let client = Client::new(k, fed.client(k).clone());
        updates.push(client.local_update(&global, &config, 0).unwrap());
    }
    let weights = server.aggregation_weights(&updates);
    assert_eq!(weights.len(), fed.num_clients());
    assert!((weights.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    // Clients with more selected samples get proportionally more weight.
    let total: usize = updates.iter().map(|u| u.selected_samples).sum();
    for (weight, update) in weights.iter().zip(&updates) {
        let expected = update.selected_samples as f32 / total as f32;
        assert!((weight - expected).abs() < 1e-6);
    }
    let theta = server.aggregate(&updates, 0).unwrap();
    assert_eq!(theta.len(), updates[0].theta.len());
}
