//! Shared experiment plumbing: the world of one target task, and the base
//! configurations every experiment starts from.

use crate::profile::ExperimentProfile;
use fedft_core::baseline::centralised_baseline;
use fedft_core::pretrain::pretrain_global_model;
use fedft_core::{ExecutionBackend, FlConfig, FlError, HeterogeneityModel};
use fedft_data::federated::PartitionScheme;
use fedft_data::{domains, DomainBundle, FederatedDataset};
use fedft_nn::{BlockNet, BlockNetConfig};
use std::cell::Cell;

/// The target task of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// CIFAR-10-like close-domain image task.
    Cifar10,
    /// CIFAR-100-like close-domain image task.
    Cifar100,
    /// Google-Speech-Commands-like cross-domain task.
    SpeechCommands,
}

impl Task {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Task::Cifar10 => "CIFAR-10-like",
            Task::Cifar100 => "CIFAR-100-like",
            Task::SpeechCommands => "GSC-like",
        }
    }
}

/// Everything an experiment on one target task needs that does not depend
/// on how the task is split across clients: the target bundle, the model
/// pretrained on the source domain, the model trained from scratch, and the
/// centralised upper bound.
///
/// A world is built once per (profile, task) and serves every Dirichlet α
/// and client count: [`World::federate`] is the experiments' only partition
/// call. The centralised baseline is trained on first request, at most once.
#[derive(Debug)]
pub struct World {
    profile: ExperimentProfile,
    task: Task,
    target: DomainBundle,
    pretrained: BlockNet,
    scratch: BlockNet,
    centralised: Cell<Option<f32>>,
}

impl World {
    /// Generates the source and target bundles and builds both initial
    /// models.
    ///
    /// # Errors
    ///
    /// Propagates data generation and pretraining errors.
    pub fn build(profile: &ExperimentProfile, task: Task) -> Result<World, FlError> {
        let source = source_bundle(profile)?;
        let target = target_bundle(profile, task)?;
        let pretrained = pretrained_model(profile, &source, &target)?;
        let scratch = BlockNet::new(&model_config(profile, &target), profile.seed ^ 0x11);
        Ok(World {
            profile: profile.clone(),
            task,
            target,
            pretrained,
            scratch,
            centralised: Cell::new(None),
        })
    }

    /// The profile the world was built under.
    pub fn profile(&self) -> &ExperimentProfile {
        &self.profile
    }

    /// The target task.
    pub fn task(&self) -> Task {
        self.task
    }

    /// The target task's train and test data.
    pub fn target(&self) -> &DomainBundle {
        &self.target
    }

    /// The global model pretrained on the source domain, head sized for the
    /// target.
    pub fn pretrained(&self) -> &BlockNet {
        &self.pretrained
    }

    /// The randomly initialised ("from scratch") global model.
    pub fn scratch(&self) -> &BlockNet {
        &self.scratch
    }

    /// Partitions the target's training data across `clients` clients with
    /// Dirichlet(`alpha`) label skew; every client shares the test set.
    ///
    /// # Errors
    ///
    /// Propagates partitioning errors.
    pub fn federate(&self, clients: usize, alpha: f64) -> Result<FederatedDataset, FlError> {
        FederatedDataset::partition(
            &self.target.train,
            self.target.test.clone(),
            clients,
            PartitionScheme::Dirichlet { alpha },
            self.profile.seed,
        )
        .map_err(FlError::from)
    }

    /// Test accuracy of the centralised upper bound: the pretrained model
    /// fine-tuned on the whole target training set. Trained on the first
    /// call; later calls return the same value.
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn centralised_accuracy(&self) -> Result<f32, FlError> {
        if let Some(accuracy) = self.centralised.get() {
            return Ok(accuracy);
        }
        let accuracy = centralised_baseline(
            &self.target,
            &model_config(&self.profile, &self.target),
            Some(&self.pretrained),
            self.profile.centralised_epochs,
            self.profile.seed,
        )?
        .test_accuracy;
        self.centralised.set(Some(accuracy));
        Ok(accuracy)
    }
}

/// The CIFAR-10-like and CIFAR-100-like worlds, in that order: the two tasks
/// Tables II and III sweep.
///
/// # Errors
///
/// Propagates [`World::build`] errors.
pub fn image_worlds(profile: &ExperimentProfile) -> Result<Vec<World>, FlError> {
    [Task::Cifar10, Task::Cifar100]
        .into_iter()
        .map(|task| World::build(profile, task))
        .collect()
}

/// Generates the source (pretraining) domain bundle.
fn source_bundle(profile: &ExperimentProfile) -> Result<DomainBundle, FlError> {
    domains::source_imagenet32()
        .with_samples_per_class(profile.samples_per_class_source)
        .with_test_samples_per_class(profile.test_samples_per_class)
        .generate(profile.seed ^ 0x50)
        .map_err(FlError::from)
}

/// Generates the bundle for a target task.
fn target_bundle(profile: &ExperimentProfile, task: Task) -> Result<DomainBundle, FlError> {
    let spec = match task {
        Task::Cifar10 => {
            domains::cifar10_like().with_samples_per_class(profile.samples_per_class_c10)
        }
        Task::Cifar100 => {
            domains::cifar100_like().with_samples_per_class(profile.samples_per_class_c100)
        }
        Task::SpeechCommands => {
            domains::speech_commands_like().with_samples_per_class(profile.samples_per_class_gsc)
        }
    };
    spec.with_test_samples_per_class(profile.test_samples_per_class)
        .generate(profile.seed ^ 0x7A)
        .map_err(FlError::from)
}

/// The model configuration used for a target bundle under a profile.
fn model_config(profile: &ExperimentProfile, bundle: &DomainBundle) -> BlockNetConfig {
    BlockNetConfig::new(bundle.train.feature_dim(), bundle.train.num_classes()).with_hidden(
        profile.hidden,
        profile.hidden,
        profile.hidden,
    )
}

/// Pretrains the global model on `source` and adapts its head to `target`.
///
/// # Errors
///
/// Propagates pretraining errors.
pub fn pretrained_model(
    profile: &ExperimentProfile,
    source: &DomainBundle,
    target: &DomainBundle,
) -> Result<BlockNet, FlError> {
    pretrain_global_model(
        &model_config(profile, target),
        source,
        profile.pretrain_epochs,
        profile.seed ^ 0x22,
    )
}

/// Base simulation configuration for a profile: rounds, local epochs, batch
/// size, seed; method-specific fields are overridden by
/// [`fedft_core::Method::configure`].
///
/// Experiments always run on the parallel round executor — results are
/// identical to the sequential backend, only faster on multi-core hosts.
pub fn base_config(profile: &ExperimentProfile, rounds: usize) -> FlConfig {
    FlConfig::default()
        .with_rounds(rounds)
        .with_local_epochs(profile.local_epochs)
        .with_batch_size(profile.batch_size)
        .with_seed(profile.seed)
        .with_execution(ExecutionBackend::Parallel)
}

/// Puts a base configuration under deadline-based straggler scheduling: the
/// given device-heterogeneity model, a finite round deadline and the
/// [`ExecutionBackend::Deadline`] executor.
pub fn deadline_config(
    base: FlConfig,
    heterogeneity: HeterogeneityModel,
    deadline_seconds: f64,
) -> FlConfig {
    base.with_heterogeneity(heterogeneity)
        .with_deadline(deadline_seconds)
        .with_execution(ExecutionBackend::Deadline)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ExperimentProfile {
        ExperimentProfile::tiny()
    }

    #[test]
    fn bundles_have_expected_shapes() {
        let p = profile();
        let source = source_bundle(&p).unwrap();
        assert_eq!(source.train.num_classes(), 40);
        let c10 = target_bundle(&p, Task::Cifar10).unwrap();
        assert_eq!(c10.train.num_classes(), 10);
        let c100 = target_bundle(&p, Task::Cifar100).unwrap();
        assert_eq!(c100.train.num_classes(), 100);
        let gsc = target_bundle(&p, Task::SpeechCommands).unwrap();
        assert_eq!(gsc.train.num_classes(), 35);
        assert_eq!(Task::Cifar10.label(), "CIFAR-10-like");
    }

    #[test]
    fn pretrained_and_scratch_models_share_the_architecture() {
        let world = World::build(&profile(), Task::Cifar10).unwrap();
        let (pre, scratch) = (world.pretrained(), world.scratch());
        assert_eq!(pre.num_classes(), scratch.num_classes());
        assert_eq!(pre.total_parameter_count(), scratch.total_parameter_count());
        assert_ne!(pre.full_vector(), scratch.full_vector());
    }
}
