//! Synthetic classification domains standing in for the paper's datasets.
//!
//! The reproduction environment cannot download CIFAR-10, CIFAR-100, Small
//! ImageNet-32 or Google Speech Commands, so each dataset is substituted by a
//! *latent-factor* synthetic domain:
//!
//! * every domain draws class prototypes in a shared latent space,
//! * samples are prototypes plus intra-class latent noise, projected into
//!   feature space through a domain projection matrix, plus feature noise,
//! * *close* domains (the image family: Small-ImageNet-32, CIFAR-10,
//!   CIFAR-100) share the projection matrix, so a feature extractor
//!   pretrained on the source transfers to the targets — this reproduces the
//!   pretraining benefit of Table I and the FedFT results of Table II,
//! * the *cross* domain (Speech Commands) uses a partially rotated
//!   projection, so pretraining still helps but less — reproducing Table IV.
//!
//! Absolute accuracies differ from the paper (the data is synthetic and the
//! model is a block MLP), but the orderings the paper reports depend on the
//! algorithmic mechanism, not on the specific dataset.

use crate::dataset::Dataset;
use crate::{DataError, Result};
use fedft_tensor::{init, rng, Matrix};
use serde::{Deserialize, Serialize};

/// Seed of the projection matrix shared by the image-family domains.
const SHARED_PROJECTION_SEED: u64 = 0x5EED_1A6E;

/// Specification of a synthetic classification domain.
///
/// Use the constructors in this module ([`source_imagenet32`],
/// [`cifar10_like`], [`cifar100_like`], [`speech_commands_like`]) for the
/// paper's datasets, or build a custom spec for new experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainSpec {
    /// Human-readable domain name.
    pub name: String,
    /// Number of classes.
    pub num_classes: usize,
    /// Dimensionality of the observed feature vectors.
    pub feature_dim: usize,
    /// Dimensionality of the shared latent space carrying the class signal.
    pub latent_dim: usize,
    /// Number of class-irrelevant nuisance dimensions mixed into the
    /// observation. Nuisance variation has a larger variance than the class
    /// signal, so a model trained from scratch on few samples overfits it,
    /// while a feature extractor pretrained on the large source domain learns
    /// to suppress it — this is what makes pretraining (and freezing the
    /// pretrained extractor) valuable, as in the paper.
    pub nuisance_dim: usize,
    /// Standard deviation of the nuisance dimensions.
    pub nuisance_std: f32,
    /// Width of the hidden layer of the nonlinear generative map. The map is
    /// `x = tanh(tanh([z, n]·W_a)·W_m)·W_b + ε`: a model has to learn useful
    /// intermediate features to classify well, which is what makes a
    /// pretrained feature extractor valuable on the downstream tasks.
    pub generator_hidden: usize,
    /// Training samples generated per class.
    pub samples_per_class: usize,
    /// Test samples generated per class.
    pub test_samples_per_class: usize,
    /// Distance scale between class prototypes in latent space.
    pub class_separation: f32,
    /// Standard deviation of intra-class latent noise.
    pub intra_class_std: f32,
    /// Standard deviation of additive feature-space noise.
    pub noise_std: f32,
    /// Seed from which the class prototypes are drawn (domain identity).
    pub prototype_seed: u64,
    /// Seed of the domain's private projection component.
    pub projection_seed: u64,
    /// Rotation in `[0, 1]` away from the shared projection: `0.0` means the
    /// domain is perfectly aligned with the image family (close domain),
    /// `1.0` means a completely independent projection (maximal domain
    /// shift).
    pub projection_rotation: f32,
}

impl DomainSpec {
    /// Overrides the number of training samples per class.
    pub fn with_samples_per_class(mut self, samples: usize) -> Self {
        self.samples_per_class = samples;
        self
    }

    /// Overrides the number of test samples per class.
    pub fn with_test_samples_per_class(mut self, samples: usize) -> Self {
        self.test_samples_per_class = samples;
        self
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] for zero sizes, non-positive
    /// separations or a rotation outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        for (name, value) in [
            ("num_classes", self.num_classes),
            ("feature_dim", self.feature_dim),
            ("latent_dim", self.latent_dim),
            ("generator_hidden", self.generator_hidden),
            ("samples_per_class", self.samples_per_class),
            ("test_samples_per_class", self.test_samples_per_class),
        ] {
            if value == 0 {
                return Err(DataError::InvalidConfig {
                    what: format!("{name} must be non-zero in domain `{}`", self.name),
                });
            }
        }
        // Written positively so NaN fails every check.
        let separation_ok = self.class_separation > 0.0;
        let stds_ok =
            self.intra_class_std >= 0.0 && self.noise_std >= 0.0 && self.nuisance_std >= 0.0;
        if !separation_ok || !stds_ok {
            return Err(DataError::InvalidConfig {
                what: format!("scales must be positive in domain `{}`", self.name),
            });
        }
        if !(0.0..=1.0).contains(&self.projection_rotation) {
            return Err(DataError::InvalidConfig {
                what: format!(
                    "projection_rotation must be in [0, 1], got {} in domain `{}`",
                    self.projection_rotation, self.name
                ),
            });
        }
        Ok(())
    }

    /// Generates the train/test datasets of the domain.
    ///
    /// The same `(spec, seed)` pair always produces the same data. Different
    /// seeds resample the noise but keep the class structure (prototypes and
    /// projections depend only on the spec).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] if the spec is invalid.
    pub fn generate(&self, seed: u64) -> Result<DomainBundle> {
        self.validate()?;
        let projection = self.generator_map();
        let prototypes = self.class_prototypes();

        let train = self.generate_split(
            &projection,
            &prototypes,
            self.samples_per_class,
            seed,
            "train",
        )?;
        let test = self.generate_split(
            &projection,
            &prototypes,
            self.test_samples_per_class,
            seed,
            "test",
        )?;
        Ok(DomainBundle {
            spec: self.clone(),
            train,
            test,
        })
    }

    /// The domain's two-stage nonlinear generative map, mixing the shared
    /// image-family weights with a private component according to
    /// [`DomainSpec::projection_rotation`].
    fn generator_map(&self) -> GeneratorMap {
        GeneratorMap {
            hidden: self.blended_weights(
                "generator-hidden",
                self.latent_dim + self.nuisance_dim,
                self.generator_hidden,
            ),
            mixer: self.blended_weights(
                "generator-mixer",
                self.generator_hidden,
                self.generator_hidden,
            ),
            output: self.blended_weights(
                "generator-output",
                self.generator_hidden,
                self.feature_dim,
            ),
        }
    }

    fn blended_weights(&self, label: &str, rows: usize, cols: usize) -> Matrix {
        // A gain above 1 saturates the tanh nonlinearity, entangling the
        // class signal in observation space so that good learned features
        // (rather than raw inputs) are required for classification.
        let std = 1.5 / (rows as f32).sqrt();
        let mut shared_rng = rng::rng_for(SHARED_PROJECTION_SEED, label);
        let shared = init::normal(&mut shared_rng, rows, cols, 0.0, std);
        if self.projection_rotation == 0.0 {
            return shared;
        }
        let mut private_rng = rng::rng_for(self.projection_seed, label);
        let private = init::normal(&mut private_rng, rows, cols, 0.0, std);
        let rot = self.projection_rotation;
        let keep = (1.0 - rot * rot).sqrt();
        shared
            .scale(keep)
            .add(&private.scale(rot))
            .expect("shapes match by construction")
    }

    /// Class prototypes in latent space.
    fn class_prototypes(&self) -> Matrix {
        let mut r = rng::rng_for(self.prototype_seed, "prototypes");
        init::normal(
            &mut r,
            self.num_classes,
            self.latent_dim,
            0.0,
            self.class_separation,
        )
    }

    fn generate_split(
        &self,
        projection: &GeneratorMap,
        prototypes: &Matrix,
        per_class: usize,
        seed: u64,
        split: &str,
    ) -> Result<Dataset> {
        let total = per_class * self.num_classes;
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(total);
        let mut labels = Vec::with_capacity(total);
        for class in 0..self.num_classes {
            let mut r = rng::rng_for_indexed(
                rng::derive_seed(seed, split),
                &format!("domain-{}-class", self.name),
                class as u64,
            );
            let latent_noise = init::normal(
                &mut r,
                per_class,
                self.latent_dim,
                0.0,
                self.intra_class_std,
            );
            let nuisance =
                init::normal(&mut r, per_class, self.nuisance_dim, 0.0, self.nuisance_std);
            let feature_noise =
                init::normal(&mut r, per_class, self.feature_dim, 0.0, self.noise_std);
            // z_i = prototype_c + latent noise ; n_i = nuisance ;
            // x_i = tanh([z_i, n_i] · W_a) · W_b + feature noise
            let prototype = Matrix::row_vector(prototypes.row(class));
            let latent = latent_noise.add_row_broadcast(&prototype)?;
            let mut generator_input_rows = Vec::with_capacity(per_class);
            for i in 0..per_class {
                let mut row = Vec::with_capacity(self.latent_dim + self.nuisance_dim);
                row.extend_from_slice(latent.row(i));
                row.extend_from_slice(nuisance.row(i));
                generator_input_rows.push(row);
            }
            let generator_input = Matrix::from_rows(&generator_input_rows)?;
            let hidden = generator_input.matmul(&projection.hidden)?.map(f32::tanh);
            let folded = hidden.matmul(&projection.mixer)?.map(f32::tanh);
            let projected = folded.matmul(&projection.output)?;
            let observed = projected.add(&feature_noise)?;
            for i in 0..per_class {
                rows.push(observed.row(i).to_vec());
                labels.push(class);
            }
        }
        let features = Matrix::from_rows(&rows)?;
        Dataset::new(features, labels, self.num_classes)
    }
}

/// The weight matrices of the two-stage nonlinear generative map.
#[derive(Debug, Clone)]
struct GeneratorMap {
    hidden: Matrix,
    mixer: Matrix,
    output: Matrix,
}

/// Train and test datasets generated from a [`DomainSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainBundle {
    /// The specification that produced the bundle.
    pub spec: DomainSpec,
    /// Training split.
    pub train: Dataset,
    /// Held-out test split.
    pub test: Dataset,
}

fn base_spec(name: &str, num_classes: usize, prototype_seed: u64) -> DomainSpec {
    DomainSpec {
        name: name.to_string(),
        num_classes,
        feature_dim: 48,
        latent_dim: 16,
        nuisance_dim: 16,
        nuisance_std: 1.2,
        generator_hidden: 48,
        samples_per_class: 100,
        test_samples_per_class: 25,
        class_separation: 1.2,
        intra_class_std: 0.5,
        noise_std: 0.2,
        prototype_seed,
        projection_seed: prototype_seed ^ 0xABCD,
        projection_rotation: 0.0,
    }
}

/// Source domain standing in for Small ImageNet 32×32: many classes spanning
/// the shared latent space, used to pretrain the global model.
pub fn source_imagenet32() -> DomainSpec {
    let mut spec = base_spec("small-imagenet-32", 40, 1_000);
    spec.samples_per_class = 120;
    spec
}

/// Close-domain target standing in for CIFAR-10.
pub fn cifar10_like() -> DomainSpec {
    base_spec("cifar10-like", 10, 2_000)
}

/// Close-domain target standing in for CIFAR-100 (more classes, fewer samples
/// per class).
pub fn cifar100_like() -> DomainSpec {
    let mut spec = base_spec("cifar100-like", 100, 3_000);
    spec.samples_per_class = 30;
    spec.test_samples_per_class = 8;
    spec
}

/// Cross-domain target standing in for Google Speech Commands: a partially
/// rotated projection models the domain shift between image pretraining and
/// speech fine-tuning.
pub fn speech_commands_like() -> DomainSpec {
    let mut spec = base_spec("speech-commands-like", 35, 4_000);
    spec.projection_rotation = 0.35;
    spec.samples_per_class = 60;
    spec.test_samples_per_class = 15;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(spec: DomainSpec) -> DomainBundle {
        spec.with_samples_per_class(10)
            .with_test_samples_per_class(5)
            .generate(7)
            .unwrap()
    }

    #[test]
    fn generation_shapes_are_consistent() {
        let bundle = quick(cifar10_like());
        assert_eq!(bundle.train.len(), 100);
        assert_eq!(bundle.test.len(), 50);
        assert_eq!(bundle.train.feature_dim(), 48);
        assert_eq!(bundle.train.num_classes(), 10);
        assert_eq!(bundle.train.class_counts(), vec![10; 10]);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = cifar10_like()
            .with_samples_per_class(5)
            .generate(3)
            .unwrap();
        let b = cifar10_like()
            .with_samples_per_class(5)
            .generate(3)
            .unwrap();
        assert_eq!(a.train, b.train);
        let c = cifar10_like()
            .with_samples_per_class(5)
            .generate(4)
            .unwrap();
        assert_ne!(a.train, c.train);
    }

    #[test]
    fn train_and_test_are_different_samples() {
        let bundle = quick(cifar10_like());
        assert_ne!(
            bundle.train.features().row(0),
            bundle.test.features().row(0)
        );
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut spec = cifar10_like();
        spec.num_classes = 0;
        assert!(spec.validate().is_err());
        let mut spec = cifar10_like();
        spec.projection_rotation = 1.5;
        assert!(spec.generate(0).is_err());
        let mut spec = cifar10_like();
        spec.class_separation = 0.0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn presets_have_expected_class_counts() {
        assert_eq!(source_imagenet32().num_classes, 40);
        assert_eq!(cifar10_like().num_classes, 10);
        assert_eq!(cifar100_like().num_classes, 100);
        assert_eq!(speech_commands_like().num_classes, 35);
    }

    #[test]
    fn image_family_shares_projection_cross_domain_does_not() {
        let a = source_imagenet32().generator_map();
        let b = cifar10_like().generator_map();
        let c = speech_commands_like().generator_map();
        assert!(
            a.hidden.approx_eq(&b.hidden, 1e-6) && a.output.approx_eq(&b.output, 1e-6),
            "image-family domains must share the generative map"
        );
        assert!(
            !a.hidden.approx_eq(&c.hidden, 1e-3),
            "cross-domain generative map must differ"
        );
    }

    #[test]
    fn different_domains_have_different_prototypes() {
        let a = source_imagenet32().class_prototypes();
        let b = cifar10_like().class_prototypes();
        assert_ne!(a.row(0), b.row(0));
    }

    #[test]
    fn classes_are_roughly_separable() {
        // A nearest-class-prototype classifier in feature space should beat
        // chance comfortably, otherwise the domains are too noisy to learn.
        let bundle = cifar10_like()
            .with_samples_per_class(30)
            .with_test_samples_per_class(10)
            .generate(11)
            .unwrap();
        let train = &bundle.train;
        let num_classes = train.num_classes();
        // Class means in feature space.
        let mut means = vec![vec![0.0f32; train.feature_dim()]; num_classes];
        let counts = train.class_counts();
        for (i, &label) in train.labels().iter().enumerate() {
            for (m, &x) in means[label].iter_mut().zip(train.features().row(i)) {
                *m += x;
            }
        }
        for (mean, &count) in means.iter_mut().zip(&counts) {
            for m in mean.iter_mut() {
                *m /= count as f32;
            }
        }
        let mut correct = 0;
        for (i, &label) in bundle.test.labels().iter().enumerate() {
            let x = bundle.test.features().row(i);
            let mut best = 0;
            let mut best_dist = f32::INFINITY;
            for (c, mean) in means.iter().enumerate() {
                let dist: f32 = x.iter().zip(mean).map(|(a, b)| (a - b) * (a - b)).sum();
                if dist < best_dist {
                    best_dist = dist;
                    best = c;
                }
            }
            if best == label {
                correct += 1;
            }
        }
        let acc = correct as f32 / bundle.test.len() as f32;
        // The domains are deliberately noisy and nonlinear (the FL task must
        // have headroom), but class structure must still be learnable: a
        // nearest-class-mean classifier should beat chance by a clear margin.
        assert!(acc > 0.25, "nearest-prototype accuracy too low: {acc}");
    }
}
