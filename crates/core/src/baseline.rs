//! Centralised-training baseline (the upper bound rows of Tables II and IV).

use crate::Result;
use fedft_data::DomainBundle;
use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel, SgdConfig};
use serde::{Deserialize, Serialize};

/// Result of the centralised baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CentralisedResult {
    /// Test accuracy of the centrally trained model, in `[0, 1]`.
    pub test_accuracy: f32,
    /// Final training loss.
    pub train_loss: f32,
    /// Number of epochs trained.
    pub epochs: usize,
}

/// Trains a model centrally on the pooled training data of `bundle`
/// (optionally starting from `initial`, e.g. a pretrained global model) and
/// evaluates it on the bundle's test split.
///
/// This is the "Centralised" row of Tables II and IV: the accuracy an
/// oracle with access to all client data at once would achieve, used to
/// anchor the federated results.
///
/// # Errors
///
/// Returns an error when the configuration or data is invalid.
pub fn centralised_baseline(
    bundle: &DomainBundle,
    model_config: &BlockNetConfig,
    initial: Option<&BlockNet>,
    epochs: usize,
    seed: u64,
) -> Result<CentralisedResult> {
    let mut model = match initial {
        Some(model) => model.clone(),
        None => BlockNet::new(model_config, seed),
    };
    let train_loss = fedft_nn::fit(
        &mut model,
        bundle.train.features(),
        bundle.train.labels(),
        epochs,
        SgdConfig::default(),
        seed,
    )?;
    let report = model.evaluate_from(
        FreezeLevel::Full,
        bundle.test.features(),
        bundle.test.labels(),
    )?;
    Ok(CentralisedResult {
        test_accuracy: report.accuracy,
        train_loss,
        epochs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedft_data::domains;

    #[test]
    fn centralised_training_beats_chance() {
        let bundle = domains::cifar10_like()
            .with_samples_per_class(30)
            .with_test_samples_per_class(10)
            .generate(1)
            .unwrap();
        let cfg = BlockNetConfig::new(bundle.train.feature_dim(), bundle.train.num_classes())
            .with_hidden(24, 24, 24);
        let result = centralised_baseline(&bundle, &cfg, None, 8, 3).unwrap();
        assert!(
            result.test_accuracy > 0.3,
            "accuracy={}",
            result.test_accuracy
        );
        assert_eq!(result.epochs, 8);
    }

    #[test]
    fn warm_and_cold_starts_both_learn_beyond_chance() {
        let source = domains::source_imagenet32()
            .with_samples_per_class(20)
            .generate(2)
            .unwrap();
        let bundle = domains::cifar10_like()
            .with_samples_per_class(20)
            .with_test_samples_per_class(10)
            .generate(1)
            .unwrap();
        let cfg = BlockNetConfig::new(bundle.train.feature_dim(), bundle.train.num_classes())
            .with_hidden(24, 24, 24);
        let pretrained = crate::pretrain::pretrain_global_model(&cfg, &source, 4, 9).unwrap();
        let warm = centralised_baseline(&bundle, &cfg, Some(&pretrained), 3, 5).unwrap();
        let cold = centralised_baseline(&bundle, &cfg, None, 3, 5).unwrap();
        // At this miniature scale the warm/cold ordering is noisy; both must
        // simply clear chance level (10 classes -> 0.1) by a solid margin.
        assert!(
            warm.test_accuracy > 0.2,
            "warm start too weak: {}",
            warm.test_accuracy
        );
        assert!(
            cold.test_accuracy > 0.2,
            "cold start too weak: {}",
            cold.test_accuracy
        );
    }

    /// Pretraining and both baselines, pinned as bits: a 64-bit FNV-1a
    /// digest of the pretrained global model's full parameter vector (each
    /// value's bits as four little-endian bytes) and the accuracy and loss
    /// bits of a warm and a cold baseline. Nothing else pins the pretrained
    /// parameters absolutely, so a change to the centralised training path
    /// that moves a bit fails here.
    #[test]
    fn pretraining_and_the_baselines_are_pinned_bit_for_bit() {
        let source = domains::source_imagenet32()
            .with_samples_per_class(20)
            .generate(2)
            .unwrap();
        let bundle = domains::cifar10_like()
            .with_samples_per_class(20)
            .with_test_samples_per_class(10)
            .generate(1)
            .unwrap();
        let cfg = BlockNetConfig::new(bundle.train.feature_dim(), bundle.train.num_classes())
            .with_hidden(24, 24, 24);
        let pretrained = crate::pretrain::pretrain_global_model(&cfg, &source, 4, 9).unwrap();
        let digest = pretrained
            .full_vector()
            .values()
            .iter()
            .flat_map(|value| value.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325_u64, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        let bits = |result: CentralisedResult| {
            (result.test_accuracy.to_bits(), result.train_loss.to_bits())
        };
        let warm = centralised_baseline(&bundle, &cfg, Some(&pretrained), 3, 5).unwrap();
        let cold = centralised_baseline(&bundle, &cfg, None, 3, 5).unwrap();
        assert_eq!(
            (digest, bits(warm), bits(cold)),
            (
                0x93f7_aabd_4f27_5ccc,
                (0x3f00_0000, 0x3fcd_884e),
                (0x3f02_8f5c, 0x3fd4_35a8)
            ),
            "pretrained digest, warm and cold (accuracy, loss) bits"
        );
    }

    #[test]
    fn invalid_epochs_error() {
        let bundle = domains::cifar10_like()
            .with_samples_per_class(5)
            .generate(1)
            .unwrap();
        let cfg = BlockNetConfig::new(bundle.train.feature_dim(), 10).with_hidden(8, 8, 8);
        assert!(centralised_baseline(&bundle, &cfg, None, 0, 1).is_err());
    }
}
