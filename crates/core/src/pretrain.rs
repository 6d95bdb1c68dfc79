//! Pretraining the global model on a source domain (paper §III-B).
//!
//! Before federated learning starts, the server pretrains the global model on
//! a source domain that is assumed to be available centrally (the paper uses
//! Small ImageNet 32×32 or CIFAR-100). The pretrained feature extractor `ϕ`
//! is then frozen on clients, and only the upper part `θ` is fine-tuned
//! federatedly.

use crate::Result;
use fedft_data::DomainBundle;
use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel, SgdConfig};

/// Pretrains a fresh global model on the source domain.
///
/// The returned model is trained on the *source* task (its classifier head
/// predicts source classes); [`adapt_head_to_task`] swaps in a fresh head for
/// the downstream task while keeping the pretrained feature extractor.
///
/// # Errors
///
/// Returns an error when the model configuration or training data is invalid.
pub(crate) fn pretrain_source_model(
    source: &DomainBundle,
    hidden: (usize, usize, usize),
    epochs: usize,
    seed: u64,
) -> Result<BlockNet> {
    let source_cfg = BlockNetConfig::new(source.train.feature_dim(), source.train.num_classes())
        .with_hidden(hidden.0, hidden.1, hidden.2);
    let mut model = BlockNet::new(&source_cfg, seed);
    let sgd = SgdConfig {
        learning_rate: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
    };
    let (features, labels) = (source.train.features(), source.train.labels());
    fedft_nn::fit(&mut model, features, labels, epochs, sgd, seed)?;
    Ok(model)
}

/// Builds a model for the downstream task that reuses the pretrained feature
/// extractor (`ϕ`, i.e. every block below the classifier) of `source_model`
/// and attaches a freshly initialised classifier head with
/// `target_config.num_classes` outputs.
///
/// # Errors
///
/// Returns an error when the source and target configurations are
/// structurally incompatible (different input dimension or hidden widths).
pub(crate) fn adapt_head_to_task(
    source_model: &BlockNet,
    target_config: &BlockNetConfig,
    seed: u64,
) -> Result<BlockNet> {
    let source_cfg = source_model.config();
    if source_cfg.input_dim != target_config.input_dim
        || source_cfg.hidden_low != target_config.hidden_low
        || source_cfg.hidden_mid != target_config.hidden_mid
        || source_cfg.hidden_up != target_config.hidden_up
    {
        return Err(crate::FlError::InvalidConfig {
            what: format!(
                "pretrained trunk {:?} is incompatible with target config {:?}",
                source_cfg, target_config
            ),
        });
    }
    let mut target = BlockNet::new(target_config, seed);
    // Copy everything below the classifier: the trainable vector at
    // `Classifier` freeze level is exactly the classifier head, so the
    // remaining parameters are the shared trunk. We transfer the trunk by
    // copying the full source vector and then restoring the fresh head.
    let fresh_head = target.trainable_vector(FreezeLevel::Classifier);
    // The trunk layout (low, mid, up) is identical between the two models by
    // the check above, so we can copy block by block through the full vector.
    let source_full = source_model.full_vector();
    let source_head_len = source_model.trainable_parameter_count(FreezeLevel::Classifier);
    let trunk_len = source_full.len() - source_head_len;
    let mut target_values = source_full.values()[..trunk_len].to_vec();
    target_values.extend_from_slice(fresh_head.values());
    target.set_full_vector(&fedft_nn::ParamVector::from_values(target_values))?;
    Ok(target)
}

/// Convenience wrapper: pretrains on `source` and adapts the head to the
/// downstream task described by `target_config`, returning the global model
/// that federated learning starts from.
///
/// # Errors
///
/// Returns an error if pretraining or head adaptation fails.
pub fn pretrain_global_model(
    target_config: &BlockNetConfig,
    source: &DomainBundle,
    epochs: usize,
    seed: u64,
) -> Result<BlockNet> {
    let source_model = pretrain_source_model(
        source,
        (
            target_config.hidden_low,
            target_config.hidden_mid,
            target_config.hidden_up,
        ),
        epochs,
        seed,
    )?;
    adapt_head_to_task(&source_model, target_config, seed.wrapping_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedft_data::domains;

    fn small_source() -> DomainBundle {
        domains::source_imagenet32()
            .with_samples_per_class(20)
            .with_test_samples_per_class(5)
            .generate(3)
            .unwrap()
    }

    #[test]
    fn pretraining_learns_the_source_task() {
        let source = small_source();
        let mut model = pretrain_source_model(&source, (24, 24, 24), 5, 7).unwrap();
        let acc = model
            .evaluate_accuracy(source.test.features(), source.test.labels())
            .unwrap();
        let chance = 1.0 / source.test.num_classes() as f32;
        assert!(
            acc > 3.0 * chance,
            "pretrained accuracy {acc} too close to chance {chance}"
        );
    }

    #[test]
    fn adapt_head_keeps_trunk_and_resets_head() {
        let source = small_source();
        let source_model = pretrain_source_model(&source, (24, 24, 24), 2, 7).unwrap();
        let target_cfg =
            BlockNetConfig::new(source.train.feature_dim(), 10).with_hidden(24, 24, 24);
        let adapted = adapt_head_to_task(&source_model, &target_cfg, 1).unwrap();
        assert_eq!(adapted.num_classes(), 10);
        // The trunk (everything below the classifier) matches the source model.
        let src_full = source_model.full_vector();
        let dst_full = adapted.full_vector();
        let src_trunk_len =
            src_full.len() - source_model.trainable_parameter_count(FreezeLevel::Classifier);
        assert_eq!(
            &src_full.values()[..src_trunk_len],
            &dst_full.values()[..src_trunk_len]
        );
    }

    #[test]
    fn adapt_head_rejects_incompatible_trunk() {
        let source = small_source();
        let source_model = pretrain_source_model(&source, (24, 24, 24), 1, 7).unwrap();
        let bad_cfg = BlockNetConfig::new(source.train.feature_dim(), 10).with_hidden(16, 24, 24);
        assert!(adapt_head_to_task(&source_model, &bad_cfg, 1).is_err());
    }

    #[test]
    fn pretrain_global_model_end_to_end() {
        let source = small_source();
        let target_cfg =
            BlockNetConfig::new(source.train.feature_dim(), 10).with_hidden(24, 24, 24);
        let model = pretrain_global_model(&target_cfg, &source, 2, 5).unwrap();
        assert_eq!(model.num_classes(), 10);
        assert_eq!(model.input_dim(), source.train.feature_dim());
    }
}
