//! Error type for the neural-network crate.

use fedft_tensor::TensorError;
use std::fmt;

/// Error produced by model construction, training or parameter transport.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// An underlying tensor operation failed (shape mismatch etc.).
    Tensor(TensorError),
    /// A parameter vector had the wrong length for the target model slice.
    ParamLengthMismatch {
        /// Number of values expected by the model.
        expected: usize,
        /// Number of values provided.
        found: usize,
    },
    /// `backward` was handed a step entry no training forward of the block
    /// has written.
    BackwardBeforeForward {
        /// Name of the offending block (`dense+relu` or `dense`).
        layer: &'static str,
    },
    /// The model or trainer received an invalid configuration value.
    InvalidConfig {
        /// Description of the invalid field.
        what: String,
    },
    /// Labels were inconsistent with the model output dimension.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Number of classes the model produces.
        num_classes: usize,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::ParamLengthMismatch { expected, found } => write!(
                f,
                "parameter vector length mismatch: expected {expected}, found {found}"
            ),
            NnError::BackwardBeforeForward { layer } => {
                write!(f, "backward called before forward on layer `{layer}`")
            }
            NnError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            NnError::LabelOutOfRange { label, num_classes } => write!(
                f,
                "label {label} out of range for a model with {num_classes} classes"
            ),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(value: TensorError) -> Self {
        NnError::Tensor(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = NnError::ParamLengthMismatch {
            expected: 10,
            found: 4,
        };
        assert!(e.to_string().contains("10"));
        let e = NnError::BackwardBeforeForward { layer: "dense" };
        assert!(e.to_string().contains("dense"));
        let e = NnError::InvalidConfig {
            what: "learning rate must be positive".into(),
        };
        assert!(e.to_string().contains("learning rate"));
        let e = NnError::LabelOutOfRange {
            label: 7,
            num_classes: 5,
        };
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn tensor_error_converts_and_sources() {
        use std::error::Error;
        let te = TensorError::EmptyMatrix { op: "softmax" };
        let ne: NnError = te.clone().into();
        assert!(ne.to_string().contains("softmax"));
        assert!(ne.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
