//! Error types for tensor operations.

use std::fmt;

/// Error produced by fallible tensor operations.
///
/// All variants carry enough context to diagnose the failing call without a
/// debugger: the offending shapes or indices are embedded in the error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human readable name of the operation that failed.
        op: &'static str,
        /// Shape of the left-hand operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right-hand operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A constructor was given data whose length does not match the shape.
    InvalidDimensions {
        /// Requested number of rows.
        rows: usize,
        /// Requested number of columns.
        cols: usize,
        /// Length of the provided buffer.
        len: usize,
    },
    /// An operation that requires a non-empty matrix received an empty one.
    EmptyMatrix {
        /// Human readable name of the operation that failed.
        op: &'static str,
    },
    /// A ragged row set was passed to [`crate::Matrix::from_rows`].
    RaggedRows {
        /// Length of the first row.
        expected: usize,
        /// Length of the offending row.
        found: usize,
        /// Index of the offending row.
        row: usize,
    },
    /// A softmax temperature that is not a positive finite number.
    InvalidTemperature {
        /// `f32::to_bits` of the temperature, so that the error stays `Eq`.
        bits: u32,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in `{op}`: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::InvalidDimensions { rows, cols, len } => write!(
                f,
                "cannot build a {rows}x{cols} matrix from a buffer of length {len}"
            ),
            TensorError::EmptyMatrix { op } => {
                write!(f, "operation `{op}` requires a non-empty matrix")
            }
            TensorError::RaggedRows {
                expected,
                found,
                row,
            } => write!(
                f,
                "ragged rows: row {row} has length {found}, expected {expected}"
            ),
            TensorError::InvalidTemperature { bits } => write!(
                f,
                "softmax temperature must be positive and finite, got {}",
                f32::from_bits(*bits)
            ),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let err = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let msg = err.to_string();
        assert!(msg.contains("matmul"));
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));
    }

    #[test]
    fn display_invalid_dimensions() {
        let err = TensorError::InvalidDimensions {
            rows: 2,
            cols: 2,
            len: 3,
        };
        assert!(err.to_string().contains("2x2"));
        assert!(err.to_string().contains('3'));
    }

    #[test]
    fn display_empty_matrix() {
        let err = TensorError::EmptyMatrix { op: "mean" };
        assert!(err.to_string().contains("mean"));
    }

    #[test]
    fn display_ragged_rows() {
        let err = TensorError::RaggedRows {
            expected: 4,
            found: 2,
            row: 3,
        };
        assert!(err.to_string().contains("row 3"));
    }

    #[test]
    fn display_invalid_temperature() {
        let err = TensorError::InvalidTemperature {
            bits: (-1.0_f32).to_bits(),
        };
        assert!(err.to_string().contains("temperature"));
        assert!(err.to_string().contains("-1"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<TensorError>();
    }
}
