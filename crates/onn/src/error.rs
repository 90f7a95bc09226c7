//! Error type for the ONN model substrate.

use std::fmt;

/// Convenience alias for results whose error is [`OnnError`].
pub type Result<T> = std::result::Result<T, OnnError>;

/// Error returned by tensor operations, model construction and workload extraction.
///
/// # Examples
///
/// ```
/// use simphony_onn::{OnnError, Tensor};
///
/// let a = Tensor::zeros(&[2, 3]);
/// let b = Tensor::zeros(&[4, 5]);
/// assert!(matches!(a.matmul(&b), Err(OnnError::ShapeMismatch { .. })));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum OnnError {
    /// Two tensors have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the two shapes.
        details: String,
    },
    /// A tensor index was out of bounds.
    IndexOutOfBounds {
        /// The flattened index.
        index: usize,
        /// The number of elements.
        len: usize,
    },
    /// A layer was configured with impossible parameters.
    InvalidLayer {
        /// The layer name.
        name: String,
        /// Explanation.
        reason: String,
    },
    /// A model has no layers that map to GEMM workloads.
    EmptyWorkload {
        /// The model name.
        model: String,
    },
    /// A sparsity or probability parameter was outside `[0, 1]`.
    InvalidFraction {
        /// What the fraction configures.
        context: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A weight precision is wider than workload extraction supports.
    UnsupportedBitWidth {
        /// The requested weight precision, in bits.
        bits: u32,
        /// The widest supported precision ([`MAX_WEIGHT_BITS`](crate::MAX_WEIGHT_BITS)).
        max: u32,
    },
}

impl fmt::Display for OnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnnError::ShapeMismatch { details } => write!(f, "shape mismatch: {details}"),
            OnnError::IndexOutOfBounds { index, len } => {
                write!(
                    f,
                    "index {index} out of bounds for tensor of {len} elements"
                )
            }
            OnnError::InvalidLayer { name, reason } => {
                write!(f, "invalid layer `{name}`: {reason}")
            }
            OnnError::EmptyWorkload { model } => {
                write!(f, "model `{model}` produced no GEMM workloads")
            }
            OnnError::InvalidFraction { context, value } => {
                write!(f, "{context} must be within [0, 1], got {value}")
            }
            OnnError::UnsupportedBitWidth { bits, max } => {
                write!(
                    f,
                    "weight bit width {bits} is not supported (at most {max} bits)"
                )
            }
        }
    }
}

impl std::error::Error for OnnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = OnnError::InvalidFraction {
            context: "sparsity",
            value: 1.5,
        };
        assert!(err.to_string().contains("sparsity"));
        assert!(err.to_string().contains("1.5"));
    }
}
