//! Quantisation settings for analog operand encoding.

use serde::{Deserialize, Serialize};
use std::fmt;

use simphony_units::BitWidth;

/// Bit widths of the three tensors of a GEMM layer.
///
/// DAC resolution bounds the input/weight precision, ADC resolution the output
/// precision; the bandwidth/energy of the converters then scales accordingly
/// (see [`simphony_devlib::scale_adc_power`]).
///
/// # Examples
///
/// ```
/// use simphony_onn::QuantConfig;
/// use simphony_units::BitWidth;
///
/// let q = QuantConfig::uniform(BitWidth::new(6));
/// assert_eq!(q.weight_bits().bits(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuantConfig {
    weight_bits: BitWidth,
    input_bits: BitWidth,
    output_bits: BitWidth,
}

impl QuantConfig {
    /// Creates a configuration with independent precisions.
    pub fn new(weight_bits: BitWidth, input_bits: BitWidth, output_bits: BitWidth) -> Self {
        Self {
            weight_bits,
            input_bits,
            output_bits,
        }
    }

    /// Creates a configuration using the same precision everywhere.
    pub fn uniform(bits: BitWidth) -> Self {
        Self::new(bits, bits, bits)
    }

    /// Weight precision.
    pub fn weight_bits(&self) -> BitWidth {
        self.weight_bits
    }

    /// Input/activation precision.
    pub fn input_bits(&self) -> BitWidth {
        self.input_bits
    }

    /// Output precision (ADC resolution).
    pub fn output_bits(&self) -> BitWidth {
        self.output_bits
    }
}

impl Default for QuantConfig {
    /// 8-bit everywhere, the paper's default evaluation precision.
    fn default() -> Self {
        Self::uniform(BitWidth::new(8))
    }
}

impl fmt::Display for QuantConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "W{}A{}O{}",
            self.weight_bits.bits(),
            self.input_bits.bits(),
            self.output_bits.bits()
        )
    }
}

/// Quantises a value in `[-1, 1]` to the grid representable with `bits` bits
/// (symmetric mid-rise quantiser).
///
/// # Examples
///
/// ```
/// use simphony_onn::quantize_symmetric;
/// use simphony_units::BitWidth;
///
/// let q = quantize_symmetric(0.33, BitWidth::new(2));
/// assert!((q - 0.5).abs() < 1e-6 || (q - 0.0).abs() < 1e-6);
/// ```
pub fn quantize_symmetric(value: f32, bits: BitWidth) -> f32 {
    let levels = quantizer_scale(bits);
    let clamped = value.clamp(-1.0, 1.0);
    (clamped * levels).round() / levels
}

/// The power of two `2^(bits-1)` (1 at one bit) that [`quantize_symmetric`]
/// scales by: every quantised value is `k / scale` for an integer
/// `k` in `-scale..=scale`, and dividing by a power of two is exact.
pub(crate) fn quantizer_scale(bits: BitWidth) -> f32 {
    (bits.levels() / 2).max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantisation_error_shrinks_with_bits() {
        let value = 0.337_f32;
        let mut last_err = f32::INFINITY;
        for bits in [2u8, 4, 6, 8] {
            let err = (quantize_symmetric(value, BitWidth::new(bits)) - value).abs();
            assert!(err <= last_err + 1e-9);
            last_err = err;
        }
    }

    #[test]
    fn quantisation_clamps_out_of_range_values() {
        assert_eq!(quantize_symmetric(7.0, BitWidth::new(8)), 1.0);
        assert_eq!(quantize_symmetric(-7.0, BitWidth::new(8)), -1.0);
    }

    #[test]
    fn uniform_config_uses_one_precision() {
        let q = QuantConfig::uniform(BitWidth::new(4));
        assert_eq!(q.weight_bits(), q.input_bits());
        assert_eq!(q.to_string(), "W4A4O4");
    }

    #[test]
    fn zero_survives_quantisation_exactly() {
        for bits in [2u8, 3, 8] {
            assert_eq!(quantize_symmetric(0.0, BitWidth::new(bits)), 0.0);
        }
    }
}
