//! Magnitude pruning of weight tensors.
//!
//! Pruned weights are power-gated on the accelerator (the SCATTER co-sparsity
//! use case of Fig. 10b), so the simulator needs pruning masks that match the
//! sparsity the model was trained with.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::{OnnError, Result};

/// Pruning settings applied during ONN conversion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PruningConfig {
    sparsity: f64,
}

impl PruningConfig {
    /// Creates a pruning configuration targeting the given weight sparsity.
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::InvalidFraction`] when `sparsity` is outside `[0, 1]`.
    pub fn new(sparsity: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&sparsity) || !sparsity.is_finite() {
            return Err(OnnError::InvalidFraction {
                context: "sparsity",
                value: sparsity,
            });
        }
        Ok(Self { sparsity })
    }

    /// No pruning.
    pub fn dense() -> Self {
        Self { sparsity: 0.0 }
    }

    /// The targeted fraction of zero weights.
    pub fn sparsity(&self) -> f64 {
        self.sparsity
    }
}

impl Default for PruningConfig {
    fn default() -> Self {
        Self::dense()
    }
}

impl fmt::Display for PruningConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}% sparse", self.sparsity * 100.0)
    }
}

/// Zeroes the smallest-magnitude entries of `values` until the requested
/// fraction is zero; among equal magnitudes the lower index goes first.
/// Returns the number of entries pruned by this call.
///
/// # Examples
///
/// ```
/// use simphony_onn::{magnitude_prune, PruningConfig};
///
/// let mut w = vec![0.9, -0.05, 0.4, 0.01];
/// let pruned = magnitude_prune(&mut w, &PruningConfig::new(0.5)?);
/// assert_eq!(pruned, 2);
/// assert_eq!(w, vec![0.9, 0.0, 0.4, 0.0]);
/// # Ok::<(), simphony_onn::OnnError>(())
/// ```
pub fn magnitude_prune(values: &mut [f32], config: &PruningConfig) -> usize {
    let target_zeros = (values.len() as f64 * config.sparsity()).round() as usize;
    let already_zero = values.iter().filter(|v| **v == 0.0).count();
    if target_zeros <= already_zero {
        return 0;
    }
    let to_prune = target_zeros - already_zero;
    // Keys order entries by (magnitude, index): the bits of a non-negative
    // float order like its value. No two keys are equal, so the `to_prune`
    // smallest form one set, and selecting it in O(n) prunes exactly what a
    // stable sort by magnitude would. (Quantised weights tie heavily.)
    let mut keys: Vec<(u32, usize)> = values
        .iter()
        .enumerate()
        .filter(|(_, v)| **v != 0.0)
        .map(|(i, v)| {
            assert!(!v.is_nan(), "magnitude pruning needs non-NaN weights");
            (v.abs().to_bits(), i)
        })
        .collect();
    keys.select_nth_unstable(to_prune - 1);
    for &(_, index) in &keys[..to_prune] {
        values[index] = 0.0;
    }
    to_prune
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::quantize_symmetric;
    use crate::rng::SplitMix64;
    use simphony_units::BitWidth;

    /// Reference pruning: a stable sort by magnitude, smallest pruned first.
    fn sort_prune(values: &mut [f32], config: &PruningConfig) -> usize {
        let target_zeros = (values.len() as f64 * config.sparsity()).round() as usize;
        let already_zero = values.iter().filter(|v| **v == 0.0).count();
        if target_zeros <= already_zero {
            return 0;
        }
        let mut magnitudes: Vec<(usize, f32)> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, v)| (i, v.abs()))
            .collect();
        magnitudes.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite magnitudes"));
        let mut pruned = 0;
        for (index, _) in magnitudes.into_iter().take(target_zeros - already_zero) {
            values[index] = 0.0;
            pruned += 1;
        }
        pruned
    }

    #[test]
    fn selection_prunes_exactly_what_the_stable_sort_pruned() {
        // Quantised Gaussian weights, as workload extraction draws them: at
        // low bit widths nearly every magnitude ties with another.
        for bits in [1u8, 2, 4, 8] {
            for sparsity in [0.25, 0.5, 0.75, 0.99] {
                let config = PruningConfig::new(sparsity).unwrap();
                for seed in 0..8u64 {
                    let mut rng = SplitMix64::new(seed);
                    let len = 1 + (rng.next_u64() % 3000) as usize;
                    let values: Vec<f32> = (0..len)
                        .map(|_| {
                            let draw = rng.next_gaussian() as f32 * 0.5;
                            quantize_symmetric(draw, BitWidth::new(bits))
                        })
                        .collect();
                    let mut selected = values.clone();
                    let mut sorted = values;
                    let pruned = magnitude_prune(&mut selected, &config);
                    assert_eq!(pruned, sort_prune(&mut sorted, &config));
                    assert!(
                        selected
                            .iter()
                            .zip(&sorted)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{bits} bits, sparsity {sparsity}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_reaches_requested_sparsity() {
        let mut rng = SplitMix64::new(3);
        let mut values: Vec<f32> = (0..1000).map(|_| rng.next_signed() as f32).collect();
        let config = PruningConfig::new(0.7).unwrap();
        magnitude_prune(&mut values, &config);
        let zeros = values.iter().filter(|v| **v == 0.0).count();
        assert_eq!(zeros, 700);
    }

    #[test]
    fn pruning_removes_the_smallest_magnitudes_first() {
        let mut values = vec![1.0, -0.9, 0.1, -0.2, 0.5];
        magnitude_prune(&mut values, &PruningConfig::new(0.4).unwrap());
        assert_eq!(values, vec![1.0, -0.9, 0.0, 0.0, 0.5]);
    }

    #[test]
    fn dense_config_is_a_no_op() {
        let mut values = vec![0.3, -0.4];
        assert_eq!(magnitude_prune(&mut values, &PruningConfig::dense()), 0);
        assert_eq!(values, vec![0.3, -0.4]);
    }

    #[test]
    fn existing_zeros_count_toward_the_target() {
        let mut values = vec![0.0, 0.0, 0.5, -0.6];
        let pruned = magnitude_prune(&mut values, &PruningConfig::new(0.5).unwrap());
        assert_eq!(pruned, 0);
    }

    #[test]
    fn invalid_sparsity_is_rejected() {
        assert!(PruningConfig::new(-0.1).is_err());
        assert!(PruningConfig::new(1.1).is_err());
        assert!(PruningConfig::new(f64::NAN).is_err());
    }
}
