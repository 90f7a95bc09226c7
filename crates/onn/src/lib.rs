//! Optical-neural-network model substrate (TorchONN substitute).
//!
//! SimPhony interfaces with an ONN training library to obtain *workload
//! descriptions*: per-layer GEMM shapes, operand bit widths, sparsity and the
//! actual weight values needed for data-aware power modeling. This crate
//! provides that interface without an external ML framework:
//!
//! * [`Tensor`], [`SplitMix64`] — a minimal dense tensor with deterministic
//!   synthetic initialisation and a reference matmul;
//! * [`LayerSpec`]/[`models`] — layer and model descriptions, including the
//!   paper's evaluation models (VGG-8/CIFAR-10, BERT-Base, the 280×28×280
//!   validation GEMM);
//! * [`GemmShape`] and lowering functions — im2col convolution, linear and
//!   multi-head-attention → GEMM decomposition, with dynamic-product flags;
//! * [`QuantConfig`], [`PruningConfig`] — quantisation and magnitude pruning;
//! * [`convert_model`] — layer-wise digital → ONN conversion with a noise model;
//! * [`ModelWorkload::extract`] — the end product the simulator consumes, and
//!   [`ModelWorkload::shape_only`], the same layers without weight samples,
//!   which is all a data-unaware simulation reads.
//!
//! # Examples
//!
//! ```
//! use simphony_onn::{ModelWorkload, PruningConfig, QuantConfig};
//! use simphony_onn::models::bert_base;
//!
//! let workload = ModelWorkload::extract(
//!     &bert_base(196),
//!     &QuantConfig::default(),
//!     &PruningConfig::dense(),
//!     42,
//! )?;
//! println!("{workload}");
//! assert!(workload.dynamic_fraction() > 0.0);
//! # Ok::<(), simphony_onn::OnnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod error;
mod gemm;
mod layer;
pub mod models;
mod prune;
mod quant;
mod rng;
mod tensor;
mod workload;

pub use convert::{apply_weight_noise, convert_model, ConvertedLayer, NoiseConfig, OnnModel};
pub use error::{OnnError, Result};
pub use gemm::{
    lower_attention, lower_conv2d, lower_feed_forward, lower_linear, GemmShape, LoweredGemm,
};
pub use layer::{AttentionSpec, Conv2dSpec, LayerKind, LayerSpec, LinearSpec, NamedLayer};
pub use models::{Model, ModelInput};
pub use prune::{magnitude_prune, PruningConfig};
pub use quant::{quantize_symmetric, QuantConfig};
pub use rng::SplitMix64;
pub use tensor::Tensor;
pub use workload::{LayerWorkload, ModelWorkload, WeightEncoding, WeightSamples, MAX_WEIGHT_BITS};

#[cfg(test)]
mod proptests {
    //! Property tests over seeded-random inputs. The original version used the
    //! `proptest` crate; the offline build environment cannot fetch it, so the
    //! same invariants are checked across a deterministic sample drawn from
    //! [`SplitMix64`].

    use super::*;

    fn sample(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
        lo + (rng.next_u64() as usize) % (hi - lo)
    }

    /// GEMM operand/output counts are consistent with the MAC count.
    #[test]
    fn gemm_macs_are_consistent() {
        let mut rng = SplitMix64::new(0x6E33);
        for _ in 0..256 {
            let (m, k, n) = (
                sample(&mut rng, 1, 64),
                sample(&mut rng, 1, 64),
                sample(&mut rng, 1, 64),
            );
            let b = sample(&mut rng, 1, 4);
            let g = GemmShape::new(m, k, n).with_batch(b);
            assert_eq!(g.macs(), g.operand_a_elements() * n as u64);
            assert_eq!(g.macs(), g.operand_b_elements() * m as u64);
            assert_eq!(g.output_elements() * k as u64, g.macs());
        }
    }

    /// Quantised values stay on the representable grid and within range.
    #[test]
    fn quantisation_stays_in_range() {
        let mut rng = SplitMix64::new(0x9A4B7);
        for _ in 0..256 {
            let value = (rng.next_signed() * 2.0) as f32;
            let bits = sample(&mut rng, 2, 10) as u8;
            let q = quantize_symmetric(value, simphony_units::BitWidth::new(bits));
            assert!((-1.0..=1.0).contains(&q), "{q} out of range at {bits} bits");
            let levels = (1u64 << (bits - 1)) as f32;
            let on_grid = (q * levels).round() / levels;
            assert!((q - on_grid).abs() < 1e-6, "{q} off the {bits}-bit grid");
        }
    }

    /// Magnitude pruning hits the requested sparsity within one element.
    #[test]
    fn pruning_hits_target() {
        let mut outer = SplitMix64::new(0xF00D);
        for _ in 0..64 {
            let sparsity = outer.next_f64();
            let len = sample(&mut outer, 1, 500);
            let mut rng = SplitMix64::new(1234);
            let mut values: Vec<f32> = (0..len).map(|_| rng.next_signed() as f32 + 0.001).collect();
            let config = PruningConfig::new(sparsity).expect("valid sparsity");
            magnitude_prune(&mut values, &config);
            let zeros = values.iter().filter(|v| **v == 0.0).count();
            let target = (len as f64 * sparsity).round() as usize;
            assert!(
                zeros.abs_diff(target) <= 1,
                "sparsity {sparsity} len {len}: {zeros} zeros vs target {target}"
            );
        }
    }

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
        assert_send_sync::<Model>();
        assert_send_sync::<ModelWorkload>();
        assert_send_sync::<OnnError>();
    }
}
