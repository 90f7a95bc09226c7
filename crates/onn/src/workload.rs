//! Workload extraction: turning a (converted) model into the per-layer GEMM
//! descriptions the architecture simulator consumes.

use serde::{Deserialize, Serialize};
use std::fmt;

use simphony_units::{BitWidth, DataSize};

use crate::error::{OnnError, Result};
use crate::gemm::{lower_attention, lower_conv2d, lower_linear, GemmShape, LoweredGemm};
use crate::layer::{LayerKind, LayerSpec};
use crate::models::{Model, ModelInput};
use crate::prune::{magnitude_prune, PruningConfig};
use crate::quant::{quantize_symmetric, quantizer_scale, QuantConfig};
use crate::rng::SplitMix64;

/// Maximum number of weight values sampled per layer of a
/// [`ModelWorkload::extract`]ed workload, for data-aware power modeling.
/// Energies are scaled by the true element count, so the cap does not bound
/// the simulated workload size. It bounds three costs per layer: drawing,
/// quantising and pruning the samples at extraction, the resident samples
/// (one `u16` code each) and the data-aware power fold, which reads one table
/// entry per sample once per weight power model (the simulator memoizes the
/// fold per layer and power model; a sweep shard shares one memo per
/// workload across its points). A [`ModelWorkload::shape_only`] workload
/// pays none of them.
const VALUE_SAMPLE_CAP: usize = 8192;

/// Widest weight precision [`ModelWorkload::extract`] supports. Each sampled
/// weight is stored as a `u16` code, and a `b`-bit symmetric quantiser has
/// `2^(b-1) + 1` distinct magnitudes, which fit a `u16` up to 16 bits.
pub const MAX_WEIGHT_BITS: u32 = 16;

/// How operand-A values are expressed for value-aware power modeling.
///
/// The paper supports several "modes" — raw matrix values, normalised device
/// transmissions, phase shifts or control voltages — because different PTCs
/// encode weights in different physical quantities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WeightEncoding {
    /// Plain matrix values in `[-1, 1]`.
    MatrixValue,
    /// Normalised optical transmission in `[0, 1]`.
    Transmission,
    /// Phase shift normalised to π (in `[0, 1]`).
    PhaseShift,
    /// Drive voltage normalised to the full-scale swing.
    Voltage,
}

impl fmt::Display for WeightEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            WeightEncoding::MatrixValue => "matrix value",
            WeightEncoding::Transmission => "transmission",
            WeightEncoding::PhaseShift => "phase shift",
            WeightEncoding::Voltage => "voltage",
        };
        write!(f, "{label}")
    }
}

/// The sampled operand-A values of one layer: what data-aware power models
/// read.
///
/// The samples are stored as a quantization-level codebook: the layer's
/// distinct sampled magnitudes in ascending order, plus one `u16` code per
/// sample, in sample order, indexing them. A `b`-bit weight has at most
/// `2^(b-1) + 1` magnitudes (9 at 4 bits, 129 at 8 bits), so value-aware
/// power models are evaluated once per level instead of once per sample.
///
/// Samples are only built by [`ModelWorkload::extract`], which keeps every
/// code within the codebook; there is deliberately no `Deserialize`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WeightSamples {
    sparsity: f64,
    magnitudes: Vec<f64>,
    codes: Vec<u16>,
}

impl WeightSamples {
    /// Draws `count` seeded Gaussian weights, quantises and magnitude-prunes
    /// them, and splits them into a codebook.
    fn draw(count: usize, quant: &QuantConfig, prune: &PruningConfig, seed: u64) -> Self {
        let values = sample_weights(count, quant, prune, seed);
        let sparsity = if values.is_empty() {
            0.0
        } else {
            values.iter().filter(|v| **v == 0.0).count() as f64 / values.len() as f64
        };
        let (magnitudes, codes) = weight_codebook(&values, quant.weight_bits());
        Self {
            sparsity,
            magnitudes,
            codes,
        }
    }

    /// Measured fraction of zero weights after pruning and quantisation.
    pub fn sparsity(&self) -> f64 {
        self.sparsity
    }

    /// The distinct magnitudes of the sampled operand-A values (quantised,
    /// pruned), normalised to `[0, 1]` and strictly ascending: the quantity
    /// value-aware device power models consume. A pruned weight has
    /// magnitude `0.0`.
    pub fn magnitudes(&self) -> &[f64] {
        &self.magnitudes
    }

    /// One code per sampled operand-A value, in sample order: the index of
    /// the sample's magnitude in [`magnitudes`](Self::magnitudes). A layer
    /// has `min(weight_elements, 8192)` samples.
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }
}

/// One GEMM workload extracted from a model layer.
///
/// Shapes, precisions and the true weight count are always present. The
/// weight [`samples`](Self::samples) are present only when the workload was
/// built by [`ModelWorkload::extract`]: a [`ModelWorkload::shape_only`]
/// workload carries none, and serves only simulations that never read
/// weight values (data-unaware power).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LayerWorkload {
    name: String,
    kind: LayerKind,
    label: String,
    gemm: GemmShape,
    dynamic: bool,
    weight_bits: BitWidth,
    input_bits: BitWidth,
    output_bits: BitWidth,
    samples: Option<WeightSamples>,
    weight_elements: u64,
}

impl LayerWorkload {
    /// Layer name (plus sub-GEMM label for attention blocks).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The originating layer kind.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// Label of the sub-computation (`im2col_conv`, `attn_scores`, …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The GEMM shape.
    pub fn gemm(&self) -> GemmShape {
        self.gemm
    }

    /// `true` when both operands are produced at run time (needs a dynamic PTC).
    pub fn is_dynamic(&self) -> bool {
        self.dynamic
    }

    /// Weight (operand A) precision.
    pub fn weight_bits(&self) -> BitWidth {
        self.weight_bits
    }

    /// Input (operand B) precision.
    pub fn input_bits(&self) -> BitWidth {
        self.input_bits
    }

    /// Output precision.
    pub fn output_bits(&self) -> BitWidth {
        self.output_bits
    }

    /// The sampled operand-A values, or `None` for a shape-only workload.
    pub fn samples(&self) -> Option<&WeightSamples> {
        self.samples.as_ref()
    }

    /// True number of operand-A elements (the samples are a subset).
    pub fn weight_elements(&self) -> u64 {
        self.weight_elements
    }

    /// Total multiply-accumulate operations.
    pub fn macs(&self) -> u64 {
        self.gemm.macs()
    }

    /// Storage footprint of operand A at its precision.
    pub fn weight_size(&self) -> DataSize {
        self.weight_bits
            .size_of(self.gemm.operand_a_elements() as usize)
    }

    /// Storage footprint of operand B at its precision.
    pub fn input_size(&self) -> DataSize {
        self.input_bits
            .size_of(self.gemm.operand_b_elements() as usize)
    }

    /// Storage footprint of the output at its precision.
    pub fn output_size(&self) -> DataSize {
        self.output_bits
            .size_of(self.gemm.output_elements() as usize)
    }

    /// Total data footprint (A + B + output).
    pub fn total_size(&self) -> DataSize {
        self.weight_size() + self.input_size() + self.output_size()
    }
}

impl fmt::Display for LayerWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {} ({} MACs",
            self.name,
            self.label,
            self.gemm,
            self.macs()
        )?;
        if let Some(samples) = &self.samples {
            write!(f, ", {:.0}% sparse", samples.sparsity * 100.0)?;
        }
        f.write_str(if self.dynamic { ", dynamic)" } else { ")" })
    }
}

/// The complete GEMM workload of a model.
///
/// # Examples
///
/// ```
/// use simphony_onn::{ModelWorkload, PruningConfig, QuantConfig};
/// use simphony_onn::models::vgg8_cifar10;
///
/// let workload = ModelWorkload::extract(
///     &vgg8_cifar10(),
///     &QuantConfig::default(),
///     &PruningConfig::dense(),
///     42,
/// )?;
/// assert_eq!(workload.layers().len(), 8);
/// assert!(workload.total_macs() > 100_000_000);
/// # Ok::<(), simphony_onn::OnnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelWorkload {
    model_name: String,
    layers: Vec<LayerWorkload>,
}

impl ModelWorkload {
    /// Extracts the GEMM workload of `model` under the given quantisation and
    /// pruning settings, with every layer's weight
    /// [`samples`](LayerWorkload::samples). `seed` controls the deterministic
    /// synthetic weights.
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::UnsupportedBitWidth`] when the weight precision
    /// exceeds [`MAX_WEIGHT_BITS`], [`OnnError::EmptyWorkload`] when the model
    /// contains no GEMM layers, and propagates layer-geometry errors.
    pub fn extract(
        model: &Model,
        quant: &QuantConfig,
        prune: &PruningConfig,
        seed: u64,
    ) -> Result<Self> {
        Self::lower(model, quant, Some((prune, seed)))
    }

    /// Lowers `model` to the same layers as [`extract`](Self::extract), with
    /// every field but the weight samples: names, kinds, labels, GEMM shapes,
    /// dynamic flags, precisions and true weight counts. No weight is drawn,
    /// so this is what a data-unaware simulation needs at a fraction of the
    /// cost; a data-aware one refuses it.
    ///
    /// # Errors
    ///
    /// The same as [`extract`](Self::extract).
    pub fn shape_only(model: &Model, quant: &QuantConfig) -> Result<Self> {
        Self::lower(model, quant, None)
    }

    /// The one extraction routine: lowers every GEMM layer of `model` and,
    /// given pruning settings and a seed, samples its weights.
    fn lower(
        model: &Model,
        quant: &QuantConfig,
        sampling: Option<(&PruningConfig, u64)>,
    ) -> Result<Self> {
        let bits = quant.weight_bits().bits();
        if bits > MAX_WEIGHT_BITS {
            return Err(OnnError::UnsupportedBitWidth {
                bits,
                max: MAX_WEIGHT_BITS,
            });
        }
        let mut layers = Vec::new();
        // Track the activation geometry as layers are traversed.
        let mut image_hw: Option<(usize, usize)> = None;
        let mut tokens = 1usize;
        match model.input() {
            ModelInput::Image { height, width, .. } => image_hw = Some((height, width)),
            ModelInput::Tokens { seq_len, .. } => tokens = seq_len,
        }
        for (layer_index, layer) in model.layers().iter().enumerate() {
            let lowered: Vec<LoweredGemm> = match &layer.spec {
                LayerSpec::Conv2d(conv) => {
                    let hw = image_hw.unwrap_or((1, 1));
                    let gemm = lower_conv2d(conv, hw)?;
                    image_hw = Some(conv.output_size(hw)?);
                    vec![gemm]
                }
                LayerSpec::Linear(linear) => {
                    let effective_tokens = if image_hw.is_some() { 1 } else { tokens };
                    vec![lower_linear(linear, effective_tokens)]
                }
                LayerSpec::Attention(attn) => lower_attention(attn),
                LayerSpec::Pooling => {
                    if let Some((h, w)) = image_hw {
                        image_hw = Some(((h / 2).max(1), (w / 2).max(1)));
                    }
                    continue;
                }
                LayerSpec::Activation | LayerSpec::Normalization => continue,
            };
            for (sub_index, gemm) in lowered.into_iter().enumerate() {
                let samples = sampling.map(|(prune, seed)| {
                    let layer_seed = seed
                        .wrapping_add(layer_index as u64 * 1013)
                        .wrapping_add(sub_index as u64 * 7919);
                    let count = (gemm.shape.operand_a_elements() as usize).min(VALUE_SAMPLE_CAP);
                    WeightSamples::draw(count, quant, prune, layer_seed)
                });
                layers.push(build_layer_workload(
                    layer.name.clone(),
                    layer.spec.kind(),
                    gemm,
                    quant,
                    samples,
                ));
            }
        }
        if layers.is_empty() {
            return Err(OnnError::EmptyWorkload {
                model: model.name().to_string(),
            });
        }
        Ok(Self {
            model_name: model.name().to_string(),
            layers,
        })
    }

    /// The model the workload was extracted from.
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// Per-layer workloads in execution order.
    pub fn layers(&self) -> &[LayerWorkload] {
        &self.layers
    }

    /// Total multiply-accumulate operations across all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(LayerWorkload::macs).sum()
    }

    /// Total operand-A footprint across layers.
    pub fn total_weight_size(&self) -> DataSize {
        self.layers.iter().map(LayerWorkload::weight_size).sum()
    }

    /// Footprint of the largest single layer (A + B + output), which sizes the
    /// global buffer in the paper's memory model.
    pub fn max_layer_size(&self) -> DataSize {
        self.layers
            .iter()
            .map(LayerWorkload::total_size)
            .fold(DataSize::ZERO, DataSize::max)
    }

    /// Fraction of layers whose GEMM is a dynamic·dynamic product.
    pub fn dynamic_fraction(&self) -> f64 {
        if self.layers.is_empty() {
            return 0.0;
        }
        self.layers.iter().filter(|l| l.is_dynamic()).count() as f64 / self.layers.len() as f64
    }
}

impl fmt::Display for ModelWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workload of {}: {} GEMMs, {:.2} GMACs",
            self.model_name,
            self.layers.len(),
            self.total_macs() as f64 / 1e9
        )
    }
}

fn build_layer_workload(
    name: String,
    kind: LayerKind,
    gemm: LoweredGemm,
    quant: &QuantConfig,
    samples: Option<WeightSamples>,
) -> LayerWorkload {
    let label = gemm.label.clone();
    let name = if label == "im2col_conv" || label == "linear" {
        name
    } else {
        format!("{name}.{label}")
    };
    LayerWorkload {
        name,
        kind,
        label,
        gemm: gemm.shape,
        dynamic: gemm.dynamic,
        weight_bits: quant.weight_bits(),
        input_bits: quant.input_bits(),
        output_bits: quant.output_bits(),
        samples,
        weight_elements: gemm.shape.operand_a_elements(),
    }
}

/// A layer's sampled weights: seeded Gaussian draws, quantised, then
/// magnitude-pruned.
fn sample_weights(count: usize, quant: &QuantConfig, prune: &PruningConfig, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    let mut values: Vec<f32> = (0..count)
        .map(|_| quantize_symmetric(rng.next_gaussian() as f32 * 0.5, quant.weight_bits()))
        .collect();
    magnitude_prune(&mut values, prune);
    values
}

/// Splits quantised samples into their distinct magnitudes, ascending, and
/// one code per sample indexing them.
///
/// Every `bits`-bit quantised value is `k / scale` with `scale` a power of
/// two, so `|v| · scale` is exactly the integer level `|k|`, and
/// `|k| / scale` is exactly `|v|`. Linear passes over the samples and over
/// the at most `scale + 1` levels rank the levels present; no sort. `bits`
/// must be at most [`MAX_WEIGHT_BITS`], so that every level fits a `u16`.
fn weight_codebook(values: &[f32], bits: BitWidth) -> (Vec<f64>, Vec<u16>) {
    const ABSENT: u16 = u16::MAX;
    let scale = quantizer_scale(bits);
    let mut codes: Vec<u16> = values.iter().map(|v| (v.abs() * scale) as u16).collect();
    let mut rank = vec![ABSENT; scale as usize + 1];
    for &level in &codes {
        rank[usize::from(level)] = 0;
    }
    let mut magnitudes = Vec::new();
    for (level, slot) in rank.iter_mut().enumerate() {
        if *slot != ABSENT {
            *slot = magnitudes.len() as u16;
            magnitudes.push(f64::from(level as f32 / scale));
        }
    }
    // With every level present, each level already is its own rank.
    if magnitudes.len() < rank.len() {
        for code in &mut codes {
            *code = rank[usize::from(*code)];
        }
    }
    (magnitudes, codes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{bert_base, single_gemm, vgg8_cifar10};

    fn dense_workload(model: &Model) -> ModelWorkload {
        ModelWorkload::extract(model, &QuantConfig::default(), &PruningConfig::dense(), 7)
            .expect("extraction succeeds")
    }

    #[test]
    fn vgg8_produces_one_gemm_per_conv_and_fc() {
        let workload = dense_workload(&vgg8_cifar10());
        assert_eq!(workload.layers().len(), 8);
        assert!(workload.layers().iter().all(|l| !l.is_dynamic()));
    }

    #[test]
    fn vgg8_spatial_tracking_matches_pooling() {
        let workload = dense_workload(&vgg8_cifar10());
        // conv1 and conv2 see 32x32, conv3/conv4 16x16, conv5/conv6 8x8.
        let ns: Vec<usize> = workload.layers().iter().map(|l| l.gemm().n).collect();
        assert_eq!(ns[0], 32 * 32);
        assert_eq!(ns[2], 16 * 16);
        assert_eq!(ns[4], 8 * 8);
        // FC layers process a single flattened token.
        assert_eq!(ns[6], 1);
    }

    #[test]
    fn bert_base_has_six_gemms_per_block() {
        let workload = dense_workload(&bert_base(196));
        // 12 blocks x (qkv, scores, context, out_proj, ffn_up, ffn_down).
        assert_eq!(workload.layers().len(), 12 * 6);
        assert!(workload.dynamic_fraction() > 0.3);
        // BERT-Base forward pass on 196 tokens is ~22 GMACs.
        let gmacs = workload.total_macs() as f64 / 1e9;
        assert!(gmacs > 15.0 && gmacs < 30.0, "{gmacs} GMACs");
    }

    #[test]
    fn validation_gemm_sizes_match_the_paper_setting() {
        let workload = dense_workload(&single_gemm(280, 28, 280));
        let layer = &workload.layers()[0];
        assert_eq!(layer.gemm(), GemmShape::new(280, 28, 280));
        assert_eq!(layer.weight_size().bytes(), (280 * 28) as f64);
        assert_eq!(layer.macs(), 280 * 28 * 280);
    }

    #[test]
    fn pruning_is_reflected_in_sparsity_and_values() {
        let model = single_gemm(64, 64, 64);
        let sparse = ModelWorkload::extract(
            &model,
            &QuantConfig::default(),
            &PruningConfig::new(0.6).expect("valid"),
            7,
        )
        .expect("extraction succeeds");
        let samples = sparse.layers()[0].samples().expect("extract samples");
        assert!((samples.sparsity() - 0.6).abs() < 0.02);
        let magnitudes = samples.magnitudes();
        let zeros = samples
            .codes()
            .iter()
            .filter(|&&code| magnitudes[usize::from(code)] == 0.0)
            .count();
        assert!(zeros as f64 / samples.codes().len() as f64 > 0.55);
    }

    #[test]
    fn extraction_is_deterministic_for_the_same_seed() {
        let model = vgg8_cifar10();
        let a = dense_workload(&model);
        let b = dense_workload(&model);
        assert_eq!(a, b);
    }

    #[test]
    fn value_samples_are_capped_but_true_count_is_kept() {
        let workload = dense_workload(&bert_base(196));
        let qkv = &workload.layers()[0];
        assert_eq!(qkv.weight_elements(), (3 * 768 * 768) as u64);
        for model in [bert_base(196), vgg8_cifar10()] {
            for layer in dense_workload(&model).layers() {
                let expected = (layer.weight_elements() as usize).min(VALUE_SAMPLE_CAP);
                let samples = layer.samples().expect("extract samples");
                assert_eq!(samples.codes().len(), expected, "{}", layer.name());
            }
        }
    }

    #[test]
    fn each_layer_has_at_most_one_magnitude_per_quantization_level() {
        for bits in [1u8, 2, 4, 8, 16] {
            for sparsity in [0.0, 0.5, 0.9] {
                let workload = ModelWorkload::extract(
                    &vgg8_cifar10(),
                    &QuantConfig::uniform(BitWidth::new(bits)),
                    &PruningConfig::new(sparsity).expect("valid"),
                    11,
                )
                .expect("extraction succeeds");
                let bound = (1usize << (bits - 1)) + 1;
                for layer in workload.layers() {
                    let samples = layer.samples().expect("extract samples");
                    let magnitudes = samples.magnitudes();
                    assert!(
                        magnitudes.len() <= bound,
                        "{bits} bits: {}",
                        magnitudes.len()
                    );
                    assert!(magnitudes.windows(2).all(|w| w[0] < w[1]));
                    assert!(samples
                        .codes()
                        .iter()
                        .all(|&code| usize::from(code) < magnitudes.len()));
                }
            }
        }
    }

    #[test]
    fn codebook_reproduces_every_sampled_magnitude_bit_for_bit() {
        // A sample's magnitude, normalised one sample at a time.
        let old_magnitude = |v: f32| f64::from(v.abs()).min(1.0);
        for bits in [1u8, 2, 4, 8, 16] {
            let quant = QuantConfig::uniform(BitWidth::new(bits));
            for sparsity in [0.0, 0.5, 0.9] {
                let prune = PruningConfig::new(sparsity).expect("valid");
                for seed in 0..4 {
                    let values = sample_weights(VALUE_SAMPLE_CAP, &quant, &prune, seed);
                    let (magnitudes, codes) = weight_codebook(&values, quant.weight_bits());
                    assert_eq!(codes.len(), values.len());
                    for (&v, &code) in values.iter().zip(&codes) {
                        assert_eq!(
                            magnitudes[usize::from(code)].to_bits(),
                            old_magnitude(v).to_bits(),
                            "{bits} bits, sparsity {sparsity}, seed {seed}, value {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weights_wider_than_the_code_width_are_a_typed_error() {
        let result = ModelWorkload::extract(
            &single_gemm(8, 8, 8),
            &QuantConfig::uniform(BitWidth::new(17)),
            &PruningConfig::dense(),
            1,
        );
        let err = result.expect_err("17-bit weights are rejected");
        assert_eq!(
            err,
            OnnError::UnsupportedBitWidth {
                bits: 17,
                max: MAX_WEIGHT_BITS
            }
        );
        assert!(err.to_string().contains("at most 16 bits"), "{err}");
        let shapes = ModelWorkload::shape_only(
            &single_gemm(8, 8, 8),
            &QuantConfig::uniform(BitWidth::new(17)),
        );
        assert_eq!(shapes, Err(err));
    }

    #[test]
    fn model_without_gemm_layers_is_an_error() {
        let model = Model::new(
            "only_pool",
            ModelInput::Image {
                channels: 3,
                height: 8,
                width: 8,
            },
        )
        .with_layer(crate::layer::NamedLayer::new("pool", LayerSpec::Pooling));
        assert!(matches!(
            ModelWorkload::extract(&model, &QuantConfig::default(), &PruningConfig::dense(), 1),
            Err(OnnError::EmptyWorkload { .. })
        ));
        assert!(matches!(
            ModelWorkload::shape_only(&model, &QuantConfig::default()),
            Err(OnnError::EmptyWorkload { .. })
        ));
    }

    #[test]
    fn normalized_values_are_in_unit_range() {
        let workload = dense_workload(&vgg8_cifar10());
        for layer in workload.layers() {
            assert!(layer
                .samples()
                .expect("extract samples")
                .magnitudes()
                .iter()
                .all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn shape_only_workloads_match_extraction_in_everything_but_the_samples() {
        for model in [vgg8_cifar10(), bert_base(32), single_gemm(64, 64, 64)] {
            for bits in [4u8, 8] {
                let quant = QuantConfig::uniform(BitWidth::new(bits));
                let prune = PruningConfig::new(0.5).expect("valid");
                let mut sampled = ModelWorkload::extract(&model, &quant, &prune, 42)
                    .expect("extraction succeeds");
                assert!(sampled.layers().iter().all(|l| l.samples().is_some()));
                let shapes = ModelWorkload::shape_only(&model, &quant).expect("lowering succeeds");
                assert!(shapes.layers().iter().all(|l| l.samples().is_none()));
                // Names, kinds, labels, GEMM shapes, dynamic flags, bit widths
                // and weight counts: every other field compares equal.
                for layer in &mut sampled.layers {
                    layer.samples = None;
                }
                assert_eq!(shapes, sampled, "{} at {bits} bits", model.name());
            }
        }
    }

    #[test]
    fn only_sampled_layers_report_their_sparsity() {
        let model = single_gemm(64, 64, 64);
        let quant = QuantConfig::default();
        let prune = PruningConfig::new(0.5).expect("valid");
        let sampled = ModelWorkload::extract(&model, &quant, &prune, 7).expect("extracts");
        let shapes = ModelWorkload::shape_only(&model, &quant).expect("lowers");
        assert!(sampled.layers()[0].to_string().contains("% sparse"));
        assert!(!shapes.layers()[0].to_string().contains("sparse"));
    }
}
