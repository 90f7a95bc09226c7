//! Declarative sweep specifications and their deterministic expansion.

use std::fmt;

use serde::{Deserialize, Serialize};

use simphony::{DataAwareness, Result as SimResult, SimulationConfig};
use simphony_arch::{generators, PtcArchitecture};
use simphony_dataflow::DataflowStyle;
use simphony_netlist::ArchParams;
use simphony_onn::{models, Model, ModelWorkload, PruningConfig, QuantConfig, MAX_WEIGHT_BITS};
use simphony_units::BitWidth;

use crate::error::{ExploreError, Result};

/// The PTC architecture families the generator axis can select, one per
/// builder in [`simphony_arch::generators`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArchFamily {
    /// Dynamic array-style TeMPO tensor core.
    Tempo,
    /// Static Clements-style MZI mesh.
    MziMesh,
    /// Incoherent micro-ring weight bank.
    MrrBank,
    /// Subspace butterfly mesh.
    Butterfly,
    /// Non-volatile phase-change-material crossbar.
    PcmCrossbar,
    /// SCATTER with the analytical phase-shifter power model.
    Scatter,
    /// SCATTER with the measurement-backed phase-shifter power table.
    ScatterMeasured,
}

impl ArchFamily {
    /// Every selectable family, in a stable order.
    pub const ALL: [ArchFamily; 7] = [
        ArchFamily::Tempo,
        ArchFamily::MziMesh,
        ArchFamily::MrrBank,
        ArchFamily::Butterfly,
        ArchFamily::PcmCrossbar,
        ArchFamily::Scatter,
        ArchFamily::ScatterMeasured,
    ];

    /// Short lowercase name, matching the generator function name.
    pub fn name(self) -> &'static str {
        match self {
            ArchFamily::Tempo => "tempo",
            ArchFamily::MziMesh => "mzi_mesh",
            ArchFamily::MrrBank => "mrr_bank",
            ArchFamily::Butterfly => "butterfly",
            ArchFamily::PcmCrossbar => "pcm_crossbar",
            ArchFamily::Scatter => "scatter",
            ArchFamily::ScatterMeasured => "scatter_measured",
        }
    }

    /// Parses a family from its [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Builds the architecture for this family.
    ///
    /// # Errors
    ///
    /// Propagates netlist/parameter validation errors from the generator.
    pub fn generate(self, params: ArchParams, clock_ghz: f64) -> SimResult<PtcArchitecture> {
        let arch = match self {
            ArchFamily::Tempo => generators::tempo(params, clock_ghz),
            ArchFamily::MziMesh => generators::mzi_mesh(params, clock_ghz),
            ArchFamily::MrrBank => generators::mrr_bank(params, clock_ghz),
            ArchFamily::Butterfly => generators::butterfly(params, clock_ghz),
            ArchFamily::PcmCrossbar => generators::pcm_crossbar(params, clock_ghz),
            ArchFamily::Scatter => generators::scatter(params, clock_ghz),
            ArchFamily::ScatterMeasured => generators::scatter_measured(params, clock_ghz),
        }?;
        Ok(arch)
    }
}

impl fmt::Display for ArchFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Workload selector: which model a sweep point simulates.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// A single `(m×k)×(k×n)` GEMM (the paper's validation workload is
    /// `280×28×280`).
    Gemm {
        /// Output rows.
        m: usize,
        /// Contraction dimension.
        k: usize,
        /// Output columns.
        n: usize,
    },
    /// The paper's VGG-8/CIFAR-10 evaluation model.
    Vgg8,
    /// BERT-Base with the given sequence length.
    Bert {
        /// Token sequence length.
        seq_len: usize,
    },
}

impl WorkloadSpec {
    /// The paper's `(280×28)×(28×280)` validation GEMM.
    pub fn validation_gemm() -> Self {
        WorkloadSpec::Gemm {
            m: 280,
            k: 28,
            n: 280,
        }
    }

    /// Checks the selector's dimensions are physically meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidSpec`] on a zero dimension — a
    /// zero-sized GEMM or empty sequence would propagate NaN metrics through
    /// every downstream record.
    pub fn validate(&self) -> Result<()> {
        match self {
            WorkloadSpec::Gemm { m, k, n } => {
                if *m == 0 || *k == 0 || *n == 0 {
                    return Err(ExploreError::invalid_spec(format!(
                        "GEMM dimensions must be at least 1, got {m}x{k}x{n}"
                    )));
                }
            }
            WorkloadSpec::Vgg8 => {}
            WorkloadSpec::Bert { seq_len } => {
                if *seq_len == 0 {
                    return Err(ExploreError::invalid_spec(
                        "BERT sequence length must be at least 1",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Short label used in record files and CSV columns.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Gemm { m, k, n } => format!("gemm{m}x{k}x{n}"),
            WorkloadSpec::Vgg8 => "vgg8".to_string(),
            WorkloadSpec::Bert { seq_len } => format!("bert{seq_len}"),
        }
    }

    /// The model this selector names.
    fn model(&self) -> Model {
        match self {
            WorkloadSpec::Gemm { m, k, n } => models::single_gemm(*m, *k, *n),
            WorkloadSpec::Vgg8 => models::vgg8_cifar10(),
            WorkloadSpec::Bert { seq_len } => models::bert_base(*seq_len),
        }
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A declarative design-space sweep: one list of candidate values per axis.
///
/// [`SweepSpec::expand`] takes the Cartesian product of every axis in the
/// field order below (workload outermost, data-awareness innermost), which
/// fixes a deterministic point numbering independent of how the sweep is
/// executed.
///
/// # Examples
///
/// ```
/// use simphony_explore::{ArchFamily, SweepSpec};
///
/// let spec = SweepSpec::new("wavelengths")
///     .with_arch(vec![ArchFamily::Tempo])
///     .with_wavelengths(vec![1, 2, 4, 8]);
/// assert_eq!(spec.expand().unwrap().len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Human-readable sweep name (used in output file naming and logs).
    pub name: String,
    /// Workloads to simulate.
    pub workload: Vec<WorkloadSpec>,
    /// Architecture families to generate.
    pub arch: Vec<ArchFamily>,
    /// Tile counts (`R`).
    pub tiles: Vec<usize>,
    /// Cores per tile (`C`).
    pub cores_per_tile: Vec<usize>,
    /// Core heights (`H`).
    pub core_height: Vec<usize>,
    /// Core widths (`W`).
    pub core_width: Vec<usize>,
    /// Wavelength counts (`LAMBDA`).
    pub wavelengths: Vec<usize>,
    /// Uniform operand bit widths.
    pub bitwidth: Vec<u8>,
    /// Weight pruning densities expressed as sparsity fractions in `[0, 1)`.
    pub sparsity: Vec<f64>,
    /// GEMM dataflow styles.
    pub dataflow: Vec<DataflowStyle>,
    /// Device power accounting modes.
    pub data_awareness: Vec<DataAwareness>,
    /// Clock frequency in GHz, shared by every point.
    pub clock_ghz: f64,
    /// Deterministic workload-extraction seed, shared by every point.
    pub seed: u64,
}

impl SweepSpec {
    /// A spec with every axis pinned to the paper's default use-case setting:
    /// TeMPO, 2 tiles × 2 cores of 4×4 nodes, 1 wavelength, 8-bit dense
    /// operands, output-stationary, data-aware, 5 GHz.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            workload: vec![WorkloadSpec::validation_gemm()],
            arch: vec![ArchFamily::Tempo],
            tiles: vec![2],
            cores_per_tile: vec![2],
            core_height: vec![4],
            core_width: vec![4],
            wavelengths: vec![1],
            bitwidth: vec![8],
            sparsity: vec![0.0],
            dataflow: vec![DataflowStyle::OutputStationary],
            data_awareness: vec![DataAwareness::Aware],
            clock_ghz: 5.0,
            seed: 42,
        }
    }

    /// Replaces the workload axis.
    #[must_use]
    pub fn with_workload(mut self, workload: Vec<WorkloadSpec>) -> Self {
        self.workload = workload;
        self
    }

    /// Replaces the architecture-family axis.
    #[must_use]
    pub fn with_arch(mut self, arch: Vec<ArchFamily>) -> Self {
        self.arch = arch;
        self
    }

    /// Replaces the tile-count axis.
    #[must_use]
    pub fn with_tiles(mut self, tiles: Vec<usize>) -> Self {
        self.tiles = tiles;
        self
    }

    /// Replaces the cores-per-tile axis.
    #[must_use]
    pub fn with_cores_per_tile(mut self, cores: Vec<usize>) -> Self {
        self.cores_per_tile = cores;
        self
    }

    /// Replaces both core-dimension axes at once (square cores).
    #[must_use]
    pub fn with_core_dims(mut self, dims: Vec<usize>) -> Self {
        self.core_height = dims.clone();
        self.core_width = dims;
        self
    }

    /// Replaces the wavelength axis.
    #[must_use]
    pub fn with_wavelengths(mut self, wavelengths: Vec<usize>) -> Self {
        self.wavelengths = wavelengths;
        self
    }

    /// Replaces the bitwidth axis.
    #[must_use]
    pub fn with_bitwidth(mut self, bitwidth: Vec<u8>) -> Self {
        self.bitwidth = bitwidth;
        self
    }

    /// Replaces the sparsity axis.
    #[must_use]
    pub fn with_sparsity(mut self, sparsity: Vec<f64>) -> Self {
        self.sparsity = sparsity;
        self
    }

    /// Replaces the dataflow axis.
    #[must_use]
    pub fn with_dataflow(mut self, dataflow: Vec<DataflowStyle>) -> Self {
        self.dataflow = dataflow;
        self
    }

    /// Replaces the data-awareness axis.
    #[must_use]
    pub fn with_data_awareness(mut self, awareness: Vec<DataAwareness>) -> Self {
        self.data_awareness = awareness;
        self
    }

    /// Number of points the expansion will produce.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidSpec`] when the 11-way product of the
    /// axis lengths overflows `usize` — an unchecked multiplication here
    /// would panic in debug builds and silently wrap in release builds,
    /// corrupting capacity hints and truncating the point index space.
    pub fn point_count(&self) -> Result<usize> {
        let axes = [
            self.workload.len(),
            self.arch.len(),
            self.tiles.len(),
            self.cores_per_tile.len(),
            self.core_height.len(),
            self.core_width.len(),
            self.wavelengths.len(),
            self.bitwidth.len(),
            self.sparsity.len(),
            self.dataflow.len(),
            self.data_awareness.len(),
        ];
        axes.into_iter().try_fold(1usize, |count, len| {
            count.checked_mul(len).ok_or_else(|| {
                ExploreError::invalid_spec(format!(
                    "sweep `{}` spans more than {} points, which overflows the point index space",
                    self.name,
                    usize::MAX
                ))
            })
        })
    }

    /// Validates the axes without expanding.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidSpec`] when an axis is empty or a value
    /// is out of its physical range.
    pub fn validate(&self) -> Result<()> {
        let axes: [(&str, usize); 11] = [
            ("workload", self.workload.len()),
            ("arch", self.arch.len()),
            ("tiles", self.tiles.len()),
            ("cores_per_tile", self.cores_per_tile.len()),
            ("core_height", self.core_height.len()),
            ("core_width", self.core_width.len()),
            ("wavelengths", self.wavelengths.len()),
            ("bitwidth", self.bitwidth.len()),
            ("sparsity", self.sparsity.len()),
            ("dataflow", self.dataflow.len()),
            ("data_awareness", self.data_awareness.len()),
        ];
        for (axis, len) in axes {
            if len == 0 {
                return Err(ExploreError::invalid_spec(format!(
                    "axis `{axis}` is empty"
                )));
            }
        }
        for dims in [
            &self.tiles,
            &self.cores_per_tile,
            &self.core_height,
            &self.core_width,
            &self.wavelengths,
        ] {
            if dims.contains(&0) {
                return Err(ExploreError::invalid_spec(
                    "architecture dimensions must be at least 1",
                ));
            }
        }
        if let Some(bits) = self
            .bitwidth
            .iter()
            .find(|&&bits| bits == 0 || u32::from(bits) > MAX_WEIGHT_BITS)
        {
            return Err(ExploreError::invalid_spec(format!(
                "bitwidth must lie in 1..={MAX_WEIGHT_BITS}, got {bits}"
            )));
        }
        if self.sparsity.iter().any(|s| !(0.0..1.0).contains(s)) {
            return Err(ExploreError::invalid_spec(
                "sparsity values must lie in [0, 1)",
            ));
        }
        if !self.clock_ghz.is_finite() || self.clock_ghz <= 0.0 {
            return Err(ExploreError::invalid_spec(
                "clock_ghz must be positive and finite",
            ));
        }
        for workload in &self.workload {
            workload.validate()?;
        }
        Ok(())
    }

    /// Decodes the point at `index` in deterministic expansion order.
    ///
    /// The index is interpreted as a mixed-radix number whose digits are the
    /// per-axis positions, with the innermost axis (`data_awareness`) as the
    /// least-significant digit — exactly the numbering the nested-loop
    /// expansion produces, so `spec.point_at(i)` is identical (bit for bit
    /// once serialized) to `spec.expand()?[i]` at O(1) cost and O(1) memory.
    ///
    /// # Panics
    ///
    /// Panics when an axis is empty or `index >= point_count()`; call
    /// [`points`](Self::points) (which validates first) or check
    /// [`point_count`](Self::point_count) before using raw indices.
    pub fn point_at(&self, index: usize) -> SweepPoint {
        fn digit(rem: &mut usize, len: usize) -> usize {
            let d = *rem % len;
            *rem /= len;
            d
        }
        let mut rem = index;
        // Least-significant (innermost, fastest-varying) axis first.
        let data_awareness = self.data_awareness[digit(&mut rem, self.data_awareness.len())];
        let dataflow = self.dataflow[digit(&mut rem, self.dataflow.len())];
        let sparsity = self.sparsity[digit(&mut rem, self.sparsity.len())];
        let bits = self.bitwidth[digit(&mut rem, self.bitwidth.len())];
        let wavelengths = self.wavelengths[digit(&mut rem, self.wavelengths.len())];
        let core_width = self.core_width[digit(&mut rem, self.core_width.len())];
        let core_height = self.core_height[digit(&mut rem, self.core_height.len())];
        let cores_per_tile = self.cores_per_tile[digit(&mut rem, self.cores_per_tile.len())];
        let tiles = self.tiles[digit(&mut rem, self.tiles.len())];
        let arch = self.arch[digit(&mut rem, self.arch.len())];
        assert!(
            rem < self.workload.len(),
            "point index {index} out of range for sweep `{}`",
            self.name
        );
        SweepPoint {
            index,
            workload: self.workload[rem].clone(),
            arch,
            tiles,
            cores_per_tile,
            core_height,
            core_width,
            wavelengths,
            bits,
            sparsity,
            dataflow,
            data_awareness,
            clock_ghz: self.clock_ghz,
            seed: self.seed,
        }
    }

    /// A lazy iterator over the expansion, in deterministic order.
    ///
    /// Unlike [`expand`](Self::expand) this never materializes the full point
    /// list: each point is decoded on demand via [`point_at`](Self::point_at),
    /// so arbitrarily large sweeps (hundreds of thousands of points and
    /// beyond) can be streamed in O(1) memory.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidSpec`] when [`validate`](Self::validate)
    /// fails or the point count overflows.
    pub fn points(&self) -> Result<PointIter<'_>> {
        self.validate()?;
        let total = self.point_count()?;
        Ok(PointIter {
            spec: self,
            next: 0,
            total,
        })
    }

    /// Expands the Cartesian product into ordered [`SweepPoint`]s.
    ///
    /// The ordering is part of the engine's contract: records are emitted in
    /// this order regardless of the number of executor threads. This is a
    /// convenience over [`points`](Self::points) for sweeps small enough to
    /// hold in memory.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidSpec`] when [`validate`](Self::validate)
    /// fails.
    pub fn expand(&self) -> Result<Vec<SweepPoint>> {
        Ok(self.points()?.collect())
    }
}

/// Lazy iterator over a [`SweepSpec`]'s expansion, created by
/// [`SweepSpec::points`]. Decodes one [`SweepPoint`] per step via
/// [`SweepSpec::point_at`]; never holds more than the current point.
#[derive(Debug, Clone)]
pub struct PointIter<'a> {
    spec: &'a SweepSpec,
    next: usize,
    total: usize,
}

impl Iterator for PointIter<'_> {
    type Item = SweepPoint;

    fn next(&mut self) -> Option<SweepPoint> {
        if self.next >= self.total {
            return None;
        }
        let point = self.spec.point_at(self.next);
        self.next += 1;
        Some(point)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.total - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for PointIter<'_> {}

impl std::iter::FusedIterator for PointIter<'_> {}

/// One fully-bound configuration from a sweep expansion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Zero-based position in the deterministic expansion order.
    pub index: usize,
    /// Workload to simulate.
    pub workload: WorkloadSpec,
    /// Architecture family.
    pub arch: ArchFamily,
    /// Tile count (`R`).
    pub tiles: usize,
    /// Cores per tile (`C`).
    pub cores_per_tile: usize,
    /// Core height (`H`).
    pub core_height: usize,
    /// Core width (`W`).
    pub core_width: usize,
    /// Wavelength count (`LAMBDA`).
    pub wavelengths: usize,
    /// Uniform operand bit width.
    pub bits: u8,
    /// Weight sparsity fraction.
    pub sparsity: f64,
    /// GEMM dataflow style.
    pub dataflow: DataflowStyle,
    /// Device power accounting mode.
    pub data_awareness: DataAwareness,
    /// Clock frequency in GHz.
    pub clock_ghz: f64,
    /// Workload-extraction seed.
    pub seed: u64,
}

/// Identity of the extracted-workload artifact of a sweep point: two points
/// with equal keys extract bit-identical [`simphony_onn::ModelWorkload`]s, so
/// a sweep extracts each distinct key once and shares the result.
///
/// A data-aware point's workload carries weight samples, drawn from the
/// point's sparsity and seed, so it is keyed on workload × bits × sparsity ×
/// seed. A data-unaware point's workload is shape-only and keyed on workload
/// × bits alone: every unaware point of one model and precision shares it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkloadKey {
    workload: WorkloadSpec,
    bits: u8,
    /// What the weight samples are drawn from, as (sparsity as raw `f64`
    /// bits, seed) — extraction is a pure function of the exact float
    /// value — or `None` for a shape-only workload. `None` never equals
    /// `Some`, so a shape-only workload can never serve a data-aware point.
    samples: Option<(u64, u64)>,
}

impl WorkloadKey {
    /// Extracts the workload this key names: with weight samples for a
    /// data-aware point, shape-only for a data-unaware one.
    pub(crate) fn extract(&self) -> SimResult<ModelWorkload> {
        let model = self.workload.model();
        let quant = QuantConfig::uniform(BitWidth::new(self.bits));
        Ok(match self.samples {
            Some((sparsity_bits, seed)) => {
                let pruning = PruningConfig::new(f64::from_bits(sparsity_bits))?;
                ModelWorkload::extract(&model, &quant, &pruning, seed)?
            }
            None => ModelWorkload::shape_only(&model, &quant)?,
        })
    }
}

/// Identity of the generated-accelerator artifact of a sweep point: two
/// points with equal keys generate identical [`simphony::Accelerator`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArchKey {
    arch: ArchFamily,
    tiles: usize,
    cores_per_tile: usize,
    core_height: usize,
    core_width: usize,
    wavelengths: usize,
    /// Clock as raw `f64` bits.
    clock_bits: u64,
}

/// Identity of a point's simulation: everything
/// [`Simulator::simulate_memoized`](simphony::Simulator::simulate_memoized)
/// reads of the point — its workload, its accelerator and its
/// [`SimulationConfig`] — so two points with equal keys get bit-identical
/// reports, and a shard simulates each distinct key once.
///
/// The [`SimulationConfig`] is held field by field, so a field added to it
/// fails to compile [`SweepPoint::sim_key`] until the key holds it too. The
/// dataflow stays in the key although no report number depends on it today.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SimKey {
    pub(crate) workload: WorkloadKey,
    pub(crate) arch: ArchKey,
    data_awareness: DataAwareness,
    dataflow: DataflowStyle,
    layout_aware: bool,
}

impl SimKey {
    /// The simulator configuration this key names.
    pub(crate) fn config(&self) -> SimulationConfig {
        SimulationConfig {
            data_awareness: self.data_awareness,
            dataflow: self.dataflow,
            layout_aware: self.layout_aware,
        }
    }
}

impl SweepPoint {
    /// The identity of this point's workload artifact (see [`WorkloadKey`]).
    pub fn workload_key(&self) -> WorkloadKey {
        WorkloadKey {
            workload: self.workload.clone(),
            bits: self.bits,
            samples: match self.data_awareness {
                DataAwareness::Aware => Some((self.sparsity.to_bits(), self.seed)),
                DataAwareness::Unaware => None,
            },
        }
    }

    /// The identity of this point's accelerator artifact (see [`ArchKey`]).
    pub fn arch_key(&self) -> ArchKey {
        ArchKey {
            arch: self.arch,
            tiles: self.tiles,
            cores_per_tile: self.cores_per_tile,
            core_height: self.core_height,
            core_width: self.core_width,
            wavelengths: self.wavelengths,
            clock_bits: self.clock_ghz.to_bits(),
        }
    }

    /// The identity of this point's simulation (see [`SimKey`]).
    pub(crate) fn sim_key(&self) -> SimKey {
        let SimulationConfig {
            data_awareness,
            dataflow,
            layout_aware,
        } = self.sim_config();
        SimKey {
            workload: self.workload_key(),
            arch: self.arch_key(),
            data_awareness,
            dataflow,
            layout_aware,
        }
    }

    /// The architecture parameters of this point.
    pub fn arch_params(&self) -> ArchParams {
        ArchParams::new(
            self.tiles,
            self.cores_per_tile,
            self.core_height,
            self.core_width,
        )
        .with_wavelengths(self.wavelengths)
    }

    /// The simulator configuration of this point.
    pub fn sim_config(&self) -> SimulationConfig {
        SimulationConfig {
            data_awareness: self.data_awareness,
            dataflow: self.dataflow,
            layout_aware: true,
        }
    }

    /// Compact human-readable label (for logs and error messages).
    pub fn label(&self) -> String {
        format!(
            "{} {} R{}C{}H{}W{} lambda{} {}b s{:.2} {} {}",
            self.workload.label(),
            self.arch,
            self.tiles,
            self.cores_per_tile,
            self.core_height,
            self.core_width,
            self.wavelengths,
            self.bits,
            self.sparsity,
            self.dataflow,
            self.data_awareness,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_a_single_paper_point() {
        let spec = SweepSpec::new("default");
        assert_eq!(spec.point_count().unwrap(), 1);
        let points = spec.expand().unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].arch, ArchFamily::Tempo);
        assert_eq!(points[0].arch_params().total_nodes(), 64);
    }

    #[test]
    fn expansion_order_is_stable_and_indexed() {
        let spec = SweepSpec::new("order")
            .with_wavelengths(vec![1, 2])
            .with_bitwidth(vec![4, 8]);
        let points = spec.expand().unwrap();
        assert_eq!(points.len(), 4);
        // Innermost axis (bitwidth) varies fastest.
        assert_eq!(
            points
                .iter()
                .map(|p| (p.wavelengths, p.bits))
                .collect::<Vec<_>>(),
            vec![(1, 4), (1, 8), (2, 4), (2, 8)]
        );
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn empty_axes_and_bad_ranges_are_rejected() {
        assert!(SweepSpec::new("bad")
            .with_arch(Vec::new())
            .expand()
            .is_err());
        assert!(SweepSpec::new("bad")
            .with_sparsity(vec![1.0])
            .expand()
            .is_err());
        assert!(SweepSpec::new("bad").with_tiles(vec![0]).expand().is_err());
        assert!(SweepSpec::new("bad")
            .with_bitwidth(vec![0])
            .expand()
            .is_err());
    }

    #[test]
    fn bitwidths_beyond_the_weight_code_width_are_rejected() {
        assert!(SweepSpec::new("ok")
            .with_bitwidth(vec![1, 16])
            .validate()
            .is_ok());
        for bits in [17u8, 65, 255] {
            let err = SweepSpec::new("wide")
                .with_bitwidth(vec![8, bits])
                .validate()
                .expect_err("too wide");
            assert!(matches!(err, ExploreError::InvalidSpec { .. }), "{err}");
            let message = err.to_string();
            assert!(message.contains("1..=16"), "{message}");
            assert!(message.contains(&bits.to_string()), "{message}");
        }
    }

    #[test]
    fn point_at_matches_nested_loop_expansion() {
        // A spec exercising every axis with more than one value, so each
        // mixed-radix digit actually varies.
        let spec = SweepSpec::new("radix")
            .with_workload(vec![
                WorkloadSpec::validation_gemm(),
                WorkloadSpec::Gemm { m: 8, k: 8, n: 8 },
            ])
            .with_arch(vec![ArchFamily::Tempo, ArchFamily::Scatter])
            .with_tiles(vec![1, 2])
            .with_cores_per_tile(vec![1, 2])
            .with_core_dims(vec![2, 4])
            .with_wavelengths(vec![1, 2, 3])
            .with_bitwidth(vec![4, 8])
            .with_sparsity(vec![0.0, 0.25])
            .with_data_awareness(vec![
                simphony::DataAwareness::Aware,
                simphony::DataAwareness::Unaware,
            ]);
        let points = spec.expand().unwrap();
        assert_eq!(points.len(), spec.point_count().unwrap());
        for (i, expected) in points.iter().enumerate() {
            assert_eq!(&spec.point_at(i), expected, "decode diverges at {i}");
        }
        // The lazy iterator yields the same sequence.
        let lazy: Vec<SweepPoint> = spec.points().unwrap().collect();
        assert_eq!(lazy, points);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn point_at_rejects_out_of_range_indices() {
        let spec = SweepSpec::new("oob");
        let _ = spec.point_at(1);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn point_count_overflow_is_an_error_not_a_wrap() {
        // Eight axes of 256 entries multiply to 2^64, one past `usize::MAX`;
        // the same axes at 255 entries stay in range. The values are cheap
        // repeats — only the lengths matter for the product.
        let overflowing = SweepSpec::new("overflow")
            .with_tiles(vec![1; 256])
            .with_cores_per_tile(vec![1; 256])
            .with_core_dims(vec![1; 256])
            .with_wavelengths(vec![1; 256])
            .with_bitwidth(vec![8; 256])
            .with_sparsity(vec![0.0; 256])
            .with_dataflow(vec![DataflowStyle::OutputStationary; 256]);
        assert!(matches!(
            overflowing.point_count(),
            Err(ExploreError::InvalidSpec { .. })
        ));
        assert!(overflowing.points().is_err(), "lazy expansion must reject");
        assert!(overflowing.expand().is_err(), "eager expansion must reject");

        let boundary = SweepSpec::new("boundary")
            .with_tiles(vec![1; 255])
            .with_cores_per_tile(vec![1; 255])
            .with_core_dims(vec![1; 255])
            .with_wavelengths(vec![1; 255])
            .with_bitwidth(vec![8; 255])
            .with_sparsity(vec![0.0; 255])
            .with_dataflow(vec![DataflowStyle::OutputStationary; 255]);
        let count = boundary.point_count().expect("255^8 fits in usize");
        assert_eq!(count, 255usize.pow(8));
    }

    #[test]
    fn huge_sweeps_iterate_lazily_with_random_access() {
        // >=100k points; `points()` never materializes them, and any index is
        // decodable directly.
        let spec = SweepSpec::new("huge")
            .with_tiles((1..=8).collect())
            .with_cores_per_tile((1..=8).collect())
            .with_wavelengths((1..=8).collect())
            .with_bitwidth((1..=8).collect())
            .with_sparsity((0..50).map(|i| f64::from(i) / 64.0).collect());
        let total = spec.point_count().unwrap();
        assert!(total >= 100_000, "spec spans {total} points");
        let mut iter = spec.points().unwrap();
        assert_eq!(iter.len(), total);
        let first = iter.next().unwrap();
        assert_eq!(first.index, 0);
        assert_eq!((first.tiles, first.wavelengths, first.bits), (1, 1, 1));
        let last = spec.point_at(total - 1);
        assert_eq!(last.index, total - 1);
        assert_eq!((last.tiles, last.wavelengths, last.bits), (8, 8, 8));
        assert_eq!(last.sparsity, 49.0 / 64.0);
        // Random access agrees with sequential iteration.
        let sampled = spec.point_at(12_345);
        assert_eq!(
            spec.points().unwrap().nth(12_345).unwrap(),
            sampled,
            "nth() and point_at() must agree"
        );
    }

    #[test]
    fn arch_family_names_round_trip() {
        for family in ArchFamily::ALL {
            assert_eq!(ArchFamily::parse(family.name()), Some(family));
        }
        assert_eq!(ArchFamily::parse("nope"), None);
    }

    #[test]
    fn every_family_generates_its_architecture() {
        for family in ArchFamily::ALL {
            let arch = family.generate(ArchParams::new(2, 2, 4, 4), 5.0).unwrap();
            assert!(!arch.name().is_empty());
        }
    }
}
