//! End-to-end simulation: workload in, latency/energy/area/link reports out.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use simphony_dataflow::{
    glb_bandwidth_demand, layer_latency, map_gemm, memory_traffic, DataflowStyle, GemmMapping,
    LatencyBreakdown,
};
use simphony_memsim::MemoryHierarchy;
use simphony_onn::{LayerKind, LayerWorkload, ModelWorkload};
use simphony_units::{Bandwidth, Energy, Power, Time};

use crate::accelerator::Accelerator;
use crate::area::{area_report_with_counts, AreaReport};
use crate::energy::{
    data_movement_energy, DataAwareness, EnergyBreakdown, EnergyTable, LayerEnergyReport,
    WeightPowerMemo,
};
use crate::error::{Result, SimError};
use crate::link_budget::{link_budget_with_counts, LinkBudgetReport};

/// Upper bound on the GLB bandwidth demand used to size the multi-block buffer;
/// demands beyond this are clamped (the cores would stall instead).
const MAX_GLB_DEMAND_GBPS: f64 = 4096.0;

/// Simulation options.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Whether device power uses the actual workload values.
    pub data_awareness: DataAwareness,
    /// GEMM dataflow style.
    pub dataflow: DataflowStyle,
    /// Whether chip area uses the signal-flow-aware floorplan.
    pub layout_aware: bool,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            data_awareness: DataAwareness::Aware,
            dataflow: DataflowStyle::OutputStationary,
            layout_aware: true,
        }
    }
}

/// Layer-to-sub-architecture mapping plan for heterogeneous systems.
///
/// # Examples
///
/// ```
/// use simphony::MappingPlan;
/// use simphony_onn::LayerKind;
///
/// // Convolutions to sub-arch 0 (SCATTER), linear layers to sub-arch 1 (MZI mesh).
/// let plan = MappingPlan::all_to(0).route(LayerKind::Linear, 1);
/// assert_eq!(plan.sub_arch_for(LayerKind::Linear), 1);
/// assert_eq!(plan.sub_arch_for(LayerKind::Conv2d), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappingPlan {
    default_index: usize,
    overrides: Vec<(LayerKind, usize)>,
}

impl MappingPlan {
    /// Maps every layer to the sub-architecture at `index`.
    pub fn all_to(index: usize) -> Self {
        Self {
            default_index: index,
            overrides: Vec::new(),
        }
    }

    /// Routes layers of `kind` to the sub-architecture at `index`.
    pub fn route(mut self, kind: LayerKind, index: usize) -> Self {
        self.overrides.retain(|(k, _)| *k != kind);
        self.overrides.push((kind, index));
        self
    }

    /// The sub-architecture index a layer of `kind` is routed to.
    pub fn sub_arch_for(&self, kind: LayerKind) -> usize {
        self.overrides
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, i)| *i)
            .unwrap_or(self.default_index)
    }

    /// Resolves the plan into a dense per-[`LayerKind`] lookup table, so the
    /// per-layer routing decision is one array read instead of a linear scan
    /// of the overrides.
    ///
    /// Like [`sub_arch_for`](Self::sub_arch_for), the *first* override for a
    /// kind wins — [`route`](Self::route) keeps overrides unique, but a plan
    /// deserialized from JSON may carry duplicates.
    pub fn resolve(&self) -> [usize; LayerKind::COUNT] {
        let mut table = [self.default_index; LayerKind::COUNT];
        let mut overridden = [false; LayerKind::COUNT];
        for &(kind, index) in &self.overrides {
            if !overridden[kind.index()] {
                overridden[kind.index()] = true;
                table[kind.index()] = index;
            }
        }
        table
    }
}

impl Default for MappingPlan {
    fn default() -> Self {
        Self::all_to(0)
    }
}

/// Simulation result of one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Sub-architecture the layer ran on.
    pub sub_arch: String,
    /// Originating layer kind.
    pub kind: LayerKind,
    /// Cycle-level latency breakdown.
    pub latency: LatencyBreakdown,
    /// Wall-clock execution time.
    pub time: Time,
    /// Energy breakdown.
    pub energy: LayerEnergyReport,
}

/// Complete simulation result of a workload on an accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Accelerator name.
    pub accelerator: String,
    /// Workload (model) name.
    pub workload: String,
    /// Per-layer results in execution order.
    pub layers: Vec<LayerReport>,
    /// Energy per device kind, aggregated over all layers.
    pub energy_by_kind: EnergyBreakdown,
    /// Total energy.
    pub total_energy: Energy,
    /// Total execution cycles (summed across layers).
    pub total_cycles: u64,
    /// Total execution time.
    pub total_time: Time,
    /// Average power (total energy over total time).
    pub average_power: Power,
    /// Chip area breakdown.
    pub area: AreaReport,
    /// Link budget of every sub-architecture.
    pub link_budgets: Vec<LinkBudgetReport>,
    /// Number of global-buffer blocks selected to meet the bandwidth demand.
    pub glb_blocks: usize,
}

/// The per-request serving cost distilled from a full [`SimulationReport`]:
/// what a queueing-level simulator needs to model this workload as one
/// request class — how long one inference occupies an accelerator and how
/// much energy it burns. Everything else in the report (layer breakdowns,
/// link budgets, area) is amortized fleet state, not per-request cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceProfile {
    /// Wall-clock service time of one inference request.
    pub latency: Time,
    /// Energy consumed by one inference request.
    pub energy: Energy,
}

impl SimulationReport {
    /// Distills this report into the per-request [`ServiceProfile`] consumed
    /// by the `simphony-traffic` serving simulator.
    pub fn service_profile(&self) -> ServiceProfile {
        ServiceProfile {
            latency: self.total_time,
            energy: self.total_energy,
        }
    }
}

impl fmt::Display for SimulationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {}: {} layers, {} cycles, {}, total {}",
            self.workload,
            self.accelerator,
            self.layers.len(),
            self.total_cycles,
            self.total_time,
            self.total_energy
        )?;
        writeln!(f, "  average power: {}", self.average_power)?;
        writeln!(f, "  chip area: {}", self.area.total)?;
        for (kind, energy) in self.energy_by_kind.iter() {
            writeln!(f, "  {kind:<12} {energy}")?;
        }
        write!(f, "  GLB blocks: {}", self.glb_blocks)
    }
}

/// One layer after placement and mapping: which sub-architecture it runs on
/// and how its GEMM tiles onto that hardware.
///
/// `Simulator::simulate` builds this once per layer and reuses it for both
/// GLB-demand sizing and the latency/energy loop — the placement/mapping work
/// used to run twice per layer.
#[derive(Debug, Clone)]
struct PlacedLayer {
    /// Index into the accelerator's sub-architecture list.
    sub_arch: usize,
    /// The layer's GEMM tiling on that sub-architecture.
    mapping: GemmMapping,
}

/// One sub-architecture's simulation invariants: its link budget and its
/// compiled energy table.
#[derive(Debug)]
struct CompiledSubArch {
    link: LinkBudgetReport,
    energy: EnergyTable,
}

/// Everything a simulation reads that depends only on the accelerator,
/// computed once per [`Simulator`] and shared by its clones: per
/// sub-architecture the instance counts (evaluated once), the link budget
/// and the [`EnergyTable`], plus one area report per layout flag, computed
/// on first use.
///
/// Errors are kept, not raised, and a simulation raises them at the step
/// that computes them per simulation: the link budgets after placement and
/// memory sizing, the area after the layer loop.
#[derive(Debug)]
struct CompiledAccelerator {
    /// Per sub-architecture, in order, its netlist instance counts.
    counts: Vec<Result<BTreeMap<String, usize>>>,
    /// Per sub-architecture, in order, its link budget and energy table; the
    /// first link-budget error otherwise.
    subs: Result<Vec<CompiledSubArch>>,
    /// The area report without, then with, layout awareness.
    area: [OnceLock<Result<AreaReport>>; 2],
}

/// Accelerators compiled by [`Simulator::new`] and [`Simulator::shared`] in
/// this process (see [`Simulator::compiles`]).
static COMPILES: AtomicUsize = AtomicUsize::new(0);

/// Simulations run by [`Simulator::simulate_memoized`] in this process (see
/// [`Simulator::simulations`]).
static SIMULATIONS: AtomicUsize = AtomicUsize::new(0);

impl CompiledAccelerator {
    fn new(accelerator: &Accelerator) -> Self {
        COMPILES.fetch_add(1, Ordering::Relaxed);
        let library = accelerator.library();
        let counts: Vec<Result<BTreeMap<String, usize>>> = accelerator
            .sub_archs()
            .iter()
            .map(|arch| Ok(arch.instance_counts()?))
            .collect();
        let subs = accelerator
            .sub_archs()
            .iter()
            .zip(&counts)
            .map(|(arch, counts)| {
                let link =
                    link_budget_with_counts(arch, library, accelerator.link(), counts.as_ref())?;
                // A link budget exists only over evaluated counts and a
                // library holding every device, so neither raises here.
                let counts = counts.as_ref().map_err(SimError::clone)?;
                let energy = EnergyTable::new(arch, library, &link, counts)?;
                Ok(CompiledSubArch { link, energy })
            })
            .collect();
        Self {
            counts,
            subs,
            area: [OnceLock::new(), OnceLock::new()],
        }
    }

    /// The accelerator's area report, computed on the first request for
    /// this layout flag.
    fn area(&self, accelerator: &Accelerator, layout_aware: bool) -> Result<AreaReport> {
        self.area[usize::from(layout_aware)]
            .get_or_init(|| area_report_with_counts(accelerator, layout_aware, &self.counts))
            .clone()
    }
}

/// The SimPhony simulator: an [`Accelerator`], compiled for simulation, plus
/// a [`SimulationConfig`].
///
/// Creating a simulator compiles its accelerator once: per
/// sub-architecture the netlist instance counts, the link budget and an
/// energy table with one entry per instance, plus (on first use) the area
/// report of each layout flag. None of these depends on the workload or the
/// configuration, so every simulation of the simulator and of its clones
/// reads them instead of recomputing them, and the per-layer energy is
/// arithmetic over the table. The accelerator and its compiled state are
/// held behind [`Arc`]s: cloning a simulator, or re-configuring a clone with
/// [`with_config`](Self::with_config), shares both instead of copying or
/// recompiling anything.
///
/// # Examples
///
/// ```
/// use simphony::{Accelerator, MappingPlan, Simulator};
/// use simphony_arch::generators;
/// use simphony_netlist::ArchParams;
/// use simphony_onn::{models, ModelWorkload, PruningConfig, QuantConfig};
///
/// let accel = Accelerator::builder("tempo_edge")
///     .sub_arch(generators::tempo(ArchParams::new(2, 2, 4, 4), 5.0)?)
///     .build()?;
/// let workload = ModelWorkload::extract(
///     &models::single_gemm(280, 28, 280),
///     &QuantConfig::default(),
///     &PruningConfig::dense(),
///     42,
/// )?;
/// let report = Simulator::new(accel).simulate(&workload, &MappingPlan::default())?;
/// assert!(report.total_energy.picojoules() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    accelerator: Arc<Accelerator>,
    compiled: Arc<CompiledAccelerator>,
    config: SimulationConfig,
}

impl Simulator {
    /// Creates a simulator with the default configuration, compiling the
    /// accelerator.
    pub fn new(accelerator: Accelerator) -> Self {
        Self::shared(Arc::new(accelerator))
    }

    /// Creates a simulator over an accelerator shared with other simulators,
    /// compiling it. Simulators that should share the compiled state too
    /// (e.g. the points of a design-space sweep over one accelerator) clone
    /// one simulator and [re-configure](Self::with_config) the clones
    /// instead.
    pub fn shared(accelerator: Arc<Accelerator>) -> Self {
        let compiled = Arc::new(CompiledAccelerator::new(&accelerator));
        Self {
            accelerator,
            compiled,
            config: SimulationConfig::default(),
        }
    }

    /// Overrides the simulation configuration.
    pub fn with_config(mut self, config: SimulationConfig) -> Self {
        self.config = config;
        self
    }

    /// The accelerator being simulated.
    pub fn accelerator(&self) -> &Accelerator {
        &self.accelerator
    }

    /// The active configuration.
    pub fn config(&self) -> SimulationConfig {
        self.config
    }

    /// How many accelerators [`new`](Self::new) and [`shared`](Self::shared)
    /// have compiled in this process: a deterministic work counter for
    /// tests that hold a caller to compiling each accelerator once.
    pub fn compiles() -> usize {
        COMPILES.load(Ordering::Relaxed)
    }

    /// How many simulations [`simulate_memoized`](Self::simulate_memoized)
    /// (and so [`simulate`](Self::simulate)) has run in this process,
    /// failed ones included: a deterministic work counter for tests that
    /// hold a caller to simulating each distinct configuration once.
    pub fn simulations() -> usize {
        SIMULATIONS.load(Ordering::Relaxed)
    }

    /// Picks the sub-architecture index a layer runs on, falling back to any
    /// design that supports dynamic products when the planned one cannot.
    fn place_layer(
        &self,
        layer: &LayerWorkload,
        plan_table: &[usize; LayerKind::COUNT],
        dynamic_fallback: Option<usize>,
    ) -> Result<usize> {
        let subs = self.accelerator.sub_archs();
        let planned = plan_table[layer.kind().index()];
        let arch = subs
            .get(planned)
            .ok_or_else(|| SimError::InvalidSubArchIndex {
                layer: layer.name().to_string(),
                requested: planned,
                available: subs.len(),
            })?;
        if !layer.is_dynamic() || arch.taxonomy().supports_dynamic_products() {
            return Ok(planned);
        }
        dynamic_fallback.ok_or_else(|| SimError::NoCompatibleSubArch {
            layer: layer.name().to_string(),
        })
    }

    /// Places and maps every layer in one pass: sub-architecture routing plus
    /// GEMM tiling, computed once and reused by both the GLB-demand sizing and
    /// the latency/energy loop.
    fn place_and_map(
        &self,
        workload: &ModelWorkload,
        plan: &MappingPlan,
    ) -> Result<Vec<PlacedLayer>> {
        let subs = self.accelerator.sub_archs();
        let plan_table = plan.resolve();
        let dynamic_fallback = subs
            .iter()
            .position(|a| a.taxonomy().supports_dynamic_products());
        workload
            .layers()
            .iter()
            .map(|layer| {
                let sub_arch = self.place_layer(layer, &plan_table, dynamic_fallback)?;
                let mapping = map_gemm(
                    layer.gemm(),
                    layer.is_dynamic(),
                    &subs[sub_arch],
                    self.config.dataflow,
                )?;
                Ok(PlacedLayer { sub_arch, mapping })
            })
            .collect()
    }

    /// Sizes the shared memory hierarchy from the profiled per-layer GLB demand.
    fn build_memory(
        &self,
        workload: &ModelWorkload,
        placed: &[PlacedLayer],
    ) -> Result<MemoryHierarchy> {
        let subs = self.accelerator.sub_archs();
        let mut demand_gbps = 1.0_f64;
        for (layer, placement) in workload.layers().iter().zip(placed) {
            let demand = glb_bandwidth_demand(layer, &placement.mapping, &subs[placement.sub_arch]);
            demand_gbps = demand_gbps.max(demand.gigabytes_per_second());
        }
        demand_gbps = demand_gbps.min(MAX_GLB_DEMAND_GBPS);
        let mem = self.accelerator.memory();
        Ok(MemoryHierarchy::builder()
            .glb_capacity(mem.glb_capacity)
            .lb_capacity(mem.lb_capacity)
            .rf_capacity(mem.rf_capacity)
            .bus_width_bits(mem.bus_width_bits)
            .technology(mem.technology)
            .demand_bandwidth(Bandwidth::from_gigabytes_per_second(demand_gbps))
            .build()?)
    }

    /// Simulates a workload under a layer-to-sub-architecture mapping plan.
    ///
    /// The data-aware weight power goes through a fresh [`WeightPowerMemo`],
    /// so each layer folds it once, however many instances name the weight
    /// device (two on TeMPO, three on the MZI mesh). To share the folds
    /// across simulations of one workload, use
    /// [`simulate_memoized`](Self::simulate_memoized).
    ///
    /// # Errors
    ///
    /// Propagates mapping, device, memory and layout errors; returns
    /// [`SimError::NoCompatibleSubArch`] when a dynamic layer cannot be
    /// placed, and [`SimError::InvalidSubArchIndex`] when the plan routes a
    /// layer to a sub-architecture index the accelerator does not have, and
    /// [`SimError::UnsampledWeights`] when a data-aware configuration is
    /// handed a shape-only workload.
    pub fn simulate(
        &self,
        workload: &ModelWorkload,
        plan: &MappingPlan,
    ) -> Result<SimulationReport> {
        self.simulate_memoized(&WeightPowerMemo::new(workload), plan)
    }

    /// Simulates the workload `memo` was built over, folding its data-aware
    /// weight power through `memo`: a (layer, power model) pair an earlier
    /// simulation folded is not folded again, whatever the accelerator or
    /// configuration. The report is bit-identical to
    /// [`simulate`](Self::simulate)'s.
    ///
    /// # Errors
    ///
    /// As [`simulate`](Self::simulate).
    pub fn simulate_memoized(
        &self,
        memo: &WeightPowerMemo<'_>,
        plan: &MappingPlan,
    ) -> Result<SimulationReport> {
        SIMULATIONS.fetch_add(1, Ordering::Relaxed);
        let workload = memo.workload();
        let subs = self.accelerator.sub_archs();

        // Single placement/mapping pass, shared by GLB sizing and the layer loop.
        let placed = self.place_and_map(workload, plan)?;
        let hierarchy = self.build_memory(workload, &placed)?;
        let compiled_subs = self.compiled.subs.as_ref().map_err(SimError::clone)?;

        let mut layers = Vec::with_capacity(workload.layers().len());
        let mut energy_by_kind = EnergyBreakdown::new();
        let mut total_energy = Energy::ZERO;
        let mut total_cycles = 0u64;
        let mut total_time = Time::ZERO;

        for (memoized, placement) in memo.layers().zip(&placed) {
            let layer = memoized.workload();
            let arch = &subs[placement.sub_arch];
            let latency =
                layer_latency(layer, arch, &placement.mapping, hierarchy.glb_bandwidth())?;
            let traffic = memory_traffic(layer, &placement.mapping);
            let energy = compiled_subs[placement.sub_arch]
                .energy
                .layer_energy(memoized, &latency, self.config.data_awareness)?
                .with_data_movement(data_movement_energy(&hierarchy, &traffic));

            energy_by_kind.merge(&energy.by_kind);
            total_energy += energy.total;
            total_cycles += latency.total_cycles();
            let time = latency.total_time(arch.clock());
            total_time += time;
            layers.push(LayerReport {
                name: layer.name().to_string(),
                sub_arch: arch.name().to_string(),
                kind: layer.kind(),
                latency,
                time,
                energy,
            });
        }

        let average_power = if total_time.seconds() > 0.0 {
            total_energy / total_time
        } else {
            Power::ZERO
        };
        Ok(SimulationReport {
            accelerator: self.accelerator.name().to_string(),
            workload: workload.model_name().to_string(),
            layers,
            energy_by_kind,
            total_energy,
            total_cycles,
            total_time,
            average_power,
            area: self
                .compiled
                .area(&self.accelerator, self.config.layout_aware)?,
            link_budgets: compiled_subs.iter().map(|sub| sub.link.clone()).collect(),
            glb_blocks: hierarchy.glb_blocks(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link_budget::link_budget;
    use simphony_arch::generators;
    use simphony_netlist::ArchParams;
    use simphony_onn::{models, PruningConfig, QuantConfig};

    fn workload(model: &simphony_onn::Model) -> ModelWorkload {
        ModelWorkload::extract(model, &QuantConfig::default(), &PruningConfig::dense(), 42)
            .expect("extraction succeeds")
    }

    fn tempo_accel(params: ArchParams) -> Accelerator {
        Accelerator::builder("tempo_edge")
            .sub_arch(generators::tempo(params, 5.0).expect("valid arch"))
            .build()
            .expect("valid accelerator")
    }

    #[test]
    fn validation_gemm_simulation_produces_full_report() {
        let accel = tempo_accel(ArchParams::new(2, 2, 4, 4));
        let report = Simulator::new(accel)
            .simulate(
                &workload(&models::single_gemm(280, 28, 280)),
                &MappingPlan::default(),
            )
            .unwrap();
        assert_eq!(report.layers.len(), 1);
        assert!(report.total_cycles > 0);
        assert!(report.total_energy.nanojoules() > 0.0);
        assert!(report.area.total.square_millimeters() > 0.0);
        assert!(report.glb_blocks >= 1);
        assert!(report.energy_by_kind.contains_key("DM"));
    }

    #[test]
    fn bert_runs_on_a_dynamic_architecture() {
        let accel = tempo_accel(ArchParams::new(4, 2, 12, 12).with_wavelengths(12));
        let report = Simulator::new(accel)
            .simulate(&workload(&models::bert_base(196)), &MappingPlan::default())
            .unwrap();
        assert_eq!(report.layers.len(), 72);
        assert!(report.average_power.watts() > 0.1);
    }

    #[test]
    fn dynamic_layers_cannot_run_on_purely_static_systems() {
        let accel = Accelerator::builder("static_only")
            .sub_arch(generators::mzi_mesh(ArchParams::new(2, 2, 8, 8), 5.0).unwrap())
            .build()
            .unwrap();
        let err = Simulator::new(accel)
            .simulate(&workload(&models::bert_base(196)), &MappingPlan::default());
        assert!(matches!(err, Err(SimError::NoCompatibleSubArch { .. })));
    }

    #[test]
    fn out_of_range_plan_indices_are_rejected() {
        let accel = tempo_accel(ArchParams::new(2, 2, 4, 4));
        let err = Simulator::new(accel).simulate(
            &workload(&models::single_gemm(64, 64, 64)),
            &MappingPlan::all_to(3),
        );
        match err {
            Err(SimError::InvalidSubArchIndex {
                requested,
                available,
                ..
            }) => {
                assert_eq!(requested, 3);
                assert_eq!(available, 1);
            }
            other => panic!("expected InvalidSubArchIndex, got {other:?}"),
        }
    }

    #[test]
    fn heterogeneous_mapping_routes_layers_by_kind() {
        let accel = Accelerator::builder("hetero")
            .sub_arch(generators::scatter(ArchParams::new(2, 2, 4, 4), 5.0).unwrap())
            .sub_arch(generators::mzi_mesh(ArchParams::new(2, 2, 4, 4), 5.0).unwrap())
            .build()
            .unwrap();
        let plan = MappingPlan::all_to(0).route(LayerKind::Linear, 1);
        let report = Simulator::new(accel)
            .simulate(&workload(&models::vgg8_cifar10()), &plan)
            .unwrap();
        let conv_sub: Vec<_> = report
            .layers
            .iter()
            .filter(|l| l.kind == LayerKind::Conv2d)
            .map(|l| l.sub_arch.as_str())
            .collect();
        let linear_sub: Vec<_> = report
            .layers
            .iter()
            .filter(|l| l.kind == LayerKind::Linear)
            .map(|l| l.sub_arch.as_str())
            .collect();
        assert!(conv_sub.iter().all(|s| *s == "scatter"));
        assert!(linear_sub.iter().all(|s| *s == "mzi_mesh"));
    }

    #[test]
    fn resolved_plan_matches_linear_lookup() {
        let plan = MappingPlan::all_to(2)
            .route(LayerKind::Linear, 1)
            .route(LayerKind::Attention, 0);
        let table = plan.resolve();
        for kind in [
            LayerKind::Conv2d,
            LayerKind::Linear,
            LayerKind::Attention,
            LayerKind::Activation,
            LayerKind::Pooling,
            LayerKind::Normalization,
        ] {
            assert_eq!(table[kind.index()], plan.sub_arch_for(kind));
        }
    }

    #[test]
    fn resolved_plan_matches_linear_lookup_with_duplicate_overrides() {
        // `route` dedupes, but a deserialized plan may carry duplicate kinds;
        // both lookups must agree (first override wins).
        let json = r#"{"default_index":0,"overrides":[["Linear",1],["Linear",2]]}"#;
        let plan: MappingPlan = serde_json::from_str(json).expect("plan parses");
        assert_eq!(plan.sub_arch_for(LayerKind::Linear), 1);
        assert_eq!(plan.resolve()[LayerKind::Linear.index()], 1);
    }

    #[test]
    fn shared_accelerator_simulators_match_owned_ones() {
        let accel = tempo_accel(ArchParams::new(2, 2, 4, 4));
        let wl = workload(&models::single_gemm(64, 64, 64));
        let owned = Simulator::new(accel.clone())
            .simulate(&wl, &MappingPlan::default())
            .unwrap();
        let shared = Simulator::shared(Arc::new(accel))
            .simulate(&wl, &MappingPlan::default())
            .unwrap();
        assert_eq!(owned, shared);
    }

    #[test]
    fn more_wavelengths_reduce_total_energy_for_non_scaling_components() {
        let gemm = models::single_gemm(280, 28, 280);
        let base = Simulator::new(tempo_accel(ArchParams::new(2, 2, 4, 4)))
            .simulate(&workload(&gemm), &MappingPlan::default())
            .unwrap();
        let wdm = Simulator::new(tempo_accel(ArchParams::new(2, 2, 4, 4).with_wavelengths(4)))
            .simulate(&workload(&gemm), &MappingPlan::default())
            .unwrap();
        assert!(wdm.total_cycles < base.total_cycles);
        assert!(wdm.energy_by_kind["ADC"] < base.energy_by_kind["ADC"]);
        assert!(wdm.energy_by_kind["Integrator"] < base.energy_by_kind["Integrator"]);
    }

    #[test]
    fn data_awareness_lowers_scatter_energy() {
        let accel = Accelerator::builder("scatter")
            .sub_arch(generators::scatter(ArchParams::new(2, 2, 4, 4), 5.0).unwrap())
            .build()
            .unwrap();
        let sparse = ModelWorkload::extract(
            &models::single_gemm(64, 64, 64),
            &QuantConfig::default(),
            &PruningConfig::new(0.6).unwrap(),
            42,
        )
        .unwrap();
        let unaware = Simulator::new(accel.clone())
            .with_config(SimulationConfig {
                data_awareness: DataAwareness::Unaware,
                ..SimulationConfig::default()
            })
            .simulate(&sparse, &MappingPlan::default())
            .unwrap();
        let aware = Simulator::new(accel)
            .simulate(&sparse, &MappingPlan::default())
            .unwrap();
        assert!(aware.energy_by_kind["PS"] < unaware.energy_by_kind["PS"]);
    }

    #[test]
    fn shape_only_workloads_serve_unaware_simulations_and_refuse_aware_ones() {
        let accel = Accelerator::builder("scatter")
            .sub_arch(generators::scatter(ArchParams::new(2, 2, 4, 4), 5.0).unwrap())
            .build()
            .unwrap();
        let model = models::vgg8_cifar10();
        let quant = QuantConfig::default();
        let sampled =
            ModelWorkload::extract(&model, &quant, &PruningConfig::new(0.5).unwrap(), 7).unwrap();
        let shapes = ModelWorkload::shape_only(&model, &quant).unwrap();
        let simulate = |workload: &ModelWorkload, data_awareness| {
            Simulator::new(accel.clone())
                .with_config(SimulationConfig {
                    data_awareness,
                    ..SimulationConfig::default()
                })
                .simulate(workload, &MappingPlan::default())
        };
        // The unaware energy model reads no weight value, so the samples
        // change nothing.
        assert_eq!(
            simulate(&shapes, DataAwareness::Unaware).unwrap(),
            simulate(&sampled, DataAwareness::Unaware).unwrap()
        );
        let err = simulate(&shapes, DataAwareness::Aware).expect_err("no samples to read");
        assert_eq!(
            err,
            SimError::UnsampledWeights {
                layer: shapes.layers()[0].name().to_string()
            }
        );
        assert!(err.to_string().contains("conv1"), "{err}");
    }

    #[test]
    fn one_memo_folds_each_layer_once_per_weight_power_model() {
        let vgg8 = ModelWorkload::extract(
            &models::vgg8_cifar10(),
            &QuantConfig::default(),
            &PruningConfig::new(0.5).unwrap(),
            42,
        )
        .unwrap();
        let layers = vgg8.layers().len();
        let plan = MappingPlan::default();
        let families = [
            generators::tempo,
            generators::mzi_mesh,
            generators::mrr_bank,
            generators::butterfly,
            generators::pcm_crossbar,
            generators::scatter,
            generators::scatter_measured,
        ];
        let simulators: Vec<Simulator> = families
            .iter()
            .map(|generate| {
                let arch = generate(ArchParams::new(2, 2, 4, 4), 5.0).unwrap();
                Simulator::new(
                    Accelerator::builder("family")
                        .sub_arch(arch)
                        .build()
                        .unwrap(),
                )
            })
            .collect();

        // Seven families, six weight power models: the butterfly mesh shares
        // the MZI mesh's `mzi_thermal`.
        let memo = WeightPowerMemo::new(&vgg8);
        for simulator in &simulators {
            assert_eq!(
                simulator.simulate_memoized(&memo, &plan).unwrap(),
                simulator.simulate(&vgg8, &plan).unwrap()
            );
        }
        assert_eq!(memo.folds(), 6 * layers);
        for simulator in &simulators {
            simulator.simulate_memoized(&memo, &plan).unwrap();
        }
        assert_eq!(memo.folds(), 6 * layers, "a second pass only hits");

        // TeMPO names its weight device twice and the MZI mesh three times,
        // yet the fresh memo of one plain simulation folds each layer once.
        for (simulator, instances) in simulators.iter().zip([2, 3]) {
            let arch = &simulator.accelerator().sub_archs()[0];
            let weight_instances = arch
                .netlist()
                .instances()
                .iter()
                .filter(|inst| inst.device() == arch.weight_device())
                .count();
            assert_eq!(weight_instances, instances, "{}", arch.name());
            let fresh = WeightPowerMemo::new(&vgg8);
            simulator.simulate_memoized(&fresh, &plan).unwrap();
            assert_eq!(fresh.folds(), layers, "{}", arch.name());
        }
    }

    #[test]
    fn a_shared_compiled_simulator_writes_the_bytes_of_a_fresh_one() {
        let vgg8 = ModelWorkload::extract(
            &models::vgg8_cifar10(),
            &QuantConfig::default(),
            &PruningConfig::new(0.5).unwrap(),
            42,
        )
        .unwrap();
        let memo = WeightPowerMemo::new(&vgg8);
        let plan = MappingPlan::default();
        let json = |report: &SimulationReport| serde_json::to_string(report).unwrap();
        let families = [
            generators::tempo,
            generators::mzi_mesh,
            generators::mrr_bank,
            generators::butterfly,
            generators::pcm_crossbar,
            generators::scatter,
            generators::scatter_measured,
        ];
        for generate in families {
            let arch = generate(ArchParams::new(2, 2, 4, 4).with_wavelengths(2), 5.0).unwrap();
            let accel = Accelerator::builder("family")
                .sub_arch(arch)
                .build()
                .unwrap();
            // One compile serves every configuration below, its area reports
            // included, in whatever order the layout flags arrive.
            let compiled = Simulator::new(accel.clone());
            for layout_aware in [false, true] {
                for data_awareness in [DataAwareness::Aware, DataAwareness::Unaware] {
                    for dataflow in [
                        DataflowStyle::OutputStationary,
                        DataflowStyle::WeightStationary,
                        DataflowStyle::InputStationary,
                    ] {
                        let config = SimulationConfig {
                            data_awareness,
                            dataflow,
                            layout_aware,
                        };
                        let shared = compiled
                            .clone()
                            .with_config(config)
                            .simulate_memoized(&memo, &plan);
                        let fresh = Simulator::new(accel.clone())
                            .with_config(config)
                            .simulate(&vgg8, &plan);
                        // Reports compare by their bytes, errors as values.
                        assert_eq!(
                            shared.map(|report| json(&report)),
                            fresh.map(|report| json(&report)),
                            "{} under {config:?}",
                            accel.sub_archs()[0].name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compile_errors_surface_where_a_simulation_meets_them() {
        // A deserialized accelerator skips the builder's device check, so
        // its compile keeps the lookup errors for the steps that raise them.
        let accel = tempo_accel(ArchParams::new(2, 2, 4, 4));
        let mut library = accel.library().clone();
        library.remove("mzm_eo");
        let json = serde_json::to_string(&accel).unwrap().replace(
            &serde_json::to_string(accel.library()).unwrap(),
            &serde_json::to_string(&library).unwrap(),
        );
        let simulator = Simulator::new(serde_json::from_str(&json).unwrap());
        let gemm = workload(&models::single_gemm(64, 64, 64));
        // Placement runs before the link budget: a bad plan still reports
        // itself first.
        assert!(matches!(
            simulator.simulate(&gemm, &MappingPlan::all_to(3)),
            Err(SimError::InvalidSubArchIndex { .. })
        ));
        let expected = link_budget(
            &simulator.accelerator().sub_archs()[0],
            simulator.accelerator().library(),
            simulator.accelerator().link(),
        )
        .unwrap_err();
        for _ in 0..2 {
            assert_eq!(
                simulator.simulate(&gemm, &MappingPlan::default()),
                Err(expected.clone())
            );
        }
    }
}
