//! Data-dependent, device-response-aware energy analysis (paper Fig. 5).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use serde::{DeError, Deserialize, Serialize, Value};

use simphony_arch::PtcArchitecture;
use simphony_dataflow::{LatencyBreakdown, MemoryTraffic};
use simphony_devlib::{ConverterScaling, DeviceKind, DeviceLibrary, DeviceSpec, PowerModel};
use simphony_memsim::{MemoryHierarchy, MemoryLevel};
use simphony_onn::{LayerWorkload, ModelWorkload, WeightSamples};
use simphony_units::{Energy, Frequency, Power};

use crate::error::{Result, SimError};
use crate::link_budget::LinkBudgetReport;

/// Whether the energy analysis uses the actual operand values of the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataAwareness {
    /// Worst-case library power references (e.g. `Pπ` for every phase shifter).
    Unaware,
    /// Per-value device power, with pruned (zero) weights power-gated.
    Aware,
}

impl fmt::Display for DataAwareness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataAwareness::Unaware => write!(f, "data-unaware"),
            DataAwareness::Aware => write!(f, "data-aware"),
        }
    }
}

/// The key of an energy-breakdown entry: a library device kind, or the
/// synthetic data-movement bucket (the `"DM"` row of the paper's figures).
///
/// A `Copy` enum instead of a `String` label: accumulating per-layer energy
/// into breakdown tables is the hottest loop of a sweep, and interned kind ids
/// make it allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyKind {
    /// A device kind from the library.
    Device(DeviceKind),
    /// Memory data movement across the hierarchy.
    DataMovement,
}

impl EnergyKind {
    /// Number of distinct energy kinds, for dense tables.
    pub const COUNT: usize = DeviceKind::COUNT + 1;

    /// Dense index in `0..COUNT`.
    pub fn index(self) -> usize {
        match self {
            EnergyKind::Device(kind) => kind.index(),
            EnergyKind::DataMovement => DeviceKind::COUNT,
        }
    }

    /// Short label, matching the figure legends (`"DM"` for data movement).
    pub fn label(self) -> &'static str {
        match self {
            EnergyKind::Device(kind) => kind.label(),
            EnergyKind::DataMovement => "DM",
        }
    }

    /// The kind whose [`label`](Self::label) is `label`, if any.
    pub fn from_label(label: &str) -> Option<Self> {
        if label == "DM" {
            return Some(EnergyKind::DataMovement);
        }
        DeviceKind::from_label(label).map(EnergyKind::Device)
    }

    /// Every kind, in dense-index order.
    pub fn all() -> [EnergyKind; EnergyKind::COUNT] {
        let mut all = [EnergyKind::DataMovement; EnergyKind::COUNT];
        for (slot, kind) in all.iter_mut().zip(DeviceKind::all()) {
            *slot = EnergyKind::Device(*kind);
        }
        all
    }
}

impl fmt::Display for EnergyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Kinds in byte-lexicographic label order — the iteration (and therefore
/// serialization and summation) order, chosen to match what a
/// `BTreeMap<String, Energy>` keyed by label produced so report files and
/// float totals stay bit-identical to the pre-interned representation.
fn label_order() -> &'static [EnergyKind; EnergyKind::COUNT] {
    static ORDER: OnceLock<[EnergyKind; EnergyKind::COUNT]> = OnceLock::new();
    ORDER.get_or_init(|| {
        let mut all = EnergyKind::all();
        all.sort_by(|a, b| a.label().cmp(b.label()));
        all
    })
}

/// A per-kind energy table: a fixed array indexed by [`EnergyKind`] instead of
/// a string-keyed map, so per-layer accumulation costs one array slot write.
///
/// Entries distinguish "never touched" from "accumulated to zero" (exactly
/// like the presence/absence of a map key), and iteration, serialization and
/// totals run in label-lexicographic order, so JSON output is identical to
/// the former `BTreeMap<String, Energy>` representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    entries: [Energy; EnergyKind::COUNT],
    touched: u32,
}

// The touched bitmask holds one bit per kind; widen it if the device library
// ever outgrows 32 kinds.
const _: () = assert!(EnergyKind::COUNT <= u32::BITS as usize);

impl Default for EnergyBreakdown {
    fn default() -> Self {
        Self {
            entries: [Energy::ZERO; EnergyKind::COUNT],
            touched: 0,
        }
    }
}

impl EnergyBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates `energy` into `kind`'s slot.
    pub fn add(&mut self, kind: EnergyKind, energy: Energy) {
        let index = kind.index();
        self.touched |= 1 << index;
        self.entries[index] += energy;
    }

    /// Accumulates every entry of `other` (in label order, preserving float
    /// summation order across layers).
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        for (kind, energy) in other.iter() {
            self.add(kind, energy);
        }
    }

    /// The energy recorded under `kind`, if any was.
    pub fn energy_of(&self, kind: EnergyKind) -> Option<Energy> {
        let index = kind.index();
        (self.touched & (1 << index) != 0).then(|| self.entries[index])
    }

    /// The energy recorded under the kind labelled `label`, if any was.
    pub fn get(&self, label: &str) -> Option<Energy> {
        self.energy_of(EnergyKind::from_label(label)?)
    }

    /// Whether any energy was recorded under the kind labelled `label`.
    pub fn contains_key(&self, label: &str) -> bool {
        self.get(label).is_some()
    }

    /// Number of touched entries.
    pub fn len(&self) -> usize {
        self.touched.count_ones() as usize
    }

    /// Whether no entry was touched.
    pub fn is_empty(&self) -> bool {
        self.touched == 0
    }

    /// Touched entries in label-lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (EnergyKind, Energy)> + '_ {
        label_order()
            .iter()
            .filter_map(move |&kind| self.energy_of(kind).map(|energy| (kind, energy)))
    }

    /// Labels of the touched entries, in lexicographic order.
    pub fn labels(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.iter().map(|(kind, _)| kind.label())
    }

    /// Sum of all entries, accumulated in label order.
    pub fn total(&self) -> Energy {
        self.iter().map(|(_, energy)| energy).sum()
    }
}

impl Index<&str> for EnergyBreakdown {
    type Output = Energy;

    /// Panics when nothing was recorded under `label`, like indexing a map
    /// with a missing key.
    fn index(&self, label: &str) -> &Energy {
        let kind = EnergyKind::from_label(label)
            .unwrap_or_else(|| panic!("unknown energy kind label `{label}`"));
        assert!(
            self.touched & (1 << kind.index()) != 0,
            "no energy recorded for kind `{label}`"
        );
        &self.entries[kind.index()]
    }
}

impl Serialize for EnergyBreakdown {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(kind, energy)| (kind.label().to_string(), energy.to_value()))
                .collect(),
        )
    }
}

impl Deserialize for EnergyBreakdown {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        let map = value
            .as_map()
            .ok_or_else(|| DeError::expected("map", "EnergyBreakdown", value))?;
        let mut breakdown = EnergyBreakdown::new();
        for (label, entry) in map {
            let kind = EnergyKind::from_label(label)
                .ok_or_else(|| DeError::unknown_variant(label, "EnergyKind"))?;
            breakdown.add(kind, Energy::from_value(entry)?);
        }
        Ok(breakdown)
    }
}

/// Energy of one layer, broken down by device kind (plus `"DM"` for data movement).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerEnergyReport {
    /// Layer name.
    pub layer: String,
    /// Energy per device kind; [`EnergyKind::DataMovement`] covers all memory
    /// data movement.
    pub by_kind: EnergyBreakdown,
    /// Total layer energy.
    pub total: Energy,
}

impl fmt::Display for LayerEnergyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.layer, self.total)
    }
}

/// One workload's data-aware weight-encoding power, folded at most once per
/// (layer, weight power model).
///
/// The data-aware power of a layer's weight device is a fold of the layer's
/// sampled weight codes through the device's power model: it depends on
/// nothing else, not on the wavelengths, the core size, the dataflow or how
/// many instances name the weight device. A memo runs that fold on the first
/// request for a (layer, power model) pair and answers every later one with
/// the very `f64` the fold produced, so a memoized simulation is
/// bit-identical to an unmemoized one. [`Simulator::simulate`] folds through
/// a fresh memo (one fold per layer however many instances name the weight
/// device); [`Simulator::simulate_memoized`] lets a caller share one memo
/// across every simulation of the workload, and every accelerator.
///
/// The memo borrows its workload, so it cannot outlive it or serve another.
/// Power models match when they have the same variant and every float has
/// the same bits: `PowerModel`'s `PartialEq` calls `0.0` and `-0.0` equal,
/// while the fold tells them apart. Each layer has its own slot, and a miss
/// folds while holding it, so threads sharing a memo never fold one pair
/// twice and [`folds`](Self::folds) is exact at any thread count.
///
/// [`Simulator::simulate`]: crate::Simulator::simulate
/// [`Simulator::simulate_memoized`]: crate::Simulator::simulate_memoized
#[derive(Debug)]
pub struct WeightPowerMemo<'w> {
    workload: &'w ModelWorkload,
    /// Per layer, in layer order: every power model folded so far, with its
    /// result.
    slots: Vec<Mutex<Vec<(PowerModel, Power)>>>,
    folds: AtomicUsize,
}

impl<'w> WeightPowerMemo<'w> {
    /// An empty memo over `workload`.
    pub fn new(workload: &'w ModelWorkload) -> Self {
        Self {
            workload,
            slots: workload.layers().iter().map(|_| Mutex::default()).collect(),
            folds: AtomicUsize::new(0),
        }
    }

    /// The workload the memo folds.
    pub fn workload(&self) -> &'w ModelWorkload {
        self.workload
    }

    /// How many folds the memo has run: one per distinct (layer, power
    /// model) pair it was asked for.
    pub fn folds(&self) -> usize {
        self.folds.load(Ordering::Relaxed)
    }

    /// The workload's layers in order, each with its memo slot.
    pub fn layers(&self) -> impl Iterator<Item = MemoizedLayer<'_>> {
        self.workload
            .layers()
            .iter()
            .zip(&self.slots)
            .map(|(layer, slot)| MemoizedLayer {
                layer,
                slot,
                folds: &self.folds,
            })
    }
}

/// One layer of a [`WeightPowerMemo`]: the layer's workload and its slot of
/// folded weight powers.
#[derive(Debug, Clone, Copy)]
pub struct MemoizedLayer<'m> {
    layer: &'m LayerWorkload,
    slot: &'m Mutex<Vec<(PowerModel, Power)>>,
    folds: &'m AtomicUsize,
}

impl<'m> MemoizedLayer<'m> {
    /// The layer's workload.
    pub fn workload(&self) -> &'m LayerWorkload {
        self.layer
    }

    /// The layer's data-aware power under `model`: from the slot when this
    /// model was folded before, otherwise folded (under the slot's lock) and
    /// kept.
    fn folded(&self, model: &PowerModel, samples: &WeightSamples) -> Power {
        let mut folded = self.slot.lock().expect("weight power slot lock");
        if let Some(&(_, power)) = folded.iter().find(|(seen, _)| same_bits(seen, model)) {
            return power;
        }
        let power = fold_weight_power(model, samples);
        self.folds.fetch_add(1, Ordering::Relaxed);
        folded.push((model.clone(), power));
        power
    }
}

/// Whether two power models are the same variant with bit-identical floats
/// (and the same fidelity): then a fold through either gives the same bits.
fn same_bits(a: &PowerModel, b: &PowerModel) -> bool {
    use PowerModel::{Linear, Lookup, Static};
    let bits = |power: &Power| power.watts().to_bits();
    let point_bits = |&(x, y): &(f64, f64)| (x.to_bits(), y.to_bits());
    match (a, b) {
        (Static(a), Static(b)) => bits(a) == bits(b),
        (
            Linear {
                idle: ai,
                full_scale: af,
            },
            Linear {
                idle: bi,
                full_scale: bf,
            },
        ) => bits(ai) == bits(bi) && bits(af) == bits(bf),
        (
            Lookup {
                table: at,
                fidelity: af,
            },
            Lookup {
                table: bt,
                fidelity: bf,
            },
        ) => {
            af == bf
                && at
                    .points()
                    .iter()
                    .map(point_bits)
                    .eq(bt.points().iter().map(point_bits))
        }
        _ => false,
    }
}

/// Mean electrical power of the architecture's weight-encoding device, whose
/// power model is `model`, for one layer, honouring the requested data
/// awareness.
///
/// The data-unaware arm is the model's worst-case power and reads nothing
/// of the workload, so a shape-only workload
/// ([`ModelWorkload::shape_only`]) serves it. The data-aware arm is the
/// layer's fold through the model ([`fold_weight_power`]), run at most once
/// per (layer, power model) by the layer's [`WeightPowerMemo`].
///
/// # Errors
///
/// Returns [`SimError::UnsampledWeights`] for a data-aware request on a
/// layer that carries no weight samples.
fn weight_device_power(
    model: &PowerModel,
    layer: MemoizedLayer<'_>,
    awareness: DataAwareness,
) -> Result<Power> {
    let workload = layer.workload();
    let samples = match awareness {
        DataAwareness::Unaware => return Ok(model.worst_case_power()),
        DataAwareness::Aware => workload
            .samples()
            .ok_or_else(|| SimError::UnsampledWeights {
                layer: workload.name().to_string(),
            })?,
    };
    Ok(layer.folded(model, samples))
}

/// The mean data-aware power of a device with power model `model` over a
/// layer's weight samples.
///
/// Evaluates the model once per distinct sampled magnitude, then sums the
/// table entry of every sample in sample order: the same summands in the
/// same order as one `power_at` per sample, so the result is bit-identical
/// to it at a fraction of the cost. A layer with no weight elements has no
/// samples to average and gets the model's mean power.
///
/// Kept out of line: inlined into the layer loop
/// ([`EnergyTable::layer_energy`]), the fold ran about three times slower
/// (one layer's energy with a fold of 8,192 codes took 29 µs against 9 µs
/// out of line, measured on an x86-64 host).
#[inline(never)]
fn fold_weight_power(model: &PowerModel, samples: &WeightSamples) -> Power {
    let codes = samples.codes();
    if codes.is_empty() {
        return model.mean_power();
    }
    let level_mw: Vec<f64> = samples
        .magnitudes()
        .iter()
        .map(|&v| {
            if v == 0.0 {
                // Pruned weights are power-gated.
                0.0
            } else {
                model.power_at(v).milliwatts()
            }
        })
        .collect();
    let total_mw: f64 = codes.iter().map(|&code| level_mw[usize::from(code)]).sum();
    Power::from_milliwatts(total_mw / codes.len() as f64)
}

/// What an [`EnergyTable`] entry draws while the layer is active, besides
/// its per-operation dynamic energy.
#[derive(Debug)]
enum PowerRole {
    /// The weight-encoding device: its power model, read per layer through
    /// the layer's weight power memo (see [`weight_device_power`]).
    Weight(PowerModel),
    /// A laser: its share of the link budget's total laser power.
    Laser(Power),
    /// A DAC or an ADC, rescaled to the layer's bits.
    Converter(DeviceSpec),
    /// Any other device: its static power.
    Static(Power),
}

impl PowerRole {
    /// The power drawn while `layer` is active on a sub-architecture clocked
    /// at `clock`. A DAC runs at the layer's input bits and an ADC at its
    /// output bits, scaled as [`ConverterScaling::rescale`] scales them.
    fn power(
        &self,
        layer: MemoizedLayer<'_>,
        awareness: DataAwareness,
        clock: Frequency,
    ) -> Result<Power> {
        Ok(match self {
            PowerRole::Weight(model) => weight_device_power(model, layer, awareness)?,
            PowerRole::Laser(share) => *share,
            PowerRole::Converter(spec) => {
                let workload = layer.workload();
                let bits = match spec.kind() {
                    DeviceKind::Adc => workload.output_bits(),
                    _ => workload.input_bits(),
                };
                ConverterScaling::default().scaled_power(spec, bits, clock)
            }
            PowerRole::Static(power) => *power,
        })
    }
}

/// One netlist instance of nonzero count, as the layer loop charges it.
#[derive(Debug)]
struct EnergyEntry {
    kind: DeviceKind,
    count: f64,
    dynamic_energy_per_op: Energy,
    role: PowerRole,
}

/// One sub-architecture's device energy model, compiled once from its
/// netlist, device library, link budget and instance counts, none of which
/// depends on the workload.
///
/// It holds one entry per netlist instance of nonzero count, in netlist
/// order: the device kind, the count, the per-operation dynamic energy and
/// what the device draws while active (the weight device's power model, a
/// laser's share of the link budget, a converter's spec, or a static
/// power). [`layer_energy`](Self::layer_energy) is then arithmetic over the
/// entries, with no device lookup and no spec copied.
/// The `Simulator` compiles one table per sub-architecture when it is
/// created and shares it across every simulation of its clones.
#[derive(Debug)]
pub(crate) struct EnergyTable {
    clock: Frequency,
    entries: Vec<EnergyEntry>,
}

impl EnergyTable {
    /// Compiles the energy model of `arch` with `library`'s devices, the
    /// link budget `link` and the instance counts `counts`
    /// ([`PtcArchitecture::instance_counts`]).
    ///
    /// # Errors
    ///
    /// Returns the device-lookup error of the first instance whose device
    /// `library` lacks.
    pub(crate) fn new(
        arch: &PtcArchitecture,
        library: &DeviceLibrary,
        link: &LinkBudgetReport,
        counts: &BTreeMap<String, usize>,
    ) -> Result<Self> {
        let mut entries = Vec::new();
        for inst in arch.netlist().instances() {
            let spec = library.get(inst.device())?;
            let count = counts.get(inst.name()).copied().unwrap_or(0) as f64;
            if count == 0.0 {
                continue;
            }
            let role = if inst.device() == arch.weight_device() {
                PowerRole::Weight(spec.power_model().clone())
            } else if spec.kind() == DeviceKind::Laser {
                // Distribute the link-budget laser power over the laser instances.
                PowerRole::Laser(link.total_laser_power / count)
            } else if spec.kind().is_converter() {
                PowerRole::Converter(spec.clone())
            } else {
                PowerRole::Static(spec.static_power())
            };
            entries.push(EnergyEntry {
                kind: spec.kind(),
                count,
                dynamic_energy_per_op: spec.dynamic_energy_per_op(),
                role,
            });
        }
        Ok(Self {
            clock: arch.clock(),
            entries,
        })
    }

    /// The device energy of one mapped layer.
    ///
    /// Device energy is accumulated over the analog-active cycles
    /// (`I × compute_cycles`): static (or value-aware) power times active
    /// time plus per-operation dynamic energy for every switching event,
    /// summed per device kind in netlist order. The laser is charged at the
    /// link-budget power, a DAC at the layer's input bits and an ADC at its
    /// output bits. `layer` is the layer with its [`WeightPowerMemo`] slot:
    /// every instance of the weight device reads the layer's data-aware
    /// power from it, so the layer folds once per weight power model however
    /// many instances name the device. Data movement is added separately
    /// (see [`data_movement_energy`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsampledWeights`] for a data-aware request on a
    /// layer without weight samples.
    pub(crate) fn layer_energy(
        &self,
        layer: MemoizedLayer<'_>,
        latency: &LatencyBreakdown,
        awareness: DataAwareness,
    ) -> Result<LayerEnergyReport> {
        let workload = layer.workload();
        let active_cycles = latency.iterations * latency.compute_cycles;
        let active_time = self.clock.period() * active_cycles as f64;

        let mut by_kind = EnergyBreakdown::new();
        for entry in &self.entries {
            let power = entry.role.power(layer, awareness, self.clock)?;
            let static_energy = power * active_time * entry.count;
            let dynamic_energy = entry.dynamic_energy_per_op * (active_cycles as f64) * entry.count;
            by_kind.add(
                EnergyKind::Device(entry.kind),
                static_energy + dynamic_energy,
            );
        }
        Ok(LayerEnergyReport {
            layer: workload.name().to_string(),
            by_kind,
            total: Energy::ZERO,
        }
        .finalised())
    }
}

impl LayerEnergyReport {
    /// Adds the data-movement entry and recomputes the total.
    pub(crate) fn with_data_movement(mut self, dm: Energy) -> Self {
        self.by_kind.add(EnergyKind::DataMovement, dm);
        self.finalised()
    }

    fn finalised(mut self) -> Self {
        self.total = self.by_kind.total();
        self
    }
}

/// Data-movement energy of one layer from its per-level traffic.
pub fn data_movement_energy(hierarchy: &MemoryHierarchy, traffic: &MemoryTraffic) -> Energy {
    MemoryLevel::all()
        .iter()
        .map(|&level| hierarchy.access_energy(level, traffic.at(level)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::{Accelerator, LinkConfig};
    use crate::area::default_memory_hierarchy;
    use crate::link_budget::link_budget;
    use simphony_arch::generators;
    use simphony_dataflow::{layer_latency, map_gemm, memory_traffic, DataflowStyle, GemmMapping};
    use simphony_devlib::{DeviceSpec, LookupTable, PowerFidelity, PowerModel};
    use simphony_netlist::ArchParams;
    use simphony_onn::{models, ModelWorkload, PruningConfig, QuantConfig};
    use simphony_units::BitWidth;

    fn setup(
        arch: PtcArchitecture,
        sparsity: f64,
    ) -> (
        Accelerator,
        ModelWorkload,
        GemmMapping,
        LatencyBreakdown,
        LinkBudgetReport,
        MemoryHierarchy,
    ) {
        let accel = Accelerator::builder("test")
            .sub_arch(arch.clone())
            .build()
            .unwrap();
        let prune = PruningConfig::new(sparsity).unwrap();
        let workload = ModelWorkload::extract(
            &models::single_gemm(280, 28, 280),
            &QuantConfig::default(),
            &prune,
            3,
        )
        .unwrap();
        let layer = &workload.layers()[0];
        let mapping =
            map_gemm(layer.gemm(), false, &arch, DataflowStyle::OutputStationary).unwrap();
        let hierarchy = default_memory_hierarchy(&accel).unwrap();
        let latency = layer_latency(layer, &arch, &mapping, hierarchy.glb_bandwidth()).unwrap();
        let link = link_budget(&arch, accel.library(), &LinkConfig::default()).unwrap();
        (accel, workload, mapping, latency, link, hierarchy)
    }

    fn device_energy(
        arch: &PtcArchitecture,
        accel: &Accelerator,
        link: &LinkBudgetReport,
        workload: &ModelWorkload,
        latency: &LatencyBreakdown,
        awareness: DataAwareness,
    ) -> LayerEnergyReport {
        let counts = arch.instance_counts().unwrap();
        let memo = WeightPowerMemo::new(workload);
        let layer = memo.layers().next().expect("one layer");
        EnergyTable::new(arch, accel.library(), link, &counts)
            .unwrap()
            .layer_energy(layer, latency, awareness)
            .unwrap()
    }

    #[test]
    fn tempo_energy_breakdown_contains_expected_components() {
        let arch = generators::tempo(ArchParams::new(2, 2, 4, 4), 5.0).unwrap();
        let (accel, workload, mapping, latency, link, hierarchy) = setup(arch.clone(), 0.0);
        let report = device_energy(
            &arch,
            &accel,
            &link,
            &workload,
            &latency,
            DataAwareness::Aware,
        );
        for kind in ["MZM", "DAC", "ADC", "Laser", "PD"] {
            assert!(report.by_kind.contains_key(kind), "missing {kind}");
            assert!(
                report.by_kind[kind].picojoules() > 0.0,
                "{kind} has zero energy"
            );
        }
        let traffic = memory_traffic(&workload.layers()[0], &mapping);
        let with_dm = report.with_data_movement(data_movement_energy(&hierarchy, &traffic));
        assert!(with_dm.by_kind.contains_key("DM"));
        assert!(with_dm.total > Energy::ZERO);
    }

    #[test]
    fn data_awareness_reduces_weight_static_energy() {
        // The Fig. 10(b) effect on SCATTER: unaware >> aware (analytical) > aware (measured).
        let analytical = generators::scatter(ArchParams::new(2, 2, 4, 4), 5.0).unwrap();
        let measured = generators::scatter_measured(ArchParams::new(2, 2, 4, 4), 5.0).unwrap();
        let (accel, workload, _, latency, link, _) = setup(analytical.clone(), 0.6);

        let energy = |arch: &PtcArchitecture, awareness| {
            device_energy(arch, &accel, &link, &workload, &latency, awareness)
        };
        let ps_unaware = energy(&analytical, DataAwareness::Unaware).by_kind["PS"];
        let ps_aware = energy(&analytical, DataAwareness::Aware).by_kind["PS"];
        let ps_measured = energy(&measured, DataAwareness::Aware).by_kind["PS"];
        assert!(ps_aware.picojoules() < 0.7 * ps_unaware.picojoules());
        assert!(ps_measured < ps_aware);
    }

    #[test]
    fn lower_bitwidth_reduces_converter_energy() {
        let arch = generators::tempo(ArchParams::new(2, 2, 4, 4), 5.0).unwrap();
        let accel = Accelerator::builder("t")
            .sub_arch(arch.clone())
            .build()
            .unwrap();
        let hierarchy = default_memory_hierarchy(&accel).unwrap();
        let link = link_budget(&arch, accel.library(), &LinkConfig::default()).unwrap();
        let mut adc_energy = Vec::new();
        for bits in [4u8, 8u8] {
            let workload = ModelWorkload::extract(
                &models::single_gemm(280, 28, 280),
                &QuantConfig::uniform(BitWidth::new(bits)),
                &PruningConfig::dense(),
                3,
            )
            .unwrap();
            let layer = &workload.layers()[0];
            let mapping =
                map_gemm(layer.gemm(), false, &arch, DataflowStyle::OutputStationary).unwrap();
            let latency = layer_latency(layer, &arch, &mapping, hierarchy.glb_bandwidth()).unwrap();
            let report = device_energy(
                &arch,
                &accel,
                &link,
                &workload,
                &latency,
                DataAwareness::Aware,
            );
            adc_energy.push(report.by_kind["ADC"]);
        }
        assert!(
            adc_energy[0] < adc_energy[1],
            "4-bit ADCs should be cheaper than 8-bit"
        );
    }

    /// Reference for the fold: one `power_at` call per sample, summed in
    /// sample order.
    fn per_sample_weight_power(spec: &DeviceSpec, workload: &LayerWorkload) -> Power {
        let samples = workload.samples().expect("extract samples");
        let codes = samples.codes();
        if codes.is_empty() {
            return spec.power_model().mean_power();
        }
        let total_mw: f64 = codes
            .iter()
            .map(|&code| samples.magnitudes()[usize::from(code)])
            .map(|v| {
                if v == 0.0 {
                    0.0
                } else {
                    spec.power_model().power_at(v).milliwatts()
                }
            })
            .sum();
        Power::from_milliwatts(total_mw / codes.len() as f64)
    }

    #[test]
    fn folded_weight_power_is_bit_identical_to_the_per_sample_loop() {
        let archs = [
            generators::tempo,
            generators::mzi_mesh,
            generators::mrr_bank,
            generators::butterfly,
            generators::pcm_crossbar,
            generators::scatter,
            generators::scatter_measured,
        ];
        let library = DeviceLibrary::standard();
        let mut specs: Vec<DeviceSpec> = archs
            .iter()
            .map(|generate| {
                let arch = generate(ArchParams::new(2, 2, 4, 4), 5.0).unwrap();
                library.get(arch.weight_device()).unwrap().clone()
            })
            .collect();
        // The standard library has no simulation-backed table; add one.
        let table =
            LookupTable::new(vec![(0.0, 0.0), (0.3, 5.1), (0.7, 13.2), (1.0, 19.4)]).unwrap();
        specs.push(
            DeviceSpec::builder("ps_thermal_simulated", DeviceKind::PhaseShifterThermal)
                .power_model(PowerModel::lookup(table, PowerFidelity::Simulated))
                .build()
                .unwrap(),
        );
        let covered = |fidelity| specs.iter().any(|s| s.power_model().fidelity() == fidelity);
        assert!(covered(PowerFidelity::Analytical));
        assert!(covered(PowerFidelity::Simulated));
        assert!(covered(PowerFidelity::Measured));
        // The butterfly mesh shares the MZI mesh's weight device.
        let distinct_models = specs.len() - 1;

        for bits in [1u8, 2, 4, 8, 16] {
            for sparsity in [0.0, 0.5, 0.9] {
                // 96 x 96 weights: more than the per-layer sample cap.
                let workload = ModelWorkload::extract(
                    &models::single_gemm(96, 96, 8),
                    &QuantConfig::uniform(BitWidth::new(bits)),
                    &PruningConfig::new(sparsity).unwrap(),
                    5,
                )
                .unwrap();
                let memo = WeightPowerMemo::new(&workload);
                let layer = memo.layers().next().expect("one layer");
                // Every model is asked for twice, the models interleaved: the
                // first pass folds, the second must hit the right entry.
                for pass in ["miss", "hit"] {
                    for spec in &specs {
                        let power =
                            weight_device_power(spec.power_model(), layer, DataAwareness::Aware)
                                .unwrap();
                        let reference = per_sample_weight_power(spec, layer.workload());
                        assert_eq!(
                            power.milliwatts().to_bits(),
                            reference.milliwatts().to_bits(),
                            "{} at {bits} bits, sparsity {sparsity}, {pass}",
                            spec.name()
                        );
                    }
                    assert_eq!(memo.folds(), distinct_models);
                }
            }
        }
    }

    #[test]
    fn power_models_equal_but_for_the_sign_of_a_zero_fold_apart() {
        let workload = ModelWorkload::extract(
            &models::single_gemm(16, 16, 4),
            &QuantConfig::default(),
            &PruningConfig::new(0.5).unwrap(),
            5,
        )
        .unwrap();
        let full_scale = Power::from_milliwatts(20.0);
        let positive = PowerModel::linear(Power::ZERO, full_scale);
        let negative = PowerModel::linear(Power::from_milliwatts(-0.0), full_scale);
        assert_eq!(positive, negative, "`PartialEq` calls the zeros equal");
        let memo = WeightPowerMemo::new(&workload);
        let layer = memo.layers().next().expect("one layer");
        let samples = layer.workload().samples().expect("extract samples");
        for model in [&positive, &negative, &positive, &negative] {
            assert_eq!(
                layer.folded(model, samples).watts().to_bits(),
                fold_weight_power(model, samples).watts().to_bits()
            );
        }
        assert_eq!(memo.folds(), 2);
    }

    #[test]
    fn table_converter_power_is_bit_identical_to_a_rescaled_spec() {
        let library = DeviceLibrary::standard();
        let mut converters: Vec<DeviceSpec> = library
            .iter()
            .filter(|spec| spec.kind().is_converter())
            .cloned()
            .collect();
        assert!(converters.iter().any(|spec| spec.kind() == DeviceKind::Dac));
        assert!(converters.iter().any(|spec| spec.kind() == DeviceKind::Adc));
        // Specs without a resolution or rate scale from the reference point.
        for kind in [DeviceKind::Dac, DeviceKind::Adc] {
            converters.push(
                DeviceSpec::builder("unannotated", kind)
                    .static_power(Power::from_milliwatts(17.3))
                    .build()
                    .unwrap(),
            );
        }
        let scaling = ConverterScaling::default();
        for input in 1..=16u8 {
            // Inputs and outputs at different bits: a DAC must read the
            // former and an ADC the latter.
            let output = 17 - input;
            let workload = ModelWorkload::shape_only(
                &models::single_gemm(4, 4, 4),
                &QuantConfig::new(
                    BitWidth::new(8),
                    BitWidth::new(input),
                    BitWidth::new(output),
                ),
            )
            .unwrap();
            let memo = WeightPowerMemo::new(&workload);
            let layer = memo.layers().next().expect("one layer");
            for spec in &converters {
                let bits = BitWidth::new(match spec.kind() {
                    DeviceKind::Dac => input,
                    _ => output,
                });
                let role = PowerRole::Converter(spec.clone());
                for ghz in [1.0, 5.0, 10.0] {
                    let clock = Frequency::from_gigahertz(ghz);
                    let power = role.power(layer, DataAwareness::Aware, clock).unwrap();
                    let rescaled = scaling.rescale(spec, bits, clock).static_power();
                    assert_eq!(
                        power.watts().to_bits(),
                        rescaled.watts().to_bits(),
                        "{} at {bits:?}, {ghz} GHz",
                        spec.name()
                    );
                }
            }
        }
    }
}
