//! Layout-aware chip area analysis.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use simphony_devlib::DeviceCategory;
use simphony_layout::{footprint_sum_area, signal_flow_floorplan, FloorplanConfig, LayoutItem};
use simphony_memsim::{MemoryHierarchy, SramConfig, SramModel};
use simphony_units::Area;

use crate::accelerator::Accelerator;
use crate::error::{Result, SimError};

/// Chip area broken down by device kind, plus routing whitespace and memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AreaReport {
    /// Whether the signal-flow-aware floorplan overhead was applied.
    pub layout_aware: bool,
    /// Footprint contribution per device-kind label (e.g. `"MZM"`, `"ADC"`).
    pub by_kind: BTreeMap<String, Area>,
    /// Routing/placement whitespace added by the floorplan estimate
    /// (zero when layout awareness is disabled).
    pub whitespace: Area,
    /// On-chip buffer (GLB + LB + RF) area.
    pub memory: Area,
    /// Total chip area.
    pub total: Area,
}

impl AreaReport {
    /// Area of all photonic devices (excluding converters, memory, whitespace).
    pub fn photonic_devices(&self) -> Area {
        self.by_kind
            .iter()
            .filter(|(label, _)| {
                !matches!(
                    label.as_str(),
                    "ADC" | "DAC" | "TIA" | "Integrator" | "Mem" | "Control" | "HBM"
                )
            })
            .map(|(_, a)| *a)
            .sum()
    }
}

impl fmt::Display for AreaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "area report ({}): total {}",
            if self.layout_aware {
                "layout-aware"
            } else {
                "layout-unaware"
            },
            self.total
        )?;
        for (label, area) in &self.by_kind {
            writeln!(f, "  {label:<12} {area}")?;
        }
        writeln!(f, "  {:<12} {}", "Node", self.whitespace)?;
        write!(f, "  {:<12} {}", "Mem", self.memory)
    }
}

/// Builds the on-chip memory model implied by an accelerator's [`MemoryConfig`]
/// with a neutral (modest) bandwidth demand; the simulator overrides the demand
/// per workload.
pub(crate) fn default_memory_hierarchy(accel: &Accelerator) -> Result<MemoryHierarchy> {
    Ok(MemoryHierarchy::builder()
        .glb_capacity(accel.memory().glb_capacity)
        .lb_capacity(accel.memory().lb_capacity)
        .rf_capacity(accel.memory().rf_capacity)
        .bus_width_bits(accel.memory().bus_width_bits)
        .technology(accel.memory().technology)
        .build()?)
}

/// Computes the chip area of an accelerator.
///
/// With `layout_aware = false` the estimate is the plain sum of scaled device
/// footprints plus the memory macros (the prior-work baseline). With
/// `layout_aware = true`, each sub-architecture's node circuit is floorplanned
/// with the signal-flow-aware heuristic and the resulting whitespace ratio is
/// applied to its photonic devices, reproducing the Fig. 10(a) comparison.
///
/// # Errors
///
/// Propagates device-lookup, scaling-rule, floorplanning and memory errors.
pub fn area_report(accel: &Accelerator, layout_aware: bool) -> Result<AreaReport> {
    let counts: Vec<Result<BTreeMap<String, usize>>> = accel
        .sub_archs()
        .iter()
        .map(|arch| Ok(arch.instance_counts()?))
        .collect();
    area_report_with_counts(accel, layout_aware, &counts)
}

/// [`area_report`] over the instance counts of every sub-architecture, in
/// order, evaluated by the caller. A count error is raised where
/// [`area_report`] raises it: before anything else of its sub-architecture.
pub(crate) fn area_report_with_counts(
    accel: &Accelerator,
    layout_aware: bool,
    counts: &[Result<BTreeMap<String, usize>>],
) -> Result<AreaReport> {
    let library = accel.library();
    let mut by_kind: BTreeMap<String, Area> = BTreeMap::new();
    let mut whitespace = Area::ZERO;

    for (arch, counts) in accel.sub_archs().iter().zip(counts) {
        let counts = counts.as_ref().map_err(SimError::clone)?;
        // Whitespace ratio of one node, from the signal-flow floorplan of the
        // node-level circuit (devices at their topological level).
        let ratio = if layout_aware {
            let dag = arch.netlist().to_weighted_dag(library, arch.params())?;
            let levels = dag.levels()?;
            // The whitespace ratio comes from floorplanning one dot-product
            // node, so only instances replicated per node participate; shared
            // front-end devices (laser, coupler) and shared readout sit outside
            // the node array and would distort the ratio.
            let node_count = arch.params().total_nodes();
            let mut items: Vec<LayoutItem> = arch
                .netlist()
                .instances()
                .iter()
                .enumerate()
                .filter(|(_, inst)| counts.get(inst.name()).copied().unwrap_or(0) >= node_count)
                .map(|(idx, inst)| {
                    let spec = library.get(inst.device())?;
                    Ok(LayoutItem::new(
                        inst.name(),
                        spec.footprint().width(),
                        spec.footprint().height(),
                        levels[idx],
                    ))
                })
                .collect::<Result<Vec<_>>>()?;
            if items.is_empty() {
                items = arch
                    .netlist()
                    .instances()
                    .iter()
                    .enumerate()
                    .map(|(idx, inst)| {
                        let spec = library.get(inst.device())?;
                        Ok(LayoutItem::new(
                            inst.name(),
                            spec.footprint().width(),
                            spec.footprint().height(),
                            levels[idx],
                        ))
                    })
                    .collect::<Result<Vec<_>>>()?;
            }
            let plan = signal_flow_floorplan(&items, &FloorplanConfig::default())?;
            let footprints = footprint_sum_area(&items);
            if footprints.square_micrometers() > 0.0 {
                plan.area().square_micrometers() / footprints.square_micrometers()
            } else {
                1.0
            }
        } else {
            1.0
        };

        for inst in arch.netlist().instances() {
            let spec = library.get(inst.device())?;
            let count = counts.get(inst.name()).copied().unwrap_or(0) as f64;
            let footprint = spec.area() * count;
            *by_kind
                .entry(spec.kind().label().to_string())
                .or_insert(Area::ZERO) += footprint;
            if layout_aware && spec.category() == DeviceCategory::Optical {
                whitespace += footprint * (ratio - 1.0).max(0.0);
            }
        }
    }

    // Shared on-chip buffers: GLB plus one LB per sub-architecture plus the RF.
    let hierarchy = default_memory_hierarchy(accel)?;
    let lb_extra = SramModel::new(
        SramConfig::new(accel.memory().lb_capacity, accel.memory().bus_width_bits)
            .with_technology(accel.memory().technology)
            .with_ports(2),
    )
    .area()
        * (accel.sub_archs().len().saturating_sub(1)) as f64;
    let memory = hierarchy.area() + lb_extra;

    let devices: Area = by_kind.values().copied().sum();
    let total = devices + whitespace + memory;
    Ok(AreaReport {
        layout_aware,
        by_kind,
        whitespace,
        memory,
        total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::Accelerator;
    use simphony_arch::generators;
    use simphony_netlist::ArchParams;

    fn tempo_accel() -> Accelerator {
        Accelerator::builder("tempo")
            .sub_arch(generators::tempo(ArchParams::new(2, 2, 4, 4), 5.0).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn layout_awareness_adds_whitespace() {
        let accel = tempo_accel();
        let unaware = area_report(&accel, false).unwrap();
        let aware = area_report(&accel, true).unwrap();
        assert!(unaware.whitespace.is_zero());
        assert!(aware.whitespace.square_micrometers() > 0.0);
        assert!(aware.total > unaware.total);
        // The Fig. 10(a) effect: the layout-unaware estimate is noticeably smaller.
        let ratio = aware.total.square_millimeters() / unaware.total.square_millimeters();
        assert!(ratio > 1.05, "layout-aware/unaware ratio {ratio} too small");
    }

    #[test]
    fn breakdown_covers_expected_kinds() {
        let report = area_report(&tempo_accel(), true).unwrap();
        for kind in ["MZM", "DAC", "ADC", "PD", "Integrator"] {
            assert!(report.by_kind.contains_key(kind), "missing {kind}");
        }
        let summed: Area = report.by_kind.values().copied().sum();
        assert!(
            (summed + report.whitespace + report.memory - report.total)
                .square_micrometers()
                .abs()
                < 1.0
        );
    }

    #[test]
    fn bigger_cores_cost_more_area() {
        let small = area_report(&tempo_accel(), true).unwrap();
        let big_accel = Accelerator::builder("big")
            .sub_arch(
                generators::tempo(ArchParams::new(4, 2, 12, 12).with_wavelengths(12), 5.0).unwrap(),
            )
            .build()
            .unwrap();
        let big = area_report(&big_accel, true).unwrap();
        assert!(big.total.square_millimeters() > small.total.square_millimeters());
    }

    #[test]
    fn display_lists_every_kind() {
        let report = area_report(&tempo_accel(), true).unwrap();
        let text = report.to_string();
        assert!(text.contains("MZM"));
        assert!(text.contains("Mem"));
    }
}
