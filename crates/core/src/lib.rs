//! SimPhony-RS: a device-circuit-architecture cross-layer modeling and
//! simulation framework for heterogeneous electronic-photonic AI systems.
//!
//! This crate is the top of the stack: it assembles photonic sub-architectures
//! ([`simphony_arch`]) built from netlists ([`simphony_netlist`]) of library
//! devices ([`simphony_devlib`]) into an [`Accelerator`], extracts GEMM
//! workloads from neural networks ([`simphony_onn`]), maps them with
//! photonics-specific dataflows ([`simphony_dataflow`]) onto the hardware, and
//! reports:
//!
//! * latency (cycles and wall-clock time, including full-range-iteration and
//!   reconfiguration penalties),
//! * data-aware energy broken down by device kind plus data movement,
//! * layout-aware chip area,
//! * optical link budgets (critical-path insertion loss → laser power),
//! * the multi-block global-buffer configuration meeting the bandwidth demand.
//!
//! # Quickstart
//!
//! ```
//! use simphony::{Accelerator, MappingPlan, Simulator};
//! use simphony_arch::generators;
//! use simphony_netlist::ArchParams;
//! use simphony_onn::{models, ModelWorkload, PruningConfig, QuantConfig};
//!
//! // 1. Describe the hardware: a 2-tile x 2-core TeMPO accelerator, 4x4 cores, 5 GHz.
//! let accel = Accelerator::builder("tempo_edge")
//!     .sub_arch(generators::tempo(ArchParams::new(2, 2, 4, 4), 5.0)?)
//!     .build()?;
//!
//! // 2. Describe the workload: the paper's (280x28)x(28x280) validation GEMM.
//! let workload = ModelWorkload::extract(
//!     &models::single_gemm(280, 28, 280),
//!     &QuantConfig::default(),
//!     &PruningConfig::dense(),
//!     42,
//! )?;
//!
//! // 3. Simulate.
//! let report = Simulator::new(accel).simulate(&workload, &MappingPlan::default())?;
//! println!("{report}");
//! assert!(report.total_energy.picojoules() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accelerator;
mod area;
mod energy;
mod error;
mod link_budget;
mod simulator;

pub use accelerator::{Accelerator, AcceleratorBuilder, LinkConfig, MemoryConfig};
pub use area::{area_report, AreaReport};
pub use energy::{
    data_movement_energy, DataAwareness, EnergyBreakdown, EnergyKind, LayerEnergyReport,
    MemoizedLayer, WeightPowerMemo,
};
pub use error::{Result, SimError};
pub use link_budget::{laser_power_per_path, link_budget, LinkBudgetReport};
pub use simulator::{
    LayerReport, MappingPlan, ServiceProfile, SimulationConfig, SimulationReport, Simulator,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Accelerator>();
        assert_send_sync::<Simulator>();
        assert_send_sync::<SimulationReport>();
        assert_send_sync::<SimError>();
        assert_send_sync::<WeightPowerMemo<'_>>();
    }
}
