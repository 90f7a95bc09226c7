//! Optical link budget analysis (paper Eq. 1).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

use simphony_arch::PtcArchitecture;
use simphony_devlib::DeviceLibrary;
use simphony_units::{Decibels, Power};

use crate::accelerator::LinkConfig;
use crate::error::{Result, SimError};

/// Result of the link-budget analysis of one sub-architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkBudgetReport {
    /// Name of the analysed sub-architecture.
    pub arch_name: String,
    /// Insertion loss along the critical (heaviest) optical path.
    pub critical_path_il: Decibels,
    /// Instance names along the critical path.
    pub critical_path: Vec<String>,
    /// Required laser power per optical input path (electrical, wall-plug included).
    pub laser_power_per_path: Power,
    /// Number of optical input paths that must be driven.
    pub input_paths: usize,
    /// Total laser electrical power.
    pub total_laser_power: Power,
}

impl fmt::Display for LinkBudgetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: critical IL {}, {} paths x {} = {}",
            self.arch_name,
            self.critical_path_il,
            self.input_paths,
            self.laser_power_per_path,
            self.total_laser_power
        )
    }
}

/// Required laser electrical power for one optical path (paper Eq. 1):
///
/// `P_laser = 10^((S + IL)/10) · 2^b_in / η_WPE · 1 / (1 − 10^(−ER/10))`
///
/// where `S` is the photodetector sensitivity in dBm, `IL` the critical-path
/// insertion loss in dB, `b_in` the input resolution, `η_WPE` the laser
/// wall-plug efficiency and `ER` the modulation extinction ratio.
///
/// # Examples
///
/// ```
/// use simphony::laser_power_per_path;
/// use simphony_units::Decibels;
///
/// let p = laser_power_per_path(Decibels::from_db(10.0), -25.0, 8, 0.2, 8.0);
/// assert!(p.milliwatts() > 0.0);
/// ```
pub fn laser_power_per_path(
    critical_il: Decibels,
    pd_sensitivity_dbm: f64,
    input_bits: u32,
    wall_plug_efficiency: f64,
    extinction_ratio_db: f64,
) -> Power {
    let received_dbm = pd_sensitivity_dbm + critical_il.db();
    let optical_mw = 10f64.powf(received_dbm / 10.0) * 2f64.powi(input_bits as i32);
    let er_penalty = 1.0 - 10f64.powf(-extinction_ratio_db / 10.0);
    Power::from_milliwatts(optical_mw / wall_plug_efficiency / er_penalty)
}

/// Runs the link-budget analysis for one sub-architecture.
///
/// The number of driven input paths is the scaled count of the architecture's
/// input-encoder device (each input modulator is fed by its own share of laser
/// power; fan-out to tiles and cores is already charged as splitter insertion
/// loss on the critical path).
///
/// # Errors
///
/// Propagates device-lookup, scaling-rule and graph errors.
pub fn link_budget(
    arch: &PtcArchitecture,
    library: &DeviceLibrary,
    link: &LinkConfig,
) -> Result<LinkBudgetReport> {
    let counts = arch.instance_counts().map_err(SimError::from);
    link_budget_with_counts(arch, library, link, counts.as_ref())
}

/// [`link_budget`] over the architecture's instance counts, evaluated by the
/// caller. A count error is raised where [`link_budget`] raises it: after
/// the critical-path analysis.
pub(crate) fn link_budget_with_counts(
    arch: &PtcArchitecture,
    library: &DeviceLibrary,
    link: &LinkConfig,
    counts: std::result::Result<&BTreeMap<String, usize>, &SimError>,
) -> Result<LinkBudgetReport> {
    let (path_ids, il) = arch.critical_insertion_loss(library)?;
    let critical_path: Vec<String> = path_ids
        .iter()
        .filter_map(|id| arch.netlist().instance(*id).map(|i| i.name().to_string()))
        .collect();
    let per_path = laser_power_per_path(
        il,
        link.pd_sensitivity_dbm,
        link.input_bits,
        link.wall_plug_efficiency,
        link.extinction_ratio_db,
    );
    let counts = counts.map_err(SimError::clone)?;
    let input_paths = arch
        .netlist()
        .instances()
        .iter()
        .filter(|inst| inst.device() == arch.input_device())
        .filter_map(|inst| counts.get(inst.name()))
        .min()
        .copied()
        .unwrap_or(1)
        .max(1);
    let total = per_path * input_paths as f64;
    Ok(LinkBudgetReport {
        arch_name: arch.name().to_string(),
        critical_path_il: il,
        critical_path,
        laser_power_per_path: per_path,
        input_paths,
        total_laser_power: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simphony_arch::generators;
    use simphony_netlist::ArchParams;

    #[test]
    fn laser_power_grows_exponentially_with_bits_and_loss() {
        let base = laser_power_per_path(Decibels::from_db(5.0), -25.0, 4, 0.2, 8.0);
        let more_bits = laser_power_per_path(Decibels::from_db(5.0), -25.0, 8, 0.2, 8.0);
        let more_loss = laser_power_per_path(Decibels::from_db(15.0), -25.0, 4, 0.2, 8.0);
        assert!((more_bits.milliwatts() / base.milliwatts() - 16.0).abs() < 1e-6);
        assert!((more_loss.milliwatts() / base.milliwatts() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn poor_extinction_ratio_costs_power() {
        let good = laser_power_per_path(Decibels::from_db(5.0), -25.0, 8, 0.2, 20.0);
        let poor = laser_power_per_path(Decibels::from_db(5.0), -25.0, 8, 0.2, 3.0);
        assert!(poor.milliwatts() > good.milliwatts());
    }

    #[test]
    fn tempo_link_budget_is_reasonable() {
        let arch = generators::tempo(ArchParams::new(2, 2, 4, 4), 5.0).unwrap();
        let report =
            link_budget(&arch, &DeviceLibrary::standard(), &LinkConfig::default()).unwrap();
        assert!(report.critical_path_il.db() > 1.0);
        assert!(report.critical_path.first().map(String::as_str) == Some("laser"));
        assert!(report.input_paths >= 8);
        assert!(
            report.total_laser_power.watts() < 50.0,
            "laser power blew up"
        );
        assert!(report.total_laser_power.milliwatts() > 0.1);
    }

    #[test]
    fn bigger_meshes_need_more_laser_power_per_path() {
        let lib = DeviceLibrary::standard();
        let small = generators::mzi_mesh(ArchParams::new(1, 1, 4, 4), 5.0).unwrap();
        let large = generators::mzi_mesh(ArchParams::new(1, 1, 16, 16), 5.0).unwrap();
        let ps = link_budget(&small, &lib, &LinkConfig::default()).unwrap();
        let pl = link_budget(&large, &lib, &LinkConfig::default()).unwrap();
        assert!(pl.laser_power_per_path.milliwatts() > ps.laser_power_per_path.milliwatts());
    }
}
