//! Top-level error type of the simulator.

use std::fmt;

/// Convenience alias for results whose error is [`SimError`].
pub type Result<T> = std::result::Result<T, SimError>;

/// Error returned by the SimPhony simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An architecture-level error (netlist, scaling rules, parameters).
    Arch(simphony_arch::ArchError),
    /// A device-library error.
    Device(simphony_devlib::DeviceError),
    /// A memory-model error.
    Memory(simphony_memsim::MemoryError),
    /// A dataflow-mapping error.
    Dataflow(simphony_dataflow::DataflowError),
    /// A layout-estimation error.
    Layout(simphony_layout::LayoutError),
    /// A workload-extraction error.
    Onn(simphony_onn::OnnError),
    /// The accelerator was configured inconsistently.
    InvalidConfiguration {
        /// Explanation of the problem.
        reason: String,
    },
    /// No sub-architecture can execute a layer (e.g. a dynamic product with no
    /// dynamically reconfigurable PTC in the system).
    NoCompatibleSubArch {
        /// The layer that could not be placed.
        layer: String,
    },
    /// A mapping plan routed a layer to a sub-architecture index that does not
    /// exist in the accelerator.
    InvalidSubArchIndex {
        /// The layer whose routing was invalid.
        layer: String,
        /// The sub-architecture index the plan requested.
        requested: usize,
        /// How many sub-architectures the accelerator actually has.
        available: usize,
    },
    /// A data-aware simulation was handed a layer without weight samples (a
    /// shape-only workload), so its per-value device power is unknown.
    UnsampledWeights {
        /// The layer that carries no samples.
        layer: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Arch(e) => write!(f, "architecture error: {e}"),
            SimError::Device(e) => write!(f, "device error: {e}"),
            SimError::Memory(e) => write!(f, "memory error: {e}"),
            SimError::Dataflow(e) => write!(f, "dataflow error: {e}"),
            SimError::Layout(e) => write!(f, "layout error: {e}"),
            SimError::Onn(e) => write!(f, "workload error: {e}"),
            SimError::InvalidConfiguration { reason } => {
                write!(f, "invalid accelerator configuration: {reason}")
            }
            SimError::NoCompatibleSubArch { layer } => {
                write!(f, "no sub-architecture can execute layer `{layer}`")
            }
            SimError::InvalidSubArchIndex {
                layer,
                requested,
                available,
            } => write!(
                f,
                "mapping plan routes layer `{layer}` to sub-architecture {requested}, but the accelerator only has {available}"
            ),
            SimError::UnsampledWeights { layer } => write!(
                f,
                "data-aware simulation needs weight samples, but layer `{layer}` of a shape-only workload has none"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Arch(e) => Some(e),
            SimError::Device(e) => Some(e),
            SimError::Memory(e) => Some(e),
            SimError::Dataflow(e) => Some(e),
            SimError::Layout(e) => Some(e),
            SimError::Onn(e) => Some(e),
            _ => None,
        }
    }
}

macro_rules! impl_from_error {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for SimError {
            fn from(err: $ty) -> Self {
                SimError::$variant(err)
            }
        }
    };
}

impl_from_error!(Arch, simphony_arch::ArchError);
impl_from_error!(Device, simphony_devlib::DeviceError);
impl_from_error!(Memory, simphony_memsim::MemoryError);
impl_from_error!(Dataflow, simphony_dataflow::DataflowError);
impl_from_error!(Layout, simphony_layout::LayoutError);
impl_from_error!(Onn, simphony_onn::OnnError);

impl From<simphony_netlist::NetlistError> for SimError {
    fn from(err: simphony_netlist::NetlistError) -> Self {
        SimError::Arch(simphony_arch::ArchError::from(err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_errors_expose_their_source() {
        let err = SimError::from(simphony_onn::OnnError::EmptyWorkload { model: "m".into() });
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("workload"));
    }

    #[test]
    fn configuration_errors_are_descriptive() {
        let err = SimError::InvalidConfiguration {
            reason: "no sub-architectures".into(),
        };
        assert!(err.to_string().contains("no sub-architectures"));
    }
}
