//! Error type of the exploration engine.

use std::fmt;

use simphony::SimError;

/// Convenience alias for results whose error is [`ExploreError`].
pub type Result<T> = std::result::Result<T, ExploreError>;

/// Error returned by the design-space-exploration engine.
#[derive(Debug)]
pub enum ExploreError {
    /// The sweep specification is malformed (empty axis, bad range, …).
    InvalidSpec {
        /// Explanation of the problem.
        reason: String,
    },
    /// Simulating one expanded sweep point failed.
    Point {
        /// Zero-based index of the point in deterministic expansion order.
        index: usize,
        /// Human-readable description of the failing point.
        label: String,
        /// The underlying simulator error.
        source: SimError,
    },
    /// Pareto extraction was asked to rank an objective the record schema
    /// does not carry (e.g. `p99_latency` over single-inference sweep
    /// records, or `energy` over serving records). Reported as its own
    /// variant so the CLI prints which objectives *are* available instead of
    /// a serde blob.
    MissingObjective {
        /// Name of the requested objective absent from the records.
        objective: &'static str,
        /// Names of the objectives these records do carry.
        available: Vec<&'static str>,
    },
    /// A record offered to Pareto extraction carries a NaN or infinite
    /// objective value. A NaN metric can never be dominated (every comparison
    /// against it is false), so such a record would silently land on every
    /// frontier; rejecting it keeps frontiers trustworthy.
    NonFiniteMetric {
        /// Zero-based index of the offending record's point.
        index: usize,
        /// Name of the objective whose value is non-finite.
        objective: &'static str,
        /// The offending value (NaN, `inf` or `-inf`).
        value: f64,
    },
    /// A result cache cannot be used as it stands: a directory in a retired
    /// layout, or a buffered entry whose rendered line does not parse.
    Cache {
        /// Explanation of the problem.
        reason: String,
    },
    /// A checkpoint file does not match the sweep being resumed (different
    /// spec, different shard size) or is internally inconsistent.
    Checkpoint {
        /// Explanation of the problem.
        reason: String,
    },
    /// Reading or writing spec/record/cache files failed.
    Io {
        /// The path involved, when known (a CLI takes several path arguments,
        /// so errors must say which one failed).
        path: Option<String>,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Encoding or decoding JSON failed.
    Json(serde_json::Error),
    /// A client's connection to a serve daemon (or a distributed-sweep
    /// worker fleet) was lost mid-request and could not be transparently
    /// re-established. Non-idempotent request kinds are never replayed, so
    /// they surface this immediately; idempotent kinds surface it only after
    /// reconnect attempts are exhausted.
    ConnectionLost {
        /// Address of the peer (daemon address, or a fleet description).
        addr: String,
        /// What happened: the request kind involved and the underlying
        /// cause, rendered for the operator.
        reason: String,
    },
}

impl ExploreError {
    /// Creates an [`ExploreError::InvalidSpec`].
    pub fn invalid_spec(reason: impl Into<String>) -> Self {
        ExploreError::InvalidSpec {
            reason: reason.into(),
        }
    }

    /// Creates an [`ExploreError::Cache`].
    pub fn cache(reason: impl Into<String>) -> Self {
        ExploreError::Cache {
            reason: reason.into(),
        }
    }

    /// Creates an [`ExploreError::Checkpoint`].
    pub fn checkpoint(reason: impl Into<String>) -> Self {
        ExploreError::Checkpoint {
            reason: reason.into(),
        }
    }

    /// Wraps an I/O error with the path it occurred on.
    pub fn io_at(path: impl AsRef<std::path::Path>, source: std::io::Error) -> Self {
        ExploreError::Io {
            path: Some(path.as_ref().display().to_string()),
            source,
        }
    }

    /// Creates an [`ExploreError::ConnectionLost`].
    pub fn connection_lost(addr: impl Into<String>, reason: impl Into<String>) -> Self {
        ExploreError::ConnectionLost {
            addr: addr.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::InvalidSpec { reason } => {
                write!(f, "invalid sweep specification: {reason}")
            }
            ExploreError::Point {
                index,
                label,
                source,
            } => write!(f, "sweep point #{index} ({label}) failed: {source}"),
            ExploreError::MissingObjective {
                objective,
                available,
            } => write!(
                f,
                "these records do not carry objective `{objective}` \
                 (objectives available for this record type: {})",
                available.join(", ")
            ),
            ExploreError::NonFiniteMetric {
                index,
                objective,
                value,
            } => write!(
                f,
                "record #{index} has a non-finite `{objective}` metric ({value}); \
                 NaN/infinite objectives cannot be ranked on a Pareto frontier"
            ),
            ExploreError::Cache { reason } => write!(f, "cache error: {reason}"),
            ExploreError::Checkpoint { reason } => write!(f, "checkpoint error: {reason}"),
            ExploreError::Io {
                path: Some(path),
                source,
            } => write!(f, "I/O error at `{path}`: {source}"),
            ExploreError::Io { path: None, source } => write!(f, "I/O error: {source}"),
            ExploreError::Json(e) => write!(f, "JSON error: {e}"),
            ExploreError::ConnectionLost { addr, reason } => {
                write!(f, "lost connection to `{addr}`: {reason}")
            }
        }
    }
}

impl std::error::Error for ExploreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExploreError::Point { source, .. } => Some(source),
            ExploreError::Io { source, .. } => Some(source),
            ExploreError::Json(e) => Some(e),
            ExploreError::InvalidSpec { .. }
            | ExploreError::MissingObjective { .. }
            | ExploreError::NonFiniteMetric { .. }
            | ExploreError::Cache { .. }
            | ExploreError::Checkpoint { .. }
            | ExploreError::ConnectionLost { .. } => None,
        }
    }
}

impl From<std::io::Error> for ExploreError {
    fn from(err: std::io::Error) -> Self {
        ExploreError::Io {
            path: None,
            source: err,
        }
    }
}

impl From<serde_json::Error> for ExploreError {
    fn from(err: serde_json::Error) -> Self {
        ExploreError::Json(err)
    }
}
