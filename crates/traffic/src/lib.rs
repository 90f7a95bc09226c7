//! SimPhony-Traffic: queueing-level serving simulation — the accelerator
//! under load, not one inference.
//!
//! Every metric the core engine produces is single-shot: one inference's
//! latency, energy and area. Serving heavy traffic is a different question —
//! arrival processes, queues, batching and tail latency — so this crate
//! models the accelerator *as a server*:
//!
//! * [`ServingSpec`] — a declarative, serializable serving scenario:
//!   heterogeneous fleet templates, weighted request classes, an arrival
//!   process (open-loop [Poisson](ArrivalProcess::Poisson) /
//!   [fixed-rate](ArrivalProcess::FixedRate), or
//!   [closed-loop](ArrivalProcess::ClosedLoop) N-clients-with-think-time)
//!   plus four sweep axes (offered load, fleet size, queue
//!   [`Discipline`], batch size) expanded lazily in deterministic
//!   mixed-radix order, exactly like
//!   [`SweepSpec`](simphony_explore::SweepSpec);
//! * [`run_engine`] — the deterministic discrete-event core: a seeded
//!   [`SplitMix64`](simphony_onn::SplitMix64) drives arrivals, class draws
//!   and service variability over an event queue with total, tie-broken
//!   ordering; disciplines cover centralized FCFS and per-accelerator FCFS
//!   with round-robin or join-shortest-queue dispatch; batching amortizes a
//!   configurable fraction of service time; bounded queues drop overload;
//! * [`build_service_tables`] — bridges the photonic simulator into the
//!   queueing model: one simulated probe per (fleet template, request class)
//!   pair, distilled to a per-request
//!   [`ServiceProfile`](simphony::ServiceProfile) (service time + energy).
//!   The whole probe grid runs through the sweep engine's
//!   [`simulate_points`](simphony_explore::simulate_points): each class's
//!   workload is extracted and its weight power folded once, each distinct
//!   accelerator is built and compiled once, and each distinct probe
//!   simulates once, so identical templates share their probes;
//! * [`ServingReport`] / [`ServingRecord`] — p50/p99/p999 sojourn latency,
//!   throughput, utilization, drop count, time-averaged occupancy (Little's
//!   `L`) and energy per request; records flow through the generic
//!   [`RecordSink`](simphony_explore::RecordSink) file sinks and rank on
//!   Pareto frontiers via the serving
//!   [`Objective`](simphony_explore::Objective)s (p99 latency, throughput,
//!   energy per request).
//!
//! The determinism contract matches the rest of the repository: same seed +
//! spec ⇒ byte-identical output regardless of thread count ([`run_serving`]
//! parallelizes over points, but every point's engine is single-threaded and
//! seeded from the spec seed and the point index alone).
//!
//! # Examples
//!
//! ```
//! use simphony_traffic::{run_serving_collect, Discipline, ServingSpec};
//!
//! // An offered-load sweep over a single default accelerator.
//! let mut spec = ServingSpec::new("walkthrough")
//!     .with_offered_load(vec![200.0, 400.0])
//!     .with_discipline(vec![Discipline::CentralFcfs]);
//! spec.warmup = 20;
//! spec.requests = 100;
//! let records = run_serving_collect(&spec)?;
//! assert_eq!(records.len(), 2);
//! // More load, no more capacity: the tail can only grow.
//! assert!(records[1].p99_ms >= records[0].p99_ms);
//! # Ok::<(), simphony_explore::ExploreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod record;
mod runner;
mod spec;

pub use engine::{run_engine, ArrivalKind, EngineConfig, ServiceCost, ServingReport};
pub use record::{ServingRecord, SERVING_CSV_HEADER};
pub use runner::{
    build_service_tables, run_point, run_serving, run_serving_collect, run_serving_with,
    ServiceTables, ServingOutcome, DEFAULT_CHUNK_SIZE,
};
pub use spec::{
    ArrivalProcess, Discipline, FleetTemplate, RequestClass, ServiceDistribution, ServingPoint,
    ServingSpec,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServingSpec>();
        assert_send_sync::<ServingRecord>();
        assert_send_sync::<ServiceTables>();
        assert_send_sync::<ServingReport>();
    }
}
