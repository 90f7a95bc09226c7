//! Declarative serving-scenario specifications and their deterministic
//! expansion.
//!
//! A [`ServingSpec`] mirrors the shape of
//! [`SweepSpec`](simphony_explore::SweepSpec): fixed scenario configuration
//! (fleet templates, request classes, arrival process) plus one list of
//! candidate values per *sweep axis* (offered load, fleet size, queue
//! discipline, batch size), expanded lazily in deterministic mixed-radix
//! order so point `i` is decodable in O(1) without materializing the product.

use std::fmt;

use serde::{Deserialize, Serialize};

use simphony::DataAwareness;
use simphony_dataflow::DataflowStyle;
use simphony_explore::{ArchFamily, ExploreError, Result, WorkloadSpec};
use simphony_onn::MAX_WEIGHT_BITS;

/// One accelerator variant in the fleet: the hardware axes of a sweep point,
/// without workload or power-model settings (those come from the request
/// classes and the spec respectively).
///
/// A fleet of `fleet_size` slots cycles through the template list (slot `i`
/// uses template `i % templates`), so a two-template list over a four-slot
/// fleet is the fig11-style 2+2 heterogeneous deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetTemplate {
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
}

impl FleetTemplate {
    /// A template of `arch` with the same default geometry as
    /// [`SweepSpec::new`](simphony_explore::SweepSpec::new): 2 tiles, 2 cores
    /// per tile, 4x4 cores, 1 wavelength.
    pub fn new(arch: ArchFamily) -> Self {
        Self {
            arch,
            tiles: 2,
            cores_per_tile: 2,
            core_height: 4,
            core_width: 4,
            wavelengths: 1,
        }
    }
}

/// One class of requests in the arriving stream: which inference each request
/// runs, and how often this class occurs relative to the others.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestClass {
    /// Workload one request of this class executes.
    pub workload: WorkloadSpec,
    /// Operand bit width.
    pub bits: u8,
    /// Weight sparsity fraction.
    pub sparsity: f64,
    /// Relative arrival weight (normalized over all classes).
    pub weight: f64,
}

impl RequestClass {
    /// A unit-weight, dense, 8-bit class of `workload`.
    pub fn new(workload: WorkloadSpec) -> Self {
        Self {
            workload,
            bits: 8,
            sparsity: 0.0,
            weight: 1.0,
        }
    }
}

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Open loop, Poisson arrivals: the offered-load axis is the arrival
    /// rate in requests per second.
    Poisson,
    /// Open loop, deterministic equally-spaced arrivals (for tests and
    /// worst-case-free baselines): the offered-load axis is the rate in
    /// requests per second.
    FixedRate,
    /// Closed loop: the offered-load axis is the *client count* (each value
    /// is rounded to the nearest integer and must round to >= 1). Every
    /// client keeps exactly one request outstanding and thinks for an
    /// exponentially-distributed pause between completion and its next
    /// request.
    ClosedLoop {
        /// Mean think time in milliseconds (0 = think-free, back-to-back).
        think_ms: f64,
    },
}

impl ArrivalProcess {
    /// Whether this process interprets the offered-load axis as a client
    /// count rather than a rate.
    pub fn is_closed_loop(self) -> bool {
        matches!(self, ArrivalProcess::ClosedLoop { .. })
    }
}

/// Service-time variability around the simulator-derived base time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceDistribution {
    /// Every batch takes exactly its base service time.
    Deterministic,
    /// Batch service times are exponentially distributed with the base time
    /// as mean (the M/M/c abstraction; enables closed-form sanity checks).
    Exponential,
}

/// How arriving requests queue and reach accelerators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Discipline {
    /// Centralized FCFS: one shared queue, any freed accelerator takes the
    /// head of it (work-conserving; the M/M/c shape).
    CentralFcfs,
    /// Per-accelerator FCFS queues, arrivals dispatched round-robin.
    RoundRobin,
    /// Per-accelerator FCFS queues, arrivals dispatched to the shortest
    /// queue (ties to the lowest slot index).
    JoinShortestQueue,
}

impl Discipline {
    /// Every discipline, in a stable order.
    pub const ALL: [Discipline; 3] = [
        Discipline::CentralFcfs,
        Discipline::RoundRobin,
        Discipline::JoinShortestQueue,
    ];

    /// Short lowercase name used on the command line and in CSV output.
    pub fn name(self) -> &'static str {
        match self {
            Discipline::CentralFcfs => "cfcfs",
            Discipline::RoundRobin => "rr",
            Discipline::JoinShortestQueue => "jsq",
        }
    }
}

impl fmt::Display for Discipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative serving scenario: fixed fleet/workload/arrival
/// configuration plus the four sweep axes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingSpec {
    /// Scenario name (free-form; lands in record labels).
    pub name: String,
    /// Accelerator variants; fleets cycle through this list slot by slot.
    pub fleet: Vec<FleetTemplate>,
    /// Request classes in the arriving stream.
    pub classes: Vec<RequestClass>,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Service-time variability.
    pub service: ServiceDistribution,
    /// GEMM dataflow style for the service-time probes.
    pub dataflow: DataflowStyle,
    /// Device power accounting mode for the service-time probes.
    pub data_awareness: DataAwareness,
    /// Clock frequency in GHz, shared by every accelerator.
    pub clock_ghz: f64,
    /// Offered-load axis: requests/s (open loop) or client count (closed
    /// loop).
    pub offered_load: Vec<f64>,
    /// Fleet-size axis: number of accelerator slots.
    pub fleet_size: Vec<usize>,
    /// Queue-discipline axis.
    pub discipline: Vec<Discipline>,
    /// Batch-size axis: maximum requests an accelerator serves at once.
    pub batch_size: Vec<usize>,
    /// Fraction of a batch's marginal service time amortized away: batch
    /// duration is `base * (1 + (m - 1) * (1 - batch_alpha))` for `m`
    /// requests, so 0 is purely sequential and 1 is perfectly parallel.
    pub batch_alpha: f64,
    /// Per-queue capacity; an arrival finding the queue full is dropped.
    /// 0 means unbounded.
    pub queue_capacity: usize,
    /// Completions discarded before measurement starts.
    pub warmup: usize,
    /// Measured completions per point; the run stops once collected.
    pub requests: usize,
    /// Seed for arrivals, class draws and service-time draws. Each point
    /// derives its own stream from this and its index.
    pub seed: u64,
}

impl ServingSpec {
    /// A single-point scenario of `name`: one default-geometry
    /// [TeMPO](ArchFamily::Tempo) accelerator serving the validation GEMM
    /// under open-loop Poisson arrivals at 100 requests/s, centralized FCFS,
    /// no batching, 200 measured completions after 50 warmup.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            fleet: vec![FleetTemplate::new(ArchFamily::Tempo)],
            classes: vec![RequestClass::new(WorkloadSpec::validation_gemm())],
            arrival: ArrivalProcess::Poisson,
            service: ServiceDistribution::Deterministic,
            dataflow: DataflowStyle::OutputStationary,
            data_awareness: DataAwareness::Aware,
            clock_ghz: 5.0,
            offered_load: vec![100.0],
            fleet_size: vec![1],
            discipline: vec![Discipline::CentralFcfs],
            batch_size: vec![1],
            batch_alpha: 0.5,
            queue_capacity: 0,
            warmup: 50,
            requests: 200,
            seed: 42,
        }
    }

    /// Replaces the offered-load axis.
    #[must_use]
    pub fn with_offered_load(mut self, loads: Vec<f64>) -> Self {
        self.offered_load = loads;
        self
    }

    /// Replaces the fleet-size axis.
    #[must_use]
    pub fn with_fleet_size(mut self, sizes: Vec<usize>) -> Self {
        self.fleet_size = sizes;
        self
    }

    /// Replaces the discipline axis.
    #[must_use]
    pub fn with_discipline(mut self, disciplines: Vec<Discipline>) -> Self {
        self.discipline = disciplines;
        self
    }

    /// Replaces the batch-size axis.
    #[must_use]
    pub fn with_batch_size(mut self, sizes: Vec<usize>) -> Self {
        self.batch_size = sizes;
        self
    }

    /// Number of points in the expansion.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidSpec`] if the product overflows
    /// `usize`.
    pub fn point_count(&self) -> Result<usize> {
        [
            self.offered_load.len(),
            self.fleet_size.len(),
            self.discipline.len(),
            self.batch_size.len(),
        ]
        .iter()
        .try_fold(1usize, |acc, &len| acc.checked_mul(len))
        .ok_or_else(|| ExploreError::invalid_spec("serving axis product overflows usize"))
    }

    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidSpec`] naming the first problem found.
    pub fn validate(&self) -> Result<()> {
        let fail = |reason: String| Err(ExploreError::invalid_spec(reason));
        if self.fleet.is_empty() {
            return fail("serving spec has no fleet templates".into());
        }
        if self.classes.is_empty() {
            return fail("serving spec has no request classes".into());
        }
        for (i, class) in self.classes.iter().enumerate() {
            class.workload.validate()?;
            if !(class.weight.is_finite() && class.weight > 0.0) {
                return fail(format!(
                    "request class #{i} has non-positive weight {}",
                    class.weight
                ));
            }
            if !(0.0..1.0).contains(&class.sparsity) {
                return fail(format!(
                    "request class #{i} has sparsity {} outside [0, 1)",
                    class.sparsity
                ));
            }
            if class.bits == 0 || u32::from(class.bits) > MAX_WEIGHT_BITS {
                return fail(format!(
                    "request class #{i} has bitwidth {} outside 1..={MAX_WEIGHT_BITS}",
                    class.bits
                ));
            }
        }
        for (template, value) in self.fleet.iter().flat_map(|t| {
            [
                ("tiles", t.tiles),
                ("cores_per_tile", t.cores_per_tile),
                ("core_height", t.core_height),
                ("core_width", t.core_width),
                ("wavelengths", t.wavelengths),
            ]
        }) {
            if value == 0 {
                return fail(format!("fleet template has zero {template}"));
            }
        }
        for (axis, empty) in [
            ("offered_load", self.offered_load.is_empty()),
            ("fleet_size", self.fleet_size.is_empty()),
            ("discipline", self.discipline.is_empty()),
            ("batch_size", self.batch_size.is_empty()),
        ] {
            if empty {
                return fail(format!("serving axis `{axis}` is empty"));
            }
        }
        for &load in &self.offered_load {
            if !(load.is_finite() && load > 0.0) {
                return fail(format!("offered load {load} is not positive and finite"));
            }
            if self.arrival.is_closed_loop() && load.round() < 1.0 {
                return fail(format!(
                    "closed-loop offered load {load} rounds to zero clients"
                ));
            }
        }
        if let ArrivalProcess::ClosedLoop { think_ms } = self.arrival {
            if !(think_ms.is_finite() && think_ms >= 0.0) {
                return fail(format!("think time {think_ms} ms is not finite and >= 0"));
            }
            if think_ms == 0.0 && self.queue_capacity > 0 {
                // A dropped closed-loop request retries after its client's
                // think pause; zero think over a bounded queue livelocks at
                // one instant.
                return fail("closed loop with zero think time cannot use a bounded queue".into());
            }
        }
        if self.fleet_size.contains(&0) {
            return fail("fleet size 0 has no accelerators to serve".into());
        }
        if self.batch_size.contains(&0) {
            return fail("batch size 0 can never start a request".into());
        }
        if !(0.0..=1.0).contains(&self.batch_alpha) {
            return fail(format!("batch_alpha {} outside [0, 1]", self.batch_alpha));
        }
        if self.requests == 0 {
            return fail("serving spec measures zero requests".into());
        }
        if !(self.clock_ghz.is_finite() && self.clock_ghz > 0.0) {
            return fail(format!("clock {} GHz is not positive", self.clock_ghz));
        }
        self.point_count().map(|_| ())
    }

    /// Decodes point `index` of the deterministic expansion in O(1).
    ///
    /// Axis order (outermost first): offered load, fleet size, discipline,
    /// batch size — the innermost axis varies fastest, exactly like
    /// [`SweepSpec::point_at`](simphony_explore::SweepSpec::point_at).
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidSpec`] when `index` is out of range.
    pub fn point_at(&self, index: usize) -> Result<ServingPoint> {
        let total = self.point_count()?;
        if index >= total {
            return Err(ExploreError::invalid_spec(format!(
                "serving point index {index} out of range (expansion has {total} points)"
            )));
        }
        fn digit(rem: &mut usize, len: usize) -> usize {
            let d = *rem % len;
            *rem /= len;
            d
        }
        let mut rem = index;
        let batch_size = self.batch_size[digit(&mut rem, self.batch_size.len())];
        let discipline = self.discipline[digit(&mut rem, self.discipline.len())];
        let fleet_size = self.fleet_size[digit(&mut rem, self.fleet_size.len())];
        let offered_load = self.offered_load[digit(&mut rem, self.offered_load.len())];
        Ok(ServingPoint {
            index,
            offered_load,
            fleet_size,
            discipline,
            batch_size,
        })
    }

    /// Iterates every point of the expansion in order, in O(1) memory.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidSpec`] if the spec fails
    /// [`validate`](Self::validate).
    pub fn points(&self) -> Result<impl Iterator<Item = ServingPoint> + '_> {
        self.validate()?;
        let total = self.point_count()?;
        Ok((0..total).map(|i| {
            self.point_at(i)
                .expect("index below point_count is decodable")
        }))
    }
}

/// One fully-bound serving configuration from a spec expansion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingPoint {
    /// Zero-based position in the deterministic expansion order.
    pub index: usize,
    /// Offered load: requests/s (open loop) or client count (closed loop).
    pub offered_load: f64,
    /// Number of accelerator slots.
    pub fleet_size: usize,
    /// Queue discipline.
    pub discipline: Discipline,
    /// Maximum batch size.
    pub batch_size: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_mixed_radix_with_batch_size_innermost() {
        let spec = ServingSpec::new("axes")
            .with_offered_load(vec![10.0, 20.0])
            .with_fleet_size(vec![1, 2])
            .with_discipline(vec![Discipline::CentralFcfs, Discipline::RoundRobin])
            .with_batch_size(vec![1, 4]);
        assert_eq!(spec.point_count().unwrap(), 16);
        let points: Vec<ServingPoint> = spec.points().unwrap().collect();
        assert_eq!(points.len(), 16);
        // Innermost axis (batch size) varies fastest...
        assert_eq!(points[0].batch_size, 1);
        assert_eq!(points[1].batch_size, 4);
        assert_eq!(points[0].discipline, Discipline::CentralFcfs);
        assert_eq!(points[2].discipline, Discipline::RoundRobin);
        // ...and the outermost (offered load) slowest.
        assert_eq!(points[7].offered_load, 10.0);
        assert_eq!(points[8].offered_load, 20.0);
        for (i, point) in points.iter().enumerate() {
            assert_eq!(point.index, i);
            assert_eq!(spec.point_at(i).unwrap(), *point, "random access agrees");
        }
        assert!(spec.point_at(16).is_err(), "out-of-range index rejected");
    }

    #[test]
    fn validation_rejects_degenerate_scenarios() {
        assert!(ServingSpec::new("ok").validate().is_ok());
        let mut spec = ServingSpec::new("no-fleet");
        spec.fleet.clear();
        assert!(spec.validate().is_err());
        let mut spec = ServingSpec::new("no-classes");
        spec.classes.clear();
        assert!(spec.validate().is_err());
        let spec = ServingSpec::new("no-loads").with_offered_load(vec![]);
        assert!(spec.validate().is_err());
        let spec = ServingSpec::new("bad-load").with_offered_load(vec![0.0]);
        assert!(spec.validate().is_err());
        let spec = ServingSpec::new("zero-fleet").with_fleet_size(vec![0]);
        assert!(spec.validate().is_err());
        let spec = ServingSpec::new("zero-batch").with_batch_size(vec![0]);
        assert!(spec.validate().is_err());
        let mut spec = ServingSpec::new("bad-alpha");
        spec.batch_alpha = 1.5;
        assert!(spec.validate().is_err());
        let mut spec = ServingSpec::new("no-requests");
        spec.requests = 0;
        assert!(spec.validate().is_err());
        let mut spec = ServingSpec::new("bad-weight");
        spec.classes[0].weight = 0.0;
        assert!(spec.validate().is_err());
        for bits in [0, 17, 65] {
            let mut spec = ServingSpec::new("bad-bits");
            spec.classes[0].bits = bits;
            assert!(spec.validate().is_err(), "{bits} bits");
        }
        // Closed loop: fractional client counts must round to >= 1, and a
        // bounded queue needs a positive think time to avoid livelock.
        let mut spec = ServingSpec::new("zero-clients").with_offered_load(vec![0.2]);
        spec.arrival = ArrivalProcess::ClosedLoop { think_ms: 1.0 };
        assert!(spec.validate().is_err());
        let mut spec = ServingSpec::new("livelock").with_offered_load(vec![4.0]);
        spec.arrival = ArrivalProcess::ClosedLoop { think_ms: 0.0 };
        spec.queue_capacity = 2;
        assert!(spec.validate().is_err());
        spec.queue_capacity = 0;
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn specs_round_trip_through_json() {
        let mut spec = ServingSpec::new("round-trip")
            .with_offered_load(vec![50.0, 100.0])
            .with_discipline(Discipline::ALL.to_vec());
        spec.arrival = ArrivalProcess::ClosedLoop { think_ms: 2.0 };
        spec.service = ServiceDistribution::Exponential;
        let text = serde_json::to_string(&spec).unwrap();
        let back: ServingSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, spec);
    }
}
