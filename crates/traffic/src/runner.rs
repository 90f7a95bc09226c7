//! Runs serving specs end to end: service-table construction, point
//! execution, and deterministic sharded sweeps into record sinks.

use std::sync::Mutex;

use rayon::prelude::*;

use simphony_explore::{
    simulate_points, ArtifactStore, ExploreError, RecordSink, Result, SweepPoint,
};

use crate::engine::{run_engine, ArrivalKind, EngineConfig, ServiceCost};
use crate::record::ServingRecord;
use crate::spec::{ArrivalProcess, FleetTemplate, RequestClass, ServingPoint, ServingSpec};

/// Default points per shard of [`run_serving`].
pub const DEFAULT_CHUNK_SIZE: usize = 64;

/// The per-template, per-class service costs of a spec — the expensive part
/// of a serving run (one full photonic simulation per pair), built once and
/// shared across every point of the expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceTables {
    /// `tables[t][c]` is the cost of class `c` on fleet template `t`.
    per_template: Vec<Vec<ServiceCost>>,
}

impl ServiceTables {
    /// The cost table of template `t` (indexed per class).
    pub fn template(&self, t: usize) -> &[ServiceCost] {
        &self.per_template[t]
    }

    /// The slot tables of a fleet of `fleet_size` slots: slot `i` uses
    /// template `i % templates`, the fig11-style cyclic heterogeneous
    /// deployment.
    pub fn fleet(&self, fleet_size: usize) -> Vec<Vec<ServiceCost>> {
        (0..fleet_size)
            .map(|slot| self.per_template[slot % self.per_template.len()].clone())
            .collect()
    }
}

/// The sweep point describing one (template, class) probe simulation.
fn probe_point(spec: &ServingSpec, template: &FleetTemplate, class: &RequestClass) -> SweepPoint {
    SweepPoint {
        index: 0,
        workload: class.workload.clone(),
        arch: template.arch,
        tiles: template.tiles,
        cores_per_tile: template.cores_per_tile,
        core_height: template.core_height,
        core_width: template.core_width,
        wavelengths: template.wavelengths,
        bits: class.bits,
        sparsity: class.sparsity,
        dataflow: spec.dataflow,
        data_awareness: spec.data_awareness,
        clock_ghz: spec.clock_ghz,
        seed: spec.seed,
    }
}

/// Builds the service tables of `spec`: one simulated inference per
/// (fleet template, request class) pair.
///
/// The whole probe grid, template-major, simulates in one call of
/// [`simulate_points`] over a private artifact store, so each class's
/// workload is extracted, and its weight power folded, once; each distinct
/// accelerator is built and compiled once; and identical templates share
/// their probes' simulations.
///
/// # Errors
///
/// Propagates spec validation errors and, as [`ExploreError::Point`], the
/// first failing probe in template-major order, labelled with its template
/// and class.
pub fn build_service_tables(spec: &ServingSpec) -> Result<ServiceTables> {
    spec.validate()?;
    let probes: Vec<SweepPoint> = spec
        .fleet
        .iter()
        .flat_map(|template| {
            spec.classes
                .iter()
                .map(move |class| probe_point(spec, template, class))
        })
        .collect();
    let store = Mutex::new(ArtifactStore::default());
    let costs = simulate_points(&store, probes, |_, simulated| {
        simulated.as_ref().map_err(Clone::clone).map(|report| {
            let profile = report.service_profile();
            ServiceCost {
                time_ms: profile.latency.milliseconds(),
                energy_uj: profile.energy.microjoules(),
            }
        })
    });
    let classes = spec.classes.len();
    let costs = costs
        .into_iter()
        .enumerate()
        .map(|(probe, cost)| {
            cost.map_err(|source| {
                let (t, class) = (probe / classes, &spec.classes[probe % classes]);
                ExploreError::Point {
                    index: 0,
                    label: format!(
                        "fleet template #{t} ({}) serving {}",
                        spec.fleet[t].arch,
                        class.workload.label()
                    ),
                    source,
                }
            })
        })
        .collect::<Result<Vec<ServiceCost>>>()?;
    Ok(ServiceTables {
        per_template: costs.chunks(classes).map(<[ServiceCost]>::to_vec).collect(),
    })
}

/// The deterministic per-point RNG seed: decorrelates neighbouring points
/// (SplitMix64's own stream constant) while staying a pure function of the
/// spec seed and the point index.
fn point_seed(spec_seed: u64, index: usize) -> u64 {
    spec_seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs one point of `spec` against pre-built tables.
///
/// Pure and deterministic: the record depends only on `spec`, `point` and
/// `tables`, so callers may execute points in any order or in parallel and
/// still emit byte-identical files after reordering by index.
pub fn run_point(spec: &ServingSpec, tables: &ServiceTables, point: ServingPoint) -> ServingRecord {
    let slots = tables.fleet(point.fleet_size);
    let class_weights: Vec<f64> = spec.classes.iter().map(|c| c.weight).collect();
    let arrival = match spec.arrival {
        ArrivalProcess::Poisson => ArrivalKind::Poisson {
            rate_rps: point.offered_load,
        },
        ArrivalProcess::FixedRate => ArrivalKind::FixedRate {
            rate_rps: point.offered_load,
        },
        ArrivalProcess::ClosedLoop { think_ms } => ArrivalKind::ClosedLoop {
            clients: point.offered_load.round() as usize,
            think_ms,
        },
    };
    let cfg = EngineConfig {
        slots: &slots,
        class_weights: &class_weights,
        arrival,
        service: spec.service,
        discipline: point.discipline,
        batch_size: point.batch_size,
        batch_alpha: spec.batch_alpha,
        queue_capacity: spec.queue_capacity,
        warmup: spec.warmup,
        requests: spec.requests,
        seed: point_seed(spec.seed, point.index),
    };
    let report = run_engine(&cfg);
    ServingRecord::from_report(spec, point, &report)
}

/// Accounting of one serving sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingOutcome {
    /// Points executed.
    pub points: usize,
    /// Shards the sweep ran as.
    pub shards: usize,
}

/// Runs every point of `spec`, streaming records into `sink` in expansion
/// order, `chunk_size` points per shard.
///
/// Shards run on the rayon pool, but each point's engine is single-threaded
/// and seeded from the spec and its index, and records are emitted in index
/// order with a [`flush_shard`](RecordSink::flush_shard) per shard — so the
/// output is byte-identical at any `RAYON_NUM_THREADS`.
///
/// # Errors
///
/// Propagates spec validation, probe-simulation and sink errors.
pub fn run_serving_with(
    spec: &ServingSpec,
    sink: &mut dyn RecordSink<ServingRecord>,
    chunk_size: usize,
) -> Result<ServingOutcome> {
    if chunk_size == 0 {
        return Err(ExploreError::invalid_spec("chunk size must be positive"));
    }
    let tables = build_service_tables(spec)?;
    let total = spec.point_count()?;
    let mut shards = 0;
    for shard_start in (0..total).step_by(chunk_size) {
        let indices: Vec<usize> = (shard_start..(shard_start + chunk_size).min(total)).collect();
        let records: Vec<ServingRecord> = indices
            .par_iter()
            .map(|&i| {
                let point = self_point(spec, i);
                run_point(spec, &tables, point)
            })
            .collect();
        for record in records {
            sink.accept(record)?;
        }
        sink.flush_shard()?;
        shards += 1;
    }
    sink.finish()?;
    Ok(ServingOutcome {
        points: total,
        shards,
    })
}

/// Decodes a validated in-range index (`run_serving_with` iterates below
/// `point_count`, so the decode cannot fail).
fn self_point(spec: &ServingSpec, index: usize) -> ServingPoint {
    spec.point_at(index)
        .expect("index below point_count is decodable")
}

/// Runs every point of `spec` with the default shard size, streaming into
/// `sink`.
///
/// # Errors
///
/// Propagates spec validation, probe-simulation and sink errors.
pub fn run_serving(
    spec: &ServingSpec,
    sink: &mut dyn RecordSink<ServingRecord>,
) -> Result<ServingOutcome> {
    run_serving_with(spec, sink, DEFAULT_CHUNK_SIZE)
}

/// Runs every point of `spec` and collects the records in expansion order.
///
/// # Errors
///
/// Propagates spec validation and probe-simulation errors.
pub fn run_serving_collect(spec: &ServingSpec) -> Result<Vec<ServingRecord>> {
    let mut sink = simphony_explore::VecSink::new();
    run_serving(spec, &mut sink)?;
    Ok(sink.into_records())
}
