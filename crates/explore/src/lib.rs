//! SimPhony-Explore: a parallel design-space-exploration engine.
//!
//! The paper's whole evaluation (Figs. 9–11) is design-space sweeps —
//! wavelengths, bitwidths, architecture families, heterogeneous mappings.
//! This crate turns those hand-rolled loops into infrastructure:
//!
//! * [`SweepSpec`] — a declarative, serializable description of a sweep: one
//!   list of candidate values per axis (architecture family, tiles/cores/node
//!   dimensions, wavelengths, bitwidth, pruning density, dataflow style,
//!   data-awareness) plus a workload selector ([`WorkloadSpec`]); the
//!   expansion is decodable lazily — [`SweepSpec::point_at`] maps any index
//!   to its point in O(1) via mixed-radix arithmetic, and
//!   [`SweepSpec::points`] iterates the whole product in O(1) memory;
//! * [`ExploreSession`] — the builder that runs sweeps: walks the expansion
//!   in configurable shards on a thread pool (`RAYON_NUM_THREADS` sized),
//!   shares workload/accelerator artifacts within and across shards behind
//!   [`std::sync::Arc`]s, overlaps each shard's simulation with the previous
//!   shard's durability I/O on a writer thread (the final shard persists on
//!   the calling thread, so a one-shard sweep starts none), pushes completed
//!   [`SweepRecord`]s into a [`RecordSink`] (in-memory, pretty JSON, JSONL,
//!   CSV — flushed per shard) in a deterministic order so result files are
//!   byte-identical at any thread count, any chunk size, cold or warm,
//!   optionally keeps going past failing points, and records per-shard
//!   outcomes in a sidecar [checkpoint](ExploreSession::checkpoint) so
//!   interrupted sweeps resume without re-simulating completed shards or
//!   re-attempting recorded failures;
//! * [`PackedSegmentCache`] — the content-hash result cache: append-only
//!   segment files plus an in-memory index, behind the [`CacheBackend`]
//!   trait; each point is keyed once, batch lookups run in parallel under
//!   those keys ([`CacheBackend::get_batch_keyed`]), and fresh records are
//!   stored under the same keys from their pre-rendered JSON
//!   ([`CacheBackend::put_serialized`]);
//! * [`pareto_front`] — non-dominated-point extraction over configurable
//!   minimization [`Objective`]s, generic over any [`ParetoRecord`] type
//!   (sweep records with energy/latency/power/area/EDP, `simphony-traffic`
//!   serving records with p99 latency/throughput/energy-per-request); the
//!   two-objective case runs in O(n log n) via a sort-based sweep and the
//!   three-objective case in O(n log² n) via a divide-and-conquer sweep, so
//!   frontiers scale to streamed JSONL outputs with millions of records;
//!   records carrying NaN/infinite objectives are rejected instead of
//!   silently joining every frontier.
//!
//! The `simphony-cli` binary exposes all of this as `sweep` (with
//! `--chunk-size`, `--jsonl`, `--keep-going`, `--cache`, `--checkpoint`),
//! `resume`, `cache stats`, `pareto` and `run` subcommands;
//! see `EXPERIMENTS.md` at the repository root.
//!
//! # Examples
//!
//! ```
//! use simphony_explore::{pareto_front, ExploreSession, Objective, SweepSpec};
//!
//! // Fig. 9(a)-style wavelength sweep, 3 points.
//! let spec = SweepSpec::new("wavelengths").with_wavelengths(vec![1, 2, 4]);
//! let outcome = ExploreSession::new(&spec).run_collect()?;
//! assert_eq!(outcome.records.len(), 3);
//!
//! // More wavelengths -> fewer cycles on TeMPO.
//! assert!(outcome.records[2].cycles < outcome.records[0].cycles);
//!
//! let front = pareto_front(&outcome.records, &[Objective::Energy, Objective::Latency])?;
//! assert!(!front.is_empty());
//! # Ok::<(), simphony_explore::ExploreError>(())
//! ```
//!
//! Streaming the same sweep in shards of 2 points, with per-shard durable
//! output:
//!
//! ```
//! use simphony_explore::{ExploreSession, SweepSpec, VecSink};
//!
//! let spec = SweepSpec::new("wavelengths").with_wavelengths(vec![1, 2, 4]);
//! let mut sink = VecSink::new();
//! let outcome = ExploreSession::new(&spec)
//!     .chunk_size(2)
//!     .sink(&mut sink)
//!     .on_progress(|shard| eprintln!("shard {}/{} done", shard.shard + 1, shard.shards))
//!     .run()?;
//! assert_eq!(outcome.shards, 2);
//! assert_eq!(sink.records().len(), 3);
//! # Ok::<(), simphony_explore::ExploreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod checkpoint;
mod dispatch;
mod error;
mod fault;
mod pareto;
mod record;
mod retry;
mod runner;
mod session;
mod sink;
mod spec;

pub use cache::{content_key, BackendStats, CacheBackend, CacheStats, PackedSegmentCache};
pub use checkpoint::{
    spec_fingerprint, Checkpoint, CheckpointFailure, CheckpointHeader, ShardCheckpoint,
};
pub use dispatch::{compute_shard_part, merge_shard_source, ComputedPart};
pub use error::{ExploreError, Result};
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultyCache, FaultySink, PlannedFault};
pub use pareto::{dominates, pareto_front, Objective, ParetoRecord};
pub use record::{
    csv_escape, csv_row, read_json, read_jsonl, read_records, read_records_as, to_csv, write_json,
    write_jsonl, CsvRecord, SweepRecord, CSV_HEADER,
};
pub use retry::RetryPolicy;
pub use runner::{
    build_accelerator, effective_shard_size, extract_workload, simulate_point, simulate_point_with,
    simulate_points, ArtifactBudget, ArtifactStore, ArtifactStoreStats, ErrorPolicy, FailureCause,
    PointFailure, ShardProgress, SharedArtifactStore, StreamOptions, StreamOutcome, SweepOutcome,
};
pub use session::ExploreSession;
pub use sink::{CsvSink, JsonFileSink, JsonlSink, MultiSink, RecordSink, VecSink};
pub use spec::{ArchFamily, ArchKey, PointIter, SweepPoint, SweepSpec, WorkloadKey, WorkloadSpec};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SweepSpec>();
        assert_send_sync::<SweepRecord>();
        assert_send_sync::<PackedSegmentCache>();
        assert_send_sync::<Box<dyn CacheBackend>>();
        assert_send_sync::<ExploreError>();
    }
}
