//! Golden-record regression: the engine's output must stay byte-identical to
//! records produced by the engine before the single-pass simulator and
//! artifact-sharing refactor.
//!
//! `golden/mixed_axis_records.json` was generated by the pre-refactor engine
//! (via `simphony-cli sweep`) from `golden/mixed_axis_spec.json` — a small
//! sweep mixing every kind of axis the artifact cache keys on: workload,
//! architecture family, wavelengths, sparsity and dataflow. Any change to
//! these bytes is a simulator-semantics change and must be deliberate
//! (regenerate the golden file and bump `CACHE_SCHEMA_VERSION` in
//! `src/cache.rs`).
//!
//! `golden/awareness_records.jsonl` is the `simphony-cli sweep --jsonl`
//! output of `golden/awareness_spec.json`, written by the engine that still
//! sampled weights for data-unaware points: 64 points, every one of them in
//! both the data-aware and the data-unaware mode. It pins the unaware
//! records, which read no weight samples, and the artifact keys that decide
//! which points share a workload.
//!
//! `golden/families_records.jsonl` is the `simphony-cli sweep --jsonl`
//! output of `golden/families_spec.json`, written by the engine that still
//! folded the data-aware weight power once per point and weight-device
//! instance: VGG-8 on all seven architecture families, 56 data-aware points.
//! It pins every family's weight power model, including the MZI mesh's
//! three weight instances, the butterfly mesh that shares the MZI mesh's
//! weight device, the PCM crossbar's static power and SCATTER's measured
//! lookup table.

use std::path::Path;

use simphony_explore::{
    CacheBackend, ExploreSession, JsonlSink, PackedSegmentCache, RecordSink, Result, SweepRecord,
    SweepSpec,
};

const GOLDEN_SPEC: &str = include_str!("golden/mixed_axis_spec.json");
const GOLDEN_RECORDS: &str = include_str!("golden/mixed_axis_records.json");
const AWARENESS_SPEC: &str = include_str!("golden/awareness_spec.json");
const AWARENESS_RECORDS: &str = include_str!("golden/awareness_records.jsonl");
const FAMILIES_SPEC: &str = include_str!("golden/families_spec.json");
const FAMILIES_RECORDS: &str = include_str!("golden/families_records.jsonl");

/// Runs `spec` at `chunk` (0 = unchunked) and renders its records the way
/// `JsonlSink` writes them: compact JSON plus a newline each.
fn jsonl_records(spec: &SweepSpec, chunk: usize) -> String {
    let outcome = ExploreSession::new(spec)
        .chunk_size(chunk)
        .run_collect()
        .expect("sweep runs");
    outcome
        .records
        .iter()
        .map(|record| serde_json::to_string(record).expect("record serializes") + "\n")
        .collect()
}

#[test]
fn sweep_engine_matches_pre_refactor_golden_records() {
    let spec: SweepSpec = serde_json::from_str(GOLDEN_SPEC).expect("golden spec parses");
    assert_eq!(
        spec.point_count().expect("golden spec counts"),
        32,
        "golden sweep covers 32 points"
    );

    let outcome = ExploreSession::new(&spec)
        .run_collect()
        .expect("golden sweep runs");
    // `write_json` renders pretty JSON plus a trailing newline; reproduce the
    // exact bytes the CLI wrote when the golden file was generated.
    let rendered =
        serde_json::to_string_pretty(&outcome.records).expect("records serialize") + "\n";
    assert_eq!(
        rendered, GOLDEN_RECORDS,
        "sweep records diverged from the pre-refactor golden bytes"
    );
}

#[test]
fn golden_sweep_spans_multiple_artifact_keys() {
    // The regression only has teeth if the sweep actually exercises artifact
    // sharing: several points per distinct workload and per distinct
    // architecture.
    let spec: SweepSpec = serde_json::from_str(GOLDEN_SPEC).expect("golden spec parses");
    let points = spec.expand().expect("golden spec expands");
    let workloads: std::collections::HashSet<_> = points.iter().map(|p| p.workload_key()).collect();
    let archs: std::collections::HashSet<_> = points.iter().map(|p| p.arch_key()).collect();
    assert!(workloads.len() >= 4, "several distinct workload artifacts");
    assert!(archs.len() >= 4, "several distinct accelerator artifacts");
    assert!(
        points.len() >= 2 * workloads.len(),
        "multiple points share each workload artifact"
    );
}

#[test]
fn aware_and_unaware_records_match_their_golden_bytes_across_shards() {
    let spec: SweepSpec = serde_json::from_str(AWARENESS_SPEC).expect("awareness spec parses");
    assert_eq!(spec.point_count().expect("awareness spec counts"), 64);
    // At chunk size 1 every point is its own shard, so every artifact comes
    // out of the store a previous shard published: a key that let an unaware
    // workload serve an aware point (or the reverse) would show here.
    for chunk in [0, 1] {
        assert_eq!(
            jsonl_records(&spec, chunk),
            AWARENESS_RECORDS,
            "records diverged from the awareness golden bytes at chunk size {chunk}"
        );
    }
}

#[test]
fn every_family_matches_its_golden_bytes_across_shards() {
    let spec: SweepSpec = serde_json::from_str(FAMILIES_SPEC).expect("families spec parses");
    assert_eq!(spec.point_count().expect("families spec counts"), 56);
    // Unchunked, one shard holds every family, so families that share a
    // weight power model share its folds; at chunk size 1 no point shares
    // anything with another; chunk size 7 cuts across both.
    for chunk in [0, 1, 7] {
        assert_eq!(
            jsonl_records(&spec, chunk),
            FAMILIES_RECORDS,
            "records diverged from the families golden bytes at chunk size {chunk}"
        );
    }
}

/// A `JsonlSink` that notes how each record arrived: through
/// `accept_rendered` with its own compact JSON (checked here), or through
/// `accept`.
struct ArrivalSink {
    inner: JsonlSink,
    /// `true` for each record that arrived rendered, in arrival order.
    rendered: Vec<bool>,
}

impl RecordSink for ArrivalSink {
    fn accept(&mut self, record: SweepRecord) -> Result<()> {
        self.rendered.push(false);
        self.inner.accept(record)
    }

    fn accept_rendered(&mut self, record: SweepRecord, json: &str) -> Result<()> {
        let own = serde_json::to_string(&record).expect("record serializes");
        assert_eq!(
            json, own,
            "record {} arrived with other JSON",
            record.point.index
        );
        self.rendered.push(true);
        self.inner.accept_rendered(record, json)
    }

    fn flush_shard(&mut self) -> Result<()> {
        self.inner.flush_shard()
    }

    fn finish(&mut self) -> Result<()> {
        self.inner.finish()
    }
}

/// Runs `spec` at `chunk` over the packed cache in `cache_dir` into the
/// JSONL file `out`; returns the file's bytes, the session's cache hits and
/// how each record arrived at the sink.
fn jsonl_through_cache(
    spec: &SweepSpec,
    chunk: usize,
    cache_dir: &Path,
    out: &Path,
) -> (String, usize, Vec<bool>) {
    let mut sink = ArrivalSink {
        inner: JsonlSink::create(out).expect("output opens"),
        rendered: Vec::new(),
    };
    let outcome = ExploreSession::new(spec)
        .cache(PackedSegmentCache::open(cache_dir).expect("cache opens"))
        .chunk_size(chunk)
        .sink(&mut sink)
        .run()
        .expect("sweep runs");
    let bytes = std::fs::read_to_string(out).expect("output reads");
    (bytes, outcome.stats.hits, sink.rendered)
}

#[test]
fn jsonl_through_the_cache_matches_the_golden_bytes_cold_warm_and_half_warm() {
    // The sink writes the JSON the compute stage rendered for each fresh
    // record, and the cache stores it under the key the lookup used. Hit
    // counts pin the keys: a key mix-up turns hits into misses, which the
    // bytes alone would not show.
    let spec: SweepSpec = serde_json::from_str(AWARENESS_SPEC).expect("awareness spec parses");
    let golden: Vec<SweepRecord> = AWARENESS_RECORDS
        .lines()
        .map(|line| serde_json::from_str(line).expect("golden line parses"))
        .collect();
    let total = golden.len();
    let root = std::env::temp_dir().join(format!("simphony-golden-cache-{}", std::process::id()));
    for chunk in [0, 1, 6] {
        let dir = root.join(format!("chunk-{chunk}"));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let cache = dir.join("cache");
        let (cold, hits, rendered) =
            jsonl_through_cache(&spec, chunk, &cache, &dir.join("cold.jsonl"));
        assert_eq!(cold, AWARENESS_RECORDS, "cold, chunk size {chunk}");
        assert_eq!(hits, 0, "cold, chunk size {chunk}");
        assert_eq!(rendered, vec![true; total], "cold, chunk size {chunk}");
        let (warm, hits, rendered) =
            jsonl_through_cache(&spec, chunk, &cache, &dir.join("warm.jsonl"));
        assert_eq!(warm, AWARENESS_RECORDS, "warm, chunk size {chunk}");
        assert_eq!(hits, total, "warm, chunk size {chunk}");
        assert_eq!(rendered, vec![false; total], "warm, chunk size {chunk}");
        // Half-warm: every other point stored first, so shards mix hits and
        // misses.
        let half = dir.join("half-cache");
        {
            let cache = PackedSegmentCache::open(&half).expect("cache opens");
            for record in golden.iter().step_by(2) {
                cache.put(record).expect("record stores");
            }
            cache.flush().expect("cache flushes");
        }
        let (mixed, hits, rendered) =
            jsonl_through_cache(&spec, chunk, &half, &dir.join("half.jsonl"));
        assert_eq!(mixed, AWARENESS_RECORDS, "half-warm, chunk size {chunk}");
        assert_eq!(hits, total / 2, "half-warm, chunk size {chunk}");
        let misses: Vec<bool> = (0..total).map(|i| i % 2 == 1).collect();
        assert_eq!(rendered, misses, "half-warm, chunk size {chunk}");
    }
    std::fs::remove_dir_all(&root).ok();
}
