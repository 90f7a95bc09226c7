//! Integration tests of the streaming sharded executor: chunked output must
//! be byte-identical to the in-memory path (on the committed golden records),
//! JSONL round-trips, keep-going sweeps resume through the cache, and two
//! sweeps can share a cache directory concurrently.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use simphony_explore::{
    read_json, read_jsonl, to_csv, ArchFamily, CsvSink, DirCache, ExploreSession, JsonFileSink,
    JsonlSink, MultiSink, SweepSpec, VecSink,
};

const GOLDEN_SPEC: &str = include_str!("golden/mixed_axis_spec.json");
const GOLDEN_RECORDS: &str = include_str!("golden/mixed_axis_records.json");

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = format!(
        "simphony-streaming-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    let dir = std::env::temp_dir().join(unique);
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

#[test]
fn chunked_streaming_reproduces_the_golden_bytes_at_every_chunk_size() {
    let spec: SweepSpec = serde_json::from_str(GOLDEN_SPEC).expect("golden spec parses");
    for chunk in [1, 3, 8, 32, 1000] {
        let dir = scratch_dir("golden");
        let json_path = dir.join("records.json");
        let mut sink = JsonFileSink::create(&json_path).expect("sink creates");
        ExploreSession::new(&spec)
            .chunk_size(chunk)
            .sink(&mut sink)
            .run()
            .expect("streaming sweep runs");
        let streamed = std::fs::read_to_string(&json_path).expect("output reads");
        assert_eq!(
            streamed, GOLDEN_RECORDS,
            "chunk size {chunk} diverged from the pre-refactor golden bytes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn streaming_sinks_match_their_batch_writers() {
    let spec = SweepSpec::new("sinks")
        .with_arch(vec![ArchFamily::Tempo, ArchFamily::Scatter])
        .with_wavelengths(vec![1, 2])
        .with_bitwidth(vec![4, 8]);
    let reference = ExploreSession::new(&spec)
        .run_collect()
        .expect("reference sweep runs");

    let dir = scratch_dir("sinks");
    let json_path = dir.join("records.json");
    let jsonl_path = dir.join("records.jsonl");
    let csv_path = dir.join("records.csv");
    let mut sink = MultiSink::new()
        .with(Box::new(JsonFileSink::create(&json_path).unwrap()))
        .with(Box::new(JsonlSink::create(&jsonl_path).unwrap()))
        .with(Box::new(CsvSink::create(&csv_path).unwrap()));
    ExploreSession::new(&spec)
        .chunk_size(3)
        .sink(&mut sink)
        .run()
        .expect("streaming sweep runs");

    assert_eq!(
        read_json(&json_path).unwrap(),
        reference.records,
        "pretty JSON round-trips"
    );
    assert_eq!(
        read_jsonl(&jsonl_path).unwrap(),
        reference.records,
        "JSONL round-trips"
    );
    assert_eq!(
        std::fs::read_to_string(&csv_path).unwrap(),
        to_csv(&reference.records),
        "CSV is byte-identical to the batch renderer"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn keep_going_sweeps_resume_through_the_cache() {
    let dir = scratch_dir("resume");
    let cache = DirCache::open(&dir).expect("cache opens");
    // Four points; the two butterfly ones fail at artifact construction
    // (non-power-of-two core height), the two TeMPO ones succeed.
    let spec = SweepSpec::new("keep-going")
        .with_arch(vec![ArchFamily::Tempo, ArchFamily::Butterfly])
        .with_core_dims(vec![6])
        .with_wavelengths(vec![1, 2]);

    let mut sink = VecSink::new();
    let outcome = ExploreSession::new(&spec)
        .cache(cache.clone())
        .chunk_size(2)
        .keep_going()
        .sink(&mut sink)
        .run()
        .expect("keep-going sweeps do not abort");
    assert_eq!(outcome.total_points, 4);
    assert_eq!(outcome.stats.misses, 4);
    assert_eq!(
        outcome.failures.iter().map(|f| f.index).collect::<Vec<_>>(),
        vec![2, 3],
        "both butterfly points are reported, in expansion order"
    );
    assert_eq!(sink.records().len(), 2, "the successes still streamed out");
    assert_eq!(cache.len().unwrap(), 2, "the successes are cached");

    // Re-running the same sweep serves the good points from the cache and
    // only re-attempts the failures.
    let mut sink = VecSink::new();
    let outcome = ExploreSession::new(&spec)
        .cache(cache.clone())
        .chunk_size(2)
        .keep_going()
        .sink(&mut sink)
        .run()
        .expect("resumed sweep runs");
    assert_eq!(outcome.stats.hits, 2, "successes resume from the cache");
    assert_eq!(
        outcome.stats.misses, 2,
        "only the failures are re-attempted"
    );
    assert_eq!(outcome.failures.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_sweeps_share_a_cache_directory_safely() {
    // Two overlapping sweeps race on the same cache directory; atomic entry
    // writes mean both finish with correct records and the shared points are
    // stored exactly once.
    let dir = scratch_dir("shared-cache");
    let spec_a = SweepSpec::new("shared-a")
        .with_wavelengths(vec![1, 2])
        .with_bitwidth(vec![4, 8]);
    let spec_b = SweepSpec::new("shared-b")
        .with_wavelengths(vec![1, 2, 3])
        .with_bitwidth(vec![8]);

    let (outcome_a, outcome_b) = std::thread::scope(|scope| {
        let dir_a = dir.clone();
        let dir_b = dir.clone();
        let a = scope.spawn(move || {
            let cache = DirCache::open(&dir_a).expect("cache opens");
            ExploreSession::new(&spec_a)
                .cache(cache)
                .run_collect()
                .expect("sweep A runs")
        });
        let b = scope.spawn(move || {
            let cache = DirCache::open(&dir_b).expect("cache opens");
            ExploreSession::new(&spec_b)
                .cache(cache)
                .run_collect()
                .expect("sweep B runs")
        });
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(outcome_a.records.len(), 4);
    assert_eq!(outcome_b.records.len(), 3);

    // Every record equals its from-scratch simulation regardless of which
    // process' write landed; the overlapping λ∈{1,2}@8b points dedupe.
    let cache = DirCache::open(&dir).expect("cache opens");
    assert_eq!(cache.len().unwrap(), 5, "4 + 3 points with 2 shared");
    let spec_a2 = SweepSpec::new("shared-a")
        .with_wavelengths(vec![1, 2])
        .with_bitwidth(vec![4, 8]);
    let rerun = ExploreSession::new(&spec_a2)
        .cache(cache.clone())
        .run_collect()
        .expect("rerun is all hits");
    assert_eq!(rerun.stats.hits, 4);
    assert_eq!(
        serde_json::to_string(&rerun.records).unwrap(),
        serde_json::to_string(&outcome_a.records).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}
