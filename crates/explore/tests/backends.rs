//! Result-cache integration tests: a cached sweep must reproduce the
//! committed golden record bytes at every tested chunk size (cold and warm),
//! and a checkpointed sweep interrupted mid-run must resume without
//! re-simulating completed shards or re-attempting recorded failures.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use simphony_explore::{
    read_jsonl, CacheBackend, Checkpoint, ExploreError, ExploreSession, JsonFileSink, JsonlSink,
    PackedSegmentCache, RecordSink, Result, SweepRecord, SweepSpec, VecSink,
};

const GOLDEN_SPEC: &str = include_str!("golden/mixed_axis_spec.json");
const GOLDEN_RECORDS: &str = include_str!("golden/mixed_axis_records.json");

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = format!(
        "simphony-backends-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    let dir = std::env::temp_dir().join(unique);
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

#[test]
fn the_cache_reproduces_the_golden_bytes_at_every_chunk_size() {
    let spec: SweepSpec = serde_json::from_str(GOLDEN_SPEC).expect("golden spec parses");
    for chunk in [1, 3, 8, 32, 1000] {
        let dir = scratch_dir(&format!("golden-{chunk}"));
        let cache_dir = dir.join("cache");

        // Cold: every point simulated, every success written through the
        // cache — and the output must match the pre-refactor bytes.
        let cold_path = dir.join("cold.json");
        let mut sink = JsonFileSink::create(&cold_path).expect("sink creates");
        let cold = ExploreSession::new(&spec)
            .cache(PackedSegmentCache::open(&cache_dir).expect("cache opens"))
            .chunk_size(chunk)
            .sink(&mut sink)
            .run()
            .expect("cold sweep runs");
        assert_eq!(cold.stats.misses, cold.total_points);
        assert_eq!(
            std::fs::read_to_string(&cold_path).unwrap(),
            GOLDEN_RECORDS,
            "chunk {chunk}: cold output diverged from the golden bytes"
        );

        // Warm: a fresh handle over the same directory serves every point
        // from the cache, byte-identically.
        let warm_path = dir.join("warm.json");
        let mut sink = JsonFileSink::create(&warm_path).expect("sink creates");
        let warm = ExploreSession::new(&spec)
            .cache(PackedSegmentCache::open(&cache_dir).expect("cache reopens"))
            .chunk_size(chunk)
            .sink(&mut sink)
            .run()
            .expect("warm sweep runs");
        assert_eq!(
            warm.stats.hits, warm.total_points,
            "chunk {chunk}: warm rerun must be all hits"
        );
        assert_eq!(
            std::fs::read_to_string(&warm_path).unwrap(),
            GOLDEN_RECORDS,
            "chunk {chunk}: warm output diverged from the golden bytes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn the_pipeline_is_byte_identical_to_the_serial_path_through_the_cache() {
    // A chunked sweep (on the writer-thread pipeline whenever it spans more
    // than one shard) must leave the same sink bytes and cache contents as
    // the unchunked one (a single shard, run inline) at every chunk size —
    // cold and warm.
    let spec: SweepSpec = serde_json::from_str(GOLDEN_SPEC).expect("golden spec parses");
    for chunk in [1, 3, 8, 32, 1000] {
        let dir = scratch_dir(&format!("pipe-{chunk}"));
        let run = |chunk: usize, tag: &str| {
            let jsonl = dir.join(format!("{tag}.jsonl"));
            let cache_dir = dir.join(format!("cache-{tag}"));
            let mut sink = JsonlSink::create(&jsonl).expect("sink creates");
            ExploreSession::new(&spec)
                .cache(PackedSegmentCache::open(&cache_dir).expect("cache opens"))
                .chunk_size(chunk)
                .sink(&mut sink)
                .run()
                .expect("sweep runs");
            drop(sink);
            (jsonl, cache_dir)
        };
        let (serial_jsonl, serial_cache) = run(0, "serial");
        let (piped_jsonl, piped_cache) = run(chunk, "piped");
        assert_eq!(
            std::fs::read(&piped_jsonl).unwrap(),
            std::fs::read(&serial_jsonl).unwrap(),
            "chunk {chunk}: chunked sink bytes diverged"
        );
        // Cache contents: identical key → record maps (segment file names
        // differ, since they embed a counter).
        let snapshot = |cache_dir: &std::path::Path| {
            let cache = PackedSegmentCache::open(cache_dir).expect("cache reopens");
            let mut entries: Vec<(String, SweepRecord)> = Vec::new();
            cache
                .scan(&mut |key, record| {
                    entries.push((key, record));
                    Ok(())
                })
                .expect("scan succeeds");
            entries
        };
        assert_eq!(
            snapshot(&piped_cache),
            snapshot(&serial_cache),
            "chunk {chunk}: chunked cache contents diverged"
        );
        // Warm chunked rerun over the unchunked run's cache: all hits, same
        // bytes again.
        let warm_jsonl = dir.join("warm.jsonl");
        let mut sink = JsonlSink::create(&warm_jsonl).expect("sink creates");
        let warm = ExploreSession::new(&spec)
            .cache(PackedSegmentCache::open(&serial_cache).expect("cache reopens"))
            .chunk_size(chunk)
            .sink(&mut sink)
            .run()
            .expect("warm sweep runs");
        drop(sink);
        assert_eq!(warm.stats.hits, warm.total_points);
        assert_eq!(
            std::fs::read(&warm_jsonl).unwrap(),
            std::fs::read(&serial_jsonl).unwrap(),
            "chunk {chunk}: warm chunked bytes diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn the_pipeline_is_byte_identical_under_injected_failures() {
    // keep-going sweep with two failing points: the pipelined shard-per-point
    // run must emit the same JSONL and record the same failures in the same
    // order as the unchunked one.
    let spec = SweepSpec::new("pipe-failures")
        .with_arch(vec![
            simphony_explore::ArchFamily::Tempo,
            simphony_explore::ArchFamily::Butterfly,
        ])
        .with_core_dims(vec![6])
        .with_wavelengths(vec![1, 2]);
    let dir = scratch_dir("pipe-failures");
    let run = |chunk: usize, tag: &str| {
        let jsonl = dir.join(format!("{tag}.jsonl"));
        let mut sink = JsonlSink::create(&jsonl).expect("sink creates");
        let outcome = ExploreSession::new(&spec)
            .chunk_size(chunk)
            .keep_going()
            .sink(&mut sink)
            .run()
            .expect("keep-going sweep completes");
        drop(sink);
        (jsonl, outcome)
    };
    let (serial_jsonl, serial) = run(0, "serial");
    let (piped_jsonl, piped) = run(1, "piped");
    assert_eq!(serial.shards, 1);
    assert_eq!(piped.shards, 4);
    assert_eq!(
        std::fs::read(&piped_jsonl).unwrap(),
        std::fs::read(&serial_jsonl).unwrap()
    );
    assert_eq!(piped.failures.len(), serial.failures.len());
    for (a, b) in piped.failures.iter().zip(&serial.failures) {
        assert_eq!((a.index, &a.label), (b.index, &b.label));
        assert_eq!(a.error.to_string(), b.error.to_string());
    }
    assert_eq!(piped.stats, serial.stats);
    std::fs::remove_dir_all(&dir).ok();
}

/// A sink that forwards to a [`JsonlSink`] but dies on the Nth shard flush —
/// the deterministic stand-in for a sweep killed mid-run.
struct DyingSink {
    inner: JsonlSink,
    flushes_left: usize,
}

impl RecordSink for DyingSink {
    fn accept(&mut self, record: SweepRecord) -> Result<()> {
        self.inner.accept(record)
    }

    fn flush_shard(&mut self) -> Result<()> {
        if self.flushes_left == 0 {
            return Err(ExploreError::cache("simulated crash".to_string()));
        }
        self.flushes_left -= 1;
        self.inner.flush_shard()
    }

    fn finish(&mut self) -> Result<()> {
        self.inner.finish()
    }
}

#[test]
fn an_interrupted_sweep_resumes_from_its_checkpoint_without_rework() {
    // Expansion order (chunk 1 → one point per shard):
    //   0: tempo λ1 (ok)   1: tempo λ2 (ok)
    //   2: butterfly λ1 (fails: height 6 is not a power of two)
    //   3: butterfly λ2 (fails)
    let spec = SweepSpec::new("interrupt")
        .with_arch(vec![
            simphony_explore::ArchFamily::Tempo,
            simphony_explore::ArchFamily::Butterfly,
        ])
        .with_core_dims(vec![6])
        .with_wavelengths(vec![1, 2]);
    let dir = scratch_dir("interrupt");
    let ckpt = dir.join("sweep.ckpt");
    let jsonl = dir.join("records.jsonl");
    let cache = Arc::new(PackedSegmentCache::open(dir.join("cache")).expect("cache opens"));

    // First run dies after flushing shard 0: one shard checkpointed, one
    // record durable in the JSONL, shard 1's success cached but NOT
    // checkpointed (the crash hit between cache flush and checkpoint append).
    let mut sink = DyingSink {
        inner: JsonlSink::create(&jsonl).expect("sink creates"),
        flushes_left: 1,
    };
    let err = ExploreSession::new(&spec)
        .cache(cache.clone())
        .chunk_size(1)
        .keep_going()
        .checkpoint(&ckpt)
        .sink(&mut sink)
        .run()
        .expect_err("the dying sink aborts the sweep");
    assert!(err.to_string().contains("simulated crash"));
    drop(sink);
    let (header, completed) = Checkpoint::load(&ckpt).expect("checkpoint parses");
    assert!(header.keep_going);
    assert_eq!(completed.len(), 1, "exactly the flushed shard is recorded");
    assert_eq!(completed[0].emitted, 1);
    // The file may hold MORE than the checkpointed record (here the sink's
    // buffer drained on drop) — the checkpoint's `emitted` count is what
    // vouches for the durable prefix, and `simphony-cli resume` truncates to
    // it before appending.
    let flushed = read_jsonl(&jsonl).expect("prefix parses");
    assert!(!flushed.is_empty());
    assert_eq!(
        flushed[0].point.index, 0,
        "the checkpointed record is first"
    );
    assert_eq!(cache.len().unwrap(), 2, "shard 1's success was cached");

    // Resume: shard 0 is skipped outright (no cache read, no simulation, no
    // duplicate record), shard 1 hits the cache, shards 2–3 re-attempt and
    // fail live.
    let mut sink = VecSink::new();
    let outcome = ExploreSession::new(&spec)
        .cache(cache.clone())
        .chunk_size(1)
        .keep_going()
        .checkpoint(&ckpt)
        .sink(&mut sink)
        .run()
        .expect("resume runs to completion");
    assert_eq!(outcome.skipped_points, 1, "the checkpointed shard skipped");
    assert_eq!(outcome.stats.hits, 1, "shard 1 resumed through the cache");
    assert_eq!(outcome.stats.misses, 2, "only the failures were attempted");
    assert_eq!(outcome.replayed_failures, 0);
    assert_eq!(
        outcome.failures.iter().map(|f| f.index).collect::<Vec<_>>(),
        vec![2, 3]
    );
    assert_eq!(
        sink.records()
            .iter()
            .map(|r| r.point.index)
            .collect::<Vec<_>>(),
        vec![1],
        "only the not-yet-emitted success streams out"
    );

    // Second resume: everything is checkpointed now — zero cache reads, zero
    // simulations, and the recorded failures replay without re-attempts.
    let outcome = ExploreSession::new(&spec)
        .cache(cache)
        .chunk_size(1)
        .keep_going()
        .checkpoint(&ckpt)
        .run()
        .expect("fully-checkpointed rerun runs");
    assert_eq!(outcome.skipped_points, 4);
    assert_eq!(outcome.stats.hits + outcome.stats.misses, 0, "no rework");
    assert_eq!(outcome.replayed_failures, 2, "known-bad points replayed");
    assert!(outcome.failures[0]
        .error
        .to_string()
        .contains("power-of-two"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_sweeps_leave_every_success_durable_in_the_cache() {
    let spec: SweepSpec = serde_json::from_str(GOLDEN_SPEC).expect("golden spec parses");
    let dir = scratch_dir("ckpt");
    let ckpt = dir.join("sweep.ckpt");
    let cache_dir = dir.join("cache");
    let first = ExploreSession::new(&spec)
        .cache(PackedSegmentCache::open(&cache_dir).expect("cache opens"))
        .chunk_size(8)
        .checkpoint(&ckpt)
        .run()
        .expect("checkpointed sweep runs");
    assert_eq!(first.skipped_points, 0);
    let cache = PackedSegmentCache::open(&cache_dir).expect("cache reopens");
    assert_eq!(
        cache.stats().unwrap().entries,
        first.total_points,
        "every checkpointed success is durable in the cache"
    );
    let rerun = ExploreSession::new(&spec)
        .cache(cache)
        .chunk_size(8)
        .checkpoint(&ckpt)
        .run()
        .expect("checkpointed rerun runs");
    assert_eq!(rerun.skipped_points, rerun.total_points, "all skipped");
    assert_eq!(rerun.stats.hits + rerun.stats.misses, 0);
    std::fs::remove_dir_all(&dir).ok();
}
