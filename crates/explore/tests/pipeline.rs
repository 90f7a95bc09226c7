//! Failure-ordering tests of the shard loop: a sink dying mid-shard must
//! surface its error (no deadlock, no checkpoint for the unfinished shard),
//! and a panic in either stage — compute (cache lookup / simulate) or I/O
//! (sink) — must propagate to the caller without poisoning the writer thread
//! or violating the checkpoint invariant: the checkpoint never records a
//! shard whose sink data did not land. Each runs at one point per shard,
//! where the writer thread persists every shard but the last, and as one
//! shard, which persists on the calling thread. Compute must also stop
//! within two shards of a failed writer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use simphony_explore::{
    BackendStats, CacheBackend, Checkpoint, ExploreError, ExploreSession, JsonlSink,
    PackedSegmentCache, RecordSink, Result, SweepPoint, SweepRecord, SweepSpec,
};

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = format!(
        "simphony-pipeline-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    let dir = std::env::temp_dir().join(unique);
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

/// Four TeMPO points (wavelengths 1–4), one point per shard at chunk 1.
fn four_point_spec(name: &str) -> SweepSpec {
    SweepSpec::new(name).with_wavelengths(vec![1, 2, 3, 4])
}

/// The invariant every interrupted run must leave behind: each checkpointed
/// shard's cumulative `emitted` count is covered by durable sink lines.
fn assert_checkpoint_covered_by_jsonl(ckpt: &PathBuf, jsonl: &PathBuf) -> usize {
    let (_, completed) = Checkpoint::load(ckpt).expect("checkpoint parses after the crash");
    let durable_lines = std::fs::read_to_string(jsonl)
        .expect("jsonl readable")
        .lines()
        .count();
    for shard in &completed {
        assert!(
            shard.emitted <= durable_lines,
            "checkpoint records shard {} with {} emitted records but only {} lines landed",
            shard.shard,
            shard.emitted,
            durable_lines
        );
    }
    completed.len()
}

/// Forwards to a [`JsonlSink`] but returns an error on the Nth `accept` —
/// a writer-stage failure in the *middle* of a shard, after some of the
/// shard's records already went out.
struct DyingSink {
    inner: JsonlSink,
    accepts_left: usize,
}

impl RecordSink for DyingSink {
    fn accept(&mut self, record: SweepRecord) -> Result<()> {
        if self.accepts_left == 0 {
            return Err(ExploreError::cache("sink died mid-shard".to_string()));
        }
        self.accepts_left -= 1;
        self.inner.accept(record)
    }

    fn flush_shard(&mut self) -> Result<()> {
        self.inner.flush_shard()
    }

    fn finish(&mut self) -> Result<()> {
        self.inner.finish()
    }
}

#[test]
fn a_sink_dying_mid_shard_surfaces_the_error_without_checkpointing_that_shard() {
    // At chunk 1 the sink dies on the third accept: shards 0 and 1 flush and
    // checkpoint cleanly, shard 2 fails mid-drain on the writer thread. The
    // compute stage is by then already ahead (possibly blocked on the
    // single-slot channel) — the error must still surface promptly instead
    // of deadlocking. As one shard (chunk 0) it fails on the calling thread
    // and nothing is checkpointed.
    for (chunk, checkpointed) in [(1, 2), (0, 0)] {
        let spec = four_point_spec("dying-mid-shard");
        let dir = scratch_dir("dying");
        let ckpt = dir.join("sweep.ckpt");
        let jsonl = dir.join("records.jsonl");
        let cache = Arc::new(PackedSegmentCache::open(dir.join("cache")).expect("cache opens"));

        let mut sink = DyingSink {
            inner: JsonlSink::create(&jsonl).expect("sink creates"),
            accepts_left: 2,
        };
        let err = ExploreSession::new(&spec)
            .cache(cache.clone())
            .chunk_size(chunk)
            .checkpoint(&ckpt)
            .sink(&mut sink)
            .run()
            .expect_err("the dying sink aborts the sweep");
        assert!(
            err.to_string().contains("sink died mid-shard"),
            "chunk {chunk}: the sink error is the surfaced error, got: {err}"
        );
        drop(sink);

        let completed = assert_checkpoint_covered_by_jsonl(&ckpt, &jsonl);
        assert_eq!(
            completed, checkpointed,
            "chunk {chunk}: exactly the cleanly-flushed shards are checkpointed"
        );

        // The failed shard's simulation was not wasted: its success is cached
        // (cache puts precede sink emission in the drain order), so resuming
        // through the same checkpoint serves it—and anything the compute stage
        // ran ahead on—from the cache.
        let mut resumed = JsonlSink::append(&jsonl).expect("sink reopens");
        let outcome = ExploreSession::new(&spec)
            .cache(cache)
            .chunk_size(chunk)
            .checkpoint(&ckpt)
            .sink(&mut resumed)
            .run()
            .expect("resume completes");
        assert_eq!(
            outcome.skipped_points, checkpointed,
            "checkpointed shards skipped"
        );
        assert_eq!(outcome.stats.hits + outcome.stats.misses, 4 - checkpointed);
        assert!(outcome.failures.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Delegates to a shared [`PackedSegmentCache`] but panics when asked to
/// look up one specific point — a compute-stage panic (batch lookups run on
/// the worker threads).
#[derive(Clone)]
struct PanickyCache {
    inner: Arc<PackedSegmentCache>,
    panic_at_index: usize,
}

impl CacheBackend for PanickyCache {
    fn get(&self, point: &SweepPoint) -> Option<SweepRecord> {
        assert_ne!(
            point.index, self.panic_at_index,
            "injected compute-stage panic"
        );
        self.inner.get(point)
    }

    fn put(&self, record: &SweepRecord) -> Result<()> {
        self.inner.put(record)
    }

    fn len(&self) -> Result<usize> {
        CacheBackend::len(&self.inner)
    }

    fn stats(&self) -> Result<BackendStats> {
        self.inner.stats()
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    fn scan(&self, visit: &mut dyn FnMut(String, SweepRecord) -> Result<()>) -> Result<()> {
        self.inner.scan(visit)
    }
}

#[test]
fn a_compute_stage_panic_propagates_without_poisoning_the_writer() {
    // The lookup of point 2 panics: at chunk 1 shards 0 and 1 may be durable
    // by then, as one shard nothing is.
    for (chunk, most_checkpointed) in [(1, 2), (0, 0)] {
        let spec = four_point_spec("compute-panic");
        let dir = scratch_dir("compute-panic");
        let ckpt = dir.join("sweep.ckpt");
        let jsonl = dir.join("records.jsonl");
        let cache = PanickyCache {
            inner: Arc::new(PackedSegmentCache::open(dir.join("cache")).expect("cache opens")),
            panic_at_index: 2,
        };

        let panic = catch_unwind(AssertUnwindSafe(|| {
            let mut sink = JsonlSink::create(&jsonl).expect("sink creates");
            let _ = ExploreSession::new(&spec)
                .cache(cache.clone())
                .chunk_size(chunk)
                .checkpoint(&ckpt)
                .sink(&mut sink)
                .run();
        }))
        .expect_err("the injected panic reaches the caller");
        let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains("injected compute-stage panic"),
            "chunk {chunk}: original panic payload preserved, got: {message}"
        );

        // The writer thread wound down cleanly: whatever it checkpointed is
        // backed by durable sink lines, and nothing past the panic is recorded.
        let completed = assert_checkpoint_covered_by_jsonl(&ckpt, &jsonl);
        assert!(
            completed <= most_checkpointed,
            "chunk {chunk}: shards at or past the panicking point must not be checkpointed"
        );

        // Not poisoned: a fresh session over the same checkpoint and cache
        // finishes the sweep normally.
        let mut resumed = JsonlSink::append(&jsonl).expect("sink reopens");
        let outcome = ExploreSession::new(&spec)
            .cache(cache.inner)
            .chunk_size(chunk)
            .checkpoint(&ckpt)
            .sink(&mut resumed)
            .run()
            .expect("resume completes after the panic");
        assert_eq!(outcome.skipped_points, completed);
        assert!(outcome.failures.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Panics inside `accept` — an I/O-stage panic on the writer thread itself.
struct PanickySink {
    accepts_left: usize,
}

impl RecordSink for PanickySink {
    fn accept(&mut self, _record: SweepRecord) -> Result<()> {
        assert_ne!(self.accepts_left, 0, "injected writer-stage panic");
        self.accepts_left -= 1;
        Ok(())
    }
}

#[test]
fn a_writer_stage_panic_propagates_and_never_checkpoints_the_shard() {
    // The second accept panics: at chunk 1 on the writer thread, after shard
    // 0 drained; as one shard on the calling thread, before anything is
    // checkpointed.
    for (chunk, checkpointed) in [(1, 1), (0, 0)] {
        let spec = four_point_spec("writer-panic");
        let dir = scratch_dir("writer-panic");
        let ckpt = dir.join("sweep.ckpt");

        let panic = catch_unwind(AssertUnwindSafe(|| {
            let mut sink = PanickySink { accepts_left: 1 };
            let _ = ExploreSession::new(&spec)
                .chunk_size(chunk)
                .checkpoint(&ckpt)
                .sink(&mut sink)
                .run();
        }))
        .expect_err("the writer panic reaches the caller");
        let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains("injected writer-stage panic"),
            "chunk {chunk}: original panic payload preserved, got: {message}"
        );

        // The shard whose accept panicked must not be in the checkpoint.
        let (_, completed) = Checkpoint::load(&ckpt).expect("checkpoint parses");
        assert_eq!(
            completed.len(),
            checkpointed,
            "chunk {chunk}: only cleanly-drained shards recorded"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Misses every lookup and keeps nothing, counting its `get_batch` calls:
/// one per shard the compute stage ran.
#[derive(Clone, Default)]
struct CountingCache {
    batches: Arc<AtomicUsize>,
}

impl CacheBackend for CountingCache {
    fn get(&self, _point: &SweepPoint) -> Option<SweepRecord> {
        None
    }

    fn get_batch(&self, points: &[&SweepPoint]) -> Vec<Option<SweepRecord>> {
        self.batches.fetch_add(1, Ordering::SeqCst);
        points.iter().map(|_| None).collect()
    }

    fn put(&self, _record: &SweepRecord) -> Result<()> {
        Ok(())
    }

    fn len(&self) -> Result<usize> {
        Ok(0)
    }

    fn stats(&self) -> Result<BackendStats> {
        Ok(BackendStats::default())
    }

    fn scan(&self, _visit: &mut dyn FnMut(String, SweepRecord) -> Result<()>) -> Result<()> {
        Ok(())
    }
}

#[test]
fn compute_stops_within_two_shards_of_a_failed_writer() {
    // Eight one-point shards; the sink dies on shard 1. Shard 0 is durable,
    // and compute may have run two shards past the failing one — one in the
    // slot, one waiting on it — but a loop that kept computing after a
    // failed send would run all eight.
    let spec = SweepSpec::new("lookahead").with_wavelengths((1..=8).collect());
    let dir = scratch_dir("lookahead");
    let cache = CountingCache::default();
    let mut sink = DyingSink {
        inner: JsonlSink::create(dir.join("records.jsonl")).expect("sink creates"),
        accepts_left: 1,
    };
    let err = ExploreSession::new(&spec)
        .cache(cache.clone())
        .chunk_size(1)
        .sink(&mut sink)
        .run()
        .expect_err("the dying sink aborts the sweep");
    assert!(err.to_string().contains("sink died mid-shard"), "{err}");
    let computed = cache.batches.load(Ordering::SeqCst);
    assert!(computed <= 4, "{computed} of 8 shards computed");
    std::fs::remove_dir_all(&dir).ok();
}
