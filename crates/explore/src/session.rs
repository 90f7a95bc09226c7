//! The [`ExploreSession`] builder — the one entry point to the sweep engine.
//!
//! A session is built up from named parts and then
//! [`run`](ExploreSession::run):
//!
//! ```
//! use simphony_explore::{ExploreSession, JsonlSink, PackedSegmentCache, SweepSpec};
//!
//! let dir = std::env::temp_dir().join(format!("simphony-doc-session-{}", std::process::id()));
//! # std::fs::create_dir_all(&dir).unwrap();
//! let spec = SweepSpec::new("wavelengths").with_wavelengths(vec![1, 2, 4]);
//! let mut sink = JsonlSink::create(dir.join("records.jsonl"))?;
//! let outcome = ExploreSession::new(&spec)
//!     .cache(PackedSegmentCache::open(dir.join("cache"))?)
//!     .chunk_size(2)
//!     .keep_going()
//!     .sink(&mut sink)
//!     .on_progress(|shard| eprintln!("shard {}/{} done", shard.shard + 1, shard.shards))
//!     .checkpoint(dir.join("sweep.ckpt"))
//!     .run()?;
//! assert_eq!(outcome.total_points, 3);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), simphony_explore::ExploreError>(())
//! ```
//!
//! Every part is optional: `ExploreSession::new(&spec).run_collect()?` is the
//! smallest sweep (one shard, fail-fast, records collected in memory).
//!
//! The session also owns **checkpoint/resume**: give it a
//! [`checkpoint`](ExploreSession::checkpoint) path and every completed shard
//! is recorded (after the shard's cache entries and sink output are flushed)
//! in a sidecar file, including the shard's failing points. Re-running the
//! same session skips recorded shards outright — no cache reads, no
//! re-simulation, no duplicate sink output — and replays the recorded
//! failures without re-attempting them. See [`Checkpoint`] for the file
//! format and `simphony-cli resume` for the command-line workflow.

use std::path::PathBuf;

use crate::cache::CacheBackend;
use crate::checkpoint::{Checkpoint, CheckpointHeader};
use crate::error::Result;
use crate::retry::RetryPolicy;
use crate::runner::{
    effective_shard_size, execute, ArtifactBudget, ArtifactStore, ErrorPolicy, ShardProgress,
    SharedArtifactStore, StreamOptions, StreamOutcome, SweepOutcome,
};
use crate::sink::{RecordSink, VecSink};
use crate::spec::SweepSpec;

/// Boxed per-shard progress callback held by a session.
type ProgressCallback<'a> = Box<dyn FnMut(&ShardProgress) + 'a>;

/// Builder for one sweep execution — the single entry point to the sweep
/// engine; see [`ExploreSession::new`] for the defaults each part starts
/// from.
pub struct ExploreSession<'a> {
    spec: &'a SweepSpec,
    cache: Option<Box<dyn CacheBackend + 'a>>,
    options: StreamOptions,
    sink: Option<&'a mut dyn RecordSink>,
    progress: Option<ProgressCallback<'a>>,
    checkpoint: Option<PathBuf>,
    artifacts: Option<SharedArtifactStore>,
    artifact_budget: ArtifactBudget,
}

impl<'a> ExploreSession<'a> {
    /// A session over `spec` with the engine defaults: no cache, one shard,
    /// fail-fast, no sink (use
    /// [`run_collect`](Self::run_collect) or [`sink`](Self::sink)), no
    /// progress callback, no checkpoint.
    pub fn new(spec: &'a SweepSpec) -> Self {
        Self {
            spec,
            cache: None,
            options: StreamOptions::default(),
            sink: None,
            progress: None,
            checkpoint: None,
            artifacts: None,
            artifact_budget: ArtifactBudget::default(),
        }
    }

    /// Shares a resident [`ArtifactStore`] with this sweep: artifacts it
    /// already holds are reused instead of rebuilt, and artifacts this sweep
    /// builds stay resident (subject to the store's budget) for whoever runs
    /// next. This is how a long-lived process — the `simphony-cli serve`
    /// daemon — amortizes workload extraction and accelerator generation
    /// across requests. Without it each run uses a private store bounded by
    /// [`artifact_budget`](Self::artifact_budget).
    #[must_use]
    pub fn artifact_store(mut self, store: SharedArtifactStore) -> Self {
        self.artifacts = Some(store);
        self
    }

    /// Caps the session-private artifact store (when no
    /// [`artifact_store`](Self::artifact_store) is shared in). Default:
    /// [`ArtifactBudget::default`] — 256 entries / 512 MiB, so a sweep over
    /// thousands of distinct workloads no longer grows its store without
    /// bound.
    #[must_use]
    pub fn artifact_budget(mut self, budget: ArtifactBudget) -> Self {
        self.artifact_budget = budget;
        self
    }

    /// Attaches a result-cache backend (see [`CacheBackend`]); hits skip
    /// simulation, successes are written back.
    #[must_use]
    pub fn cache(mut self, backend: impl CacheBackend + 'a) -> Self {
        self.cache = Some(Box::new(backend));
        self
    }

    /// Attaches an already-boxed backend (a cache the caller chose at run
    /// time, such as one optionally wrapped in a
    /// [`FaultyCache`](crate::FaultyCache)).
    #[must_use]
    pub fn cache_boxed(mut self, backend: Box<dyn CacheBackend + 'a>) -> Self {
        self.cache = Some(backend);
        self
    }

    /// Streams the sweep in shards of `points` (0 restores the single-shard
    /// default). Smaller shards bound memory and flush durable sinks more
    /// often at the cost of more frequent artifact-store refreshes.
    #[must_use]
    pub fn chunk_size(mut self, points: usize) -> Self {
        self.options.chunk_size = (points > 0).then_some(points);
        self
    }

    /// Records failing points in the outcome and keeps sweeping instead of
    /// aborting (see [`ErrorPolicy::KeepGoing`]).
    #[must_use]
    pub fn keep_going(mut self) -> Self {
        self.options.error_policy = ErrorPolicy::KeepGoing;
        self
    }

    /// Aborts on the first failing point (the default; see
    /// [`ErrorPolicy::FailFast`]).
    #[must_use]
    pub fn fail_fast(mut self) -> Self {
        self.options.error_policy = ErrorPolicy::FailFast;
        self
    }

    /// Replaces the whole option block at once (compatibility with code that
    /// already holds a [`StreamOptions`]).
    #[must_use]
    pub fn options(mut self, options: StreamOptions) -> Self {
        self.options = options;
        self
    }

    /// Sends completed records to `sink`, in deterministic expansion order,
    /// flushed at every shard boundary. Without a sink, [`run`](Self::run)
    /// discards records (useful for cache-warming) and
    /// [`run_collect`](Self::run_collect) gathers them in memory.
    #[must_use]
    pub fn sink(mut self, sink: &'a mut dyn RecordSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Calls `callback` after every shard (including shards skipped via
    /// checkpoint resume, which report `skipped > 0`).
    #[must_use]
    pub fn on_progress(mut self, callback: impl FnMut(&ShardProgress) + 'a) -> Self {
        self.progress = Some(Box::new(callback));
        self
    }

    /// Records per-shard outcomes in a sidecar checkpoint file at `path`,
    /// and resumes from it when it already exists: shards it records as
    /// complete are skipped and their failures replayed without re-attempts.
    ///
    /// The file is bound to the spec's content fingerprint, the effective
    /// shard size, and the error policy — [`run`](Self::run) fails with
    /// [`crate::ExploreError::Checkpoint`] if an existing file belongs to a
    /// different sweep, instead of silently duplicating work or output.
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Sets the durability-chain retry policy: cache `put`/`flush` and sink
    /// flushes are re-attempted on transient failure with exponential backoff
    /// and decorrelated jitter (see [`RetryPolicy`]). Default:
    /// [`RetryPolicy::none`] — one attempt per operation. Under
    /// [`keep_going`](Self::keep_going), a cache write that still fails after
    /// the policy is exhausted is *degraded* (the record reaches the sink,
    /// the skip is counted in [`StreamOutcome::cache_degraded`]) instead of
    /// aborting the sweep.
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.options.retry = policy;
        self
    }

    /// Runs the sweep, streaming records to the configured sink (or
    /// discarding them when none is set — the cache and checkpoint still see
    /// everything).
    ///
    /// # Errors
    ///
    /// Returns spec-validation, cache/sink/checkpoint I/O errors, and — under
    /// the default fail-fast policy — the first failing point's error (the
    /// failing shard is still completed first so its successes are cached).
    /// Under [`keep_going`](Self::keep_going) failing points are reported in
    /// [`StreamOutcome::failures`] instead.
    pub fn run(mut self) -> Result<StreamOutcome> {
        match self.sink.take() {
            Some(sink) => self.run_with(sink),
            None => self.run_with(&mut DiscardSink),
        }
    }

    /// Runs the sweep and returns every record in memory, in expansion order
    /// — the ergonomic path for sweeps small enough to hold in a `Vec`. A
    /// sink configured via [`sink`](Self::sink) still receives every record.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run). Additionally refuses to *resume* from a
    /// [`checkpoint`](Self::checkpoint) that already records completed shards
    /// — skipped shards emit nothing, so the returned `Vec` would silently be
    /// missing their records, breaking this method's every-record contract.
    /// (A first run that merely *writes* a checkpoint is fine; to resume, use
    /// [`run`](Self::run) with a durable, appendable sink.)
    pub fn run_collect(mut self) -> Result<SweepOutcome> {
        if let Some(path) = &self.checkpoint {
            if path.exists() {
                let (_, completed) = Checkpoint::load(path)?;
                if !completed.is_empty() {
                    return Err(crate::error::ExploreError::checkpoint(format!(
                        "`{}` records {} completed shards, which run_collect would skip \
                         without collecting; resume with run() and a durable sink instead",
                        path.display(),
                        completed.len()
                    )));
                }
            }
        }
        let mut records = VecSink::new();
        let stats = {
            let mut tee = CollectTee {
                primary: &mut records,
                secondary: self.sink.take(),
            };
            self.run_with(&mut tee)?.stats
        };
        Ok(SweepOutcome {
            records: records.into_records(),
            stats,
        })
    }

    fn run_with(self, sink: &mut dyn RecordSink) -> Result<StreamOutcome> {
        let Self {
            spec,
            cache,
            options,
            sink: _,
            mut progress,
            checkpoint,
            artifacts,
            artifact_budget,
        } = self;
        let local_store;
        let artifacts: &std::sync::Mutex<ArtifactStore> = match &artifacts {
            Some(shared) => shared,
            None => {
                local_store = std::sync::Mutex::new(ArtifactStore::new(artifact_budget));
                &local_store
            }
        };
        let mut checkpoint = match checkpoint {
            Some(path) => {
                // Validate before computing the header, so the checkpoint is
                // bound to a well-formed expansion.
                spec.validate()?;
                let total = spec.point_count()?;
                Some(Checkpoint::resume(
                    path,
                    &CheckpointHeader::for_sweep(spec, &options, total),
                )?)
            }
            None => None,
        };
        let mut callback = |shard: &ShardProgress| {
            if let Some(f) = progress.as_mut() {
                f(shard);
            }
        };
        execute(
            spec,
            cache.as_deref(),
            &options,
            sink,
            &mut callback,
            checkpoint.as_mut(),
            artifacts,
        )
    }
}

impl CheckpointHeader {
    /// The header a sweep of `spec` under `options` writes (and expects).
    pub fn for_sweep(spec: &SweepSpec, options: &StreamOptions, total_points: usize) -> Self {
        CheckpointHeader {
            version: crate::checkpoint::CHECKPOINT_VERSION,
            spec_key: crate::checkpoint::spec_fingerprint(spec),
            shard_size: effective_shard_size(options, total_points),
            total_points,
            keep_going: options.error_policy == ErrorPolicy::KeepGoing,
        }
    }
}

/// Sink used by [`ExploreSession::run`] when none is configured.
struct DiscardSink;

impl RecordSink for DiscardSink {
    fn accept(&mut self, _record: crate::record::SweepRecord) -> Result<()> {
        Ok(())
    }
}

/// Tee used by [`ExploreSession::run_collect`]: collects into a `VecSink`
/// while forwarding to the user's sink, if any. (Two lifetimes: the
/// collection buffer is function-local while the user's sink carries the
/// session lifetime.)
struct CollectTee<'s, 'a> {
    primary: &'s mut VecSink,
    secondary: Option<&'a mut (dyn RecordSink + 'a)>,
}

impl RecordSink for CollectTee<'_, '_> {
    fn accept(&mut self, record: crate::record::SweepRecord) -> Result<()> {
        if let Some(sink) = self.secondary.as_deref_mut() {
            sink.accept(record.clone())?;
        }
        self.primary.accept(record)
    }

    fn flush_shard(&mut self) -> Result<()> {
        if let Some(sink) = self.secondary.as_deref_mut() {
            sink.flush_shard()?;
        }
        self.primary.flush_shard()
    }

    fn sync(&mut self) -> Result<()> {
        if let Some(sink) = self.secondary.as_deref_mut() {
            sink.sync()?;
        }
        self.primary.sync()
    }

    fn finish(&mut self) -> Result<()> {
        if let Some(sink) = self.secondary.as_deref_mut() {
            sink.finish()?;
        }
        self.primary.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PackedSegmentCache;
    use crate::sink::JsonlSink;
    use crate::spec::ArchFamily;
    use std::sync::Arc;

    fn scratch(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "simphony-session-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn run_collect_tees_into_a_configured_sink() {
        let dir = scratch("tee");
        let path = dir.join("records.jsonl");
        let spec = SweepSpec::new("tee").with_wavelengths(vec![1, 2]);
        let mut sink = JsonlSink::create(&path).unwrap();
        let outcome = ExploreSession::new(&spec)
            .sink(&mut sink)
            .run_collect()
            .unwrap();
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(
            crate::record::read_jsonl(&path).unwrap(),
            outcome.records,
            "the configured sink received every collected record"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sessions_accept_any_backend() {
        let dir = scratch("backend");
        let spec = SweepSpec::new("backend").with_wavelengths(vec![1, 2]);
        let cache = PackedSegmentCache::open(dir.join("packed")).unwrap();
        let cold = ExploreSession::new(&spec)
            .cache(cache)
            .run_collect()
            .unwrap();
        assert_eq!(cold.stats.misses, 2);
        // The session flushed the packed cache at the shard boundary, so a
        // fresh handle resumes warm.
        let cache = PackedSegmentCache::open(dir.join("packed")).unwrap();
        assert_eq!(cache.len().unwrap(), 2);
        let warm = ExploreSession::new(&spec)
            .cache(cache)
            .run_collect()
            .unwrap();
        assert_eq!(warm.stats.hits, 2);
        assert_eq!(warm.records, cold.records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_reruns_skip_everything_and_replay_failures() {
        let dir = scratch("ckpt");
        let ckpt = dir.join("sweep.ckpt");
        // tempo λ1, tempo λ2 succeed; butterfly λ1, λ2 fail (height 6).
        let spec = SweepSpec::new("ckpt")
            .with_arch(vec![ArchFamily::Tempo, ArchFamily::Butterfly])
            .with_core_dims(vec![6])
            .with_wavelengths(vec![1, 2]);
        let cache = Arc::new(PackedSegmentCache::open(dir.join("cache")).unwrap());
        let first = ExploreSession::new(&spec)
            .cache(cache.clone())
            .chunk_size(2)
            .keep_going()
            .checkpoint(&ckpt)
            .run()
            .unwrap();
        assert_eq!(first.failures.len(), 2);
        assert_eq!(first.replayed_failures, 0);
        assert_eq!(first.skipped_points, 0);

        // The re-run touches nothing: no cache reads, no simulation, no
        // re-attempt of the recorded failures.
        let rerun = ExploreSession::new(&spec)
            .cache(cache)
            .chunk_size(2)
            .keep_going()
            .checkpoint(&ckpt)
            .run()
            .unwrap();
        assert_eq!(rerun.skipped_points, 4);
        assert_eq!(rerun.stats, crate::CacheStats { hits: 0, misses: 0 });
        assert_eq!(rerun.replayed_failures, 2);
        assert_eq!(
            rerun.failures.iter().map(|f| f.index).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert!(rerun.failures[0].error.to_string().contains("power-of-two"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_collect_refuses_to_resume_past_completed_shards() {
        // Skipped shards emit nothing, so a resumed run_collect would return
        // a silently incomplete Vec; it must refuse instead.
        let dir = scratch("collect-resume");
        let ckpt = dir.join("sweep.ckpt");
        let spec = SweepSpec::new("collect-resume").with_wavelengths(vec![1, 2]);
        // First run (nothing recorded yet) is fine and collects everything.
        let first = ExploreSession::new(&spec)
            .checkpoint(&ckpt)
            .run_collect()
            .unwrap();
        assert_eq!(first.records.len(), 2);
        let err = ExploreSession::new(&spec)
            .checkpoint(&ckpt)
            .run_collect()
            .unwrap_err();
        assert!(err.to_string().contains("run_collect would skip"));
        // run() remains the supported resume path.
        let rerun = ExploreSession::new(&spec).checkpoint(&ckpt).run().unwrap();
        assert_eq!(rerun.skipped_points, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_checkpoint_for_a_different_sweep_is_rejected() {
        let dir = scratch("ckpt-mismatch");
        let ckpt = dir.join("sweep.ckpt");
        let spec = SweepSpec::new("a").with_wavelengths(vec![1, 2]);
        ExploreSession::new(&spec).checkpoint(&ckpt).run().unwrap();
        // Different spec content → refuse; different chunk size → refuse.
        let other = SweepSpec::new("b").with_wavelengths(vec![1, 2]);
        assert!(ExploreSession::new(&other).checkpoint(&ckpt).run().is_err());
        assert!(ExploreSession::new(&spec)
            .chunk_size(1)
            .checkpoint(&ckpt)
            .run()
            .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
