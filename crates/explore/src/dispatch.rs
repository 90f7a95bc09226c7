//! Computing shards in one process and merging them in another.
//!
//! A distributed sweep (`sweep --workers`) computes shards on socket-fed
//! worker daemons and merges them on the coordinator. Each shard travels as
//! a shard-local [`ShardCheckpoint`] meta plus its records, and the
//! coordinator merges them strictly in expansion order into the session's
//! sink, checkpointing as it goes. This module owns both ends:
//!
//! * [`compute_shard_part`] — computes one shard into a [`ComputedPart`]:
//!   the meta line and the pre-rendered record body (the exact bytes a
//!   [`JsonlSink`](crate::JsonlSink) would write — fresh records reuse the
//!   JSON the compute stage rendered). A worker daemon streams these bytes
//!   over its socket.
//! * [`merge_shard_source`] — the merge loop: checkpoint replay of
//!   already-recorded shards, then one `fetch(shard)` per remaining shard,
//!   sink emission and flush, checkpoint append (cumulative `emitted`) and
//!   progress reporting, through the same shard loop the local executor
//!   runs: the calling thread fetches, and a writer thread persists each
//!   merged part but the final one while the next is fetched. Output is
//!   byte-identical to a single-process run at any worker count, because
//!   every path feeds it the same deterministic bytes.

use std::ops::Range;

use crate::cache::CacheBackend;
use crate::checkpoint::{Checkpoint, ShardCheckpoint};
use crate::error::{ExploreError, Result};
use crate::record::SweepRecord;
use crate::retry::RetryPolicy;
use crate::runner::{
    compute_shard, write_through, ArtifactStore, ComputedShard, ErrorPolicy, ShardProgress,
    StreamOptions, StreamOutcome, SweepRun,
};
use crate::sink::RecordSink;
use crate::spec::SweepSpec;

/// One computed shard in its wire form: the shard-local meta and the
/// pre-rendered record body.
///
/// `body` is what follows the `part` frame of a `compute-shard` response:
/// one compact JSON document per record, each `\n`-terminated —
/// byte-identical to what a [`JsonlSink`](crate::JsonlSink) writes for the
/// same records, because fresh records reuse the JSON the compute stage
/// rendered.
#[derive(Debug, Clone)]
pub struct ComputedPart {
    /// Shard metadata with *shard-local* `emitted` (the merge loop
    /// accumulates the cumulative count for checkpoints).
    pub meta: ShardCheckpoint,
    /// The record lines: `meta.emitted` compact JSON documents, each ending
    /// in `\n`.
    pub body: String,
}

/// Computes one shard into its part form: the rendered body, with the
/// shard's cache writes around it (under `retry`, degrading on exhaustion
/// rather than failing — shard producers always run under `KeepGoing`).
///
/// This is the compute path behind `worker` daemons answering
/// `compute-shard` requests, so every worker produces identical bytes for a
/// given `(spec, shard range)`.
///
/// # Errors
///
/// Propagates spec-validation, simulation-engine and serialization errors.
pub fn compute_shard_part(
    spec: &SweepSpec,
    cache: Option<&dyn CacheBackend>,
    retry: RetryPolicy,
    shard: usize,
    points: Range<usize>,
    artifacts: &std::sync::Mutex<ArtifactStore>,
) -> Result<ComputedPart> {
    spec.validate()?;
    let (computed, _live_failures) =
        compute_shard(spec, cache, shard, points.start, points.end, artifacts)?;
    let ((body, emitted), cache_degraded) = write_through(
        cache,
        computed.slots,
        ErrorPolicy::KeepGoing,
        retry,
        |slots| {
            let mut body = String::new();
            let mut emitted = 0usize;
            for prepared in slots.iter().flatten() {
                match &prepared.json {
                    Some(json) => body.push_str(json),
                    None => body.push_str(&serde_json::to_string(&prepared.record)?),
                }
                body.push('\n');
                emitted += 1;
            }
            Ok((body, emitted))
        },
    )?;
    let meta = ShardCheckpoint {
        shard,
        points: computed.points,
        hits: computed.hits,
        misses: computed.points - computed.hits,
        emitted,
        failures: computed.checkpoint_failures,
        cache_degraded,
    };
    Ok(ComputedPart { meta, body })
}

/// The merge loop: replays checkpointed shards, then fetches every
/// remaining shard — strictly in expansion order, each exactly once — with
/// `fetch(shard)`, which blocks until that shard's shard-local meta and
/// records exist. Each shard goes into `sink`, flushed per shard and
/// checkpointed with *cumulative* `emitted`, as checkpoints require.
///
/// Output is byte-identical to a single-process run of the same spec: record
/// bytes are deterministic, and the merge order is the expansion order.
///
/// # Errors
///
/// Refuses non-[`KeepGoing`](ErrorPolicy::KeepGoing) policies (a fail-fast
/// abort cannot be propagated to independent shard producers); propagates
/// spec-validation, fetch, sink and checkpoint errors, and rejects a fetched
/// part labelled with a different shard.
pub fn merge_shard_source(
    spec: &SweepSpec,
    options: &StreamOptions,
    sink: &mut dyn RecordSink,
    progress: &mut dyn FnMut(&ShardProgress),
    checkpoint: Option<&mut Checkpoint>,
    fetch: &mut dyn FnMut(usize) -> Result<(ShardCheckpoint, Vec<SweepRecord>)>,
) -> Result<StreamOutcome> {
    if options.error_policy != ErrorPolicy::KeepGoing {
        return Err(ExploreError::invalid_spec(
            "merging from a shard source requires ErrorPolicy::KeepGoing: a fail-fast \
             abort cannot be propagated to independent shard producers, so the \
             combination is refused rather than half-honoured (add .keep_going() / \
             --keep-going)",
        ));
    }
    let mut merge = |shard: usize, _start: usize, _end: usize| {
        let (meta, records) = fetch(shard)?;
        if meta.shard != shard {
            return Err(ExploreError::checkpoint(format!(
                "fetched shard {} metadata when shard {shard} was requested",
                meta.shard
            )));
        }
        Ok(ComputedShard::from_part(meta, records))
    };
    SweepRun::start(spec, None, options, checkpoint.as_deref(), progress)?
        .run(&mut merge, sink, progress, checkpoint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;

    /// A part's meta and its body parsed back into records — what the
    /// distributed coordinator hands the merge loop.
    fn parsed(part: &ComputedPart) -> (ShardCheckpoint, Vec<SweepRecord>) {
        let records = part
            .body
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        (part.meta.clone(), records)
    }

    #[test]
    fn merge_pulls_shards_in_order_and_matches_the_direct_run() {
        let spec = SweepSpec::new("seam").with_wavelengths(vec![1, 2, 4, 8]);
        let artifacts = std::sync::Mutex::new(ArtifactStore::default());
        let parts: Vec<ComputedPart> = (0..2)
            .map(|shard| {
                compute_shard_part(
                    &spec,
                    None,
                    RetryPolicy::none(),
                    shard,
                    shard * 2..shard * 2 + 2,
                    &artifacts,
                )
                .unwrap()
            })
            .collect();
        let direct = crate::ExploreSession::new(&spec).run_collect().unwrap();
        // The part body is the exact JSONL rendering of its records.
        for (shard, part) in parts.iter().enumerate() {
            let rendered: String = direct.records[shard * 2..shard * 2 + 2]
                .iter()
                .map(|r| serde_json::to_string(r).unwrap() + "\n")
                .collect();
            assert_eq!(part.body, rendered);
            assert_eq!(part.meta.emitted, 2);
        }
        let mut asked = Vec::new();
        let mut sink = VecSink::new();
        let options = StreamOptions::chunked(2).keep_going();
        let outcome = merge_shard_source(
            &spec,
            &options,
            &mut sink,
            &mut |_| {},
            None,
            &mut |shard| {
                asked.push(shard);
                Ok(parsed(&parts[shard]))
            },
        )
        .unwrap();
        assert_eq!(asked, vec![0, 1], "strictly in expansion order");
        assert_eq!(outcome.total_points, 4);
        assert_eq!(sink.records(), &direct.records[..]);
    }

    #[test]
    fn merge_refuses_fail_fast() {
        let spec = SweepSpec::new("seam-ff").with_wavelengths(vec![1]);
        let mut sink = VecSink::new();
        let err = merge_shard_source(
            &spec,
            &StreamOptions::default(),
            &mut sink,
            &mut |_| {},
            None,
            &mut |_| unreachable!("a refused merge fetches nothing"),
        )
        .unwrap_err();
        assert!(err.to_string().contains("KeepGoing"), "{err}");
    }

    #[test]
    fn merge_rejects_mislabeled_parts() {
        let spec = SweepSpec::new("seam-mislabel").with_wavelengths(vec![1, 2]);
        let artifacts = std::sync::Mutex::new(ArtifactStore::default());
        let part =
            compute_shard_part(&spec, None, RetryPolicy::none(), 1, 0..2, &artifacts).unwrap();
        let mut sink = VecSink::new();
        // Asked for shard 0, serves shard-1-labeled metadata.
        let err = merge_shard_source(
            &spec,
            &StreamOptions::chunked(2).keep_going(),
            &mut sink,
            &mut |_| {},
            None,
            &mut |_| Ok(parsed(&part)),
        )
        .unwrap_err();
        assert!(err.to_string().contains("shard 1 metadata"), "{err}");
    }

    /// Every shard of `spec` at `chunk` points per shard, computed as parts.
    fn parts_of(spec: &SweepSpec, chunk: usize) -> Vec<ComputedPart> {
        let total = spec.point_count().unwrap();
        let artifacts = std::sync::Mutex::new(ArtifactStore::default());
        (0..total.div_ceil(chunk))
            .map(|shard| {
                let points = shard * chunk..((shard + 1) * chunk).min(total);
                compute_shard_part(spec, None, RetryPolicy::none(), shard, points, &artifacts)
                    .unwrap()
            })
            .collect()
    }

    /// A fresh checkpoint for `spec` under `options`, and its path.
    fn fresh_checkpoint(
        tag: &str,
        spec: &SweepSpec,
        options: &StreamOptions,
    ) -> (std::path::PathBuf, Checkpoint) {
        let path = std::env::temp_dir().join(format!(
            "simphony-dispatch-{tag}-{}.ckpt",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let header = crate::checkpoint::CheckpointHeader::for_sweep(
            spec,
            options,
            spec.point_count().unwrap(),
        );
        let checkpoint = Checkpoint::resume(&path, &header).unwrap();
        (path, checkpoint)
    }

    #[test]
    fn merge_replays_checkpointed_shards_without_fetching_them() {
        let spec = SweepSpec::new("seam-replay").with_wavelengths(vec![1, 2, 4, 8]);
        let options = StreamOptions::chunked(2).keep_going();
        let parts = parts_of(&spec, 2);
        let direct = crate::ExploreSession::new(&spec).run_collect().unwrap();
        let (path, mut checkpoint) = fresh_checkpoint("replay", &spec, &options);
        // An interrupted merge got as far as shard 0.
        checkpoint.record_shard(parts[0].meta.clone()).unwrap();

        let mut asked = Vec::new();
        let mut seen = Vec::new();
        let mut sink = VecSink::new();
        let outcome = merge_shard_source(
            &spec,
            &options,
            &mut sink,
            &mut |p| seen.push((p.shard, p.skipped)),
            Some(&mut checkpoint),
            &mut |shard| {
                asked.push(shard);
                Ok(parsed(&parts[shard]))
            },
        )
        .unwrap();
        assert_eq!(
            asked,
            vec![1],
            "the recorded shard is replayed, not fetched"
        );
        assert_eq!(seen, vec![(0, 2), (1, 0)]);
        assert_eq!(outcome.skipped_points, 2);
        assert_eq!(outcome.stats.misses, 2, "only shard 1 was merged");
        assert_eq!(sink.records(), &direct.records[2..]);
        // The part carries shard-local `emitted`; the checkpoint, cumulative.
        assert_eq!(parts[1].meta.emitted, 2);
        assert_eq!(checkpoint.completed()[1].emitted, 4);

        // Against the full checkpoint nothing is fetched or emitted.
        let mut sink = VecSink::new();
        let outcome = merge_shard_source(
            &spec,
            &options,
            &mut sink,
            &mut |_| {},
            Some(&mut checkpoint),
            &mut |_| unreachable!("every shard is recorded"),
        )
        .unwrap();
        assert_eq!(outcome.skipped_points, 4);
        assert!(sink.records().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failed_fetch_stops_the_merge_with_the_merged_prefix_checkpointed() {
        let spec = SweepSpec::new("seam-fetch-fails")
            .with_wavelengths(vec![1, 2, 4])
            .with_bitwidth(vec![4, 8]);
        let options = StreamOptions::chunked(2).keep_going();
        let parts = parts_of(&spec, 2);
        let (path, mut checkpoint) = fresh_checkpoint("fetch-fails", &spec, &options);
        let mut asked = Vec::new();
        let mut sink = VecSink::new();
        let err = merge_shard_source(
            &spec,
            &options,
            &mut sink,
            &mut |_| {},
            Some(&mut checkpoint),
            &mut |shard| {
                asked.push(shard);
                if shard == 1 {
                    return Err(ExploreError::connection_lost("w:1", "fleet gone"));
                }
                Ok(parsed(&parts[shard]))
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("fleet gone"), "{err}");
        assert_eq!(asked, vec![0, 1], "nothing is fetched past the failure");
        assert_eq!(sink.records().len(), 2, "shard 0 reached the sink");
        drop(checkpoint);
        let (_, recorded) = Checkpoint::load(&path).unwrap();
        assert_eq!(recorded, vec![parts[0].meta.clone()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn both_executors_refuse_a_checkpoint_with_more_shards_than_the_sweep() {
        let spec = SweepSpec::new("seam-bound").with_wavelengths(vec![1, 2, 4, 8]);
        // Written at one point per shard: four shards recorded.
        let per_point = StreamOptions::chunked(1).keep_going();
        let (path, mut checkpoint) = fresh_checkpoint("bound", &spec, &per_point);
        for (shard, part) in parts_of(&spec, 1).into_iter().enumerate() {
            let mut meta = part.meta;
            meta.emitted = shard + 1;
            checkpoint.record_shard(meta).unwrap();
        }
        // Handed to a run of two shards, it is refused before any work.
        let options = StreamOptions::chunked(2).keep_going();
        let expected = "checkpoint records 4 shards but the sweep only has 2";
        let err = merge_shard_source(
            &spec,
            &options,
            &mut VecSink::new(),
            &mut |_| {},
            Some(&mut checkpoint),
            &mut |_| unreachable!("a refused merge fetches nothing"),
        )
        .unwrap_err();
        assert!(err.to_string().contains(expected), "{err}");
        let artifacts = std::sync::Mutex::new(ArtifactStore::default());
        let err = crate::runner::execute(
            &spec,
            None,
            &options,
            &mut VecSink::new(),
            &mut |_| {},
            Some(&mut checkpoint),
            &artifacts,
        )
        .unwrap_err();
        assert!(err.to_string().contains(expected), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
