//! Sidecar checkpoint files: durable per-shard sweep outcomes.
//!
//! A checkpoint is a JSON-lines file next to a sweep's outputs. The first
//! line is a [`CheckpointHeader`] binding the file to one spec (by content
//! fingerprint), one shard size and one error policy; every following line is
//! a [`ShardCheckpoint`] appended after that shard's cache entries and sink
//! output were flushed. Because lines are appended in shard order and only
//! after the shard is durable, the file is always a consistent prefix of the
//! sweep — an interrupted run leaves a checkpoint that says exactly which
//! shards are done, how many records were emitted, and which points failed.
//!
//! Resuming ([`Checkpoint::resume`]) replays that prefix: completed shards
//! are skipped outright (no cache reads, no re-simulation, no sink output)
//! and their recorded [failures](CheckpointFailure) are surfaced again
//! without being re-attempted — the `--keep-going` story the result cache
//! alone cannot provide, since failures never enter the cache.
//!
//! A torn trailing line (writer killed mid-append) is truncated away on
//! resume; a header that does not match the spec/shard size being resumed is
//! an [`ExploreError::Checkpoint`], because silently restarting would
//! duplicate output records.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::cache::fnv1a64;
use crate::error::{ExploreError, Result};
use crate::spec::SweepSpec;

/// Format version of the checkpoint file. Version 2 added the
/// `cache_degraded` shard counter (the vendored serde has no field defaults,
/// so the new field is a format break; v1 files are rejected with a version
/// diagnostic instead of being misparsed as torn tails).
pub(crate) const CHECKPOINT_VERSION: u32 = 2;

/// The content fingerprint of a sweep spec, as recorded in checkpoint
/// headers: a stable hash of the spec's canonical JSON form. Two specs with
/// the same fingerprint expand to the same points in the same order.
pub fn spec_fingerprint(spec: &SweepSpec) -> String {
    let json = serde_json::to_string(spec).expect("specs always serialize");
    let salt = format!("ckpt-v{CHECKPOINT_VERSION}:");
    format!("{:016x}", fnv1a64(&[salt.as_bytes(), json.as_bytes()]))
}

/// First line of a checkpoint file: what sweep the shard lines describe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointHeader {
    /// Checkpoint format version.
    pub version: u32,
    /// [`spec_fingerprint`] of the sweep spec.
    pub spec_key: String,
    /// Effective points-per-shard the sweep ran with (shard boundaries must
    /// match for shard outcomes to be replayable).
    pub shard_size: usize,
    /// Total points in the expansion.
    pub total_points: usize,
    /// Whether the sweep ran under `ErrorPolicy::KeepGoing`.
    pub keep_going: bool,
}

/// One failing point recorded in a shard line. The simulator error is stored
/// as its rendered message — errors are replayed for reporting, never
/// re-thrown as live simulator state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointFailure {
    /// Zero-based index of the point in deterministic expansion order.
    pub index: usize,
    /// Human-readable description of the failing configuration.
    pub label: String,
    /// Rendered simulator error message.
    pub error: String,
}

/// One completed shard, appended to the checkpoint after the shard's cache
/// writes and sink output were flushed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardCheckpoint {
    /// Zero-based shard index.
    pub shard: usize,
    /// Points in this shard.
    pub points: usize,
    /// Cache hits in this shard.
    pub hits: usize,
    /// Points attempted (simulated) in this shard.
    pub misses: usize,
    /// Cumulative records emitted to the sink up to and including this shard
    /// — the exact number of durable output lines a line-oriented sink holds,
    /// which is what `simphony-cli resume` truncates a JSONL prefix to.
    pub emitted: usize,
    /// Every point of this shard that failed.
    pub failures: Vec<CheckpointFailure>,
    /// Cache writes of this shard that exhausted their retry budget under
    /// `KeepGoing` and were skipped: the records still reached the sink, only
    /// the cache misses them (a re-run re-simulates those points).
    pub cache_degraded: usize,
}

/// An open checkpoint file: the parsed prefix of completed shards plus an
/// append handle for recording new ones.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    header: CheckpointHeader,
    completed: Vec<ShardCheckpoint>,
    file: fs::File,
}

/// Parses the checkpoint bytes into `(header, shard lines, valid byte len)`.
/// Only `\n`-terminated lines count; the first malformed or unterminated line
/// ends the valid prefix (a torn tail from a killed writer).
fn parse(text: &str) -> Result<Option<(CheckpointHeader, Vec<ShardCheckpoint>, usize)>> {
    let mut offset = 0usize;
    let mut header: Option<CheckpointHeader> = None;
    let mut completed = Vec::new();
    let mut valid_len = 0usize;
    while let Some(nl) = text[offset..].find('\n') {
        let line = &text[offset..offset + nl];
        if header.is_none() {
            let Ok(parsed) = serde_json::from_str::<CheckpointHeader>(line) else {
                return Err(ExploreError::checkpoint(
                    "first line is not a checkpoint header; not a checkpoint file?",
                ));
            };
            header = Some(parsed);
        } else {
            let Ok(shard) = serde_json::from_str::<ShardCheckpoint>(line) else {
                break; // Torn tail: keep the prefix parsed so far.
            };
            if shard.shard != completed.len() {
                return Err(ExploreError::checkpoint(format!(
                    "shard lines out of order: expected shard {}, found {}",
                    completed.len(),
                    shard.shard
                )));
            }
            completed.push(shard);
        }
        offset += nl + 1;
        valid_len = offset;
    }
    Ok(header.map(|h| (h, completed, valid_len)))
}

/// Renders a header mismatch naming exactly which fields diverged, so the
/// operator learns whether they passed the wrong spec, the wrong shard size,
/// or are holding a checkpoint from an older format.
fn header_mismatch(
    path: &Path,
    found: &CheckpointHeader,
    expected: &CheckpointHeader,
) -> ExploreError {
    let mut diverged = Vec::new();
    if found.version != expected.version {
        diverged.push(format!(
            "format version (checkpoint v{}, engine v{})",
            found.version, expected.version
        ));
    }
    if found.spec_key != expected.spec_key {
        diverged.push(format!(
            "spec fingerprint (checkpoint {}, current spec {})",
            found.spec_key, expected.spec_key
        ));
    }
    if found.shard_size != expected.shard_size {
        diverged.push(format!(
            "shard size (checkpoint {} points/shard, requested {})",
            found.shard_size, expected.shard_size
        ));
    }
    if found.total_points != expected.total_points {
        diverged.push(format!(
            "total points (checkpoint {}, current spec {})",
            found.total_points, expected.total_points
        ));
    }
    if found.keep_going != expected.keep_going {
        diverged.push(format!(
            "error policy (checkpoint keep_going={}, requested keep_going={})",
            found.keep_going, expected.keep_going
        ));
    }
    ExploreError::checkpoint(format!(
        "`{}` records a different sweep — diverging: {}; delete it to start over",
        path.display(),
        diverged.join("; "),
    ))
}

impl Checkpoint {
    /// Opens (or creates) the checkpoint at `path` for a sweep with the given
    /// expected header, resuming from whatever consistent prefix is already
    /// recorded. A torn trailing line is truncated away so future appends
    /// stay line-aligned.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Checkpoint`] when an existing file belongs to
    /// a different spec, shard size, point count or error policy (delete the
    /// file to start over), and propagates I/O errors.
    pub fn resume(path: impl Into<PathBuf>, expected: &CheckpointHeader) -> Result<Self> {
        let path = path.into();
        let existing = match fs::read_to_string(&path) {
            Ok(text) => parse(&text)?.map(|(h, c, len)| (h, c, len, text.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(ExploreError::io_at(&path, e)),
        };
        let completed = match existing {
            Some((header, completed, valid_len, file_len)) => {
                if header != *expected {
                    return Err(header_mismatch(&path, &header, expected));
                }
                if valid_len < file_len {
                    // Drop the torn tail so the next append starts a fresh line.
                    let file = fs::OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .map_err(|e| ExploreError::io_at(&path, e))?;
                    file.set_len(valid_len as u64)
                        .map_err(|e| ExploreError::io_at(&path, e))?;
                }
                completed
            }
            None => {
                let mut line = serde_json::to_string(expected)?;
                line.push('\n');
                fs::write(&path, line).map_err(|e| ExploreError::io_at(&path, e))?;
                Vec::new()
            }
        };
        let file = fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| ExploreError::io_at(&path, e))?;
        Ok(Self {
            path,
            header: expected.clone(),
            completed,
            file,
        })
    }

    /// Reads a checkpoint without binding it to a spec — how the CLI learns
    /// the shard size and error policy to resume with.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Checkpoint`] on a missing/invalid header and
    /// propagates I/O errors.
    pub fn load(path: impl AsRef<Path>) -> Result<(CheckpointHeader, Vec<ShardCheckpoint>)> {
        let path = path.as_ref();
        let text = fs::read_to_string(path).map_err(|e| ExploreError::io_at(path, e))?;
        match parse(&text)? {
            Some((header, completed, _)) => Ok((header, completed)),
            None => Err(ExploreError::checkpoint(format!(
                "`{}` holds no checkpoint header",
                path.display()
            ))),
        }
    }

    /// The header this checkpoint was opened with.
    pub fn header(&self) -> &CheckpointHeader {
        &self.header
    }

    /// The consistent prefix of shards already recorded as complete.
    pub fn completed(&self) -> &[ShardCheckpoint] {
        &self.completed
    }

    /// Cumulative records emitted by the completed prefix.
    pub fn emitted(&self) -> usize {
        self.completed.last().map_or(0, |s| s.emitted)
    }

    /// Appends (and flushes) one completed shard. Shards must be recorded in
    /// order, directly after the existing prefix.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; returns [`ExploreError::Checkpoint`] on an
    /// out-of-order shard (an executor bug, surfaced rather than corrupting
    /// the file).
    pub fn record_shard(&mut self, shard: ShardCheckpoint) -> Result<()> {
        if shard.shard != self.completed.len() {
            return Err(ExploreError::checkpoint(format!(
                "shard {} recorded out of order (expected {})",
                shard.shard,
                self.completed.len()
            )));
        }
        let mut line = serde_json::to_string(&shard)?;
        line.push('\n');
        // The checkpoint is the source of truth for what `resume` skips:
        // fsync the append so a recorded shard survives power loss, not just
        // process death (the sink was synced before this line was written).
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .and_then(|()| self.file.sync_all())
            .map_err(|e| ExploreError::io_at(&self.path, e))?;
        self.completed.push(shard);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("simphony-ckpt-{tag}-{}", std::process::id()))
    }

    fn header_for(spec: &SweepSpec) -> CheckpointHeader {
        CheckpointHeader {
            version: CHECKPOINT_VERSION,
            spec_key: spec_fingerprint(spec),
            shard_size: 2,
            total_points: 4,
            keep_going: true,
        }
    }

    fn shard_line(shard: usize, emitted: usize) -> ShardCheckpoint {
        ShardCheckpoint {
            shard,
            points: 2,
            hits: 0,
            misses: 2,
            emitted,
            failures: vec![CheckpointFailure {
                index: shard * 2,
                label: format!("point {}", shard * 2),
                error: "boom".to_string(),
            }],
            cache_degraded: 0,
        }
    }

    #[test]
    fn checkpoints_round_trip_and_resume_their_prefix() {
        let path = scratch("roundtrip");
        fs::remove_file(&path).ok();
        let spec = SweepSpec::new("ckpt").with_wavelengths(vec![1, 2, 3, 4]);
        let header = header_for(&spec);
        {
            let mut ckpt = Checkpoint::resume(&path, &header).unwrap();
            assert!(ckpt.completed().is_empty());
            ckpt.record_shard(shard_line(0, 1)).unwrap();
            ckpt.record_shard(shard_line(1, 2)).unwrap();
            assert_eq!(ckpt.emitted(), 2);
        }
        let resumed = Checkpoint::resume(&path, &header).unwrap();
        assert_eq!(resumed.completed().len(), 2);
        assert_eq!(resumed.completed()[1], shard_line(1, 2));
        let (loaded_header, loaded) = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded_header, header);
        assert_eq!(loaded.len(), 2);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn a_torn_tail_is_truncated_and_appends_stay_aligned() {
        let path = scratch("torn");
        fs::remove_file(&path).ok();
        let spec = SweepSpec::new("torn").with_wavelengths(vec![1, 2, 3, 4]);
        let header = header_for(&spec);
        {
            let mut ckpt = Checkpoint::resume(&path, &header).unwrap();
            ckpt.record_shard(shard_line(0, 1)).unwrap();
        }
        // Kill a writer mid-append: a partial second shard line.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"shard\":1,\"points\":2,");
        fs::write(&path, &text).unwrap();
        let mut ckpt = Checkpoint::resume(&path, &header).unwrap();
        assert_eq!(ckpt.completed().len(), 1, "torn line dropped");
        ckpt.record_shard(shard_line(1, 2)).unwrap();
        let (_, loaded) = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.len(), 2, "append after truncation parses cleanly");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_headers_and_out_of_order_shards_are_rejected() {
        let path = scratch("mismatch");
        fs::remove_file(&path).ok();
        let spec = SweepSpec::new("a").with_wavelengths(vec![1, 2, 3, 4]);
        let header = header_for(&spec);
        let mut ckpt = Checkpoint::resume(&path, &header).unwrap();
        assert!(ckpt.record_shard(shard_line(3, 1)).is_err());

        let other = SweepSpec::new("b").with_wavelengths(vec![1, 2, 3, 4]);
        assert_ne!(spec_fingerprint(&spec), spec_fingerprint(&other));
        let mut other_header = header_for(&other);
        other_header.shard_size = 2;
        let err = Checkpoint::resume(&path, &other_header).unwrap_err();
        assert!(err.to_string().contains("different sweep"));
        fs::remove_file(&path).ok();
    }

    /// One test arm per header field: the mismatch message must name exactly
    /// the field that diverged, with both values.
    #[test]
    fn header_mismatches_name_the_diverging_field() {
        let path = scratch("diverge");
        fs::remove_file(&path).ok();
        let spec = SweepSpec::new("diverge").with_wavelengths(vec![1, 2, 3, 4]);
        let header = header_for(&spec);
        drop(Checkpoint::resume(&path, &header).unwrap());

        let diverge = |mutate: &dyn Fn(&mut CheckpointHeader), needle: &str, absent: &str| {
            let mut expected = header.clone();
            mutate(&mut expected);
            let message = Checkpoint::resume(&path, &expected)
                .unwrap_err()
                .to_string();
            assert!(message.contains(needle), "missing `{needle}` in: {message}");
            assert!(
                !message.contains(absent),
                "`{absent}` wrongly reported in: {message}"
            );
        };
        diverge(
            &|h| h.spec_key = "feedfacefeedface".to_string(),
            "spec fingerprint (checkpoint",
            "shard size",
        );
        diverge(
            &|h| h.shard_size = 7,
            "shard size (checkpoint 2 points/shard, requested 7)",
            "spec fingerprint",
        );
        diverge(
            &|h| h.total_points = 9,
            "total points (checkpoint 4, current spec 9)",
            "shard size",
        );
        diverge(
            &|h| h.keep_going = false,
            "error policy (checkpoint keep_going=true, requested keep_going=false)",
            "total points",
        );
        diverge(
            &|h| h.version = CHECKPOINT_VERSION + 1,
            "format version (checkpoint v2, engine v3)",
            "error policy",
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn deeply_nested_lines_are_malformed_not_a_crash() {
        let deep = "[".repeat(200_000);
        // As the header: not a checkpoint file.
        let path = scratch("deep-header");
        fs::write(&path, format!("{deep}\n")).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("not a checkpoint header"), "{err}");
        fs::remove_file(&path).ok();

        // As a shard line: it ends the valid prefix like a torn tail, and
        // resume truncates it away.
        let path = scratch("deep-shard");
        fs::remove_file(&path).ok();
        let spec = SweepSpec::new("deep").with_wavelengths(vec![1, 2, 3, 4]);
        let header = header_for(&spec);
        {
            let mut ckpt = Checkpoint::resume(&path, &header).unwrap();
            ckpt.record_shard(shard_line(0, 1)).unwrap();
        }
        let prefix_len = fs::metadata(&path).unwrap().len();
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str(&deep);
        text.push('\n');
        fs::write(&path, &text).unwrap();
        let ckpt = Checkpoint::resume(&path, &header).unwrap();
        assert_eq!(ckpt.completed(), &[shard_line(0, 1)][..]);
        assert_eq!(fs::metadata(&path).unwrap().len(), prefix_len);
        fs::remove_file(&path).ok();
    }
}
