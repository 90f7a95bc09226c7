//! Content-addressed result caches and the [`CacheBackend`] storage trait.
//!
//! Every simulated point is stored under a key derived from the *content* of
//! its configuration — architecture parameters, workload selector,
//! quantisation/pruning, dataflow, awareness, clock and seed — so re-running
//! the same spec, or a different spec that overlaps it, skips every point
//! that has already been simulated. The sweep-internal `index` is explicitly
//! excluded from the key: the same configuration at a different position in a
//! different sweep is still the same simulation.
//!
//! Storage is pluggable behind the object-safe [`CacheBackend`] trait; three
//! implementations ship with the crate:
//!
//! * [`DirCache`] — one `<key>.json` file per entry in a flat directory, the
//!   original layout (and still the default). Entry files are bit-identical
//!   to what the engine has always written. Simple and `grep`-able, but a
//!   million-entry sweep turns the directory itself into the bottleneck.
//! * [`ShardedDirCache`] — the same one-file-per-entry format fanned out into
//!   256 subdirectories named by the first key byte (`ab/<key>.json`), so no
//!   single directory grows past ~1/256 of the entry count.
//! * [`PackedSegmentCache`] — append-only segment files plus an in-memory
//!   index: writes buffer in memory and [`flush`](CacheBackend::flush)
//!   publishes them as one immutable segment via the same
//!   stage-then-atomic-rename primitive the directory caches use for single
//!   entries. Three orders of magnitude fewer inodes at millions of points.
//!
//! All three store the same `SweepRecord` JSON under the same content keys,
//! so [`migrate_cache`] can round-trip a cache between backends and
//! [`BackendKind::detect`] can tell the layouts apart on disk.

use std::collections::HashMap;
use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::error::{ExploreError, Result};
use crate::record::SweepRecord;
use crate::spec::SweepPoint;

/// Bump when the record schema or simulator semantics change incompatibly;
/// old cache entries then stop matching instead of serving stale shapes.
const CACHE_SCHEMA_VERSION: u32 = 1;

/// Stable FNV-1a 64-bit hash (not `DefaultHasher`, whose output may change
/// across Rust releases — cache directories outlive toolchains).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// The content key of a sweep point: a hex digest of its canonical JSON form
/// with the positional `index` zeroed out.
///
/// The point is serialized through its value tree and the `index` entry is
/// pinned there — same bytes (and therefore the same keys as ever) as cloning
/// the point and zeroing the field, without copying the whole configuration.
pub fn content_key(point: &SweepPoint) -> String {
    use serde::{Serialize, Value};
    let mut value = point.to_value();
    if let Value::Map(entries) = &mut value {
        for (field, slot) in entries.iter_mut() {
            if field == "index" {
                *slot = Value::UInt(0);
            }
        }
    }
    let json = serde_json::to_string(&value).expect("points always serialize");
    format!(
        "{:016x}",
        fnv1a64(format!("v{CACHE_SCHEMA_VERSION}:{json}").as_bytes())
    )
}

/// Hit/miss counters reported after a sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Points served from the cache without simulating.
    pub hits: usize,
    /// Points that had to be simulated.
    pub misses: usize,
}

/// Size accounting of a cache backend, reported by
/// [`CacheBackend::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Number of complete entries durably stored on disk. In-flight staged
    /// writes (a packed batch buffered before `flush` publishes its
    /// segment) are *not* counted: `cache stats` reporting must describe
    /// what would survive a crash, and a distributed worker polled
    /// mid-shard would otherwise report entries that do not exist yet.
    /// [`CacheBackend::len`] is the read-visibility count and does include
    /// them, since `get` already serves staged entries.
    pub entries: usize,
    /// Bytes of published (durable) cache data on disk.
    pub bytes: u64,
    /// Published segment files ([`PackedSegmentCache`] only; the directory
    /// backends have no segments and report 0).
    pub segments: usize,
    /// Stored lines shadowed by a later write under the same content key —
    /// dead bytes a `cache compact` would reclaim ([`PackedSegmentCache`]
    /// only; the directory backends overwrite in place and report 0).
    pub shadowed: usize,
}

/// Object-safe storage interface of the sweep result cache.
///
/// A backend maps [content keys](content_key) to [`SweepRecord`]s. The
/// executor only ever calls [`get`](Self::get), [`put`](Self::put) and
/// [`flush`](Self::flush); the remaining methods serve tooling
/// (`cache stats`, `cache migrate`). All methods take `&self` — backends are
/// internally synchronized so one cache can be shared across executor
/// threads.
pub trait CacheBackend: Send + Sync {
    /// Looks up the record cached for `point`, if any.
    ///
    /// A corrupt or unreadable entry is treated as a miss rather than an
    /// error, so a damaged cache degrades to re-simulation. Implementations
    /// compare the stored configuration against the queried one, so a hash
    /// collision (or an entry copied under the wrong key) also degrades to a
    /// miss instead of returning another configuration's metrics.
    fn get(&self, point: &SweepPoint) -> Option<SweepRecord>;

    /// Looks up every point of a batch at once, returning **exactly one**
    /// slot per input point, in input order (`Some` for hits, `None` for
    /// misses) — the executor asserts the arity, since a short result would
    /// otherwise silently drop points from the sweep.
    ///
    /// The default implementation fans the individual [`get`](Self::get)s out
    /// over the thread pool — backends are `Sync`, so lookups are pure
    /// concurrent reads. A warm sweep's hot path is exactly this call: a
    /// shard's worth of cache reads that used to run single-threaded. Override
    /// only when a backend can batch more cleverly (e.g. one lock acquisition
    /// for an in-memory index); the results must be identical to per-point
    /// `get`s.
    fn get_batch(&self, points: &[&SweepPoint]) -> Vec<Option<SweepRecord>> {
        points.par_iter().map(|point| self.get(point)).collect()
    }

    /// Stores the record for its point.
    ///
    /// Directory backends publish the entry durably before returning; the
    /// packed backend may buffer it until the next [`flush`](Self::flush).
    /// Either way a later [`get`](Self::get) through the same handle sees it.
    ///
    /// # Errors
    ///
    /// Propagates file-system and serialization errors.
    fn put(&self, record: &SweepRecord) -> Result<()>;

    /// Stores a record whose JSON rendering the caller already computed:
    /// `key` must be [`content_key`]`(&record.point)` and `json` must be
    /// `serde_json::to_string(record)` — the executor's compute stage renders
    /// both on the worker threads, so the I/O stage never pays for
    /// serialization. The default implementation ignores the pre-rendered
    /// form and falls back to [`put`](Self::put), so third-party backends
    /// stay correct without opting in.
    ///
    /// # Errors
    ///
    /// Propagates file-system and serialization errors.
    fn put_serialized(&self, key: &str, json: &str, record: &SweepRecord) -> Result<()> {
        let _ = (key, json);
        self.put(record)
    }

    /// Number of distinct entries currently stored (published or pending).
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    fn len(&self) -> Result<usize>;

    /// Whether the cache holds no entries.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Entry-count and on-disk-byte accounting.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    fn stats(&self) -> Result<BackendStats>;

    /// Publishes buffered entries durably. A no-op for backends that write
    /// through on [`put`](Self::put); the streaming executor calls this at
    /// every shard boundary *before* the shard is checkpointed, so a
    /// checkpointed shard's successes are always re-readable.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    fn flush(&self) -> Result<()> {
        Ok(())
    }

    /// Visits every readable entry as `(content_key, record)`, in unspecified
    /// order. Corrupt entries are skipped, mirroring [`get`](Self::get)'s
    /// degrade-to-miss contract. Used by [`migrate_cache`] and `cache stats`.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors and errors returned by `visit`.
    fn scan(&self, visit: &mut dyn FnMut(String, SweepRecord) -> Result<()>) -> Result<()>;
}

/// A shared handle to a backend is itself a backend, delegating every method
/// (including the overridable ones, so the inner backend's batch and
/// pre-serialized fast paths stay in effect). This is what lets a server hold
/// one `Arc<dyn CacheBackend>` and hand clones to concurrently-running
/// sessions without re-opening the store per connection.
impl<T: CacheBackend + ?Sized> CacheBackend for Arc<T> {
    fn get(&self, point: &SweepPoint) -> Option<SweepRecord> {
        (**self).get(point)
    }

    fn get_batch(&self, points: &[&SweepPoint]) -> Vec<Option<SweepRecord>> {
        (**self).get_batch(points)
    }

    fn put(&self, record: &SweepRecord) -> Result<()> {
        (**self).put(record)
    }

    fn put_serialized(&self, key: &str, json: &str, record: &SweepRecord) -> Result<()> {
        (**self).put_serialized(key, json, record)
    }

    fn len(&self) -> Result<usize> {
        (**self).len()
    }

    fn is_empty(&self) -> Result<bool> {
        (**self).is_empty()
    }

    fn stats(&self) -> Result<BackendStats> {
        (**self).stats()
    }

    fn flush(&self) -> Result<()> {
        (**self).flush()
    }

    fn scan(&self, visit: &mut dyn FnMut(String, SweepRecord) -> Result<()>) -> Result<()> {
        (**self).scan(visit)
    }
}

/// Reads one `<key>.json` entry file, verifying it against the queried point.
fn read_entry_file(path: &Path, point: &SweepPoint) -> Option<SweepRecord> {
    let text = fs::read_to_string(path).ok()?;
    let mut record: SweepRecord = serde_json::from_str(&text).ok()?;
    // Restore the sweep-local position; the stored one belongs to the
    // sweep that populated the cache.
    record.point.index = point.index;
    if record.point != *point {
        return None;
    }
    Some(record)
}

/// Writes `record` as `<dir>/<key>.json` via a process-unique temp file and an
/// atomic rename, so an interrupted writer can never leave a truncated entry
/// behind and concurrent sweeps sharing a directory only ever observe absent
/// or complete entries. (A plain `fs::write` truncates in place — a reader
/// racing it, or a crash mid-write, would see a corrupt file that `get` then
/// treats as a permanent miss.)
fn write_entry_file(dir: &Path, key: &str, record: &SweepRecord) -> Result<()> {
    write_entry_bytes(dir, key, serde_json::to_string(record)?.as_bytes())
}

/// [`write_entry_file`] with the record already rendered to JSON — the
/// pre-serialized put path; entry bytes are identical either way.
fn write_entry_bytes(dir: &Path, key: &str, json: &[u8]) -> Result<()> {
    static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let path = dir.join(format!("{key}.json"));
    // Same directory as the final path, so the rename stays on one
    // filesystem (cross-device renames are not atomic, or fail outright).
    let tmp = dir.join(format!(
        "{key}.{}.{}.tmp",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    fs::write(&tmp, json).map_err(|e| ExploreError::io_at(&tmp, e))?;
    fs::rename(&tmp, &path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        ExploreError::io_at(&path, e)
    })?;
    Ok(())
}

/// Counts the regular `*.json` entry files directly inside `dir` and sums
/// their sizes. Stray files (staging `*.tmp` leftovers from a killed writer,
/// notes, subdirectories) are ignored — only complete record entries count.
fn dir_entry_stats(dir: &Path) -> Result<BackendStats> {
    let entries = fs::read_dir(dir).map_err(|e| ExploreError::io_at(dir, e))?;
    let mut stats = BackendStats::default();
    for entry in entries.filter_map(std::result::Result::ok) {
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "json")
            && entry.file_type().is_ok_and(|t| t.is_file())
        {
            stats.entries += 1;
            stats.bytes += entry.metadata().map_or(0, |m| m.len());
        }
    }
    Ok(stats)
}

/// Visits every readable `*.json` entry file directly inside `dir`, in
/// key-sorted order.
fn dir_scan(dir: &Path, visit: &mut dyn FnMut(String, SweepRecord) -> Result<()>) -> Result<()> {
    let entries = fs::read_dir(dir).map_err(|e| ExploreError::io_at(dir, e))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(std::result::Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json") && p.is_file())
        .collect();
    paths.sort();
    for path in paths {
        let Some(key) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        let Ok(record) = serde_json::from_str::<SweepRecord>(&text) else {
            continue;
        };
        visit(key.to_string(), record)?;
    }
    Ok(())
}

/// A flat directory of `<content-key>.json` record files — the original cache
/// layout, and the default backend.
///
/// Entry files are bit-identical to what every previous engine version wrote,
/// so existing cache directories keep working unchanged.
#[derive(Debug, Clone)]
pub struct DirCache {
    dir: PathBuf,
}

impl DirCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation errors.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| ExploreError::io_at(&dir, e))?;
        Ok(Self { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Looks up the record cached for `point`, if any (see
    /// [`CacheBackend::get`]).
    pub fn get(&self, point: &SweepPoint) -> Option<SweepRecord> {
        read_entry_file(&self.entry_path(&content_key(point)), point)
    }

    /// Stores the record for its point with an atomic stage-and-rename write
    /// (see [`CacheBackend::put`]).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn put(&self, record: &SweepRecord) -> Result<()> {
        write_entry_file(&self.dir, &content_key(&record.point), record)
    }

    /// Number of entries currently stored. Only regular `*.json` record files
    /// count: a staging `*.tmp` file left by a killed writer, or any other
    /// stray file or subdirectory, is ignored.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    pub fn len(&self) -> Result<usize> {
        Ok(dir_entry_stats(&self.dir)?.entries)
    }

    /// Whether the cache holds no entries.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

impl CacheBackend for DirCache {
    fn get(&self, point: &SweepPoint) -> Option<SweepRecord> {
        DirCache::get(self, point)
    }

    fn put(&self, record: &SweepRecord) -> Result<()> {
        DirCache::put(self, record)
    }

    fn put_serialized(&self, key: &str, json: &str, _record: &SweepRecord) -> Result<()> {
        write_entry_bytes(&self.dir, key, json.as_bytes())
    }

    fn len(&self) -> Result<usize> {
        DirCache::len(self)
    }

    fn stats(&self) -> Result<BackendStats> {
        dir_entry_stats(&self.dir)
    }

    fn scan(&self, visit: &mut dyn FnMut(String, SweepRecord) -> Result<()>) -> Result<()> {
        dir_scan(&self.dir, visit)
    }
}

/// A directory cache fanned out into 256 subdirectories by the first byte of
/// the content key (`<dir>/ab/<key>.json`).
///
/// Entry *files* are byte-identical to [`DirCache`]'s; only their placement
/// differs. At millions of entries a flat directory makes every lookup and
/// rename crawl through one huge directory index — the fan-out bounds each
/// subdirectory to ~1/256 of the total.
#[derive(Debug, Clone)]
pub struct ShardedDirCache {
    dir: PathBuf,
}

impl ShardedDirCache {
    /// Opens (creating if needed) a sharded cache directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation errors.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| ExploreError::io_at(&dir, e))?;
        Ok(Self { dir })
    }

    /// The cache root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The subdirectory a key lives in: named by its first two hex digits
    /// (one key byte), so keys spread uniformly over 256 buckets.
    fn bucket(&self, key: &str) -> PathBuf {
        self.dir.join(&key[..2])
    }

    fn buckets(&self) -> Result<Vec<PathBuf>> {
        let entries = fs::read_dir(&self.dir).map_err(|e| ExploreError::io_at(&self.dir, e))?;
        let mut buckets: Vec<PathBuf> = entries
            .filter_map(std::result::Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.is_dir()
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.len() == 2 && n.bytes().all(|b| b.is_ascii_hexdigit()))
            })
            .collect();
        buckets.sort();
        Ok(buckets)
    }
}

impl CacheBackend for ShardedDirCache {
    fn get(&self, point: &SweepPoint) -> Option<SweepRecord> {
        let key = content_key(point);
        read_entry_file(&self.bucket(&key).join(format!("{key}.json")), point)
    }

    fn put(&self, record: &SweepRecord) -> Result<()> {
        let key = content_key(&record.point);
        let bucket = self.bucket(&key);
        fs::create_dir_all(&bucket).map_err(|e| ExploreError::io_at(&bucket, e))?;
        write_entry_file(&bucket, &key, record)
    }

    fn put_serialized(&self, key: &str, json: &str, _record: &SweepRecord) -> Result<()> {
        let bucket = self.bucket(key);
        fs::create_dir_all(&bucket).map_err(|e| ExploreError::io_at(&bucket, e))?;
        write_entry_bytes(&bucket, key, json.as_bytes())
    }

    fn len(&self) -> Result<usize> {
        Ok(self.stats()?.entries)
    }

    fn stats(&self) -> Result<BackendStats> {
        let mut stats = BackendStats::default();
        for bucket in self.buckets()? {
            let bucket_stats = dir_entry_stats(&bucket)?;
            stats.entries += bucket_stats.entries;
            stats.bytes += bucket_stats.bytes;
        }
        Ok(stats)
    }

    fn scan(&self, visit: &mut dyn FnMut(String, SweepRecord) -> Result<()>) -> Result<()> {
        for bucket in self.buckets()? {
            dir_scan(&bucket, visit)?;
        }
        Ok(())
    }
}

/// One serialized line of a packed segment file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PackedEntry {
    key: String,
    record: SweepRecord,
}

/// Renders the segment line of one entry from the record's pre-rendered
/// compact JSON. Pinned by a test to be byte-identical to
/// `serde_json::to_string(&PackedEntry { key, record })`, so segment files
/// written through the pre-serialized path read back like any other.
fn packed_line(key: &str, record_json: &str) -> String {
    format!("{{\"key\":\"{key}\",\"record\":{record_json}}}")
}

/// An entry accepted but not yet published: its key plus its fully-rendered
/// segment line (serialization happens at `put`, on whatever thread called
/// it — the executor's worker threads — never at `flush`).
#[derive(Debug)]
struct PendingEntry {
    key: String,
    line: String,
}

/// Where a published entry lives: which segment file, and the byte range of
/// its line.
#[derive(Debug, Clone, Copy)]
struct EntryLoc {
    segment: usize,
    offset: u64,
    len: usize,
}

#[derive(Debug, Default)]
struct PackedState {
    /// Published entries: content key → location in a segment file.
    index: HashMap<String, EntryLoc>,
    /// Published segment files, in load/publication order.
    segments: Vec<PathBuf>,
    /// Total bytes of published segment data.
    segment_bytes: u64,
    /// Entries accepted but not yet published, in arrival order, with their
    /// segment lines already rendered.
    pending: Vec<PendingEntry>,
    /// `pending` keyed for reads, holding the latest value per key.
    pending_map: HashMap<String, SweepRecord>,
    /// Per-handle counter making segment file names unique.
    counter: u64,
    /// Published lines superseded by a later line under the same key —
    /// duplicates a future `cache compact` would drop.
    shadowed: usize,
}

/// An append-only packed cache: entries buffer in memory and
/// [`flush`](CacheBackend::flush) publishes each batch as one immutable
/// `seg-<pid>-<n>.pack` file (JSON lines, staged and atomically renamed into
/// place — the same primitive the directory caches use per entry, amortized
/// over a whole shard). An in-memory index maps content keys to byte ranges,
/// so [`get`](CacheBackend::get) is one `seek` + one bounded read.
///
/// Compared to one file per entry this needs ~3 orders of magnitude fewer
/// inodes and turns a shard's worth of `fsync`-heavy renames into a single
/// sequential write, at two costs: the index is built by scanning every
/// segment at [`open`](Self::open), and entries published by *another*
/// process after this handle opened are not visible to it (directory caches
/// see them live). An interrupted writer loses only its unflushed tail —
/// published segments are never modified.
#[derive(Debug)]
pub struct PackedSegmentCache {
    dir: PathBuf,
    state: Mutex<PackedState>,
}

impl PackedSegmentCache {
    /// Opens (creating if needed) a packed cache directory and indexes every
    /// `seg-*.pack` segment in it. A torn trailing line (from a writer killed
    /// mid-publish — only possible if the rename raced a crash) and malformed
    /// lines are skipped, mirroring the degrade-to-miss contract.
    ///
    /// # Errors
    ///
    /// Propagates directory and segment-read errors.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| ExploreError::io_at(&dir, e))?;
        let mut state = PackedState::default();
        let entries = fs::read_dir(&dir).map_err(|e| ExploreError::io_at(&dir, e))?;
        let mut segments: Vec<PathBuf> = entries
            .filter_map(std::result::Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.is_file()
                    && p.extension().is_some_and(|ext| ext == "pack")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("seg-"))
            })
            .collect();
        segments.sort();
        for path in segments {
            // Never reuse a live segment name: a reopened handle (same pid —
            // routine in containers) restarting its counter would otherwise
            // rename a new segment over an old one, destroying its entries.
            if let Some(counter) = path
                .file_stem()
                .and_then(|n| n.to_str())
                .and_then(|n| n.rsplit('-').next())
                .and_then(|c| c.parse::<u64>().ok())
            {
                state.counter = state.counter.max(counter);
            }
            let bytes = fs::read(&path).map_err(|e| ExploreError::io_at(&path, e))?;
            let segment = state.segments.len();
            let mut offset = 0usize;
            // Only lines terminated by '\n' count: an unterminated tail is a
            // torn write and is ignored.
            while let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') {
                let line = &bytes[offset..offset + nl];
                if let Ok(text) = std::str::from_utf8(line) {
                    if let Ok(entry) = serde_json::from_str::<PackedEntry>(text) {
                        let previous = state.index.insert(
                            entry.key,
                            EntryLoc {
                                segment,
                                offset: offset as u64,
                                len: line.len(),
                            },
                        );
                        if previous.is_some() {
                            state.shadowed += 1;
                        }
                    }
                }
                offset += nl + 1;
            }
            state.segment_bytes += bytes.len() as u64;
            state.segments.push(path);
        }
        Ok(Self {
            dir,
            state: Mutex::new(state),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of published segment files.
    pub fn segment_count(&self) -> usize {
        self.state.lock().expect("packed cache lock").segments.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PackedState> {
        self.state.lock().expect("packed cache lock")
    }
}

impl CacheBackend for PackedSegmentCache {
    fn get(&self, point: &SweepPoint) -> Option<SweepRecord> {
        let key = content_key(point);
        let state = self.lock();
        if let Some(record) = state.pending_map.get(&key) {
            let mut record = record.clone();
            record.point.index = point.index;
            return (record.point == *point).then_some(record);
        }
        let loc = *state.index.get(&key)?;
        let path = state.segments.get(loc.segment)?.clone();
        drop(state);
        let mut file = fs::File::open(path).ok()?;
        file.seek(SeekFrom::Start(loc.offset)).ok()?;
        let mut line = vec![0u8; loc.len];
        file.read_exact(&mut line).ok()?;
        let entry: PackedEntry = serde_json::from_str(std::str::from_utf8(&line).ok()?).ok()?;
        let mut record = entry.record;
        record.point.index = point.index;
        (entry.key == key && record.point == *point).then_some(record)
    }

    fn put(&self, record: &SweepRecord) -> Result<()> {
        let key = content_key(&record.point);
        let json = serde_json::to_string(record)?;
        self.put_serialized(&key, &json, record)
    }

    fn put_serialized(&self, key: &str, json: &str, record: &SweepRecord) -> Result<()> {
        let line = packed_line(key, json);
        let mut state = self.lock();
        state.pending.push(PendingEntry {
            key: key.to_string(),
            line,
        });
        state.pending_map.insert(key.to_string(), record.clone());
        Ok(())
    }

    fn len(&self) -> Result<usize> {
        let state = self.lock();
        let unpublished = state
            .pending_map
            .keys()
            .filter(|key| !state.index.contains_key(*key))
            .count();
        Ok(state.index.len() + unpublished)
    }

    fn stats(&self) -> Result<BackendStats> {
        let state = self.lock();
        // Durable entries only — the staged pending batch is visible to
        // `get`/`len` but has no segment yet, so it must not inflate the
        // size report (see [`BackendStats::entries`]).
        Ok(BackendStats {
            entries: state.index.len(),
            bytes: state.segment_bytes,
            segments: state.segments.len(),
            shadowed: state.shadowed,
        })
    }

    fn flush(&self) -> Result<()> {
        let mut state = self.lock();
        if state.pending.is_empty() {
            return Ok(());
        }
        // Concatenate the pre-rendered lines with per-line offsets, publish
        // them as one segment via stage + atomic rename, then move the batch
        // into the index. No serialization happens here — every line was
        // rendered at `put` time.
        let mut buffer = String::new();
        let mut locs: Vec<(String, u64, usize)> = Vec::with_capacity(state.pending.len());
        for entry in &state.pending {
            locs.push((entry.key.clone(), buffer.len() as u64, entry.line.len()));
            buffer.push_str(&entry.line);
            buffer.push('\n');
        }
        // `rename` silently replaces an existing file, so probe for a free
        // name (counter collisions are possible when another same-pid handle
        // published segments after this one opened).
        let path = loop {
            state.counter += 1;
            let candidate = self.dir.join(format!(
                "seg-{:010}-{:08}.pack",
                std::process::id(),
                state.counter
            ));
            if !candidate.exists() {
                break candidate;
            }
        };
        let tmp = self.dir.join(format!(
            "{}.tmp",
            path.file_name()
                .expect("segment paths always carry a file name")
                .to_string_lossy()
        ));
        // Write + fsync the staged segment before the rename publishes it:
        // `flush` is the durability boundary the checkpoint ordering relies
        // on (cache flush -> sink flush -> sink sync -> checkpoint append),
        // so a published segment must never point at bytes the kernel could
        // still lose to a power cut.
        let stage = || -> std::io::Result<()> {
            let mut file = fs::File::create(&tmp)?;
            use std::io::Write as _;
            file.write_all(buffer.as_bytes())?;
            file.sync_all()
        };
        stage().map_err(|e| {
            let _ = fs::remove_file(&tmp);
            ExploreError::io_at(&tmp, e)
        })?;
        fs::rename(&tmp, &path).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            ExploreError::io_at(&path, e)
        })?;
        let segment = state.segments.len();
        state.segments.push(path);
        state.segment_bytes += buffer.len() as u64;
        for (key, offset, len) in locs {
            let previous = state.index.insert(
                key,
                EntryLoc {
                    segment,
                    offset,
                    len,
                },
            );
            if previous.is_some() {
                state.shadowed += 1;
            }
        }
        state.pending.clear();
        state.pending_map.clear();
        Ok(())
    }

    fn scan(&self, visit: &mut dyn FnMut(String, SweepRecord) -> Result<()>) -> Result<()> {
        // Snapshot key → location under the lock, then read outside it so
        // `visit` can call back into the cache. Pending entries are parsed
        // back from their rendered lines — scan is a tooling path, and the
        // round-trip keeps the snapshot independent of the live maps. Unlike
        // a corrupt *published* entry (disk damage, degrades to a skip), a
        // pending line that fails to parse can only mean an out-of-contract
        // `put_serialized` — it would be flushed to a segment yet invisible
        // to migration, so surface it instead of silently dropping data.
        let (mut published, pending): (Vec<(String, EntryLoc)>, Vec<PackedEntry>) = {
            let state = self.lock();
            (
                state
                    .index
                    .iter()
                    .map(|(key, loc)| (key.clone(), *loc))
                    .collect(),
                state
                    .pending
                    .iter()
                    .filter(|entry| !state.index.contains_key(&entry.key))
                    .map(|entry| {
                        serde_json::from_str::<PackedEntry>(&entry.line).map_err(|e| {
                            ExploreError::cache(format!(
                                "pending entry `{}` holds an unparseable segment line \
                                 (malformed `put_serialized` JSON?): {e}",
                                entry.key
                            ))
                        })
                    })
                    .collect::<Result<Vec<_>>>()?,
            )
        };
        published.sort_by(|a, b| a.0.cmp(&b.0));
        for (key, loc) in published {
            let path = {
                let state = self.lock();
                state.segments.get(loc.segment).cloned()
            };
            let Some(path) = path else { continue };
            let Ok(mut file) = fs::File::open(&path) else {
                continue;
            };
            if file.seek(SeekFrom::Start(loc.offset)).is_err() {
                continue;
            }
            let mut line = vec![0u8; loc.len];
            if file.read_exact(&mut line).is_err() {
                continue;
            }
            let Ok(text) = std::str::from_utf8(&line) else {
                continue;
            };
            let Ok(entry) = serde_json::from_str::<PackedEntry>(text) else {
                continue;
            };
            visit(key, entry.record)?;
        }
        for entry in pending {
            visit(entry.key, entry.record)?;
        }
        Ok(())
    }
}

impl Drop for PackedSegmentCache {
    fn drop(&mut self) {
        // Best-effort publication of any tail the caller never flushed; a
        // failure here only costs cache warmth, never correctness.
        let _ = CacheBackend::flush(self);
    }
}

/// Which [`CacheBackend`] implementation a directory holds (or should hold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Flat one-file-per-entry layout ([`DirCache`]).
    Dir,
    /// First-key-byte fan-out layout ([`ShardedDirCache`]).
    Sharded,
    /// Append-only packed segments ([`PackedSegmentCache`]).
    Packed,
}

impl BackendKind {
    /// Every backend kind, in a stable order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Dir, BackendKind::Sharded, BackendKind::Packed];

    /// Short lowercase name (`dir`, `sharded`, `packed`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Dir => "dir",
            BackendKind::Sharded => "sharded",
            BackendKind::Packed => "packed",
        }
    }

    /// Parses a kind from its [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Guesses the backend a directory holds from its layout: `seg-*.pack`
    /// files mean [`Packed`](Self::Packed), two-hex-digit subdirectories mean
    /// [`Sharded`](Self::Sharded), anything else (including an empty or
    /// missing directory) defaults to [`Dir`](Self::Dir).
    pub fn detect(dir: impl AsRef<Path>) -> Self {
        Self::detect_existing(dir).unwrap_or(BackendKind::Dir)
    }

    /// Like [`detect`](Self::detect), but reports `None` when the directory
    /// holds no cache data at all (empty, missing, or only stray files) — the
    /// distinction callers need to tell "fresh cache, any layout is fine"
    /// from "existing cache in a *different* layout", where opening with the
    /// wrong backend would miss every entry and fork the directory into a
    /// mixed layout.
    pub fn detect_existing(dir: impl AsRef<Path>) -> Option<Self> {
        let entries = fs::read_dir(dir.as_ref()).ok()?;
        let mut holds_flat_entries = false;
        for entry in entries.filter_map(std::result::Result::ok) {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if path.is_file() && name.starts_with("seg-") && name.ends_with(".pack") {
                return Some(BackendKind::Packed);
            }
            if path.is_dir() && name.len() == 2 && name.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Some(BackendKind::Sharded);
            }
            if path.is_file() && name.ends_with(".json") {
                holds_flat_entries = true;
            }
        }
        holds_flat_entries.then_some(BackendKind::Dir)
    }

    /// Opens `dir` as this kind of backend.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and segment-indexing errors.
    pub fn open(self, dir: impl Into<PathBuf>) -> Result<Box<dyn CacheBackend>> {
        Ok(match self {
            BackendKind::Dir => Box::new(DirCache::open(dir)?),
            BackendKind::Sharded => Box::new(ShardedDirCache::open(dir)?),
            BackendKind::Packed => Box::new(PackedSegmentCache::open(dir)?),
        })
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Copies every entry of `from` into `to`, verifying content keys on both
/// sides, and returns the number of entries migrated.
///
/// Each source entry's stored key is checked against the
/// [`content_key`] recomputed from its record (catching entries filed under
/// the wrong name); after all entries are published to `to` it is flushed and
/// a second pass reads every record back from the target and compares it
/// (catching a lossy target). The migration *streams* — entries are visited
/// one at a time through [`CacheBackend::scan`] and a buffering target is
/// flushed every few thousand entries, so million-entry caches (the reason
/// the sharded/packed backends exist) migrate in bounded memory. Each backend
/// scans in key-sorted order, so migrations are deterministic.
///
/// # Errors
///
/// Returns [`ExploreError::Cache`] on a key mismatch, a read-back failure, or
/// a source that changed size between the copy and verify passes, and
/// propagates I/O errors from either backend.
pub fn migrate_cache(from: &dyn CacheBackend, to: &dyn CacheBackend) -> Result<usize> {
    // Flush the target in batches: a buffering backend (packed) would
    // otherwise hold the entire source cache in pending memory until the end.
    const FLUSH_EVERY: usize = 4096;
    let mut moved = 0usize;
    from.scan(&mut |key, record| {
        let expected = content_key(&record.point);
        if key != expected {
            return Err(ExploreError::cache(format!(
                "entry stored under key `{key}` hashes to `{expected}`; \
                 refusing to migrate a corrupt cache"
            )));
        }
        to.put(&record)?;
        moved += 1;
        if moved.is_multiple_of(FLUSH_EVERY) {
            to.flush()?;
        }
        Ok(())
    })?;
    to.flush()?;
    let mut verified = 0usize;
    from.scan(&mut |key, record| {
        let back = to.get(&record.point).ok_or_else(|| {
            ExploreError::cache(format!(
                "entry `{key}` is unreadable from the target backend after migration"
            ))
        })?;
        if back != record {
            return Err(ExploreError::cache(format!(
                "entry `{key}` round-tripped with different contents"
            )));
        }
        verified += 1;
        Ok(())
    })?;
    if verified != moved {
        return Err(ExploreError::cache(format!(
            "source cache changed during migration: {moved} entries copied, {verified} verified"
        )));
    }
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use std::collections::BTreeMap;

    fn scratch(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "simphony-cache-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record_for(point: SweepPoint, energy_uj: f64) -> SweepRecord {
        SweepRecord {
            point,
            energy_uj,
            cycles: 100,
            time_ms: 0.5,
            power_w: 1.0,
            area_mm2: 0.8,
            edp_uj_ms: energy_uj * 0.5,
            glb_blocks: 2,
            energy_by_kind_uj: BTreeMap::from([("ADC".to_string(), energy_uj / 2.0)]),
        }
    }

    fn sample_records(n: usize) -> Vec<SweepRecord> {
        let spec = SweepSpec::new("cache-samples")
            .with_wavelengths((1..=n.max(1)).collect::<Vec<_>>())
            .with_bitwidth(vec![8]);
        spec.expand()
            .unwrap()
            .into_iter()
            .take(n)
            .enumerate()
            .map(|(i, p)| record_for(p, 1.0 + i as f64))
            .collect()
    }

    #[test]
    fn key_ignores_index_but_not_configuration() {
        let spec = SweepSpec::new("k").with_wavelengths(vec![1, 2]);
        let points = spec.expand().unwrap();
        let mut moved = points[0].clone();
        moved.index = 99;
        assert_eq!(content_key(&points[0]), content_key(&moved));
        assert_ne!(content_key(&points[0]), content_key(&points[1]));
    }

    #[test]
    fn concurrent_writers_and_readers_never_see_a_torn_entry() {
        let dir = scratch("atomic");
        let cache = DirCache::open(&dir).unwrap();
        let point = SweepSpec::new("atomic").expand().unwrap().remove(0);
        let record = record_for(point.clone(), 1.25);

        // Seed the entry, then hammer the same key from several writers while
        // readers poll it. Renames replace the entry atomically, so every
        // read must observe a complete record — a torn file would surface as
        // `get` returning `None` (corrupt entries degrade to misses).
        cache.put(&record).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        cache.put(&record).unwrap();
                    }
                });
            }
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        let got = cache
                            .get(&point)
                            .expect("reader observed a torn or missing entry");
                        assert_eq!(got, record);
                    }
                });
            }
        });

        assert_eq!(cache.len().unwrap(), 1, "one key, one entry");
        // No staging leftovers: every temp file was renamed into place.
        let stray_tmp = fs::read_dir(&dir)
            .unwrap()
            .filter_map(std::result::Result::ok)
            .any(|e| e.path().extension().is_some_and(|ext| ext == "tmp"));
        assert!(!stray_tmp, "staging files must not outlive put()");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spliced_packed_lines_match_the_serde_rendering() {
        // The pre-serialized put path splices segment lines from the record's
        // compact JSON instead of serializing a `PackedEntry`; the bytes must
        // be indistinguishable or segment files would fork into two dialects.
        for record in sample_records(3) {
            let key = content_key(&record.point);
            let json = serde_json::to_string(&record).unwrap();
            let entry = PackedEntry {
                key: key.clone(),
                record: record.clone(),
            };
            assert_eq!(
                packed_line(&key, &json),
                serde_json::to_string(&entry).unwrap()
            );
        }
    }

    #[test]
    fn put_serialized_writes_the_same_bytes_as_put() {
        // Every backend: an entry stored through the pre-serialized fast path
        // must be byte-identical on disk to one stored through plain `put`.
        let records = sample_records(3);
        for kind in BackendKind::ALL {
            let plain_dir = scratch(&format!("preser-plain-{kind}"));
            let fast_dir = scratch(&format!("preser-fast-{kind}"));
            let plain = kind.open(&plain_dir).unwrap();
            let fast = kind.open(&fast_dir).unwrap();
            for record in &records {
                plain.put(record).unwrap();
                let key = content_key(&record.point);
                let json = serde_json::to_string(record).unwrap();
                fast.put_serialized(&key, &json, record).unwrap();
            }
            plain.flush().unwrap();
            fast.flush().unwrap();
            // Same entries readable, and the same bytes in every data file.
            for record in &records {
                assert_eq!(fast.get(&record.point).as_ref(), Some(record));
            }
            let collect = |dir: &Path| {
                let mut files: Vec<(String, Vec<u8>)> = Vec::new();
                let mut stack = vec![dir.to_path_buf()];
                while let Some(d) = stack.pop() {
                    for entry in fs::read_dir(&d).unwrap().filter_map(|e| e.ok()) {
                        let path = entry.path();
                        if path.is_dir() {
                            stack.push(path);
                        } else {
                            // Segment names embed a counter; compare contents.
                            files.push((
                                path.file_name().unwrap().to_string_lossy().into_owned(),
                                fs::read(&path).unwrap(),
                            ));
                        }
                    }
                }
                files.sort();
                files
            };
            let plain_files = collect(&plain_dir);
            let fast_files = collect(&fast_dir);
            assert_eq!(
                plain_files.iter().map(|(_, b)| b).collect::<Vec<_>>(),
                fast_files.iter().map(|(_, b)| b).collect::<Vec<_>>(),
                "{kind}: pre-serialized entries diverged from put()"
            );
            fs::remove_dir_all(&plain_dir).ok();
            fs::remove_dir_all(&fast_dir).ok();
        }
    }

    #[test]
    fn packed_scan_surfaces_an_out_of_contract_pending_line() {
        // `put_serialized` trusts the caller's pre-rendered JSON; if it is
        // not actually the record's rendering, the entry would be flushed to
        // a segment yet invisible to `scan` (and thus to `cache migrate`).
        // Scan must error instead of silently dropping buffered data.
        let dir = scratch("packed-bad-pending");
        let cache = PackedSegmentCache::open(&dir).unwrap();
        let record = sample_records(1).remove(0);
        let key = content_key(&record.point);
        cache
            .put_serialized(&key, "{\"not\": \"a record\"", &record)
            .unwrap();
        let err = CacheBackend::scan(&cache, &mut |_, _| Ok(())).unwrap_err();
        assert!(err.to_string().contains("unparseable segment line"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn get_batch_matches_per_point_gets() {
        let records = sample_records(6);
        for kind in BackendKind::ALL {
            let dir = scratch(&format!("batch-{kind}"));
            let cache = kind.open(&dir).unwrap();
            // Store every other record, so the batch mixes hits and misses.
            for record in records.iter().step_by(2) {
                cache.put(record).unwrap();
            }
            cache.flush().unwrap();
            let points: Vec<&SweepPoint> = records.iter().map(|r| &r.point).collect();
            let batch = cache.get_batch(&points);
            assert_eq!(batch.len(), records.len());
            for (i, (record, slot)) in records.iter().zip(&batch).enumerate() {
                assert_eq!(
                    slot.as_ref(),
                    cache.get(&record.point).as_ref(),
                    "{kind}: slot {i} diverged from get()"
                );
                assert_eq!(slot.is_some(), i % 2 == 0, "{kind}: slot {i} hit/miss");
            }
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn key_is_stable_across_processes() {
        // Pinned digest: changing it means every existing cache is invalidated,
        // which must be a deliberate CACHE_SCHEMA_VERSION bump instead.
        let point = SweepSpec::new("pin").expand().unwrap().remove(0);
        assert_eq!(content_key(&point).len(), 16);
        assert_eq!(content_key(&point), content_key(&point));
    }

    #[test]
    fn len_ignores_stray_tmp_files_and_subdirectories() {
        // A writer killed between staging and rename leaves `<key>.*.tmp`
        // behind; it must not count as an entry (and neither must any other
        // stray file, nor a directory that happens to end in `.json`).
        let dir = scratch("stray");
        let cache = DirCache::open(&dir).unwrap();
        let point = SweepSpec::new("stray").expand().unwrap().remove(0);
        cache.put(&record_for(point.clone(), 1.0)).unwrap();
        fs::write(dir.join("0123456789abcdef.4242.0.tmp"), "{\"torn\":").unwrap();
        fs::write(dir.join("notes.txt"), "not a record").unwrap();
        fs::create_dir_all(dir.join("subdir.json")).unwrap();
        assert_eq!(cache.len().unwrap(), 1, "only the real entry counts");
        assert!(!cache.is_empty().unwrap());
        let stats = CacheBackend::stats(&cache).unwrap();
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        // And the scan skips the strays too.
        let mut seen = Vec::new();
        CacheBackend::scan(&cache, &mut |key, _| {
            seen.push(key);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![content_key(&point)]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_cache_round_trips_under_first_byte_buckets() {
        let dir = scratch("sharded");
        let cache = ShardedDirCache::open(&dir).unwrap();
        let records = sample_records(4);
        for record in &records {
            CacheBackend::put(&cache, record).unwrap();
        }
        assert_eq!(CacheBackend::len(&cache).unwrap(), 4);
        for record in &records {
            assert_eq!(
                CacheBackend::get(&cache, &record.point).as_ref(),
                Some(record)
            );
            // The entry lives under its first-two-hex-digit bucket.
            let key = content_key(&record.point);
            assert!(dir.join(&key[..2]).join(format!("{key}.json")).is_file());
        }
        // Entry files are bit-identical to the flat layout's.
        let flat_dir = scratch("sharded-ref");
        let flat = DirCache::open(&flat_dir).unwrap();
        flat.put(&records[0]).unwrap();
        let key = content_key(&records[0].point);
        assert_eq!(
            fs::read(dir.join(&key[..2]).join(format!("{key}.json"))).unwrap(),
            fs::read(flat_dir.join(format!("{key}.json"))).unwrap(),
        );
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&flat_dir).ok();
    }

    #[test]
    fn packed_cache_serves_pending_and_published_entries() {
        let dir = scratch("packed");
        let records = sample_records(3);
        {
            let cache = PackedSegmentCache::open(&dir).unwrap();
            for record in &records[..2] {
                cache.put(record).unwrap();
            }
            // Pending entries are visible through the same handle pre-flush.
            assert_eq!(cache.get(&records[0].point).as_ref(), Some(&records[0]));
            assert_eq!(cache.len().unwrap(), 2);
            cache.flush().unwrap();
            assert_eq!(cache.segment_count(), 1);
            cache.put(&records[2]).unwrap();
            assert_eq!(cache.len().unwrap(), 3);
            cache.flush().unwrap();
            assert_eq!(cache.segment_count(), 2);
            // A flush with nothing pending publishes nothing.
            cache.flush().unwrap();
            assert_eq!(cache.segment_count(), 2);
        }
        // A fresh handle rebuilds the index from the segment files.
        let cache = PackedSegmentCache::open(&dir).unwrap();
        assert_eq!(cache.len().unwrap(), 3);
        for record in &records {
            assert_eq!(cache.get(&record.point).as_ref(), Some(record));
        }
        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 3);
        assert!(stats.bytes > 0);
        assert_eq!(stats.segments, 2);
        assert_eq!(stats.shadowed, 0, "no key was ever rewritten");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn packed_cache_counts_shadowed_rewrites() {
        let dir = scratch("packed-shadowed");
        let records = sample_records(2);
        {
            let cache = PackedSegmentCache::open(&dir).unwrap();
            cache.put(&records[0]).unwrap();
            cache.put(&records[1]).unwrap();
            cache.flush().unwrap();
            // Rewriting a key in a later segment shadows the published line.
            cache.put(&records[0]).unwrap();
            cache.flush().unwrap();
            let stats = cache.stats().unwrap();
            assert_eq!(stats.entries, 2, "a rewrite is not a new entry");
            assert_eq!(stats.segments, 2);
            assert_eq!(stats.shadowed, 1);
            // A duplicate within one pending batch shadows the earlier line
            // of the same segment.
            cache.put(&records[1]).unwrap();
            cache.put(&records[1]).unwrap();
            cache.flush().unwrap();
            assert_eq!(cache.stats().unwrap().shadowed, 3);
        }
        // Reopening rebuilds the count from the segment scan.
        let cache = PackedSegmentCache::open(&dir).unwrap();
        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.segments, 3);
        assert_eq!(stats.shadowed, 3);
        // The directory backends report zero for both packed-only fields.
        let flat_dir = scratch("packed-shadowed-flat");
        let flat = DirCache::open(&flat_dir).unwrap();
        flat.put(&records[0]).unwrap();
        flat.put(&records[0]).unwrap();
        let flat_stats = flat.stats().unwrap();
        assert_eq!((flat_stats.segments, flat_stats.shadowed), (0, 0));
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&flat_dir).ok();
    }

    #[test]
    fn packed_cache_stats_exclude_staged_unflushed_entries() {
        let dir = scratch("packed-staged");
        let records = sample_records(3);
        let cache = PackedSegmentCache::open(&dir).unwrap();
        cache.put(&records[0]).unwrap();
        cache.flush().unwrap();
        // Two entries staged but not yet published: readable through the
        // handle (`get`/`len`), yet absent from the durable size report —
        // a `cache stats` probe mid-shard must not count segments that do
        // not exist on disk yet.
        cache.put(&records[1]).unwrap();
        cache.put(&records[2]).unwrap();
        assert_eq!(cache.len().unwrap(), 3, "staged entries stay readable");
        let staged = cache.stats().unwrap();
        assert_eq!(staged.entries, 1, "only the published entry is durable");
        assert_eq!(staged.segments, 1);
        cache.flush().unwrap();
        let flushed = cache.stats().unwrap();
        assert_eq!(flushed.entries, 3, "flush publishes the staged batch");
        assert_eq!(flushed.segments, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn arc_handle_is_a_backend() {
        // The blanket impl lets one store be shared by value across threads
        // while still dispatching to the inner backend's overrides.
        let dir = scratch("packed-arc");
        let records = sample_records(2);
        let cache: Arc<dyn CacheBackend> = Arc::new(PackedSegmentCache::open(&dir).unwrap());
        let handle = Arc::clone(&cache);
        handle.put(&records[0]).unwrap();
        handle.flush().unwrap();
        assert_eq!(cache.get(&records[0].point).as_ref(), Some(&records[0]));
        let refs: Vec<&SweepPoint> = records.iter().map(|r| &r.point).collect();
        let batch = handle.get_batch(&refs);
        assert_eq!(batch[0].as_ref(), Some(&records[0]));
        assert_eq!(batch[1], None);
        assert_eq!(handle.stats().unwrap().segments, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn packed_cache_ignores_a_torn_trailing_line() {
        let dir = scratch("packed-torn");
        let records = sample_records(2);
        {
            let cache = PackedSegmentCache::open(&dir).unwrap();
            cache.put(&records[0]).unwrap();
            cache.flush().unwrap();
        }
        // Simulate a killed writer: a segment whose final line is truncated.
        let good = serde_json::to_string(&PackedEntry {
            key: content_key(&records[1].point),
            record: records[1].clone(),
        })
        .unwrap();
        fs::write(
            dir.join("seg-9999999999-00000001.pack"),
            format!("{good}\n{}", &good[..good.len() / 2]),
        )
        .unwrap();
        let cache = PackedSegmentCache::open(&dir).unwrap();
        assert_eq!(cache.len().unwrap(), 2, "whole lines load, the tear drops");
        assert_eq!(cache.get(&records[0].point).as_ref(), Some(&records[0]));
        assert_eq!(cache.get(&records[1].point).as_ref(), Some(&records[1]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_packed_cache_never_overwrites_existing_segments() {
        // A reopened handle (same pid) must continue the segment numbering
        // past what is already on disk: a restarted counter would `rename`
        // the new segment over the old one and destroy its entries.
        let dir = scratch("packed-reopen");
        let records = sample_records(3);
        {
            let cache = PackedSegmentCache::open(&dir).unwrap();
            cache.put(&records[0]).unwrap();
            cache.flush().unwrap();
        }
        {
            let cache = PackedSegmentCache::open(&dir).unwrap();
            // A second handle opened before `cache` flushes holds the same
            // (stale) counter; the publish-time existence probe must keep it
            // from clobbering the segment `cache` publishes first.
            let stale = PackedSegmentCache::open(&dir).unwrap();
            cache.put(&records[1]).unwrap();
            cache.flush().unwrap();
            drop(cache);
            stale.put(&records[2]).unwrap();
            stale.flush().unwrap();
        }
        let cache = PackedSegmentCache::open(&dir).unwrap();
        assert_eq!(cache.segment_count(), 3, "three distinct segment files");
        for record in &records {
            assert_eq!(cache.get(&record.point).as_ref(), Some(record));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn packed_cache_drop_publishes_the_pending_tail() {
        let dir = scratch("packed-drop");
        let records = sample_records(1);
        {
            let cache = PackedSegmentCache::open(&dir).unwrap();
            cache.put(&records[0]).unwrap();
            // Dropped without an explicit flush.
        }
        let cache = PackedSegmentCache::open(&dir).unwrap();
        assert_eq!(cache.get(&records[0].point).as_ref(), Some(&records[0]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backend_kind_parses_detects_and_opens() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::parse("nope"), None);

        let records = sample_records(1);
        for kind in BackendKind::ALL {
            let dir = scratch(&format!("detect-{kind}"));
            let cache = kind.open(&dir).unwrap();
            cache.put(&records[0]).unwrap();
            cache.flush().unwrap();
            assert_eq!(BackendKind::detect(&dir), kind, "layout of {kind}");
            fs::remove_dir_all(&dir).ok();
        }
        assert_eq!(
            BackendKind::detect(scratch("detect-empty")),
            BackendKind::Dir,
            "an empty directory defaults to the flat layout"
        );
    }

    #[test]
    fn migrate_round_trips_across_every_backend_pair() {
        let records = sample_records(5);
        let source_dir = scratch("mig-src");
        let source = DirCache::open(&source_dir).unwrap();
        for record in &records {
            source.put(record).unwrap();
        }
        // dir → sharded → packed → dir, verifying at every hop.
        let sharded_dir = scratch("mig-sharded");
        let sharded = ShardedDirCache::open(&sharded_dir).unwrap();
        assert_eq!(migrate_cache(&source, &sharded).unwrap(), 5);
        let packed_dir = scratch("mig-packed");
        let packed = PackedSegmentCache::open(&packed_dir).unwrap();
        assert_eq!(migrate_cache(&sharded, &packed).unwrap(), 5);
        let final_dir = scratch("mig-final");
        let final_cache = DirCache::open(&final_dir).unwrap();
        assert_eq!(migrate_cache(&packed, &final_cache).unwrap(), 5);
        for record in &records {
            assert_eq!(final_cache.get(&record.point).as_ref(), Some(record));
        }
        // The final flat layout holds byte-identical entry files.
        for record in &records {
            let key = content_key(&record.point);
            assert_eq!(
                fs::read(final_dir.join(format!("{key}.json"))).unwrap(),
                fs::read(source_dir.join(format!("{key}.json"))).unwrap(),
            );
        }
        for dir in [source_dir, sharded_dir, packed_dir, final_dir] {
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn migrate_rejects_an_entry_filed_under_the_wrong_key() {
        let dir = scratch("mig-bad");
        let cache = DirCache::open(&dir).unwrap();
        let records = sample_records(1);
        cache.put(&records[0]).unwrap();
        // Copy the entry under a bogus key, as a botched manual copy would.
        let key = content_key(&records[0].point);
        fs::copy(
            dir.join(format!("{key}.json")),
            dir.join("00000000deadbeef.json"),
        )
        .unwrap();
        let target = DirCache::open(scratch("mig-bad-target")).unwrap();
        let err = migrate_cache(&cache, &target).unwrap_err();
        assert!(err.to_string().contains("refusing to migrate"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deeply_nested_entries_degrade_to_misses_on_every_backend() {
        let records = sample_records(2);
        let (good, hostile) = (&records[0], &records[1]);
        let key = content_key(&hostile.point);
        let deep = "[".repeat(200_000);
        for kind in BackendKind::ALL {
            let dir = scratch(&format!("deep-{}", kind.name()));
            {
                let cache = kind.open(&dir).unwrap();
                cache.put(good).unwrap();
                cache.flush().unwrap();
            }
            // A hostile entry where the second record's entry would live.
            match kind {
                BackendKind::Dir => fs::write(dir.join(format!("{key}.json")), &deep).unwrap(),
                BackendKind::Sharded => {
                    let bucket = dir.join(&key[..2]);
                    fs::create_dir_all(&bucket).unwrap();
                    fs::write(bucket.join(format!("{key}.json")), &deep).unwrap();
                }
                BackendKind::Packed => fs::write(
                    dir.join("seg-9999999999-00000001.pack"),
                    format!("{{\"key\":\"{key}\",\"record\":{deep}\n"),
                )
                .unwrap(),
            }
            let cache = kind.open(&dir).unwrap();
            assert_eq!(cache.get(&good.point).as_ref(), Some(good), "{kind:?}");
            assert_eq!(cache.get(&hostile.point), None, "{kind:?}");
            let mut scanned = Vec::new();
            cache
                .scan(&mut |key, _| {
                    scanned.push(key);
                    Ok(())
                })
                .unwrap();
            assert_eq!(scanned, vec![content_key(&good.point)], "{kind:?}");
            fs::remove_dir_all(&dir).ok();
        }
    }
}
