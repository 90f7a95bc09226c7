//! The content-addressed result cache and its [`CacheBackend`] storage trait.
//!
//! Every simulated point is stored under a key derived from the *content* of
//! its configuration — architecture parameters, workload selector,
//! quantisation/pruning, dataflow, awareness, clock and seed — so re-running
//! the same spec, or a different spec that overlaps it, skips every point
//! that has already been simulated. The sweep-internal `index` is explicitly
//! excluded from the key: the same configuration at a different position in a
//! different sweep is still the same simulation.
//!
//! The on-disk format is [`PackedSegmentCache`]: append-only segment files
//! plus an in-memory index. Writes buffer in memory and
//! [`flush`](CacheBackend::flush) publishes each batch as one immutable,
//! fsynced segment by stage-then-atomic-rename. The executor talks to it
//! through the object-safe [`CacheBackend`] trait, so wrappers (fault
//! injection, timing) and custom stores plug in unchanged.
//!
//! Directories written by the retired one-file-per-entry layouts (flat
//! `<key>.json` files, or the same fanned out into two-hex-digit
//! subdirectories) are refused at [`open`](PackedSegmentCache::open) with
//! [`ExploreError::Cache`]: a cache only ever holds regenerable results, so
//! the remedy is to delete the directory and re-run.

use std::collections::HashMap;
use std::fs;
use std::io::{BufRead as _, BufReader, Read as _, Seek as _, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::error::{ExploreError, Result};
use crate::record::SweepRecord;
use crate::spec::SweepPoint;

/// Bump when the record schema or simulator semantics change incompatibly;
/// old cache entries then stop matching instead of serving stale shapes.
const CACHE_SCHEMA_VERSION: u32 = 1;

/// Stable FNV-1a 64-bit hash of the concatenation of `parts`, fed as one
/// stream without joining them first (not `DefaultHasher`, whose output may
/// change across Rust releases — cache directories outlive toolchains).
pub(crate) fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for part in parts {
        for &b in *part {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

/// The content key of a sweep point: a hex digest of its canonical JSON form
/// with the positional `index` zeroed out, salted with the schema version.
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
    let salt = format!("v{CACHE_SCHEMA_VERSION}:");
    format!("{:016x}", fnv1a64(&[salt.as_bytes(), json.as_bytes()]))
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
    /// Published segment files.
    pub segments: usize,
    /// Stored lines shadowed by a later write under the same content key —
    /// dead bytes a compaction would reclaim.
    pub shadowed: usize,
}

/// Object-safe storage interface of the sweep result cache.
///
/// A backend maps [content keys](content_key) to [`SweepRecord`]s. The
/// executor keys each point of a shard once, looks the shard up with
/// [`get_batch_keyed`](Self::get_batch_keyed), stores each fresh record
/// under the same key with [`put_serialized`](Self::put_serialized), and
/// publishes the shard with [`flush`](Self::flush); the remaining methods
/// serve tooling (`cache stats`, the daemon's `cache-stats` request). All
/// methods take `&self` — backends are internally synchronized so one cache
/// can be shared across executor threads.
pub trait CacheBackend: Send + Sync {
    /// Looks up the record cached for `point`, if any.
    ///
    /// A corrupt or unreadable entry is treated as a miss rather than an
    /// error, so a damaged cache degrades to re-simulation. Implementations
    /// compare the stored configuration against the queried one, so a hash
    /// collision (or an entry copied under the wrong key) also degrades to a
    /// miss instead of returning another configuration's metrics. An entry
    /// stored but not yet [flushed](Self::flush) is read back from the bytes
    /// the flush will publish, so a torn write is a miss before its flush
    /// as it is after.
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

    /// [`get_batch`](Self::get_batch) for points whose content keys the
    /// caller already computed: `keys[i]` is
    /// [`content_key`]`(points[i])`. The executor keys each point once and
    /// stores a fresh record under the key its lookup used, so a backend
    /// that overrides this method keys nothing itself.
    ///
    /// The default ignores the keys and calls
    /// [`get_batch`](Self::get_batch), so a backend or wrapper that
    /// overrides only `get_batch` still sees every lookup.
    fn get_batch_keyed(&self, points: &[&SweepPoint], keys: &[String]) -> Vec<Option<SweepRecord>> {
        let _ = keys;
        self.get_batch(points)
    }

    /// Stores the record for its point.
    ///
    /// A backend may buffer the entry until the next
    /// [`flush`](Self::flush); either way a later [`get`](Self::get) through
    /// the same handle sees it.
    ///
    /// # Errors
    ///
    /// Propagates file-system and serialization errors.
    fn put(&self, record: &SweepRecord) -> Result<()>;

    /// Stores a record whose JSON rendering the caller already computed:
    /// `key` must be [`content_key`]`(&record.point)` and `json` must be
    /// `serde_json::to_string(record)`. The executor's compute stage renders
    /// the JSON on the worker threads and reuses the key its lookup used, so
    /// the I/O stage neither keys nor serializes. The default implementation
    /// ignores the pre-rendered form and falls back to [`put`](Self::put), so
    /// third-party backends stay correct without opting in.
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
    /// degrade-to-miss contract. A tooling path: it snapshots a whole cache.
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

    fn get_batch_keyed(&self, points: &[&SweepPoint], keys: &[String]) -> Vec<Option<SweepRecord>> {
        (**self).get_batch_keyed(points, keys)
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

/// The content key of a segment line, read from the fixed
/// `{"key":"<16 hex>","record":` prefix that [`packed_line`] writes, without
/// parsing the record; `None` for a line of any other shape. A damaged
/// record behind a well-formed prefix is still indexed, and degrades to a
/// miss when [`get`](CacheBackend::get) parses it.
fn line_key(line: &[u8]) -> Option<&str> {
    let rest = line.strip_prefix(b"{\"key\":\"")?;
    let key = rest.get(..16)?;
    let well_formed = rest[16..].starts_with(b"\",\"record\":")
        && key.iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if !well_formed {
        return None;
    }
    std::str::from_utf8(key).ok()
}

/// Reads and parses the segment line at `loc`; `None` when it is unreadable
/// or damaged, which callers treat as a miss.
fn read_entry(path: &Path, loc: EntryLoc) -> Option<PackedEntry> {
    let mut file = fs::File::open(path).ok()?;
    file.seek(SeekFrom::Start(loc.offset)).ok()?;
    let mut line = vec![0u8; loc.len];
    file.read_exact(&mut line).ok()?;
    parse_entry(&line)
}

/// Parses one segment line; `None` when it is damaged.
fn parse_entry(line: &[u8]) -> Option<PackedEntry> {
    serde_json::from_str(std::str::from_utf8(line).ok()?).ok()
}

/// Names the retired layout a directory entry belongs to, if it does: a
/// `<16 hex>.json` entry file of the flat layout, or a two-hex-digit
/// subdirectory of the fan-out layout.
fn retired_layout(path: &Path) -> Option<&'static str> {
    let name = path.file_name()?.to_str()?;
    let hex = |s: &str| s.bytes().all(|b| b.is_ascii_hexdigit());
    if name.len() == 2 && hex(name) && path.is_dir() {
        Some("fan-out (two-hex-digit subdirectories)")
    } else if name.len() == 21 && name.ends_with(".json") && hex(&name[..16]) && path.is_file() {
        Some("flat (one `<key>.json` file per entry)")
    } else {
        None
    }
}

/// Segment numbers, drawn process-wide: two handles on one directory in one
/// process must never stage the same segment name. [`PackedSegmentCache::open`]
/// raises it past every number already on disk. `Relaxed` suffices: a number
/// publishes no other data, and each read-modify-write sees the latest value.
static SEGMENT_COUNTER: AtomicU64 = AtomicU64::new(0);

/// An entry accepted but not yet published: its key plus its fully-rendered
/// segment line (rendered when the entry is stored — for the executor, on
/// its worker threads — never at `flush`). The line is the only copy of the
/// record: a `get` before the flush parses it, as one after the flush does.
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
    /// `pending` keyed for reads: the position of the latest entry per key.
    pending_map: HashMap<String, usize>,
    /// Published lines superseded by a later line under the same key —
    /// duplicates a compaction would drop.
    shadowed: usize,
}

impl PackedState {
    /// Indexes one published line; a later line under the same key shadows
    /// the earlier one.
    fn index_line(&mut self, key: String, loc: EntryLoc) {
        if self.index.insert(key, loc).is_some() {
            self.shadowed += 1;
        }
    }
}

/// The result cache: append-only segment files plus an in-memory index.
///
/// Entries buffer in memory and [`flush`](CacheBackend::flush) publishes
/// each batch as one immutable `seg-<pid>-<n>.pack` file (JSON lines, staged,
/// fsynced and atomically renamed into place). The index maps content keys
/// to byte ranges, so [`get`](CacheBackend::get) is one `seek` + one bounded
/// read. An interrupted writer loses only its unflushed tail — published
/// segments are never modified.
///
/// A handle sees the segments on disk when it [opens](Self::open) and the
/// ones it publishes itself, not those another handle publishes later. Two
/// concurrent CLI sweeps over one directory therefore recompute the points
/// they share (their outputs are unchanged) and see each other's entries on
/// their next open; within one process, share one handle through an
/// [`Arc`].
#[derive(Debug)]
pub struct PackedSegmentCache {
    dir: PathBuf,
    state: Mutex<PackedState>,
}

impl PackedSegmentCache {
    /// Opens (creating if needed) a cache directory and indexes every
    /// `seg-*.pack` segment in it, taking each line's key from its fixed
    /// prefix. A torn trailing line (from a writer killed mid-publish) and
    /// lines of another shape are skipped, mirroring the degrade-to-miss
    /// contract; other files are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Cache`] for a directory in a retired
    /// one-file-per-entry layout, and propagates directory and segment-read
    /// errors.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| ExploreError::io_at(&dir, e))?;
        let mut segments = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|e| ExploreError::io_at(&dir, e))?;
        for path in entries
            .filter_map(std::result::Result::ok)
            .map(|e| e.path())
        {
            if let Some(layout) = retired_layout(&path) {
                return Err(ExploreError::cache(format!(
                    "`{}` holds a result cache in the retired {layout} layout; only packed \
                     segments are supported — delete the directory and re-run to regenerate it",
                    dir.display()
                )));
            }
            let is_segment = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".pack"));
            if is_segment && path.is_file() {
                segments.push(path);
            }
        }
        segments.sort();
        let mut state = PackedState::default();
        for path in segments {
            if let Some(counter) = path
                .file_stem()
                .and_then(|n| n.to_str())
                .and_then(|n| n.rsplit('-').next())
                .and_then(|c| c.parse::<u64>().ok())
            {
                SEGMENT_COUNTER.fetch_max(counter, Ordering::Relaxed);
            }
            // Streamed one line at a time, so memory stays bounded by the
            // longest line, not the segment.
            let file = fs::File::open(&path).map_err(|e| ExploreError::io_at(&path, e))?;
            let mut reader = BufReader::new(file);
            let segment = state.segments.len();
            let (mut offset, mut line) = (0u64, Vec::new());
            loop {
                line.clear();
                let read = reader
                    .read_until(b'\n', &mut line)
                    .map_err(|e| ExploreError::io_at(&path, e))?;
                // Only lines terminated by '\n' count: an unterminated tail
                // is a torn write and is ignored.
                let Some(text) = line.strip_suffix(b"\n") else {
                    break;
                };
                if let Some(key) = line_key(text) {
                    let loc = EntryLoc {
                        segment,
                        offset,
                        len: text.len(),
                    };
                    state.index_line(key.to_string(), loc);
                }
                offset += read as u64;
            }
            state.segment_bytes += offset + line.len() as u64;
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
        self.lock().segments.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PackedState> {
        self.state.lock().expect("packed cache lock")
    }

    /// Looks `point` up under its precomputed content `key`: a pending entry
    /// is parsed from its rendered line, a published one read from its
    /// segment.
    fn get_keyed(&self, point: &SweepPoint, key: &str) -> Option<SweepRecord> {
        let state = self.lock();
        let entry = match state.pending_map.get(key).copied() {
            Some(at) => parse_entry(state.pending[at].line.as_bytes()),
            None => {
                let loc = *state.index.get(key)?;
                let path = state.segments.get(loc.segment)?.clone();
                drop(state);
                read_entry(&path, loc)
            }
        }?;
        let mut record = entry.record;
        // Restore the sweep-local position; the stored one belongs to the
        // sweep that populated the cache.
        record.point.index = point.index;
        (entry.key == key && record.point == *point).then_some(record)
    }
}

impl CacheBackend for PackedSegmentCache {
    fn get(&self, point: &SweepPoint) -> Option<SweepRecord> {
        self.get_keyed(point, &content_key(point))
    }

    fn get_batch_keyed(&self, points: &[&SweepPoint], keys: &[String]) -> Vec<Option<SweepRecord>> {
        assert_eq!(points.len(), keys.len(), "one key per queried point");
        let queries: Vec<(&SweepPoint, &String)> = points.iter().copied().zip(keys).collect();
        queries
            .par_iter()
            .map(|&(point, key)| self.get_keyed(point, key))
            .collect()
    }

    fn put(&self, record: &SweepRecord) -> Result<()> {
        let key = content_key(&record.point);
        let json = serde_json::to_string(record)?;
        self.put_serialized(&key, &json, record)
    }

    fn put_serialized(&self, key: &str, json: &str, _record: &SweepRecord) -> Result<()> {
        let line = packed_line(key, json);
        let mut state = self.lock();
        let at = state.pending.len();
        state.pending.push(PendingEntry {
            key: key.to_string(),
            line,
        });
        state.pending_map.insert(key.to_string(), at);
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
        // name: the process-wide counter rules out this process's handles,
        // the probe another process that shares this pid (routine across
        // containers sharing a volume).
        let path = loop {
            let counter = SEGMENT_COUNTER.fetch_add(1, Ordering::Relaxed) + 1;
            let candidate = self
                .dir
                .join(format!("seg-{:010}-{counter:08}.pack", std::process::id()));
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
            state.index_line(
                key,
                EntryLoc {
                    segment,
                    offset,
                    len,
                },
            );
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
        // to every read, so surface it instead of silently dropping data.
        let (segments, mut published, pending): (Vec<PathBuf>, Vec<_>, Vec<PackedEntry>) = {
            let state = self.lock();
            (
                state.segments.clone(),
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
            if let Some(entry) = read_entry(&segments[loc.segment], loc) {
                visit(key, entry.record)?;
            }
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

    /// Every key a cache yields through `scan`, in visit order.
    fn scanned_keys(cache: &dyn CacheBackend) -> Vec<String> {
        let mut keys = Vec::new();
        cache
            .scan(&mut |key, _| {
                keys.push(key);
                Ok(())
            })
            .unwrap();
        keys
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
        let cache = PackedSegmentCache::open(&dir).unwrap();
        let point = SweepSpec::new("atomic").expand().unwrap().remove(0);
        let record = record_for(point.clone(), 1.25);

        // Seed the entry, then rewrite and republish the same key from
        // several writers while readers poll it. Every read must observe a
        // complete record — from the pending batch or a published segment —
        // since a torn line would surface as `get` returning `None`.
        cache.put(&record).unwrap();
        cache.flush().unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10 {
                        cache.put(&record).unwrap();
                        cache.flush().unwrap();
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
        assert!(!stray_tmp, "staging files must not outlive flush()");
        // A fresh handle reads the last published line back whole.
        let reopened = PackedSegmentCache::open(&dir).unwrap();
        assert_eq!(reopened.get(&point), Some(record));
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
            let line = packed_line(&key, &json);
            assert_eq!(line, serde_json::to_string(&entry).unwrap());
            // And open's prefix reader recovers the key from that line.
            assert_eq!(line_key(line.as_bytes()), Some(key.as_str()));
        }
    }

    #[test]
    fn put_serialized_writes_the_same_bytes_as_put() {
        // An entry stored through the pre-serialized fast path must be
        // byte-identical on disk to one stored through plain `put`.
        let records = sample_records(3);
        let plain_dir = scratch("preser-plain");
        let fast_dir = scratch("preser-fast");
        let plain = PackedSegmentCache::open(&plain_dir).unwrap();
        let fast = PackedSegmentCache::open(&fast_dir).unwrap();
        for record in &records {
            plain.put(record).unwrap();
            let key = content_key(&record.point);
            let json = serde_json::to_string(record).unwrap();
            fast.put_serialized(&key, &json, record).unwrap();
        }
        plain.flush().unwrap();
        fast.flush().unwrap();
        for record in &records {
            assert_eq!(fast.get(&record.point).as_ref(), Some(record));
        }
        // Segment names embed a counter; compare contents.
        let contents = |dir: &Path| {
            let mut files: Vec<Vec<u8>> = fs::read_dir(dir)
                .unwrap()
                .filter_map(std::result::Result::ok)
                .map(|e| fs::read(e.path()).unwrap())
                .collect();
            files.sort();
            files
        };
        assert_eq!(
            contents(&plain_dir),
            contents(&fast_dir),
            "pre-serialized entries diverged from put()"
        );
        fs::remove_dir_all(&plain_dir).ok();
        fs::remove_dir_all(&fast_dir).ok();
    }

    #[test]
    fn packed_scan_surfaces_an_out_of_contract_pending_line() {
        // `put_serialized` trusts the caller's pre-rendered JSON; if it is
        // not actually the record's rendering, the entry would be flushed to
        // a segment yet unreadable. Scan must error instead of silently
        // dropping buffered data.
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
        let dir = scratch("batch");
        let cache = PackedSegmentCache::open(&dir).unwrap();
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
                "slot {i} diverged from get()"
            );
            assert_eq!(slot.is_some(), i % 2 == 0, "slot {i} hit/miss");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_is_stable_across_processes() {
        // Pinned digest: changing it means every existing cache is invalidated,
        // which must be a deliberate CACHE_SCHEMA_VERSION bump instead.
        let point = SweepSpec::new("pin").expand().unwrap().remove(0);
        assert_eq!(content_key(&point), "7b4e244b57cf1c56");
    }

    #[test]
    fn a_torn_pending_line_is_a_miss_before_and_after_its_flush() {
        // A short write acknowledged as success: the pending line holds half
        // the record. `get` reads pending entries from their lines, so it
        // misses before the flush exactly as it does after.
        let dir = scratch("torn-pending");
        let cache = PackedSegmentCache::open(&dir).unwrap();
        let records = sample_records(2);
        let json = serde_json::to_string(&records[0]).unwrap();
        let key = content_key(&records[0].point);
        cache
            .put_serialized(&key, &json[..json.len() / 2], &records[0])
            .unwrap();
        cache.put(&records[1]).unwrap();
        assert_eq!(cache.get(&records[0].point), None, "torn, before flush");
        assert_eq!(cache.get(&records[1].point).as_ref(), Some(&records[1]));
        cache.flush().unwrap();
        assert_eq!(cache.get(&records[0].point), None, "torn, after flush");
        assert_eq!(cache.get(&records[1].point).as_ref(), Some(&records[1]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keyed_batches_read_pending_and_published_entries_under_the_given_keys() {
        let records = sample_records(4);
        let dir = scratch("keyed");
        let cache = PackedSegmentCache::open(&dir).unwrap();
        cache.put(&records[0]).unwrap();
        cache.flush().unwrap();
        cache.put(&records[1]).unwrap();
        let points: Vec<&SweepPoint> = records.iter().map(|r| &r.point).collect();
        let keys: Vec<String> = points.iter().map(|p| content_key(p)).collect();
        let found = cache.get_batch_keyed(&points, &keys);
        let expected = [Some(&records[0]), Some(&records[1]), None, None];
        assert_eq!(
            found.iter().map(Option::as_ref).collect::<Vec<_>>(),
            expected
        );
        // A key that names another point's entry is a miss, not that entry.
        let mut swapped = keys.clone();
        swapped.swap(0, 1);
        assert_eq!(cache.get_batch_keyed(&points, &swapped), vec![None; 4]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_len_stats_and_scan_ignore_stray_files() {
        // A writer killed between staging and rename leaves
        // `seg-*.pack.tmp` behind; it must not load as a segment, and
        // neither may notes, other `.pack` files, `seg-` files of another
        // extension, or a directory that looks like a segment.
        let dir = scratch("stray");
        let record = sample_records(1).remove(0);
        {
            let cache = PackedSegmentCache::open(&dir).unwrap();
            cache.put(&record).unwrap();
            cache.flush().unwrap();
        }
        let line = packed_line(
            &content_key(&record.point),
            &serde_json::to_string(&record).unwrap(),
        );
        for stray in [
            "seg-0000004242-00000009.pack.tmp",
            "notes.txt",
            "backup.pack",
            "seg-0000004242-00000010.json",
        ] {
            fs::write(dir.join(stray), format!("{line}\n{line}\n")).unwrap();
        }
        fs::create_dir_all(dir.join("seg-0000004242-00000011.pack")).unwrap();
        let cache = PackedSegmentCache::open(&dir).unwrap();
        assert_eq!(cache.len().unwrap(), 1, "only the real entry counts");
        assert!(!cache.is_empty().unwrap());
        let stats = cache.stats().unwrap();
        assert_eq!((stats.entries, stats.segments, stats.shadowed), (1, 1, 0));
        assert_eq!(
            stats.bytes,
            line.len() as u64 + 1,
            "one line of one segment"
        );
        assert_eq!(scanned_keys(&cache), vec![content_key(&record.point)]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_refuses_the_retired_entry_file_layouts() {
        let record = sample_records(1).remove(0);
        let key = content_key(&record.point);
        let json = serde_json::to_string(&record).unwrap();
        // The flat layout: one `<key>.json` file per entry.
        let flat = scratch("retired-flat");
        fs::write(flat.join(format!("{key}.json")), &json).unwrap();
        // The fan-out layout: the same files under `<first key byte>/`.
        let fanned = scratch("retired-fanout");
        fs::create_dir_all(fanned.join(&key[..2])).unwrap();
        fs::write(fanned.join(&key[..2]).join(format!("{key}.json")), &json).unwrap();
        for (dir, layout) in [(&flat, "flat"), (&fanned, "fan-out")] {
            let err = PackedSegmentCache::open(dir).unwrap_err();
            assert!(matches!(err, ExploreError::Cache { .. }), "{err:?}");
            let message = err.to_string();
            assert!(
                message.contains(&format!("retired {layout}")) && message.contains("delete"),
                "{message}"
            );
            // Refused before anything was written next to the old entries.
            assert_eq!(fs::read_dir(dir).unwrap().count(), 1);
        }
        // Look-alikes are not the retired layouts.
        let benign = scratch("retired-benign");
        fs::write(benign.join("spec.json"), "{}").unwrap();
        fs::create_dir_all(benign.join("0g")).unwrap();
        fs::create_dir_all(benign.join("abc")).unwrap();
        assert_eq!(PackedSegmentCache::open(&benign).unwrap().len().unwrap(), 0);
        for dir in [flat, fanned, benign] {
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_well_formed_prefix_over_a_damaged_record_is_a_miss_and_skipped_by_scan() {
        let records = sample_records(3);
        let dir = scratch("damaged");
        {
            let cache = PackedSegmentCache::open(&dir).unwrap();
            cache.put(&records[0]).unwrap();
            cache.flush().unwrap();
        }
        // Record 1's key over a truncated record, and record 2's key over
        // record 0's intact record (an entry filed under the wrong key).
        let key1 = content_key(&records[1].point);
        let key2 = content_key(&records[2].point);
        let json0 = serde_json::to_string(&records[0]).unwrap();
        fs::write(
            dir.join("seg-9999999999-00000001.pack"),
            format!(
                "{}\n{}\n",
                packed_line(&key1, &json0[..json0.len() / 2]),
                packed_line(&key2, &json0)
            ),
        )
        .unwrap();
        let cache = PackedSegmentCache::open(&dir).unwrap();
        assert_eq!(cache.stats().unwrap().entries, 3, "indexed by prefix alone");
        assert_eq!(cache.get(&records[0].point).as_ref(), Some(&records[0]));
        assert_eq!(cache.get(&records[1].point), None, "damaged record");
        assert_eq!(cache.get(&records[2].point), None, "wrong configuration");
        // Scan parses every line: the damaged one is skipped. (The misfiled
        // one parses, so scan reports it under its stored key.)
        let mut keys = scanned_keys(&cache);
        keys.sort();
        let mut expected = vec![content_key(&records[0].point), key2];
        expected.sort();
        assert_eq!(keys, expected);
        fs::remove_dir_all(&dir).ok();
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
        fs::remove_dir_all(&dir).ok();
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
            // A second handle opened before `cache` flushes must not
            // clobber the segment `cache` publishes first.
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
    fn two_handles_flushing_at_once_publish_distinct_segments() {
        // Two handles opened on one fresh directory in one process, both
        // flushing at the same instant: per-handle numbering would stage
        // both batches under one name, so one rename fails or clobbers the
        // other's segment. The race is timing-dependent, hence the rounds.
        let records = sample_records(2);
        for round in 0..20 {
            let dir = scratch("packed-two-handles");
            let handles = [
                PackedSegmentCache::open(&dir).unwrap(),
                PackedSegmentCache::open(&dir).unwrap(),
            ];
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for (cache, record) in handles.iter().zip(&records) {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        cache.put(record).unwrap();
                        barrier.wait();
                        cache.flush().unwrap();
                    });
                }
            });
            let cache = PackedSegmentCache::open(&dir).unwrap();
            assert_eq!(cache.segment_count(), 2, "round {round}");
            for record in &records {
                assert_eq!(
                    cache.get(&record.point).as_ref(),
                    Some(record),
                    "round {round}"
                );
            }
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_handle_sees_another_handles_segments_only_after_reopening() {
        // No cross-handle liveness: entries another handle publishes after
        // this one opened stay invisible to it (a miss, so a recompute)
        // until the directory is opened again.
        let dir = scratch("packed-liveness");
        let records = sample_records(1);
        let reader = PackedSegmentCache::open(&dir).unwrap();
        let writer = PackedSegmentCache::open(&dir).unwrap();
        writer.put(&records[0]).unwrap();
        writer.flush().unwrap();
        assert_eq!(reader.get(&records[0].point), None);
        assert_eq!(reader.len().unwrap(), 0);
        let reopened = PackedSegmentCache::open(&dir).unwrap();
        assert_eq!(reopened.get(&records[0].point).as_ref(), Some(&records[0]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn line_keys_come_only_from_the_written_prefix() {
        let key = "0123456789abcdef";
        assert_eq!(line_key(packed_line(key, "{}").as_bytes()), Some(key));
        for line in [
            // Not the shape `packed_line` writes: skipped at open.
            "",
            "{\"key\":\"0123456789abcdef\"",
            "{\"key\":\"0123456789abcde\",\"record\":{}}",
            "{\"key\":\"0123456789ABCDEF\",\"record\":{}}",
            "{\"key\":\"0123456789abcdef0\",\"record\":{}}",
            "{\"record\":{},\"key\":\"0123456789abcdef\"}",
            "{ \"key\":\"0123456789abcdef\",\"record\":{}}",
        ] {
            assert_eq!(line_key(line.as_bytes()), None, "{line:?}");
        }
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
    fn deeply_nested_entries_degrade_to_misses() {
        let records = sample_records(2);
        let (good, hostile) = (&records[0], &records[1]);
        let key = content_key(&hostile.point);
        let dir = scratch("deep");
        {
            let cache = PackedSegmentCache::open(&dir).unwrap();
            cache.put(good).unwrap();
            cache.flush().unwrap();
        }
        // A hostile line where the second record's entry would live.
        fs::write(
            dir.join("seg-9999999999-00000001.pack"),
            format!("{}\n", packed_line(&key, &"[".repeat(200_000))),
        )
        .unwrap();
        let cache = PackedSegmentCache::open(&dir).unwrap();
        assert_eq!(cache.get(&good.point).as_ref(), Some(good));
        assert_eq!(cache.get(&hostile.point), None);
        assert_eq!(scanned_keys(&cache), vec![content_key(&good.point)]);
        fs::remove_dir_all(&dir).ok();
    }
}
