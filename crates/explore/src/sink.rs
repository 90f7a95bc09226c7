//! Streaming record sinks.
//!
//! The streaming executor ([`ExploreSession`](crate::ExploreSession)) pushes
//! completed [`SweepRecord`]s into a [`RecordSink`] in deterministic
//! expansion order, one shard at a time, instead of accumulating the whole
//! sweep in memory and writing files at the end. Sinks therefore see records
//! incrementally; durable sinks persist what they have at every shard
//! boundary, so an interrupted sweep leaves a readable prefix on disk and the
//! result cache makes the re-run resume where it stopped.
//!
//! Provided sinks:
//!
//! * [`VecSink`] — in-memory collection, the path behind
//!   [`run_collect`](crate::ExploreSession::run_collect);
//! * [`JsonFileSink`] — pretty-printed JSON array, byte-identical to
//!   [`write_json`](crate::write_json) of the same records; streamed element
//!   by element into a staging file and atomically renamed into place on
//!   success, so a failing sweep never clobbers a previously-published file
//!   (a partial JSON array would be corrupt, unlike a JSONL/CSV prefix);
//! * [`JsonlSink`] — JSON Lines, one compact record per line, flushed at each
//!   shard boundary (append-friendly: every flushed line is final);
//! * [`CsvSink`] — CSV with the record type's [`CsvRecord`] columns,
//!   byte-identical to [`to_csv`](crate::to_csv) for sweep records, flushed
//!   per shard;
//! * [`MultiSink`] — fans records out to several sinks at once.

use std::fs;
use std::io::{BufWriter, Write as _};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::error::{ExploreError, Result};
use crate::record::{CsvRecord, SweepRecord};

/// Receives completed records in deterministic expansion order.
///
/// The executor calls [`accept`](Self::accept) or
/// [`accept_rendered`](Self::accept_rendered) once per completed point (in
/// the spec's expansion order, skipping failed points under
/// [`ErrorPolicy::KeepGoing`](crate::ErrorPolicy::KeepGoing)),
/// [`flush_shard`](Self::flush_shard) after each shard, and
/// [`finish`](Self::finish) exactly once after the last shard. A freshly
/// simulated record comes through `accept_rendered` with the compact JSON
/// the compute stage rendered for it; a cache hit, or a record merged from
/// a worker's part, comes through `accept`.
///
/// The trait is generic over the record type so the same file sinks stream
/// sweep records and `simphony-traffic` serving records alike; the default
/// `R = SweepRecord` keeps the common case spelled `dyn RecordSink`.
///
/// Implementations stay **single-threaded**: the executor only ever drives a
/// sink from one thread at a time, with calls in the order above, so no
/// internal synchronization is needed. The `Send` bound exists because a
/// multi-shard sweep lends the sink to its writer thread, which persists
/// every shard but the final one; the calling thread persists the final
/// shard and finishes the sink after that thread has joined, so the sink is
/// never used from two threads at once.
pub trait RecordSink<R = SweepRecord>: Send {
    /// Accepts the next completed record.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O errors; an erroring sink aborts the
    /// sweep.
    fn accept(&mut self, record: R) -> Result<()>;

    /// Accepts the next completed record together with its compact JSON,
    /// `json == serde_json::to_string(&record)`, rendered once on the
    /// executor's compute threads. A sink that writes that line writes
    /// `json` instead of rendering the record again. The default ignores
    /// `json` and calls [`accept`](Self::accept), so typed sinks need not
    /// override it.
    ///
    /// # Errors
    ///
    /// As [`accept`](Self::accept).
    fn accept_rendered(&mut self, record: R, json: &str) -> Result<()> {
        let _ = json;
        self.accept(record)
    }

    /// Called after each shard completes; durable sinks flush buffered output
    /// to disk here so interrupted sweeps leave a readable prefix.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn flush_shard(&mut self) -> Result<()> {
        Ok(())
    }

    /// Forces flushed output onto stable storage (`fsync`). The executor
    /// calls this after [`flush_shard`](Self::flush_shard) and *before*
    /// appending the shard to a checkpoint, so a checkpoint never vouches for
    /// records the kernel still holds in page cache — the ordering a
    /// `kill -9` (or power loss) is survived by. Only called when a
    /// checkpoint is present; non-durable sinks keep the no-op default.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    /// Called once after the final shard; finalizes the output (closing
    /// delimiters, final flush).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn finish(&mut self) -> Result<()> {
        Ok(())
    }
}

/// In-memory sink: collects records into a `Vec`.
#[derive(Debug)]
pub struct VecSink<R = SweepRecord> {
    records: Vec<R>,
}

// Manual impl: deriving `Default` would demand `R: Default` even though an
// empty `Vec` needs no such bound.
impl<R> Default for VecSink<R> {
    fn default() -> Self {
        Self {
            records: Vec::new(),
        }
    }
}

impl<R> VecSink<R> {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The records accepted so far.
    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// Consumes the sink, returning the collected records.
    pub fn into_records(self) -> Vec<R> {
        self.records
    }
}

impl<R: Send> RecordSink<R> for VecSink<R> {
    fn accept(&mut self, record: R) -> Result<()> {
        self.records.push(record);
        Ok(())
    }
}

fn io_err(path: &Path, e: std::io::Error) -> ExploreError {
    ExploreError::io_at(path, e)
}

/// Streaming pretty-JSON-array sink, byte-identical to
/// [`write_json`](crate::write_json) of the full record list.
///
/// Each record is rendered as it arrives and appended as the next array
/// element (re-indented one level), so memory stays O(1) instead of holding a
/// complete `Vec` for serialization. Unlike the line-oriented sinks, a
/// *partial* pretty-JSON array is corrupt rather than useful, so the output
/// is staged to a temp sibling and only renamed onto `path` by
/// [`finish`](RecordSink::finish): a failing or interrupted sweep leaves any
/// pre-existing file at `path` untouched (the stage file is removed on drop).
#[derive(Debug)]
pub struct JsonFileSink<R = SweepRecord> {
    path: PathBuf,
    stage: PathBuf,
    writer: Option<BufWriter<fs::File>>,
    count: usize,
    // `fn(R)` keeps the marker `Send + Sync` whatever `R` is: the sink holds
    // no record, it only serializes them as they pass through.
    _record: PhantomData<fn(R)>,
}

impl<R> JsonFileSink<R> {
    /// Opens the staging file next to `path` (same directory, so the final
    /// rename stays on one filesystem). `path` itself is not touched until
    /// [`finish`](RecordSink::finish).
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".{}.tmp", std::process::id()));
        let stage = path.with_file_name(name);
        let file = fs::File::create(&stage).map_err(|e| io_err(&stage, e))?;
        Ok(Self {
            path,
            stage,
            writer: Some(BufWriter::new(file)),
            count: 0,
            _record: PhantomData,
        })
    }

    fn writer(&mut self) -> &mut BufWriter<fs::File> {
        self.writer
            .as_mut()
            .expect("sink not used again after finish")
    }
}

impl<R: Serialize> RecordSink<R> for JsonFileSink<R> {
    fn accept(&mut self, record: R) -> Result<()> {
        let pretty = serde_json::to_string_pretty(&record)?;
        let mut chunk = String::with_capacity(pretty.len() + pretty.len() / 8 + 4);
        chunk.push_str(if self.count == 0 { "[" } else { "," });
        // Re-indent the standalone rendering one array level deep: every line
        // gains two spaces, reproducing `to_string_pretty(&records)` exactly.
        for line in pretty.lines() {
            chunk.push_str("\n  ");
            chunk.push_str(line);
        }
        let stage = self.stage.clone();
        self.writer()
            .write_all(chunk.as_bytes())
            .map_err(|e| io_err(&stage, e))?;
        self.count += 1;
        Ok(())
    }

    fn flush_shard(&mut self) -> Result<()> {
        let stage = self.stage.clone();
        self.writer().flush().map_err(|e| io_err(&stage, e))
    }

    fn sync(&mut self) -> Result<()> {
        let stage = self.stage.clone();
        let writer = self.writer();
        writer
            .flush()
            .and_then(|()| writer.get_ref().sync_all())
            .map_err(|e| io_err(&stage, e))
    }

    fn finish(&mut self) -> Result<()> {
        let tail = if self.count == 0 { "[]\n" } else { "\n]\n" };
        let stage = self.stage.clone();
        let writer = self.writer();
        writer
            .write_all(tail.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| io_err(&stage, e))?;
        // Close the stage file before renaming it onto the target.
        self.writer = None;
        fs::rename(&self.stage, &self.path).map_err(|e| io_err(&self.path, e))
    }
}

impl<R> Drop for JsonFileSink<R> {
    fn drop(&mut self) {
        // Not finished (failed or interrupted sweep): discard the stage file,
        // leaving whatever was previously published at `path` intact.
        if self.writer.take().is_some() {
            let _ = fs::remove_file(&self.stage);
        }
    }
}

/// Append-friendly JSON Lines sink: one compact record per line, flushed at
/// every shard boundary so each flushed line is final and the file is always
/// a valid prefix of the full output. A record that arrives with its JSON
/// ([`accept_rendered`](RecordSink::accept_rendered)) is written as given,
/// not rendered again.
#[derive(Debug)]
pub struct JsonlSink<R = SweepRecord> {
    path: PathBuf,
    writer: BufWriter<fs::File>,
    _record: PhantomData<fn(R)>,
}

impl<R> JsonlSink<R> {
    /// Creates (truncating) the output file.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = fs::File::create(&path).map_err(|e| io_err(&path, e))?;
        Ok(Self {
            path,
            writer: BufWriter::new(file),
            _record: PhantomData,
        })
    }

    /// Opens the output file for appending (creating it if missing) — the
    /// resume path: new records continue after an interrupted sweep's
    /// already-flushed prefix instead of clobbering it.
    ///
    /// # Errors
    ///
    /// Propagates file-open errors.
    pub fn append(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        Ok(Self {
            path,
            writer: BufWriter::new(file),
            _record: PhantomData,
        })
    }
}

impl<R: Serialize> RecordSink<R> for JsonlSink<R> {
    fn accept(&mut self, record: R) -> Result<()> {
        let json = serde_json::to_string(&record)?;
        self.accept_rendered(record, &json)
    }

    fn accept_rendered(&mut self, _record: R, json: &str) -> Result<()> {
        self.writer
            .write_all(json.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| io_err(&self.path, e))
    }

    fn flush_shard(&mut self) -> Result<()> {
        self.writer.flush().map_err(|e| io_err(&self.path, e))
    }

    fn sync(&mut self) -> Result<()> {
        self.writer
            .flush()
            .and_then(|()| self.writer.get_ref().sync_all())
            .map_err(|e| io_err(&self.path, e))
    }

    fn finish(&mut self) -> Result<()> {
        self.writer.flush().map_err(|e| io_err(&self.path, e))
    }
}

/// Streaming CSV sink with the record type's [`CsvRecord`] columns, flushed
/// at every shard boundary; for sweep records, byte-identical to
/// [`to_csv`](crate::to_csv) of the full record list.
#[derive(Debug)]
pub struct CsvSink<R = SweepRecord> {
    path: PathBuf,
    writer: BufWriter<fs::File>,
    _record: PhantomData<fn(R)>,
}

impl<R: CsvRecord> CsvSink<R> {
    /// Creates (truncating) the output file and writes the header line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = fs::File::create(&path).map_err(|e| io_err(&path, e))?;
        let mut writer = BufWriter::new(file);
        writer
            .write_all(R::csv_header().as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .map_err(|e| io_err(&path, e))?;
        Ok(Self {
            path,
            writer,
            _record: PhantomData,
        })
    }
}

impl<R: CsvRecord> RecordSink<R> for CsvSink<R> {
    fn accept(&mut self, record: R) -> Result<()> {
        let mut row = record.csv_line();
        row.push('\n');
        self.writer
            .write_all(row.as_bytes())
            .map_err(|e| io_err(&self.path, e))
    }

    fn flush_shard(&mut self) -> Result<()> {
        self.writer.flush().map_err(|e| io_err(&self.path, e))
    }

    fn sync(&mut self) -> Result<()> {
        self.writer
            .flush()
            .and_then(|()| self.writer.get_ref().sync_all())
            .map_err(|e| io_err(&self.path, e))
    }

    fn finish(&mut self) -> Result<()> {
        self.writer.flush().map_err(|e| io_err(&self.path, e))
    }
}

/// Fans records out to several sinks (e.g. JSON + CSV + JSONL in one sweep).
pub struct MultiSink<R = SweepRecord> {
    sinks: Vec<Box<dyn RecordSink<R>>>,
}

// Manual impl: deriving `Default` would demand `R: Default` even though an
// empty fan-out needs no such bound.
impl<R> Default for MultiSink<R> {
    fn default() -> Self {
        Self { sinks: Vec::new() }
    }
}

impl<R> MultiSink<R> {
    /// An empty fan-out (accepts and drops everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sink to the fan-out.
    #[must_use]
    pub fn with(mut self, sink: Box<dyn RecordSink<R>>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Adds a sink to the fan-out.
    pub fn push(&mut self, sink: Box<dyn RecordSink<R>>) {
        self.sinks.push(sink);
    }

    /// Number of sinks in the fan-out.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether the fan-out holds no sinks.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl<R: Clone> RecordSink<R> for MultiSink<R> {
    fn accept(&mut self, record: R) -> Result<()> {
        if let Some((last, rest)) = self.sinks.split_last_mut() {
            for sink in rest {
                sink.accept(record.clone())?;
            }
            last.accept(record)?;
        }
        Ok(())
    }

    fn accept_rendered(&mut self, record: R, json: &str) -> Result<()> {
        if let Some((last, rest)) = self.sinks.split_last_mut() {
            for sink in rest {
                sink.accept_rendered(record.clone(), json)?;
            }
            last.accept_rendered(record, json)?;
        }
        Ok(())
    }

    fn flush_shard(&mut self) -> Result<()> {
        for sink in &mut self.sinks {
            sink.flush_shard()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        for sink in &mut self.sinks {
            sink.sync()?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        for sink in &mut self.sinks {
            sink.finish()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{read_json, read_jsonl, to_csv, write_json};
    use crate::spec::SweepSpec;
    use std::collections::BTreeMap;

    fn dummy_record(index: usize, energy_uj: f64) -> SweepRecord {
        let mut point = SweepSpec::new("s").expand().unwrap().remove(0);
        point.index = index;
        SweepRecord {
            point,
            energy_uj,
            cycles: 10,
            time_ms: 0.25,
            power_w: 2.0,
            area_mm2: 0.5,
            edp_uj_ms: energy_uj * 0.25,
            glb_blocks: 1,
            energy_by_kind_uj: BTreeMap::from([("Laser".to_string(), energy_uj / 4.0)]),
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("simphony-sink-{name}-{}", std::process::id()))
    }

    fn drive(sink: &mut dyn RecordSink, records: &[SweepRecord]) {
        for (i, record) in records.iter().enumerate() {
            sink.accept(record.clone()).unwrap();
            if i % 2 == 1 {
                sink.flush_shard().unwrap();
            }
        }
        sink.finish().unwrap();
    }

    #[test]
    fn json_file_sink_is_byte_identical_to_write_json() {
        let records: Vec<SweepRecord> = (0..3).map(|i| dummy_record(i, 1.0 + i as f64)).collect();
        let streamed = scratch("streamed.json");
        let batch = scratch("batch.json");
        let mut sink = JsonFileSink::create(&streamed).unwrap();
        drive(&mut sink, &records);
        write_json(&batch, &records).unwrap();
        assert_eq!(
            std::fs::read(&streamed).unwrap(),
            std::fs::read(&batch).unwrap(),
            "streamed pretty JSON must match the batch writer byte for byte"
        );
        assert_eq!(read_json(&streamed).unwrap(), records);
        std::fs::remove_file(&streamed).ok();
        std::fs::remove_file(&batch).ok();
    }

    #[test]
    fn empty_json_file_sink_writes_an_empty_array() {
        let path = scratch("empty.json");
        let mut sink: JsonFileSink = JsonFileSink::create(&path).unwrap();
        sink.finish().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[]\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unfinished_json_file_sink_preserves_the_previous_output() {
        // A failing sweep drops the sink without finish(): the previously
        // published file must survive and the staging file must be cleaned up.
        let path = scratch("preserved.json");
        let old = vec![dummy_record(0, 9.0)];
        write_json(&path, &old).unwrap();
        {
            let mut sink = JsonFileSink::create(&path).unwrap();
            sink.accept(dummy_record(1, 1.0)).unwrap();
            sink.flush_shard().unwrap();
            // Dropped here without finish(), as the executor does on a
            // fail-fast error.
        }
        assert_eq!(read_json(&path).unwrap(), old, "old output clobbered");
        let dir = path.parent().unwrap();
        let stray = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(std::result::Result::ok)
            .any(|e| {
                let name = e.file_name();
                name.to_string_lossy()
                    .starts_with("simphony-sink-preserved")
                    && name.to_string_lossy().ends_with(".tmp")
            });
        assert!(!stray, "staging file must not outlive the sink");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_sink_is_byte_identical_to_to_csv() {
        let records: Vec<SweepRecord> = (0..3).map(|i| dummy_record(i, 0.5 * i as f64)).collect();
        let path = scratch("rows.csv");
        let mut sink = CsvSink::create(&path).unwrap();
        drive(&mut sink, &records);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), to_csv(&records));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_round_trips_and_flushes_whole_lines() {
        let records: Vec<SweepRecord> = (0..4).map(|i| dummy_record(i, 1.0)).collect();
        let path = scratch("lines.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        for record in &records[..2] {
            sink.accept(record.clone()).unwrap();
        }
        sink.flush_shard().unwrap();
        // After a shard flush the file is a valid prefix: whole lines only.
        let prefix = read_jsonl(&path).unwrap();
        assert_eq!(prefix, records[..2]);
        for record in &records[2..] {
            sink.accept(record.clone()).unwrap();
        }
        sink.finish().unwrap();
        assert_eq!(read_jsonl(&path).unwrap(), records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multi_sink_feeds_every_target() {
        let records: Vec<SweepRecord> = (0..2).map(|i| dummy_record(i, 2.0)).collect();
        let json = scratch("multi.json");
        let csv = scratch("multi.csv");
        let mut multi = MultiSink::new()
            .with(Box::new(JsonFileSink::create(&json).unwrap()))
            .with(Box::new(CsvSink::create(&csv).unwrap()));
        assert_eq!(multi.len(), 2);
        drive(&mut multi, &records);
        assert_eq!(read_json(&json).unwrap(), records);
        assert_eq!(std::fs::read_to_string(&csv).unwrap(), to_csv(&records));
        std::fs::remove_file(&json).ok();
        std::fs::remove_file(&csv).ok();
    }
}
