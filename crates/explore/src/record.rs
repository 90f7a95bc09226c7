//! Sweep result records and their JSON/CSV renderings.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

use simphony::SimulationReport;

use crate::error::{ExploreError, Result};
use crate::spec::SweepPoint;

/// The metrics extracted from one simulated sweep point.
///
/// Records are plain data: every field a Pareto objective or a plot axis
/// could want, flattened out of the full [`SimulationReport`] so record files
/// stay small and stable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRecord {
    /// The configuration that produced these metrics.
    pub point: SweepPoint,
    /// Total energy in microjoules.
    pub energy_uj: f64,
    /// Total execution cycles.
    pub cycles: u64,
    /// Total execution time in milliseconds.
    pub time_ms: f64,
    /// Average power in watts.
    pub power_w: f64,
    /// Chip area in square millimetres.
    pub area_mm2: f64,
    /// Energy-delay product in microjoule-milliseconds.
    pub edp_uj_ms: f64,
    /// Global-buffer blocks selected to meet the bandwidth demand.
    pub glb_blocks: usize,
    /// Energy per device-kind label, microjoules.
    pub energy_by_kind_uj: BTreeMap<String, f64>,
}

impl SweepRecord {
    /// Flattens a simulation report into a record for `point`.
    pub fn from_report(point: SweepPoint, report: &SimulationReport) -> Self {
        let energy_uj = report.total_energy.microjoules();
        let time_ms = report.total_time.milliseconds();
        Self {
            point,
            energy_uj,
            cycles: report.total_cycles,
            time_ms,
            power_w: report.average_power.watts(),
            area_mm2: report.area.total.square_millimeters(),
            edp_uj_ms: energy_uj * time_ms,
            glb_blocks: report.glb_blocks,
            energy_by_kind_uj: report
                .energy_by_kind
                .iter()
                .map(|(kind, energy)| (kind.label().to_string(), energy.microjoules()))
                .collect(),
        }
    }
}

/// A record type with a fixed-column CSV rendering, as consumed by the
/// streaming CSV sink. Implementations must escape textual fields with
/// [`csv_escape`] so free-form labels cannot corrupt the file.
pub trait CsvRecord {
    /// The header line naming every column (no trailing newline).
    fn csv_header() -> &'static str;

    /// One CSV line for this record (no trailing newline), matching
    /// [`csv_header`](Self::csv_header)'s columns.
    fn csv_line(&self) -> String;
}

impl CsvRecord for SweepRecord {
    fn csv_header() -> &'static str {
        CSV_HEADER
    }

    fn csv_line(&self) -> String {
        csv_row(self)
    }
}

/// Header of [`to_csv`] output.
pub const CSV_HEADER: &str = "index,workload,arch,tiles,cores_per_tile,core_height,core_width,\
wavelengths,bits,sparsity,dataflow,data_awareness,energy_uj,cycles,time_ms,power_w,area_mm2,\
edp_uj_ms,glb_blocks";

/// Escapes one CSV field per RFC 4180: a field containing a comma, double
/// quote, or line break is wrapped in double quotes with embedded quotes
/// doubled. Clean fields pass through byte-identical, so existing CSV output
/// (whose labels are all clean) is unchanged.
pub fn csv_escape(field: &str) -> std::borrow::Cow<'_, str> {
    if field.contains([',', '"', '\n', '\r']) {
        let mut quoted = String::with_capacity(field.len() + 2);
        quoted.push('"');
        for c in field.chars() {
            if c == '"' {
                quoted.push('"');
            }
            quoted.push(c);
        }
        quoted.push('"');
        std::borrow::Cow::Owned(quoted)
    } else {
        std::borrow::Cow::Borrowed(field)
    }
}

/// Renders one record as a CSV line (no trailing newline), matching
/// [`CSV_HEADER`]'s columns. Shared by [`to_csv`] and the streaming CSV sink
/// so batch and per-shard output stay byte-identical. Textual columns go
/// through [`csv_escape`], so a label containing a comma cannot shift the
/// columns of every row after it.
pub fn csv_row(r: &SweepRecord) -> String {
    let p = &r.point;
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        p.index,
        csv_escape(&p.workload.label()),
        csv_escape(&p.arch.to_string()),
        p.tiles,
        p.cores_per_tile,
        p.core_height,
        p.core_width,
        p.wavelengths,
        p.bits,
        p.sparsity,
        csv_escape(&p.dataflow.to_string()),
        csv_escape(&p.data_awareness.to_string()),
        r.energy_uj,
        r.cycles,
        r.time_ms,
        r.power_w,
        r.area_mm2,
        r.edp_uj_ms,
        r.glb_blocks,
    )
}

/// Renders records as CSV (fixed columns; the per-kind energy map is omitted).
pub fn to_csv(records: &[SweepRecord]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for r in records {
        let _ = writeln!(out, "{}", csv_row(r));
    }
    out
}

/// Writes records to `path` as pretty-printed JSON.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_json(path: impl AsRef<Path>, records: &[SweepRecord]) -> Result<()> {
    let text = serde_json::to_string_pretty(records)?;
    fs::write(&path, text + "\n").map_err(|e| ExploreError::io_at(&path, e))?;
    Ok(())
}

/// Reads records back from a JSON file written by [`write_json`].
///
/// # Errors
///
/// Propagates file-system and JSON-shape errors.
pub fn read_json(path: impl AsRef<Path>) -> Result<Vec<SweepRecord>> {
    let text = fs::read_to_string(&path).map_err(|e| ExploreError::io_at(&path, e))?;
    Ok(serde_json::from_str(&text)?)
}

/// Writes records to `path` as JSON Lines (one compact record per line).
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_jsonl(path: impl AsRef<Path>, records: &[SweepRecord]) -> Result<()> {
    let mut text = String::new();
    for record in records {
        text.push_str(&serde_json::to_string(record)?);
        text.push('\n');
    }
    fs::write(&path, text).map_err(|e| ExploreError::io_at(&path, e))?;
    Ok(())
}

/// Reads records back from a JSON Lines file written by [`write_jsonl`] or
/// the streaming JSONL sink. Blank lines are skipped, so concatenated or
/// hand-truncated shard outputs still parse.
///
/// # Errors
///
/// Propagates file-system and JSON-shape errors.
pub fn read_jsonl(path: impl AsRef<Path>) -> Result<Vec<SweepRecord>> {
    let text = fs::read_to_string(&path).map_err(|e| ExploreError::io_at(&path, e))?;
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| Ok(serde_json::from_str(line)?))
        .collect()
}

/// Reads records from either supported file format, sniffing the content: a
/// file whose first non-whitespace byte is `[` is parsed as a pretty/compact
/// JSON array ([`read_json`]), anything else as JSON Lines ([`read_jsonl`]).
/// This lets `simphony-cli pareto` consume streamed `--jsonl` outputs
/// directly.
///
/// # Errors
///
/// Propagates file-system and JSON-shape errors.
pub fn read_records(path: impl AsRef<Path>) -> Result<Vec<SweepRecord>> {
    read_records_as(path)
}

/// Generic form of [`read_records`]: the same array-vs-JSONL content sniff,
/// deserializing into any record type (sweep records, serving records from
/// `simphony-traffic`, …).
///
/// # Errors
///
/// Propagates file-system and JSON-shape errors.
pub fn read_records_as<R: Deserialize>(path: impl AsRef<Path>) -> Result<Vec<R>> {
    let text = fs::read_to_string(&path).map_err(|e| ExploreError::io_at(&path, e))?;
    if text.trim_start().starts_with('[') {
        Ok(serde_json::from_str(&text)?)
    } else {
        text.lines()
            .filter(|line| !line.trim().is_empty())
            .map(|line| Ok(serde_json::from_str(line)?))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn dummy_record(index: usize, energy_uj: f64) -> SweepRecord {
        let mut point = SweepSpec::new("t").expand().unwrap().remove(0);
        point.index = index;
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

    #[test]
    fn csv_has_one_line_per_record_plus_header() {
        let records = vec![dummy_record(0, 1.0), dummy_record(1, 2.0)];
        let csv = to_csv(&records);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("index,workload,arch"));
        assert!(lines[1].starts_with("0,gemm280x28x280,tempo,2,2,4,4,1,8,0,"));
    }

    #[test]
    fn csv_escaping_quotes_dirty_fields_and_passes_clean_ones_through() {
        // Clean labels must come through byte-identical (golden CSV files
        // depend on it); fields carrying a comma, quote, or newline must be
        // quoted per RFC 4180 or they shift every column after them.
        assert_eq!(csv_escape("gemm280x28x280"), "gemm280x28x280");
        assert!(matches!(
            csv_escape("clean"),
            std::borrow::Cow::Borrowed("clean")
        ));
        assert_eq!(csv_escape("fleet,hetero"), "\"fleet,hetero\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("two\nlines"), "\"two\nlines\"");
        assert_eq!(csv_escape("cr\rhere"), "\"cr\rhere\"");
    }

    #[test]
    fn comma_bearing_labels_do_not_shift_csv_columns() {
        // Regression: before RFC-4180 quoting, a comma inside a textual
        // column was emitted raw and every later field landed one column
        // over. The sweep schema's labels are enum-generated (clean), so the
        // property is checked through the shared escape on a dirty label and
        // through the row renderer on a clean record.
        let row = csv_row(&dummy_record(0, 1.0));
        assert_eq!(
            row.split(',').count(),
            CSV_HEADER.split(',').count(),
            "clean rows keep one field per header column"
        );
        let dirty = format!("{},{},{}", 7, csv_escape("gemm,wide"), 1.5);
        // A quoted field is one RFC-4180 field: splitting on unquoted commas
        // only (toy parser below) must recover exactly three fields.
        let mut fields = 0;
        let mut in_quotes = false;
        for c in dirty.chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => fields += 1,
                _ => {}
            }
        }
        assert_eq!(fields + 1, 3, "comma-bearing label stays one field");
        assert!(dirty.contains("\"gemm,wide\""));
    }

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![dummy_record(0, 1.25)];
        let text = serde_json::to_string(&records).unwrap();
        let back: Vec<SweepRecord> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn read_records_sniffs_json_arrays_and_jsonl() {
        let records = vec![dummy_record(0, 1.25), dummy_record(1, 2.5)];
        let json =
            std::env::temp_dir().join(format!("simphony-record-sniff-{}.json", std::process::id()));
        let jsonl = std::env::temp_dir().join(format!(
            "simphony-record-sniff-{}.jsonl",
            std::process::id()
        ));
        write_json(&json, &records).unwrap();
        write_jsonl(&jsonl, &records).unwrap();
        assert_eq!(read_records(&json).unwrap(), records, "pretty JSON array");
        assert_eq!(read_records(&jsonl).unwrap(), records, "JSON lines");
        // Leading whitespace before the array must not confuse the sniff.
        let padded = std::env::temp_dir().join(format!(
            "simphony-record-sniff-pad-{}.json",
            std::process::id()
        ));
        let text = format!("\n  {}", std::fs::read_to_string(&json).unwrap());
        std::fs::write(&padded, text).unwrap();
        assert_eq!(read_records(&padded).unwrap(), records);
        for path in [json, jsonl, padded] {
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn records_round_trip_through_jsonl_files() {
        let records = vec![dummy_record(0, 1.25), dummy_record(1, 2.5)];
        let path = std::env::temp_dir().join(format!(
            "simphony-record-jsonl-{}.jsonl",
            std::process::id()
        ));
        write_jsonl(&path, &records).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "one compact line per record");
        assert_eq!(read_jsonl(&path).unwrap(), records);
        std::fs::remove_file(&path).ok();
    }
}
