//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Every line is a complete JSON document. The server speaks first with a
//! [`hello_frame`]; after that the client sends one *request* object per
//! line and reads frames until a terminal one arrives.
//!
//! # Requests
//!
//! A request is a JSON object with a `kind` field:
//!
//! ```text
//! {"kind":"ping"}
//! {"kind":"shutdown"}
//! {"kind":"run","spec":{...SweepSpec...}}
//! {"kind":"sweep","spec":{...SweepSpec...},"chunk_size":64,"keep_going":true,"max_points":1000}
//! {"kind":"serve-sim","spec":{...ServingSpec...},"chunk_size":64}
//! {"kind":"pareto","records":[...],"objectives":"energy,latency"}
//! {"kind":"cache-stats"}
//! {"kind":"compute-shard","spec":{...SweepSpec...},"shard":3,"start":48,"end":64}
//! ```
//!
//! An optional `"version": N` field pins the protocol; a mismatch is
//! rejected as a usage error before any work is admitted.
//!
//! # Responses
//!
//! *Record lines* are bare serialized [`SweepRecord`]/`ServingRecord`
//! documents — byte-identical to what the CLI's `--jsonl` sink writes,
//! streamed and flushed per shard. Record schemas never carry a `frame`
//! key, so *control frames* (objects whose first key is `"frame"`) are
//! unambiguous:
//!
//! ```text
//! {"frame":"hello","protocol":1,"server":"simphony-serve/0.1.0"}
//! {"frame":"pong","protocol":1}
//! {"frame":"bye"}
//! {"frame":"report","text":"..."}                       // `run` output, JSON-escaped
//! {"frame":"failure","index":3,"label":"...","error":"..."}
//! {"frame":"cache-stats","backend":{...}|null,"artifacts":{...}}
//! {"frame":"part","meta":{...ShardCheckpoint...}}          // `compute-shard` header
//! ```
//!
//! A `compute-shard` response carries one computed shard: the `part` frame
//! holds the shard-local
//! [`ShardCheckpoint`](simphony_explore::ShardCheckpoint) meta, followed by
//! exactly `meta.emitted` bare record lines — the bytes a `--jsonl` output
//! holds for those points — and then the terminal summary:
//!
//! ```text
//! {"frame":"summary","kind":"sweep","exit_code":0,...}  // terminal, per request
//! {"frame":"error","exit_code":1|2,"message":"..."}     // terminal, per request
//! ```
//!
//! Every request terminates with exactly one `summary` or `error` frame
//! whose `exit_code` follows the CLI contract: 0 clean, 1 hard error,
//! 2 usage error, 3 completed with recorded point failures.
//!
//! [`SweepRecord`]: simphony_explore::SweepRecord

use serde_json::Value;
use simphony_explore::{ArtifactStoreStats, BackendStats, StreamOutcome, SweepSpec};
use simphony_traffic::ServingSpec;

/// Version of the wire protocol. Carried by the [`hello_frame`] and by
/// `pong`; requests may pin it with a `"version"` field.
pub const PROTOCOL_VERSION: u64 = 1;

/// Exit code carried by a clean summary frame.
pub const EXIT_OK: u8 = 0;
/// Exit code carried by a hard-error frame (simulation/cache/sink failure,
/// or the admission queue was full).
pub const EXIT_HARD: u8 = 1;
/// Exit code carried by a usage-error frame (malformed request, unknown
/// kind, protocol-version mismatch, over-budget point count).
pub const EXIT_USAGE: u8 = 2;
/// Exit code carried by the summary of a `keep_going` sweep that completed
/// but recorded point failures — the same contract as the CLI's exit 3.
pub const EXIT_RECORDED_FAILURES: u8 = 3;

/// One parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe; answered with a `pong` frame.
    Ping,
    /// Graceful shutdown: answered with a `bye` frame, then the server
    /// stops accepting connections and drains in-flight work.
    Shutdown,
    /// Simulate a single configuration (the spec must expand to exactly one
    /// point) and return the rendered report.
    Run {
        /// The one-point sweep describing the configuration.
        spec: SweepSpec,
    },
    /// Run a design-space sweep, streaming records back per shard.
    Sweep {
        /// The sweep to run.
        spec: SweepSpec,
        /// Points per shard (`None` = server default).
        chunk_size: Option<usize>,
        /// Record failing points instead of aborting.
        keep_going: bool,
        /// Client-side point budget; the effective budget is the smaller of
        /// this and the server's cap.
        max_points: Option<usize>,
    },
    /// Run a queueing-level serving sweep, streaming records per shard.
    ServeSim {
        /// The serving sweep to run.
        spec: ServingSpec,
        /// Points per shard (`None` = server default).
        chunk_size: Option<usize>,
    },
    /// Extract the Pareto frontier from records supplied inline.
    Pareto {
        /// The records, as a JSON array (sweep or serving records —
        /// discriminated by the `p99_ms` field like the CLI does).
        records: Value,
        /// Comma-separated minimization objectives.
        objectives: String,
    },
    /// Report result-cache and resident-artifact-store statistics.
    CacheStats,
    /// Compute one sweep shard and stream back its part (the `part` frame
    /// plus bare record lines) — the worker side of a
    /// distributed sweep. Idempotent: shard bytes are a deterministic pure
    /// function of `(spec, shard range)`, so a coordinator may re-dispatch
    /// or replay the request freely.
    ComputeShard {
        /// The full sweep the shard belongs to (workers expand lazily; only
        /// `start..end` is simulated).
        spec: SweepSpec,
        /// Shard index, stamped into the returned meta.
        shard: usize,
        /// First point of the shard (inclusive), in expansion order.
        start: usize,
        /// One past the last point of the shard.
        end: usize,
    },
}

/// A request that could not be parsed or validated: carries the exit code
/// its error frame should report.
#[derive(Debug)]
pub struct RequestError {
    /// Exit code for the error frame ([`EXIT_USAGE`] for everything a
    /// client did wrong).
    pub exit_code: u8,
    /// Human-readable explanation.
    pub message: String,
}

impl RequestError {
    fn usage(message: impl Into<String>) -> Self {
        RequestError {
            exit_code: EXIT_USAGE,
            message: message.into(),
        }
    }
}

fn spec_field<T: serde::Deserialize>(value: &Value, what: &str) -> Result<T, RequestError> {
    let spec = value
        .get("spec")
        .ok_or_else(|| RequestError::usage(format!("`{what}` request is missing `spec`")))?;
    serde_json::from_value(spec).map_err(|e| RequestError::usage(format!("bad `spec`: {e}")))
}

fn usize_field(value: &Value, key: &str) -> Result<Option<usize>, RequestError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => {
            let n = v.as_u64().ok_or_else(|| {
                RequestError::usage(format!("`{key}` must be an unsigned integer"))
            })?;
            Ok(Some(n as usize))
        }
    }
}

/// Parses one request line. Every failure is a usage error (exit code 2):
/// the client sent something the protocol does not admit.
///
/// # Errors
///
/// Returns a [`RequestError`] describing what was malformed.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let value: Value = serde_json::from_str(line)
        .map_err(|e| RequestError::usage(format!("request is not valid JSON: {e}")))?;
    if value.as_map().is_none() {
        return Err(RequestError::usage("request must be a JSON object"));
    }
    if let Some(version) = value.get("version") {
        let version = version
            .as_u64()
            .ok_or_else(|| RequestError::usage("`version` must be an unsigned integer"))?;
        if version != PROTOCOL_VERSION {
            return Err(RequestError::usage(format!(
                "protocol version mismatch: client speaks {version}, server speaks \
                 {PROTOCOL_VERSION}"
            )));
        }
    }
    let kind = value
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| RequestError::usage("request is missing the `kind` field"))?;
    match kind {
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "run" => Ok(Request::Run {
            spec: spec_field(&value, "run")?,
        }),
        "sweep" => Ok(Request::Sweep {
            spec: spec_field(&value, "sweep")?,
            chunk_size: usize_field(&value, "chunk_size")?,
            keep_going: value
                .get("keep_going")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            max_points: usize_field(&value, "max_points")?,
        }),
        "serve-sim" => Ok(Request::ServeSim {
            spec: spec_field(&value, "serve-sim")?,
            chunk_size: usize_field(&value, "chunk_size")?,
        }),
        "pareto" => {
            let records = value
                .get("records")
                .ok_or_else(|| RequestError::usage("`pareto` request is missing `records`"))?;
            if records.as_array().is_none() {
                return Err(RequestError::usage("`records` must be a JSON array"));
            }
            let objectives = value
                .get("objectives")
                .and_then(Value::as_str)
                .unwrap_or("energy,latency")
                .to_string();
            Ok(Request::Pareto {
                records: records.clone(),
                objectives,
            })
        }
        "cache-stats" => Ok(Request::CacheStats),
        "compute-shard" => {
            let require = |key: &str| {
                usize_field(&value, key)?.ok_or_else(|| {
                    RequestError::usage(format!("`compute-shard` request is missing `{key}`"))
                })
            };
            Ok(Request::ComputeShard {
                spec: spec_field(&value, "compute-shard")?,
                shard: require("shard")?,
                start: require("start")?,
                end: require("end")?,
            })
        }
        other => Err(RequestError::usage(format!(
            "unknown request kind `{other}` (expected ping, shutdown, run, sweep, \
             serve-sim, pareto, cache-stats, or compute-shard)"
        ))),
    }
}

/// JSON-escapes a string for embedding in a hand-formatted frame.
fn json_str(text: &str) -> String {
    serde_json::to_string(&text).expect("strings always serialize")
}

/// The greeting the server writes on every fresh connection.
pub fn hello_frame() -> String {
    format!(
        "{{\"frame\":\"hello\",\"protocol\":{PROTOCOL_VERSION},\"server\":{}}}",
        json_str(concat!("simphony-serve/", env!("CARGO_PKG_VERSION"))),
    )
}

/// Answer to a `ping` request.
pub fn pong_frame() -> String {
    format!("{{\"frame\":\"pong\",\"protocol\":{PROTOCOL_VERSION}}}")
}

/// Answer to a `shutdown` request, written before the server drains.
pub fn bye_frame() -> String {
    "{\"frame\":\"bye\"}".to_string()
}

/// Terminal frame for a failed request.
pub fn error_frame(exit_code: u8, message: &str) -> String {
    format!(
        "{{\"frame\":\"error\",\"exit_code\":{exit_code},\"message\":{}}}",
        json_str(message),
    )
}

/// The `run` report payload: the exact bytes the CLI's `run` verb prints to
/// stdout, JSON-escaped into one frame.
pub fn report_frame(text: &str) -> String {
    format!("{{\"frame\":\"report\",\"text\":{}}}", json_str(text))
}

/// One recorded point failure of a `keep_going` sweep, mirrored onto the
/// stream before the summary (the CLI prints these as warnings on stderr).
pub fn failure_frame(index: usize, label: &str, error: &str) -> String {
    format!(
        "{{\"frame\":\"failure\",\"index\":{index},\"label\":{},\"error\":{}}}",
        json_str(label),
        json_str(error),
    )
}

/// Terminal frame of a completed sweep: the same counts as
/// [`StreamOutcome`], plus the exit code the equivalent CLI invocation
/// would have returned (0 clean, 3 with recorded failures).
pub fn sweep_summary_frame(outcome: &StreamOutcome) -> String {
    let exit_code = if outcome.failures.is_empty() {
        EXIT_OK
    } else {
        EXIT_RECORDED_FAILURES
    };
    format!(
        "{{\"frame\":\"summary\",\"kind\":\"sweep\",\"exit_code\":{exit_code},\
         \"total_points\":{},\"skipped_points\":{},\"hits\":{},\"misses\":{},\
         \"failures\":{},\"replayed_failures\":{},\"shards\":{},\"cache_degraded\":{}}}",
        outcome.total_points,
        outcome.skipped_points,
        outcome.stats.hits,
        outcome.stats.misses,
        outcome.failures.len(),
        outcome.replayed_failures,
        outcome.shards,
        outcome.cache_degraded,
    )
}

/// Terminal frame of a completed `run` request.
pub fn run_summary_frame() -> String {
    format!("{{\"frame\":\"summary\",\"kind\":\"run\",\"exit_code\":{EXIT_OK}}}")
}

/// Terminal frame of a completed `serve-sim` request.
pub fn serving_summary_frame(points: usize, shards: usize) -> String {
    format!(
        "{{\"frame\":\"summary\",\"kind\":\"serve-sim\",\"exit_code\":{EXIT_OK},\
         \"points\":{points},\"shards\":{shards}}}"
    )
}

/// Terminal frame of a completed `pareto` request.
pub fn pareto_summary_frame(kept: usize, total: usize) -> String {
    format!(
        "{{\"frame\":\"summary\",\"kind\":\"pareto\",\"exit_code\":{EXIT_OK},\
         \"kept\":{kept},\"total\":{total}}}"
    )
}

/// Terminal frame of a `cache-stats` request.
pub fn cache_stats_summary_frame() -> String {
    format!("{{\"frame\":\"summary\",\"kind\":\"cache-stats\",\"exit_code\":{EXIT_OK}}}")
}

/// Header frame of a `compute-shard` response: the shard-local
/// [`ShardCheckpoint`](simphony_explore::ShardCheckpoint) meta as serialized
/// JSON, wrapped in a frame. The `meta.emitted` record lines that follow it
/// are the shard's `--jsonl` bytes.
pub fn part_frame(meta_json: &str) -> String {
    format!("{{\"frame\":\"part\",\"meta\":{meta_json}}}")
}

/// Terminal frame of a completed `compute-shard` request. Mirrors the sweep
/// contract: exit 0 when the shard computed cleanly, 3 when it recorded
/// point failures (which the meta line itemizes).
pub fn compute_shard_summary_frame(shard: usize, emitted: usize, failures: usize) -> String {
    let exit_code = if failures == 0 {
        EXIT_OK
    } else {
        EXIT_RECORDED_FAILURES
    };
    format!(
        "{{\"frame\":\"summary\",\"kind\":\"compute-shard\",\"exit_code\":{exit_code},\
         \"shard\":{shard},\"emitted\":{emitted},\"failures\":{failures}}}"
    )
}

/// The `cache-stats` payload: result-cache backend statistics (null when
/// the server runs without a cache) plus resident artifact-store counters.
pub fn cache_stats_frame(backend: Option<&BackendStats>, artifacts: &ArtifactStoreStats) -> String {
    let backend = match backend {
        Some(stats) => format!(
            "{{\"entries\":{},\"bytes\":{},\"segments\":{},\"shadowed\":{}}}",
            stats.entries, stats.bytes, stats.segments, stats.shadowed,
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\"frame\":\"cache-stats\",\"backend\":{backend},\"artifacts\":\
         {{\"entries\":{},\"bytes\":{},\"hits\":{},\"misses\":{},\"evictions\":{}}}}}",
        artifacts.entries, artifacts.bytes, artifacts.hits, artifacts.misses, artifacts.evictions,
    )
}

/// True when a response line is a control frame rather than a record line.
/// Record schemas ([`SweepRecord`](simphony_explore::SweepRecord),
/// `ServingRecord`) never serialize a `frame` key, so matching on the line
/// prefix is exact, not heuristic.
pub fn is_control_frame(line: &str) -> bool {
    line.starts_with("{\"frame\":")
}

/// True when a control frame terminates its request (`summary` or `error`).
pub fn is_terminal_frame(line: &str) -> bool {
    line.starts_with("{\"frame\":\"summary\"") || line.starts_with("{\"frame\":\"error\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        assert!(matches!(
            parse_request("{\"kind\":\"ping\"}"),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            parse_request("{\"kind\":\"shutdown\"}"),
            Ok(Request::Shutdown)
        ));
        assert!(matches!(
            parse_request("{\"kind\":\"cache-stats\"}"),
            Ok(Request::CacheStats)
        ));
        let spec_json = serde_json::to_string(&SweepSpec::new("s").with_wavelengths(vec![1, 2]))
            .expect("spec serializes");
        let sweep = parse_request(&format!(
            "{{\"kind\":\"sweep\",\"spec\":{spec_json},\"chunk_size\":8,\
             \"keep_going\":true,\"max_points\":100}}"
        ))
        .expect("parses");
        match sweep {
            Request::Sweep {
                spec,
                chunk_size,
                keep_going,
                max_points,
            } => {
                assert_eq!(spec.name, "s");
                assert_eq!(chunk_size, Some(8));
                assert!(keep_going);
                assert_eq!(max_points, Some(100));
            }
            other => panic!("wrong request: {other:?}"),
        }
        let shard_req = parse_request(&format!(
            "{{\"kind\":\"compute-shard\",\"spec\":{spec_json},\"shard\":3,\
             \"start\":48,\"end\":64}}"
        ))
        .expect("parses");
        match shard_req {
            Request::ComputeShard {
                spec,
                shard,
                start,
                end,
            } => {
                assert_eq!(spec.name, "s");
                assert_eq!((shard, start, end), (3, 48, 64));
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn usage_errors_carry_exit_code_2() {
        // A `run` request nested 100,000 levels deep: a parse error, not a
        // stack overflow that aborts the daemon.
        let deep = format!("{{\"kind\":\"run\",\"spec\":{}}}", "[".repeat(100_000));
        for bad in [
            "not json",
            "[1,2]",
            "{\"spec\":{}}",
            "{\"kind\":\"warp\"}",
            "{\"kind\":\"run\"}",
            "{\"kind\":\"sweep\",\"spec\":{\"name\":\"s\"}}",
            "{\"kind\":\"pareto\"}",
            "{\"kind\":\"ping\",\"version\":99}",
            "{\"kind\":\"compute-shard\",\"spec\":{\"name\":\"s\"},\"shard\":0,\"start\":0}",
            &deep,
        ] {
            let err = parse_request(bad).expect_err("must be rejected");
            assert_eq!(err.exit_code, EXIT_USAGE, "line: {bad}");
        }
    }

    #[test]
    fn version_pin_accepts_current() {
        assert!(matches!(
            parse_request("{\"kind\":\"ping\",\"version\":1}"),
            Ok(Request::Ping)
        ));
    }

    #[test]
    fn frames_are_valid_json_and_classified() {
        for frame in [
            hello_frame(),
            pong_frame(),
            bye_frame(),
            error_frame(EXIT_USAGE, "bad \"quoted\" thing\n"),
            report_frame("line one\nline two\n"),
            failure_frame(3, "p3", "boom"),
            run_summary_frame(),
            serving_summary_frame(4, 2),
            pareto_summary_frame(2, 10),
            cache_stats_summary_frame(),
            part_frame("{\"shard\":3,\"points\":16,\"hits\":0,\"misses\":16,\"emitted\":16,\"failures\":[],\"cache_degraded\":0}"),
            compute_shard_summary_frame(3, 16, 0),
            compute_shard_summary_frame(3, 14, 2),
        ] {
            let parsed: serde_json::Value = serde_json::from_str(&frame).expect("valid JSON");
            assert!(parsed.get("frame").is_some(), "frame: {frame}");
            assert!(is_control_frame(&frame), "frame: {frame}");
        }
        assert!(is_terminal_frame(&run_summary_frame()));
        assert!(is_terminal_frame(&error_frame(EXIT_HARD, "x")));
        assert!(is_terminal_frame(&compute_shard_summary_frame(0, 4, 0)));
        assert!(is_terminal_frame(&compute_shard_summary_frame(0, 3, 1)));
        assert!(!is_terminal_frame(&part_frame("{\"shard\":0}")));
        assert!(!is_terminal_frame(&pong_frame()));
        assert!(!is_control_frame("{\"arch\":\"tempo\"}"));
    }
}
