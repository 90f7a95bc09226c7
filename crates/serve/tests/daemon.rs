//! In-process daemon tests: byte-identity with the engine's own sinks,
//! concurrent-client determinism, admission control, warm-artifact reuse,
//! and the protocol's error/exit-code contract.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simphony::DataAwareness;
use simphony_explore::{
    pareto_front, read_jsonl, simulate_point, write_jsonl, CacheBackend, ExploreSession,
    FaultInjector, FaultKind, FaultPlan, FaultyCache, JsonlSink, Objective, PackedSegmentCache,
    RetryPolicy, SweepSpec,
};
use simphony_serve::{check, request, Client, ServeConfig, Server, MAX_REQUEST_LINE_BYTES};
use simphony_traffic::{run_serving_with, ServingSpec};

const TIMEOUT: Duration = Duration::from_secs(120);

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = format!(
        "simphony-daemon-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    let dir = std::env::temp_dir().join(unique);
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

fn ephemeral_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    }
}

/// A small sweep (6 points) exercising two axes.
fn small_spec() -> SweepSpec {
    SweepSpec::new("daemon-small")
        .with_wavelengths(vec![1, 2, 4])
        .with_bitwidth(vec![4, 8])
}

fn sweep_request_line(spec: &SweepSpec, chunk_size: usize) -> String {
    format!(
        "{{\"kind\":\"sweep\",\"spec\":{},\"chunk_size\":{chunk_size}}}",
        serde_json::to_string(spec).expect("spec serializes"),
    )
}

/// Splits a response into (record lines, control frames).
fn split_response(lines: &[String]) -> (Vec<String>, Vec<String>) {
    lines
        .iter()
        .cloned()
        .partition(|line| !line.starts_with("{\"frame\":"))
}

/// The `--jsonl` bytes the CLI would write for this spec (no cache).
fn jsonl_oracle(spec: &SweepSpec, dir: &std::path::Path) -> String {
    let path = dir.join("oracle.jsonl");
    let mut sink = JsonlSink::create(&path).expect("sink creates");
    ExploreSession::new(spec)
        .sink(&mut sink)
        .run()
        .expect("oracle sweep runs");
    drop(sink);
    std::fs::read_to_string(&path).expect("oracle reads")
}

fn frame_field_u64(frame: &str, path: &[&str]) -> u64 {
    let value: serde_json::Value = serde_json::from_str(frame).expect("frame parses");
    let mut cursor = &value;
    for key in path {
        cursor = cursor
            .get(key)
            .unwrap_or_else(|| panic!("frame has {path:?}: {frame}"));
    }
    cursor
        .as_u64()
        .unwrap_or_else(|| panic!("{path:?} is numeric: {frame}"))
}

#[test]
fn sweep_response_is_byte_identical_to_jsonl_sink_and_summary_is_clean() {
    let dir = scratch_dir("bytes");
    let spec = small_spec();
    let server = Server::start(ephemeral_config(), None).expect("server starts");
    let addr = server.local_addr().to_string();

    let lines = request(&addr, &sweep_request_line(&spec, 2), TIMEOUT).expect("sweep runs");
    let (records, frames) = split_response(&lines);
    let streamed = records.join("\n") + "\n";
    assert_eq!(streamed, jsonl_oracle(&spec, &dir));

    let summary = frames.last().expect("terminal frame");
    assert!(summary.starts_with("{\"frame\":\"summary\""), "{summary}");
    assert_eq!(frame_field_u64(summary, &["exit_code"]), 0);
    assert_eq!(frame_field_u64(summary, &["total_points"]), 6);
    assert_eq!(frame_field_u64(summary, &["shards"]), 3);

    server.shutdown();
    server.join();
}

#[test]
fn cached_daemon_sweeps_stay_byte_identical_and_turn_warm() {
    let dir = scratch_dir("cached");
    let spec = small_spec();
    let cache = PackedSegmentCache::open(dir.join("cache")).expect("cache opens");
    let server = Server::start(ephemeral_config(), Some(Arc::new(cache))).expect("server starts");
    let addr = server.local_addr().to_string();
    let oracle = jsonl_oracle(&spec, &dir);

    // Cold pass populates the shared cache; warm pass must be served from
    // it — and both must reproduce the CLI's bytes exactly.
    for pass in ["cold", "warm"] {
        let lines = request(&addr, &sweep_request_line(&spec, 2), TIMEOUT).expect("sweep runs");
        let (records, frames) = split_response(&lines);
        assert_eq!(records.join("\n") + "\n", oracle, "{pass} pass diverged");
        let summary = frames.last().expect("terminal frame");
        let hits = frame_field_u64(summary, &["hits"]);
        match pass {
            "cold" => assert_eq!(hits, 0, "{summary}"),
            _ => assert_eq!(hits, 6, "{summary}"),
        }
    }

    // The daemon's cache-stats frame sees the same store.
    let lines = request(&addr, "{\"kind\":\"cache-stats\"}", TIMEOUT).expect("stats");
    let stats = &lines[0];
    assert!(stats.starts_with("{\"frame\":\"cache-stats\""), "{stats}");
    assert_eq!(frame_field_u64(stats, &["backend", "entries"]), 6);
    assert!(frame_field_u64(stats, &["backend", "segments"]) >= 1);

    server.shutdown();
    server.join();
}

#[test]
fn concurrent_clients_receive_identical_deterministic_bytes() {
    let dir = scratch_dir("concurrent");
    let spec = small_spec();
    let oracle = jsonl_oracle(&spec, &dir);
    let server = Server::start(ephemeral_config(), None).expect("server starts");
    let addr = server.local_addr().to_string();

    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let addr = addr.clone();
                let spec = spec.clone();
                // Different chunk sizes across clients: record bytes must
                // not depend on shard geometry.
                scope.spawn(move || {
                    let line = sweep_request_line(&spec, [1, 2, 3, 6][i]);
                    let lines = request(&addr, &line, TIMEOUT).expect("sweep runs");
                    let (records, _) = split_response(&lines);
                    records.join("\n") + "\n"
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(
            response, &oracle,
            "client {i} diverged from the solo-CLI bytes"
        );
    }

    server.shutdown();
    server.join();
}

#[test]
fn run_report_matches_direct_simulation_and_artifacts_stay_warm() {
    let spec = SweepSpec::new("run").with_wavelengths(vec![2]);
    let point = spec.expand().expect("expands").remove(0);
    let expected = format!("{}\n", simulate_point(&point).expect("simulates"));

    let server = Server::start(ephemeral_config(), None).expect("server starts");
    let addr = server.local_addr().to_string();
    let line = format!(
        "{{\"kind\":\"run\",\"spec\":{}}}",
        serde_json::to_string(&spec).expect("spec serializes"),
    );

    for _ in 0..2 {
        let lines = request(&addr, &line, TIMEOUT).expect("run request");
        let report: serde_json::Value = serde_json::from_str(&lines[0]).expect("report frame");
        assert_eq!(report.get("frame").and_then(|v| v.as_str()), Some("report"));
        assert_eq!(
            report.get("text").and_then(|v| v.as_str()),
            Some(expected.as_str())
        );
        assert_eq!(
            frame_field_u64(lines.last().expect("summary"), &["exit_code"]),
            0
        );
    }

    // First request built the workload and the accelerator (2 misses);
    // the repeat was served from the resident store (2 hits, no rebuild).
    let lines = request(&addr, "{\"kind\":\"cache-stats\"}", TIMEOUT).expect("stats");
    assert_eq!(frame_field_u64(&lines[0], &["artifacts", "misses"]), 2);
    assert_eq!(frame_field_u64(&lines[0], &["artifacts", "hits"]), 2);
    assert_eq!(frame_field_u64(&lines[0], &["artifacts", "entries"]), 2);

    server.shutdown();
    server.join();
}

#[test]
fn aware_and_unaware_runs_never_share_a_resident_workload() {
    // One daemon, one resident artifact store. Each configuration is sent in
    // both modes, one configuration per order, so the first run of each pair
    // leaves its workload resident before the second asks: an unaware run
    // leaves a shape-only workload, which an aware run must never be served.
    let server = Server::start(ephemeral_config(), None).expect("server starts");
    let addr = server.local_addr().to_string();
    let orders = [
        (8, [DataAwareness::Aware, DataAwareness::Unaware]),
        (4, [DataAwareness::Unaware, DataAwareness::Aware]),
    ];
    for (bits, order) in orders {
        for awareness in order {
            let spec = SweepSpec::new("run-awareness")
                .with_wavelengths(vec![2])
                .with_bitwidth(vec![bits])
                .with_sparsity(vec![0.5])
                .with_data_awareness(vec![awareness]);
            let point = spec.expand().expect("expands").remove(0);
            let expected = format!("{}\n", simulate_point(&point).expect("simulates"));
            let line = format!(
                "{{\"kind\":\"run\",\"spec\":{}}}",
                serde_json::to_string(&spec).expect("spec serializes"),
            );
            let lines = request(&addr, &line, TIMEOUT).expect("run request");
            let report: serde_json::Value = serde_json::from_str(&lines[0]).expect("frame parses");
            assert_eq!(
                report.get("text").and_then(|v| v.as_str()),
                Some(expected.as_str()),
                "{bits}-bit {awareness} run: {}",
                lines[0]
            );
        }
    }
    // Four runs, four distinct workloads (a shared one would be a hit), and
    // one accelerator built once.
    let lines = request(&addr, "{\"kind\":\"cache-stats\"}", TIMEOUT).expect("stats");
    assert_eq!(frame_field_u64(&lines[0], &["artifacts", "misses"]), 5);
    assert_eq!(frame_field_u64(&lines[0], &["artifacts", "hits"]), 3);

    server.shutdown();
    server.join();
}

#[test]
fn serve_sim_response_is_byte_identical_to_jsonl_sink() {
    let dir = scratch_dir("serving");
    let spec = ServingSpec::new("daemon-serving")
        .with_offered_load(vec![500.0, 2000.0])
        .with_fleet_size(vec![1, 2]);

    let path = dir.join("oracle.jsonl");
    let mut sink = JsonlSink::create(&path).expect("sink creates");
    run_serving_with(&spec, &mut sink, 2).expect("oracle serving runs");
    drop(sink);
    let oracle = std::fs::read_to_string(&path).expect("oracle reads");

    let server = Server::start(ephemeral_config(), None).expect("server starts");
    let addr = server.local_addr().to_string();
    let line = format!(
        "{{\"kind\":\"serve-sim\",\"spec\":{},\"chunk_size\":2}}",
        serde_json::to_string(&spec).expect("spec serializes"),
    );
    let lines = request(&addr, &line, TIMEOUT).expect("serve-sim runs");
    let (records, frames) = split_response(&lines);
    assert_eq!(records.join("\n") + "\n", oracle);
    let summary = frames.last().expect("terminal frame");
    assert_eq!(frame_field_u64(summary, &["exit_code"]), 0);
    assert_eq!(frame_field_u64(summary, &["points"]), 4);

    server.shutdown();
    server.join();
}

#[test]
fn pareto_response_is_byte_identical_to_written_frontier() {
    let dir = scratch_dir("pareto");
    let spec = small_spec();
    let records = ExploreSession::new(&spec)
        .run_collect()
        .expect("sweep runs")
        .records;
    let objectives = [Objective::Energy, Objective::Latency];
    let front = pareto_front(&records, &objectives).expect("frontier extracts");
    let path = dir.join("front.jsonl");
    write_jsonl(&path, &front).expect("frontier writes");
    let oracle = std::fs::read_to_string(&path).expect("oracle reads");

    let server = Server::start(ephemeral_config(), None).expect("server starts");
    let addr = server.local_addr().to_string();
    let line = format!(
        "{{\"kind\":\"pareto\",\"records\":{},\"objectives\":\"energy,latency\"}}",
        serde_json::to_string(&records).expect("records serialize"),
    );
    let lines = request(&addr, &line, TIMEOUT).expect("pareto runs");
    let (streamed, frames) = split_response(&lines);
    assert_eq!(streamed.join("\n") + "\n", oracle);
    let summary = frames.last().expect("terminal frame");
    assert_eq!(frame_field_u64(summary, &["kept"]) as usize, front.len());
    assert_eq!(frame_field_u64(summary, &["total"]) as usize, records.len());

    server.shutdown();
    server.join();
}

/// A bulk-lane sweep: 180 points of the default workload.
fn bulk_spec() -> SweepSpec {
    SweepSpec::new("daemon-bulk")
        .with_wavelengths(vec![1, 2, 3, 4, 5, 6])
        .with_bitwidth(vec![2, 3, 4, 5, 6])
        .with_sparsity(vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
}

/// A fresh packed cache whose first counted operation — the bulk sweep's
/// first cache put, since `run` requests never touch the cache — sleeps
/// for two seconds. The sweep is then provably still in flight when a
/// request sent after a short head start lands, under any build profile.
fn held_bulk_cache(tag: &str) -> Arc<dyn CacheBackend> {
    let cache = PackedSegmentCache::open(scratch_dir(tag).join("cache")).expect("cache opens");
    let plan = FaultPlan::new(0).with_fault(0, FaultKind::Latency { ms: 2_000 });
    Arc::new(FaultyCache::new(Box::new(cache), FaultInjector::new(plan)))
}

#[test]
fn interactive_run_completes_while_bulk_sweep_is_in_flight() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        // The 180-point sweep lands in the bulk lane.
        bulk_threshold: 16,
        ..ServeConfig::default()
    };
    let server =
        Server::start(config, Some(held_bulk_cache("interactive"))).expect("server starts");
    let addr = server.local_addr().to_string();

    let sweep_done = Arc::new(AtomicBool::new(false));
    let sweep_flag = Arc::clone(&sweep_done);
    let sweep_addr = addr.clone();
    let sweeper = std::thread::spawn(move || {
        let line = sweep_request_line(&bulk_spec(), 4);
        let lines = request(&sweep_addr, &line, TIMEOUT).expect("bulk sweep runs");
        sweep_flag.store(true, Ordering::SeqCst);
        lines
    });

    // Give the bulk sweep a head start, then demand interactive service.
    std::thread::sleep(Duration::from_millis(50));
    let run_spec = SweepSpec::new("interactive").with_wavelengths(vec![1]);
    let line = format!(
        "{{\"kind\":\"run\",\"spec\":{}}}",
        serde_json::to_string(&run_spec).expect("spec serializes"),
    );
    let started = Instant::now();
    let lines = request(&addr, &line, TIMEOUT).expect("interactive run");
    let interactive_latency = started.elapsed();
    assert_eq!(
        frame_field_u64(lines.last().expect("summary"), &["exit_code"]),
        0
    );
    assert!(
        !sweep_done.load(Ordering::SeqCst),
        "bulk sweep already finished after {interactive_latency:?}, despite the held \
         cache put"
    );

    let sweep_lines = sweeper.join().expect("sweeper thread");
    let (records, _) = split_response(&sweep_lines);
    assert_eq!(records.len(), 180);

    server.shutdown();
    server.join();
}

#[test]
fn admission_bound_rejects_excess_work_but_keeps_answering_probes() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_pending: 1,
        bulk_threshold: 16,
        ..ServeConfig::default()
    };
    let server = Server::start(config, Some(held_bulk_cache("admission"))).expect("server starts");
    let addr = server.local_addr().to_string();

    let sweep_done = Arc::new(AtomicBool::new(false));
    let sweep_flag = Arc::clone(&sweep_done);
    let sweep_addr = addr.clone();
    let sweeper = std::thread::spawn(move || {
        let line = sweep_request_line(&bulk_spec(), 4);
        let lines = request(&sweep_addr, &line, TIMEOUT).expect("bulk sweep runs");
        sweep_flag.store(true, Ordering::SeqCst);
        lines
    });

    std::thread::sleep(Duration::from_millis(50));
    let run_spec = SweepSpec::new("rejected").with_wavelengths(vec![1]);
    let line = format!(
        "{{\"kind\":\"run\",\"spec\":{}}}",
        serde_json::to_string(&run_spec).expect("spec serializes"),
    );
    let mut saw_busy = false;
    while !sweep_done.load(Ordering::SeqCst) {
        let lines = request(&addr, &line, TIMEOUT).expect("request round-trips");
        let terminal = lines.last().expect("terminal frame");
        if terminal.starts_with("{\"frame\":\"error\"") {
            assert_eq!(frame_field_u64(terminal, &["exit_code"]), 1, "{terminal}");
            let value: serde_json::Value = serde_json::from_str(terminal).expect("parses");
            let message = value.get("message").and_then(|v| v.as_str()).unwrap_or("");
            assert!(message.contains("server busy"), "{terminal}");
            saw_busy = true;
            break;
        }
    }
    assert!(
        saw_busy,
        "bulk sweep finished before any request was rejected, despite the held cache put"
    );
    // Probes bypass admission even while the server is saturated.
    check(&addr, Duration::from_secs(5)).expect("health check succeeds under load");

    sweeper.join().expect("sweeper thread");
    server.shutdown();
    server.join();
}

#[test]
fn point_budget_rejects_oversized_sweeps_as_usage_errors() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_points: 4,
        ..ServeConfig::default()
    };
    let server = Server::start(config, None).expect("server starts");
    let addr = server.local_addr().to_string();

    // 6 points > server cap 4: rejected before any work runs.
    let lines = request(&addr, &sweep_request_line(&small_spec(), 2), TIMEOUT).expect("round-trip");
    assert_eq!(lines.len(), 1, "rejected before streaming: {lines:?}");
    assert!(lines[0].starts_with("{\"frame\":\"error\""), "{}", lines[0]);
    assert_eq!(frame_field_u64(&lines[0], &["exit_code"]), 2);

    // A client may lower the budget below the server cap, never raise it.
    let line = format!(
        "{{\"kind\":\"sweep\",\"spec\":{},\"max_points\":1000}}",
        serde_json::to_string(&small_spec()).expect("spec serializes"),
    );
    let lines = request(&addr, &line, TIMEOUT).expect("round-trip");
    assert_eq!(frame_field_u64(&lines[0], &["exit_code"]), 2);

    server.shutdown();
    server.join();
}

#[test]
fn malformed_requests_are_usage_errors_and_do_not_kill_the_connection() {
    let server = Server::start(ephemeral_config(), None).expect("server starts");
    let addr = server.local_addr().to_string();

    // 100,000 levels of nesting used to overflow the connection thread's
    // stack, aborting the whole daemon.
    let deep = format!("{{\"kind\":\"run\",\"spec\":{}}}", "[".repeat(100_000));
    for bad in [
        "this is not json",
        "{\"kind\":\"warp\"}",
        "{\"kind\":\"ping\",\"version\":99}",
        &deep,
    ] {
        let lines = request(&addr, bad, TIMEOUT).expect("round-trip");
        assert!(lines[0].starts_with("{\"frame\":\"error\""), "{}", lines[0]);
        assert_eq!(
            frame_field_u64(&lines[0], &["exit_code"]),
            2,
            "line: {bad:.80}"
        );
    }
    // The server is still healthy after rejecting garbage: a ping on a new
    // connection gets its pong.
    check(&addr, Duration::from_secs(5)).expect("health check succeeds");

    server.shutdown();
    server.join();
}

#[test]
fn an_over_long_request_line_is_refused_and_its_connection_closed() {
    use std::io::{BufRead, BufReader, Write};

    let server = Server::start(ephemeral_config(), None).expect("server starts");
    let addr = server.local_addr().to_string();
    let stream = std::net::TcpStream::connect(&addr).expect("connects");
    stream
        .set_read_timeout(Some(TIMEOUT))
        .expect("timeout sets");
    let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
    let mut hello = String::new();
    reader.read_line(&mut hello).expect("hello arrives");

    // One byte past the cap and no newline. The daemon reads every byte
    // sent before it answers, so its close cannot reset the connection
    // ahead of the frame.
    let mut writer = stream;
    let block = vec![b'x'; 1 << 20];
    let mut left = MAX_REQUEST_LINE_BYTES + 1;
    while left > 0 {
        let n = left.min(block.len());
        writer.write_all(&block[..n]).expect("line streams");
        left -= n;
    }
    let mut frame = String::new();
    reader.read_line(&mut frame).expect("error frame arrives");
    assert!(frame.starts_with("{\"frame\":\"error\""), "{frame}");
    assert_eq!(frame_field_u64(&frame, &["exit_code"]), 2);
    assert!(frame.contains("longer than"), "{frame}");
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("clean close"),
        0,
        "the connection closes after the frame: {rest:.80}"
    );

    // The daemon keeps serving new connections.
    check(&addr, Duration::from_secs(5)).expect("health check succeeds");
    server.shutdown();
    server.join();
}

#[test]
fn a_client_still_writing_past_the_cap_reads_the_refusal_then_end_of_stream() {
    use std::io::{BufRead, BufReader, Write};

    let server = Server::start(ephemeral_config(), None).expect("server starts");
    let addr = server.local_addr().to_string();
    let stream = std::net::TcpStream::connect(&addr).expect("connects");
    stream
        .set_read_timeout(Some(TIMEOUT))
        .expect("timeout sets");
    let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
    let mut hello = String::new();
    reader.read_line(&mut hello).expect("hello arrives");

    // 16 MiB past the cap, from a writer that does not stop at the refusal:
    // every send must succeed while this thread reads the answer.
    let mut writer = stream;
    let sender = std::thread::spawn(move || -> std::io::Result<()> {
        let block = vec![b'x'; 1 << 20];
        let mut left = MAX_REQUEST_LINE_BYTES + (16 << 20);
        while left > 0 {
            let n = left.min(block.len());
            writer.write_all(&block[..n])?;
            left -= n;
        }
        writer.flush()
    });
    let mut frame = String::new();
    reader.read_line(&mut frame).expect("error frame arrives");
    assert!(frame.starts_with("{\"frame\":\"error\""), "{frame}");
    assert_eq!(frame_field_u64(&frame, &["exit_code"]), 2);
    let mut rest = String::new();
    assert_eq!(
        reader
            .read_line(&mut rest)
            .expect("end of stream, not a reset"),
        0,
        "nothing follows the frame: {rest:.80}"
    );
    sender
        .join()
        .expect("sender thread")
        .expect("no send fails while the daemon drains the line");

    check(&addr, Duration::from_secs(5)).expect("health check succeeds");
    drop(reader);
    server.shutdown();
    server.join();
}

#[test]
fn deeply_nested_requests_of_every_kind_leave_the_connection_serving() {
    let dir = scratch_dir("deep");
    let spec = small_spec();
    let server = Server::start(ephemeral_config(), None).expect("server starts");
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr, TIMEOUT).expect("connects");

    let deep = "[".repeat(100_000);
    for kind in ["run", "sweep", "compute-shard", "pareto"] {
        let line = format!("{{\"kind\":\"{kind}\",\"spec\":{deep}}}");
        let lines = client.send(&line).expect("round-trip");
        assert_eq!(lines.len(), 1, "one error frame for `{kind}`");
        assert!(lines[0].starts_with("{\"frame\":\"error\""), "{}", lines[0]);
        assert!(
            lines[0].contains("nesting deeper than 128 levels"),
            "{}",
            lines[0]
        );
        assert_eq!(frame_field_u64(&lines[0], &["exit_code"]), 2, "{kind}");
    }

    // The same connection still does real work, byte-identically.
    let lines = client
        .send(&sweep_request_line(&spec, 2))
        .expect("sweep runs");
    let (records, frames) = split_response(&lines);
    assert_eq!(records.join("\n") + "\n", jsonl_oracle(&spec, &dir));
    assert_eq!(frame_field_u64(frames.last().unwrap(), &["exit_code"]), 0);

    server.shutdown();
    server.join();
}

#[test]
fn an_unsupported_bitwidth_is_a_usage_error_and_the_connection_lives_on() {
    let server = Server::start(ephemeral_config(), None).expect("server starts");
    let addr = server.local_addr().to_string();
    // No reconnects: the ping must be answered on the same connection.
    let mut client = Client::connect(&addr, TIMEOUT)
        .expect("client connects")
        .reconnect_policy(RetryPolicy::none());

    let spec = SweepSpec::new("too-wide").with_bitwidth(vec![65]);
    let line = format!(
        "{{\"kind\":\"run\",\"spec\":{}}}",
        serde_json::to_string(&spec).expect("spec serializes"),
    );
    let lines = client.send(&line).expect("run request round-trips");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].starts_with("{\"frame\":\"error\""), "{}", lines[0]);
    assert_eq!(frame_field_u64(&lines[0], &["exit_code"]), 2);
    assert!(lines[0].contains("1..=16"), "{}", lines[0]);

    let pong = client
        .send("{\"kind\":\"ping\"}")
        .expect("ping round-trips");
    assert_eq!(pong.len(), 1, "{pong:?}");
    assert!(pong[0].starts_with("{\"frame\":\"pong\""), "{}", pong[0]);

    server.shutdown();
    server.join();
}

#[test]
fn shutdown_request_drains_the_daemon() {
    let server = Server::start(ephemeral_config(), None).expect("server starts");
    let addr = server.local_addr().to_string();

    let lines = request(&addr, "{\"kind\":\"shutdown\"}", TIMEOUT).expect("shutdown round-trips");
    assert_eq!(lines, vec!["{\"frame\":\"bye\"}".to_string()]);
    // join() returns because the shutdown request stopped the accept loop.
    server.join();
    // And the port no longer answers.
    assert!(check(&addr, Duration::from_millis(500)).is_err());
}

#[test]
fn check_fails_against_a_closed_port() {
    // Bind-then-drop guarantees the port is closed.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener);
    assert!(check(&addr, Duration::from_millis(500)).is_err());
}

#[test]
fn read_jsonl_round_trips_streamed_records() {
    // The streamed record lines parse back with the same reader the CLI
    // uses for record files — the protocol frames never collide with
    // record schemas.
    let dir = scratch_dir("roundtrip");
    let spec = small_spec();
    let server = Server::start(ephemeral_config(), None).expect("server starts");
    let addr = server.local_addr().to_string();
    let lines = request(&addr, &sweep_request_line(&spec, 2), TIMEOUT).expect("sweep runs");
    let (records, _) = split_response(&lines);
    let path = dir.join("streamed.jsonl");
    std::fs::write(&path, records.join("\n") + "\n").expect("writes");
    let parsed = read_jsonl(&path).expect("streamed records parse");
    assert_eq!(parsed.len(), 6);
    server.shutdown();
    server.join();
}
