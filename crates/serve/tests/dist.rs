//! Distributed-sweep tests: byte-identity with the local executors at any
//! worker count, the `compute-shard` wire framing, worker-death recovery,
//! checkpoint resume, fatal-vs-transient fleet errors, and the client's
//! transparent reconnect contract, line cap and response bound.

use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use simphony_explore::{
    Checkpoint, CheckpointHeader, ExploreError, ExploreSession, JsonlSink, RecordSink, Result,
    RetryPolicy, StreamOptions, SweepRecord, SweepSpec, VecSink,
};
use simphony_serve::protocol::{hello_frame, part_frame};
use simphony_serve::{
    distribute_sweep, request, Client, DistConfig, ServeConfig, Server, MAX_REQUEST_LINE_BYTES,
};

const TIMEOUT: Duration = Duration::from_secs(120);

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = format!(
        "simphony-dist-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    let dir = std::env::temp_dir().join(unique);
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

fn start_worker() -> Server {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    Server::start(config, None).expect("worker starts")
}

fn fleet_config(workers: &[Server]) -> DistConfig {
    DistConfig {
        workers: workers.iter().map(|w| w.local_addr().to_string()).collect(),
        ..DistConfig::default()
    }
}

/// A 24-point sweep over three axes — enough shards to spread over a fleet.
fn fleet_spec() -> SweepSpec {
    SweepSpec::new("dist")
        .with_wavelengths(vec![1, 2, 4])
        .with_bitwidth(vec![4, 8])
        .with_sparsity(vec![0.0, 0.1, 0.2, 0.3])
}

/// The `--jsonl` bytes a local run of this spec writes (no cache).
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

/// Runs `spec` over `fleet` into a JSONL file and returns its bytes.
fn distribute_jsonl(
    spec: &SweepSpec,
    options: &StreamOptions,
    config: &DistConfig,
    path: &std::path::Path,
) -> String {
    let mut sink = JsonlSink::create(path).expect("sink creates");
    distribute_sweep(spec, options, config, &mut sink, &mut |_| {}, None)
        .expect("distributed sweep runs");
    drop(sink);
    std::fs::read_to_string(path).expect("output reads")
}

#[test]
fn distributed_output_is_byte_identical_across_worker_counts_and_chunk_sizes() {
    let dir = scratch_dir("bytes");
    let spec = fleet_spec();
    let oracle = jsonl_oracle(&spec, &dir);

    for worker_count in [1usize, 2, 4] {
        let workers: Vec<Server> = (0..worker_count).map(|_| start_worker()).collect();
        let config = fleet_config(&workers);
        for chunk in [1usize, 5, 24] {
            let options = StreamOptions::chunked(chunk).keep_going();
            let path = dir.join(format!("out-{worker_count}w-{chunk}c.jsonl"));
            let bytes = distribute_jsonl(&spec, &options, &config, &path);
            assert_eq!(
                bytes, oracle,
                "{worker_count} workers x chunk {chunk} diverged from the local bytes"
            );
        }
        for worker in workers {
            worker.shutdown();
            worker.join();
        }
    }
}

#[test]
fn compute_shard_response_is_a_part_frame_with_exact_record_lines() {
    let dir = scratch_dir("framing");
    let spec = fleet_spec();
    let oracle = jsonl_oracle(&spec, &dir);
    let oracle_lines: Vec<&str> = oracle.lines().collect();

    let worker = start_worker();
    let addr = worker.local_addr().to_string();
    // Shard 1 of chunk 5 covers points 5..10.
    let line = format!(
        "{{\"kind\":\"compute-shard\",\"spec\":{},\"shard\":1,\"start\":5,\"end\":10}}",
        serde_json::to_string(&spec).expect("spec serializes"),
    );
    let lines = request(&addr, &line, TIMEOUT).expect("compute-shard runs");

    let head = lines.first().expect("part frame");
    assert!(head.starts_with("{\"frame\":\"part\""), "{head}");
    let frame: serde_json::Value = serde_json::from_str(head).expect("frame parses");
    let meta = frame.get("meta").expect("meta");
    assert_eq!(meta.get("shard").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(meta.get("emitted").and_then(|v| v.as_u64()), Some(5));

    // Exactly the oracle's lines 5..10, bare, in order.
    assert_eq!(&lines[1..6], &oracle_lines[5..10]);

    let summary = lines.last().expect("terminal frame");
    assert!(summary.starts_with("{\"frame\":\"summary\""), "{summary}");
    let parsed: serde_json::Value = serde_json::from_str(summary).expect("summary parses");
    assert_eq!(
        parsed.get("kind").and_then(|v| v.as_str()),
        Some("compute-shard")
    );
    assert_eq!(parsed.get("exit_code").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(parsed.get("emitted").and_then(|v| v.as_u64()), Some(5));

    // An inverted range is a usage error, not a crash.
    let bad = format!(
        "{{\"kind\":\"compute-shard\",\"spec\":{},\"shard\":0,\"start\":9,\"end\":9}}",
        serde_json::to_string(&spec).expect("spec serializes"),
    );
    let lines = request(&addr, &bad, TIMEOUT).expect("round-trips");
    assert!(lines[0].starts_with("{\"frame\":\"error\""), "{}", lines[0]);
    let parsed: serde_json::Value = serde_json::from_str(&lines[0]).expect("parses");
    assert_eq!(parsed.get("exit_code").and_then(|v| v.as_u64()), Some(2));

    worker.shutdown();
    worker.join();
}

#[test]
fn killing_a_worker_mid_sweep_recovers_with_byte_identical_output() {
    let dir = scratch_dir("kill");
    let spec = fleet_spec();
    let oracle = jsonl_oracle(&spec, &dir);

    let survivor = start_worker();
    let victim = start_worker();
    let config = DistConfig {
        workers: vec![
            survivor.local_addr().to_string(),
            victim.local_addr().to_string(),
        ],
        // Short deadline so a shard stranded on the killed worker is
        // re-dispatched within the test's patience.
        shard_deadline_ms: 2_000,
        retry: RetryPolicy::new(2),
    };
    let options = StreamOptions::chunked(2).keep_going();

    // Kill the victim as soon as the first shard has merged: its in-flight
    // shard (if any) errors on the dead socket, gets re-queued, and the
    // survivor absorbs the rest of the sweep.
    let victim = std::sync::Mutex::new(Some(victim));
    let path = dir.join("out.jsonl");
    let mut sink = JsonlSink::create(&path).expect("sink creates");
    let outcome = distribute_sweep(
        &spec,
        &options,
        &config,
        &mut sink,
        &mut |progress| {
            if progress.done >= 2 {
                if let Some(server) = victim.lock().unwrap().take() {
                    server.shutdown();
                }
            }
        },
        None,
    )
    .expect("sweep survives the worker death");
    drop(sink);

    assert_eq!(outcome.total_points, 24);
    assert!(outcome.failures.is_empty());
    let bytes = std::fs::read_to_string(&path).expect("output reads");
    assert_eq!(
        bytes, oracle,
        "recovered sweep diverged from the local bytes"
    );
    // Byte-identity already implies it, but make the chaos claim explicit:
    // every point exactly once, in expansion order.
    assert_eq!(bytes.lines().count(), 24, "duplicate or missing records");

    survivor.shutdown();
    survivor.join();
}

/// Forwards to a [`JsonlSink`] but fails on the accept after the first
/// `accepts_left` — a coordinator whose output dies mid-shard.
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

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }

    fn finish(&mut self) -> Result<()> {
        self.inner.finish()
    }
}

#[test]
fn a_checkpointed_distributed_sweep_resumes_without_recomputing() {
    let dir = scratch_dir("checkpoint");
    let spec = fleet_spec();
    let oracle = jsonl_oracle(&spec, &dir);
    let workers: Vec<Server> = (0..2).map(|_| start_worker()).collect();
    let config = fleet_config(&workers);
    // Chunk 4: six shards of four points.
    let options = StreamOptions::chunked(4).keep_going();
    let header = CheckpointHeader::for_sweep(&spec, &options, 24);
    let ckpt = dir.join("sweep.ckpt");
    let path = dir.join("out.jsonl");

    // The sink dies on its 13th accept, the first record of shard 3: the
    // run fails with that error and leaves shards 0-2 checkpointed.
    let mut sink = DyingSink {
        inner: JsonlSink::create(&path).expect("sink creates"),
        accepts_left: 12,
    };
    let mut checkpoint = Checkpoint::resume(&ckpt, &header).expect("checkpoint opens");
    let err = distribute_sweep(
        &spec,
        &options,
        &config,
        &mut sink,
        &mut |_| {},
        Some(&mut checkpoint),
    )
    .expect_err("the dying sink fails the sweep");
    assert!(err.to_string().contains("sink died mid-shard"), "{err}");
    drop(sink);
    assert_eq!(checkpoint.completed().len(), 3);
    assert_eq!(checkpoint.emitted(), 12);

    // Resuming dispatches only shards 3-5 and completes the file.
    let mut sink = JsonlSink::append(&path).expect("sink appends");
    let mut checkpoint = Checkpoint::resume(&ckpt, &header).expect("checkpoint reopens");
    let outcome = distribute_sweep(
        &spec,
        &options,
        &config,
        &mut sink,
        &mut |_| {},
        Some(&mut checkpoint),
    )
    .expect("the resumed sweep completes");
    drop(sink);
    assert_eq!(outcome.skipped_points, 12);
    assert_eq!(outcome.stats.hits + outcome.stats.misses, 12);
    assert_eq!(
        std::fs::read_to_string(&path).expect("output reads"),
        oracle,
        "the resumed file diverged from the local bytes"
    );

    // Against the full checkpoint nothing is dispatched: the fleet is gone,
    // so any dispatch would fail the sweep.
    for worker in workers {
        worker.shutdown();
        worker.join();
    }
    let dead_fleet = DistConfig {
        retry: RetryPolicy::none(),
        ..config
    };
    let mut sink = JsonlSink::append(&path).expect("sink appends");
    let mut checkpoint = Checkpoint::resume(&ckpt, &header).expect("checkpoint reopens");
    let outcome = distribute_sweep(
        &spec,
        &options,
        &dead_fleet,
        &mut sink,
        &mut |_| {},
        Some(&mut checkpoint),
    )
    .expect("a fully checkpointed sweep replays");
    drop(sink);
    assert_eq!(outcome.skipped_points, 24);
    assert_eq!(outcome.stats.hits + outcome.stats.misses, 0);
    assert_eq!(
        std::fs::read_to_string(&path).expect("output reads"),
        oracle,
        "a replayed sweep must append nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn whole_fleet_dying_fails_the_sweep_with_a_typed_error() {
    let worker = start_worker();
    let addr = worker.local_addr().to_string();
    worker.shutdown();
    worker.join();

    let config = DistConfig {
        workers: vec![addr.clone()],
        retry: RetryPolicy::none(),
        ..DistConfig::default()
    };
    let options = StreamOptions::chunked(2).keep_going();
    let err = distribute_sweep(
        &fleet_spec(),
        &options,
        &config,
        &mut VecSink::new(),
        &mut |_| {},
        None,
    )
    .expect_err("a dead fleet cannot sweep");
    assert!(
        matches!(err, ExploreError::ConnectionLost { .. }),
        "expected ConnectionLost, got: {err}"
    );
    assert!(err.to_string().contains("every worker is gone"), "{err}");
}

#[test]
fn usage_rejection_is_fatal_and_does_not_spin_on_redispatch() {
    // A worker whose point budget is below the shard size rejects every
    // dispatch as a usage error — re-dispatch cannot help, so the fleet
    // fails immediately instead of cycling the shard forever.
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_points: 4,
        ..ServeConfig::default()
    };
    let worker = Server::start(config, None).expect("worker starts");
    let dist = DistConfig {
        workers: vec![worker.local_addr().to_string()],
        ..DistConfig::default()
    };
    let options = StreamOptions::chunked(6).keep_going();
    let err = distribute_sweep(
        &fleet_spec(),
        &options,
        &dist,
        &mut VecSink::new(),
        &mut |_| {},
        None,
    )
    .expect_err("an under-budgeted fleet is a configuration error");
    assert!(err.to_string().contains("rejected shard"), "{err}");

    worker.shutdown();
    worker.join();
}

/// One line past what a client reads: the line cap plus 1 MiB.
const LONG_LINE: usize = MAX_REQUEST_LINE_BYTES + (1 << 20);

/// What a [`flooding_peer`] sends.
#[derive(Clone, Copy, PartialEq)]
enum Flood {
    /// A greeting of [`LONG_LINE`] bytes with no newline.
    Greeting,
    /// A valid hello, then [`LONG_LINE`] bytes with no newline as its answer
    /// to every request line.
    LongLine,
    /// A valid hello, then a part frame and up to [`FLOOD_RECORDS`] short
    /// record lines, with no terminal frame, as its answer to every request
    /// line.
    Records,
}

/// Record lines a [`Flood::Records`] peer sends at most: 64 MiB of 1 KiB
/// lines, many times what loopback sockets buffer.
const FLOOD_RECORDS: usize = 1 << 16;

/// A fake peer on loopback that floods as `flood` says. A failed write ends
/// the connection (the client hung up), and a [`Flood::Records`] peer then
/// reports how many record lines it wrote, the whole budget if no write
/// failed, before it closes the connection.
fn flooding_peer(flood: Flood) -> (String, mpsc::Receiver<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("fake peer binds");
    let addr = listener.local_addr().expect("fake peer addr").to_string();
    let (written, records_written) = mpsc::channel();
    std::thread::spawn(move || {
        let block = vec![b'x'; 1 << 20];
        let record = format!("{{\"pad\":\"{}\"}}\n", "x".repeat(1013));
        let flood_line = |stream: &mut TcpStream| {
            (0..LONG_LINE / block.len()).try_for_each(|_| stream.write_all(&block))
        };
        let flood_records = |stream: &mut TcpStream| {
            if writeln!(stream, "{}", part_frame("{}")).is_err() {
                return 0;
            }
            (0..FLOOD_RECORDS)
                .take_while(|_| stream.write_all(record.as_bytes()).is_ok())
                .count()
        };
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            if flood == Flood::Greeting {
                let _ = flood_line(&mut stream);
                continue;
            }
            let mut reader = BufReader::new(stream.try_clone().expect("clones"));
            let mut line = String::new();
            let _ = writeln!(stream, "{}", hello_frame());
            while reader.read_line(&mut line).is_ok_and(|read| read > 0) {
                if flood == Flood::LongLine {
                    if flood_line(&mut stream).is_err() {
                        break;
                    }
                } else {
                    let _ = written.send(flood_records(&mut stream));
                    break;
                }
                line.clear();
            }
        }
    });
    (addr, records_written)
}

#[test]
fn an_over_long_part_line_retires_the_worker() {
    let config = DistConfig {
        workers: vec![flooding_peer(Flood::LongLine).0],
        retry: RetryPolicy::none(),
        ..DistConfig::default()
    };
    let err = distribute_sweep(
        &fleet_spec(),
        &StreamOptions::chunked(2).keep_going(),
        &config,
        &mut VecSink::new(),
        &mut |_| {},
        None,
    )
    .expect_err("a worker that floods one line cannot finish the sweep");
    assert!(
        matches!(err, ExploreError::ConnectionLost { .. }),
        "expected ConnectionLost, got: {err}"
    );
    assert!(err.to_string().contains("longer than"), "{err}");
}

#[test]
fn a_part_longer_than_its_shard_retires_the_worker() {
    let (worker, records_written) = flooding_peer(Flood::Records);
    let config = DistConfig {
        workers: vec![worker],
        retry: RetryPolicy::none(),
        ..DistConfig::default()
    };
    let err = distribute_sweep(
        &fleet_spec(),
        &StreamOptions::chunked(2).keep_going(),
        &config,
        &mut VecSink::new(),
        &mut |_| {},
        None,
    )
    .expect_err("a worker that streams records without end cannot finish the sweep");
    assert!(
        matches!(err, ExploreError::ConnectionLost { .. }),
        "expected ConnectionLost, got: {err}"
    );
    // A two-point shard's response holds a part frame, two records and a
    // summary: four lines.
    assert!(err.to_string().contains("past 4 lines"), "{err}");
    let written = records_written
        .recv_timeout(TIMEOUT)
        .expect("the peer reports its record lines");
    assert!(
        written < FLOOD_RECORDS / 4,
        "the peer wrote {written} of {FLOOD_RECORDS} record lines before the client hung up"
    );
}

#[test]
fn an_over_long_greeting_is_a_protocol_error() {
    let err = Client::connect(&flooding_peer(Flood::Greeting).0, TIMEOUT)
        .err()
        .expect("an over-long greeting is refused");
    let ExploreError::Io { source, .. } = &err else {
        panic!("expected a protocol error, got: {err}");
    };
    assert_eq!(source.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let message = err.to_string();
    assert!(message.contains("longer than"), "{message}");
    assert!(message.len() < 256, "quotes a short prefix: {message}");
}

#[test]
fn fail_fast_policy_is_refused() {
    let config = DistConfig {
        workers: vec!["127.0.0.1:1".to_string()],
        ..DistConfig::default()
    };
    let err = distribute_sweep(
        &fleet_spec(),
        &StreamOptions::chunked(2),
        &config,
        &mut VecSink::new(),
        &mut |_| {},
        None,
    )
    .expect_err("fail-fast cannot be distributed");
    assert!(err.to_string().contains("KeepGoing"), "{err}");

    let err = distribute_sweep(
        &fleet_spec(),
        &StreamOptions::chunked(2).keep_going(),
        &DistConfig::default(),
        &mut VecSink::new(),
        &mut |_| {},
        None,
    )
    .expect_err("an empty fleet cannot sweep");
    assert!(err.to_string().contains("at least one worker"), "{err}");
}

/// A TCP proxy whose *listener* outlives its connections: severing every
/// proxied stream simulates a network partition without giving up the port,
/// so a client's transparent reconnect has somewhere to come back to.
/// (Re-binding the real server's port instead would race TIME_WAIT.)
struct Proxy {
    addr: String,
    streams: Arc<Mutex<Vec<TcpStream>>>,
}

impl Proxy {
    fn start(upstream: String) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("proxy binds");
        let addr = listener.local_addr().expect("proxy addr").to_string();
        let streams: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let tracked = Arc::clone(&streams);
        std::thread::spawn(move || {
            for inbound in listener.incoming() {
                let Ok(inbound) = inbound else { break };
                let Ok(outbound) = TcpStream::connect(&upstream) else {
                    break;
                };
                {
                    let mut streams = tracked.lock().unwrap();
                    streams.push(inbound.try_clone().expect("clones"));
                    streams.push(outbound.try_clone().expect("clones"));
                }
                let (mut in_read, mut in_write) = (inbound.try_clone().expect("clones"), inbound);
                let (mut out_read, mut out_write) =
                    (outbound.try_clone().expect("clones"), outbound);
                std::thread::spawn(move || {
                    let _ = std::io::copy(&mut in_read, &mut out_write);
                    let _ = out_write.shutdown(Shutdown::Write);
                });
                std::thread::spawn(move || {
                    let _ = std::io::copy(&mut out_read, &mut in_write);
                    let _ = in_write.shutdown(Shutdown::Write);
                });
            }
        });
        Proxy { addr, streams }
    }

    /// Severs every proxied connection; the listener keeps accepting.
    fn sever(&self) {
        let mut streams = self.streams.lock().unwrap();
        for stream in streams.drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

#[test]
fn client_reconnects_transparently_for_idempotent_kinds_only() {
    let server = start_worker();
    let proxy = Proxy::start(server.local_addr().to_string());
    let mut client = Client::connect(&proxy.addr, TIMEOUT).expect("client connects");

    let lines = client
        .send("{\"kind\":\"cache-stats\"}")
        .expect("first probe");
    assert!(
        lines[0].starts_with("{\"frame\":\"cache-stats\""),
        "{}",
        lines[0]
    );

    // Partition. The next idempotent request hits the dead stream, then
    // reconnects through the still-listening proxy and replays.
    proxy.sever();
    let lines = client
        .send("{\"kind\":\"cache-stats\"}")
        .expect("idempotent probe survives the partition");
    assert!(
        lines[0].starts_with("{\"frame\":\"cache-stats\""),
        "{}",
        lines[0]
    );

    // Partition again: a non-idempotent kind must NOT be replayed — it
    // surfaces the typed error instead.
    proxy.sever();
    let run_spec = SweepSpec::new("reconnect").with_wavelengths(vec![1]);
    let line = format!(
        "{{\"kind\":\"run\",\"spec\":{}}}",
        serde_json::to_string(&run_spec).expect("spec serializes"),
    );
    let err = client
        .send(&line)
        .expect_err("non-idempotent kinds stay dead");
    assert!(
        matches!(err, ExploreError::ConnectionLost { .. }),
        "expected ConnectionLost, got: {err}"
    );
    assert!(err.to_string().contains("not idempotent"), "{err}");

    // The same client object recovers for idempotent traffic afterwards.
    let lines = client
        .send("{\"kind\":\"ping\"}")
        .expect("ping after the error");
    assert!(lines[0].starts_with("{\"frame\":\"pong\""), "{}", lines[0]);

    server.shutdown();
    server.join();
    // Drain the proxy's dangling upstream socket so the server join above
    // is not what this test silently depends on.
    let mut sink = Vec::new();
    let _ = TcpStream::connect(&proxy.addr).map(|mut s| s.read_to_end(&mut sink));
}
