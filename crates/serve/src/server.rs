//! The daemon: TCP listener, per-connection worker threads, admission
//! control, and the request handlers that reuse the exploration engine.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde_json::Value;
use simphony_explore::{
    compute_shard_part, pareto_front, simulate_point_shared, ArtifactBudget, ArtifactStore,
    CacheBackend, ExploreError, ExploreSession, Objective, RecordSink, Result, RetryPolicy,
    SharedArtifactStore, SweepRecord, SweepSpec,
};
use simphony_traffic::{run_serving_with, ServingRecord, ServingSpec};

use crate::protocol::{self, Request, EXIT_HARD, EXIT_USAGE, PROTOCOL_VERSION};

/// Default per-request point budget ([`ServeConfig::max_points`]).
pub const DEFAULT_MAX_POINTS: usize = 65_536;
/// Default admission bound ([`ServeConfig::max_pending`]).
pub const DEFAULT_MAX_PENDING: usize = 32;
/// Default bulk-lane threshold ([`ServeConfig::bulk_threshold`]).
pub const DEFAULT_BULK_THRESHOLD: usize = 256;
/// Default points per shard for daemon-side sweeps
/// ([`ServeConfig::chunk_size`]): small enough that records stream back
/// promptly, large enough that shards amortize cache batch lookups.
pub const DEFAULT_SERVE_CHUNK: usize = 64;

/// Longest request line the daemon reads, in bytes, not counting the
/// newline. Sized for inline `pareto` payloads: a sweep record is under 1 KiB
/// of compact JSON, so 64 MiB carries the records of a full
/// [`DEFAULT_MAX_POINTS`]-point sweep with room to spare. A longer line gets
/// an `error` frame with exit code 2 and the connection is closed, so no
/// connection holds more than this much of a request in memory. The close
/// is graceful: the daemon shuts its write half after the frame, then reads
/// and discards up to this many more bytes, for at most a few seconds,
/// before it drops the socket, so a client still sending reads the frame
/// instead of a reset. The client side ([`Client`]) reads each line the
/// daemon sends under the same cap.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 * 1024 * 1024;

/// How often the accept loop and idle readers check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How long a connection whose request line was refused may keep sending
/// before it is closed regardless (see [`MAX_REQUEST_LINE_BYTES`]).
const REFUSED_DRAIN_TIME: Duration = Duration::from_secs(5);

/// Daemon configuration; [`ServeConfig::default`] gives the values the CLI
/// uses when no flags are passed.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7744` (`:0` picks an ephemeral port —
    /// read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Per-request point budget: sweeps and serving sweeps whose expansion
    /// exceeds this are rejected as usage errors before any work starts.
    /// Clients may lower it per request with `max_points`, never raise it.
    /// 0 = unlimited.
    pub max_points: usize,
    /// Global admission bound: at most this many requests may be queued or
    /// executing at once; excess requests get an immediate `server busy`
    /// error frame instead of piling onto the work queue. `ping`,
    /// `shutdown` and the health check bypass admission so a saturated
    /// server still answers probes. 0 = unlimited.
    pub max_pending: usize,
    /// Sweeps with more points than this take the *bulk lane*, which admits
    /// one bulk request at a time; smaller (interactive) requests are never
    /// queued behind it, so a million-point sweep cannot starve an
    /// interactive `run`.
    pub bulk_threshold: usize,
    /// Default points per shard for `sweep`/`serve-sim` requests that do
    /// not pass `chunk_size`. Records are streamed and flushed per shard;
    /// record bytes are identical at any chunk size.
    pub chunk_size: usize,
    /// Budget of the process-wide resident artifact store shared by every
    /// connection (workloads and accelerators stay warm across requests).
    pub artifact_budget: ArtifactBudget,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7744".to_string(),
            max_points: DEFAULT_MAX_POINTS,
            max_pending: DEFAULT_MAX_PENDING,
            bulk_threshold: DEFAULT_BULK_THRESHOLD,
            chunk_size: DEFAULT_SERVE_CHUNK,
            artifact_budget: ArtifactBudget::default(),
        }
    }
}

/// Everything the connection handlers share.
struct ServerState {
    config: ServeConfig,
    /// The address the listener actually bound; the shutdown path connects
    /// to it to wake the blocking accept loop.
    local_addr: SocketAddr,
    /// Optional result cache shared by every connection; daemon sweeps
    /// read and publish through it exactly like `sweep --cache` does.
    cache: Option<Arc<dyn CacheBackend>>,
    /// Resident workload/accelerator artifacts, LRU-bounded.
    artifacts: SharedArtifactStore,
    shutdown: AtomicBool,
    /// Requests currently admitted (queued or executing).
    pending: AtomicUsize,
    /// The bulk lane: big sweeps serialize here so at most one saturates
    /// the rayon pool while interactive requests keep flowing.
    bulk: Mutex<()>,
}

impl ServerState {
    fn try_admit(&self) -> bool {
        let limit = self.config.max_pending;
        let mut current = self.pending.load(Ordering::SeqCst);
        loop {
            if limit != 0 && current >= limit {
                return false;
            }
            match self.pending.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    /// Flags the daemon for shutdown and pokes the accept loop awake with a
    /// throwaway connection (best effort — the listener is on loopback).
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
    }
}

/// Decrements the pending counter when an admitted request finishes, even
/// on the error paths.
struct AdmissionGuard<'a>(&'a ServerState);

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.0.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running daemon. Dropping the handle does *not* stop the server; call
/// [`Server::shutdown`] (or send a `shutdown` request) and then
/// [`Server::join`].
pub struct Server {
    state: Arc<ServerState>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts accepting connections on a
    /// background thread.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the address cannot be bound.
    pub fn start(config: ServeConfig, cache: Option<Arc<dyn CacheBackend>>) -> Result<Server> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| ExploreError::io_at(&config.addr, e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ExploreError::io_at(&config.addr, e))?;
        let artifacts = ArtifactStore::shared(config.artifact_budget);
        let state = Arc::new(ServerState {
            config,
            local_addr,
            cache,
            artifacts,
            shutdown: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            bulk: Mutex::new(()),
        });
        let accept_state = Arc::clone(&state);
        let acceptor = std::thread::spawn(move || accept_loop(listener, &accept_state));
        Ok(Server {
            state,
            local_addr,
            acceptor: Some(acceptor),
        })
    }

    /// The address the listener actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests a graceful stop: the listener closes, idle connections
    /// drain, in-flight requests run to completion.
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Blocks until the accept loop (and every connection it spawned) has
    /// exited — i.e. until someone calls [`Server::shutdown`] or a client
    /// sends a `shutdown` request.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

fn accept_loop(listener: TcpListener, state: &Arc<ServerState>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        // Blocking accept: zero added latency on the connect path. The
        // shutdown path wakes it with a throwaway loopback connection.
        match listener.accept() {
            Ok((stream, _peer)) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    // Possibly the shutdown wake-up itself; either way the
                    // daemon is draining and accepts nothing further.
                    drop(stream);
                    break;
                }
                let state = Arc::clone(state);
                workers.push(std::thread::spawn(move || {
                    // A connection error (client vanished mid-stream) only
                    // affects that client; the daemon keeps serving.
                    let _ = handle_connection(stream, &state);
                }));
            }
            Err(_) if state.shutdown.load(Ordering::SeqCst) => break,
            // Transient accept errors (EMFILE, ECONNABORTED): back off and
            // keep listening rather than killing the daemon.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
        workers.retain(|w| !w.is_finished());
    }
    drop(listener);
    for worker in workers {
        let _ = worker.join();
    }
}

/// Whether the connection loop continues after a request.
enum Flow {
    Continue,
    Close,
}

fn handle_connection(stream: TcpStream, state: &ServerState) -> io::Result<()> {
    // The listener is non-blocking; the accepted stream must not be, but it
    // reads with a timeout so idle connections notice shutdown. Nagle is off:
    // the protocol is small request/response lines, and coalescing them costs
    // a delayed-ACK round trip (~40 ms) per exchange.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    write_line(&mut writer, &protocol::hello_frame())?;
    writer.flush()?;
    loop {
        let line = match read_request_line(&mut reader, state)? {
            Incoming::Line(line) => line,
            Incoming::TooLong => {
                let message = format!(
                    "request line longer than {MAX_REQUEST_LINE_BYTES} bytes; closing the connection"
                );
                send_frame(&mut writer, &protocol::error_frame(EXIT_USAGE, &message))?;
                return close_refused(reader, &writer, state);
            }
            Incoming::Closed => return Ok(()),
        };
        if line.trim().is_empty() {
            continue;
        }
        match handle_request(state, line.trim(), &mut writer)? {
            Flow::Continue => {}
            Flow::Close => return Ok(()),
        }
    }
}

/// Closes a connection whose request line was refused without resetting it
/// under a client that is still sending: shuts the write half, so the
/// client reads the error frame and then end of stream, and reads and
/// discards what the client still sends until it stops, until
/// [`MAX_REQUEST_LINE_BYTES`] more bytes arrived, or until
/// [`REFUSED_DRAIN_TIME`] has passed, whichever comes first. Closing a
/// socket with unread bytes queued would reset it, and a client still
/// writing would fail its send before reading the frame. The discarded
/// bytes pass through the reader's buffer and are never accumulated.
fn close_refused(
    mut reader: BufReader<TcpStream>,
    writer: &BufWriter<TcpStream>,
    state: &ServerState,
) -> io::Result<()> {
    writer.get_ref().shutdown(Shutdown::Write)?;
    let deadline = Instant::now() + REFUSED_DRAIN_TIME;
    let mut left = MAX_REQUEST_LINE_BYTES;
    while left > 0 && Instant::now() < deadline && !state.shutdown.load(Ordering::SeqCst) {
        let read = match reader.fill_buf() {
            Ok(available) => available.len().min(left),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        };
        if read == 0 {
            break;
        }
        reader.consume(read);
        left -= read;
    }
    Ok(())
}

/// One request line as [`read_request_line`] found it.
enum Incoming {
    /// A complete line, with its newline when it had one.
    Line(String),
    /// More than [`MAX_REQUEST_LINE_BYTES`] bytes arrived before a newline.
    TooLong,
    /// End of stream, or a draining server with an idle client.
    Closed,
}

/// Reads one request line of at most [`MAX_REQUEST_LINE_BYTES`] bytes,
/// waking every [`POLL_INTERVAL`] to notice shutdown. A line that is still
/// going past the cap is [`Incoming::TooLong`]; the bytes past the cap are
/// never buffered.
///
/// # Errors
///
/// Socket errors, and `InvalidData` for a line that is not UTF-8.
fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    state: &ServerState,
) -> io::Result<Incoming> {
    let mut buf = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                // Timeout tick: bytes read so far stay accumulated in `buf`.
                if state.shutdown.load(Ordering::SeqCst) && buf.is_empty() {
                    return Ok(Incoming::Closed);
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            if buf.is_empty() {
                return Ok(Incoming::Closed);
            }
            break;
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |end| end + 1);
        if buf.len() + take - usize::from(newline.is_some()) > MAX_REQUEST_LINE_BYTES {
            return Ok(Incoming::TooLong);
        }
        buf.extend_from_slice(&available[..take]);
        reader.consume(take);
        if newline.is_some() {
            break;
        }
    }
    String::from_utf8(buf)
        .map(Incoming::Line)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn write_line(out: &mut impl Write, line: &str) -> io::Result<()> {
    out.write_all(line.as_bytes())?;
    out.write_all(b"\n")
}

fn send_frame(out: &mut BufWriter<TcpStream>, frame: &str) -> io::Result<()> {
    write_line(out, frame)?;
    out.flush()
}

fn handle_request(
    state: &ServerState,
    line: &str,
    out: &mut BufWriter<TcpStream>,
) -> io::Result<Flow> {
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err(e) => {
            send_frame(out, &protocol::error_frame(e.exit_code, &e.message))?;
            return Ok(Flow::Continue);
        }
    };
    match request {
        // Probes bypass admission: a saturated server must still answer
        // health checks and honor shutdown.
        Request::Ping => {
            send_frame(out, &protocol::pong_frame())?;
            Ok(Flow::Continue)
        }
        Request::Shutdown => {
            send_frame(out, &protocol::bye_frame())?;
            state.request_shutdown();
            Ok(Flow::Close)
        }
        work => {
            if !state.try_admit() {
                send_frame(
                    out,
                    &protocol::error_frame(
                        EXIT_HARD,
                        &format!(
                            "server busy: {} requests already admitted (max_pending {})",
                            state.pending.load(Ordering::SeqCst),
                            state.config.max_pending,
                        ),
                    ),
                )?;
                return Ok(Flow::Continue);
            }
            let _admitted = AdmissionGuard(state);
            match work {
                Request::Run { spec } => run_request(state, &spec, out)?,
                Request::Sweep {
                    spec,
                    chunk_size,
                    keep_going,
                    max_points,
                } => sweep_request(state, &spec, chunk_size, keep_going, max_points, out)?,
                Request::ServeSim { spec, chunk_size } => {
                    serve_sim_request(state, &spec, chunk_size, out)?
                }
                Request::Pareto {
                    records,
                    objectives,
                } => pareto_request(&records, &objectives, out)?,
                Request::CacheStats => cache_stats_request(state, out)?,
                Request::ComputeShard {
                    spec,
                    shard,
                    start,
                    end,
                } => compute_shard_request(state, &spec, shard, start, end, out)?,
                Request::Ping | Request::Shutdown => unreachable!("handled above"),
            }
            Ok(Flow::Continue)
        }
    }
}

/// The effective point budget for a request: the smaller of the server cap
/// and the client's `max_points` (0 = unlimited on either side).
fn effective_budget(server_cap: usize, client_cap: Option<usize>) -> usize {
    match (server_cap, client_cap) {
        (0, None) => 0,
        (0, Some(c)) => c,
        (s, None) | (s, Some(0)) => s,
        (s, Some(c)) => s.min(c),
    }
}

/// Rejects over-budget expansions before any work is admitted to the pool.
fn check_budget(total: usize, budget: usize, out: &mut BufWriter<TcpStream>) -> io::Result<bool> {
    if budget != 0 && total > budget {
        send_frame(
            out,
            &protocol::error_frame(
                EXIT_USAGE,
                &format!(
                    "request expands to {total} points, over the admitted budget of \
                     {budget}; shrink the sweep or raise the server's --max-points"
                ),
            ),
        )?;
        return Ok(false);
    }
    Ok(true)
}

/// Big requests serialize on the bulk lane so at most one saturates the
/// thread pool; interactive requests never touch the lane.
fn bulk_lane<'a>(state: &'a ServerState, total: usize) -> Option<std::sync::MutexGuard<'a, ()>> {
    if total > state.config.bulk_threshold {
        Some(
            state
                .bulk
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    } else {
        None
    }
}

fn run_request(
    state: &ServerState,
    spec: &SweepSpec,
    out: &mut BufWriter<TcpStream>,
) -> io::Result<()> {
    // A `run` spec is the whole request, as its flags are for the CLI's
    // `run`: one that fails validation is a usage error.
    let points = match spec.expand() {
        Ok(points) => points,
        Err(e) => return send_frame(out, &protocol::error_frame(EXIT_USAGE, &e.to_string())),
    };
    if points.len() != 1 {
        return send_frame(
            out,
            &protocol::error_frame(
                EXIT_USAGE,
                &format!(
                    "`run` spec must expand to exactly one point, got {}",
                    points.len()
                ),
            ),
        );
    }
    match simulate_point_shared(&state.artifacts, &points[0]) {
        Ok(report) => {
            // The CLI prints the report with `println!`; carrying the same
            // trailing newline keeps the payload byte-identical.
            write_line(out, &protocol::report_frame(&format!("{report}\n")))?;
            send_frame(out, &protocol::run_summary_frame())
        }
        Err(source) => {
            let err = ExploreError::Point {
                index: 0,
                label: points[0].label(),
                source,
            };
            send_frame(out, &protocol::error_frame(EXIT_HARD, &err.to_string()))
        }
    }
}

/// Streams records to the client exactly as [`JsonlSink`] writes them to
/// disk (`serde_json::to_string` + `'\n'`, flushed per shard), so daemon
/// responses are byte-identical to `sweep --jsonl` output. A fresh record's
/// line is the JSON the compute stage rendered, written as given.
///
/// [`JsonlSink`]: simphony_explore::JsonlSink
struct FrameSink<'a, W: Write + Send> {
    out: &'a mut W,
}

impl<W: Write + Send, R: serde::Serialize> RecordSink<R> for FrameSink<'_, W> {
    fn accept(&mut self, record: R) -> Result<()> {
        let json = serde_json::to_string(&record)?;
        self.accept_rendered(record, &json)
    }

    fn accept_rendered(&mut self, _record: R, json: &str) -> Result<()> {
        self.out
            .write_all(json.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
            .map_err(|e| ExploreError::io_at("client socket", e))
    }

    fn flush_shard(&mut self) -> Result<()> {
        self.out
            .flush()
            .map_err(|e| ExploreError::io_at("client socket", e))
    }
}

fn sweep_request(
    state: &ServerState,
    spec: &SweepSpec,
    chunk_size: Option<usize>,
    keep_going: bool,
    max_points: Option<usize>,
    out: &mut BufWriter<TcpStream>,
) -> io::Result<()> {
    let total = match spec.point_count() {
        Ok(total) => total,
        Err(e) => return send_frame(out, &protocol::error_frame(EXIT_HARD, &e.to_string())),
    };
    let budget = effective_budget(state.config.max_points, max_points);
    if !check_budget(total, budget, out)? {
        return Ok(());
    }
    let _lane = bulk_lane(state, total);
    let outcome = {
        let mut sink = FrameSink { out };
        let mut session = ExploreSession::new(spec)
            .chunk_size(chunk_size.unwrap_or(state.config.chunk_size))
            .artifact_store(Arc::clone(&state.artifacts));
        if keep_going {
            session = session.keep_going();
        }
        if let Some(cache) = &state.cache {
            session = session.cache(Arc::clone(cache));
        }
        session.sink(&mut sink).run()
    };
    match outcome {
        Ok(outcome) => {
            for failure in &outcome.failures {
                write_line(
                    out,
                    &protocol::failure_frame(
                        failure.index,
                        &failure.label,
                        &failure.error.to_string(),
                    ),
                )?;
            }
            send_frame(out, &protocol::sweep_summary_frame(&outcome))
        }
        // The error may itself be a dead client socket; if so this write
        // fails too and the connection closes.
        Err(e) => send_frame(out, &protocol::error_frame(EXIT_HARD, &e.to_string())),
    }
}

fn serve_sim_request(
    state: &ServerState,
    spec: &ServingSpec,
    chunk_size: Option<usize>,
    out: &mut BufWriter<TcpStream>,
) -> io::Result<()> {
    let total = match spec.point_count() {
        Ok(total) => total,
        Err(e) => return send_frame(out, &protocol::error_frame(EXIT_HARD, &e.to_string())),
    };
    let budget = effective_budget(state.config.max_points, None);
    if !check_budget(total, budget, out)? {
        return Ok(());
    }
    let _lane = bulk_lane(state, total);
    let outcome = {
        let mut sink = FrameSink { out };
        run_serving_with(
            spec,
            &mut sink,
            chunk_size.unwrap_or(state.config.chunk_size),
        )
    };
    match outcome {
        Ok(outcome) => send_frame(
            out,
            &protocol::serving_summary_frame(outcome.points, outcome.shards),
        ),
        Err(e) => send_frame(out, &protocol::error_frame(EXIT_HARD, &e.to_string())),
    }
}

fn pareto_request(
    records: &Value,
    objectives: &str,
    out: &mut BufWriter<TcpStream>,
) -> io::Result<()> {
    let objectives = match Objective::parse_list(objectives) {
        Ok(objectives) => objectives,
        Err(e) => return send_frame(out, &protocol::error_frame(EXIT_HARD, &e.to_string())),
    };
    // The same schema sniff as the CLI: serving records always serialize
    // `p99_ms`, sweep records never do.
    let serving = records
        .as_array()
        .and_then(<[Value]>::first)
        .is_some_and(|first| first.get("p99_ms").is_some());
    let front_result = if serving {
        typed_front::<ServingRecord>(records, &objectives)
    } else {
        typed_front::<SweepRecord>(records, &objectives)
    };
    match front_result {
        Ok((lines, kept, total)) => {
            for line in lines {
                write_line(out, &line)?;
            }
            send_frame(out, &protocol::pareto_summary_frame(kept, total))
        }
        Err(e) => send_frame(out, &protocol::error_frame(EXIT_HARD, &e.to_string())),
    }
}

/// Deserializes the inline records, extracts the frontier, and renders it
/// as the same JSONL lines `pareto --jsonl` writes.
fn typed_front<
    R: serde::Deserialize + serde::Serialize + simphony_explore::ParetoRecord + Clone,
>(
    records: &Value,
    objectives: &[Objective],
) -> Result<(Vec<String>, usize, usize)> {
    let records: Vec<R> = serde_json::from_value(records)?;
    let front = pareto_front(&records, objectives)?;
    let mut lines = Vec::with_capacity(front.len());
    for record in &front {
        lines.push(serde_json::to_string(record)?);
    }
    Ok((lines, front.len(), records.len()))
}

fn cache_stats_request(state: &ServerState, out: &mut BufWriter<TcpStream>) -> io::Result<()> {
    let backend = match &state.cache {
        Some(cache) => match cache.stats() {
            Ok(stats) => Some(stats),
            Err(e) => return send_frame(out, &protocol::error_frame(EXIT_HARD, &e.to_string())),
        },
        None => None,
    };
    let artifacts = state
        .artifacts
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .stats();
    write_line(
        out,
        &protocol::cache_stats_frame(backend.as_ref(), &artifacts),
    )?;
    send_frame(out, &protocol::cache_stats_summary_frame())
}

/// The worker side of a distributed sweep: computes `start..end` of `spec`
/// as shard `shard` through the shared [`compute_shard_part`] path (the
/// daemon's resident artifact store and optional cache backend included) and
/// streams the part back — a `part` frame carrying the
/// shard-local meta, then the pre-rendered record lines, then the terminal
/// summary. Byte determinism makes the request idempotent, so coordinators
/// re-dispatch and replay it freely.
fn compute_shard_request(
    state: &ServerState,
    spec: &SweepSpec,
    shard: usize,
    start: usize,
    end: usize,
    out: &mut BufWriter<TcpStream>,
) -> io::Result<()> {
    let total = match spec.point_count() {
        Ok(total) => total,
        Err(e) => return send_frame(out, &protocol::error_frame(EXIT_HARD, &e.to_string())),
    };
    if start >= end || end > total {
        return send_frame(
            out,
            &protocol::error_frame(
                EXIT_USAGE,
                &format!(
                    "shard {shard} range {start}..{end} is not a non-empty slice of the \
                     {total}-point expansion"
                ),
            ),
        );
    }
    let points = end - start;
    let budget = effective_budget(state.config.max_points, None);
    if !check_budget(points, budget, out)? {
        return Ok(());
    }
    let _lane = bulk_lane(state, points);
    // Cache writes retry locally before degrading; the coordinator only
    // sees the degraded count in the meta.
    let computed = compute_shard_part(
        spec,
        state.cache.as_deref(),
        RetryPolicy::new(3),
        shard,
        start..end,
        &state.artifacts,
    );
    match computed {
        Ok(part) => {
            let meta_json = match serde_json::to_string(&part.meta) {
                Ok(json) => json,
                Err(e) => {
                    return send_frame(out, &protocol::error_frame(EXIT_HARD, &e.to_string()))
                }
            };
            write_line(out, &protocol::part_frame(&meta_json))?;
            out.write_all(part.body.as_bytes())?;
            send_frame(
                out,
                &protocol::compute_shard_summary_frame(
                    shard,
                    part.meta.emitted,
                    part.meta.failures.len(),
                ),
            )
        }
        Err(e) => send_frame(out, &protocol::error_frame(EXIT_HARD, &e.to_string())),
    }
}

// ---------------------------------------------------------------------------
// Client side: health check and one-shot requests (used by `serve --check`,
// the test suites, and scriptable shell clients).
// ---------------------------------------------------------------------------

fn connect(addr: &str, timeout: Duration) -> Result<TcpStream> {
    let mut last_err = None;
    let addrs = addr
        .to_socket_addrs()
        .map_err(|e| ExploreError::io_at(addr, e))?;
    for sock_addr in addrs {
        match TcpStream::connect_timeout(&sock_addr, timeout) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(timeout))
                    .and_then(|()| stream.set_write_timeout(Some(timeout)))
                    .and_then(|()| stream.set_nodelay(true))
                    .map_err(|e| ExploreError::io_at(addr, e))?;
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(ExploreError::io_at(
        addr,
        last_err.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            )
        }),
    ))
}

fn protocol_err(addr: &str, message: String) -> ExploreError {
    ExploreError::io_at(addr, io::Error::new(io::ErrorKind::InvalidData, message))
}

/// How many bytes of a server line a client error quotes.
const QUOTED_BYTES: usize = 64;

/// The start of `line`, quoted for an error message: at most
/// [`QUOTED_BYTES`] bytes, then an ellipsis when the line goes on.
fn quoted(line: &[u8]) -> String {
    let head = String::from_utf8_lossy(&line[..line.len().min(QUOTED_BYTES)]);
    let more = if line.len() > QUOTED_BYTES { "…" } else { "" };
    format!("{head:?}{more}")
}

/// Reads one line the server sent, without its newline, or `None` at end
/// of stream. Lines are capped like requests, at [`MAX_REQUEST_LINE_BYTES`]:
/// a longer line is a protocol error and nothing past the cap is read, so a
/// peer that keeps sending can neither grow the client without bound nor
/// hold it past the cap by beating the read timeout.
fn read_server_line(addr: &str, reader: &mut BufReader<TcpStream>) -> Result<Option<String>> {
    let mut line = Vec::new();
    let read = reader
        .by_ref()
        .take(MAX_REQUEST_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut line)
        .map_err(|e| ExploreError::io_at(addr, e))?;
    if read == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    }
    if line.len() > MAX_REQUEST_LINE_BYTES {
        return Err(protocol_err(
            addr,
            format!(
                "server line longer than {MAX_REQUEST_LINE_BYTES} bytes: {}",
                quoted(&line)
            ),
        ));
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|e| protocol_err(addr, e.to_string()))
}

/// Reads the server's hello frame and validates the protocol version.
fn read_hello(addr: &str, reader: &mut BufReader<TcpStream>) -> Result<()> {
    let line = read_server_line(addr, reader)?.unwrap_or_default();
    let hello: Value = serde_json::from_str(line.trim()).map_err(|_| {
        protocol_err(
            addr,
            format!("not a simphony-serve greeting: {}", quoted(line.as_bytes())),
        )
    })?;
    let frame = hello.get("frame").and_then(Value::as_str);
    let version = hello.get("protocol").and_then(Value::as_u64);
    if frame != Some("hello") {
        return Err(protocol_err(
            addr,
            format!("unexpected greeting: {}", quoted(line.as_bytes())),
        ));
    }
    if version != Some(PROTOCOL_VERSION) {
        return Err(protocol_err(
            addr,
            format!(
                "protocol version mismatch: server speaks {version:?}, client speaks \
                 {PROTOCOL_VERSION}"
            ),
        ));
    }
    Ok(())
}

/// Health-checks a running daemon: connect, validate the hello handshake,
/// and round-trip a `ping`. The CLI maps success to exit 0 and any error to
/// exit 1.
///
/// # Errors
///
/// Returns an error when the daemon is unreachable, speaks a different
/// protocol version, or fails to answer the ping within `timeout`.
pub fn check(addr: &str, timeout: Duration) -> Result<()> {
    let lines = request(addr, "{\"kind\":\"ping\"}", timeout)?;
    match lines.first() {
        Some(line) if line.starts_with("{\"frame\":\"pong\"") => Ok(()),
        other => Err(protocol_err(addr, format!("expected pong, got {other:?}"))),
    }
}

/// Request kinds a client may transparently replay on a fresh connection:
/// read-only probes and deterministic computations whose response depends
/// only on the request. `run`/`sweep`/`serve-sim` streams may already have
/// been partially consumed by the caller, and `shutdown` is a state change —
/// none of those are safe to reissue blind.
fn idempotent_kind(line: &str) -> Option<String> {
    let value: Value = serde_json::from_str(line).ok()?;
    let kind = value.get("kind")?.as_str()?;
    match kind {
        "ping" | "cache-stats" | "pareto" | "compute-shard" => Some(kind.to_string()),
        _ => None,
    }
}

/// A persistent connection to a running daemon.
///
/// [`Client::connect`] performs the version handshake once; [`Client::send`]
/// then issues any number of requests over the same stream. Interactive
/// clients (notebooks, dashboards, REPL loops) should hold a `Client` open —
/// repeated requests skip the connect and handshake cost entirely, and the
/// daemon's resident artifact store keeps their configurations warm.
///
/// A broken connection mid-request no longer poisons the client: for
/// *idempotent* request kinds (`ping`, `cache-stats`, `pareto`,
/// `compute-shard`) the client transparently reconnects — full handshake
/// included — on its [`RetryPolicy`] schedule and replays the request. For
/// non-replayable kinds (`run`, `sweep`, `serve-sim`, `shutdown`) it surfaces
/// a typed [`ExploreError::ConnectionLost`] instead of a raw I/O error, so
/// callers can distinguish "the daemon went away" from local I/O failures.
pub struct Client {
    addr: String,
    timeout: Duration,
    reconnect: RetryPolicy,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects, validates the hello handshake, and returns a client ready
    /// to issue requests. Mid-session reconnects default to
    /// [`RetryPolicy::new(3)`](RetryPolicy::new); tune with
    /// [`reconnect_policy`](Self::reconnect_policy).
    ///
    /// # Errors
    ///
    /// Returns an error on connection failure or handshake mismatch.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Client> {
        let (reader, writer) = open_session(addr, timeout)?;
        Ok(Client {
            addr: addr.to_string(),
            timeout,
            reconnect: RetryPolicy::new(3),
            reader,
            writer,
        })
    }

    /// Sets the retry schedule used for transparent mid-session reconnects
    /// ([`RetryPolicy::none`] disables them).
    #[must_use]
    pub fn reconnect_policy(mut self, policy: RetryPolicy) -> Client {
        self.reconnect = policy;
        self
    }

    /// Sends one request line and collects every response line through the
    /// terminal frame (`summary`/`error`, or `pong`/`bye` for probes). A
    /// dead connection is retried transparently for idempotent request
    /// kinds; see the type docs.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::ConnectionLost`] when the connection broke
    /// and could not be (or must not be) recovered; other errors for local
    /// I/O and handshake failures.
    pub fn send(&mut self, line: &str) -> Result<Vec<String>> {
        self.send_bounded(line, usize::MAX)
    }

    /// [`send`](Self::send) for a response of at most `max_lines` lines,
    /// terminal frame included: a server that has sent `max_lines` lines
    /// with no terminal frame among them broke the protocol, and the
    /// exchange fails without reading on. The coordinator bounds a
    /// `compute-shard` response by its shard size this way.
    ///
    /// # Errors
    ///
    /// As [`send`](Self::send). A response that runs past `max_lines` fails
    /// its exchange like a broken connection: an idempotent request is
    /// replayed on the reconnect schedule, and the last failure is reported
    /// as [`ExploreError::ConnectionLost`].
    pub fn send_bounded(&mut self, line: &str, max_lines: usize) -> Result<Vec<String>> {
        let line = line.trim();
        let first_try = self.exchange(line, max_lines);
        let Err(first_err) = first_try else {
            return first_try;
        };
        let Some(kind) = idempotent_kind(line) else {
            return Err(ExploreError::connection_lost(
                &self.addr,
                format!(
                    "request failed mid-stream ({first_err}); its kind is not idempotent, \
                     so it was not replayed — reconnect and decide whether to reissue"
                ),
            ));
        };
        // Transparent reconnect-with-handshake on the retry schedule, then
        // replay from scratch: responses are collected whole (through the
        // terminal frame), so nothing from the dead stream leaks into the
        // replayed one.
        let mut last_err = first_err;
        let schedule = self.reconnect.schedule();
        let attempts = schedule.len();
        for sleep_ms in schedule {
            if sleep_ms > 0 {
                std::thread::sleep(Duration::from_millis(sleep_ms));
            }
            match open_session(&self.addr, self.timeout) {
                Ok((reader, writer)) => {
                    self.reader = reader;
                    self.writer = writer;
                }
                Err(e) => {
                    last_err = e;
                    continue;
                }
            }
            match self.exchange(line, max_lines) {
                Ok(lines) => return Ok(lines),
                Err(e) => last_err = e,
            }
        }
        Err(ExploreError::connection_lost(
            &self.addr,
            format!("`{kind}` still failing after {attempts} reconnect attempts: {last_err}"),
        ))
    }

    /// One request/response exchange over the current stream, with no
    /// recovery, reading at most `max_lines` response lines.
    fn exchange(&mut self, line: &str, max_lines: usize) -> Result<Vec<String>> {
        let addr = &self.addr;
        write_line(&mut self.writer, line)
            .and_then(|()| self.writer.flush())
            .map_err(|e| ExploreError::io_at(addr, e))?;
        let mut lines = Vec::new();
        loop {
            // The read timeout equals the connect timeout, so a single tick
            // means the server produced nothing for that long — pick a
            // timeout that covers the worst inter-shard gap.
            let Some(line) = read_server_line(addr, &mut self.reader)? else {
                return Err(protocol_err(
                    addr,
                    "server closed the stream before a terminal frame".to_string(),
                ));
            };
            let terminal = protocol::is_terminal_frame(&line)
                || line.starts_with("{\"frame\":\"pong\"")
                || line.starts_with("{\"frame\":\"bye\"");
            lines.push(line);
            if terminal {
                return Ok(lines);
            }
            if lines.len() >= max_lines {
                return Err(protocol_err(
                    addr,
                    format!("response ran past {max_lines} lines without a terminal frame"),
                ));
            }
        }
    }
}

/// Connect + handshake: the shared front half of [`Client::connect`] and
/// every transparent reconnect.
fn open_session(
    addr: &str,
    timeout: Duration,
) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
    let stream = connect(addr, timeout)?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| ExploreError::io_at(addr, e))?,
    );
    let writer = BufWriter::new(stream);
    read_hello(addr, &mut reader)?;
    Ok((reader, writer))
}

/// One-shot client: connects, validates the hello handshake, sends a single
/// request line, and collects every response line through the terminal
/// frame (`summary`/`error`, or `pong`/`bye` for probes).
///
/// # Errors
///
/// Returns an error on connection failure, handshake mismatch, or when the
/// server closes the stream before a terminal frame.
pub fn request(addr: &str, line: &str, timeout: Duration) -> Result<Vec<String>> {
    Client::connect(addr, timeout)?.send(line)
}
