//! The three workloads, their set-up, and the untraced (end-to-end) runs.
//!
//! | workload        | what runs                                            |
//! |-----------------|------------------------------------------------------|
//! | `dse_aware`     | cold data-aware sweep, 896 points over 4 workloads   |
//! | `extract_heavy` | cold data-unaware sweep, 192 points over 48 workloads|
//! | `daemon_mixed`  | `run` requests beside a distributed bulk sweep       |
//!
//! Sweeps run the way `simphony-cli sweep --cache D --backend packed
//! --chunk-size 64 --jsonl F --keep-going` does. The seed feeds
//! `SweepSpec::seed` (workload extraction) and, on `daemon_mixed`, the
//! order of the `run` pool.

use std::fs::{self, File};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use simphony::DataAwareness;
use simphony_dataflow::DataflowStyle;
use simphony_explore::{
    compute_shard_part, ArchFamily, ArtifactStore, ExploreSession, JsonlSink, PackedSegmentCache,
    RecordSink, RetryPolicy, ShardProgress, StreamOptions, StreamOutcome, SweepPoint, SweepSpec,
    WorkloadSpec,
};
use simphony_onn::SplitMix64;
use simphony_serve::{distribute_sweep, protocol, Client, DistConfig, ServeConfig, Server};

use crate::checks;
use crate::metrics::{block_percentile, median, percentile, Metric, Report};
use crate::{fnv1a, BenchResult, FNV_OFFSET};

/// Points per shard of every local sweep (the CLI's `--chunk-size 64`).
pub const CHUNK: usize = 64;
/// Points per shard of the distributed bulk sweep: above the daemon's
/// default bulk threshold (256), so every `compute-shard` takes the bulk
/// lane.
pub const BULK_CHUNK: usize = 300;
/// Set-up passes per run; `setup_s` is their median. At 3 the daemon's
/// `setup_s` spread 0.27 of its median over ten runs.
const SETUP_REPS: usize = 5;
/// Blocks of sessions behind a sweep workload's `run_p99_ms`.
const P99_BLOCKS: usize = 5;
/// Client socket timeout against the in-process daemon.
const TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DseAware,
    ExtractHeavy,
    DaemonMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DseAware,
        Workload::ExtractHeavy,
        Workload::DaemonMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DseAware => "dse_aware",
            Workload::ExtractHeavy => "extract_heavy",
            Workload::DaemonMixed => "daemon_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sweep this workload runs; `daemon_mixed` distributes the
    /// `dse_aware` sweep and draws its `run` pool from the same space.
    pub fn spec(self, seed: u64) -> SweepSpec {
        let both = vec![
            DataflowStyle::OutputStationary,
            DataflowStyle::WeightStationary,
        ];
        let mut spec = match self {
            Workload::DseAware | Workload::DaemonMixed => SweepSpec::new(self.name())
                .with_workload(vec![WorkloadSpec::Vgg8])
                .with_arch(ArchFamily::ALL.to_vec())
                .with_core_dims(vec![4, 8])
                .with_wavelengths(vec![1, 2, 4, 8])
                .with_bitwidth(vec![4, 8])
                .with_sparsity(vec![0.0, 0.5])
                .with_dataflow(both)
                .with_data_awareness(vec![DataAwareness::Aware]),
            // Only the dynamic families accept attention layers.
            Workload::ExtractHeavy => SweepSpec::new(self.name())
                .with_workload(vec![
                    WorkloadSpec::Bert { seq_len: 32 },
                    WorkloadSpec::Bert { seq_len: 64 },
                    WorkloadSpec::Bert { seq_len: 128 },
                    WorkloadSpec::Vgg8,
                ])
                .with_arch(vec![ArchFamily::Tempo, ArchFamily::MrrBank])
                .with_bitwidth(vec![4, 6, 8])
                .with_sparsity(vec![0.0, 0.25, 0.5, 0.75])
                .with_dataflow(both)
                .with_data_awareness(vec![DataAwareness::Unaware]),
        };
        spec.seed = seed;
        spec
    }
}

/// A JSONL output as the checks see it: an FNV-1a digest of its bytes and
/// its line count, read in one streaming pass so that the benchmark never
/// holds an output in memory (which would show in `peak_rss_mb`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Output {
    pub digest: u64,
    pub lines: usize,
}

pub fn read_output(path: &Path) -> BenchResult<Output> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut output = Output {
        digest: FNV_OFFSET,
        lines: 0,
    };
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(output);
        }
        output.digest = fnv1a(output.digest, chunk);
        output.lines += chunk.iter().filter(|&&b| b == b'\n').count();
        let read = chunk.len();
        reader.consume(read);
    }
}

/// One local sweep session and what it produced.
pub struct SessionRun {
    pub wall: Duration,
    pub outcome: StreamOutcome,
    pub output: Output,
}

/// Runs `spec` like `sweep --cache <cache_dir> --backend packed --chunk-size
/// 64 --jsonl <out> --keep-going`, timing everything from opening the cache
/// to the sink's final flush, and reads the JSONL back.
pub fn session(spec: &SweepSpec, cache_dir: &Path, out: &Path) -> BenchResult<SessionRun> {
    if let Some(dir) = out.parent() {
        fs::create_dir_all(dir)?;
    }
    let start = Instant::now();
    let cache = PackedSegmentCache::open(cache_dir)?;
    let mut sink = JsonlSink::create(out)?;
    let outcome = ExploreSession::new(spec)
        .cache(cache)
        .chunk_size(CHUNK)
        .keep_going()
        .sink(&mut sink)
        .run()?;
    drop(sink);
    let wall = start.elapsed();
    Ok(SessionRun {
        wall,
        outcome,
        output: read_output(out)?,
    })
}

/// Counts a session's points and failures and checks its cache accounting
/// (every session starts from an empty cache, so every point is a miss) and
/// record count against the expansion.
pub fn account(report: &mut Report, run: &SessionRun, total: usize) {
    let outcome = &run.outcome;
    report.attempted += total as u64;
    report.failed += outcome.failures.len() as u64;
    report.check(
        outcome.stats.hits == 0 && outcome.stats.misses == total,
        || {
            format!(
                "expected {total} cache misses and no hits, got {:?}",
                outcome.stats
            )
        },
    );
    let lines = run.output.lines;
    report.check(lines == total, || {
        format!("{lines} JSONL records for a {total}-point expansion")
    });
}

/// Runs `setup` [`SETUP_REPS`] times, keeping the last result; returns it
/// with the median pass time in seconds.
fn repeated_setup<T>(mut setup: impl FnMut(usize) -> BenchResult<T>) -> BenchResult<(T, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let state = setup(rep)?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some(state);
    }
    Ok((kept.expect("SETUP_REPS > 0"), median(&times)))
}

pub fn run_untraced(
    workload: Workload,
    seed: u64,
    budget: Duration,
    work: &Path,
) -> BenchResult<Report> {
    match workload {
        Workload::DseAware | Workload::ExtractHeavy => cold_sweep(workload, seed, budget, work),
        Workload::DaemonMixed => daemon_mixed(seed, budget, work),
    }
}

/// Throughput and per-session latency of a run of sweep sessions.
/// Throughput is over the summed session time rather than a median of
/// per-session rates: the host runs in slow and fast phases of a few
/// seconds, and the median jumps between them where the total does not.
fn sweep_metrics(report: &mut Report, total: usize, walls: &[Duration], setup_s: f64) {
    let ms: Vec<f64> = walls.iter().map(|w| w.as_secs_f64() * 1e3).collect();
    let busy_s: f64 = walls.iter().map(Duration::as_secs_f64).sum();
    let sessions = walls.len() as f64;
    report.push(Metric::new(
        "points_per_s",
        sessions * total as f64 / busy_s,
        "points/s",
    ));
    report.push(Metric::new("run_p50_ms", median(&ms), "ms"));
    report.push(Metric::new(
        "run_p99_ms",
        block_percentile(&ms, 99.0, P99_BLOCKS),
        "ms",
    ));
    report.push(Metric::new("runs_per_s", sessions / busy_s, "req/s"));
    report.push(Metric::new("setup_s", setup_s, "s"));
    for name in ["points_per_s", "run_p50_ms", "run_p99_ms", "runs_per_s"] {
        report.sample_count(name, walls.len());
    }
}

/// Warm-up of a cold sweep: its first shard, computed without a cache, so
/// code, allocator and page cache are warm before timing.
fn warm_up(spec: &SweepSpec) -> BenchResult<()> {
    let store = std::sync::Mutex::new(ArtifactStore::default());
    let end = CHUNK.min(spec.point_count()?);
    compute_shard_part(spec, None, RetryPolicy::none(), 0, 0..end, &store)?;
    Ok(())
}

fn cold_sweep(workload: Workload, seed: u64, budget: Duration, work: &Path) -> BenchResult<Report> {
    let (spec, setup_s) = repeated_setup(|_| {
        let spec = workload.spec(seed);
        spec.validate()?;
        warm_up(&spec)?;
        Ok(spec)
    })?;
    let total = spec.point_count()?;
    let mut report = Report::default();
    let mut walls = Vec::new();
    let reference_path = work.join("reference.jsonl");
    let mut reference: Option<Output> = None;
    let deadline = Instant::now() + budget;
    while walls.is_empty() || Instant::now() < deadline {
        let dir = work.join(format!("session-{}", walls.len()));
        // The first session's output is kept for the sampled checks.
        let out = match reference {
            None => reference_path.clone(),
            Some(_) => dir.join("out.jsonl"),
        };
        let run = session(&spec, &dir.join("cache"), &out)?;
        fs::remove_dir_all(&dir)?;
        account(&mut report, &run, total);
        match reference {
            None => reference = Some(run.output),
            Some(first) => report.check(first == run.output, || {
                format!("session {} output differs from session 0", walls.len())
            }),
        }
        walls.push(run.wall);
    }
    checks::sample_points(&mut report, &spec, &reference_path, seed)?;
    sweep_metrics(&mut report, total, &walls, setup_s);
    Ok(report)
}

/// One entry of the daemon's `run` pool.
pub struct PoolEntry {
    /// The configuration, as the daemon sees it (index 0 of a one-point
    /// spec).
    pub point: SweepPoint,
    /// The `run` request line.
    pub line: String,
}

/// Core height, core width, wavelengths, bitwidth, sparsity and dataflow
/// of the `run` pool's configurations, crossed with every architecture
/// family: a fixed mix of work drawn from `dse_aware`'s space.
const RUN_SHAPES: [(usize, usize, usize, u8, f64, DataflowStyle); 4] = [
    (4, 4, 1, 8, 0.0, DataflowStyle::OutputStationary),
    (8, 8, 8, 4, 0.5, DataflowStyle::WeightStationary),
    (4, 8, 2, 8, 0.5, DataflowStyle::OutputStationary),
    (8, 4, 4, 4, 0.0, DataflowStyle::WeightStationary),
];

/// The daemon's `run` pool and the order a run loop cycles through it.
pub struct RunPool {
    pub entries: Vec<PoolEntry>,
    pub order: Vec<usize>,
}

/// Every seed sends the same configurations, so the mix of work is fixed;
/// the seed sets their weights (`SweepSpec::seed`) and the order.
pub fn run_pool(seed: u64) -> BenchResult<RunPool> {
    let mut entries = Vec::with_capacity(ArchFamily::ALL.len() * RUN_SHAPES.len());
    for arch in ArchFamily::ALL {
        for (height, width, wavelengths, bits, sparsity, dataflow) in RUN_SHAPES {
            let mut spec = SweepSpec::new(format!("run-{arch}-{height}x{width}-{wavelengths}"))
                .with_workload(vec![WorkloadSpec::Vgg8])
                .with_arch(vec![arch])
                .with_wavelengths(vec![wavelengths])
                .with_bitwidth(vec![bits])
                .with_sparsity(vec![sparsity])
                .with_dataflow(vec![dataflow])
                .with_data_awareness(vec![DataAwareness::Aware]);
            spec.core_height = vec![height];
            spec.core_width = vec![width];
            spec.seed = seed;
            let line = format!(
                "{{\"kind\":\"run\",\"spec\":{}}}",
                serde_json::to_string(&spec)?
            );
            entries.push(PoolEntry {
                point: spec.point_at(0),
                line,
            });
        }
    }
    // Fisher–Yates over the pool indices.
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..entries.len()).collect();
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    Ok(RunPool { entries, order })
}

/// An in-process daemon on loopback (no result cache) whose artifact store
/// has seen every configuration the workload sends. Dropping it shuts the
/// daemon down and waits for it.
pub struct Daemon {
    server: Option<Server>,
    pub addr: String,
    /// The first `report` frame of each pool entry.
    pub frames: Vec<String>,
    /// The warm-up bulk sweep's merged JSONL file and its output.
    pub bulk_path: PathBuf,
    pub bulk_reference: Output,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

fn bulk_options() -> StreamOptions {
    StreamOptions::chunked(BULK_CHUNK).keep_going()
}

/// Starts a daemon and warms it with one pass over the pool and one bulk
/// sweep.
pub fn start_daemon(spec: &SweepSpec, pool: &RunPool, dir: &Path) -> BenchResult<Daemon> {
    fs::create_dir_all(dir)?;
    let bulk_path = dir.join("warm.jsonl");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let server = Server::start(config, None)?;
    let addr = server.local_addr().to_string();
    // Built before the warm-up so that an error in it still shuts the
    // daemon down on drop; the digest is filled in below.
    let mut daemon = Daemon {
        server: Some(server),
        addr,
        frames: Vec::with_capacity(pool.entries.len()),
        bulk_path: bulk_path.clone(),
        bulk_reference: Output {
            digest: FNV_OFFSET,
            lines: 0,
        },
    };
    let mut client = Client::connect(&daemon.addr, TIMEOUT)?;
    for entry in &pool.entries {
        let frames = client.send(&entry.line)?;
        daemon
            .frames
            .push(frames.into_iter().next().unwrap_or_default());
    }
    let mut sink = JsonlSink::create(&bulk_path)?;
    bulk_sweep(spec, &daemon.addr, &mut sink, &mut |_| {})?;
    drop(sink);
    daemon.bulk_reference = read_output(&bulk_path)?;
    Ok(daemon)
}

/// One distributed sweep of `spec` with the daemon at `addr` as the only
/// worker, merged into `sink`; returns the outcome and its wall time.
pub fn bulk_sweep(
    spec: &SweepSpec,
    addr: &str,
    sink: &mut dyn RecordSink,
    progress: &mut dyn FnMut(&ShardProgress),
) -> BenchResult<(StreamOutcome, Duration)> {
    let config = DistConfig {
        workers: vec![addr.to_string()],
        ..DistConfig::default()
    };
    let start = Instant::now();
    let outcome = distribute_sweep(spec, &bulk_options(), &config, sink, progress, None)?;
    Ok((outcome, start.elapsed()))
}

/// What the `run` connection saw.
#[derive(Default)]
pub struct RunLoop {
    /// Round trip of every request, ms.
    pub rtts_ms: Vec<f64>,
    /// When each request was sent, from the start of the loop.
    pub sent: Vec<Duration>,
    /// Requests refused with `server busy`.
    pub refused: u64,
    /// Responses that were neither the pool entry's first report nor a
    /// refusal.
    pub mismatched: u64,
}

/// Closed loop of `run` requests over one connection, cycling through the
/// pool until `deadline`; every answer must repeat the report the daemon
/// gave for that configuration during warm-up.
fn run_loop(daemon: &Daemon, pool: &RunPool, deadline: Instant) -> BenchResult<RunLoop> {
    let mut client = Client::connect(&daemon.addr, TIMEOUT)?;
    let summary = protocol::run_summary_frame();
    let mut seen = RunLoop::default();
    let start = Instant::now();
    while Instant::now() < deadline {
        let entry = pool.order[seen.rtts_ms.len() % pool.order.len()];
        let sent = Instant::now();
        let frames = client.send(&pool.entries[entry].line)?;
        seen.rtts_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        seen.sent.push(sent - start);
        match frames.as_slice() {
            [report, end] if *report == daemon.frames[entry] && *end == summary => {}
            [error] if error.contains("server busy") => seen.refused += 1,
            _ => seen.mismatched += 1,
        }
    }
    Ok(seen)
}

impl RunLoop {
    /// Nearest-rank percentile `p` of the round trips (ms) of each whole
    /// one-second window of the loop. Medians over windows keep a few
    /// seconds of host slowdown from moving the run's figures.
    pub fn window_percentiles(&self, p: f64) -> Vec<f64> {
        let whole = self.sent.last().map_or(0, Duration::as_secs) as usize;
        let mut rtts = vec![Vec::new(); whole];
        for (sent, rtt) in self.sent.iter().zip(&self.rtts_ms) {
            if let Some(window) = rtts.get_mut(sent.as_secs() as usize) {
                window.push(*rtt);
            }
        }
        rtts.iter().map(|w| percentile(w, p)).collect()
    }
}

/// What the bulk connection saw.
#[derive(Default)]
pub struct BulkLoop {
    pub walls: Vec<Duration>,
    pub failures: u64,
    /// Sweeps whose merged bytes differ from the warm-up sweep's.
    pub mismatched: u64,
}

/// Distributed sweeps of `spec` back to back until `deadline`, each merged
/// into a fresh JSONL file through `wrap` (identity when untraced).
fn bulk_loop<'w>(
    daemon: &Daemon,
    spec: &SweepSpec,
    dir: &Path,
    deadline: Instant,
    progress: &mut dyn FnMut(&ShardProgress),
    mut wrap: impl FnMut(JsonlSink) -> Box<dyn RecordSink + 'w>,
) -> BenchResult<BulkLoop> {
    fs::create_dir_all(dir)?;
    let path = dir.join("bulk.jsonl");
    let mut seen = BulkLoop::default();
    while seen.walls.is_empty() || Instant::now() < deadline {
        let mut sink = wrap(JsonlSink::create(&path)?);
        let (outcome, wall) = bulk_sweep(spec, &daemon.addr, sink.as_mut(), progress)?;
        drop(sink);
        seen.failures += outcome.failures.len() as u64;
        if read_output(&path)? != daemon.bulk_reference {
            seen.mismatched += 1;
        }
        seen.walls.push(wall);
    }
    Ok(seen)
}

/// What both connections saw.
pub struct Mix {
    pub runs: RunLoop,
    pub bulk: BulkLoop,
}

/// The `run` loop on a second thread beside the bulk loop on this one, both
/// until `deadline`; `progress` and `wrap` go to the bulk loop.
pub fn run_mix<'w>(
    daemon: &Daemon,
    spec: &SweepSpec,
    pool: &RunPool,
    dir: &Path,
    deadline: Instant,
    progress: &mut dyn FnMut(&ShardProgress),
    wrap: impl FnMut(JsonlSink) -> Box<dyn RecordSink + 'w>,
) -> BenchResult<Mix> {
    std::thread::scope(|scope| {
        let runs = scope.spawn(|| run_loop(daemon, pool, deadline));
        let bulk = bulk_loop(daemon, spec, dir, deadline, progress, wrap);
        let runs = runs.join().expect("run loop thread panicked");
        Ok(Mix {
            runs: runs?,
            bulk: bulk?,
        })
    })
}

/// Checks shared by the untraced and traced daemon runs: record counts,
/// response bytes, and the daemon's answers against in-process simulation.
pub fn daemon_checks(
    report: &mut Report,
    spec: &SweepSpec,
    pool: &RunPool,
    daemon: &Daemon,
    mix: &Mix,
    seed: u64,
    work: &Path,
) -> BenchResult<()> {
    let Mix { runs, bulk } = mix;
    let total = spec.point_count()?;
    report.attempted += runs.rtts_ms.len() as u64 + (bulk.walls.len() * total) as u64;
    report.failed += runs.refused + bulk.failures;
    report.check(runs.mismatched == 0, || {
        format!("{} `run` responses differ from warm-up", runs.mismatched)
    });
    report.check(bulk.mismatched == 0, || {
        format!("{} bulk sweeps differ from warm-up", bulk.mismatched)
    });
    for (entry, frame) in pool.entries.iter().zip(&daemon.frames) {
        let report_text = format!("{}\n", simphony_explore::simulate_point(&entry.point)?);
        report.check(*frame == protocol::report_frame(&report_text), || {
            format!(
                "`run` report for {} differs from simulate_point",
                entry.point.label()
            )
        });
    }
    // The distributed merge must equal a local run of the same sweep.
    let local = session(spec, &work.join("local-cache"), &work.join("local.jsonl"))?;
    report.check(local.output == daemon.bulk_reference, || {
        "distributed bulk sweep differs from a local session".to_string()
    });
    checks::sample_points(report, spec, &daemon.bulk_path, seed)
}

fn daemon_mixed(seed: u64, budget: Duration, work: &Path) -> BenchResult<Report> {
    let spec = Workload::DaemonMixed.spec(seed);
    let pool = run_pool(seed)?;
    let (daemon, setup_s) =
        repeated_setup(|rep| start_daemon(&spec, &pool, &work.join(format!("setup-{rep}"))))?;
    let total = spec.point_count()?;
    let deadline = Instant::now() + budget;
    let mix = run_mix(
        &daemon,
        &spec,
        &pool,
        &work.join("bulk"),
        deadline,
        &mut |_| {},
        |sink| Box::new(sink),
    )?;
    let mut report = Report::default();
    daemon_checks(&mut report, &spec, &pool, &daemon, &mix, seed, work)?;
    drop(daemon);
    let Mix { runs, bulk } = mix;
    // Rates over summed busy time, as on the sweep workloads.
    let bulk_s: f64 = bulk.walls.iter().map(Duration::as_secs_f64).sum();
    report.push(Metric::new(
        "points_per_s",
        (bulk.walls.len() * total) as f64 / bulk_s,
        "points/s",
    ));
    let window_p50s = runs.window_percentiles(50.0);
    let window_p99s = runs.window_percentiles(99.0);
    report.push(Metric::new("run_p50_ms", median(&window_p50s), "ms"));
    report.push(Metric::new("run_p99_ms", median(&window_p99s), "ms"));
    let runs_s: f64 = runs.rtts_ms.iter().sum::<f64>() / 1e3;
    report.push(Metric::new(
        "runs_per_s",
        runs.rtts_ms.len() as f64 / runs_s,
        "req/s",
    ));
    report.push(Metric::new("setup_s", setup_s, "s"));
    report.sample_count("points_per_s", bulk.walls.len());
    report.sample_count("run_p50_ms", window_p50s.len());
    report.sample_count("run_p99_ms", window_p99s.len());
    report.sample_count("runs_per_s", runs.rtts_ms.len());
    Ok(report)
}
