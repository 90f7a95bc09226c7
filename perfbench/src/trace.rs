//! The traced run: per-layer metrics, measured from outside the program.
//!
//! Each workload runs at `RAYON_NUM_THREADS=1`, in two parts:
//!
//! * **Wrappers.** The real session runs with timing wrappers around its
//!   cache backend ([`TimedCache`]) and record sink ([`TimedSink`]), which
//!   implement the public `CacheBackend` and `RecordSink` traits, a shared
//!   `ArtifactStore` whose `stats()` are read afterwards, and an
//!   `on_progress` callback that timestamps shard completions.
//! * **Stage-by-stage replay** ([`replay`]). The same points go through the
//!   public functions one stage at a time: `extract_workload` per distinct
//!   workload key, `build_accelerator` per architecture key,
//!   `simulate_point_with` per point, record rendering, cache
//!   `put_serialized`/`flush`, then sink `accept`/`flush_shard`.
//!
//! Spans (name, shard, thread, start, duration) are kept in memory and
//! written at the end as a Chrome trace-event file,
//! `.bench_work/traces/<workload>.json`. The replay's output bytes must equal
//! the untraced session's, and so must the wrapped session's.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use simphony::DataAwareness;
use simphony_explore::{
    build_accelerator, content_key, extract_workload, simulate_point_with, ArtifactBudget,
    ArtifactStore, ArtifactStoreStats, BackendStats, CacheBackend, ExploreSession, JsonlSink,
    PackedSegmentCache, RecordSink, ShardProgress, SweepPoint, SweepRecord, SweepSpec,
};

use crate::metrics::{median, Metric, Report};
use crate::workloads::{self, Workload, CHUNK};
use crate::{checks, BenchResult};

/// One timed call at a layer boundary.
struct Span {
    name: &'static str,
    /// The shard the call served (the cause of the span).
    shard: usize,
    thread: u64,
    start: Duration,
    duration: Duration,
}

/// In-memory span and counter recorder shared by the wrappers and the
/// replay.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static INDEX: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    INDEX.with(|i| *i)
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, shard: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let duration = start.elapsed();
        let span = Span {
            name,
            shard,
            thread: thread_index(),
            start: start - self.origin,
            duration,
        };
        self.spans.lock().expect("tracer lock").push(span);
        out
    }

    pub fn add(&self, counter: &'static str, n: u64) {
        *self
            .counters
            .lock()
            .expect("tracer lock")
            .entry(counter)
            .or_default() += n;
    }

    pub fn counter(&self, counter: &str) -> u64 {
        let counters = self.counters.lock().expect("tracer lock");
        counters.get(counter).copied().unwrap_or(0)
    }

    pub fn calls(&self, name: &str) -> usize {
        let spans = self.spans.lock().expect("tracer lock");
        spans.iter().filter(|s| s.name == name).count()
    }

    pub fn busy_ms(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("tracer lock");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration.as_secs_f64() * 1e3)
            .sum()
    }

    /// Busy time of every span, ms (the replay's spans never nest).
    pub fn total_busy_ms(&self) -> f64 {
        let spans = self.spans.lock().expect("tracer lock");
        spans.iter().map(|s| s.duration.as_secs_f64() * 1e3).sum()
    }

    /// Appends the spans as Chrome trace events of process `pid`.
    fn chrome_events(&self, pid: u32, out: &mut Vec<String>) {
        let spans = self.spans.lock().expect("tracer lock");
        for s in spans.iter() {
            let mut event = String::new();
            let _ = write!(
                event,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"shard\":{}}}}}",
                s.name,
                s.thread,
                s.start.as_secs_f64() * 1e6,
                s.duration.as_secs_f64() * 1e6,
                s.shard
            );
            out.push(event);
        }
    }
}

/// Writes the spans of `tracers` (one trace process each) to `path`.
fn write_trace(path: &Path, tracers: &[&Tracer]) -> BenchResult<()> {
    let mut events = Vec::new();
    for (pid, tracer) in (1..).zip(tracers) {
        tracer.chrome_events(pid, &mut events);
    }
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, format!("[\n{}\n]\n", events.join(",\n")))?;
    Ok(())
}

/// Cache backend wrapper recording a span per `get_batch`,
/// `put_serialized` and `flush` (the calls the executor makes), and
/// counting lookups.
pub struct TimedCache<'t, C> {
    inner: C,
    tracer: &'t Tracer,
    batches: AtomicU64,
    flushes: AtomicU64,
}

impl<'t, C: CacheBackend> TimedCache<'t, C> {
    pub fn new(inner: C, tracer: &'t Tracer) -> Self {
        Self {
            inner,
            tracer,
            batches: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        }
    }
}

impl<C: CacheBackend> CacheBackend for TimedCache<'_, C> {
    fn get(&self, point: &SweepPoint) -> Option<SweepRecord> {
        self.inner.get(point)
    }

    fn get_batch(&self, points: &[&SweepPoint]) -> Vec<Option<SweepRecord>> {
        let shard = self.batches.fetch_add(1, Ordering::Relaxed) as usize;
        let found = self.tracer.time("explore.cache.get_batch", shard, || {
            self.inner.get_batch(points)
        });
        self.tracer
            .add("explore.cache.lookups", points.len() as u64);
        found
    }

    fn put(&self, record: &SweepRecord) -> simphony_explore::Result<()> {
        self.inner.put(record)
    }

    fn put_serialized(
        &self,
        key: &str,
        json: &str,
        record: &SweepRecord,
    ) -> simphony_explore::Result<()> {
        // Puts land between two flushes, so the flush count is the shard.
        let shard = self.flushes.load(Ordering::Relaxed) as usize;
        self.tracer.time("explore.cache.put", shard, || {
            self.inner.put_serialized(key, json, record)
        })
    }

    fn len(&self) -> simphony_explore::Result<usize> {
        self.inner.len()
    }

    fn stats(&self) -> simphony_explore::Result<BackendStats> {
        self.inner.stats()
    }

    fn flush(&self) -> simphony_explore::Result<()> {
        let shard = self.flushes.fetch_add(1, Ordering::Relaxed) as usize;
        self.tracer
            .time("explore.cache.flush", shard, || self.inner.flush())
    }

    fn scan(
        &self,
        visit: &mut dyn FnMut(String, SweepRecord) -> simphony_explore::Result<()>,
    ) -> simphony_explore::Result<()> {
        self.inner.scan(visit)
    }
}

/// Record sink wrapper recording a span per `accept` and per shard flush.
pub struct TimedSink<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    shard: usize,
}

impl<'t, S> TimedSink<'t, S> {
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        Self {
            inner,
            tracer,
            shard: 0,
        }
    }
}

impl<S: RecordSink> RecordSink for TimedSink<'_, S> {
    fn accept(&mut self, record: SweepRecord) -> simphony_explore::Result<()> {
        let inner = &mut self.inner;
        self.tracer
            .time("explore.sink.accept", self.shard, || inner.accept(record))
    }

    fn flush_shard(&mut self) -> simphony_explore::Result<()> {
        let inner = &mut self.inner;
        let out = self
            .tracer
            .time("explore.sink.flush", self.shard, || inner.flush_shard());
        self.shard += 1;
        out
    }

    fn sync(&mut self) -> simphony_explore::Result<()> {
        self.inner.sync()
    }

    fn finish(&mut self) -> simphony_explore::Result<()> {
        let inner = &mut self.inner;
        self.tracer
            .time("explore.sink.finish", self.shard, || inner.finish())
    }
}

/// The executor's work, one stage at a time on this thread: cache lookup per
/// shard; for each miss, artifacts (each distinct key built once, as the
/// session's artifact store does), simulation, rendering and cache put;
/// cache flush; then the shard's records into the sink and a shard flush.
pub fn replay(
    spec: &SweepSpec,
    cache: Option<&dyn CacheBackend>,
    sink: &mut dyn RecordSink,
    tracer: &Tracer,
    chunk: usize,
) -> BenchResult<()> {
    let total = spec.point_count()?;
    let mut workloads = HashMap::new();
    let mut accelerators = HashMap::new();
    for (shard, start) in (0..total).step_by(chunk).enumerate() {
        let points: Vec<SweepPoint> = (start..total.min(start + chunk))
            .map(|i| spec.point_at(i))
            .collect();
        let cached = match cache {
            Some(cache) => {
                let refs: Vec<&SweepPoint> = points.iter().collect();
                tracer.time("explore.cache.get_batch", shard, || cache.get_batch(&refs))
            }
            None => vec![None; points.len()],
        };
        let mut records = Vec::with_capacity(points.len());
        for (point, hit) in points.into_iter().zip(cached) {
            if let Some(record) = hit {
                records.push(record);
                continue;
            }
            let workload = match workloads.get(&point.workload_key()) {
                Some(workload) => Arc::clone(workload),
                None => {
                    let built =
                        Arc::new(tracer.time("onn.extract", shard, || extract_workload(&point))?);
                    workloads.insert(point.workload_key(), Arc::clone(&built));
                    built
                }
            };
            let accel = match accelerators.get(&point.arch_key()) {
                Some(accel) => Arc::clone(accel),
                None => {
                    let built =
                        Arc::new(tracer.time("core.build", shard, || build_accelerator(&point))?);
                    accelerators.insert(point.arch_key(), Arc::clone(&built));
                    built
                }
            };
            let stage = match point.data_awareness {
                DataAwareness::Aware => "core.sim_aware",
                DataAwareness::Unaware => "core.sim_unaware",
            };
            let report = tracer.time(stage, shard, || {
                simulate_point_with(&point, &accel, &workload)
            })?;
            let (record, key, json) = tracer.time("explore.render", shard, || {
                let key = content_key(&point);
                let record = SweepRecord::from_report(point, &report);
                serde_json::to_string(&record).map(|json| (record, key, json))
            })?;
            if let Some(cache) = cache {
                tracer.time("explore.cache.put", shard, || {
                    cache.put_serialized(&key, &json, &record)
                })?;
            }
            records.push(record);
        }
        if let Some(cache) = cache {
            tracer.time("explore.cache.flush", shard, || cache.flush())?;
        }
        for record in records {
            tracer.time("explore.sink.accept", shard, || sink.accept(record))?;
        }
        tracer.time("explore.sink.flush", shard, || sink.flush_shard())?;
    }
    sink.finish()?;
    Ok(())
}

/// Every per-layer metric, with its unit. Workloads that do not exercise a
/// layer report 0 for it.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, Vec<f64>>,
}

const LAYER_METRICS: [(&str, &str); 35] = [
    ("onn.extract.calls", "count"),
    ("onn.extract.busy_ms", "ms"),
    ("onn.extract.mean_ms", "ms"),
    ("core.build.calls", "count"),
    ("core.build.busy_ms", "ms"),
    ("core.sim_aware.calls", "count"),
    ("core.sim_aware.busy_ms", "ms"),
    ("core.sim_aware.mean_us", "us"),
    ("core.sim_unaware.calls", "count"),
    ("core.sim_unaware.busy_ms", "ms"),
    ("core.sim_unaware.mean_us", "us"),
    ("explore.render.busy_ms", "ms"),
    ("explore.cache.lookups", "count"),
    ("explore.cache.get_batch.busy_ms", "ms"),
    ("explore.cache.put.calls", "count"),
    ("explore.cache.put.busy_ms", "ms"),
    ("explore.cache.flush.calls", "count"),
    ("explore.cache.flush.busy_ms", "ms"),
    ("explore.sink.accept.busy_ms", "ms"),
    ("explore.sink.flush.calls", "count"),
    ("explore.sink.flush.busy_ms", "ms"),
    ("explore.artifacts.hits", "count"),
    ("explore.artifacts.misses", "count"),
    ("explore.artifacts.evictions", "count"),
    ("explore.session.wall_ms", "ms"),
    ("explore.session.shards", "count"),
    ("explore.session.shard_gap_ms", "ms"),
    ("explore.session.unattributed_ms", "ms"),
    ("serve.run.rtt_p50_ms", "ms"),
    ("serve.run.server_sim_us", "us"),
    ("serve.run.overhead_us", "us"),
    ("serve.dist.shards", "count"),
    ("serve.dist.shard_rtt_ms", "ms"),
    ("serve.busy_refusals", "count"),
    ("trace.overhead_ms", "ms"),
];

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.entry(name).or_default().push(value);
    }

    /// The replay's compute stages: extraction, build, simulation, render.
    fn compute_stages(&mut self, replay: &Tracer) {
        let calls = |name| replay.calls(name) as f64;
        let mean = |name, scale: f64| {
            let n = replay.calls(name);
            if n == 0 {
                0.0
            } else {
                replay.busy_ms(name) * scale / n as f64
            }
        };
        self.set("onn.extract.calls", calls("onn.extract"));
        self.set("onn.extract.busy_ms", replay.busy_ms("onn.extract"));
        self.set("onn.extract.mean_ms", mean("onn.extract", 1.0));
        self.set("core.build.calls", calls("core.build"));
        self.set("core.build.busy_ms", replay.busy_ms("core.build"));
        for (stage, calls_name, busy, mean_us) in [
            (
                "core.sim_aware",
                "core.sim_aware.calls",
                "core.sim_aware.busy_ms",
                "core.sim_aware.mean_us",
            ),
            (
                "core.sim_unaware",
                "core.sim_unaware.calls",
                "core.sim_unaware.busy_ms",
                "core.sim_unaware.mean_us",
            ),
        ] {
            self.set(calls_name, calls(stage));
            self.set(busy, replay.busy_ms(stage));
            self.set(mean_us, mean(stage, 1e3));
        }
        self.set("explore.render.busy_ms", replay.busy_ms("explore.render"));
    }

    /// The wrapped session's cache and sink stages, divided by `sessions`.
    fn io_stages(&mut self, session: &Tracer, sessions: f64) {
        let per = |v: f64| v / sessions;
        self.set(
            "explore.cache.lookups",
            per(session.counter("explore.cache.lookups") as f64),
        );
        for (stage, calls, busy) in [
            (
                "explore.cache.get_batch",
                "",
                "explore.cache.get_batch.busy_ms",
            ),
            (
                "explore.cache.put",
                "explore.cache.put.calls",
                "explore.cache.put.busy_ms",
            ),
            (
                "explore.cache.flush",
                "explore.cache.flush.calls",
                "explore.cache.flush.busy_ms",
            ),
            ("explore.sink.accept", "", "explore.sink.accept.busy_ms"),
            (
                "explore.sink.flush",
                "explore.sink.flush.calls",
                "explore.sink.flush.busy_ms",
            ),
        ] {
            if !calls.is_empty() {
                self.set(calls, per(session.calls(stage) as f64));
            }
            self.set(busy, per(session.busy_ms(stage)));
        }
    }

    fn artifacts(&mut self, stats: ArtifactStoreStats) {
        self.set("explore.artifacts.hits", stats.hits as f64);
        self.set("explore.artifacts.misses", stats.misses as f64);
        self.set("explore.artifacts.evictions", stats.evictions as f64);
    }

    /// Pushes the median of every metric (0 where the workload recorded
    /// none) into `report`.
    fn report(&self, report: &mut Report) {
        for (name, unit) in LAYER_METRICS {
            let value = self.values.get(name).map_or(0.0, |v| median(v));
            report.push(Metric::new(name, value, unit));
        }
    }
}

/// Distinct artifact keys the points of `spec` need: what a cold run's
/// artifact store must miss on.
fn distinct_keys(spec: &SweepSpec) -> BenchResult<u64> {
    let mut workloads = HashSet::new();
    let mut accelerators = HashSet::new();
    for point in spec.points()? {
        workloads.insert(point.workload_key());
        accelerators.insert(point.arch_key());
    }
    Ok((workloads.len() + accelerators.len()) as u64)
}

fn shard_gaps_ms(marks: &[(usize, Duration)]) -> Vec<f64> {
    marks
        .windows(2)
        .filter(|w| w[1].0 == w[0].0 + 1)
        .map(|w| (w[1].1 - w[0].1).as_secs_f64() * 1e3)
        .collect()
}

pub fn run_traced(
    workload: Workload,
    seed: u64,
    budget: Duration,
    work: &Path,
) -> BenchResult<Report> {
    match workload {
        Workload::DaemonMixed => traced_daemon(seed, budget, work),
        _ => traced_sweep(workload, seed, budget, work),
    }
}

fn traced_sweep(
    workload: Workload,
    seed: u64,
    budget: Duration,
    work: &Path,
) -> BenchResult<Report> {
    let spec = workload.spec(seed);
    let total = spec.point_count()?;
    let mut report = Report::default();
    let expected_misses = distinct_keys(&spec)?;
    let mut layers = Layers::default();
    let mut last = None;
    let dir = work.join("traced");
    let plain_out = dir.join("plain.jsonl");
    let deadline = Instant::now() + budget;
    let mut iteration = 0;
    while iteration == 0 || Instant::now() < deadline {
        let cache_dir = |tag: &str| work.join(format!("cache-{tag}-{iteration}"));

        // Untraced reference session.
        let plain = workloads::session(&spec, &cache_dir("plain"), &plain_out)?;
        workloads::account(&mut report, &plain, total);

        // The same session through the wrappers.
        let session_tracer = Tracer::new();
        let store = ArtifactStore::shared(ArtifactBudget::default());
        let mut marks = Vec::new();
        let out = dir.join("wrapped.jsonl");
        let start = Instant::now();
        let cache = TimedCache::new(
            PackedSegmentCache::open(cache_dir("wrapped"))?,
            &session_tracer,
        );
        let mut sink = TimedSink::new(JsonlSink::create(&out)?, &session_tracer);
        let outcome = ExploreSession::new(&spec)
            .cache(cache)
            .chunk_size(CHUNK)
            .keep_going()
            .artifact_store(Arc::clone(&store))
            .sink(&mut sink)
            .on_progress(|p: &ShardProgress| marks.push((p.shard, start.elapsed())))
            .run()?;
        drop(sink);
        let traced_wall = start.elapsed();
        report.check(workloads::read_output(&out)? == plain.output, || {
            "traced session output differs from the untraced session".to_string()
        });
        report.check(outcome.failures.is_empty(), || {
            format!(
                "traced session recorded {} failures",
                outcome.failures.len()
            )
        });
        let artifacts = store.lock().expect("artifact store lock").stats();
        // The replay builds its own artifacts; do not hold both sets.
        drop(store);
        report.check(artifacts.misses == expected_misses, || {
            format!(
                "artifact store missed {} times for {expected_misses} distinct keys",
                artifacts.misses
            )
        });

        // Stage-by-stage replay.
        let replay_tracer = Tracer::new();
        let replay_out = dir.join("replay.jsonl");
        let replay_cache = PackedSegmentCache::open(cache_dir("replay"))?;
        let mut replay_sink = JsonlSink::create(&replay_out)?;
        replay(
            &spec,
            Some(&replay_cache),
            &mut replay_sink,
            &replay_tracer,
            CHUNK,
        )?;
        drop((replay_sink, replay_cache));
        report.check(workloads::read_output(&replay_out)? == plain.output, || {
            "stage replay output differs from the untraced session".to_string()
        });
        for tag in ["plain", "wrapped", "replay"] {
            fs::remove_dir_all(cache_dir(tag))?;
        }

        let plain_ms = plain.wall.as_secs_f64() * 1e3;
        layers.compute_stages(&replay_tracer);
        layers.io_stages(&session_tracer, 1.0);
        layers.artifacts(artifacts);
        layers.set("explore.session.wall_ms", plain_ms);
        layers.set("explore.session.shards", outcome.shards as f64);
        layers.set(
            "explore.session.shard_gap_ms",
            median(&shard_gaps_ms(&marks)),
        );
        layers.set(
            "explore.session.unattributed_ms",
            plain_ms - replay_tracer.total_busy_ms(),
        );
        layers.set(
            "trace.overhead_ms",
            traced_wall.as_secs_f64() * 1e3 - plain_ms,
        );
        last = Some((session_tracer, replay_tracer));
        iteration += 1;
    }
    let (session_tracer, replay_tracer) = last.expect("at least one iteration ran");
    checks::sample_points(&mut report, &spec, &plain_out, seed)?;
    write_trace(
        &Path::new(".bench_work/traces").join(format!("{}.json", workload.name())),
        &[&session_tracer, &replay_tracer],
    )?;
    report.sample_count("explore.session.wall_ms", iteration);
    layers.report(&mut report);
    Ok(report)
}

fn traced_daemon(seed: u64, budget: Duration, work: &Path) -> BenchResult<Report> {
    let spec = Workload::DaemonMixed.spec(seed);
    let pool = workloads::run_pool(seed)?;
    let daemon = workloads::start_daemon(&spec, &pool, &work.join("setup"))?;
    let tracer = Tracer::new();
    let mut marks = Vec::new();
    let origin = Instant::now();
    let mix = workloads::run_mix(
        &daemon,
        &spec,
        &pool,
        &work.join("bulk"),
        origin + budget,
        &mut |p: &ShardProgress| marks.push((p.shard, origin.elapsed())),
        |sink| Box::new(TimedSink::new(sink, &tracer)),
    )?;
    let mut report = Report::default();
    workloads::daemon_checks(&mut report, &spec, &pool, &daemon, &mix, seed, work)?;
    let workloads::Mix { runs, bulk } = mix;

    // The daemon's own artifact-store counters, over the wire.
    let stats = simphony_serve::request(
        &daemon.addr,
        "{\"kind\":\"cache-stats\"}",
        Duration::from_secs(10),
    )?;
    let frame: serde_json::Value = serde_json::from_str(stats.first().ok_or("no stats frame")?)?;
    let counter = |key: &str| {
        frame
            .get("artifacts")
            .and_then(|a| a.get(key))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(u64::MAX)
    };
    let artifacts = ArtifactStoreStats {
        hits: counter("hits"),
        misses: counter("misses"),
        evictions: counter("evictions"),
        ..ArtifactStoreStats::default()
    };
    let expected_misses = distinct_keys(&spec)?;
    report.check(artifacts.misses == expected_misses, || {
        format!(
            "daemon artifact store missed {} times for {expected_misses} distinct keys",
            artifacts.misses
        )
    });

    // Tracing overhead: one bulk sweep alone, without and with the wrapper.
    let alone = |sink: &mut dyn RecordSink| {
        workloads::bulk_sweep(&spec, &daemon.addr, sink, &mut |_| {}).map(|(_, wall)| wall)
    };
    let plain_wall = alone(&mut JsonlSink::create(work.join("plain.jsonl"))?)?;
    let overhead_tracer = Tracer::new();
    let traced_wall = alone(&mut TimedSink::new(
        JsonlSink::create(work.join("wrapped.jsonl"))?,
        &overhead_tracer,
    ))?;
    let bulk_reference = daemon.bulk_reference;
    drop(daemon);

    // In-process replay: the pool's points against pre-built artifacts, and
    // the bulk sweep stage by stage.
    let sim_tracer = Tracer::new();
    for _ in 0..3 {
        for entry in &pool.entries {
            let point = &entry.point;
            let accel = Arc::new(build_accelerator(point)?);
            let workload = extract_workload(point)?;
            sim_tracer.time("serve.run.server_sim", 0, || {
                simulate_point_with(point, &accel, &workload)
            })?;
        }
    }
    let server_sim_us = {
        let spans = sim_tracer.spans.lock().expect("tracer lock");
        median(
            &spans
                .iter()
                .map(|s| s.duration.as_secs_f64() * 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let replay_tracer = Tracer::new();
    let replay_out = work.join("replay.jsonl");
    let mut replay_sink = JsonlSink::create(&replay_out)?;
    replay(
        &spec,
        None,
        &mut replay_sink,
        &replay_tracer,
        workloads::BULK_CHUNK,
    )?;
    drop(replay_sink);
    report.check(
        workloads::read_output(&replay_out)? == bulk_reference,
        || "stage replay output differs from the distributed sweep".to_string(),
    );

    let mut layers = Layers::default();
    layers.compute_stages(&replay_tracer);
    layers.io_stages(&tracer, bulk.walls.len() as f64);
    layers.artifacts(artifacts);
    let rtt_p50 = median(&runs.rtts_ms);
    layers.set("serve.run.rtt_p50_ms", rtt_p50);
    layers.set("serve.run.server_sim_us", server_sim_us);
    layers.set("serve.run.overhead_us", rtt_p50 * 1e3 - server_sim_us);
    layers.set(
        "serve.dist.shards",
        spec.point_count()?.div_ceil(workloads::BULK_CHUNK) as f64,
    );
    layers.set("serve.dist.shard_rtt_ms", median(&shard_gaps_ms(&marks)));
    layers.set("serve.busy_refusals", runs.refused as f64);
    layers.set(
        "trace.overhead_ms",
        (traced_wall.as_secs_f64() - plain_wall.as_secs_f64()) * 1e3,
    );
    write_trace(
        &Path::new(".bench_work/traces").join("daemon_mixed.json"),
        &[&tracer, &replay_tracer, &sim_tracer],
    )?;
    report.sample_count("serve.run.rtt_p50_ms", runs.rtts_ms.len());
    report.sample_count("serve.dist.shard_rtt_ms", shard_gaps_ms(&marks).len());
    layers.report(&mut report);
    Ok(report)
}
