//! `bench_sweep` — wall-clock harness for the simulate/sweep hot path.
//!
//! Runs a fig9-style design-space sweep (64 points sharing 4 distinct
//! workloads and 4 distinct architectures) through three engines:
//!
//! * `per_point` — every point extracts its own workload and generates its
//!   own architecture, the way the engine worked before the single-pass /
//!   artifact-sharing refactor (modulo the simulator improvements, which make
//!   this mode *faster* than the true pre-PR engine — the reported speedup is
//!   therefore conservative);
//! * `shared_cold` — an `ExploreSession` with no result cache: distinct
//!   artifacts are extracted once and shared across the batch;
//! * `packed_warm` — the session re-run against a populated result cache,
//!   opened fresh per repetition the way a CLI re-run opens it, so every
//!   point is a cache hit: index build at open plus the lookups;
//! * `pipelined_cold`/`pipelined_warm` — the session in shards of 16 points
//!   with no cache (cold) or a populated one (warm), on the two-stage
//!   pipeline every multi-shard sweep runs: shard N+1 simulates while
//!   shard N persists, and warm cache lookups run as parallel batches. The
//!   gap to `shared_cold` is the price of sharding (per-shard artifact-store
//!   refresh + sink flushes);
//! * `retry_overhead_clean` — `pipelined_cold` with a 3-attempt
//!   [`RetryPolicy`] attached: the clean-path price of wrapping every cache
//!   put and sink flush in the retry machinery when nothing ever fails
//!   (should be indistinguishable from `pipelined_cold`);
//! * `dist_2worker_cold` — the same sweep distributed over two resident
//!   worker daemons on loopback (`sweep --workers`): shard ranges out over
//!   TCP, part payloads back, merged in expansion order;
//! * `dist_worker_kill_recover` — the distributed sweep with one of the two
//!   workers shut down mid-run: re-dispatch, reconnect refusal and the
//!   survivor absorbing the queue, end to end;
//! * `slow_sink_overlap` — the cold sharded sweep against a sink whose
//!   per-shard flush costs a fixed sleep (a stand-in for a slow filesystem):
//!   all but the last flush hide under the next shard's compute, so the
//!   sweep pays about one flush, not one per shard;
//! * `pareto_100k` — 2-objective Pareto extraction over 100 000 synthetic
//!   records: the sort-based O(n log n) sweep (the old pairwise filter took
//!   seconds at this size);
//! * `serve_sim_10k_reqs` — one `simphony-traffic` discrete-event engine run
//!   serving 10 000 requests on a 4-slot fleet (pure queueing, no photonic
//!   probes): the per-point cost of a serving sweep;
//! * `serve_sweep_cold` — a full 16-point serving sweep end to end,
//!   including the photonic probe simulations that build the service tables;
//! * `serve_warm_request_ms` — one `run` request round-tripped through a
//!   resident `simphony-serve` daemon whose artifact store is already warm:
//!   the simulation plus the TCP/JSON protocol, with the workload extraction
//!   and accelerator construction a cold CLI `run` pays skipped entirely
//!   (`serve_cold_run_ms` is that cold body, `serve_warm_speedup` the ratio);
//! * `serve_batched_sweep_ms` — the full 64-point fig9-style sweep as one
//!   daemon request, streamed back in 16-point shards through the same
//!   pipelined executor the CLI uses.
//!
//! Results go to `BENCH_sweep.json` (or the path given as the first CLI
//! argument) so successive PRs have a committed perf trajectory to regress
//! against. See EXPERIMENTS.md for how to read the numbers.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use simphony_bench::fig9_style_sweep;
use simphony_onn::SplitMix64;

use simphony_explore::StreamOptions;
use simphony_explore::{
    pareto_front, simulate_point, ExploreSession, Objective, PackedSegmentCache, RecordSink,
    RetryPolicy, SweepPoint, SweepRecord, VecSink,
};
use simphony_serve::{distribute_sweep, request, Client, DistConfig, ServeConfig, Server};
use simphony_traffic::{
    run_engine, run_serving_collect, ArrivalKind, Discipline, EngineConfig, ServiceCost,
    ServiceDistribution, ServingSpec,
};

/// Timed repetitions per engine; the minimum is reported (steadiest estimator
/// for wall-clock benches on a shared machine).
const REPS: usize = 5;

/// Sub-millisecond (warm-path) measurements use more repetitions: their
/// scheduler noise is the same absolute ±0.1–0.2 ms as the long runs', which
/// at 0.6 ms swamps a 5-rep minimum.
const WARM_REPS: usize = 25;

fn time_ms_reps(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn time_ms(f: impl FnMut()) -> f64 {
    time_ms_reps(REPS, f)
}

fn per_point_engine(points: &[SweepPoint]) {
    for point in points {
        simulate_point(point).expect("point simulates");
    }
}

/// A sink whose shard flush costs a fixed sleep — a deterministic stand-in
/// for a slow filesystem or network share. Records themselves are counted
/// and dropped so the measurement isolates the flush latency.
struct SlowSink {
    accepted: usize,
    flush: Duration,
}

impl RecordSink for SlowSink {
    fn accept(&mut self, _record: SweepRecord) -> simphony_explore::Result<()> {
        self.accepted += 1;
        Ok(())
    }

    fn flush_shard(&mut self) -> simphony_explore::Result<()> {
        std::thread::sleep(self.flush);
        Ok(())
    }
}

/// 100k synthetic records over one base point: deterministic pseudo-random
/// energy/latency metrics (seeded [`SplitMix64`]), plenty of frontier and
/// dominated mass for the Pareto timing.
fn synthetic_records(base: &SweepPoint, count: usize) -> Vec<SweepRecord> {
    let mut rng = SplitMix64::new(0xBE7C);
    (0..count)
        .map(|index| {
            let mut point = base.clone();
            point.index = index;
            let energy_uj = 1.0 + rng.next_f64() * 100.0;
            let time_ms = 1.0 + rng.next_f64() * 100.0;
            SweepRecord {
                point,
                energy_uj,
                cycles: 1,
                time_ms,
                power_w: 1.0,
                area_mm2: 1.0,
                edp_uj_ms: energy_uj * time_ms,
                glb_blocks: 1,
                energy_by_kind_uj: std::collections::BTreeMap::new(),
            }
        })
        .collect()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let spec = fig9_style_sweep();
    let points = spec.expand().expect("spec expands");
    assert!(
        points.len() >= 64,
        "fig9-style sweep must cover >= 64 points"
    );
    let distinct_workloads = points
        .iter()
        .map(simphony_explore::SweepPoint::workload_key)
        .collect::<HashSet<_>>()
        .len();
    let distinct_architectures = points
        .iter()
        .map(simphony_explore::SweepPoint::arch_key)
        .collect::<HashSet<_>>()
        .len();

    eprintln!(
        "bench_sweep: {} points ({distinct_workloads} distinct workloads, \
         {distinct_architectures} distinct architectures), {} reps per engine",
        points.len(),
        REPS
    );

    let per_point_ms = time_ms(|| per_point_engine(&points));
    eprintln!("per_point engine (pre-refactor shape): {per_point_ms:.1} ms");

    let shared_cold_ms = time_ms(|| {
        ExploreSession::new(&spec)
            .run_collect()
            .expect("cold sweep runs");
    });
    eprintln!("session, cold (no cache):              {shared_cold_ms:.1} ms");

    let pipelined_cold_ms = time_ms(|| {
        let mut sink = VecSink::new();
        ExploreSession::new(&spec)
            .chunk_size(16)
            .sink(&mut sink)
            .run()
            .expect("pipelined sweep runs");
        assert_eq!(sink.records().len(), 64, "pipeline covers every point");
    });
    eprintln!("session, 16-point shards (pipelined):  {pipelined_cold_ms:.1} ms");

    // The same pipelined sweep with a retry policy attached but never
    // exercised: the clean-path overhead of the retry machinery.
    let retry_overhead_clean_ms = time_ms(|| {
        let mut sink = VecSink::new();
        ExploreSession::new(&spec)
            .chunk_size(16)
            .retry(RetryPolicy::new(3))
            .sink(&mut sink)
            .run()
            .expect("retry-wrapped sweep runs");
        assert_eq!(sink.records().len(), 64, "retry path covers every point");
    });
    eprintln!("session, pipelined + idle retries:     {retry_overhead_clean_ms:.1} ms");

    // The same sweep distributed over two resident worker daemons on
    // loopback: shard ranges out over TCP, part payloads back, merged in
    // expansion order. The fleet persists across repetitions (that is the
    // deployment model — workers are long-running daemons), so the timed
    // body is dispatch + remote compute + merge.
    let dist_fleet: Vec<Server> = (0..2)
        .map(|_| {
            Server::start(
                ServeConfig {
                    addr: "127.0.0.1:0".to_string(),
                    ..ServeConfig::default()
                },
                None,
            )
            .expect("dist worker starts")
        })
        .collect();
    let dist_config = DistConfig {
        workers: dist_fleet
            .iter()
            .map(|w| w.local_addr().to_string())
            .collect(),
        ..DistConfig::default()
    };
    let dist_options = StreamOptions::chunked(16).keep_going();
    let dist_2worker_cold_ms = time_ms(|| {
        let mut sink = VecSink::new();
        distribute_sweep(
            &spec,
            &dist_options,
            &dist_config,
            &mut sink,
            &mut |_| {},
            None,
        )
        .expect("distributed sweep runs");
        assert_eq!(sink.records().len(), 64, "distribution covers every point");
    });
    eprintln!("session, 2-worker distributed (cold):  {dist_2worker_cold_ms:.1} ms");
    for worker in dist_fleet {
        worker.shutdown();
        worker.join();
    }

    // Chaos variant: one of the two workers is shut down as soon as the
    // first shards merge; the sweep must re-dispatch its work and finish on
    // the survivor. Fresh fleet per repetition (one member dies each time).
    let dist_worker_kill_recover_ms = time_ms(|| {
        let start_worker = || {
            Server::start(
                ServeConfig {
                    addr: "127.0.0.1:0".to_string(),
                    ..ServeConfig::default()
                },
                None,
            )
            .expect("dist worker starts")
        };
        let survivor = start_worker();
        let victim = start_worker();
        let config = DistConfig {
            workers: vec![
                survivor.local_addr().to_string(),
                victim.local_addr().to_string(),
            ],
            shard_deadline_ms: 2_000,
            retry: RetryPolicy::new(2),
        };
        let victim = std::sync::Mutex::new(Some(victim));
        let mut sink = VecSink::new();
        distribute_sweep(
            &spec,
            &dist_options,
            &config,
            &mut sink,
            &mut |progress| {
                if progress.done >= 16 {
                    if let Some(server) = victim.lock().unwrap().take() {
                        server.shutdown();
                    }
                }
            },
            None,
        )
        .expect("distributed sweep survives the kill");
        assert_eq!(sink.records().len(), 64, "recovery covers every point");
        survivor.shutdown();
        survivor.join();
    });
    eprintln!("session, 2-worker dist + worker kill:  {dist_worker_kill_recover_ms:.1} ms");

    // Warm re-runs: the same 64 points, all hits, through a cache handle
    // opened fresh per repetition the way a CLI re-run opens it. `chunk` 0
    // is one shard; 16 runs the pipeline, with shard N+1's batched parallel
    // lookups overlapping the (cheap) drain of shard N.
    let warm_run = |label: &str, chunk: usize| {
        let dir = std::env::temp_dir().join(format!(
            "simphony-bench-sweep-{label}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("bench cache dir creates");
        ExploreSession::new(&spec)
            .cache(PackedSegmentCache::open(&dir).expect("cache opens"))
            .run_collect()
            .expect("cache warm-up sweep runs");
        let ms = time_ms_reps(WARM_REPS, || {
            let outcome = ExploreSession::new(&spec)
                .cache(PackedSegmentCache::open(&dir).expect("cache opens"))
                .chunk_size(chunk)
                .run_collect()
                .expect("warm sweep runs");
            assert_eq!(outcome.stats.misses, 0, "warm run must be all hits");
        });
        std::fs::remove_dir_all(&dir).ok();
        ms
    };
    let pipelined_warm_ms = warm_run("pipelined-warm", 16);
    eprintln!("session, warm 16-pt shards (pipelined): {pipelined_warm_ms:.1} ms");

    // Slow-sink overlap: every shard flush costs a fixed sleep, and each
    // flush (except the last) hides under the next shard's simulation.
    const SLOW_FLUSH_MS: u64 = 5;
    let slow_sink_run = |chunk: usize| {
        time_ms(|| {
            let mut sink = SlowSink {
                accepted: 0,
                flush: Duration::from_millis(SLOW_FLUSH_MS),
            };
            ExploreSession::new(&spec)
                .chunk_size(chunk)
                .sink(&mut sink)
                .run()
                .expect("slow-sink sweep runs");
            assert_eq!(sink.accepted, 64, "slow sink saw every record");
        })
    };
    let slow_sink_overlap_ms = slow_sink_run(16);
    eprintln!("slow sink ({SLOW_FLUSH_MS} ms/flush, 4 shards):   {slow_sink_overlap_ms:.1} ms");
    // The overlap win grows with shard count: more flushes to hide.
    let slow_sink_overlap_chunk8_ms = slow_sink_run(8);
    eprintln!(
        "slow sink ({SLOW_FLUSH_MS} ms/flush, 8 shards):   {slow_sink_overlap_chunk8_ms:.1} ms"
    );

    // 2-objective Pareto extraction at 100k records: the sort-based sweep.
    let pareto_records = synthetic_records(&points[0], 100_000);
    let mut front_len = 0usize;
    let pareto_100k_ms = time_ms(|| {
        let front = pareto_front(&pareto_records, &[Objective::Energy, Objective::Latency])
            .expect("synthetic metrics are finite");
        assert!(!front.is_empty());
        front_len = front.len();
    });
    eprintln!(
        "pareto, 100k records, 2 objectives:    {pareto_100k_ms:.1} ms ({front_len} on the front)"
    );

    // Serving engine, queueing only: 10k requests through a heterogeneous
    // 4-slot fleet near saturation (exponential service, JSQ, batches of 4).
    let serve_slots: Vec<Vec<ServiceCost>> = (0..4)
        .map(|slot| {
            vec![
                ServiceCost {
                    time_ms: 0.8 + 0.1 * slot as f64,
                    energy_uj: 10.0,
                },
                ServiceCost {
                    time_ms: 1.6 + 0.1 * slot as f64,
                    energy_uj: 25.0,
                },
            ]
        })
        .collect();
    let serve_sim_10k_reqs_ms = time_ms(|| {
        let report = run_engine(&EngineConfig {
            slots: &serve_slots,
            class_weights: &[3.0, 1.0],
            arrival: ArrivalKind::Poisson { rate_rps: 3500.0 },
            service: ServiceDistribution::Exponential,
            discipline: Discipline::JoinShortestQueue,
            batch_size: 4,
            batch_alpha: 0.5,
            queue_capacity: 0,
            warmup: 500,
            requests: 10_000,
            seed: 0x5EED,
        });
        assert_eq!(report.completed, 10_000, "engine serves every request");
    });
    eprintln!("serving engine, 10k requests:          {serve_sim_10k_reqs_ms:.1} ms");

    // Serving sweep end to end: photonic probe simulations (service tables)
    // plus 16 queueing points over load x discipline x batch axes.
    let serve_spec = ServingSpec::new("bench")
        .with_offered_load(vec![1000.0, 2500.0, 5000.0, 10_000.0])
        .with_discipline(vec![Discipline::CentralFcfs, Discipline::JoinShortestQueue])
        .with_batch_size(vec![1, 4]);
    let serve_sweep_cold_ms = time_ms(|| {
        let records = run_serving_collect(&serve_spec).expect("serving sweep runs");
        assert_eq!(records.len(), 16, "serving sweep covers every point");
    });
    eprintln!("serving sweep, cold (16 points):       {serve_sweep_cold_ms:.1} ms");
    let packed_warm_ms = warm_run("packed-warm", 0);
    eprintln!("session, warm (cache hits):            {packed_warm_ms:.2} ms");

    // Daemon round-trips: a resident `simphony-serve` daemon keeps extracted
    // workloads and built accelerators alive across requests, so a warm `run`
    // request pays only the simulation plus the TCP/JSON protocol, while a
    // cold CLI `run` re-extracts and re-builds every time. The cold baseline
    // here is the in-process body of that cold run (extraction + construction
    // + simulation, no process spawn), so the reported speedup is
    // conservative.
    // BERT-Base at a realistic sequence length: the extraction-heaviest
    // workload in the suite, i.e. exactly the shape a resident store helps.
    let run_spec = {
        use simphony::DataAwareness;
        use simphony_dataflow::DataflowStyle;
        use simphony_explore::{SweepSpec, WorkloadSpec};
        SweepSpec::new("bench-serve-run")
            .with_workload(vec![WorkloadSpec::Bert { seq_len: 128 }])
            .with_wavelengths(vec![4])
            .with_sparsity(vec![0.0])
            .with_dataflow(vec![DataflowStyle::OutputStationary])
            .with_data_awareness(vec![DataAwareness::Aware])
    };
    let run_points = run_spec.expand().expect("run spec expands");
    assert_eq!(run_points.len(), 1, "run benchmark needs exactly one point");
    let serve_cold_run_ms = time_ms(|| {
        simulate_point(&run_points[0]).expect("cold run simulates");
    });
    eprintln!("run, cold (extract + build + sim):     {serve_cold_run_ms:.1} ms");

    const RPC_TIMEOUT: Duration = Duration::from_secs(120);
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        },
        None,
    )
    .expect("daemon starts");
    let daemon_addr = server.local_addr().to_string();
    let run_line = format!(
        "{{\"kind\":\"run\",\"spec\":{}}}",
        serde_json::to_string(&run_spec).expect("run spec serializes")
    );
    // One un-timed request populates the resident artifact store; the timed
    // repetitions then measure the steady state an interactive client sees:
    // a persistent connection (handshake already done) issuing `run` calls.
    let mut client = Client::connect(&daemon_addr, RPC_TIMEOUT).expect("client connects");
    client.send(&run_line).expect("warm-up run request");
    let serve_warm_request_ms = time_ms_reps(WARM_REPS, || {
        let lines = client.send(&run_line).expect("warm run request");
        assert!(
            lines
                .iter()
                .any(|line| line.starts_with("{\"frame\":\"report\"")),
            "warm run request carries a report frame"
        );
    });
    drop(client);
    eprintln!("run, warm daemon round-trip:           {serve_warm_request_ms:.2} ms");

    let sweep_line = format!(
        "{{\"kind\":\"sweep\",\"spec\":{},\"chunk_size\":16}}",
        serde_json::to_string(&spec).expect("sweep spec serializes")
    );
    let serve_batched_sweep_ms = time_ms(|| {
        let lines = request(&daemon_addr, &sweep_line, RPC_TIMEOUT).expect("daemon sweep");
        let records = lines
            .iter()
            .filter(|line| !line.starts_with("{\"frame\":"))
            .count();
        assert_eq!(records, 64, "daemon sweep streams every record");
    });
    eprintln!("sweep, 64 points through the daemon:   {serve_batched_sweep_ms:.1} ms");
    request(&daemon_addr, "{\"kind\":\"shutdown\"}", RPC_TIMEOUT).expect("daemon shuts down");
    server.join();

    let serve_warm_speedup = serve_cold_run_ms / serve_warm_request_ms;
    eprintln!("warm daemon speedup vs cold run:        {serve_warm_speedup:.2}x");
    assert!(
        serve_warm_speedup >= 5.0,
        "resident artifact store must beat a cold run by >= 5x \
         (cold {serve_cold_run_ms:.2} ms, warm {serve_warm_request_ms:.2} ms)"
    );

    let speedup = per_point_ms / shared_cold_ms;
    eprintln!("cold-cache speedup vs per-point engine: {speedup:.2}x");

    let json = format!(
        "{{\n  \"sweep\": \"{name}\",\n  \"points\": {points},\n  \"distinct_workloads\": {distinct_workloads},\n  \"distinct_architectures\": {distinct_architectures},\n  \"reps\": {reps},\n  \"per_point_cold_ms\": {per_point_ms:.3},\n  \"shared_cold_ms\": {shared_cold_ms:.3},\n  \"pipelined_cold_ms\": {pipelined_cold_ms:.3},\n  \"retry_overhead_clean_ms\": {retry_overhead_clean_ms:.3},\n  \"dist_2worker_cold_ms\": {dist_2worker_cold_ms:.3},\n  \"dist_worker_kill_recover_ms\": {dist_worker_kill_recover_ms:.3},\n  \"packed_warm_ms\": {packed_warm_ms:.3},\n  \"pipelined_warm_ms\": {pipelined_warm_ms:.3},\n  \"slow_sink_flush_ms\": {SLOW_FLUSH_MS},\n  \"slow_sink_overlap_ms\": {slow_sink_overlap_ms:.3},\n  \"slow_sink_overlap_chunk8_ms\": {slow_sink_overlap_chunk8_ms:.3},\n  \"pareto_100k_ms\": {pareto_100k_ms:.3},\n  \"serve_sim_10k_reqs_ms\": {serve_sim_10k_reqs_ms:.3},\n  \"serve_sweep_cold_ms\": {serve_sweep_cold_ms:.3},\n  \"serve_cold_run_ms\": {serve_cold_run_ms:.3},\n  \"serve_warm_request_ms\": {serve_warm_request_ms:.3},\n  \"serve_warm_speedup\": {serve_warm_speedup:.3},\n  \"serve_batched_sweep_ms\": {serve_batched_sweep_ms:.3},\n  \"cold_speedup\": {speedup:.3}\n}}\n",
        name = spec.name,
        points = points.len(),
        reps = REPS,
    );
    std::fs::write(&out_path, json).expect("bench record writes");
    eprintln!("wrote {out_path}");
}
