//! Streaming, sharded sweep execution with intra-sweep artifact sharing and
//! a two-stage compute/I-O pipeline.
//!
//! The engine walks a [`SweepSpec`]'s expansion lazily (no full point `Vec`
//! is ever materialized), in configurable shards. Each shard runs through two
//! stages:
//!
//! * the **compute stage** expands the shard's points, keys each one once
//!   when a cache is attached ([`content_key`]) and looks the whole batch up
//!   in the result cache at once under those keys
//!   ([`CacheBackend::get_batch_keyed`], parallel), groups the misses by
//!   their *artifact identities*
//!   ([`SweepPoint::workload_key`] and [`SweepPoint::arch_key`]), extracts
//!   each distinct workload and generates each distinct accelerator once
//!   (reusing `Arc`s still live from the previous shard), simulates the
//!   misses on a rayon-style thread pool with one weight power memo per
//!   workload (each layer's data-aware weight power is folded once per
//!   weight power model in the shard) and one compiled simulator per
//!   accelerator (its instance counts, link budgets, energy tables and area
//!   reports are computed once in the shard, and every point runs on a
//!   re-configured clone), simulates each distinct simulation identity
//!   among the misses once (`SimKey`: the workload and accelerator keys plus
//!   the simulation config; data-unaware points that differ only in sparsity
//!   share one report, and each builds its own record from it), and renders
//!   each fresh record to compact JSON once, *on the worker threads*;
//! * the **I/O stage** persists the completed shard with the durability
//!   contract intact — cache writes, sink emission (in deterministic
//!   expansion order), cache flush and sink flush, then the checkpoint
//!   append. It keys and renders nothing: a fresh record's cache entry
//!   reuses its lookup's key and its JSON, and a sink that writes the
//!   compact line ([`RecordSink::accept_rendered`]) writes that same JSON.
//!
//! The calling thread computes every shard, and every shard but the final
//! one flows through a bounded single-slot channel to a scoped writer
//! thread, so shard N+1 simulates while shard N persists and the thread pool
//! never idles during a durability window. The final shard persists on the
//! calling thread once the writer has joined, so a one-shard sweep starts no
//! thread. Either thread runs the same I/O stage, so where a shard persists
//! never changes an output byte. A fig9-style sweep whose 64 points share 4
//! distinct workloads pays for 4 extractions, not 64 — and a million-point
//! sweep holds a few shards of points (plus their distinct artifacts) in
//! memory, not the whole expansion.
//!
//! The public entry point is the [`ExploreSession`](crate::ExploreSession)
//! builder.
//!
//! Failure handling is governed by [`ErrorPolicy`]:
//!
//! * [`ErrorPolicy::FailFast`] (the default) finishes the failing shard — so
//!   every success in it is cached — then returns the first failing point's
//!   error in expansion order;
//! * [`ErrorPolicy::KeepGoing`] records each failure as a [`PointFailure`] in
//!   the [`StreamOutcome`] and keeps simulating. Combined with the cache (and
//!   a [checkpoint](crate::Checkpoint), which also remembers the *failures*)
//!   this makes interrupted or partially-failing sweeps resumable: re-running
//!   the same spec skips completed shards, replays known-bad points without
//!   re-attempting them, and only simulates what never finished.
//!
//! Records are emitted in the spec's deterministic expansion order — output
//! files are byte-identical whether the sweep ran on one thread or many
//! (`RAYON_NUM_THREADS` controls the pool size), in one shard or thousands,
//! with any [`CacheBackend`], and artifact sharing does not change a single
//! output bit versus per-point extraction (extraction and generation are pure
//! functions of the key).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{mpsc, Arc, OnceLock};

use rayon::prelude::*;

use simphony::{
    Accelerator, MappingPlan, Result as SimResult, SimError, SimulationReport, Simulator,
    WeightPowerMemo,
};
use simphony_onn::ModelWorkload;

use crate::cache::{content_key, CacheBackend, CacheStats};
use crate::checkpoint::{Checkpoint, CheckpointFailure, ShardCheckpoint};
use crate::error::{ExploreError, Result};
use crate::record::SweepRecord;
use crate::retry::RetryPolicy;
use crate::sink::RecordSink;
use crate::spec::{ArchKey, SimKey, SweepPoint, SweepSpec, WorkloadKey};

/// The result of one in-memory sweep: ordered records plus cache accounting.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One record per expanded point, in expansion order.
    pub records: Vec<SweepRecord>,
    /// How many points were served from the cache vs simulated.
    pub stats: CacheStats,
}

/// How the streaming executor reacts to a failing point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Finish the failing shard (so its successes are cached), then abort the
    /// sweep with the first failing point's error in expansion order.
    #[default]
    FailFast,
    /// Record every failure as a [`PointFailure`] in the outcome and keep
    /// simulating; successful points still stream to the sink and the cache,
    /// so a re-run after fixing the problem resumes instead of restarting.
    KeepGoing,
}

/// Tuning knobs of the streaming executor (see
/// [`ExploreSession`](crate::ExploreSession)).
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamOptions {
    /// Points per shard; `None` (or `Some(0)`) runs the whole sweep as one
    /// shard. Smaller shards bound memory and flush durable sinks more often
    /// at the cost of more frequent artifact-store refreshes.
    pub chunk_size: Option<usize>,
    /// Failure handling (fail-fast by default).
    pub error_policy: ErrorPolicy,
    /// Retry policy for the durability chain (cache `put`/`flush`, sink
    /// flushes). [`RetryPolicy::none`] — one attempt per operation — by
    /// default.
    pub retry: RetryPolicy,
}

impl StreamOptions {
    /// One shard, fail-fast — the engine's defaults.
    pub fn unchunked() -> Self {
        Self::default()
    }

    /// Shards of `chunk_size` points (0 means unchunked).
    #[must_use]
    pub fn chunked(chunk_size: usize) -> Self {
        Self {
            chunk_size: (chunk_size > 0).then_some(chunk_size),
            ..Self::default()
        }
    }

    /// Switches to [`ErrorPolicy::KeepGoing`].
    #[must_use]
    pub fn keep_going(mut self) -> Self {
        self.error_policy = ErrorPolicy::KeepGoing;
        self
    }

    /// Sets the durability-chain retry policy.
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }
}

/// The effective points-per-shard a sweep of `total` points runs with:
/// [`chunk_size`](StreamOptions::chunk_size) when set and non-zero, else one
/// shard spanning the whole expansion. Public so out-of-crate executors
/// (e.g. a distributed coordinator) derive the exact shard geometry the
/// in-process executors use.
pub fn effective_shard_size(options: &StreamOptions, total: usize) -> usize {
    match options.chunk_size {
        Some(size) if size > 0 => size,
        _ => total.max(1),
    }
}

/// Why a point failed: a live simulator error from this run, or a failure
/// replayed from a [checkpoint](crate::Checkpoint) of an earlier run (which
/// is reported but never re-attempted).
#[derive(Debug, Clone, PartialEq)]
pub enum FailureCause {
    /// The simulator error, from this run.
    Sim(SimError),
    /// The rendered message of a failure recorded by an earlier run's
    /// checkpoint.
    Recorded(String),
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCause::Sim(e) => e.fmt(f),
            FailureCause::Recorded(msg) => f.write_str(msg),
        }
    }
}

/// One failing point of a [`ErrorPolicy::KeepGoing`] sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PointFailure {
    /// Zero-based index of the point in deterministic expansion order.
    pub index: usize,
    /// Human-readable description of the failing configuration.
    pub label: String,
    /// The underlying cause (live simulator error, or replayed checkpoint
    /// record).
    pub error: FailureCause,
}

/// Progress snapshot passed to the progress callback after each shard
/// completes (or is skipped via checkpoint resume).
#[derive(Debug, Clone, Copy)]
pub struct ShardProgress {
    /// Zero-based index of the shard that just completed.
    pub shard: usize,
    /// Total number of shards in the sweep.
    pub shards: usize,
    /// Points in this shard.
    pub points: usize,
    /// Cache hits in this shard.
    pub hits: usize,
    /// Failed points in this shard (including failures replayed from a
    /// checkpoint).
    pub failures: usize,
    /// Points skipped because a checkpoint already records this shard as
    /// complete (0 for a freshly-executed shard, equal to `points` for a
    /// skipped one).
    pub skipped: usize,
    /// Cumulative points processed so far (including this shard).
    pub done: usize,
    /// Total points in the sweep.
    pub total: usize,
}

/// The result of one streaming sweep. Records went to the sink; this carries
/// the accounting.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// How many points were served from the cache vs attempted. Points
    /// skipped via checkpoint resume appear in neither counter.
    pub stats: CacheStats,
    /// Every failing point, in expansion order — both failures from this run
    /// and failures replayed from the checkpoint (the first
    /// [`replayed_failures`](Self::replayed_failures) entries). Always empty
    /// on a fully successful sweep; under [`ErrorPolicy::FailFast`] a *live*
    /// failure is returned as the sweep's error instead, but replayed
    /// failures are still reported here without aborting.
    pub failures: Vec<PointFailure>,
    /// How many of [`failures`](Self::failures) were replayed from the
    /// checkpoint rather than attempted in this run.
    pub replayed_failures: usize,
    /// Number of shards the sweep ran as.
    pub shards: usize,
    /// Total points in the expansion.
    pub total_points: usize,
    /// Points skipped because the checkpoint already recorded their shard as
    /// complete.
    pub skipped_points: usize,
    /// Cache writes that exhausted their [`RetryPolicy`] under
    /// [`ErrorPolicy::KeepGoing`] and were skipped in this run: the records
    /// still reached the sink, only their cache copies are missing (a re-run
    /// re-simulates those points). Always 0 under the default no-retry,
    /// fail-fast configuration.
    pub cache_degraded: usize,
}

/// Builds the accelerator a sweep point describes.
///
/// Public so downstream crates (the `simphony-traffic` serving simulator)
/// can build one accelerator per fleet template and share it behind an `Arc`
/// across service-table probes, exactly as the streaming executor shares
/// artifacts within a shard.
///
/// # Errors
///
/// Propagates architecture-generation errors.
pub fn build_accelerator(point: &SweepPoint) -> SimResult<Accelerator> {
    let arch = point.arch.generate(point.arch_params(), point.clock_ghz)?;
    Accelerator::builder(format!("{}_sweep", point.arch))
        .sub_arch(arch)
        .build()
}

/// Extracts the workload a sweep point describes: with weight samples for a
/// data-aware point, shape-only for a data-unaware one, whose energy model
/// reads no weight value. Either way it is the artifact
/// [`SweepPoint::workload_key`] names.
///
/// Public for the same artifact-sharing reason as [`build_accelerator`].
///
/// # Errors
///
/// Propagates workload-extraction errors.
pub fn extract_workload(point: &SweepPoint) -> SimResult<ModelWorkload> {
    point.workload_key().extract()
}

/// Simulates one fully-bound configuration, extracting its artifacts from
/// scratch.
///
/// This is the sharing-free path (the streaming executor amortizes artifacts
/// across a shard instead); it exists for single-point callers like
/// `simphony-cli run` and produces bit-identical reports to the shared path.
///
/// # Errors
///
/// Propagates architecture-generation, workload-extraction and simulation
/// errors.
pub fn simulate_point(point: &SweepPoint) -> SimResult<SimulationReport> {
    let accel = build_accelerator(point)?;
    let workload = extract_workload(point)?;
    simulate_point_with(point, &Arc::new(accel), &workload)
}

/// Simulates a point against pre-built (possibly shared) artifacts.
///
/// Produces bit-identical reports to [`simulate_point`]; public so callers
/// probing many configurations against one accelerator (the serving
/// simulator's service tables) pay artifact construction once. Each call
/// compiles the accelerator for its one simulation and folds the weight
/// power through a fresh memo; a sweep shard compiles and folds once for
/// all of its points instead.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn simulate_point_with(
    point: &SweepPoint,
    accel: &Arc<Accelerator>,
    workload: &ModelWorkload,
) -> SimResult<SimulationReport> {
    Simulator::shared(Arc::clone(accel))
        .with_config(point.sim_config())
        .simulate(workload, &MappingPlan::default())
}

/// Default entry cap of a session-local [`ArtifactStore`].
const DEFAULT_ARTIFACT_ENTRIES: usize = 256;

/// Default byte budget of a session-local [`ArtifactStore`] (512 MiB of
/// estimated artifact memory).
const DEFAULT_ARTIFACT_BYTES: u64 = 512 * 1024 * 1024;

/// Capacity limits of an [`ArtifactStore`]. `0` in either field means that
/// dimension is unlimited; the default bounds a store to
/// 256 entries / 512 MiB, so a long sweep (or a long-lived server) cannot
/// accumulate every workload it ever touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactBudget {
    /// Maximum resident artifacts (workloads + accelerators); 0 = unlimited.
    pub max_entries: usize,
    /// Maximum estimated resident bytes; 0 = unlimited.
    pub max_bytes: u64,
}

impl Default for ArtifactBudget {
    fn default() -> Self {
        Self {
            max_entries: DEFAULT_ARTIFACT_ENTRIES,
            max_bytes: DEFAULT_ARTIFACT_BYTES,
        }
    }
}

impl ArtifactBudget {
    /// No limits — the pre-budget behaviour, for callers that manage store
    /// lifetime themselves.
    pub fn unbounded() -> Self {
        Self {
            max_entries: 0,
            max_bytes: 0,
        }
    }
}

/// Usage counters of an [`ArtifactStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactStoreStats {
    /// Artifacts currently resident (workloads + accelerators).
    pub entries: usize,
    /// Estimated bytes of resident artifact data.
    pub bytes: u64,
    /// Lookups served from the store since it was created.
    pub hits: u64,
    /// Lookups that had to build the artifact.
    pub misses: u64,
    /// Artifacts evicted to stay within budget.
    pub evictions: u64,
}

/// One resident artifact with the accounting LRU eviction needs.
struct Resident<T> {
    value: Arc<T>,
    bytes: u64,
    last_used: u64,
}

/// A budgeted, LRU-evicting store of successfully-built sweep artifacts
/// (extracted workloads and generated accelerators), keyed by their content
/// identities ([`SweepPoint::workload_key`] / [`SweepPoint::arch_key`]).
///
/// The executor consults one store across every shard of a sweep, so
/// artifacts that stay live across shard boundaries are built once. Wrapped
/// in [`SharedArtifactStore`] the same store outlives individual sweeps —
/// this is what lets a resident server skip artifact construction entirely
/// on warm requests. Eviction is least-recently-used across both artifact
/// kinds; evicting never breaks an in-flight shard, which holds its own
/// `Arc` clones.
///
/// Failed builds are *not* stored: a failing key is re-attempted by the next
/// shard that needs it, keeping error attribution shard-local.
pub struct ArtifactStore {
    budget: ArtifactBudget,
    clock: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    workloads: HashMap<WorkloadKey, Resident<ModelWorkload>>,
    accelerators: HashMap<ArchKey, Resident<Accelerator>>,
}

/// A shareable handle to a resident [`ArtifactStore`]: clone it into every
/// [`ExploreSession`](crate::ExploreSession) (or server connection) that
/// should reuse the same hot artifacts.
pub type SharedArtifactStore = Arc<std::sync::Mutex<ArtifactStore>>;

impl Default for ArtifactStore {
    fn default() -> Self {
        Self::new(ArtifactBudget::default())
    }
}

impl ArtifactStore {
    /// An empty store enforcing `budget`.
    pub fn new(budget: ArtifactBudget) -> Self {
        Self {
            budget,
            clock: 0,
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            workloads: HashMap::new(),
            accelerators: HashMap::new(),
        }
    }

    /// An empty store behind a [`SharedArtifactStore`] handle.
    pub fn shared(budget: ArtifactBudget) -> SharedArtifactStore {
        Arc::new(std::sync::Mutex::new(Self::new(budget)))
    }

    /// Current residency and lifetime hit/miss/eviction counters.
    pub fn stats(&self) -> ArtifactStoreStats {
        ArtifactStoreStats {
            entries: self.workloads.len() + self.accelerators.len(),
            bytes: self.bytes,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }

    fn touch(clock: &mut u64) -> u64 {
        *clock += 1;
        *clock
    }

    fn lookup_workload(&mut self, key: &WorkloadKey) -> Option<Arc<ModelWorkload>> {
        match self.workloads.get_mut(key) {
            Some(entry) => {
                entry.last_used = Self::touch(&mut self.clock);
                self.hits += 1;
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn lookup_accelerator(&mut self, key: &ArchKey) -> Option<Arc<Accelerator>> {
        match self.accelerators.get_mut(key) {
            Some(entry) => {
                entry.last_used = Self::touch(&mut self.clock);
                self.hits += 1;
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert_workload(&mut self, key: WorkloadKey, value: Arc<ModelWorkload>) {
        let bytes = workload_bytes(&value);
        let last_used = Self::touch(&mut self.clock);
        if let Some(old) = self.workloads.insert(
            key,
            Resident {
                value,
                bytes,
                last_used,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.evict_to_budget();
    }

    fn insert_accelerator(&mut self, key: ArchKey, value: Arc<Accelerator>) {
        let bytes = accelerator_bytes(&value);
        let last_used = Self::touch(&mut self.clock);
        if let Some(old) = self.accelerators.insert(
            key,
            Resident {
                value,
                bytes,
                last_used,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.evict_to_budget();
    }

    /// Evicts least-recently-used artifacts (of either kind) until the store
    /// is back within budget. In-flight shards are unaffected — they hold
    /// their own `Arc`s — so eviction only costs a future rebuild.
    fn evict_to_budget(&mut self) {
        let over = |store: &Self| {
            let entries = store.workloads.len() + store.accelerators.len();
            (store.budget.max_entries > 0 && entries > store.budget.max_entries)
                || (store.budget.max_bytes > 0 && store.bytes > store.budget.max_bytes)
        };
        while over(self) {
            let oldest_workload = self
                .workloads
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, e)| (k.clone(), e.last_used));
            let oldest_accelerator = self
                .accelerators
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, e)| (k, e.last_used));
            match (oldest_workload, oldest_accelerator) {
                (Some((key, wl_used)), Some((_, acc_used))) if wl_used <= acc_used => {
                    let old = self.workloads.remove(&key).expect("key just observed");
                    self.bytes -= old.bytes;
                }
                (_, Some((key, _))) => {
                    let old = self.accelerators.remove(&key).expect("key just observed");
                    self.bytes -= old.bytes;
                }
                (Some((key, _)), None) => {
                    let old = self.workloads.remove(&key).expect("key just observed");
                    self.bytes -= old.bytes;
                }
                (None, None) => return,
            }
            self.evictions += 1;
        }
    }
}

/// Estimated resident size of an extracted workload: its sampled weight
/// codebooks dominate when present, so sum them plus a fixed per-layer
/// overhead.
fn workload_bytes(workload: &ModelWorkload) -> u64 {
    let layers: u64 = workload
        .layers()
        .iter()
        .map(|layer| {
            let samples = layer.samples().map_or(0, |samples| {
                std::mem::size_of_val(samples.magnitudes()) + std::mem::size_of_val(samples.codes())
            });
            samples as u64 + 256
        })
        .sum();
    layers + 256
}

/// Estimated resident size of a generated accelerator, from its structure:
/// every device spec of its library (keyed by name) and every instance and
/// net of its netlists, each at its inline size plus its names. The device
/// library, the same for every generated accelerator, dominates; the
/// estimate allocates nothing.
fn accelerator_bytes(accel: &Accelerator) -> u64 {
    use std::mem::{size_of, size_of_val};
    let devices: usize = accel
        .library()
        .iter()
        .map(|spec| size_of_val(spec) + 2 * spec.name().len() + spec.notes().len())
        .sum();
    let archs: usize = accel
        .sub_archs()
        .iter()
        .map(|arch| {
            let netlist = arch.netlist();
            let instances: usize = netlist
                .instances()
                .iter()
                .map(|inst| size_of_val(inst) + inst.name().len() + inst.device().len())
                .sum();
            size_of_val(arch) + arch.name().len() + instances + size_of_val(netlist.nets())
        })
        .sum();
    (size_of::<Accelerator>() + accel.name().len() + devices + archs) as u64
}

/// The distinct artifacts of one shard of sweep points, built once and shared
/// across the executor threads.
///
/// Construction is fallible *per key*, not per shard: a failing artifact is
/// recorded as that key's error and only fails the points that need it — the
/// rest of the shard still simulates (and caches), honouring the engine's
/// partial-progress contract.
#[derive(Default)]
pub(crate) struct ShardArtifacts {
    workloads: HashMap<WorkloadKey, std::result::Result<Arc<ModelWorkload>, SimError>>,
    accelerators: HashMap<ArchKey, std::result::Result<Arc<Accelerator>, SimError>>,
}

impl ShardArtifacts {
    /// Extracts/generates every distinct artifact of `points` (both kinds in
    /// parallel over their distinct keys). Artifacts already resident in
    /// `store` are reused via `Arc` clone instead of rebuilt; fresh successes
    /// are published back (subject to the store's budget), so artifacts that
    /// stay live across shard — or sweep — boundaries are only ever
    /// constructed once. The store lock is held only around the index
    /// consultation and the publish, never across the builds themselves.
    fn build(points: &[&SweepPoint], store: &std::sync::Mutex<ArtifactStore>) -> Self {
        let mut shard = ShardArtifacts::default();
        let mut workload_reps: Vec<&SweepPoint> = Vec::new();
        let mut arch_reps: Vec<&SweepPoint> = Vec::new();
        let mut workload_keys: HashSet<WorkloadKey> = HashSet::new();
        let mut arch_keys: HashSet<ArchKey> = HashSet::new();
        {
            let mut resident = store.lock().expect("artifact store lock");
            for &point in points {
                let workload_key = point.workload_key();
                if workload_keys.insert(workload_key.clone()) {
                    match resident.lookup_workload(&workload_key) {
                        Some(live) => {
                            shard.workloads.insert(workload_key, Ok(live));
                        }
                        None => workload_reps.push(point),
                    }
                }
                let arch_key = point.arch_key();
                if arch_keys.insert(arch_key) {
                    match resident.lookup_accelerator(&arch_key) {
                        Some(live) => {
                            shard.accelerators.insert(arch_key, Ok(live));
                        }
                        None => arch_reps.push(point),
                    }
                }
            }
        }

        let extracted: Vec<SimResult<ModelWorkload>> = workload_reps
            .par_iter()
            .map(|point| extract_workload(point))
            .collect();
        for (point, result) in workload_reps.iter().zip(extracted) {
            shard
                .workloads
                .insert(point.workload_key(), result.map(Arc::new));
        }

        let generated: Vec<SimResult<Accelerator>> = arch_reps
            .par_iter()
            .map(|point| build_accelerator(point))
            .collect();
        for (point, result) in arch_reps.iter().zip(generated) {
            shard
                .accelerators
                .insert(point.arch_key(), result.map(Arc::new));
        }

        // Publish fresh successes for the next shard (or the next request of
        // a resident server). Failures stay shard-local and are re-attempted
        // by whoever needs the key next.
        {
            let mut resident = store.lock().expect("artifact store lock");
            for point in &workload_reps {
                let key = point.workload_key();
                if let Some(Ok(value)) = shard.workloads.get(&key) {
                    resident.insert_workload(key, Arc::clone(value));
                }
            }
            for point in &arch_reps {
                let key = point.arch_key();
                if let Some(Ok(value)) = shard.accelerators.get(&key) {
                    resident.insert_accelerator(key, Arc::clone(value));
                }
            }
        }

        shard
    }

    /// The shard's artifacts ready to simulate, for every point of the
    /// shard and every thread simulating one: one [`WeightPowerMemo`] per
    /// workload and one compiled [`Simulator`] per accelerator, compiled by
    /// the first point that needs it. The shard folds each layer's
    /// data-aware weight power once per weight power model, and compiles
    /// each accelerator (its instance counts, link budgets, energy tables
    /// and area reports) once, not once per point. The memos borrow the
    /// shard's workloads, and both are dropped with the shard, so nothing
    /// outlives it.
    fn memoized(&self) -> MemoizedShard<'_> {
        MemoizedShard {
            workloads: self
                .workloads
                .iter()
                .map(|(key, workload)| (key, workload.as_deref().map(WeightPowerMemo::new)))
                .collect(),
            simulators: self
                .accelerators
                .iter()
                .map(|(key, accel)| (key, (accel, OnceLock::new())))
                .collect(),
        }
    }
}

/// A shard's artifacts, ready to simulate: see [`ShardArtifacts::memoized`].
pub(crate) struct MemoizedShard<'a> {
    workloads: HashMap<&'a WorkloadKey, std::result::Result<WeightPowerMemo<'a>, &'a SimError>>,
    simulators: HashMap<&'a ArchKey, (&'a SimResult<Arc<Accelerator>>, OnceLock<Simulator>)>,
}

impl MemoizedShard<'_> {
    /// Runs the simulation `key` names on a clone of its accelerator's
    /// compiled simulator, configured by the key, through its workload's
    /// memo. The key is all the simulation reads.
    fn simulate(&self, key: &SimKey) -> SimResult<SimulationReport> {
        let memo = self.workloads[&key.workload]
            .as_ref()
            .map_err(|&error| error.clone())?;
        let (accel, compiled) = &self.simulators[&key.arch];
        let accel = accel.as_ref().map_err(SimError::clone)?;
        compiled
            .get_or_init(|| Simulator::shared(Arc::clone(accel)))
            .clone()
            .with_config(key.config())
            .simulate_memoized(memo, &MappingPlan::default())
    }

    /// Folds run so far by the shard's memos.
    #[cfg(test)]
    fn folds(&self) -> usize {
        self.workloads
            .values()
            .filter_map(|memo| memo.as_ref().ok())
            .map(WeightPowerMemo::folds)
            .sum()
    }
}

/// Simulates one fully-bound configuration through a resident
/// [`ArtifactStore`]: artifacts already resident are reused (and
/// LRU-touched); anything missing is built and published back. Produces
/// bit-identical reports to [`simulate_point`] — artifact construction is a
/// pure function of the point's keys — while a warm store skips it entirely.
///
/// # Errors
///
/// Propagates architecture-generation, workload-extraction and simulation
/// errors.
pub fn simulate_point_shared(
    store: &std::sync::Mutex<ArtifactStore>,
    point: &SweepPoint,
) -> SimResult<SimulationReport> {
    ShardArtifacts::build(&[point], store)
        .memoized()
        .simulate(&point.sim_key())
}

/// A simulation that several missed points of one shard share, because
/// their [`SimKey`]s are equal: the first member to arrive runs it while the
/// others wait, every member builds its record from the one report, and the
/// last member drops it, so a report lives only while its group has points
/// left.
struct SharedSimulation {
    /// The simulation's outcome once run, and how many members have yet to
    /// read it.
    slot: std::sync::Mutex<(Option<SimResult<SimulationReport>>, usize)>,
}

impl SharedSimulation {
    fn new(members: usize) -> Self {
        Self {
            slot: std::sync::Mutex::new((None, members)),
        }
    }

    /// Hands the group's outcome to `read`, simulating first if no member
    /// has yet. A simulation that panicked poisons the lock with the slot
    /// still empty; the lock is recovered, so the next member simulates
    /// again and the panic that reaches the caller is a simulation's own.
    fn read<T>(
        &self,
        simulate: impl FnOnce() -> SimResult<SimulationReport>,
        read: impl FnOnce(&SimResult<SimulationReport>) -> T,
    ) -> T {
        let mut slot = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (outcome, unread) = &mut *slot;
        let value = read(outcome.get_or_insert_with(simulate));
        *unread -= 1;
        if *unread == 0 {
            *outcome = None;
        }
        value
    }
}

/// The record of `point` from its simulation's outcome, or its failure under
/// its own index and label.
fn point_record(
    point: SweepPoint,
    simulated: &SimResult<SimulationReport>,
) -> std::result::Result<SweepRecord, PointFailure> {
    match simulated {
        Ok(report) => Ok(SweepRecord::from_report(point, report)),
        Err(error) => Err(PointFailure {
            index: point.index,
            label: point.label(),
            error: FailureCause::Sim(error.clone()),
        }),
    }
}

/// A record ready for the I/O stage. A fresh simulation carries its compact
/// JSON, rendered on the compute threads, and — when a cache is attached —
/// the content key its lookup used, so the writer thread stores and writes
/// bytes instead of keying or serializing. A cache hit carries neither: it
/// is already durable.
pub(crate) struct PreparedRecord {
    pub(crate) record: SweepRecord,
    pub(crate) json: Option<String>,
    pub(crate) key: Option<String>,
}

/// One shard's compute-stage output: everything the I/O stage needs to
/// persist it (records in expansion-order slots, the failures to checkpoint)
/// plus the counters progress reporting wants.
pub(crate) struct ComputedShard {
    pub(crate) shard: usize,
    pub(crate) points: usize,
    pub(crate) hits: usize,
    pub(crate) slots: Vec<Option<PreparedRecord>>,
    pub(crate) checkpoint_failures: Vec<CheckpointFailure>,
    /// Cache writes the shard's producer already degraded: a remote worker's
    /// count for a merged part, 0 for a shard computed here.
    pub(crate) cache_degraded: usize,
}

impl ComputedShard {
    /// A shard computed elsewhere, from its part's meta and records: nothing
    /// is left to cache, and its failures are replayed as recorded.
    pub(crate) fn from_part(
        meta: ShardCheckpoint,
        records: Vec<SweepRecord>,
    ) -> (Self, Vec<PointFailure>) {
        let failures = recorded_failures(&meta.failures).collect();
        let slots = records
            .into_iter()
            .map(|record| {
                Some(PreparedRecord {
                    record,
                    json: None,
                    key: None,
                })
            })
            .collect();
        let computed = ComputedShard {
            shard: meta.shard,
            points: meta.points,
            hits: meta.hits,
            slots,
            checkpoint_failures: meta.failures,
            cache_degraded: meta.cache_degraded,
        };
        (computed, failures)
    }
}

/// Failures an earlier run or a remote worker recorded, as [`PointFailure`]s
/// that are reported but never abort a sweep.
fn recorded_failures(failures: &[CheckpointFailure]) -> impl Iterator<Item = PointFailure> + '_ {
    failures.iter().map(|failure| PointFailure {
        index: failure.index,
        label: failure.label.clone(),
        error: FailureCause::Recorded(failure.error.clone()),
    })
}

/// Runs one shard's compute stage: point expansion, keying and batched
/// (parallel) cache lookups, artifact construction, parallel simulation, and
/// record rendering — everything up to, but not including, durability I/O.
/// `artifacts` is the resident store live artifacts flow through across shard
/// (and sweep) boundaries. The shard's points and threads share one weight
/// power memo per workload and one compiled simulator per accelerator
/// ([`ShardArtifacts::memoized`]), so the shard folds each layer's
/// data-aware weight power once per weight power model and compiles each
/// accelerator once; the memos and the compiled simulators are dropped with
/// the shard.
///
/// Each point is keyed once ([`content_key`]), and only when a cache is
/// attached: the lookup ([`CacheBackend::get_batch_keyed`]) and a fresh
/// record's cache entry share that key. Each fresh record is rendered to
/// compact JSON once, on the worker threads, whether or not a cache is
/// attached; the cache entry, every sink that writes the line
/// ([`RecordSink::accept_rendered`]) and a worker's part body all reuse it.
///
/// The shard also simulates each distinct [`SimKey`] among its misses once:
/// data-unaware points that differ only in sparsity (or seed) share one
/// report, from which each builds its own record, cache entry and failure,
/// so no output byte moves. A report is dropped once its last point has read
/// it. The 192-point `extract_heavy` sweep simulates 48 times in 64-point
/// shards; a data-aware key holds its sparsity and seed, so nothing is
/// shared there. The local executor, resume, the daemon's bulk lane and the
/// worker fleet all compute their shards here.
pub(crate) fn compute_shard(
    spec: &SweepSpec,
    cache: Option<&dyn CacheBackend>,
    shard: usize,
    start: usize,
    end: usize,
    artifacts: &std::sync::Mutex<ArtifactStore>,
) -> Result<(ComputedShard, Vec<PointFailure>)> {
    let shard_points = end - start;
    let mut points: Vec<Option<SweepPoint>> =
        (start..end).map(|i| Some(spec.point_at(i))).collect();

    // Serve cache hits first; only misses go to the artifact store and the
    // thread pool. The whole shard is keyed and looked up as one (parallel)
    // batch. Points and keys sit in `Option` slots so a missed point and
    // its key can later be *moved* into its record instead of cloned.
    let (lookups, mut keys): (Vec<Option<SweepRecord>>, Vec<Option<String>>) = match cache {
        Some(cache) => {
            let queried: Vec<&SweepPoint> = points
                .iter()
                .map(|p| p.as_ref().expect("all points present before execution"))
                .collect();
            let keys: Vec<String> = queried.par_iter().map(|p| content_key(p)).collect();
            let lookups = cache.get_batch_keyed(&queried, &keys);
            // An out-of-contract override returning the wrong arity would
            // otherwise silently drop trailing points from the sweep.
            assert_eq!(
                lookups.len(),
                shard_points,
                "CacheBackend::get_batch_keyed must return one slot per queried point"
            );
            (lookups, keys.into_iter().map(Some).collect())
        }
        None => (vec![None; shard_points], vec![None; shard_points]),
    };
    let mut slots: Vec<Option<PreparedRecord>> = Vec::with_capacity(shard_points);
    let mut miss_indices: Vec<usize> = Vec::new();
    for (slot, lookup) in lookups.into_iter().enumerate() {
        match lookup {
            Some(record) => slots.push(Some(PreparedRecord {
                record,
                json: None,
                key: None,
            })),
            None => {
                slots.push(None);
                miss_indices.push(slot);
            }
        }
    }
    let hits = shard_points - miss_indices.len();

    // A fully-warm shard is done: no artifacts to build, nothing to
    // simulate. (Skipping the empty plumbing below keeps the per-shard cost
    // of warm sweeps down to the lookups themselves — and the resident store
    // keeps whatever it holds, so a warm stretch in the middle of a sweep
    // never drops live artifacts.)
    if miss_indices.is_empty() {
        return Ok((
            ComputedShard {
                shard,
                points: shard_points,
                hits,
                slots,
                checkpoint_failures: Vec::new(),
                cache_degraded: 0,
            },
            Vec::new(),
        ));
    }

    // Missed points and their keys move out of their slots and into the
    // worker threads, which simulate, build the record around the point,
    // and render its JSON — encoding happens here, in parallel, never in
    // the I/O stage.
    let missed: Vec<(SweepPoint, Option<String>)> = miss_indices
        .iter()
        .map(|&slot| {
            let point = points[slot].take().expect("miss slot holds its point");
            (point, keys[slot].take())
        })
        .collect();
    let shard_artifacts = {
        let missed_refs: Vec<&SweepPoint> = missed.iter().map(|(point, _)| point).collect();
        ShardArtifacts::build(&missed_refs, artifacts)
    };
    let memoized = shard_artifacts.memoized();
    // Keys that repeat among the misses get a shared slot; a key seen once
    // simulates on its own, as if nothing were shared.
    let mut members: HashMap<SimKey, usize> = HashMap::with_capacity(missed.len());
    for (point, _) in &missed {
        *members.entry(point.sim_key()).or_default() += 1;
    }
    let shared: HashMap<SimKey, SharedSimulation> = members
        .into_iter()
        .filter(|&(_, count)| count > 1)
        .map(|(key, count)| (key, SharedSimulation::new(count)))
        .collect();
    type PointResult = std::result::Result<PreparedRecord, PointFailure>;
    let computed: Vec<Result<PointResult>> = missed
        .into_par_iter()
        .map(|(point, key)| {
            let sim_key = point.sim_key();
            let record = match shared.get(&sim_key) {
                Some(group) => group.read(
                    || memoized.simulate(&sim_key),
                    |simulated| point_record(point, simulated),
                ),
                None => point_record(point, &memoized.simulate(&sim_key)),
            };
            match record {
                Ok(record) => {
                    let json = serde_json::to_string(&record)?;
                    Ok(Ok(PreparedRecord {
                        record,
                        json: Some(json),
                        key,
                    }))
                }
                Err(failure) => Ok(Err(failure)),
            }
        })
        .collect();

    let mut checkpoint_failures: Vec<CheckpointFailure> = Vec::new();
    let mut failures: Vec<PointFailure> = Vec::new();
    for (&slot, result) in miss_indices.iter().zip(computed) {
        match result? {
            Ok(prepared) => slots[slot] = Some(prepared),
            Err(failure) => {
                checkpoint_failures.push(CheckpointFailure {
                    index: failure.index,
                    label: failure.label.clone(),
                    error: failure.error.to_string(),
                });
                failures.push(failure);
            }
        }
    }

    Ok((
        ComputedShard {
            shard,
            points: shard_points,
            hits,
            slots,
            checkpoint_failures,
            cache_degraded: 0,
        },
        failures,
    ))
}

/// Writes a shard's fresh records through `cache` around `emit`: every
/// fresh record is stored first, under the key its lookup used and from the
/// JSON the compute stage rendered, then `emit` consumes the shard's slots,
/// then the cache is flushed. Each cache write runs under `retry`. One that
/// still fails is skipped and counted under
/// [`ErrorPolicy::KeepGoing`] — the record still reaches `emit`, and a
/// re-run re-simulates its point — and is the error under fail-fast.
/// Returns what `emit` returned and the number of skipped writes. The local
/// I/O stage ([`IoStage::drain_shard`]) and a worker's part
/// ([`crate::compute_shard_part`]) both write their caches here.
pub(crate) fn write_through<T>(
    cache: Option<&dyn CacheBackend>,
    slots: Vec<Option<PreparedRecord>>,
    policy: ErrorPolicy,
    retry: RetryPolicy,
    emit: impl FnOnce(Vec<Option<PreparedRecord>>) -> Result<T>,
) -> Result<(T, usize)> {
    let mut degraded = 0usize;
    let mut degrade = |result: Result<()>| -> Result<()> {
        match result {
            Ok(()) => Ok(()),
            Err(_) if policy == ErrorPolicy::KeepGoing => {
                degraded += 1;
                Ok(())
            }
            Err(e) => Err(e),
        }
    };
    if let Some(cache) = cache {
        for prepared in slots.iter().flatten() {
            if let (Some(key), Some(json)) = (&prepared.key, &prepared.json) {
                degrade(retry.run(|| cache.put_serialized(key, json, &prepared.record)))?;
            }
        }
    }
    let emitted = emit(slots)?;
    if let Some(cache) = cache {
        degrade(retry.run(|| cache.flush()))?;
    }
    Ok((emitted, degraded))
}

/// A sweep's I/O stage: where its shards persist, and the cumulative record
/// count each checkpoint line carries. The writer thread borrows it while
/// it runs; the calling thread persists the final shard through it once the
/// writer has joined.
struct IoStage<'s> {
    cache: Option<&'s dyn CacheBackend>,
    sink: &'s mut dyn RecordSink,
    checkpoint: Option<&'s mut Checkpoint>,
    /// Records durable so far, the checkpointed prefix included.
    emitted: usize,
    policy: ErrorPolicy,
    retry: RetryPolicy,
}

/// One durable shard: what its progress report and the sweep's outcome
/// need.
struct Persisted {
    shard: usize,
    points: usize,
    hits: usize,
    failures: usize,
    /// Cache writes skipped for this shard, its producer's included.
    cache_degraded: usize,
}

impl IoStage<'_> {
    /// Runs one shard's I/O stage with the durability contract intact: cache
    /// writes (pre-rendered bytes), sink emission in expansion order (failed
    /// points simply have no record; fresh ones arrive with their rendered
    /// JSON), cache flush, sink flush — plus an fsync when a checkpoint will
    /// vouch for the shard — then the checkpoint append, in that order, so a
    /// checkpointed shard is always fully recoverable.
    ///
    /// Cache writes may degrade under keep-going ([`write_through`]); the
    /// skips, counting those the shard's producer already made, are ledgered
    /// in the shard's checkpoint line. Sink errors stay hard under either
    /// policy: a sink that lost a record cannot be reconciled after the fact.
    fn drain_shard(&mut self, computed: ComputedShard) -> Result<Persisted> {
        let ComputedShard {
            shard,
            points,
            hits,
            slots,
            checkpoint_failures,
            cache_degraded: producer_degraded,
        } = computed;
        let sink = &mut *self.sink;
        let (emitted, degraded) =
            write_through(self.cache, slots, self.policy, self.retry, |slots| {
                let mut emitted = 0usize;
                for prepared in slots.into_iter().flatten() {
                    match prepared.json {
                        Some(json) => sink.accept_rendered(prepared.record, &json)?,
                        None => sink.accept(prepared.record)?,
                    }
                    emitted += 1;
                }
                Ok(emitted)
            })?;
        let cache_degraded = producer_degraded + degraded;
        self.retry.run(|| self.sink.flush_shard())?;
        self.emitted += emitted;
        let failures = checkpoint_failures.len();
        if let Some(ckpt) = self.checkpoint.as_deref_mut() {
            // The checkpoint line promises the shard's records are durable; force
            // them onto stable storage before making that promise.
            self.retry.run(|| self.sink.sync())?;
            ckpt.record_shard(ShardCheckpoint {
                shard,
                points,
                hits,
                misses: points - hits,
                emitted: self.emitted,
                failures: checkpoint_failures,
                cache_degraded,
            })?;
        }
        Ok(Persisted {
            shard,
            points,
            hits,
            failures,
            cache_degraded,
        })
    }
}

/// The fail-fast abort error of a live point failure (`None` for failures
/// replayed from a checkpoint, which never abort).
fn point_error(failure: &PointFailure) -> Option<ExploreError> {
    match &failure.error {
        FailureCause::Sim(source) => Some(ExploreError::Point {
            index: failure.index,
            label: failure.label.clone(),
            source: source.clone(),
        }),
        FailureCause::Recorded(_) => None,
    }
}

/// The compute stage of one shard, called with `(shard, start, end)`: a
/// local sweep simulates it ([`compute_shard`]); a merge fetches the part a
/// worker computed ([`crate::merge_shard_source`]).
pub(crate) type ComputeStage<'s> =
    dyn FnMut(usize, usize, usize) -> Result<(ComputedShard, Vec<PointFailure>)> + 's;

/// One sweep's shard geometry and running accounting. The local executor
/// and the shard merge both start here and [`run`](Self::run) their shards
/// through the same loop, so they replay a checkpoint, persist shards
/// ([`IoStage::drain_shard`]) and report progress the same way.
pub(crate) struct SweepRun<'a> {
    cache: Option<&'a dyn CacheBackend>,
    policy: ErrorPolicy,
    retry: RetryPolicy,
    shard_size: usize,
    shards: usize,
    total: usize,
    /// First shard to execute (everything before it was skipped via
    /// checkpoint resume).
    first: usize,
    stats: CacheStats,
    failures: Vec<PointFailure>,
    replayed_failures: usize,
    skipped_points: usize,
    done: usize,
    /// Cache writes degraded (skipped after exhausting retries) in this run.
    cache_degraded: usize,
}

impl<'a> SweepRun<'a> {
    /// Validates `spec`, derives its shard geometry, and replays the shards
    /// `checkpoint` already records. Those shards are not re-run: their
    /// successes are durable (cache flushed before the shard line was
    /// appended, sink output emitted by the interrupted run), and their
    /// failures are reported without being re-attempted.
    pub(crate) fn start(
        spec: &SweepSpec,
        cache: Option<&'a dyn CacheBackend>,
        options: &StreamOptions,
        checkpoint: Option<&Checkpoint>,
        progress: &mut dyn FnMut(&ShardProgress),
    ) -> Result<Self> {
        spec.validate()?;
        let total = spec.point_count()?;
        let shard_size = effective_shard_size(options, total);
        let shards = total.div_ceil(shard_size);
        let recorded = checkpoint.map_or(&[][..], Checkpoint::completed);
        if recorded.len() > shards {
            return Err(ExploreError::checkpoint(format!(
                "checkpoint records {} shards but the sweep only has {shards}",
                recorded.len()
            )));
        }
        let mut run = SweepRun {
            cache,
            policy: options.error_policy,
            retry: options.retry,
            shard_size,
            shards,
            total,
            first: recorded.len(),
            stats: CacheStats::default(),
            failures: Vec::new(),
            replayed_failures: 0,
            skipped_points: 0,
            done: 0,
            cache_degraded: 0,
        };
        for (shard, recorded) in recorded.iter().enumerate() {
            let (start, end) = run.shard_range(shard);
            let points = end - start;
            run.failures.extend(recorded_failures(&recorded.failures));
            run.replayed_failures += recorded.failures.len();
            run.skipped_points += points;
            run.done += points;
            progress(&ShardProgress {
                shard,
                shards,
                points,
                hits: 0,
                failures: recorded.failures.len(),
                skipped: points,
                done: run.done,
                total,
            });
        }
        Ok(run)
    }

    fn shard_range(&self, shard: usize) -> (usize, usize) {
        let start = shard * self.shard_size;
        (start, (start + self.shard_size).min(self.total))
    }

    /// Registers one computed shard's accounting; returns the fail-fast abort
    /// error when the policy calls for one.
    fn absorb(
        &mut self,
        computed: &ComputedShard,
        shard_failures: Vec<PointFailure>,
    ) -> Option<ExploreError> {
        self.stats.hits += computed.hits;
        self.stats.misses += computed.points - computed.hits;
        let error = (self.policy == ErrorPolicy::FailFast)
            .then(|| shard_failures.first().and_then(point_error))
            .flatten();
        self.failures.extend(shard_failures);
        error
    }

    fn report(&mut self, persisted: &Persisted, progress: &mut dyn FnMut(&ShardProgress)) {
        self.cache_degraded += persisted.cache_degraded;
        self.done += persisted.points;
        progress(&ShardProgress {
            shard: persisted.shard,
            shards: self.shards,
            points: persisted.points,
            hits: persisted.hits,
            failures: persisted.failures,
            skipped: 0,
            done: self.done,
            total: self.total,
        });
    }

    /// Runs the remaining shards in expansion order and returns the sweep's
    /// accounting.
    ///
    /// The calling thread computes every shard. Each shard but the final
    /// one goes through a single-slot channel to a scoped writer thread,
    /// started with the first such shard, which persists it while the next
    /// one computes; with one shard in the slot and one persisting, compute
    /// never runs more than two shards ahead of durability. The final shard,
    /// or the shard that fails fast, persists on the calling thread once
    /// the writer has joined, so a one-shard sweep starts no thread.
    /// Progress fires once per shard, in shard order, after the shard is
    /// durable, and the sink is finished only after every shard persisted.
    ///
    /// The first error in expansion order wins: the writer's, then the
    /// compute stage's, then the fail-fast point error. A panic in either
    /// stage reaches the caller with its payload.
    pub(crate) fn run(
        mut self,
        compute: &mut ComputeStage<'_>,
        sink: &mut dyn RecordSink,
        progress: &mut dyn FnMut(&ShardProgress),
        checkpoint: Option<&mut Checkpoint>,
    ) -> Result<StreamOutcome> {
        let mut io = IoStage {
            cache: self.cache,
            sink,
            emitted: checkpoint.as_deref().map_or(0, Checkpoint::emitted),
            checkpoint,
            policy: self.policy,
            retry: self.retry,
        };
        let last = std::thread::scope(|scope| {
            let mut lent = Some(&mut io);
            let mut writer = None;
            let mut last = Ok(None);
            for shard in self.first..self.shards {
                let (start, end) = self.shard_range(shard);
                let (computed, failures) = match compute(shard, start, end) {
                    Ok(computed) => computed,
                    Err(e) => {
                        last = Err(e);
                        break;
                    }
                };
                let fail_fast = self.absorb(&computed, failures);
                if fail_fast.is_some() || shard + 1 == self.shards {
                    last = Ok(Some((computed, fail_fast)));
                    break;
                }
                let (shards, notes, _) = writer.get_or_insert_with(|| {
                    let io = lent.take().expect("the writer starts once");
                    let (shards, queued) = mpsc::sync_channel::<ComputedShard>(1);
                    let (noted, notes) = mpsc::channel();
                    let thread = scope.spawn(move || -> Result<()> {
                        for computed in queued {
                            // The receiver lives until the writer joins,
                            // unless a compute-stage panic is unwinding.
                            let _ = noted.send(io.drain_shard(computed)?);
                        }
                        Ok(())
                    });
                    (shards, notes, thread)
                });
                // The writer drops its end only after an error or a panic,
                // which its join below returns.
                if shards.send(computed).is_err() {
                    break;
                }
                for persisted in notes.try_iter() {
                    self.report(&persisted, progress);
                }
            }
            if let Some((shards, notes, thread)) = writer {
                drop(shards);
                let written = thread
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for persisted in notes.try_iter() {
                    self.report(&persisted, progress);
                }
                written?;
            }
            last
        })?;
        if let Some((computed, fail_fast)) = last {
            let persisted = io.drain_shard(computed)?;
            self.report(&persisted, progress);
            if let Some(error) = fail_fast {
                return Err(error);
            }
        }
        io.sink.finish()?;
        Ok(StreamOutcome {
            stats: self.stats,
            failures: self.failures,
            replayed_failures: self.replayed_failures,
            shards: self.shards,
            total_points: self.total,
            skipped_points: self.skipped_points,
            cache_degraded: self.cache_degraded,
        })
    }
}

/// The engine core behind [`ExploreSession`](crate::ExploreSession): runs a
/// sweep as a stream of shards, pushing completed records into `sink` in
/// deterministic expansion order, reporting per-shard progress, flushing the
/// cache and sink at every shard boundary, and — when a checkpoint is given —
/// recording each completed shard after its data is durable and skipping
/// shards the checkpoint already records. Each shard's compute overlaps the
/// previous shard's durability I/O ([`SweepRun::run`]).
pub(crate) fn execute(
    spec: &SweepSpec,
    cache: Option<&dyn CacheBackend>,
    options: &StreamOptions,
    sink: &mut dyn RecordSink,
    progress: &mut dyn FnMut(&ShardProgress),
    checkpoint: Option<&mut Checkpoint>,
    artifacts: &std::sync::Mutex<ArtifactStore>,
) -> Result<StreamOutcome> {
    SweepRun::start(spec, cache, options, checkpoint.as_deref(), progress)?.run(
        &mut |shard, start, end| compute_shard(spec, cache, shard, start, end, artifacts),
        sink,
        progress,
        checkpoint,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PackedSegmentCache;
    use crate::session::ExploreSession;
    use crate::sink::VecSink;
    use crate::spec::{ArchFamily, WorkloadSpec};

    #[test]
    fn single_point_sweep_matches_direct_simulation() {
        let spec = SweepSpec::new("one");
        let outcome = ExploreSession::new(&spec).run_collect().unwrap();
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.stats, CacheStats { hits: 0, misses: 1 });
        let direct = simulate_point(&spec.expand().unwrap()[0]).unwrap();
        let record = &outcome.records[0];
        assert_eq!(record.cycles, direct.total_cycles);
        assert_eq!(record.energy_uj, direct.total_energy.microjoules());
        assert_eq!(record.glb_blocks, direct.glb_blocks);
    }

    #[test]
    fn successful_points_are_cached_even_when_the_sweep_fails() {
        let dir =
            std::env::temp_dir().join(format!("simphony-explore-partial-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = Arc::new(PackedSegmentCache::open(&dir).unwrap());
        // TeMPO can run BERT's dynamic products, the static MZI mesh cannot,
        // so the sweep fails after the TeMPO point simulated successfully.
        let spec = SweepSpec::new("partial")
            .with_arch(vec![ArchFamily::Tempo, ArchFamily::MziMesh])
            .with_workload(vec![crate::spec::WorkloadSpec::Bert { seq_len: 8 }]);
        assert!(ExploreSession::new(&spec)
            .cache(cache.clone())
            .run_collect()
            .is_err());
        assert_eq!(cache.len().unwrap(), 1, "good point must be cached");

        let retry = SweepSpec::new("partial-retry")
            .with_arch(vec![ArchFamily::Tempo])
            .with_workload(vec![crate::spec::WorkloadSpec::Bert { seq_len: 8 }]);
        let outcome = ExploreSession::new(&retry)
            .cache(cache)
            .run_collect()
            .unwrap();
        assert_eq!(outcome.stats, CacheStats { hits: 1, misses: 0 });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifact_failures_only_fail_their_own_points() {
        // The butterfly mesh rejects a non-power-of-two core height at
        // *artifact construction* time, before any simulation. The TeMPO
        // points sharing the sweep must still simulate and be cached — the
        // documented contract that used to be violated when a single failing
        // artifact aborted the whole batch up front.
        let dir = std::env::temp_dir().join(format!(
            "simphony-explore-artifact-partial-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = Arc::new(PackedSegmentCache::open(&dir).unwrap());
        let spec = SweepSpec::new("artifact-partial")
            .with_arch(vec![ArchFamily::Tempo, ArchFamily::Butterfly])
            .with_core_dims(vec![6])
            .with_wavelengths(vec![1, 2]);
        let err = ExploreSession::new(&spec)
            .cache(cache.clone())
            .run_collect()
            .unwrap_err();
        match err {
            ExploreError::Point { index, label, .. } => {
                // Expansion order: tempo λ1, tempo λ2, butterfly λ1, butterfly λ2.
                assert_eq!(index, 2, "first failing point in expansion order");
                assert!(label.contains("butterfly"));
            }
            other => panic!("expected point error, got {other}"),
        }
        assert_eq!(
            cache.len().unwrap(),
            2,
            "both TeMPO points must be cached despite the butterfly artifact failing"
        );

        let retry = SweepSpec::new("artifact-retry")
            .with_arch(vec![ArchFamily::Tempo])
            .with_core_dims(vec![6])
            .with_wavelengths(vec![1, 2]);
        let outcome = ExploreSession::new(&retry)
            .cache(cache)
            .run_collect()
            .unwrap();
        assert_eq!(outcome.stats, CacheStats { hits: 2, misses: 0 });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failing_points_abort_with_context() {
        // A static-only MZI mesh cannot execute BERT's dynamic attention
        // products, so every point fails placement.
        let spec = SweepSpec::new("fail")
            .with_arch(vec![ArchFamily::MziMesh])
            .with_workload(vec![crate::spec::WorkloadSpec::Bert { seq_len: 32 }]);
        let err = ExploreSession::new(&spec).run_collect().unwrap_err();
        match err {
            ExploreError::Point { index, label, .. } => {
                assert_eq!(index, 0);
                assert!(label.contains("mzi_mesh"));
            }
            other => panic!("expected point error, got {other}"),
        }
    }

    #[test]
    fn keep_going_records_failures_and_streams_the_successes() {
        let spec = SweepSpec::new("keep-going")
            .with_arch(vec![ArchFamily::Tempo, ArchFamily::Butterfly])
            .with_core_dims(vec![6])
            .with_wavelengths(vec![1, 2]);
        let mut sink = VecSink::new();
        let outcome = ExploreSession::new(&spec)
            .chunk_size(1)
            .keep_going()
            .sink(&mut sink)
            .run()
            .unwrap();
        assert_eq!(outcome.total_points, 4);
        assert_eq!(outcome.shards, 4);
        assert_eq!(outcome.skipped_points, 0);
        assert_eq!(outcome.replayed_failures, 0);
        let failed: Vec<usize> = outcome.failures.iter().map(|f| f.index).collect();
        assert_eq!(failed, vec![2, 3], "both butterfly points fail");
        for failure in &outcome.failures {
            assert!(failure.label.contains("butterfly"));
            assert!(failure.error.to_string().contains("power-of-two"));
        }
        let records = sink.into_records();
        assert_eq!(records.len(), 2, "the TeMPO successes still stream out");
        assert_eq!(
            records.iter().map(|r| r.point.index).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn a_failing_shared_simulation_fails_each_point_of_its_group() {
        // The static MZI mesh refuses BERT's dynamic products, and the three
        // unaware points differ only in sparsity, so a shard holding two or
        // three of them simulates once. Each must still fail under its own
        // index and label, with the message of its own cold simulation, and
        // the checkpoint must record each shard as if it had simulated every
        // point.
        let spec = SweepSpec::new("failing-group")
            .with_arch(vec![ArchFamily::MziMesh])
            .with_workload(vec![WorkloadSpec::Bert { seq_len: 32 }])
            .with_sparsity(vec![0.0, 0.25, 0.5])
            .with_data_awareness(vec![simphony::DataAwareness::Unaware]);
        let expected: Vec<CheckpointFailure> = spec
            .expand()
            .unwrap()
            .iter()
            .map(|point| CheckpointFailure {
                index: point.index,
                label: point.label(),
                error: simulate_point(point).unwrap_err().to_string(),
            })
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "simphony-explore-failing-group-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for (chunk, shards) in [(0, vec![(0, 3)]), (2, vec![(0, 2), (2, 3)])] {
            let ckpt = dir.join(format!("chunk-{chunk}.ckpt"));
            std::fs::remove_file(&ckpt).ok();
            let mut sink = VecSink::new();
            let outcome = ExploreSession::new(&spec)
                .chunk_size(chunk)
                .keep_going()
                .checkpoint(&ckpt)
                .sink(&mut sink)
                .run()
                .unwrap();
            assert!(sink.records().is_empty());
            let failures: Vec<CheckpointFailure> = outcome
                .failures
                .iter()
                .map(|failure| CheckpointFailure {
                    index: failure.index,
                    label: failure.label.clone(),
                    error: failure.error.to_string(),
                })
                .collect();
            assert_eq!(failures, expected, "chunk size {chunk}");
            let recorded: Vec<ShardCheckpoint> = shards
                .into_iter()
                .enumerate()
                .map(|(shard, (start, end))| ShardCheckpoint {
                    shard,
                    points: end - start,
                    hits: 0,
                    misses: end - start,
                    emitted: 0,
                    failures: expected[start..end].to_vec(),
                    cache_degraded: 0,
                })
                .collect();
            assert_eq!(
                Checkpoint::load(&ckpt).unwrap().1,
                recorded,
                "chunk size {chunk}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunked_streaming_matches_the_in_memory_path() {
        let spec = SweepSpec::new("chunked")
            .with_wavelengths(vec![1, 2])
            .with_sparsity(vec![0.0, 0.5])
            .with_data_awareness(vec![
                simphony::DataAwareness::Aware,
                simphony::DataAwareness::Unaware,
            ]);
        let reference = ExploreSession::new(&spec).run_collect().unwrap();
        for chunk in [1, 3, 8, 100] {
            let mut sink = VecSink::new();
            let mut seen_shards = Vec::new();
            let outcome = ExploreSession::new(&spec)
                .chunk_size(chunk)
                .sink(&mut sink)
                .on_progress(|p| seen_shards.push((p.shard, p.points, p.done)))
                .run()
                .unwrap();
            assert_eq!(outcome.shards, 8usize.div_ceil(chunk));
            assert_eq!(seen_shards.len(), outcome.shards);
            assert_eq!(seen_shards.last().unwrap().2, 8, "all points processed");
            assert_eq!(
                serde_json::to_string(sink.records()).unwrap(),
                serde_json::to_string(&reference.records).unwrap(),
                "chunk size {chunk} must not change a single output byte"
            );
        }
    }

    #[test]
    fn shared_artifacts_match_per_point_extraction() {
        // Several points share each workload/arch artifact; the shared path
        // must produce the same reports as sharing-free per-point simulation.
        let spec = SweepSpec::new("sharing")
            .with_wavelengths(vec![1, 2])
            .with_sparsity(vec![0.0, 0.5])
            .with_data_awareness(vec![
                simphony::DataAwareness::Aware,
                simphony::DataAwareness::Unaware,
            ]);
        let outcome = ExploreSession::new(&spec).run_collect().unwrap();
        let points = spec.expand().unwrap();
        assert_eq!(outcome.records.len(), points.len());
        for (record, point) in outcome.records.iter().zip(&points) {
            let direct = simulate_point(point).unwrap();
            let expected = SweepRecord::from_report(point.clone(), &direct);
            assert_eq!(record, &expected);
        }
    }

    #[test]
    fn pipelined_execution_matches_the_serial_path_exactly() {
        // A multi-shard sweep persists all but its final shard on the writer
        // thread, a one-shard sweep persists on the calling thread: records,
        // stats, failure lists and progress must be indistinguishable between
        // the two, including a failing sweep.
        let spec = SweepSpec::new("pipeline-equiv")
            .with_wavelengths(vec![1, 2])
            .with_sparsity(vec![0.0, 0.5])
            .with_data_awareness(vec![
                simphony::DataAwareness::Aware,
                simphony::DataAwareness::Unaware,
            ]);
        let mut serial_sink = VecSink::new();
        let serial = ExploreSession::new(&spec)
            .sink(&mut serial_sink)
            .run()
            .unwrap();
        assert_eq!(serial.shards, 1);
        for chunk in [1, 3] {
            let mut piped_sink = VecSink::new();
            let mut seen = Vec::new();
            let piped = ExploreSession::new(&spec)
                .chunk_size(chunk)
                .sink(&mut piped_sink)
                .on_progress(|p| seen.push((p.shard, p.points, p.done)))
                .run()
                .unwrap();
            assert_eq!(piped_sink.records(), serial_sink.records());
            assert_eq!(piped.stats, serial.stats);
            assert_eq!(piped.shards, 8usize.div_ceil(chunk));
            assert_eq!(seen.len(), piped.shards, "one progress call per shard");
            assert_eq!(
                seen.last().unwrap().2,
                8,
                "progress reports every point done"
            );
            assert!(
                seen.windows(2).all(|w| w[0].0 + 1 == w[1].0),
                "progress arrives in shard order"
            );
        }

        // Failing sweep: same fail-fast error, same partial output.
        let failing = SweepSpec::new("pipeline-equiv-fail")
            .with_arch(vec![ArchFamily::Tempo, ArchFamily::Butterfly])
            .with_core_dims(vec![6])
            .with_wavelengths(vec![1, 2]);
        let mut serial_sink = VecSink::new();
        let serial_err = ExploreSession::new(&failing)
            .sink(&mut serial_sink)
            .run()
            .unwrap_err();
        let mut piped_sink = VecSink::new();
        let piped_err = ExploreSession::new(&failing)
            .chunk_size(1)
            .sink(&mut piped_sink)
            .run()
            .unwrap_err();
        assert_eq!(piped_err.to_string(), serial_err.to_string());
        assert_eq!(piped_sink.records(), serial_sink.records());
    }

    #[test]
    fn shared_artifact_store_makes_reruns_warm() {
        let store = ArtifactStore::shared(ArtifactBudget::default());
        let spec = SweepSpec::new("shared-store").with_wavelengths(vec![1, 2]);
        let cold = ExploreSession::new(&spec)
            .artifact_store(Arc::clone(&store))
            .run_collect()
            .unwrap();
        let after_cold = store.lock().unwrap().stats();
        // 1 distinct workload + 2 distinct accelerators, all fresh builds.
        assert_eq!(after_cold.entries, 3);
        assert_eq!(after_cold.misses, 3);
        assert_eq!(after_cold.evictions, 0);
        assert!(after_cold.bytes > 0);

        let warm = ExploreSession::new(&spec)
            .artifact_store(Arc::clone(&store))
            .run_collect()
            .unwrap();
        assert_eq!(warm.records, cold.records, "sharing never changes output");
        let after_warm = store.lock().unwrap().stats();
        assert_eq!(
            after_warm.misses, after_cold.misses,
            "the warm run built nothing"
        );
        assert_eq!(after_warm.hits, after_cold.hits + 3);
    }

    #[test]
    fn artifact_store_enforces_its_entry_budget_lru() {
        // 4 wavelengths → 1 workload + 4 accelerators = 5 distinct
        // artifacts, against a budget of 2 entries: the store must evict and
        // never exceed the cap, while the sweep's output stays correct.
        let store = ArtifactStore::shared(ArtifactBudget {
            max_entries: 2,
            max_bytes: 0,
        });
        let spec = SweepSpec::new("lru").with_wavelengths(vec![1, 2, 4, 8]);
        let bounded = ExploreSession::new(&spec)
            .chunk_size(1)
            .artifact_store(Arc::clone(&store))
            .run_collect()
            .unwrap();
        let stats = store.lock().unwrap().stats();
        assert!(stats.entries <= 2, "budget held: {} entries", stats.entries);
        assert!(stats.evictions >= 3, "evicted down to the cap");
        let unbounded = ExploreSession::new(&spec)
            .chunk_size(1)
            .artifact_budget(ArtifactBudget::unbounded())
            .run_collect()
            .unwrap();
        assert_eq!(bounded.records, unbounded.records);
    }

    #[test]
    fn artifact_store_enforces_its_byte_budget() {
        // A 1-byte budget can hold nothing: every insert immediately evicts,
        // so the resident set stays empty but simulation still succeeds (the
        // shard owns its Arcs regardless of residency).
        let store = ArtifactStore::shared(ArtifactBudget {
            max_entries: 0,
            max_bytes: 1,
        });
        let spec = SweepSpec::new("byte-budget").with_wavelengths(vec![1, 2]);
        let outcome = ExploreSession::new(&spec)
            .artifact_store(Arc::clone(&store))
            .run_collect()
            .unwrap();
        assert_eq!(outcome.records.len(), 2);
        let stats = store.lock().unwrap().stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.evictions, 3);
    }

    #[test]
    fn a_resident_vgg8_workload_stays_under_150_kb() {
        let store = ArtifactStore::shared(ArtifactBudget::default());
        let spec = SweepSpec::new("vgg8-bytes").with_workload(vec![WorkloadSpec::Vgg8]);
        let point = spec.expand().unwrap().remove(0);
        simulate_point_shared(&store, &point).unwrap();
        // One workload and one accelerator resident.
        let stats = store.lock().unwrap().stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes < 150 * 1024, "{} bytes resident", stats.bytes);
    }

    /// The benchmark's `extract_heavy` sweep: 192 data-unaware points over
    /// 4 models, 3 bit widths, 4 sparsities and 2 families.
    fn extract_heavy_spec() -> SweepSpec {
        SweepSpec::new("extract-heavy")
            .with_workload(vec![
                WorkloadSpec::Bert { seq_len: 32 },
                WorkloadSpec::Bert { seq_len: 64 },
                WorkloadSpec::Bert { seq_len: 128 },
                WorkloadSpec::Vgg8,
            ])
            .with_arch(vec![ArchFamily::Tempo, ArchFamily::MrrBank])
            .with_bitwidth(vec![4, 6, 8])
            .with_sparsity(vec![0.0, 0.25, 0.5, 0.75])
            .with_dataflow(vec![
                simphony_dataflow::DataflowStyle::OutputStationary,
                simphony_dataflow::DataflowStyle::WeightStationary,
            ])
            .with_data_awareness(vec![simphony::DataAwareness::Unaware])
    }

    /// The benchmark's `dse_aware` sweep: 896 data-aware VGG-8 points over
    /// every family, 2 core sizes, 4 wavelength counts, 2 bit widths, 2
    /// sparsities and 2 dataflows.
    fn dse_aware_spec() -> SweepSpec {
        SweepSpec::new("dse-aware")
            .with_workload(vec![WorkloadSpec::Vgg8])
            .with_arch(ArchFamily::ALL.to_vec())
            .with_core_dims(vec![4, 8])
            .with_wavelengths(vec![1, 2, 4, 8])
            .with_bitwidth(vec![4, 8])
            .with_sparsity(vec![0.0, 0.5])
            .with_dataflow(vec![
                simphony_dataflow::DataflowStyle::OutputStationary,
                simphony_dataflow::DataflowStyle::WeightStationary,
            ])
            .with_data_awareness(vec![simphony::DataAwareness::Aware])
    }

    #[test]
    fn a_shard_folds_each_layer_once_per_workload_and_weight_power_model() {
        let spec = dse_aware_spec();
        let total = spec.point_count().unwrap();
        assert_eq!(total, 896);
        // 4 workloads x 6 weight power models x 8 layers unchunked; 4 (workload, model)
        // pairs per 64-point shard; 8 folds per point at chunk size 1. One fold per
        // weight-device instance and point, without memos, would be 10,240.
        for (chunk, expected) in [(64, 448), (0, 192), (1, 7_168)] {
            let store = std::sync::Mutex::new(ArtifactStore::new(ArtifactBudget::unbounded()));
            let size = effective_shard_size(&StreamOptions::chunked(chunk), total);
            let mut folds = 0;
            for start in (0..total).step_by(size) {
                let points: Vec<SweepPoint> = (start..(start + size).min(total))
                    .map(|i| spec.point_at(i))
                    .collect();
                let refs: Vec<&SweepPoint> = points.iter().collect();
                let artifacts = ShardArtifacts::build(&refs, &store);
                let memoized = artifacts.memoized();
                let reports: Vec<SimResult<SimulationReport>> = points
                    .par_iter()
                    .map(|point| memoized.simulate(&point.sim_key()))
                    .collect();
                assert!(reports.iter().all(SimResult::is_ok));
                folds += memoized.folds();
            }
            assert_eq!(folds, expected, "chunk size {chunk}");
        }
    }

    #[test]
    fn unaware_points_build_one_workload_per_model_and_bit_width() {
        let spec = extract_heavy_spec();
        assert_eq!(spec.point_count().unwrap(), 192);
        for chunk in [0, 64] {
            let store = ArtifactStore::shared(ArtifactBudget::default());
            let outcome = ExploreSession::new(&spec)
                .chunk_size(chunk)
                .artifact_store(Arc::clone(&store))
                .run_collect()
                .unwrap();
            assert_eq!(outcome.records.len(), 192);
            // 4 models x 3 bit widths shape-only workloads, plus the 2
            // accelerators; sparsity no longer splits an unaware workload.
            assert_eq!(store.lock().unwrap().stats().misses, 14, "chunk {chunk}");
        }
    }

    #[test]
    fn unaware_keys_ignore_sparsity_and_seed_and_never_equal_aware_keys() {
        let spec = SweepSpec::new("keys")
            .with_sparsity(vec![0.0, 0.5])
            .with_data_awareness(vec![
                simphony::DataAwareness::Aware,
                simphony::DataAwareness::Unaware,
            ]);
        let mut points = spec.expand().unwrap();
        let mut reseeded = points.clone();
        for point in &mut reseeded {
            point.seed += 1;
        }
        points.extend(reseeded);
        let key = |point: &SweepPoint| point.workload_key();
        let aware: HashSet<WorkloadKey> = points
            .iter()
            .filter(|p| p.data_awareness == simphony::DataAwareness::Aware)
            .map(key)
            .collect();
        let unaware: HashSet<WorkloadKey> = points
            .iter()
            .filter(|p| p.data_awareness == simphony::DataAwareness::Unaware)
            .map(key)
            .collect();
        assert_eq!(aware.len(), 4, "2 sparsities x 2 seeds");
        assert_eq!(unaware.len(), 1, "one shape-only workload");
        assert!(aware.is_disjoint(&unaware));
    }

    #[test]
    fn only_aware_points_extract_weight_samples() {
        let spec = SweepSpec::new("samples")
            .with_workload(vec![WorkloadSpec::Vgg8])
            .with_data_awareness(vec![
                simphony::DataAwareness::Aware,
                simphony::DataAwareness::Unaware,
            ]);
        let points = spec.expand().unwrap();
        let (aware, unaware) = (&points[0], &points[1]);
        let sampled = extract_workload(aware).unwrap();
        let shapes = extract_workload(unaware).unwrap();
        assert!(sampled.layers().iter().all(|l| l.samples().is_some()));
        assert!(shapes.layers().iter().all(|l| l.samples().is_none()));
        let accel = Arc::new(build_accelerator(aware).unwrap());
        let err = simulate_point_with(aware, &accel, &shapes).expect_err("aware needs samples");
        assert!(matches!(err, SimError::UnsampledWeights { .. }), "{err}");
        assert_eq!(
            simulate_point_with(unaware, &accel, &shapes).unwrap(),
            simulate_point(unaware).unwrap()
        );
    }

    #[test]
    fn simulate_point_shared_matches_cold_simulation() {
        let store = ArtifactStore::shared(ArtifactBudget::default());
        let spec = SweepSpec::new("shared-point").with_wavelengths(vec![2]);
        let point = spec.expand().unwrap().remove(0);
        let cold = simulate_point(&point).unwrap();
        let first = simulate_point_shared(&store, &point).unwrap();
        assert_eq!(format!("{first}"), format!("{cold}"));
        let before = store.lock().unwrap().stats();
        assert_eq!(before.misses, 2);
        let second = simulate_point_shared(&store, &point).unwrap();
        assert_eq!(format!("{second}"), format!("{cold}"));
        let after = store.lock().unwrap().stats();
        assert_eq!(after.misses, before.misses, "second call was fully warm");
        assert_eq!(after.hits, before.hits + 2);
    }

    /// Collects records but fails every accept after the first
    /// `accepts_left`.
    struct DyingSink {
        inner: VecSink,
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
    }

    #[test]
    fn a_resume_with_one_shard_left_matches_the_uninterrupted_run() {
        // The first run persists shards 0 and 1 on the writer thread and
        // fails on its final shard 2 on the calling thread; the resume has
        // that one shard left, which persists on the calling thread.
        // Together they must emit the full run.
        let dir =
            std::env::temp_dir().join(format!("simphony-explore-one-left-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("sweep.ckpt");
        std::fs::remove_file(&ckpt).ok();
        let spec = SweepSpec::new("one-left")
            .with_wavelengths(vec![1, 2, 4])
            .with_bitwidth(vec![4, 8]);
        let reference = ExploreSession::new(&spec).run_collect().unwrap();

        // The sink dies on the first record of shard 2.
        let mut dying = DyingSink {
            inner: VecSink::new(),
            accepts_left: 4,
        };
        let err = ExploreSession::new(&spec)
            .chunk_size(2)
            .checkpoint(&ckpt)
            .sink(&mut dying)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("sink died"), "{err}");
        let (_, recorded) = Checkpoint::load(&ckpt).unwrap();
        assert_eq!(recorded.len(), 2, "shards 0 and 1 are durable");

        let mut sink = VecSink::new();
        let mut seen = Vec::new();
        let resumed = ExploreSession::new(&spec)
            .chunk_size(2)
            .checkpoint(&ckpt)
            .sink(&mut sink)
            .on_progress(|p| seen.push((p.shard, p.skipped, p.done)))
            .run()
            .unwrap();
        assert_eq!(resumed.skipped_points, 4);
        assert_eq!(resumed.stats, CacheStats { hits: 0, misses: 2 });
        assert_eq!(seen, vec![(0, 2, 2), (1, 2, 4), (2, 0, 6)]);
        let mut records = dying.inner.into_records();
        records.extend(sink.into_records());
        assert_eq!(records, reference.records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn accelerator_size_estimates_track_the_serialized_length() {
        // The store once charged an accelerator its JSON length; the
        // structural estimate (about 0.6 of it on an x86-64 host) must stay
        // within a fixed factor of that for every family and shape.
        for arch in ArchFamily::ALL {
            for dims in [4, 8] {
                for wavelengths in [1, 8] {
                    let spec = SweepSpec::new("sizes")
                        .with_arch(vec![arch])
                        .with_core_dims(vec![dims])
                        .with_wavelengths(vec![wavelengths]);
                    let accel = build_accelerator(&spec.point_at(0)).unwrap();
                    let json = serde_json::to_string(&accel).unwrap().len() as f64;
                    let ratio = accelerator_bytes(&accel) as f64 / json;
                    assert!(
                        (0.4..=1.0).contains(&ratio),
                        "{arch} at {dims}x{dims}, {wavelengths} wavelengths: {ratio}"
                    );
                }
            }
        }
    }
}
