//! The distributed-sweep coordinator: fans shards out to socket-fed worker
//! daemons and merges the results.
//!
//! `sweep --workers host:port,...` sends each worker shard *ranges* over the
//! `compute-shard` request (the coordinator expands the spec lazily and
//! never ships point lists), keeps one thread per worker address pumping a
//! shared shard queue, and feeds the landed parts, strictly in expansion
//! order, into [`merge_shard_source`] — the same shard bookkeeping the local
//! executor runs — so output is byte-identical to a local run at any worker
//! count.
//!
//! Fault handling works by deadline:
//!
//! * a shard outstanding past [`DistConfig::shard_deadline_ms`] is
//!   re-dispatched to whichever worker asks next (the original dispatch may
//!   still land — duplicate arrival is idempotent, first-landed wins, and
//!   the bytes are deterministic so it could not matter anyway);
//! * a worker whose connection breaks is reconnected transparently by
//!   [`Client`]'s retry policy (the `compute-shard` kind is idempotent);
//!   a worker that stays unreachable is dropped from the fleet and its
//!   in-flight shard re-queued;
//! * the sweep only fails when *every* worker is gone with shards still
//!   unassigned, or a worker rejects a request as a usage error (a
//!   misconfigured fleet, e.g. a worker whose `--max-points` is below the
//!   shard size — no amount of re-dispatch fixes that).
//!
//! The worker list is fixed for the whole sweep: a process cannot join a
//! sweep that is already running.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use serde_json::Value;
use simphony_explore::{
    effective_shard_size, merge_shard_source, Checkpoint, ErrorPolicy, ExploreError, RecordSink,
    Result, RetryPolicy, ShardCheckpoint, ShardProgress, StreamOptions, StreamOutcome, SweepRecord,
    SweepSpec,
};

use crate::protocol;
use crate::server::Client;

/// Default [`DistConfig::shard_deadline_ms`]: generous against stragglers
/// (shards here compute in milliseconds) while still re-dispatching work
/// from a hung worker within interactive patience.
pub const DEFAULT_SHARD_DEADLINE_MS: u64 = 10_000;

/// Fleet-level tuning of a distributed sweep. Sweep-level options (chunk
/// size, error policy, sink retry) stay in [`StreamOptions`], exactly like
/// every other execution path.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Worker daemon addresses (`host:port`), one coordinator thread each.
    pub workers: Vec<String>,
    /// A shard dispatched longer ago than this is presumed lost and
    /// re-dispatched. Doubles as the per-request socket read timeout, so a
    /// worker slower than the deadline is treated as dead — size it to
    /// comfortably cover one shard's compute time.
    pub shard_deadline_ms: u64,
    /// Reconnect schedule for worker connections (initial connect included).
    pub retry: RetryPolicy,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            workers: Vec::new(),
            shard_deadline_ms: DEFAULT_SHARD_DEADLINE_MS,
            retry: RetryPolicy::new(3),
        }
    }
}

/// What the fleet knows, under one lock: the undispatched queue, in-flight
/// deadlines, landed parts, and the fleet's health.
struct Fleet {
    /// Shards not currently dispatched to any worker.
    queue: BTreeSet<usize>,
    /// Dispatched shards and when their deadline expires.
    outstanding: HashMap<usize, Instant>,
    /// Landed parts awaiting merge. First landed wins; duplicates from
    /// re-dispatch races are dropped (their bytes are identical anyway).
    parts: HashMap<usize, (ShardCheckpoint, Vec<SweepRecord>)>,
    /// Shards below this index are merged; late duplicates of them are
    /// dropped rather than accumulated.
    merged_below: usize,
    /// Worker threads still pumping.
    live_workers: usize,
    /// Set when the sweep cannot complete; every waiter bails out.
    failed: Option<String>,
    /// Set by the merge loop when it exits (success or error): workers
    /// stop taking new shards.
    done: bool,
}

struct FleetState {
    inner: Mutex<Fleet>,
    wakeup: Condvar,
}

impl FleetState {
    fn new(shards: std::ops::Range<usize>, workers: usize) -> FleetState {
        FleetState {
            inner: Mutex::new(Fleet {
                queue: shards.collect(),
                outstanding: HashMap::new(),
                parts: HashMap::new(),
                merged_below: 0,
                live_workers: workers,
                failed: None,
                done: false,
            }),
            wakeup: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Fleet> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blocks until there is a shard for this worker (queued, or outstanding
    /// past its deadline and due for re-dispatch), or until the fleet is
    /// finished/failed (`None`: the worker thread exits).
    fn take_shard(&self, deadline: Duration) -> Option<usize> {
        let mut fleet = self.lock();
        loop {
            if fleet.done || fleet.failed.is_some() {
                return None;
            }
            if let Some(&shard) = fleet.queue.iter().next() {
                fleet.queue.remove(&shard);
                fleet.outstanding.insert(shard, Instant::now() + deadline);
                return Some(shard);
            }
            let now = Instant::now();
            let overdue = fleet
                .outstanding
                .iter()
                .filter(|&(_, &expiry)| expiry <= now)
                .map(|(&shard, _)| shard)
                .min();
            if let Some(shard) = overdue {
                fleet.outstanding.insert(shard, now + deadline);
                return Some(shard);
            }
            if fleet.outstanding.is_empty() {
                // Nothing queued, nothing in flight: every shard has landed
                // (or merged); this worker is no longer needed.
                return None;
            }
            // Sleep until a part lands, the fleet fails, or the nearest
            // outstanding deadline expires and re-dispatch becomes possible.
            let wait = fleet
                .outstanding
                .values()
                .map(|expiry| expiry.saturating_duration_since(now))
                .min()
                .unwrap_or(deadline)
                .max(Duration::from_millis(1));
            fleet = self
                .wakeup
                .wait_timeout(fleet, wait)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Records a computed part. Duplicate arrivals (re-dispatch races) and
    /// parts for already-merged shards are dropped.
    fn land(&self, shard: usize, meta: ShardCheckpoint, records: Vec<SweepRecord>) {
        let mut fleet = self.lock();
        fleet.outstanding.remove(&shard);
        fleet.queue.remove(&shard);
        if shard >= fleet.merged_below && !fleet.parts.contains_key(&shard) {
            fleet.parts.insert(shard, (meta, records));
        }
        self.wakeup.notify_all();
    }

    /// Returns a failed dispatch to the queue (unless some other dispatch
    /// of it already landed).
    fn requeue(&self, shard: usize) {
        let mut fleet = self.lock();
        fleet.outstanding.remove(&shard);
        if shard >= fleet.merged_below && !fleet.parts.contains_key(&shard) {
            fleet.queue.insert(shard);
        }
        self.wakeup.notify_all();
    }

    /// A worker thread is giving up. If it was the last one and shards
    /// remain unlanded, the sweep cannot complete: fail it with the
    /// worker's final error as the explanation.
    fn worker_gone(&self, addr: &str, error: &ExploreError) {
        let mut fleet = self.lock();
        fleet.live_workers -= 1;
        if fleet.live_workers == 0
            && (!fleet.queue.is_empty() || !fleet.outstanding.is_empty())
            && fleet.failed.is_none()
        {
            fleet.failed = Some(format!(
                "every worker is gone with shards still unassigned; last worker \
                 (`{addr}`) failed with: {error}"
            ));
        }
        self.wakeup.notify_all();
    }

    /// An unrecoverable fleet error (usage rejection): no re-dispatch can
    /// help, so the whole sweep fails now.
    fn fail(&self, message: String) {
        let mut fleet = self.lock();
        if fleet.failed.is_none() {
            fleet.failed = Some(message);
        }
        self.wakeup.notify_all();
    }

    /// The merge loop is done (or dead): workers drain and exit.
    fn finish(&self) {
        let mut fleet = self.lock();
        fleet.done = true;
        self.wakeup.notify_all();
    }

    /// Blocks until the workers land shard `shard`, then hands its part to
    /// the merge loop; fails once the fleet cannot complete the sweep.
    fn next_part(
        &self,
        shard: usize,
        workers: &[String],
    ) -> Result<(ShardCheckpoint, Vec<SweepRecord>)> {
        let mut fleet = self.lock();
        loop {
            if let Some(part) = fleet.parts.remove(&shard) {
                fleet.merged_below = shard + 1;
                return Ok(part);
            }
            if let Some(reason) = fleet.failed.clone() {
                return Err(ExploreError::connection_lost(workers.join(","), reason));
            }
            fleet = self
                .wakeup
                .wait(fleet)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// How a worker's shard attempt failed.
enum ShardError {
    /// Transport-level or hard server error: the shard is re-queued and may
    /// succeed elsewhere.
    Transient(ExploreError),
    /// The worker rejected the request as a usage error: the fleet is
    /// misconfigured and re-dispatch cannot help.
    Fatal(String),
}

/// Parses a `compute-shard` response: the `part` frame's meta, then exactly
/// `meta.emitted` record lines, then a terminal summary (exit 0 or 3 —
/// recorded point failures are carried in the meta).
fn parse_part(
    addr: &str,
    shard: usize,
    lines: Vec<String>,
) -> std::result::Result<(ShardCheckpoint, Vec<SweepRecord>), ShardError> {
    let hard = |msg: String| ShardError::Transient(ExploreError::connection_lost(addr, msg));
    let Some((last, body)) = lines.split_last() else {
        return Err(hard("empty compute-shard response".to_string()));
    };
    if last.starts_with("{\"frame\":\"error\"") {
        let parsed: Value = serde_json::from_str(last).unwrap_or(Value::Null);
        let exit_code = parsed.get("exit_code").and_then(Value::as_u64);
        let message = parsed
            .get("message")
            .and_then(Value::as_str)
            .unwrap_or(last)
            .to_string();
        return Err(if exit_code == Some(u64::from(protocol::EXIT_USAGE)) {
            ShardError::Fatal(format!("worker `{addr}` rejected shard {shard}: {message}"))
        } else {
            hard(format!("worker error on shard {shard}: {message}"))
        });
    }
    let Some((head, records)) = body.split_first() else {
        return Err(hard(format!(
            "shard {shard} response carries no part frame"
        )));
    };
    if !head.starts_with("{\"frame\":\"part\"") {
        return Err(hard(format!(
            "shard {shard} response starts with {head:?}, not a part frame"
        )));
    }
    let meta: ShardCheckpoint = serde_json::from_str(head)
        .ok()
        .and_then(|frame: Value| frame.get("meta").cloned())
        .and_then(|meta| serde_json::from_value(&meta).ok())
        .ok_or_else(|| hard(format!("shard {shard} part frame carries unreadable meta")))?;
    if meta.shard != shard {
        return Err(hard(format!(
            "worker `{addr}` answered shard {shard} with shard {} metadata",
            meta.shard
        )));
    }
    let mut parsed = Vec::with_capacity(records.len());
    for line in records {
        match serde_json::from_str(line) {
            Ok(record) => parsed.push(record),
            Err(e) => return Err(hard(format!("bad record line in shard {shard}: {e}"))),
        }
    }
    if parsed.len() != meta.emitted {
        return Err(hard(format!(
            "shard {shard} streamed {} records but its meta promises {}",
            parsed.len(),
            meta.emitted
        )));
    }
    Ok((meta, parsed))
}

/// One worker thread: connect (on the retry schedule), then pump shards
/// until the fleet is drained, failed, or this worker's connection is
/// unrecoverable.
fn worker_loop(
    state: &FleetState,
    addr: &str,
    spec_json: &str,
    shard_size: usize,
    total: usize,
    config: &DistConfig,
) {
    let timeout = Duration::from_millis(config.shard_deadline_ms.max(1));
    let mut client = match connect_with_retry(addr, timeout, config.retry) {
        Ok(client) => client,
        Err(e) => return state.worker_gone(addr, &e),
    };
    let deadline = timeout;
    while let Some(shard) = state.take_shard(deadline) {
        let start = shard * shard_size;
        let end = (start + shard_size).min(total);
        let request = format!(
            "{{\"kind\":\"compute-shard\",\"spec\":{spec_json},\"shard\":{shard},\
             \"start\":{start},\"end\":{end}}}"
        );
        // `compute-shard` is idempotent, so a broken pipe here reconnects
        // and replays inside Client::send_bounded. The response is a part
        // frame, at most one record per point and a summary; a worker that
        // sends more lines is retired like one that sends a malformed part.
        match client
            .send_bounded(&request, end - start + 2)
            .map_err(ShardError::Transient)
            .and_then(|lines| parse_part(addr, shard, lines))
        {
            Ok((meta, records)) => state.land(shard, meta, records),
            Err(ShardError::Fatal(message)) => return state.fail(message),
            Err(ShardError::Transient(error)) => {
                // Give the shard back and retire this worker; surviving
                // workers absorb the queue. If it was the last one, the
                // sweep fails with this error.
                state.requeue(shard);
                return state.worker_gone(addr, &error);
            }
        }
    }
    state.lock().live_workers -= 1;
}

fn connect_with_retry(addr: &str, timeout: Duration, retry: RetryPolicy) -> Result<Client> {
    let mut last = match Client::connect(addr, timeout) {
        Ok(client) => return Ok(client.reconnect_policy(retry)),
        Err(e) => e,
    };
    for sleep_ms in retry.schedule() {
        if sleep_ms > 0 {
            std::thread::sleep(Duration::from_millis(sleep_ms));
        }
        match Client::connect(addr, timeout) {
            Ok(client) => return Ok(client.reconnect_policy(retry)),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Runs `spec` across a fleet of worker daemons and merges the results into
/// `sink`, byte-identical to a local run: shard geometry from
/// [`effective_shard_size`], parts merged strictly in expansion order by
/// [`merge_shard_source`], checkpoints and progress exactly like every other
/// execution path. See the module docs for the fault model.
///
/// # Errors
///
/// Refuses an empty worker list and non-`KeepGoing` policies; fails when the
/// whole fleet dies with shards unassigned or a worker rejects its request
/// as a usage error; propagates spec/sink/checkpoint errors.
pub fn distribute_sweep(
    spec: &SweepSpec,
    options: &StreamOptions,
    config: &DistConfig,
    sink: &mut dyn RecordSink,
    progress: &mut dyn FnMut(&ShardProgress),
    checkpoint: Option<&mut Checkpoint>,
) -> Result<StreamOutcome> {
    spec.validate()?;
    if config.workers.is_empty() {
        return Err(ExploreError::invalid_spec(
            "a distributed sweep needs at least one worker address (--workers host:port,...)",
        ));
    }
    if options.error_policy != ErrorPolicy::KeepGoing {
        return Err(ExploreError::invalid_spec(
            "distributed sweeps require ErrorPolicy::KeepGoing: a fail-fast abort cannot \
             be propagated to remote workers, so the combination is refused rather than \
             half-honoured (add .keep_going() / --keep-going)",
        ));
    }
    let total = spec.point_count()?;
    let shard_size = effective_shard_size(options, total);
    let shards = total.div_ceil(shard_size);
    let completed = checkpoint
        .as_ref()
        .map_or(0, |c| c.completed().len())
        .min(shards);
    let spec_json = serde_json::to_string(spec)?;

    let state = FleetState::new(completed..shards, config.workers.len());
    std::thread::scope(|scope| {
        for addr in &config.workers {
            let state = &state;
            let spec_json = &spec_json;
            scope.spawn(move || worker_loop(state, addr, spec_json, shard_size, total, config));
        }
        let outcome = merge_shard_source(spec, options, sink, progress, checkpoint, &mut |shard| {
            state.next_part(shard, &config.workers)
        });
        // Merged (or failed): release any workers still waiting for work so
        // the scope can join.
        state.finish();
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simphony_explore::{compute_shard_part, ArtifactStore};

    fn spec() -> SweepSpec {
        SweepSpec::new("dist-parse").with_wavelengths(vec![1, 2, 4, 8])
    }

    /// The lines a worker answers for shard `shard` of `spec`, at two points
    /// per shard.
    fn response(spec: &SweepSpec, shard: usize) -> Vec<String> {
        let artifacts = Mutex::new(ArtifactStore::default());
        let points = shard * 2..shard * 2 + 2;
        let part = compute_shard_part(spec, None, RetryPolicy::none(), shard, points, &artifacts)
            .expect("shard computes");
        let meta = serde_json::to_string(&part.meta).expect("meta serializes");
        let mut lines = vec![protocol::part_frame(&meta)];
        lines.extend(part.body.lines().map(str::to_string));
        lines.push(protocol::compute_shard_summary_frame(
            shard,
            part.meta.emitted,
            part.meta.failures.len(),
        ));
        lines
    }

    /// The message of a transient shard error; panics on anything else.
    fn transient(
        result: std::result::Result<(ShardCheckpoint, Vec<SweepRecord>), ShardError>,
    ) -> String {
        match result {
            Err(ShardError::Transient(e)) => e.to_string(),
            Err(ShardError::Fatal(message)) => panic!("expected a transient error: {message}"),
            Ok((meta, _)) => panic!("expected a transient error, got shard {}", meta.shard),
        }
    }

    fn meta(shard: usize) -> ShardCheckpoint {
        ShardCheckpoint {
            shard,
            points: 1,
            hits: 0,
            misses: 1,
            emitted: 0,
            failures: Vec::new(),
            cache_degraded: 0,
        }
    }

    #[test]
    fn a_part_response_parses_into_its_meta_and_records() {
        let spec = spec();
        let Ok((meta, records)) = parse_part("w:1", 1, response(&spec, 1)) else {
            panic!("a well-formed part parses");
        };
        assert_eq!((meta.shard, meta.points, meta.emitted), (1, 2, 2));
        let direct = simphony_explore::ExploreSession::new(&spec)
            .run_collect()
            .expect("sweep runs");
        assert_eq!(records.as_slice(), &direct.records[2..4]);
    }

    #[test]
    fn usage_rejections_are_fatal_and_other_error_frames_transient() {
        let usage = vec![protocol::error_frame(
            protocol::EXIT_USAGE,
            "shard exceeds --max-points",
        )];
        match parse_part("w:1", 3, usage) {
            Err(ShardError::Fatal(message)) => {
                assert!(
                    message.contains("worker `w:1` rejected shard 3"),
                    "{message}"
                );
                assert!(message.contains("--max-points"), "{message}");
            }
            _ => panic!("a usage rejection is fatal"),
        }
        let hard = vec![protocol::error_frame(protocol::EXIT_HARD, "disk full")];
        let message = transient(parse_part("w:1", 3, hard));
        assert!(
            message.contains("worker error on shard 3: disk full"),
            "{message}"
        );
    }

    #[test]
    fn malformed_part_responses_are_transient_errors() {
        let spec = spec();
        let good = response(&spec, 1);
        let summary = good.last().expect("summary").clone();
        let cases: Vec<(Vec<String>, &str)> = vec![
            (Vec::new(), "empty compute-shard response"),
            (vec![summary.clone()], "carries no part frame"),
            (good[1..].to_vec(), "not a part frame"),
            (
                vec!["{\"frame\":\"part\"}".to_string(), summary.clone()],
                "unreadable meta",
            ),
            (
                vec![protocol::part_frame("\"not a meta\""), summary.clone()],
                "unreadable meta",
            ),
            (response(&spec, 0), "answered shard 1 with shard 0 metadata"),
            (
                [&good[..2], &good[3..]].concat(),
                "streamed 1 records but its meta promises 2",
            ),
            (
                [&good[..2], &["{\"energy_uj\":".to_string()], &good[3..]].concat(),
                "bad record line in shard 1",
            ),
        ];
        for (lines, needle) in cases {
            let message = transient(parse_part("w:1", 1, lines));
            assert!(message.contains(needle), "missing `{needle}` in: {message}");
        }
    }

    #[test]
    fn deeply_nested_part_lines_are_transient_errors() {
        let spec = spec();
        let mut lines = response(&spec, 1);
        lines[0] = protocol::part_frame(&"[".repeat(100_000));
        let message = transient(parse_part("w:1", 1, lines));
        assert!(message.contains("unreadable meta"), "{message}");

        let mut lines = response(&spec, 1);
        lines[1] = "[".repeat(100_000);
        let message = transient(parse_part("w:1", 1, lines));
        assert!(
            message.contains("nesting deeper than 128 levels"),
            "{message}"
        );
    }

    #[test]
    fn duplicate_and_late_parts_are_dropped() {
        let workers = ["w:1".to_string()];
        let state = FleetState::new(0..2, 1);
        assert_eq!(state.take_shard(Duration::from_secs(60)), Some(0));
        // Mark the first arrival so the two can be told apart.
        let mut first = meta(0);
        first.hits = 1;
        state.land(0, first.clone(), Vec::new());
        state.land(0, meta(0), Vec::new());
        let (merged, _) = state.next_part(0, &workers).expect("shard 0 landed");
        assert_eq!(merged, first, "first landed wins");
        // A late re-dispatch of the merged shard, landing or failing, leaves
        // no trace.
        state.land(0, meta(0), Vec::new());
        state.requeue(0);
        let fleet = state.lock();
        assert!(fleet.parts.is_empty());
        assert_eq!(fleet.queue, BTreeSet::from([1]));
    }

    #[test]
    fn an_overdue_shard_is_redispatched_until_it_lands() {
        let state = FleetState::new(0..1, 2);
        // Dispatched with a zero deadline: overdue at once.
        assert_eq!(state.take_shard(Duration::ZERO), Some(0));
        assert_eq!(
            state.take_shard(Duration::from_secs(60)),
            Some(0),
            "re-dispatched"
        );
        state.land(0, meta(0), Vec::new());
        // Nothing queued or in flight: the next taker is released.
        assert_eq!(state.take_shard(Duration::from_secs(60)), None);
    }

    #[test]
    fn the_last_worker_leaving_with_shards_unlanded_fails_the_merge() {
        let workers = ["w:1".to_string(), "w:2".to_string()];
        let lost = ExploreError::connection_lost("w:2", "connection refused");
        let state = FleetState::new(0..2, 2);
        state.worker_gone("w:1", &lost);
        assert!(state.lock().failed.is_none(), "one worker still pumps");
        state.worker_gone("w:2", &lost);
        let err = state.next_part(0, &workers).unwrap_err().to_string();
        assert!(err.contains("every worker is gone"), "{err}");
        assert!(err.contains("(`w:2`) failed with"), "{err}");
        assert_eq!(state.take_shard(Duration::from_secs(60)), None);

        // Once every shard has landed, losing the fleet is harmless.
        let state = FleetState::new(0..1, 1);
        assert_eq!(state.take_shard(Duration::from_secs(60)), Some(0));
        state.land(0, meta(0), Vec::new());
        state.worker_gone("w:1", &lost);
        assert!(state.next_part(0, &workers).is_ok());
    }
}
