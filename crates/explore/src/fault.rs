//! Deterministic fault injection for the durability chain.
//!
//! A [`FaultPlan`] is a small, serializable chaos script: a seed, an optional
//! per-operation transient-error rate, and a list of faults pinned to exact
//! *operation indices*. Wrapping a [`CacheBackend`] in a [`FaultyCache`] and a
//! [`RecordSink`] in a [`FaultySink`] makes the plan fire as the sweep's
//! durability chain executes — the chaos harness the worker fleet, the
//! retry policy and the checkpoint invariant are tested against (and the
//! engine behind the CLI's `--fault-plan` flag, used by the chaos smoke
//! tests).
//!
//! **What counts as an operation.** Only the *sequential* write side is
//! counted, one shared counter across both wrappers: cache `put` /
//! `put_serialized` / `flush`, and sink `accept` (or `accept_rendered`, the
//! same op) / `flush_shard` / `sync` / `finish`. Reads (`get`, `get_batch`,
//! `get_batch_keyed`, `len`, `stats`, `scan`) pass through
//! uncounted — batch lookups run on the thread pool, and counting them would
//! make op indices racy. Because every counted call sits on the executor's
//! single-threaded drain path, a given sweep hits a given plan's op indices
//! identically on every run: chaos runs are replayable.
//!
//! Fault kinds:
//!
//! * [`FaultKind::TransientError`] — the operation fails once with an
//!   injected I/O error (the retried call draws a *new* op index, so a
//!   one-shot fault exercises exactly one retry);
//! * [`FaultKind::ShortWrite`] — a cache `put` writes a torn (truncated)
//!   entry *and reports success*, simulating a write that was acknowledged
//!   but never fully reached the platter; the read path must degrade it to a
//!   miss. On sites that have no byte stream to tear (a record-level sink
//!   call), it degrades to a transient error;
//! * [`FaultKind::Latency`] — the operation sleeps before proceeding;
//! * [`FaultKind::Abort`] — the process dies on the spot via
//!   [`std::process::abort`], the hook crash-recovery tests use to kill real
//!   child workers mid-shard at a reproducible point.
//!
//! The `seed` drives the rate-based transient errors: each op index draws
//! from its own [`SplitMix64`] stream keyed on `seed ^ op`, so whether op N
//! fails is a pure function of the plan — independent of how many ops came
//! before it in *other* runs.
//!
//! **Rate faults only strike retryable sites.** Rate-based transient errors
//! model flaky flush-path I/O, so they fire only on the ops the
//! [`RetryPolicy`](crate::RetryPolicy) covers: cache `put` / `flush` and sink
//! `flush_shard` / `sync`. Sink `accept` and `finish` consume their input and
//! are deliberately never retried, so the rate skips them — a sufficient
//! retry budget can therefore ride out *any* rate below 1.0. Faults pinned to
//! exact op indices still fire everywhere, including accepts.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use simphony_onn::SplitMix64;

use crate::cache::{content_key, BackendStats, CacheBackend};
use crate::error::{ExploreError, Result};
use crate::record::SweepRecord;
use crate::sink::RecordSink;
use crate::spec::SweepPoint;

/// One fault pinned to an exact operation index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedFault {
    /// Zero-based index of the counted operation this fault fires at.
    pub op: u64,
    /// What happens there.
    pub kind: FaultKind,
}

/// What an injected fault does to its operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Fail the operation once with an injected I/O error.
    TransientError,
    /// Tear the write: persist a truncated payload but report success
    /// (cache puts only; elsewhere degrades to
    /// [`TransientError`](FaultKind::TransientError) semantics).
    ShortWrite,
    /// Sleep before the operation proceeds (a latency spike).
    Latency {
        /// Sleep duration in milliseconds.
        ms: u64,
    },
    /// Kill the process immediately ([`std::process::abort`]) — for
    /// crash-recovery tests that need a worker to die mid-shard at a
    /// reproducible operation.
    Abort,
}

/// A seeded, serializable chaos script (see the module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the rate-based transient-error draws.
    pub seed: u64,
    /// Probability (0.0–1.0) that a retry-eligible counted op (cache
    /// `put`/`flush`, sink `flush_shard`/`sync`) fails with a transient
    /// error, drawn deterministically per op index. Sink `accept`/`finish`
    /// are exempt (see the module docs).
    pub transient_error_rate: f64,
    /// Faults pinned to exact op indices, on top of the rate.
    pub faults: Vec<PlannedFault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new(0)
    }
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            transient_error_rate: 0.0,
            faults: Vec::new(),
        }
    }

    /// Sets the per-op transient-error probability.
    #[must_use]
    pub fn transient_error_rate(mut self, rate: f64) -> Self {
        self.transient_error_rate = rate;
        self
    }

    /// Adds a fault at an exact op index.
    #[must_use]
    pub fn with_fault(mut self, op: u64, kind: FaultKind) -> Self {
        self.faults.push(PlannedFault { op, kind });
        self
    }

    /// Loads a plan from a JSON file (the CLI's `--fault-plan`).
    ///
    /// # Errors
    ///
    /// Propagates I/O and JSON errors, and rejects an out-of-range rate.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| ExploreError::io_at(path, e))?;
        let plan: FaultPlan = serde_json::from_str(&text)?;
        plan.validate()?;
        Ok(plan)
    }

    /// Checks the plan is well-formed.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidSpec`] on a rate outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.transient_error_rate) {
            return Err(ExploreError::invalid_spec(format!(
                "fault plan transient_error_rate {} is outside [0, 1]",
                self.transient_error_rate
            )));
        }
        Ok(())
    }

    /// The fault pinned to op index `op`, if any (rate draws excluded).
    pub fn pinned_at(&self, op: u64) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.op == op)
            .map(|f| f.kind.clone())
    }

    /// The fault (if any) that fires at op index `op` on a rate-eligible
    /// site: the first pinned fault with that index, else a rate-based
    /// transient error drawn from the seeded stream.
    pub fn fault_at(&self, op: u64) -> Option<FaultKind> {
        if let Some(kind) = self.pinned_at(op) {
            return Some(kind);
        }
        if self.transient_error_rate > 0.0 {
            let mut rng = SplitMix64::new(self.seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if rng.next_f64() < self.transient_error_rate {
                return Some(FaultKind::TransientError);
            }
        }
        None
    }
}

/// The shared execution state of one [`FaultPlan`]: the plan plus the op
/// counter both wrappers advance. Clone the `Arc` into a [`FaultyCache`] and
/// a [`FaultySink`] so cache and sink ops share one index space, exactly as
/// the module docs describe.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    counter: AtomicU64,
}

/// What a call site should do after consulting the injector.
#[derive(Debug)]
enum Injected {
    /// Proceed normally.
    None,
    /// Tear the payload, then report success (cache puts only).
    Short,
}

impl FaultInjector {
    /// Wraps a plan in shared execution state.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Arc::new(Self {
            plan,
            counter: AtomicU64::new(0),
        })
    }

    /// Ops counted so far.
    pub fn ops(&self) -> u64 {
        self.counter.load(Ordering::SeqCst)
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draws the next op index and applies its fault, if any. Latency sleeps
    /// inline; aborts never return; transient errors surface as `Err`; a
    /// short write returns `Ok(Injected::Short)` for the caller to tear.
    /// `rate_eligible` is false on sites the retry policy cannot cover
    /// (sink `accept`/`finish`): pinned faults still fire there, rate draws
    /// do not (see the module docs).
    fn next(&self, site: &'static str, rate_eligible: bool) -> Result<Injected> {
        let op = self.counter.fetch_add(1, Ordering::SeqCst);
        let fault = if rate_eligible {
            self.plan.fault_at(op)
        } else {
            self.plan.pinned_at(op)
        };
        match fault {
            None => Ok(Injected::None),
            Some(FaultKind::Latency { ms }) => {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(Injected::None)
            }
            Some(FaultKind::ShortWrite) => Ok(Injected::Short),
            Some(FaultKind::TransientError) => Err(injected_error(site, op)),
            Some(FaultKind::Abort) => {
                eprintln!("fault injection: aborting process at op {op} ({site})");
                std::process::abort();
            }
        }
    }
}

fn injected_error(site: &'static str, op: u64) -> ExploreError {
    ExploreError::Io {
        path: None,
        source: std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            format!("injected transient I/O error at op {op} ({site})"),
        ),
    }
}

/// A [`CacheBackend`] wrapper that injects the plan's faults into the write
/// side (reads pass through uncounted; see the module docs).
pub struct FaultyCache<'a> {
    inner: Box<dyn CacheBackend + 'a>,
    injector: Arc<FaultInjector>,
}

impl<'a> FaultyCache<'a> {
    /// Wraps `inner`, injecting faults from `injector`.
    pub fn new(inner: Box<dyn CacheBackend + 'a>, injector: Arc<FaultInjector>) -> Self {
        Self { inner, injector }
    }
}

impl CacheBackend for FaultyCache<'_> {
    fn get(&self, point: &SweepPoint) -> Option<SweepRecord> {
        self.inner.get(point)
    }

    fn get_batch(&self, points: &[&SweepPoint]) -> Vec<Option<SweepRecord>> {
        self.inner.get_batch(points)
    }

    fn get_batch_keyed(&self, points: &[&SweepPoint], keys: &[String]) -> Vec<Option<SweepRecord>> {
        self.inner.get_batch_keyed(points, keys)
    }

    fn put(&self, record: &SweepRecord) -> Result<()> {
        match self.injector.next("cache put", true)? {
            Injected::None => self.inner.put(record),
            Injected::Short => {
                let key = content_key(&record.point);
                let json = serde_json::to_string(record)?;
                let torn = &json[..json.len() / 2];
                self.inner.put_serialized(&key, torn, record)
            }
        }
    }

    fn put_serialized(&self, key: &str, json: &str, record: &SweepRecord) -> Result<()> {
        match self.injector.next("cache put", true)? {
            Injected::None => self.inner.put_serialized(key, json, record),
            // Torn write acknowledged as success: exactly half the payload
            // reaches storage. The read path's verify-on-get contract must
            // degrade this entry to a miss.
            Injected::Short => self
                .inner
                .put_serialized(key, &json[..json.len() / 2], record),
        }
    }

    fn len(&self) -> Result<usize> {
        self.inner.len()
    }

    fn stats(&self) -> Result<BackendStats> {
        self.inner.stats()
    }

    fn flush(&self) -> Result<()> {
        // A short write has no meaning at flush granularity; proceed.
        self.injector.next("cache flush", true)?;
        self.inner.flush()
    }

    fn scan(&self, visit: &mut dyn FnMut(String, SweepRecord) -> Result<()>) -> Result<()> {
        self.inner.scan(visit)
    }
}

/// A [`RecordSink`] wrapper that injects the plan's faults into `accept`,
/// `flush_shard`, `sync` and `finish`. Injected errors fire *before* the
/// record reaches the inner sink, so a retried `accept` never duplicates
/// output.
pub struct FaultySink<'a, R = SweepRecord> {
    inner: &'a mut dyn RecordSink<R>,
    injector: Arc<FaultInjector>,
}

impl<'a, R> FaultySink<'a, R> {
    /// Wraps `inner`, injecting faults from `injector`.
    pub fn new(inner: &'a mut dyn RecordSink<R>, injector: Arc<FaultInjector>) -> Self {
        Self { inner, injector }
    }
}

impl<R> RecordSink<R> for FaultySink<'_, R> {
    fn accept(&mut self, record: R) -> Result<()> {
        self.injector.next("sink accept", false)?;
        self.inner.accept(record)
    }

    fn accept_rendered(&mut self, record: R, json: &str) -> Result<()> {
        self.injector.next("sink accept", false)?;
        self.inner.accept_rendered(record, json)
    }

    fn flush_shard(&mut self) -> Result<()> {
        self.injector.next("sink flush", true)?;
        self.inner.flush_shard()
    }

    fn sync(&mut self) -> Result<()> {
        self.injector.next("sink sync", true)?;
        self.inner.sync()
    }

    fn finish(&mut self) -> Result<()> {
        self.injector.next("sink finish", false)?;
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_round_trip_through_json() {
        let plan = FaultPlan::new(7)
            .transient_error_rate(0.25)
            .with_fault(3, FaultKind::ShortWrite)
            .with_fault(9, FaultKind::Latency { ms: 50 })
            .with_fault(12, FaultKind::Abort)
            .with_fault(1, FaultKind::TransientError);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn a_deeply_nested_plan_file_is_an_error() {
        let path = std::env::temp_dir().join(format!(
            "simphony-fault-deep-plan-{}.json",
            std::process::id()
        ));
        std::fs::write(&path, "{\"seed\":".to_string() + &"[".repeat(200_000)).unwrap();
        let err = FaultPlan::load(&path).unwrap_err();
        assert!(
            err.to_string().contains("nesting deeper than 128 levels"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_rates_are_rejected() {
        assert!(FaultPlan::new(0)
            .transient_error_rate(1.5)
            .validate()
            .is_err());
        assert!(FaultPlan::new(0)
            .transient_error_rate(-0.1)
            .validate()
            .is_err());
        assert!(FaultPlan::new(0)
            .transient_error_rate(1.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn pinned_faults_fire_at_their_exact_op() {
        let plan = FaultPlan::new(0).with_fault(2, FaultKind::TransientError);
        assert_eq!(plan.fault_at(0), None);
        assert_eq!(plan.fault_at(1), None);
        assert_eq!(plan.fault_at(2), Some(FaultKind::TransientError));
        assert_eq!(plan.fault_at(3), None);
    }

    #[test]
    fn rate_draws_are_deterministic_per_op_index() {
        let plan = FaultPlan::new(42).transient_error_rate(0.5);
        let first: Vec<bool> = (0..64).map(|op| plan.fault_at(op).is_some()).collect();
        let second: Vec<bool> = (0..64).map(|op| plan.fault_at(op).is_some()).collect();
        assert_eq!(first, second, "same plan, same chaos");
        let hits = first.iter().filter(|&&b| b).count();
        assert!(
            (16..=48).contains(&hits),
            "rate 0.5 over 64 ops fired {hits} times"
        );
        let reseeded = FaultPlan::new(43).transient_error_rate(0.5);
        let other: Vec<bool> = (0..64).map(|op| reseeded.fault_at(op).is_some()).collect();
        assert_ne!(first, other, "different seed, different chaos");
    }

    #[test]
    fn the_injector_counts_ops_and_surfaces_transient_errors() {
        let plan = FaultPlan::new(0).with_fault(1, FaultKind::TransientError);
        let injector = FaultInjector::new(plan);
        assert!(matches!(injector.next("t", true), Ok(Injected::None)));
        let err = injector.next("t", true).unwrap_err();
        assert!(err.to_string().contains("injected transient I/O error"));
        assert!(matches!(injector.next("t", true), Ok(Injected::None)));
        assert_eq!(injector.ops(), 3);
    }

    #[test]
    fn rate_draws_skip_unretryable_sites_but_pinned_faults_do_not() {
        // A 100% rate: every eligible op fails, yet an accept-like site only
        // fails where a fault is pinned to it.
        let plan = FaultPlan::new(9)
            .transient_error_rate(1.0)
            .with_fault(2, FaultKind::TransientError);
        let injector = FaultInjector::new(plan);
        assert!(injector.next("sink flush", true).is_err(), "op 0: rate");
        assert!(matches!(
            injector.next("sink accept", false),
            Ok(Injected::None)
        ));
        assert!(injector.next("sink accept", false).is_err(), "op 2: pinned");
        assert!(matches!(
            injector.next("sink accept", false),
            Ok(Injected::None)
        ));
    }
}
