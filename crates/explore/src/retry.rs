//! Retry with exponential backoff and decorrelated jitter for the
//! durability chain.
//!
//! Storage I/O on the sweep's hot path — cache `put`/`flush` and sink
//! flushes — can fail transiently (NFS hiccups, overloaded disks, the fault
//! layer's injected errors). A [`RetryPolicy`] re-attempts such operations
//! with exponentially growing, jittered sleeps, capped both per attempt and
//! by a total sleep budget, so a fleet of workers never synchronizes into a
//! thundering herd against shared storage.
//!
//! The default policy is [`RetryPolicy::none`]: one attempt, no sleeping, no
//! behaviour change — retries are strictly opt-in
//! ([`ExploreSession::retry`](crate::ExploreSession::retry), `--retries` on
//! the CLI). The clean path through [`RetryPolicy::run`] is a single closure
//! call plus one branch, so enabling retries costs nothing until an
//! operation actually fails (the `retry_overhead_clean_ms` field of
//! `BENCH_sweep.json` keeps this honest).
//!
//! Jitter follows the *decorrelated jitter* scheme: each sleep is drawn
//! uniformly from `[base, 3 * previous_sleep]`, clamped to
//! [`max_delay_ms`](RetryPolicy::max_delay_ms). The draw comes from the
//! workspace's seeded [`SplitMix64`] generator, so a given policy produces a
//! reproducible backoff schedule — chaos tests assert on timing-free
//! outcomes, never on wall clocks.

use std::time::Duration;

use simphony_onn::SplitMix64;

use crate::error::Result;

/// Budget-capped exponential backoff with decorrelated jitter.
///
/// `Copy` on purpose: a policy is five integers, carried by value into the
/// executor's writer thread alongside the rest of
/// [`StreamOptions`](crate::StreamOptions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Lower bound of every jittered sleep, in milliseconds.
    pub base_delay_ms: u64,
    /// Upper clamp of a single sleep, in milliseconds.
    pub max_delay_ms: u64,
    /// Cap on the *cumulative* sleep across one operation's retries, in
    /// milliseconds; once the budget is spent the last error is returned even
    /// if attempts remain.
    pub total_budget_ms: u64,
    /// Seed of the jitter stream (schedules are reproducible per policy).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

impl RetryPolicy {
    /// No retries: every operation gets exactly one attempt. The engine
    /// default.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_delay_ms: 0,
            max_delay_ms: 0,
            total_budget_ms: 0,
            seed: 0,
        }
    }

    /// A sensible transient-fault policy: `max_attempts` total attempts,
    /// 10 ms base delay, 1 s per-sleep clamp, 10 s total budget.
    pub fn new(max_attempts: u32) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            base_delay_ms: 10,
            max_delay_ms: 1_000,
            total_budget_ms: 10_000,
            seed: 0x5EED_BACC,
        }
    }

    /// Sets the base (minimum) per-sleep delay.
    #[must_use]
    pub fn base_delay_ms(mut self, ms: u64) -> Self {
        self.base_delay_ms = ms;
        self
    }

    /// Sets the per-sleep clamp.
    #[must_use]
    pub fn max_delay_ms(mut self, ms: u64) -> Self {
        self.max_delay_ms = ms;
        self
    }

    /// Sets the cumulative sleep budget.
    #[must_use]
    pub fn total_budget_ms(mut self, ms: u64) -> Self {
        self.total_budget_ms = ms;
        self
    }

    /// Sets the jitter seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether this policy ever retries.
    pub fn retries(&self) -> bool {
        self.max_attempts > 1
    }

    /// The deterministic sleep schedule this policy would follow if every
    /// attempt failed: one entry per *retry* (so `max_attempts - 1` entries at
    /// most, fewer when the budget runs out first).
    pub fn schedule(&self) -> Vec<u64> {
        let mut rng = SplitMix64::new(self.seed);
        let mut slept = 0u64;
        let mut prev = self.base_delay_ms;
        let mut out = Vec::new();
        for _ in 1..self.max_attempts {
            let sleep = Self::next_sleep(&mut rng, self.base_delay_ms, self.max_delay_ms, prev);
            if slept.saturating_add(sleep) > self.total_budget_ms {
                break;
            }
            slept += sleep;
            prev = sleep.max(1);
            out.push(sleep);
        }
        out
    }

    /// One decorrelated-jitter draw: uniform in `[base, 3 * prev]`, clamped
    /// to `max`.
    fn next_sleep(rng: &mut SplitMix64, base: u64, max: u64, prev: u64) -> u64 {
        let hi = prev.saturating_mul(3).max(base.max(1));
        let span = hi - base + 1;
        (base + rng.next_u64() % span).min(max)
    }

    /// Runs `op`, retrying failures on this policy's schedule. Returns the
    /// first success, or the last error once attempts or the sleep budget are
    /// exhausted.
    ///
    /// The no-retry fast path ([`RetryPolicy::none`]) is a plain call.
    ///
    /// # Errors
    ///
    /// The final attempt's error, when every attempt failed.
    pub fn run<T>(&self, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        self.run_counted(&mut op).0
    }

    /// As [`run`](Self::run), also reporting how many attempts were made
    /// (1 = first try succeeded). Used by the executor to count degraded
    /// operations and by tests.
    pub fn run_counted<T>(&self, op: &mut dyn FnMut() -> Result<T>) -> (Result<T>, u32) {
        let mut attempts = 1u32;
        let mut result = op();
        if result.is_ok() || self.max_attempts <= 1 {
            return (result, attempts);
        }
        let mut rng = SplitMix64::new(self.seed);
        let mut slept = 0u64;
        let mut prev = self.base_delay_ms;
        while attempts < self.max_attempts {
            let sleep = Self::next_sleep(&mut rng, self.base_delay_ms, self.max_delay_ms, prev);
            if slept.saturating_add(sleep) > self.total_budget_ms {
                break;
            }
            if sleep > 0 {
                std::thread::sleep(Duration::from_millis(sleep));
            }
            slept += sleep;
            prev = sleep.max(1);
            attempts += 1;
            result = op();
            if result.is_ok() {
                break;
            }
        }
        (result, attempts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExploreError;

    fn flaky(fail_first: u32) -> impl FnMut() -> Result<u32> {
        let mut calls = 0u32;
        move || {
            calls += 1;
            if calls <= fail_first {
                Err(ExploreError::cache(format!("transient #{calls}")))
            } else {
                Ok(calls)
            }
        }
    }

    #[test]
    fn no_retry_policy_makes_exactly_one_attempt() {
        let policy = RetryPolicy::none();
        let (result, attempts) = policy.run_counted(&mut flaky(1));
        assert!(result.is_err());
        assert_eq!(attempts, 1);
        assert!(policy.schedule().is_empty());
    }

    #[test]
    fn transient_failures_are_retried_until_success() {
        let policy = RetryPolicy::new(5).base_delay_ms(0).max_delay_ms(0);
        let (result, attempts) = policy.run_counted(&mut flaky(3));
        assert_eq!(result.unwrap(), 4);
        assert_eq!(attempts, 4);
    }

    #[test]
    fn attempts_cap_returns_the_last_error() {
        let policy = RetryPolicy::new(3).base_delay_ms(0).max_delay_ms(0);
        let (result, attempts) = policy.run_counted(&mut flaky(10));
        let err = result.unwrap_err();
        assert!(err.to_string().contains("transient #3"), "{err}");
        assert_eq!(attempts, 3);
    }

    #[test]
    fn sleep_budget_caps_the_schedule() {
        // Base delay 40 ms, budget 100 ms: at most two sleeps fit whatever
        // the jitter draws (each sleep is >= base).
        let policy = RetryPolicy::new(100)
            .base_delay_ms(40)
            .max_delay_ms(40)
            .total_budget_ms(100);
        assert_eq!(policy.schedule(), vec![40, 40]);
        let start = std::time::Instant::now();
        let (result, attempts) = policy.run_counted(&mut flaky(1000));
        assert!(result.is_err());
        assert_eq!(attempts, 3, "two retries fit the 100 ms budget");
        assert!(start.elapsed().as_millis() >= 80);
    }

    #[test]
    fn schedules_are_reproducible_and_jittered() {
        let policy = RetryPolicy::new(6)
            .base_delay_ms(10)
            .max_delay_ms(1_000)
            .total_budget_ms(1_000_000)
            .seed(42);
        let a = policy.schedule();
        let b = policy.schedule();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|&ms| (10..=1_000).contains(&ms)));
        let reseeded = policy.seed(43).schedule();
        assert_ne!(a, reseeded, "different seed, different jitter");
    }

    #[test]
    fn decorrelated_jitter_grows_from_the_base() {
        // Every sleep lies in [base, min(3 * prev, max)]; with max clamped
        // high, the upper envelope grows geometrically.
        let policy = RetryPolicy::new(8)
            .base_delay_ms(10)
            .max_delay_ms(u64::MAX / 8)
            .total_budget_ms(u64::MAX / 4)
            .seed(7);
        let schedule = policy.schedule();
        let mut envelope = 10u64;
        for &sleep in &schedule {
            assert!(sleep >= 10);
            assert!(sleep <= envelope.saturating_mul(3).max(10));
            envelope = sleep.max(1);
        }
    }
}
