//! Chaos tests: deterministic fault injection across the durability chain.
//! Retries must absorb transient errors without changing a byte, exhausted
//! cache retries must degrade gracefully under keep-going, torn cache writes
//! must heal as misses, and a failed sink flush must keep the checkpoint
//! honest so a resume completes to the golden bytes.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use simphony_explore::{
    ArchFamily, Checkpoint, DirCache, ExploreSession, FaultInjector, FaultKind, FaultPlan,
    FaultyCache, FaultySink, JsonlSink, RetryPolicy, SweepSpec,
};

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = format!(
        "simphony-chaos-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    let dir = std::env::temp_dir().join(unique);
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

fn small_spec() -> SweepSpec {
    SweepSpec::new("chaos")
        .with_arch(vec![ArchFamily::Tempo, ArchFamily::Scatter])
        .with_wavelengths(vec![1, 2, 4])
        .with_bitwidth(vec![4, 8])
}

/// The unfaulted JSONL bytes every chaotic variant must reproduce.
fn golden_bytes(spec: &SweepSpec, dir: &std::path::Path, chunk: usize) -> String {
    let path = dir.join("golden.jsonl");
    let mut sink = JsonlSink::create(&path).expect("sink creates");
    ExploreSession::new(spec)
        .chunk_size(chunk)
        .sink(&mut sink)
        .run()
        .expect("golden sweep runs");
    std::fs::read_to_string(&path).expect("golden reads")
}

#[test]
fn retries_absorb_seeded_transient_cache_faults_without_changing_bytes() {
    let dir = scratch_dir("transient");
    let golden = golden_bytes(&small_spec(), &dir, 4);
    let spec = small_spec();
    let injector = FaultInjector::new(FaultPlan::new(0xC0FFEE).transient_error_rate(0.2));
    let cache = DirCache::open(dir.join("cache")).expect("cache opens");
    let faulty = FaultyCache::new(Box::new(cache.clone()), injector);

    let out = dir.join("faulted.jsonl");
    let mut sink = JsonlSink::create(&out).expect("sink creates");
    let outcome = ExploreSession::new(&spec)
        .chunk_size(4)
        .cache(faulty)
        .retry(RetryPolicy::new(6).base_delay_ms(1).max_delay_ms(2))
        .sink(&mut sink)
        .run()
        .expect("retries must ride out a 20% transient-error rate");
    assert_eq!(
        outcome.cache_degraded, 0,
        "six attempts at 20% fault rate must never exhaust"
    );
    assert_eq!(
        std::fs::read_to_string(&out).expect("output reads"),
        golden,
        "transient faults plus retries must be invisible in the output"
    );
    assert_eq!(
        cache.len().unwrap(),
        12,
        "every entry landed despite faults"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_exhausted_cache_write_degrades_but_the_record_still_reaches_the_sink() {
    let dir = scratch_dir("degrade");
    let golden = golden_bytes(&small_spec(), &dir, 0);
    let spec = small_spec();
    // One shard of 12 points: ops 0..=11 are the cache puts. Fault op 3 with
    // no retry budget: that put must degrade, nothing else may change.
    let injector = FaultInjector::new(FaultPlan::new(1).with_fault(3, FaultKind::TransientError));
    let cache = DirCache::open(dir.join("cache")).expect("cache opens");
    let faulty = FaultyCache::new(Box::new(cache.clone()), injector);

    let out = dir.join("degraded.jsonl");
    let mut sink = JsonlSink::create(&out).expect("sink creates");
    let outcome = ExploreSession::new(&spec)
        .cache(faulty)
        .keep_going()
        .sink(&mut sink)
        .run()
        .expect("keep-going degrades an exhausted cache write instead of aborting");
    assert_eq!(
        outcome.cache_degraded, 1,
        "exactly the faulted put degraded"
    );
    assert!(outcome.failures.is_empty(), "degradation is not a failure");
    assert_eq!(
        std::fs::read_to_string(&out).expect("output reads"),
        golden,
        "the degraded point's record must still reach the sink"
    );
    assert_eq!(cache.len().unwrap(), 11, "one entry was sacrificed");

    // Without keep-going the same exhaustion is a hard error.
    let injector = FaultInjector::new(FaultPlan::new(1).with_fault(3, FaultKind::TransientError));
    let cache2 = DirCache::open(dir.join("cache2")).expect("cache opens");
    let faulty = FaultyCache::new(Box::new(cache2), injector);
    let mut sink = JsonlSink::create(dir.join("failfast.jsonl")).expect("sink creates");
    ExploreSession::new(&spec)
        .cache(faulty)
        .sink(&mut sink)
        .run()
        .expect_err("fail-fast must surface the exhausted cache write");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_cache_write_heals_as_a_miss_on_the_next_run() {
    let dir = scratch_dir("torn");
    let golden = golden_bytes(&small_spec(), &dir, 0);
    let spec = small_spec();
    // Tear cache put op 5 short: the entry publishes truncated JSON, the
    // record itself is unharmed.
    let injector = FaultInjector::new(FaultPlan::new(2).with_fault(5, FaultKind::ShortWrite));
    let cache = DirCache::open(dir.join("cache")).expect("cache opens");
    let faulty = FaultyCache::new(Box::new(cache.clone()), injector);
    let out = dir.join("torn.jsonl");
    let mut sink = JsonlSink::create(&out).expect("sink creates");
    ExploreSession::new(&spec)
        .cache(faulty)
        .sink(&mut sink)
        .run()
        .expect("a short write reports success; the sweep proceeds");
    assert_eq!(
        std::fs::read_to_string(&out).expect("output reads"),
        golden,
        "the torn write corrupts the cache entry, never the output"
    );

    // Re-run unfaulted over the same cache: the torn entry parses as nothing,
    // counts as a miss, re-simulates, and heals.
    let out2 = dir.join("healed.jsonl");
    let mut sink = JsonlSink::create(&out2).expect("sink creates");
    let outcome = ExploreSession::new(&spec)
        .cache(cache.clone())
        .sink(&mut sink)
        .run()
        .expect("healing run succeeds");
    assert_eq!(outcome.stats.hits, 11, "intact entries hit");
    assert_eq!(outcome.stats.misses, 1, "the torn entry re-simulates");
    assert_eq!(
        std::fs::read_to_string(&out2).expect("output reads"),
        golden,
        "healing must reproduce the same bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failed_sink_flush_keeps_the_checkpoint_honest_and_resume_completes() {
    let dir = scratch_dir("flush");
    let golden = golden_bytes(&small_spec(), &dir, 4);
    let spec = small_spec();
    let out = dir.join("records.jsonl");
    let ckpt = dir.join("sweep.ckpt");
    // No cache: per checkpointed shard the sink sees 4 accepts, one
    // flush_shard, one sync. Op 10 is shard 2's flush_shard.
    let injector = FaultInjector::new(FaultPlan::new(3).with_fault(10, FaultKind::TransientError));
    {
        let mut sink = JsonlSink::create(&out).expect("sink creates");
        let mut faulty = FaultySink::new(&mut sink, injector);
        ExploreSession::new(&spec)
            .chunk_size(4)
            .checkpoint(&ckpt)
            .sink(&mut faulty)
            .run()
            .expect_err("the unretried flush failure must abort the sweep");
    }
    let (_, completed) = Checkpoint::load(&ckpt).expect("checkpoint loads");
    assert_eq!(
        completed.len(),
        1,
        "only the shard whose flush succeeded may be checkpointed"
    );
    let emitted = completed.last().map_or(0, |s| s.emitted);
    assert_eq!(emitted, 4);

    // Resume exactly as the CLI does: truncate the JSONL to the durable
    // prefix the checkpoint vouches for, then append the remaining shards.
    let text = std::fs::read_to_string(&out).expect("output reads");
    let prefix: String = text.lines().take(emitted).fold(String::new(), |mut s, l| {
        s.push_str(l);
        s.push('\n');
        s
    });
    std::fs::write(&out, prefix).expect("truncates");
    let mut sink = JsonlSink::append(&out).expect("sink appends");
    let outcome = ExploreSession::new(&spec)
        .chunk_size(4)
        .checkpoint(&ckpt)
        .sink(&mut sink)
        .run()
        .expect("the resumed sweep completes unfaulted");
    assert_eq!(
        outcome.skipped_points, 4,
        "the checkpointed shard is skipped"
    );
    assert_eq!(
        std::fs::read_to_string(&out).expect("output reads"),
        golden,
        "crash plus resume must converge on the golden bytes"
    );

    // The same fault with a retry budget never aborts at all. (Checkpointing
    // again so the op indices line up: accepts 6..=9, flush_shard at 10.)
    let injector = FaultInjector::new(FaultPlan::new(3).with_fault(10, FaultKind::TransientError));
    let out2 = dir.join("retried.jsonl");
    let ckpt2 = dir.join("retried.ckpt");
    let mut sink = JsonlSink::create(&out2).expect("sink creates");
    let mut faulty = FaultySink::new(&mut sink, injector);
    ExploreSession::new(&spec)
        .chunk_size(4)
        .checkpoint(&ckpt2)
        .retry(RetryPolicy::new(3).base_delay_ms(1).max_delay_ms(2))
        .sink(&mut faulty)
        .run()
        .expect("one retry absorbs the flush fault");
    assert_eq!(
        std::fs::read_to_string(&out2).expect("output reads"),
        golden,
        "the retried flush must not duplicate or drop records"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn latency_faults_slow_the_sweep_but_change_nothing() {
    let dir = scratch_dir("latency");
    let golden = golden_bytes(&small_spec(), &dir, 4);
    let spec = small_spec();
    let injector = FaultInjector::new(
        FaultPlan::new(4)
            .with_fault(2, FaultKind::Latency { ms: 10 })
            .with_fault(7, FaultKind::Latency { ms: 10 }),
    );
    let out = dir.join("slow.jsonl");
    let mut sink = JsonlSink::create(&out).expect("sink creates");
    let mut faulty = FaultySink::new(&mut sink, injector);
    ExploreSession::new(&spec)
        .chunk_size(4)
        .sink(&mut faulty)
        .run()
        .expect("latency spikes are not errors");
    assert_eq!(
        std::fs::read_to_string(&out).expect("output reads"),
        golden,
        "latency injection must be output-invisible"
    );
    std::fs::remove_dir_all(&dir).ok();
}
