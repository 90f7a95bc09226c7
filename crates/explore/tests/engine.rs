//! End-to-end tests of the exploration engine: spec serialization, executor
//! determinism across thread counts, cache behaviour and Pareto invariants.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use simphony_explore::{
    dominates, pareto_front, ArchFamily, CacheStats, DirCache, ExploreSession, Objective,
    SweepSpec, WorkloadSpec,
};

/// A fresh scratch directory under the target-adjacent temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = format!(
        "simphony-explore-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    let dir = std::env::temp_dir().join(unique);
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

fn multi_axis_spec() -> SweepSpec {
    use simphony::DataAwareness;
    SweepSpec::new("engine-test")
        .with_arch(vec![ArchFamily::Tempo, ArchFamily::Scatter])
        .with_wavelengths(vec![1, 2, 4])
        .with_bitwidth(vec![4, 8])
        .with_sparsity(vec![0.0, 0.5])
        .with_data_awareness(vec![DataAwareness::Aware, DataAwareness::Unaware])
}

#[test]
fn spec_round_trips_through_json() {
    let spec = multi_axis_spec();
    let text = serde_json::to_string_pretty(&spec).expect("spec serializes");
    let back: SweepSpec = serde_json::from_str(&text).expect("spec parses back");
    assert_eq!(back, spec);
    // And the expansion of the round-tripped spec is identical.
    assert_eq!(back.expand().unwrap(), spec.expand().unwrap());
}

#[test]
fn handwritten_json_spec_parses() {
    // The declarative format a user would actually write.
    let text = r#"{
        "name": "quickstart",
        "workload": [{"Gemm": {"m": 280, "k": 28, "n": 280}}, "Vgg8"],
        "arch": ["Tempo"],
        "tiles": [2],
        "cores_per_tile": [2],
        "core_height": [4],
        "core_width": [4],
        "wavelengths": [1, 2],
        "bitwidth": [8],
        "sparsity": [0.0],
        "dataflow": ["OutputStationary"],
        "data_awareness": ["Aware"],
        "clock_ghz": 5.0,
        "seed": 42
    }"#;
    let spec: SweepSpec = serde_json::from_str(text).expect("handwritten spec parses");
    assert_eq!(spec.point_count().unwrap(), 4);
    assert_eq!(spec.workload[1], WorkloadSpec::Vgg8);
}

#[test]
fn records_are_byte_identical_across_thread_counts() {
    let spec = multi_axis_spec();
    assert_eq!(
        spec.point_count().unwrap(),
        48,
        "spec must cover >= 48 points"
    );

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let sequential = ExploreSession::new(&spec)
        .run_collect()
        .expect("sequential sweep runs");
    std::env::set_var("RAYON_NUM_THREADS", "8");
    let parallel = ExploreSession::new(&spec)
        .run_collect()
        .expect("parallel sweep runs");
    std::env::remove_var("RAYON_NUM_THREADS");

    let seq_bytes = serde_json::to_string_pretty(&sequential.records).unwrap();
    let par_bytes = serde_json::to_string_pretty(&parallel.records).unwrap();
    assert_eq!(seq_bytes, par_bytes, "thread count must not affect output");

    // Expansion order is preserved in the records.
    for (i, record) in parallel.records.iter().enumerate() {
        assert_eq!(record.point.index, i);
    }
}

#[test]
fn second_run_is_served_entirely_from_cache() {
    let dir = scratch_dir("cache");
    let cache = DirCache::open(&dir).expect("cache opens");
    let spec = SweepSpec::new("cached")
        .with_wavelengths(vec![1, 2])
        .with_bitwidth(vec![4, 8]);

    let first = ExploreSession::new(&spec)
        .cache(cache.clone())
        .run_collect()
        .expect("first run");
    assert_eq!(first.stats, CacheStats { hits: 0, misses: 4 });
    assert_eq!(cache.len().unwrap(), 4);

    let second = ExploreSession::new(&spec)
        .cache(cache.clone())
        .run_collect()
        .expect("second run");
    assert_eq!(second.stats, CacheStats { hits: 4, misses: 0 });
    assert_eq!(
        serde_json::to_string(&second.records).unwrap(),
        serde_json::to_string(&first.records).unwrap(),
        "cached records must be identical to freshly simulated ones"
    );

    // An overlapping sweep only simulates the new points.
    let wider = SweepSpec::new("cached-wider")
        .with_wavelengths(vec![1, 2, 3])
        .with_bitwidth(vec![4, 8]);
    let third = ExploreSession::new(&wider)
        .cache(cache.clone())
        .run_collect()
        .expect("overlapping run");
    assert_eq!(third.stats, CacheStats { hits: 4, misses: 2 });

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pareto_front_is_exactly_the_non_dominated_set() {
    let spec = SweepSpec::new("pareto")
        .with_arch(vec![ArchFamily::Tempo, ArchFamily::Scatter])
        .with_wavelengths(vec![1, 2, 4])
        .with_bitwidth(vec![4, 8]);
    let outcome = ExploreSession::new(&spec)
        .run_collect()
        .expect("sweep runs");
    let objectives = [Objective::Energy, Objective::Latency, Objective::Area];
    let front = pareto_front(&outcome.records, &objectives).expect("finite metrics");

    assert!(!front.is_empty(), "a finite set always has a frontier");
    // No member of the front is dominated by any record.
    for member in &front {
        for record in &outcome.records {
            assert!(
                !dominates(record, member, &objectives),
                "front member #{} dominated by #{}",
                member.point.index,
                record.point.index
            );
        }
    }
    // Every excluded record is dominated by some front member.
    for record in &outcome.records {
        if front.iter().any(|m| m.point == record.point) {
            continue;
        }
        assert!(
            front.iter().any(|m| dominates(m, record, &objectives)),
            "excluded record #{} is not dominated by the front",
            record.point.index
        );
    }
}
