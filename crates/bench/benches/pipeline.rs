//! Criterion benches for the simulate/sweep hot path.
//!
//! `experiments.rs` times the paper's figure experiments; this file times the
//! *pipeline* itself after the single-pass/artifact-sharing refactor:
//!
//! * `simulate/*` — `Simulator::simulate` alone (artifacts pre-built), on the
//!   validation GEMM, VGG-8 and BERT-Base;
//! * `run_sweep/*` — the sweep engine end to end: cold (no result cache, so
//!   artifact extraction and generation are on the clock) and warm (every
//!   point served from a populated `PackedSegmentCache`, through one shared
//!   handle).
//!
//! The committed `BENCH_sweep.json` trajectory is produced by the
//! `bench_sweep` binary, which runs the same fig9-style sweep; see
//! EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use simphony::{MappingPlan, Simulator};
use simphony_bench::{
    default_params, fig9_style_sweep, lightening_transformer_params, tempo_accelerator,
    validation_gemm_workload, SEED,
};
use simphony_explore::{ExploreSession, PackedSegmentCache};
use simphony_onn::{models, ModelWorkload, PruningConfig, QuantConfig};
use simphony_units::BitWidth;

fn extract(model: &simphony_onn::Model) -> ModelWorkload {
    ModelWorkload::extract(
        model,
        &QuantConfig::default(),
        &PruningConfig::dense(),
        SEED,
    )
    .expect("workload extracts")
}

fn bench_simulate(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate");
    group.sample_size(20);

    let gemm_accel = tempo_accelerator(default_params()).expect("accelerator builds");
    let gemm = validation_gemm_workload(BitWidth::new(8)).expect("workload extracts");
    let sim = Simulator::new(gemm_accel);
    group.bench_function("single_gemm", |b| {
        b.iter(|| black_box(sim.simulate(&gemm, &MappingPlan::default()).unwrap()))
    });

    let vgg_accel = tempo_accelerator(default_params()).expect("accelerator builds");
    let vgg = extract(&models::vgg8_cifar10());
    let sim = Simulator::new(vgg_accel);
    group.bench_function("vgg8", |b| {
        b.iter(|| black_box(sim.simulate(&vgg, &MappingPlan::default()).unwrap()))
    });

    let bert_accel =
        tempo_accelerator(lightening_transformer_params()).expect("accelerator builds");
    let bert = extract(&models::bert_base(196));
    let sim = Simulator::new(bert_accel);
    group.sample_size(10).bench_function("bert_base", |b| {
        b.iter(|| black_box(sim.simulate(&bert, &MappingPlan::default()).unwrap()))
    });
    group.finish();
}

fn bench_run_sweep(c: &mut Criterion) {
    // The same fig9-style sweep `bench_sweep` records in `BENCH_sweep.json`.
    let spec = fig9_style_sweep();
    let mut group = c.benchmark_group("run_sweep");
    group.sample_size(10);
    group.bench_function("fig9_style_cold", |b| {
        b.iter(|| {
            black_box(
                ExploreSession::new(&spec)
                    .run_collect()
                    .expect("cold sweep runs"),
            )
        })
    });

    let dir = std::env::temp_dir().join(format!("simphony-bench-pipeline-{}", std::process::id()));
    let cache = Arc::new(PackedSegmentCache::open(&dir).expect("cache opens"));
    ExploreSession::new(&spec)
        .cache(Arc::clone(&cache))
        .run_collect()
        .expect("warm-up sweep runs");
    group.bench_function("fig9_style_warm", |b| {
        b.iter(|| {
            black_box(
                ExploreSession::new(&spec)
                    .cache(Arc::clone(&cache))
                    .run_collect()
                    .expect("warm sweep runs"),
            )
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_simulate, bench_run_sweep);
criterion_main!(benches);
