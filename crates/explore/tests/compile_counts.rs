//! Deterministic compile counts: a shard compiles each of its accelerators
//! once, however many of its points share it.
//!
//! `Simulator::compiles` counts every accelerator compile in the process,
//! where the compile happens, so a shard that compiled one simulator per
//! point would read one compile per point here. This file holds a single
//! test, so nothing else in its process compiles while it counts.

use simphony::{DataAwareness, Simulator};
use simphony_dataflow::DataflowStyle;
use simphony_explore::{ArchFamily, ExploreSession, SweepSpec, WorkloadSpec};

/// The benchmark's `dse_aware` sweep: 896 data-aware VGG-8 points over 112
/// accelerators (every family, 4 core shapes, 4 wavelength counts), each
/// shared by 8 consecutive points (2 bit widths, 2 sparsities, 2
/// dataflows).
fn dse_aware_spec() -> SweepSpec {
    SweepSpec::new("dse-aware")
        .with_workload(vec![WorkloadSpec::Vgg8])
        .with_arch(ArchFamily::ALL.to_vec())
        .with_core_dims(vec![4, 8])
        .with_wavelengths(vec![1, 2, 4, 8])
        .with_bitwidth(vec![4, 8])
        .with_sparsity(vec![0.0, 0.5])
        .with_dataflow(vec![
            DataflowStyle::OutputStationary,
            DataflowStyle::WeightStationary,
        ])
        .with_data_awareness(vec![DataAwareness::Aware])
}

/// The benchmark's `extract_heavy` sweep: 192 data-unaware points over 4
/// models and 2 accelerators (TeMPO and the MRR bank), each shared by 24
/// consecutive points.
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
            DataflowStyle::OutputStationary,
            DataflowStyle::WeightStationary,
        ])
        .with_data_awareness(vec![DataAwareness::Unaware])
}

#[test]
fn a_shard_compiles_each_of_its_accelerators_once() {
    // (spec, points, chunk size (0 = unchunked), compiles): one per
    // accelerator per shard. At chunk size 64, `dse_aware`'s 14 shards hold
    // 8 accelerators each and `extract_heavy`'s 3 shards hold both of its
    // accelerators; at chunk size 1 every point compiles its own.
    let cases = [
        (dse_aware_spec(), 896, 64, 112),
        (dse_aware_spec(), 896, 0, 112),
        (dse_aware_spec(), 896, 1, 896),
        (extract_heavy_spec(), 192, 64, 6),
        (extract_heavy_spec(), 192, 0, 2),
        (extract_heavy_spec(), 192, 1, 192),
    ];
    for (spec, points, chunk, expected) in cases {
        let before = Simulator::compiles();
        let outcome = ExploreSession::new(&spec)
            .chunk_size(chunk)
            .run_collect()
            .expect("sweep runs");
        assert_eq!(outcome.records.len(), points);
        assert_eq!(
            Simulator::compiles() - before,
            expected,
            "{} at chunk size {chunk}",
            spec.name
        );
    }
}
