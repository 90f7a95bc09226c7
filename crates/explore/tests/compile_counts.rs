//! Deterministic work counts: a shard compiles each of its accelerators
//! once, however many of its points share it, and simulates each distinct
//! configuration among its misses once, however many of its points share
//! it.
//!
//! `Simulator::compiles` counts every accelerator compile in the process,
//! where the compile happens, and `Simulator::simulations` every
//! simulation, so a shard that compiled one simulator per point, or
//! simulated every point, would read one per point here. Data-unaware
//! points that differ only in sparsity share one simulation; data-aware
//! points never do, since their keys hold their sparsity and seed. This
//! file holds a single test, so nothing else in its process compiles or
//! simulates while it counts.

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

/// The awareness golden sweep: 64 points, half data-aware and half
/// data-unaware, over 2 accelerators, each shared by 16 consecutive points.
/// Its 32 unaware points form 16 pairs that differ only in sparsity, two
/// points apart.
fn awareness_spec() -> SweepSpec {
    serde_json::from_str(include_str!("golden/awareness_spec.json")).expect("spec parses")
}

#[test]
fn a_shard_compiles_each_of_its_accelerators_once() {
    // (spec, points, chunk size (0 = unchunked), compiles, simulations).
    // Compiles: one per accelerator per shard. At chunk size 64,
    // `dse_aware`'s 14 shards hold 8 accelerators each and
    // `extract_heavy`'s 3 shards hold both of its accelerators; at chunk
    // size 7, 6 of `extract_heavy`'s 28 shards straddle an accelerator
    // boundary; at chunk size 1 every point compiles its own.
    // Simulations: one per distinct configuration per shard. Every
    // `dse_aware` point is its own; `extract_heavy`'s 192 points form 48
    // groups of 4 (sparsity 0 to 0.75), each within 7 consecutive points, so
    // one shard holds a whole group at chunk size 64, two members of it at
    // chunk size 3 and none of them together at chunk size 1. The awareness
    // sweep's 16 unaware pairs share at chunk size 0, 5 of them at chunk
    // size 6.
    let cases = [
        (dse_aware_spec(), 896, 64, 112, 896),
        (dse_aware_spec(), 896, 0, 112, 896),
        (dse_aware_spec(), 896, 1, 896, 896),
        (extract_heavy_spec(), 192, 64, 6, 48),
        (extract_heavy_spec(), 192, 0, 2, 48),
        (extract_heavy_spec(), 192, 7, 34, 89),
        (extract_heavy_spec(), 192, 3, 64, 144),
        (extract_heavy_spec(), 192, 1, 192, 192),
        (awareness_spec(), 64, 0, 2, 48),
        (awareness_spec(), 64, 6, 13, 59),
        (awareness_spec(), 64, 1, 64, 64),
    ];
    for (spec, points, chunk, compiles, simulations) in cases {
        let (compiled, simulated) = (Simulator::compiles(), Simulator::simulations());
        let outcome = ExploreSession::new(&spec)
            .chunk_size(chunk)
            .run_collect()
            .expect("sweep runs");
        assert_eq!(outcome.records.len(), points);
        assert_eq!(
            (
                Simulator::compiles() - compiled,
                Simulator::simulations() - simulated
            ),
            (compiles, simulations),
            "(compiles, simulations) of {} at chunk size {chunk}",
            spec.name
        );
    }
}
