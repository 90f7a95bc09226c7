//! Deterministic work counts of a serving spec's probe grid: the service
//! tables compile each distinct accelerator once and simulate each distinct
//! (accelerator, class) configuration once, however many fleet templates
//! share them.
//!
//! `Simulator::compiles` and `Simulator::simulations` count every compile
//! and simulation in the process, so this file holds a single test: nothing
//! else in its process compiles or simulates while it counts.

use simphony::Simulator;
use simphony_explore::{simulate_point, ArchFamily, ExploreError, SweepPoint, WorkloadSpec};
use simphony_traffic::{
    build_service_tables, FleetTemplate, RequestClass, ServiceCost, ServingSpec,
};

#[test]
fn identical_templates_share_their_probes_and_a_failing_probe_names_its_pair() {
    let mut spec = ServingSpec::new("probe-counts");
    spec.fleet = vec![
        FleetTemplate::new(ArchFamily::Tempo),
        FleetTemplate::new(ArchFamily::Tempo),
        FleetTemplate::new(ArchFamily::MrrBank),
    ];
    spec.classes = vec![
        RequestClass::new(WorkloadSpec::validation_gemm()),
        RequestClass::new(WorkloadSpec::Gemm {
            m: 64,
            k: 32,
            n: 64,
        }),
    ];

    // Two distinct accelerators, each probed by both classes.
    let (compiled, simulated) = (Simulator::compiles(), Simulator::simulations());
    let tables = build_service_tables(&spec).expect("service tables build");
    assert_eq!(
        (
            Simulator::compiles() - compiled,
            Simulator::simulations() - simulated
        ),
        (2, 4),
        "(compiles, simulations) of a 3-template x 2-class grid"
    );

    // Each probe costs exactly what its cold simulation reports.
    for (t, template) in spec.fleet.iter().enumerate() {
        for (c, class) in spec.classes.iter().enumerate() {
            let point = SweepPoint {
                index: 0,
                workload: class.workload.clone(),
                arch: template.arch,
                tiles: template.tiles,
                cores_per_tile: template.cores_per_tile,
                core_height: template.core_height,
                core_width: template.core_width,
                wavelengths: template.wavelengths,
                bits: class.bits,
                sparsity: class.sparsity,
                dataflow: spec.dataflow,
                data_awareness: spec.data_awareness,
                clock_ghz: spec.clock_ghz,
                seed: spec.seed,
            };
            let profile = simulate_point(&point)
                .expect("probe simulates")
                .service_profile();
            let cold = ServiceCost {
                time_ms: profile.latency.milliseconds(),
                energy_uj: profile.energy.microjoules(),
            };
            assert_eq!(tables.template(t)[c], cold, "template {t}, class {c}");
        }
    }

    // A butterfly mesh needs power-of-two cores, so both probes of template
    // #1 fail at generation; the error names the first of them.
    spec.fleet[1] = FleetTemplate {
        core_height: 6,
        core_width: 6,
        ..FleetTemplate::new(ArchFamily::Butterfly)
    };
    match build_service_tables(&spec) {
        Err(ExploreError::Point { label, .. }) => {
            assert_eq!(
                label,
                "fleet template #1 (butterfly) serving gemm280x28x280"
            );
        }
        other => panic!("expected a failing probe, got {other:?}"),
    }
}
