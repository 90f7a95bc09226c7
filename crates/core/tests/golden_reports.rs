//! Golden full-report regression: complete [`SimulationReport`]s, per-layer
//! latency and energy, link budgets and the area breakdown included, must
//! stay byte-identical to reports written before the simulator compiled its
//! accelerator once per simulator.
//!
//! Sweep records (the golden suites of `simphony-explore`) keep only totals,
//! the energy per kind and the total area, so they cannot see a per-layer
//! report, a link budget or an area breakdown drift. `golden/reports.jsonl`
//! holds one compact JSON report per line, in [`cases`] order:
//!
//! * VGG-8 on all seven architecture families, data-aware;
//! * BERT at sequence length 32 on TeMPO and on the MRR bank, data-unaware
//!   (a shape-only workload), weight-stationary, with 4-bit inputs and
//!   6-bit outputs;
//! * VGG-8 on a SCATTER + MZI-mesh accelerator with the linear layers routed
//!   to sub-architecture 1;
//! * VGG-8 on TeMPO with the layout-unaware area estimate.
//!
//! Any change to these bytes is a simulator-semantics change and must be
//! deliberate.

use simphony::{Accelerator, DataAwareness, MappingPlan, SimulationConfig, Simulator};
use simphony_arch::{generators, PtcArchitecture};
use simphony_dataflow::DataflowStyle;
use simphony_netlist::ArchParams;
use simphony_onn::{models, LayerKind, ModelWorkload, PruningConfig, QuantConfig};
use simphony_units::BitWidth;

const GOLDEN_REPORTS: &str = include_str!("golden/reports.jsonl");

type Generator = fn(ArchParams, f64) -> simphony_arch::Result<PtcArchitecture>;

const FAMILIES: [Generator; 7] = [
    generators::tempo,
    generators::mzi_mesh,
    generators::mrr_bank,
    generators::butterfly,
    generators::pcm_crossbar,
    generators::scatter,
    generators::scatter_measured,
];

fn params() -> ArchParams {
    ArchParams::new(2, 2, 4, 4).with_wavelengths(2)
}

fn accelerator(name: &str, archs: &[Generator]) -> Accelerator {
    archs
        .iter()
        .fold(Accelerator::builder(name), |builder, generate| {
            builder.sub_arch(generate(params(), 5.0).expect("valid arch"))
        })
        .build()
        .expect("valid accelerator")
}

/// One golden report: what to simulate, on what, under which configuration.
struct Case {
    accelerator: Accelerator,
    workload: ModelWorkload,
    plan: MappingPlan,
    config: SimulationConfig,
}

/// Every golden case, in file order.
fn cases() -> Vec<Case> {
    let vgg8 = ModelWorkload::extract(
        &models::vgg8_cifar10(),
        &QuantConfig::default(),
        &PruningConfig::new(0.5).expect("valid sparsity"),
        42,
    )
    .expect("VGG-8 extracts");
    let bert = ModelWorkload::shape_only(
        &models::bert_base(32),
        &QuantConfig::new(BitWidth::new(8), BitWidth::new(4), BitWidth::new(6)),
    )
    .expect("BERT lowers");
    let aware = SimulationConfig::default();
    let unaware_ws = SimulationConfig {
        data_awareness: DataAwareness::Unaware,
        dataflow: DataflowStyle::WeightStationary,
        ..aware
    };

    let mut cases: Vec<Case> = FAMILIES
        .iter()
        .map(|&generate| Case {
            accelerator: accelerator("family", &[generate]),
            workload: vgg8.clone(),
            plan: MappingPlan::default(),
            config: aware,
        })
        .collect();
    for generate in [generators::tempo as Generator, generators::mrr_bank] {
        cases.push(Case {
            accelerator: accelerator("bert", &[generate]),
            workload: bert.clone(),
            plan: MappingPlan::default(),
            config: unaware_ws,
        });
    }
    cases.push(Case {
        accelerator: accelerator("hetero", &[generators::scatter, generators::mzi_mesh]),
        workload: vgg8.clone(),
        plan: MappingPlan::all_to(0).route(LayerKind::Linear, 1),
        config: aware,
    });
    cases.push(Case {
        accelerator: accelerator("layout_unaware", &[generators::tempo]),
        workload: vgg8,
        plan: MappingPlan::default(),
        config: SimulationConfig {
            layout_aware: false,
            ..aware
        },
    });
    cases
}

#[test]
fn full_reports_match_their_golden_bytes() {
    let golden: Vec<&str> = GOLDEN_REPORTS.lines().collect();
    let cases = cases();
    assert_eq!(golden.len(), cases.len(), "one golden line per case");
    for (index, (case, expected)) in cases.iter().zip(golden).enumerate() {
        let report = Simulator::new(case.accelerator.clone())
            .with_config(case.config)
            .simulate(&case.workload, &case.plan)
            .expect("golden case simulates");
        let rendered = serde_json::to_string(&report).expect("report serializes");
        assert!(
            rendered == expected,
            "case {index} ({} on {}) diverged from its golden report",
            report.workload,
            report.accelerator
        );
    }
}

#[test]
fn the_golden_cases_cover_what_records_do_not() {
    let cases = cases();
    // Two sub-architectures with layers on both, a layout-unaware area and
    // both awareness modes.
    let hetero = &cases[9];
    assert_eq!(hetero.accelerator.sub_archs().len(), 2);
    let report = Simulator::new(hetero.accelerator.clone())
        .with_config(hetero.config)
        .simulate(&hetero.workload, &hetero.plan)
        .expect("heterogeneous case simulates");
    for sub_arch in ["scatter", "mzi_mesh"] {
        assert!(
            report.layers.iter().any(|layer| layer.sub_arch == sub_arch),
            "no layer ran on {sub_arch}"
        );
    }
    assert_eq!(report.link_budgets.len(), 2);
    assert!(!cases[10].config.layout_aware);
    assert!(cases
        .iter()
        .any(|case| case.config.data_awareness == DataAwareness::Unaware));
}
