//! Output checks that do not depend on timing: sampled re-simulation of
//! sweep records, and the model-accuracy line against the paper's reference
//! points.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use simphony::{Accelerator, MappingPlan, SimulationConfig, Simulator};
use simphony_arch::generators;
use simphony_bench::{
    default_params, lightening_transformer_params, reference, simulate_validation_gemm,
    tempo_accelerator, SEED,
};
use simphony_dataflow::DataflowStyle;
use simphony_explore::{simulate_point, SweepRecord, SweepSpec};
use simphony_onn::{models, ModelWorkload, PruningConfig, QuantConfig, SplitMix64};
use simphony_units::BitWidth;

use crate::metrics::Report;
use crate::BenchResult;

/// Points re-simulated per run.
const SAMPLED_POINTS: usize = 8;

/// Re-simulates a seeded sample of `spec`'s points through the sharing-free
/// `simulate_point` and compares each rendered record with its line of the
/// JSONL file at `jsonl`, byte for byte.
pub fn sample_points(
    report: &mut Report,
    spec: &SweepSpec,
    jsonl: &Path,
    seed: u64,
) -> BenchResult<()> {
    let total = spec.point_count()?;
    let mut rng = SplitMix64::new(seed ^ 0xc4ec_5a3b_1e00);
    let wanted: Vec<usize> = (0..SAMPLED_POINTS)
        .map(|_| (rng.next_u64() % total as u64) as usize)
        .collect();
    let mut lines = BTreeMap::new();
    for (index, line) in BufReader::new(File::open(jsonl)?).lines().enumerate() {
        let line = line?;
        if wanted.contains(&index) {
            lines.insert(index, line);
        }
    }
    for index in wanted {
        let point = spec.point_at(index);
        let label = point.label();
        let record = SweepRecord::from_report(point.clone(), &simulate_point(&point)?);
        let expected = serde_json::to_string(&record)?;
        report.check(lines.get(&index) == Some(&expected), || {
            format!("record {index} ({label}) differs from simulate_point")
        });
    }
    Ok(())
}

/// One simulated quantity next to the paper's value.
struct Reference {
    name: &'static str,
    unit: &'static str,
    simulated: f64,
    paper: f64,
}

/// Simulates the paper's reference points (Fig. 7 TeMPO area and energy,
/// Fig. 8 Lightening-Transformer area and power, Fig. 10 SCATTER energies),
/// prints each next to the paper's value with the error, and checks that
/// each still equals the recorded value exactly: these are fixed checks a
/// performance change must not move, not timed metrics.
pub fn model_accuracy(report: &mut Report) -> BenchResult<()> {
    let mut rows = Vec::new();

    let fig7 = simulate_validation_gemm(default_params(), BitWidth::new(8))?;
    rows.push(Reference {
        name: "fig7.tempo_area",
        unit: "mm^2",
        simulated: fig7.area.total.square_millimeters() - fig7.area.memory.square_millimeters(),
        paper: reference::TEMPO_AREA_MM2,
    });
    let macs: u64 = 280 * 28 * 280;
    rows.push(Reference {
        name: "fig7.tempo_energy_per_mac",
        unit: "fJ",
        simulated: fig7.total_energy.femtojoules() / macs as f64,
        paper: reference::TEMPO_ENERGY_PJ * 1000.0 / (2.0 * 4.0 * 4.0 * 2.0 * 2.0),
    });

    // A 224x224 image through a ViT-style patch embedding gives 196 tokens.
    let bert = ModelWorkload::extract(
        &models::bert_base(196),
        &QuantConfig::default(),
        &PruningConfig::dense(),
        SEED,
    )?;
    let fig8 = Simulator::new(tempo_accelerator(lightening_transformer_params())?)
        .simulate(&bert, &MappingPlan::default())?;
    rows.push(Reference {
        name: "fig8.lt_area",
        unit: "mm^2",
        simulated: fig8.area.total.square_millimeters(),
        paper: reference::LT_AREA_MM2,
    });
    rows.push(Reference {
        name: "fig8.lt_power",
        unit: "W",
        simulated: fig8.average_power.watts(),
        paper: reference::LT_POWER_W,
    });

    // Fig. 10(b): a 60%-sparse weight-static GEMM on SCATTER.
    let gemm = ModelWorkload::extract(
        &models::single_gemm(64, 64, 64),
        &QuantConfig::default(),
        &PruningConfig::new(0.6)?,
        SEED,
    )?;
    let cases = [
        (
            "fig10.scatter_unaware",
            false,
            simphony::DataAwareness::Unaware,
        ),
        ("fig10.scatter_aware", false, simphony::DataAwareness::Aware),
        (
            "fig10.scatter_aware_measured",
            true,
            simphony::DataAwareness::Aware,
        ),
    ];
    let papers = [
        reference::SCATTER_UNAWARE_NJ,
        reference::SCATTER_AWARE_NJ,
        reference::SCATTER_AWARE_MODEL_NJ,
    ];
    for ((name, measured, awareness), paper) in cases.into_iter().zip(papers) {
        let arch = if measured {
            generators::scatter_measured(default_params(), 5.0)?
        } else {
            generators::scatter(default_params(), 5.0)?
        };
        let accel = Accelerator::builder("scatter_edge")
            .sub_arch(arch)
            .build()?;
        let sim = Simulator::new(accel)
            .with_config(SimulationConfig {
                data_awareness: awareness,
                dataflow: DataflowStyle::WeightStationary,
                layout_aware: true,
            })
            .simulate(&gemm, &MappingPlan::default())?;
        let nj = |kind: &str| sim.energy_by_kind.get(kind).map_or(0.0, |e| e.nanojoules());
        rows.push(Reference {
            name,
            unit: "nJ",
            simulated: nj("PS") + nj("MZM"),
            paper,
        });
    }

    for (row, recorded) in rows.iter().zip(RECORDED) {
        println!(
            "accuracy: {:<30} simulated {:>12.4} {unit:<4} paper {:>9.3} {unit:<4} error {:>+7.1}%",
            row.name,
            row.simulated,
            row.paper,
            (row.simulated / row.paper - 1.0) * 100.0,
            unit = row.unit,
        );
        report.check(row.simulated.to_bits() == recorded.to_bits(), || {
            format!(
                "{} = {:?} changed from the recorded {recorded:?}",
                row.name, row.simulated
            )
        });
    }
    println!(
        "accuracy: the model is validated only on these reference points \
         (paper Figs. 7, 8 and 10); every other configuration is unvalidated"
    );
    Ok(())
}

/// The reference quantities as this model computed them when the benchmark
/// was written, in the order `model_accuracy` lists them.
const RECORDED: [f64; 7] = [
    2.401108093994778,
    7996.1019792787465,
    303.7482410443863,
    72.46763101269657,
    1058.4064,
    296.4964,
    282.90535999999764,
];
