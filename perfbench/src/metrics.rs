//! Metric values, the run report and the order statistics they are built
//! from.

use crate::json_str;

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Everything one run reports: metrics, operation counts, failed output
/// checks and the sample count behind each percentile.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted (sweep points and daemon requests).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub check_failures: Vec<String>,
    pub samples: Vec<(String, usize)>,
}

impl Report {
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Records an output check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn sample_count(&mut self, name: &str, n: usize) {
        self.samples.push((name.to_string(), n));
    }

    /// Every output check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(&m.name),
                    json_number(m.value),
                    json_str(m.unit)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A finite value prints with all its digits; JSON has no NaN, so a value
/// that is not finite (an empty statistic) prints as 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median over `blocks` consecutive, near-equal blocks of `values` (in the
/// order measured) of each block's nearest-rank percentile `p`; 0 when
/// empty. With few samples a plain p99 is the single slowest one, so one
/// stall anywhere in the run sets it; here a stall moves one block only.
pub fn block_percentile(values: &[f64], p: f64, blocks: usize) -> f64 {
    let blocks = blocks.clamp(1, values.len().max(1));
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| {
            let range = b * values.len() / blocks..(b + 1) * values.len() / blocks;
            percentile(&values[range], p)
        })
        .collect();
    median(&per_block)
}
