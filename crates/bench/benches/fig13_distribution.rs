//! Figure 13 — how the population's sample distribution drifts during
//! Cocco's optimization: energy vs total buffer size, grouped into ten
//! generation windows. The paper's observation: later groups move toward a
//! lower `α`-slope intercept and concentrate.
//!
//! Run with: `cargo bench -p cocco-bench --bench fig13_distribution`

use cocco::prelude::*;
use cocco_bench::methods::TABLE_MODELS;
use cocco_bench::{Scale, Table};

const ALPHA: f64 = 0.002;

fn main() {
    let scale = Scale::from_env();
    let budget = scale.coopt_samples;
    println!("== Figure 13: sample distribution over {budget} samples ==\n");
    let mut table = Table::new(
        "fig13_distribution",
        &[
            "model",
            "group",
            "samples",
            "mean buffer MB",
            "mean energy mJ",
            "mean intercept",
            "stddev intercept",
        ],
    );
    for name in TABLE_MODELS {
        let model = cocco::graph::models::by_name(name).unwrap();
        let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            &model,
            &evaluator,
            BufferSpace::paper_shared(),
            Objective::co_exploration(CostMetric::Energy, ALPHA),
            budget,
        );
        SearchMethod::Ga(GaConfig {
            population: scale.population,
            ..GaConfig::default()
        })
        .with_seed(13)
        .run(&ctx);
        let points = ctx.trace().points();
        let groups = 10usize;
        let per_group = points.len().div_ceil(groups).max(1);
        for (gi, chunk) in points.chunks(per_group).enumerate() {
            let finite: Vec<_> = chunk
                .iter()
                .filter(|p| p.metric_value.is_finite())
                .collect();
            if finite.is_empty() {
                continue;
            }
            let n = finite.len() as f64;
            let mean_buf =
                finite.iter().map(|p| p.buffer_bytes as f64).sum::<f64>() / n / (1 << 20) as f64;
            let mean_energy = finite.iter().map(|p| p.metric_value).sum::<f64>() / n / 1e9;
            // Intercept of the α-slope line through each point:
            // cost = buffer + α·energy (lower is better).
            let intercepts: Vec<f64> = finite
                .iter()
                .map(|p| p.buffer_bytes as f64 + ALPHA * p.metric_value)
                .collect();
            let mean_i = intercepts.iter().sum::<f64>() / n;
            let var = intercepts.iter().map(|i| (i - mean_i).powi(2)).sum::<f64>() / n;
            table.row(&[
                name.to_string(),
                format!("{}", gi + 1),
                finite.len().to_string(),
                format!("{mean_buf:.3}"),
                format!("{mean_energy:.3}"),
                format!("{mean_i:.3e}"),
                format!("{:.3e}", var.sqrt()),
            ]);
        }
    }
    table.emit();
    println!(
        "paper shapes: the mean intercept falls monotonically-ish across\n\
         groups and its spread shrinks — the population drifts toward the\n\
         low-cost frontier and concentrates."
    );
}
