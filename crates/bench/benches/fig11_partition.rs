//! Figure 11 — graph-partition quality under the EMA-opt configuration:
//! EMA cost and bandwidth requirement of Halide's greedy, Irregular-NN's
//! DP, Cocco and the enumeration reference, normalized to Halide, on all
//! eight paper models (1 MB global buffer + 1.125 MB weight buffer).
//!
//! The enumeration's state/expansion budgets reproduce the paper's
//! behaviour: exact on the simpler CNNs, "cannot complete in a reasonable
//! time" (printed as `DNF`) on the large irregular models.
//!
//! Run with: `cargo bench -p cocco-bench --bench fig11_partition`
//! (`COCCO_FULL=1` for paper-scale budgets)

use cocco::prelude::*;
use cocco_bench::{Scale, Table};

fn main() {
    let scale = Scale::from_env();
    println!(
        "== Figure 11: partition quality (EMA-opt, {} GA samples) ==\n",
        scale.partition_samples
    );
    let buffer = BufferConfig::separate(1 << 20, 1152 << 10);
    let mut table = Table::new(
        "fig11_partition",
        &[
            "model",
            "method",
            "EMA MB",
            "EMA/Halide",
            "BW GB/s",
            "BW/Halide",
            "subgraphs",
        ],
    );

    for name in cocco::graph::models::PAPER_MODELS {
        let model = cocco::graph::models::by_name(name).unwrap();
        let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
        let measure = |partition: &Partition| -> (f64, f64, usize) {
            let report = evaluator
                .eval_partition(&partition.subgraphs(), &buffer, EvalOptions::default())
                .expect("evaluation");
            (
                report.ema_bytes as f64 / (1 << 20) as f64,
                report.avg_bw_gbps,
                partition.num_subgraphs(),
            )
        };
        let ctx = || {
            SearchContext::new(
                &model,
                &evaluator,
                BufferSpace::fixed(buffer),
                Objective::partition_only(CostMetric::Ema),
                scale.partition_samples,
            )
        };

        // Halide greedy is the normalization baseline.
        let greedy = SearchMethod::greedy().run(&ctx());
        let (ema0, bw0, sg0) = measure(&greedy.best.as_ref().unwrap().partition);

        let mut emit = |method: &str, result: Option<(f64, f64, usize)>| match result {
            Some((ema, bw, sg)) => table.row(&[
                name.to_string(),
                method.to_string(),
                format!("{ema:.2}"),
                format!("{:.3}", ema / ema0),
                format!("{bw:.2}"),
                format!("{:.3}", bw / bw0),
                sg.to_string(),
            ]),
            None => table.row(&[
                name.to_string(),
                method.to_string(),
                "DNF".into(),
                "-".into(),
                "DNF".into(),
                "-".into(),
                "-".into(),
            ]),
        };
        emit(SearchMethod::greedy().name(), Some((ema0, bw0, sg0)));

        let dp_method = SearchMethod::depth_dp();
        let dp = dp_method.run(&ctx());
        emit(
            dp_method.name(),
            dp.best.as_ref().map(|b| measure(&b.partition)),
        );

        let ga = SearchMethod::Ga(GaConfig {
            population: scale.population,
            ..GaConfig::default()
        })
        .with_seed(0xC0CC0)
        .run(&ctx());
        emit("Cocco", ga.best.as_ref().map(|b| measure(&b.partition)));

        let limits = ExhaustiveLimits {
            max_states: 60_000,
            max_expansions: if scale.partition_samples >= 400_000 {
                20_000_000
            } else {
                2_000_000
            },
        };
        let exhaustive_method = SearchMethod::Exhaustive(limits);
        let exhaustive = exhaustive_method.run(&ctx());
        emit(
            exhaustive_method.name(),
            if exhaustive.completed {
                exhaustive.best.as_ref().map(|b| measure(&b.partition))
            } else {
                None
            },
        );
    }
    table.emit();
    println!(
        "paper shapes: Cocco matches the enumeration optimum where it\n\
         completes (plain/medium CNNs) and beats greedy and DP on the large\n\
         irregular models where enumeration does not finish."
    );
}
