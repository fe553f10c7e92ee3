//! Relative search quality: the orderings the paper's Figure 11 and
//! Tables 1-2 report.

use cocco::prelude::*;

fn partition_ctx<'a>(
    g: &'a cocco::graph::Graph,
    eval: &'a Evaluator<'a>,
    buffer: BufferConfig,
    budget: u64,
) -> SearchContext<'a> {
    SearchContext::new(
        g,
        eval,
        BufferSpace::fixed(buffer),
        Objective::partition_only(CostMetric::Ema),
        budget,
    )
}

/// Cocco never loses to the greedy baseline on the paper CNNs (with the
/// scaled-down budget used in CI).
#[test]
fn cocco_matches_or_beats_greedy() {
    let buffer = BufferConfig::separate(1 << 20, 1152 << 10);
    for model in ["resnet50", "googlenet"] {
        let g = cocco::graph::models::by_name(model).unwrap();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let greedy = SearchMethod::greedy().run(&partition_ctx(&g, &eval, buffer, 0));
        let ga = SearchMethod::ga()
            .with_seed(0xC0CC0)
            .run(&partition_ctx(&g, &eval, buffer, 12_000));
        assert!(
            ga.best_cost <= greedy.best_cost * 1.001,
            "{model}: GA {} vs greedy {}",
            ga.best_cost,
            greedy.best_cost
        );
    }
}

/// On irregular graphs the DP's depth-contiguity restriction hurts; Cocco
/// must not be worse.
#[test]
fn cocco_matches_or_beats_dp_on_randwire() {
    let g = cocco::graph::models::randwire_a();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    let buffer = BufferConfig::separate(1 << 20, 1152 << 10);
    let dp = SearchMethod::depth_dp().run(&partition_ctx(&g, &eval, buffer, 0));
    let ga = SearchMethod::ga()
        .with_seed(0xC0CC0)
        .run(&partition_ctx(&g, &eval, buffer, 12_000));
    assert!(
        ga.best_cost <= dp.best_cost,
        "GA {} vs DP {}",
        ga.best_cost,
        dp.best_cost
    );
}

/// Enumeration is exact: no other method may beat it where it completes.
#[test]
fn enumeration_is_a_lower_bound() {
    let g = cocco::graph::models::chain(8);
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    // A buffer that fits ~3 layers to make the problem non-trivial.
    let members3: Vec<_> = g.node_ids().take(3).collect();
    let stats = eval.subgraph_stats(&members3).unwrap();
    let buffer = BufferConfig::shared(stats.act_footprint_bytes + stats.wgt_footprint_bytes);
    let exhaustive = SearchMethod::exhaustive().run(&partition_ctx(&g, &eval, buffer, 0));
    assert!(exhaustive.completed);
    for (name, out) in [
        (
            "greedy",
            SearchMethod::greedy().run(&partition_ctx(&g, &eval, buffer, 0)),
        ),
        (
            "dp",
            SearchMethod::depth_dp().run(&partition_ctx(&g, &eval, buffer, 0)),
        ),
        (
            "ga",
            SearchMethod::Ga(GaConfig {
                population: 24,
                ..GaConfig::default()
            })
            .with_seed(2)
            .run(&partition_ctx(&g, &eval, buffer, 3_000)),
        ),
    ] {
        assert!(
            exhaustive.best_cost <= out.best_cost + 1e-6,
            "{name} beat the enumeration: {} < {}",
            out.best_cost,
            exhaustive.best_cost
        );
    }
    // On a plain chain the DP is also exact: they must agree.
    let dp = SearchMethod::depth_dp().run(&partition_ctx(&g, &eval, buffer, 0));
    assert!((dp.best_cost - exhaustive.best_cost).abs() < 1e-6);
}

/// Co-exploration (Formula 2) finds a cost no worse than the best fixed
/// configuration it could have chosen (given enough samples on a small
/// model).
#[test]
fn co_exploration_beats_bad_fixed_choices() {
    let g = cocco::graph::models::googlenet();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    let alpha = 0.002;
    let coopt_ctx = SearchContext::new(
        &g,
        &eval,
        BufferSpace::paper_shared(),
        Objective::co_exploration(CostMetric::Energy, alpha),
        8_000,
    );
    let coopt = SearchMethod::ga().with_seed(5).run(&coopt_ctx);
    // The largest buffer is a bad Formula-2 choice for GoogleNet.
    let large = BufferConfig::shared(3072 << 10);
    let ctx = SearchContext::new(
        &g,
        &eval,
        BufferSpace::fixed(large),
        Objective::partition_only(CostMetric::Energy),
        4_000,
    );
    let fixed = SearchMethod::ga().with_seed(5).run(&ctx);
    let fixed_cost = large.total_bytes() as f64 + alpha * fixed.best_cost;
    assert!(
        coopt.best_cost < fixed_cost,
        "co-opt {} vs worst-fixed {fixed_cost}",
        coopt.best_cost
    );
}

/// The paper's "flexible initialization" benefit: warm-starting the GA from
/// the greedy result cannot end worse than greedy.
#[test]
fn warm_started_ga_refines_greedy() {
    let g = cocco::graph::models::googlenet();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    let buffer = BufferConfig::separate(1 << 20, 1152 << 10);
    let greedy = SearchMethod::greedy().run(&partition_ctx(&g, &eval, buffer, 0));
    let warm = greedy.best.as_ref().unwrap().partition.clone();
    let ga = SearchMethod::Ga(GaConfig {
        initial: vec![warm],
        ..GaConfig::default()
    })
    .with_seed(6)
    .run(&partition_ctx(&g, &eval, buffer, 3_000));
    assert!(ga.best_cost <= greedy.best_cost);
}
