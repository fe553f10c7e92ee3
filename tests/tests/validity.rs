//! Every search method produces valid partitions on every paper model.

use cocco::prelude::*;

fn check_valid(model: &str, buffer: BufferConfig, budget: u64) {
    let g = cocco::graph::models::by_name(model).unwrap();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    let make_ctx = || {
        SearchContext::new(
            &g,
            &eval,
            BufferSpace::fixed(buffer),
            Objective::partition_only(CostMetric::Ema),
            budget,
        )
    };
    let ga = GaConfig {
        population: 24,
        ..GaConfig::default()
    };
    let methods = [
        SearchMethod::greedy(),
        SearchMethod::depth_dp(),
        SearchMethod::Ga(ga).with_seed(1),
        SearchMethod::sa().with_seed(1),
    ];
    for method in methods {
        let name = method.key();
        let out = method.run(&make_ctx());
        let best = out
            .best
            .unwrap_or_else(|| panic!("{model}/{name}: no solution"));
        best.partition
            .validate(&g)
            .unwrap_or_else(|e| panic!("{model}/{name}: invalid partition: {e}"));
        // Every subgraph respects the capacity (streamed singletons aside).
        for members in best.partition.subgraphs() {
            let stats = eval.subgraph_stats(&members).unwrap();
            assert!(
                buffer.fits(stats.act_footprint_bytes, stats.wgt_resident_bytes),
                "{model}/{name}: oversized subgraph"
            );
        }
    }
}

#[test]
fn cnn_models_produce_valid_partitions() {
    for model in ["vgg16", "resnet50", "googlenet"] {
        check_valid(model, BufferConfig::separate(1 << 20, 1152 << 10), 400);
    }
}

#[test]
fn irregular_models_produce_valid_partitions() {
    for model in ["randwire-a", "nasnet"] {
        check_valid(model, BufferConfig::separate(1 << 20, 1152 << 10), 300);
    }
}

#[test]
fn sequence_models_produce_valid_partitions() {
    for model in ["transformer", "gpt"] {
        check_valid(model, BufferConfig::shared(2 << 20), 300);
    }
}

#[test]
fn resnet152_produces_valid_partitions() {
    check_valid("resnet152", BufferConfig::shared(2 << 20), 300);
}

#[test]
fn exhaustive_is_valid_where_it_completes() {
    for model in ["vgg16", "chain"] {
        let g = if model == "chain" {
            cocco::graph::models::chain(10)
        } else {
            cocco::graph::models::by_name(model).unwrap()
        };
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::fixed(BufferConfig::separate(1 << 20, 1152 << 10)),
            Objective::partition_only(CostMetric::Ema),
            0,
        );
        let out = SearchMethod::exhaustive().run(&ctx);
        assert!(out.completed, "{model} enumeration did not complete");
        assert!(out.best.unwrap().partition.validate(&g).is_ok());
    }
}

#[test]
fn region_plans_match_the_footprint_on_greedy_partitions() {
    // The region manager and the statistics size regions with one
    // formula: on every registry model, each subgraph of the greedy
    // partition plans exactly the footprint's bytes and regions.
    use cocco::mem::{footprint::subgraph_footprint, BufferRegionManager};
    let buffer = BufferConfig::shared(2 << 20);
    for &(name, build) in cocco::graph::models::registry() {
        let g = build();
        let config = AcceleratorConfig::default();
        let eval = Evaluator::new(&g, config.clone());
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::fixed(buffer),
            Objective::partition_only(CostMetric::Ema),
            300,
        );
        let best = SearchMethod::greedy()
            .run(&ctx)
            .best
            .unwrap_or_else(|| panic!("{name}: no greedy solution"));
        let mut mgr = BufferRegionManager::new(1 << 40, 1 << 16);
        for members in best.partition.subgraphs() {
            let scheme = cocco::tiling::derive_scheme(&g, &members, &config.mapper)
                .unwrap_or_else(|e| panic!("{name}: {members:?}: {e}"));
            let fp = subgraph_footprint(&g, &members, &scheme, config.elem_bytes);
            let plan = mgr
                .allocate_subgraph(&g, &scheme, config.elem_bytes)
                .unwrap_or_else(|e| panic!("{name}: {members:?}: {e}"));
            assert_eq!(
                plan.total_bytes(),
                fp.activation_bytes,
                "{name}: {members:?}"
            );
            assert_eq!(plan.regions().len(), fp.regions, "{name}: {members:?}");
        }
    }
}
