//! Reproducibility: fixed seeds reproduce results end-to-end, including
//! under parallel fitness evaluation.

use cocco::prelude::*;

#[test]
fn ga_is_bit_identical_at_any_thread_count() {
    let g = cocco::graph::models::googlenet();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    let run = |threads: u32| {
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            1_200,
        )
        .with_engine(EngineConfig::with_threads(threads));
        let ga = SearchMethod::Ga(GaConfig {
            population: 40,
            ..GaConfig::default()
        });
        let out = ga.with_seed(11).run(&ctx);
        (out.best_cost, out.best, out.samples, ctx.trace().points())
    };
    let serial = run(1);
    for threads in [2, 4] {
        let parallel = run(threads);
        assert_eq!(serial.0, parallel.0, "best cost at {threads} threads");
        assert_eq!(serial.1, parallel.1, "best genome at {threads} threads");
        assert_eq!(serial.2, parallel.2, "samples at {threads} threads");
        assert_eq!(serial.3, parallel.3, "trace at {threads} threads");
    }
}

#[test]
fn facade_ga_is_identical_serial_and_parallel() {
    // The acceptance check of the engine rework: `SearchMethod::Ga`
    // through the facade returns the identical best cost, genome and trace
    // at 1 and 4 threads.
    let model = cocco::graph::models::resnet50();
    let run = |threads: u32| {
        Cocco::new()
            .with_method(SearchMethod::ga())
            .with_budget(500)
            .with_seed(7)
            .with_engine(EngineConfig::with_threads(threads))
            .explore(&model)
            .unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.cost, parallel.cost);
    assert_eq!(serial.genome, parallel.genome);
    assert_eq!(serial.trace, parallel.trace);
    assert_eq!(serial.samples, parallel.samples);
}

#[test]
fn model_zoo_is_deterministic() {
    for name in cocco::graph::models::PAPER_MODELS {
        let a = cocco::graph::models::by_name(name).unwrap();
        let b = cocco::graph::models::by_name(name).unwrap();
        assert_eq!(a.len(), b.len(), "{name}");
        assert_eq!(a.total_macs(), b.total_macs(), "{name}");
        assert_eq!(
            a.total_weight_elements(),
            b.total_weight_elements(),
            "{name}"
        );
    }
}

#[test]
fn sa_and_twostep_reproduce() {
    let g = cocco::graph::models::diamond();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    let sa = |seed| {
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            400,
        );
        SearchMethod::sa().with_seed(seed).run(&ctx).best_cost
    };
    assert_eq!(sa(3), sa(3));
    let ts = |seed| {
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            400,
        );
        SearchMethod::TwoStep(TwoStep::random().with_per_candidate(100))
            .with_seed(seed)
            .run(&ctx)
            .best_cost
    };
    assert_eq!(ts(4), ts(4));
}

#[test]
fn evaluator_results_are_pure() {
    let g = cocco::graph::models::resnet50();
    let e1 = Evaluator::new(&g, AcceleratorConfig::default());
    let e2 = Evaluator::new(&g, AcceleratorConfig::default());
    let p = Partition::connected_groups(&g, 3);
    let buffer = BufferConfig::shared(2 << 20);
    let r1 = e1
        .eval_partition(&p.subgraphs(), &buffer, EvalOptions::default())
        .unwrap();
    let r2 = e2
        .eval_partition(&p.subgraphs(), &buffer, EvalOptions::default())
        .unwrap();
    assert_eq!(r1.ema_bytes, r2.ema_bytes);
    assert_eq!(r1.energy_pj, r2.energy_pj);
    assert_eq!(r1.latency_cycles, r2.latency_cycles);
}
