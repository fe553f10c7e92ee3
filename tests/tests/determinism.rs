//! Reproducibility: fixed seeds reproduce results end-to-end, including
//! under parallel fitness evaluation.

use cocco::prelude::*;
use cocco_tests::ENGINE_THREADS;

/// A seeded GA's best cost, genome, samples and trace, plus its engine
/// counters, at `threads` engine threads on a fresh evaluator (cold
/// caches), optionally under a live telemetry sink.
fn ga_run(
    model: &Graph,
    budget: u64,
    population: usize,
    seed: u64,
    threads: u32,
    telemetry: Option<&Telemetry>,
) -> ((f64, Option<Genome>, u64, Vec<TracePoint>), EngineStats) {
    let eval = Evaluator::new(model, AcceleratorConfig::default());
    let ctx = SearchContext::new(
        model,
        &eval,
        BufferSpace::paper_shared(),
        Objective::paper_energy_capacity(),
        budget,
    );
    let engine = EngineConfig::with_threads(threads);
    let ctx = match telemetry {
        Some(t) => ctx.with_engine_telemetry(engine, t),
        None => ctx.with_engine(engine),
    };
    let ga = SearchMethod::Ga(GaConfig {
        population,
        ..GaConfig::default()
    });
    let out = ga.with_seed(seed).run(&ctx);
    let result = (out.best_cost, out.best, out.samples, ctx.trace().points());
    (result, ctx.engine().stats())
}

/// Every batch job sees only the cache state from before its batch, so a
/// seeded GA returns the same best cost, genome, samples and trace, with
/// the same engine counters (all but the thread count and wall time), at
/// every thread count, with or without a live telemetry sink; it hits the
/// cache, scores subgraph terms, and never takes the statistics cache's
/// allocating canonicalize fallback.
#[test]
fn ga_is_bit_identical_at_any_thread_count() {
    let counters = |s: EngineStats| EngineStats {
        threads: 0,
        wall_ms: 0.0,
        ..s
    };
    for (model, budget, population, seed) in [
        (cocco::graph::models::googlenet(), 1_200, 40, 11),
        (cocco::graph::models::resnet50(), 600, 50, 42),
    ] {
        let name = model.name();
        let (serial, serial_stats) = ga_run(&model, budget, population, seed, 1, None);
        assert!(serial_stats.cache_hits > 0, "{name}: never hit the cache");
        assert!(serial_stats.subgraph_scorings > 0, "{name}: no term scored");
        assert_eq!(
            serial_stats.stats_canonicalize_fallbacks, 0,
            "{name}: the warmed scoring hot path must stay allocation-free"
        );
        for threads in ENGINE_THREADS {
            let telemetry = Telemetry::enabled();
            for (arm, sink) in [("plain", None), ("telemetry", Some(&telemetry))] {
                let at = format!("{name}, {arm}, {threads} threads");
                let (run, stats) = ga_run(&model, budget, population, seed, threads, sink);
                assert_eq!(serial.0, run.0, "best cost ({at})");
                assert_eq!(serial.1, run.1, "best genome ({at})");
                assert_eq!(serial.2, run.2, "samples ({at})");
                assert_eq!(serial.3, run.3, "trace ({at})");
                assert_eq!(counters(serial_stats), counters(stats), "counters ({at})");
            }
            assert!(
                telemetry
                    .snapshot()
                    .histogram("engine.batch.latency_ns")
                    .is_some(),
                "{name}: the live sink saw no batch at {threads} threads"
            );
        }
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
