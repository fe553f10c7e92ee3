//! Workspace-level tests of the evaluation engine: thread-count
//! invariance for every stochastic method, cache sharing across derived
//! contexts, and the `infeasible_errors` accounting.

use cocco::prelude::*;

fn explore(method: SearchMethod, threads: u32, budget: u64) -> Exploration {
    Cocco::new()
        .with_method(method)
        .with_budget(budget)
        .with_seed(21)
        .with_engine(EngineConfig::with_threads(threads))
        .explore(&cocco::graph::models::googlenet())
        .unwrap()
}

#[test]
fn every_stochastic_method_is_thread_count_invariant() {
    for method in [
        SearchMethod::ga(),
        SearchMethod::sa(),
        SearchMethod::two_step(),
    ] {
        let name = method.name();
        let serial = explore(method.clone(), 1, 400);
        let parallel = explore(method, 4, 400);
        assert_eq!(serial.cost, parallel.cost, "{name}: cost diverged");
        assert_eq!(serial.genome, parallel.genome, "{name}: genome diverged");
        assert_eq!(serial.trace, parallel.trace, "{name}: trace diverged");
        assert_eq!(serial.samples, parallel.samples, "{name}: samples diverged");
    }
}

#[test]
fn two_step_inner_runs_share_the_engine_cache() {
    let result = explore(SearchMethod::two_step(), 2, 600);
    assert!(
        result.stats.cache_hits > 0,
        "inner GAs re-propose partitions; the shared cache must see hits"
    );
    assert!(result.stats.evals >= result.samples);
}

#[test]
fn engine_stats_round_trip_through_json() {
    let result = explore(SearchMethod::ga(), 2, 300);
    let json = serde_json::to_string(&result).unwrap();
    let back: Exploration = serde_json::from_str(&json).unwrap();
    assert_eq!(back.stats, result.stats);
    assert_eq!(back.infeasible_errors, result.infeasible_errors);
}

#[test]
fn infeasible_errors_count_silent_evaluator_failures() {
    let g = cocco::graph::models::diamond();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    let ctx = SearchContext::new(
        &g,
        &eval,
        BufferSpace::fixed(BufferConfig::shared(1 << 20)),
        Objective::partition_only(CostMetric::Ema),
        10,
    );
    let buffer = BufferConfig::shared(1 << 20);
    // An empty member set is an evaluator error, not a genuine misfit —
    // `fits` maps it to false but must count it.
    assert!(!ctx.fits(&[], &buffer));
    assert_eq!(ctx.trace().infeasible_errors(), 1);
    // Healthy queries leave the counter alone.
    let members: Vec<NodeId> = g.node_ids().collect();
    assert!(ctx.fits(&members, &buffer));
    assert_eq!(ctx.trace().infeasible_errors(), 1);
    // The baselines' subgraph term counts the same error once per call.
    assert_eq!(ctx.subgraph_cost(&[], &buffer), None);
    assert_eq!(ctx.trace().infeasible_errors(), 2);
    assert!(ctx.subgraph_cost(&members, &buffer).is_some());
    assert_eq!(ctx.trace().infeasible_errors(), 2);
}

/// Greedy fusion and depth-DP hand the statistics cache ascending member
/// lists on every registry model (no canonicalize fallback: the sort the
/// derivation keeps for order-agnostic callers never runs), and neither
/// outgrows the cache at its default capacity.
#[test]
fn baselines_need_no_stats_fallback_or_eviction_on_any_model() {
    for &(name, build) in cocco::graph::models::registry() {
        let g = build();
        for method in [SearchMethod::greedy(), SearchMethod::depth_dp()] {
            let eval = Evaluator::new(&g, AcceleratorConfig::default());
            let ctx = SearchContext::new(
                &g,
                &eval,
                BufferSpace::paper_shared(),
                Objective::paper_energy_capacity(),
                0,
            );
            let outcome = method.run(&ctx);
            let what = format!("{name} {}", method.name());
            assert!(outcome.best_cost.is_finite(), "{what}");
            assert_eq!(eval.stats_canonicalize_fallbacks(), 0, "{what}");
            assert_eq!(
                ctx.engine().stats().stats_canonicalize_fallbacks,
                0,
                "{what}"
            );
            assert_eq!(eval.stats_cache_evictions(), 0, "{what}");
        }
    }
}

#[test]
fn healthy_runs_report_zero_infeasible_errors() {
    for method in [SearchMethod::ga(), SearchMethod::greedy()] {
        let name = method.name();
        let result = explore(method, 2, 300);
        assert_eq!(result.infeasible_errors, 0, "{name}");
    }
}

#[test]
fn bounded_cache_stays_within_budget_and_preserves_results() {
    // The memory-bounding criterion: a long exploration under a small
    // `cache_capacity` stays within the configured entry budget, reports
    // its evictions, and produces the exact result of an unbounded run.
    let capacity = 512usize;
    let run = |config: EngineConfig| {
        Cocco::new()
            .with_budget(2_000)
            .with_seed(17)
            .with_engine(config)
            .explore(&cocco::graph::models::googlenet())
            .unwrap()
    };
    let unbounded = run(EngineConfig::with_threads(2));
    let bounded = run(EngineConfig::with_threads(2).with_cache_capacity(capacity));
    assert_eq!(bounded.cost, unbounded.cost, "eviction changed the cost");
    assert_eq!(
        bounded.genome, unbounded.genome,
        "eviction changed the genome"
    );
    assert_eq!(bounded.trace, unbounded.trace, "eviction changed the trace");
    let entries = bounded.stats.cache_entries;
    assert!(
        entries <= capacity as u64,
        "{entries} cached entries exceed the {capacity}-entry budget"
    );
    assert!(
        bounded.stats.cache_evictions > 0,
        "a 2000-sample run against a 512-entry budget must evict"
    );
    assert_eq!(
        unbounded.stats.cache_evictions, 0,
        "the default budget must be generous enough to never evict here"
    );
}

#[test]
fn eviction_victims_are_deterministic_across_identical_runs() {
    // The regression test for nondeterministic victim selection: when a
    // generation sweep still overflows the shard budget, the entries shed
    // must be a function of the keys alone — never of map iteration
    // order — so two identical runs persist byte-identical snapshots.
    let dir = std::env::temp_dir().join(format!("cocco-evict-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |tag: &str| {
        let path = dir.join(format!("snapshot-{tag}.json"));
        let result = Cocco::new()
            .with_budget(2_000)
            .with_seed(17)
            .with_engine(EngineConfig::serial().with_cache_capacity(512))
            .with_cache_file(&path)
            .explore(&cocco::graph::models::googlenet())
            .unwrap();
        assert!(
            result.stats.cache_evictions > 0,
            "the run must evict, or byte-identity proves nothing"
        );
        (std::fs::read(&path).unwrap(), result)
    };
    let (bytes_a, a) = run("a");
    let (bytes_b, b) = run("b");
    assert_eq!(
        a.cost, b.cost,
        "identical runs diverged before the snapshot"
    );
    assert_eq!(
        bytes_a, bytes_b,
        "identical runs persisted different cache snapshots after evictions"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn roll_up_cache_hits_seed_offspring_memos() {
    // Every successful score hands out a memo, cache hits included — even
    // hits on entries restored from a cache file, which carry none of
    // their own. So a GA warm-started from the file a cold run filled
    // (every probe hits) seeds its offspring's repair exactly as the cold
    // run did: same results, same `fits` calls.
    let dir = std::env::temp_dir().join(format!("cocco-warm-seeds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");
    let run = || {
        let telemetry = Telemetry::enabled();
        let result = Cocco::new()
            .with_budget(600)
            .with_seed(21)
            .with_engine(EngineConfig::serial())
            .with_telemetry(telemetry.clone())
            .with_cache_file(&path)
            .explore(&cocco::graph::models::googlenet())
            .unwrap();
        (result, telemetry.snapshot().counter("sim.fits_calls"))
    };
    let (cold, cold_fits) = run();
    let (warm, warm_fits) = run();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(cold.cost, warm.cost);
    assert_eq!(cold.genome, warm.genome);
    assert_eq!(cold.trace, warm.trace);
    assert_eq!(
        warm.stats.cache_hits, warm.stats.evals,
        "every warm probe hits"
    );
    assert!(cold_fits > 0);
    assert_eq!(
        warm_fits, cold_fits,
        "warm offspring must take the parent seeds the cold run took"
    );
}

#[test]
fn engine_counters_are_thread_count_invariant() {
    // Every batch job sees only the cache state from before its batch, so
    // the engine's hit, miss and scoring counters — not just the results —
    // are the same at any thread count.
    let g = cocco::graph::models::randwire_a();
    let counters = |threads: u32| {
        let evaluator = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            &g,
            &evaluator,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            600,
        )
        .with_engine(EngineConfig::with_threads(threads));
        SearchMethod::ga().with_seed(21).run(&ctx);
        let s = ctx.engine().stats();
        (s.evals, s.cache_hits, s.subgraph_scorings)
    };
    let serial = counters(1);
    for threads in [2, 4] {
        assert_eq!(
            serial,
            counters(threads),
            "engine counters at {threads} threads"
        );
    }
}
