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

/// A fresh scratch directory for one cache-file test.
fn cache_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cocco-cache-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cached_session(path: &std::path::Path, budget: u64) -> Cocco {
    Cocco::new()
        .with_budget(budget)
        .with_seed(5)
        .with_cache_file(path)
}

#[test]
fn warm_run_that_adds_nothing_leaves_the_cache_file_alone() {
    let dir = cache_dir("warm-skip");
    let path = dir.join("cache.json");
    let model = cocco::graph::models::googlenet();
    let cold_telemetry = Telemetry::enabled();
    let cold = cached_session(&path, 300)
        .with_telemetry(cold_telemetry.clone())
        .explore(&model)
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
    // Every save attempt would fail, so any attempt shows up as an
    // injected fault and a save error.
    let plan = FaultPlan::seeded(3, FaultRates::none().with(FaultSite::SaveWrite, 1.0));
    let telemetry = Telemetry::enabled();
    let warm = cached_session(&path, 300)
        .with_faults(plan.clone())
        .with_telemetry(telemetry.clone())
        .explore(&model)
        .unwrap();
    assert_eq!(warm.stats.cache_hits, warm.stats.evals, "every probe hits");
    assert_eq!(cold.cost, warm.cost);
    assert_eq!(cold.trace, warm.trace);
    assert_eq!(plan.injected(FaultSite::SaveWrite), 0, "no save attempted");
    assert_eq!(warm.cache_save_error, None);
    assert!(!warm.is_degraded());
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "the file is unchanged"
    );
    assert_eq!(
        std::fs::metadata(&path).unwrap().modified().unwrap(),
        modified
    );
    // The layer counters show the skip: a load, but no save time.
    let (cold, warm) = (cold_telemetry.snapshot(), telemetry.snapshot());
    assert!(cold.counter("core.cache_save_ns") > 0);
    assert!(warm.counter("core.cache_load_ns") > 0);
    assert_eq!(warm.counter("core.cache_save_ns"), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_run_with_new_entries_extends_the_cache_file() {
    let dir = cache_dir("warm-grow");
    let path = dir.join("cache.json");
    let model = cocco::graph::models::googlenet();
    cached_session(&path, 300).explore(&model).unwrap();
    let before = CacheSnapshot::load(&path).unwrap();
    let larger = cached_session(&path, 600).explore(&model).unwrap();
    assert!(
        larger.stats.cache_hits < larger.stats.evals,
        "the run computed"
    );
    assert_eq!(larger.cache_save_error, None);
    let after = CacheSnapshot::load(&path).unwrap();
    assert!(after.len() > before.len(), "the new entries were saved");
    for (key, value) in &before.partition {
        let kept = after.partition.iter().find(|(k, _)| k == key);
        assert_eq!(kept.map(|(_, v)| v), Some(value), "old entry {key:?} kept");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn salvaged_cache_files_are_rewritten_even_when_nothing_is_new() {
    let dir = cache_dir("salvage-rewrite");
    let path = dir.join("cache.json");
    let model = cocco::graph::models::googlenet();
    cached_session(&path, 300).explore(&model).unwrap();
    let valid = std::fs::read_to_string(&path).unwrap();
    let entries = CacheSnapshot::load(&path).unwrap().len() as u64;
    // Without its closing brace the document no longer parses, but
    // salvage recovers every entry, so the run adds nothing.
    std::fs::write(&path, &valid[..valid.len() - 1]).unwrap();
    let salvaged = cached_session(&path, 300).explore(&model).unwrap();
    assert_eq!(salvaged.health.salvaged_entries, entries);
    assert_eq!(salvaged.stats.cache_hits, salvaged.stats.evals);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        valid,
        "rewritten whole"
    );
    let next = cached_session(&path, 300).explore(&model).unwrap();
    assert_eq!(next.health.salvaged_entries, 0, "nothing left to salvage");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_cache_files_are_rewritten_as_v2_even_when_nothing_is_new() {
    // On a two-node chain under one fixed buffer the only partitions are
    // "whole" and "split", so the v1 document below can hold every entry
    // a run needs.
    let dir = cache_dir("v1-rewrite");
    let path = dir.join("cache.json");
    let model = cocco::graph::models::chain(1);
    let buffer = BufferConfig::shared(1 << 20);
    let session = || {
        Cocco::new()
            .with_space(BufferSpace::fixed(buffer))
            .with_objective(Objective::partition_only(CostMetric::Ema))
            .with_budget(40)
            .with_seed(5)
            .with_cache_file(&path)
    };
    session().explore(&model).unwrap();
    let v2 = std::fs::read_to_string(&path).unwrap();
    let snapshot = CacheSnapshot::load(&path).unwrap();
    let fingerprint = Evaluator::new(&model, AcceleratorConfig::default()).fingerprint();
    let node = NodeId::from_index;
    let max = u64::MAX;
    let mut v1_entries = Vec::new();
    for (subgraphs, words) in [
        (vec![vec![node(0), node(1)]], vec![0, 1, max]),
        (vec![vec![node(0)], vec![node(1)]], vec![0, max, 1, max]),
    ] {
        let key = cocco::engine::eval_key(fingerprint, &subgraphs, &buffer, EvalOptions::default());
        if let Some((_, value)) = snapshot.partition.iter().find(|(k, _)| *k == key) {
            let mut v1_key = vec![fingerprint, 0, 1 << 20, 0, 1, 1];
            v1_key.extend(words);
            v1_entries.push(serde_json::to_string(&(v1_key, value)).unwrap());
        }
    }
    assert_eq!(
        v1_entries.len(),
        snapshot.len(),
        "the v1 file holds every entry"
    );
    let v1 = format!("{{\"version\":1,\"partition\":[{}]}}", v1_entries.join(","));
    std::fs::write(&path, v1).unwrap();
    let warm = session().explore(&model).unwrap();
    assert_eq!(
        warm.stats.cache_hits, warm.stats.evals,
        "the upgrade warm-starts"
    );
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        v2,
        "rewritten as v2"
    );
    std::fs::remove_dir_all(&dir).ok();
}
